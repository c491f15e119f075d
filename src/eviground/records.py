"""Patient records and clinical evidence items, with JSONL serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError
from .tensorio import dataclass_fields, read_json_lines

LABELS = ("CN", "MCI", "Dementia")
EVIDENCE_CATEGORIES = (
    "demographics",
    "history",
    "cognition",
    "lab",
    "genetic",
    "biomarker",
    "imaging",
)
COGNITIVE_DOMAINS = ("memory", "executive", "visuospatial", "language")
BIOMARKERS = ("abeta", "ttau", "ptau")


@dataclass(frozen=True)
class EvidenceItem:
    """Short textual descriptor of a clinical finding plus its source field."""

    id: str
    descriptor: str
    source_field: str
    category: str
    anatomy_ref: str | None = None

    def __post_init__(self):
        if self.category not in EVIDENCE_CATEGORIES:
            raise ValidationError(f"unknown evidence category {self.category!r}")
        if not self.source_field:
            raise ValidationError("source_field must be nonempty")
        if self.anatomy_ref is not None and self.category != "imaging":
            raise ValidationError("anatomy_ref is only valid for imaging evidence")


@dataclass
class PatientRecord:
    id: str
    demographics: dict  # age, sex, education_years
    cognition: dict  # per-domain composite z-scores, higher is better
    biomarkers: dict  # abeta, ttau, ptau in pg/mL
    genetics: dict  # apoe allele pair, e.g. "e3/e4"
    evidence: list[EvidenceItem] = field(default_factory=list)
    gt_label: str = "CN"
    mask_files: dict = field(default_factory=dict)  # anatomy_ref -> relative path
    imaging: dict = field(default_factory=dict)  # anatomy_ref -> structure volume in mm^3

    def __post_init__(self):
        if self.gt_label not in LABELS:
            raise ValidationError(f"unknown label {self.gt_label!r}")
        if any(v <= 0 for v in self.biomarkers.values()):
            raise ValidationError("biomarker values must be positive")
        seen = set()
        for item in self.evidence:
            if item.id in seen:
                raise ValidationError(f"duplicate evidence id {item.id!r}")
            seen.add(item.id)

    def to_json(self) -> dict:
        """The fields as a dict, with one new dict per evidence item; the
        other dict fields are the record's own, not copies."""
        d = dict(vars(self))
        d["evidence"] = [dict(vars(e)) for e in self.evidence]
        return d

    @classmethod
    def from_json(cls, d: dict) -> "PatientRecord":
        d = dict(dataclass_fields(cls, d))
        evidence = d.get("evidence", [])
        d["evidence"] = [EvidenceItem(**dataclass_fields(EvidenceItem, e)) for e in evidence]
        return cls(**d)


def write_records(path: str | Path, records: list[PatientRecord]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")


def read_records(path: str | Path) -> list[PatientRecord]:
    return list(read_json_lines(path, PatientRecord.from_json))
