"""Patient records and clinical evidence items."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError

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
    cognition: dict[str, float]  # per-domain composite z-scores, higher is better
    biomarkers: dict[str, float]  # abeta, ttau, ptau in pg/mL
    genetics: dict[str, str]  # apoe allele pair, e.g. "e3/e4"
    evidence: list[EvidenceItem] = field(default_factory=list)
    gt_label: str = "CN"
    mask_files: dict[str, str] = field(default_factory=dict)  # anatomy_ref -> relative path
    imaging: dict[str, float] = field(default_factory=dict)  # anatomy_ref -> structure volume in mm^3

    def __post_init__(self):
        if self.gt_label not in LABELS:
            raise ValidationError(f"unknown label {self.gt_label!r}")
        for name, keys, wanted in (
            ("cognition", self.cognition.keys(), COGNITIVE_DOMAINS),
            ("biomarkers", self.biomarkers.keys(), BIOMARKERS),
        ):
            if keys != set(wanted):
                raise ValidationError(f"{name} needs the keys {list(wanted)}, got {sorted(keys)}")
        demo = self.demographics
        for where, value, kind in (
            ("demographics.age", demo.get("age"), (int, float)),
            ("demographics.education_years", demo.get("education_years"), (int, float)),
            ("demographics.sex", demo.get("sex"), str),
            ("genetics.apoe", self.genetics.get("apoe"), str),
        ):
            if isinstance(value, bool) or not isinstance(value, kind):
                words = "a string" if kind is str else "a number"
                raise ValidationError(f"{where} must be {words}, got {value!r}")
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
