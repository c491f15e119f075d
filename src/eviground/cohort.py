"""Deterministic synthetic cohort generator.

Per patient: label-conditioned truncated-Gaussian biomarkers and cognition
scores (sampled strictly inside the regions where the staging rule equals
the label), standardized evidence descriptors, a 16^3 volume with two
ellipsoidal hippocampus blobs whose radii shrink with disease stage,
analytic ground-truth masks, and a grammar-valid gold report with
sentence-evidence links.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import phrases, tensorio
from .errors import ValidationError
from .records import (
    BIOMARKERS,
    COGNITIVE_DOMAINS,
    LABELS,
    EvidenceItem,
    PatientRecord,
)
from .report import parse_report, render_report
from .rules import RuleConfig, biomarker_abnormal, severity_bin, stage_from_values

MM3_PER_VOXEL = 45.0
ATROPHY_SCALE_CUTOFF = 0.92  # radius scale below this renders as atrophic
STRUCTURES = ("left_hippocampus", "right_hippocampus")


@dataclass
class CohortConfig:
    n_patients: int = 100
    label_mix: tuple[float, ...] = (1 / 3, 1 / 3, 1 / 3)  # CN, MCI, Dementia proportions
    volume_dim: int = 16
    noise: float = 0.02
    rules: RuleConfig = field(default_factory=RuleConfig)

    def __post_init__(self):
        if self.n_patients < 1:
            raise ValidationError("n_patients must be >= 1")
        if len(self.label_mix) != len(LABELS) or min(self.label_mix) < 0:
            raise ValidationError(f"label_mix must hold one nonnegative number per label in {list(LABELS)}")
        if abs(sum(self.label_mix) - 1.0) > 1e-9:
            raise ValidationError("label_mix must sum to 1")
        self.label_mix = tuple(float(x) for x in self.label_mix)


def _trunc_normal(rng, mean, std, lo, hi) -> float:
    # rejection sampling; bounds are wide relative to std everywhere we call it
    for _ in range(1000):
        x = rng.normal(mean, std)
        if lo <= x <= hi:
            return float(x)
    return float(np.clip(rng.normal(mean, std), lo, hi))


# label -> per-domain (mean, std, lo, hi); bounds sit inside one severity region
_COGNITION_RANGES = {
    "CN": {d: (0.3, 0.4, -0.45, 1.5) for d in COGNITIVE_DOMAINS},
    "MCI": {
        "memory": (-1.0, 0.25, -1.45, -0.55),
        "executive": (-0.4, 0.4, -1.40, 0.8),
        "visuospatial": (-0.3, 0.4, -1.40, 0.8),
        "language": (-0.3, 0.4, -1.40, 0.8),
    },
    "Dementia": {
        "memory": (-2.4, 0.5, -3.4, -1.60),
        "executive": (-1.6, 0.4, -2.45, -0.60),
        "visuospatial": (-1.3, 0.5, -2.30, -0.55),
        "language": (-1.3, 0.5, -2.30, -0.55),
    },
}

# (mean, std, lo, hi) per marker, chosen with >= 3% margin from thresholds
_BIOMARKER_RANGES = {
    "CN": {
        "abeta": (1250, 120, 1020, 1600),
        "ttau": (210, 40, 120, 285),
        "ptau": (18, 4, 10, 25.5),
    },
    "Dementia": {
        "abeta": (620, 80, 420, 930),
        "ttau": (420, 60, 320, 600),
        "ptau": (36, 5, 29, 50),
    },
}


def _sample_biomarkers(rng, label: str) -> dict:
    if label in _BIOMARKER_RANGES:
        return {m: _trunc_normal(rng, *_BIOMARKER_RANGES[label][m]) for m in BIOMARKERS}
    # MCI: amyloid abnormal plus at most one abnormal tau marker, so the
    # abnormal-marker count (1 or 2) never collides with the Dementia pattern
    values = {"abeta": _trunc_normal(rng, 820, 70, 650, 940)}
    pattern = rng.integers(3)  # 0: taus normal, 1: ttau abnormal, 2: ptau abnormal
    values["ttau"] = (
        _trunc_normal(rng, 350, 30, 315, 450)
        if pattern == 1
        else _trunc_normal(rng, 230, 35, 140, 285)
    )
    values["ptau"] = (
        _trunc_normal(rng, 33, 3, 28.5, 45)
        if pattern == 2
        else _trunc_normal(rng, 19, 3, 12, 25.5)
    )
    return values


_RADIUS_SCALE = {"CN": 1.0, "MCI": 0.85, "Dementia": 0.65}
_E4_PROB = {"CN": 0.2, "MCI": 0.35, "Dementia": 0.5}


def _sample_apoe(rng, label: str) -> str:
    alleles = []
    for _ in range(2):
        if rng.random() < _E4_PROB[label]:
            alleles.append("e4")
        else:
            alleles.append("e2" if rng.random() < 0.12 else "e3")
    return "/".join(sorted(alleles))


def _ellipsoid_mask(dim: int, center, radii) -> np.ndarray:
    grid = np.indices((dim, dim, dim), dtype=np.float64)
    acc = np.zeros((dim, dim, dim))
    for axis in range(3):
        acc += ((grid[axis] - center[axis]) / radii[axis]) ** 2
    return (acc <= 1.0).astype(np.float64)


def synth_volume(rng, cfg: CohortConfig, label: str):
    """Noisy volume plus analytic blob masks; both blobs share intensity, so
    lateralization is only recoverable from the conditioning evidence."""
    dim = cfg.volume_dim
    scale = _RADIUS_SCALE[label] * rng.uniform(0.93, 1.07)
    base_radii = np.array([3.4, 2.7, 2.7]) * (dim / 16.0)
    masks = {}
    for structure, lateral in (("left_hippocampus", 0.26), ("right_hippocampus", 0.74)):
        center = np.array([dim / 2, dim / 2, dim * lateral]) + rng.uniform(-0.6, 0.6, size=3)
        masks[structure] = _ellipsoid_mask(dim, center, base_radii * scale)
    volume = 0.1 + cfg.noise * rng.standard_normal((dim, dim, dim))
    blob = np.clip(masks["left_hippocampus"] + masks["right_hippocampus"], 0, 1)
    volume = volume + 0.8 * blob
    return volume, masks, scale


def _build_evidence(record_fields: dict, rules: RuleConfig) -> list[EvidenceItem]:
    demo = record_fields["demographics"]
    cog = record_fields["cognition"]
    bio = record_fields["biomarkers"]
    imaging = record_fields["imaging"]
    label = record_fields["gt_label"]
    sev_names = {0: "intact", 1: "mild impairment", 2: "moderate impairment", 3: "severe impairment"}

    items = [
        EvidenceItem(
            "demo",
            f"{demo['age']:.0f}-year-old {demo['sex']}, {demo['education_years']:.0f} years of education",
            "demographics",
            "demographics",
        ),
        EvidenceItem(
            "history",
            "No significant comorbidities"
            if label == "CN"
            else "Progressive memory complaints reported",
            "history",
            "history",
        ),
        EvidenceItem("lab", "Thyroid function within reference", "lab", "lab"),
    ]
    for domain in COGNITIVE_DOMAINS:
        items.append(
            EvidenceItem(
                domain,
                f"{phrases.DOMAIN_PHRASES[domain]} composite z-score {cog[domain]:.2f}, "
                f"{sev_names[severity_bin(cog[domain])]}",
                f"cognition.{domain}",
                "cognition",
            )
        )
    status_words = {
        "abeta": ("below reference", "within reference"),
        "ttau": ("elevated", "within reference"),
        "ptau": ("elevated", "within reference"),
    }
    for marker in BIOMARKERS:
        abnormal = biomarker_abnormal(marker, bio[marker], rules)
        word = status_words[marker][0 if abnormal else 1]
        items.append(
            EvidenceItem(
                marker,
                f"{phrases.BIOMARKER_PHRASES[marker]} {bio[marker]:.0f} pg/mL, {word}",
                f"biomarkers.{marker}",
                "biomarker",
            )
        )
    items.append(
        EvidenceItem("apoe", f"APOE genotype {record_fields['genetics']['apoe']}", "genetics.apoe", "genetic")
    )
    for structure in STRUCTURES:
        side = structure.split("_")[0]
        vol = imaging[structure]
        atrophic = record_fields["_atrophic"]
        items.append(
            EvidenceItem(
                f"img_{side}",
                f"{side.capitalize()} hippocampal volume {vol:.0f} mm3, "
                + ("reduced" if atrophic else "within expected range"),
                f"imaging.{structure}",
                "imaging",
                anatomy_ref=structure,
            )
        )
    return items


def generate_patient(cfg: CohortConfig, seed, label: str):
    """One (record, volume, masks) triple; deterministic in (cfg, seed, label)."""
    if label not in LABELS:
        raise ValidationError(f"unknown label {label!r}")
    rng = np.random.default_rng(seed)
    demographics = {
        "age": _trunc_normal(rng, {"CN": 70, "MCI": 73, "Dementia": 76}[label], 6, 55, 90),
        "sex": "female" if rng.random() < 0.5 else "male",
        "education_years": _trunc_normal(rng, 14, 3, 6, 22),
    }
    cognition = {
        d: _trunc_normal(rng, *_COGNITION_RANGES[label][d]) for d in COGNITIVE_DOMAINS
    }
    biomarkers = _sample_biomarkers(rng, label)
    genetics = {"apoe": _sample_apoe(rng, label)}
    volume, masks, scale = synth_volume(rng, cfg, label)
    imaging = {s: float(masks[s].sum()) * MM3_PER_VOXEL for s in STRUCTURES}

    fields = {
        "demographics": demographics,
        "cognition": cognition,
        "biomarkers": biomarkers,
        "genetics": genetics,
        "imaging": imaging,
        "gt_label": label,
        "_atrophic": scale < ATROPHY_SCALE_CUTOFF,
    }
    evidence = _build_evidence(fields, cfg.rules)
    record = PatientRecord(
        id="",  # assigned by generate_cohort
        demographics=demographics,
        cognition=cognition,
        biomarkers=biomarkers,
        genetics=genetics,
        evidence=evidence,
        gt_label=label,
        imaging=imaging,
    )
    implied = stage_from_values(biomarkers, cognition, cfg.rules)
    if implied != label:
        raise AssertionError(f"generator produced {implied} values for label {label}")
    return record, volume, masks


@dataclass
class GroundingRow:
    patient_id: str
    sentence: str
    evidence_ids: list[str]
    mask_file: str | None = None

    def to_json(self) -> dict:
        """The fields, without ``mask_file`` when the row has none."""
        return {k: v for k, v in vars(self).items() if v is not None}


def render_gold_report(p: PatientRecord, rules: RuleConfig):
    """Gold report text plus its sentence-evidence links.

    Covers all four cognitive domains with qualifiers and all three
    biomarkers with threshold-correct statuses; the concluding sentence
    carries the label cue and links to the two most diagnostic evidences.
    """
    atrophic = any("reduced" in e.descriptor for e in p.evidence if e.category == "imaging")
    rows: list[tuple[str, list[str], str | None]] = [
        (
            phrases.lead_sentence(
                p.demographics["age"], p.demographics["sex"], p.demographics["education_years"]
            ),
            ["demo"],
            None,
        ),
        (phrases.history_sentence(p.gt_label), ["history"], None),
        (phrases.lab_sentence(), ["lab"], None),
    ]
    for domain in COGNITIVE_DOMAINS:
        rows.append((phrases.domain_sentence(domain, severity_bin(p.cognition[domain])), [domain], None))
    for marker in BIOMARKERS:
        abnormal = biomarker_abnormal(marker, p.biomarkers[marker], rules)
        rows.append((phrases.biomarker_sentence(marker, abnormal), [marker], None))
    rows.append((phrases.genetic_sentence(p.genetics["apoe"]), ["apoe"], None))
    for structure in STRUCTURES:
        side = structure.split("_")[0]
        rows.append(
            (
                phrases.imaging_sentence(side, p.imaging[structure], atrophic),
                [f"img_{side}"],
                p.mask_files.get(structure),
            )
        )
    rows.append((phrases.conclusion_sentence(p.gt_label), ["memory", "abeta"], None))

    reasoning = " ".join(sentence for sentence, _, _ in rows)
    confidence = "Medium" if p.gt_label == "MCI" else "High"
    text = render_report(reasoning, p.gt_label, confidence)
    grounding = [GroundingRow(p.id, s, ids, mask) for s, ids, mask in rows]
    return text, grounding


def _label_counts(mix, n: int) -> list[int]:
    raw = [m * n for m in mix]
    counts = [int(x) for x in raw]
    remainder = n - sum(counts)
    order = sorted(range(len(mix)), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in range(remainder):
        counts[order[i % len(mix)]] += 1
    return counts


def generate_cohort(cfg: CohortConfig, out_dir: str | Path, *, seed: int) -> dict:
    """Write the full dataset layout and return the manifest; per-patient
    seeds derive from ``(seed, index)``."""
    out = Path(out_dir)
    (out / "volumes").mkdir(parents=True, exist_ok=True)
    (out / "masks").mkdir(exist_ok=True)
    (out / "reports").mkdir(exist_ok=True)

    master = np.random.default_rng(seed)
    counts = _label_counts(cfg.label_mix, cfg.n_patients)
    labels = [label for label, c in zip(LABELS, counts) for _ in range(c)]
    master.shuffle(labels)

    # paths (relative to out) this call writes; only these are hashed, as
    # files an earlier run left under out are not part of this cohort
    written: list[str] = []
    records: list[PatientRecord] = []
    grounding_rows: list[GroundingRow] = []
    for i, label in enumerate(labels):
        pid = f"p{i:04d}"
        record, volume, masks = generate_patient(cfg, [seed, i], label)
        record.id = pid
        rel = f"volumes/{pid}.emad"
        tensorio.save_tensor(out / rel, volume)
        written.append(rel)
        for structure, mask in masks.items():
            rel = f"masks/{pid}_{structure}.emad"
            tensorio.save_tensor(out / rel, mask)
            record.mask_files[structure] = rel
            written.append(rel)
        text, rows = render_gold_report(record, cfg.rules)
        parsed = parse_report(text)
        if parsed.parse_diagnostics:
            raise AssertionError(f"gold report for {pid} produced diagnostics")
        for row in rows:
            row.patient_id = pid
        rel = f"reports/{pid}.txt"
        (out / rel).write_text(text)
        written.append(rel)
        records.append(record)
        grounding_rows.extend(rows)

    tensorio.write_json_lines(out / "records.jsonl", (r.to_json() for r in records))
    tensorio.write_json_lines(out / "grounding.jsonl", (row.to_json() for row in grounding_rows))
    written += ["records.jsonl", "grounding.jsonl"]

    n = cfg.n_patients
    n_train, n_val = int(n * 0.7), int(n * 0.1)
    ids = [r.id for r in records]
    split = {
        "train": ids[:n_train],
        "val": ids[n_train : n_train + n_val],
        "test": ids[n_train + n_val :],
    }
    (out / "split.json").write_text(json.dumps(split, indent=2))
    cfg.rules.save(out / "rules.json")
    written += ["split.json", "rules.json"]

    manifest = {"seed": seed, "config": asdict(cfg), "files": {}}
    for rel in sorted(written):
        manifest["files"][rel] = tensorio.file_sha256(out / rel)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


@dataclass
class Cohort:
    """Loaded dataset handle with lazy volume/mask access."""

    root: Path
    records: dict
    grounding: list[GroundingRow]
    split: dict
    rules: RuleConfig

    @classmethod
    def load(cls, root: str | Path) -> "Cohort":
        root = Path(root)
        if not (root / "records.jsonl").exists():
            raise FileNotFoundError(f"no cohort at {root}")
        records = {r.id: r for r in tensorio.read_json_lines(root / "records.jsonl", PatientRecord)}
        grounding = list(tensorio.read_json_lines(root / "grounding.jsonl", GroundingRow))
        split = tensorio.read_json_object(root / "split.json")
        rules = RuleConfig.load(root / "rules.json")
        cohort = cls(root, records, grounding, split, rules)
        cohort._check_links()
        return cohort

    def _check_links(self) -> None:
        """Reject files that disagree: each split is a list of known patient
        ids, each grounding row names a known patient and evidence of that
        patient, and each split patient has at least one grounding row."""
        split_path, rows_path = self.root / "split.json", self.root / "grounding.jsonl"
        for name in sorted({"train", "val", "test"} | set(self.split)):
            ids = self.split.get(name)
            if not isinstance(ids, list) or not all(isinstance(p, str) and p in self.records for p in ids):
                raise ValidationError(f"{split_path}: {name!r} must be a list of known patient ids")
        evidence = {pid: {e.id for e in r.evidence} for pid, r in self.records.items()}
        for number, row in enumerate(self.grounding, 1):
            known = evidence.get(row.patient_id)
            if known is None or not known.issuperset(row.evidence_ids):
                raise ValidationError(f"{rows_path}: row {number} names an unknown patient or evidence")
        grounded = {row.patient_id for row in self.grounding}
        missing = [p for ids in self.split.values() for p in ids if p not in grounded]
        if missing:
            raise ValidationError(f"{rows_path}: no rows for split patients {missing[:3]}")

    def volume(self, pid: str) -> np.ndarray:
        return tensorio.load_tensor(self.root / "volumes" / f"{pid}.emad")

    def mask(self, pid: str, structure: str) -> np.ndarray:
        return tensorio.load_tensor(self.root / self.records[pid].mask_files[structure])

    def gold_report(self, pid: str) -> str:
        return tensorio.read_text(self.root / "reports" / f"{pid}.txt")

    def split_ids(self, split_name: str) -> list[str]:
        if split_name not in self.split:
            raise ValidationError(
                f"unknown split {split_name!r}; the cohort has {sorted(self.split)}"
            )
        return self.split[split_name]

    def rows_for(self, split_name: str) -> list[GroundingRow]:
        ids = set(self.split_ids(split_name))
        return [row for row in self.grounding if row.patient_id in ids]
