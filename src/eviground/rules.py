"""Executable clinical-validity rewards and the lexical entailment scorer.

Every reward is a pure, deterministic function of (parsed report, patient
record, config). Partial-credit schemes and the synthetic thresholds are
declared conventions shared with the cohort generator, not clinical
ground truth.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Protocol

from .errors import ValidationError
from .records import BIOMARKERS, COGNITIVE_DOMAINS, LABELS, PatientRecord
from .report import ClinicalReport, format_reward
from .tensorio import from_json, read_json_object
from .textenc import tokenize

NIA_CAT_WEIGHT = 0.4
NIA_BIO_WEIGHT = 0.3
NIA_FEAT_WEIGHT = 0.3

# severity implied by a qualifier token: 0 spared .. 3 severe
_QUALIFIER_SEVERITY = {
    "intact": 0,
    "normal": 0,
    "mild": 1,
    "moderate": 2,
    "impaired": 2,
    "declined": 2,
    "severe": 3,
}

_NEGATORS = {"not", "no", "without"}
_NEGATION_WINDOW = 3

_NORMAL_STATUS_TOKENS = {"normal", "unremarkable", "preserved"}
_ABNORMAL_STATUS_TOKENS = {"abnormal", "elevated", "reduced", "lowered", "decreased", "atrophic"}
_NORMAL_STATUS_BIGRAMS = {("within", "reference"), ("within", "normal")}
_ABNORMAL_STATUS_BIGRAMS = {("below", "reference"), ("above", "reference")}


def default_label_cues() -> dict[str, list[str]]:
    return {
        "CN": ["cognitively normal", "within normal limits", "no cognitive impairment"],
        "MCI": ["mild cognitive impairment"],
        "Dementia": ["dementia", "alzheimer"],
    }


def default_domain_cues() -> dict[str, list[str]]:
    return {
        "memory": ["memory", "recall", "amnestic"],
        "executive": ["executive", "planning"],
        "visuospatial": ["visuospatial", "spatial"],
        "language": ["language", "naming", "fluency"],
    }


def default_biomarker_cues() -> dict[str, list[str]]:
    return {
        "abeta": ["abeta", "amyloid"],
        "ttau": ["total tau", "ttau", "t-tau"],
        "ptau": ["phosphorylated tau", "ptau", "p-tau"],
    }


@dataclass
class RuleConfig:
    """Thresholds, cue lexicons, and reward weights (rules.json schema)."""

    abeta_abnormal_below: float = 977.0
    ttau_abnormal_above: float = 300.0
    ptau_abnormal_above: float = 27.0
    label_cues: dict[str, list[str]] = field(default_factory=default_label_cues)
    domain_cues: dict[str, list[str]] = field(default_factory=default_domain_cues)
    biomarker_cues: dict[str, list[str]] = field(default_factory=default_biomarker_cues)
    w_format: float = 0.2
    w_nia: float = 0.5
    w_consistency: float = 0.3
    nia_consistent_threshold: float = 0.8  # r_nia cutoff used by eval tables

    def __post_init__(self):
        if min(self.w_format, self.w_nia, self.w_consistency) < 0:
            raise ValidationError("reward weights must be nonnegative")
        if min(self.abeta_abnormal_below, self.ttau_abnormal_above, self.ptau_abnormal_above) <= 0:
            raise ValidationError("thresholds must be positive")
        for name in ("label_cues", "domain_cues", "biomarker_cues"):
            for cue in (c for v in getattr(self, name).values() for c in v):
                if not cue:
                    raise ValidationError(f"{name} holds an empty cue")
                if cue != cue.lower():  # reward text is lowercased before matching
                    raise ValidationError(f"{name} cue {cue!r} has an uppercase letter")
        for name, keys in (
            ("domain_cues", COGNITIVE_DOMAINS),
            ("biomarker_cues", BIOMARKERS),
        ):
            if set(getattr(self, name)) != set(keys):
                raise ValidationError(
                    f"{name} keys must be exactly {list(keys)}, got {sorted(getattr(self, name))}"
                )
        unknown = set(self.label_cues) - set(LABELS)
        if unknown:
            raise ValidationError(f"label_cues keys must be among {list(LABELS)}, got {sorted(unknown)}")

    def max_total(self) -> float:
        return self.w_format + self.w_nia + self.w_consistency

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "RuleConfig":
        return from_json(cls, read_json_object(path), "rules")


@dataclass(frozen=True)
class RewardBreakdown:
    r_format: float
    r_cat: float
    r_bio: float
    r_feat: float
    r_nia: float
    r_consistency: float
    total: float


# --- shared staging rule (generator contract) --------------------------------


def severity_bin(score: float) -> int:
    """Cognitive composite z-score to severity: 0 intact .. 3 severe."""
    if score >= -0.5:
        return 0
    if score >= -1.5:
        return 1
    if score >= -2.5:
        return 2
    return 3


def biomarker_abnormal(marker: str, value: float, cfg: RuleConfig) -> bool:
    if marker == "abeta":
        return value < cfg.abeta_abnormal_below
    if marker == "ttau":
        return value > cfg.ttau_abnormal_above
    if marker == "ptau":
        return value > cfg.ptau_abnormal_above
    raise KeyError(marker)


def stage_from_values(biomarkers: dict, cognition: dict, cfg: RuleConfig) -> str:
    """Label implied by raw values; the cohort generator samples inside
    regions where this rule is constant, so it recovers gt_label exactly."""
    abnormal = sum(biomarker_abnormal(m, biomarkers[m], cfg) for m in BIOMARKERS)
    worst = max(severity_bin(cognition[d]) for d in COGNITIVE_DOMAINS)
    if abnormal >= 1 and worst >= 2:
        return "Dementia"
    if abnormal == 0 and worst == 0:
        return "CN"
    return "MCI"


# --- lexical extraction helpers ----------------------------------------------


def _status_from_tokens(tokens: list[str]) -> str | None:
    """First normal/abnormal status assertion in a token list, negation-aware."""
    for i, tok in enumerate(tokens):
        status = None
        if tok in _NORMAL_STATUS_TOKENS:
            status = "normal"
        elif tok in _ABNORMAL_STATUS_TOKENS:
            status = "abnormal"
        elif i + 1 < len(tokens):
            pair = (tok, tokens[i + 1])
            if pair in _NORMAL_STATUS_BIGRAMS:
                status = "normal"
            elif pair in _ABNORMAL_STATUS_BIGRAMS:
                status = "abnormal"
        if status is None:
            continue
        window = tokens[max(0, i - _NEGATION_WINDOW) : i]
        if any(t in _NEGATORS for t in window):
            status = "abnormal" if status == "normal" else "normal"
        return status
    return None


def _safe_tokens(text: str) -> list[str]:
    try:
        return tokenize(text)
    except Exception:
        return []


@dataclass(frozen=True, slots=True)
class SentenceFacts:
    """What the rules read from one sentence, independent of any RuleConfig."""

    low: str  # the lowercased sentence, searched for cue phrases
    status: str | None  # _status_from_tokens of its tokens
    severity: int | None  # highest qualifier severity among its tokens


@functools.lru_cache(maxsize=1 << 14)
def sentence_facts(sentence: str) -> SentenceFacts:
    """Memoized lexical pass over one sentence; GRPO rollouts repeat a few
    dozen distinct sentences thousands of times."""
    low = sentence.lower()
    tokens = _safe_tokens(low)
    severities = [_QUALIFIER_SEVERITY[t] for t in tokens if t in _QUALIFIER_SEVERITY]
    return SentenceFacts(low, _status_from_tokens(tokens), max(severities, default=None))


def _mentions(low: str, cues: list[str]) -> bool:
    for cue in cues:
        if cue in low:
            return True
    return False


def asserted_biomarker_status(sentences: list[str], marker: str, cfg: RuleConfig) -> str | None:
    """Status asserted for a marker, from the first mentioning sentence
    that states one; None if unmentioned or statusless."""
    cues = cfg.biomarker_cues[marker]
    for sentence in sentences:
        facts = sentence_facts(sentence)
        if facts.status is not None and _mentions(facts.low, cues):
            return facts.status
    return None


def mentions_biomarker(sentences: list[str], marker: str, cfg: RuleConfig) -> bool:
    cues = cfg.biomarker_cues[marker]
    for sentence in sentences:
        if _mentions(sentence_facts(sentence).low, cues):
            return True
    return False


@functools.lru_cache(maxsize=1 << 10)
def _cue_pattern(cue: str) -> re.Pattern:
    return re.compile(re.escape(cue))


def last_label_cue(text: str, cfg: RuleConfig) -> str | None:
    """Label whose cue phrase occurs last in the text; longest wins on ties.

    A cue's occurrences are ``finditer``'s non-overlapping matches. The last
    answer is kept, keyed on the text and the cue lexicon's contents:
    ``total_reward`` asks twice in a row for the same reasoning, in
    ``category_alignment`` and in the scorer."""
    lexicon = tuple((label, tuple(cues)) for label, cues in cfg.label_cues.items())
    return _last_label_cue(text, lexicon)


@functools.lru_cache(maxsize=1)
def _last_label_cue(text: str, label_cues: tuple[tuple[str, tuple[str, ...]], ...]) -> str | None:
    best: tuple[int, int, str] | None = None
    low = text.lower()
    for label, cues in label_cues:
        for cue in cues:
            start = -1
            for m in _cue_pattern(cue).finditer(low):
                start = m.start()
            if start >= 0 and (best is None or (start, len(cue)) > best[:2]):
                best = (start, len(cue), label)
    return best[2] if best else None


# --- reward components --------------------------------------------------------


def category_alignment(r: ClinicalReport, cfg: RuleConfig) -> float:
    """1 for a standardized label whose last reasoning cue (if any) agrees,
    0.5 when a conflicting cue is the final assertion, 0 if unparsed."""
    if r.diagnosis not in LABELS:
        return 0.0
    cue = last_label_cue(r.reasoning, cfg)
    if cue is None or cue == r.diagnosis:
        return 1.0
    return 0.5


def biomarker_consistency(r: ClinicalReport, p: PatientRecord, cfg: RuleConfig) -> float:
    """Per marker: 1/6 for mentioning it, 1/6 for a status matching the
    thresholded ground status."""
    score = 0.0
    for marker in BIOMARKERS:
        if not mentions_biomarker(r.reasoning_sentences, marker, cfg):
            continue
        score += 1.0 / 6.0
        asserted = asserted_biomarker_status(r.reasoning_sentences, marker, cfg)
        ground = "abnormal" if biomarker_abnormal(marker, p.biomarkers[marker], cfg) else "normal"
        if asserted == ground:
            score += 1.0 / 6.0
    return score


def feature_coverage(r: ClinicalReport, cfg: RuleConfig) -> float:
    """1/4 per cognitive domain assessed with a qualifier token."""
    facts = [sentence_facts(s) for s in r.reasoning_sentences]
    score = 0.0
    for domain in COGNITIVE_DOMAINS:
        cues = cfg.domain_cues[domain]
        for f in facts:
            if f.severity is not None and _mentions(f.low, cues):
                score += 0.25
                break
    return score


def nia_aa_reward(r_cat: float, r_bio: float, r_feat: float) -> float:
    return NIA_CAT_WEIGHT * r_cat + NIA_BIO_WEIGHT * r_bio + NIA_FEAT_WEIGHT * r_feat


# --- entailment scoring ---------------------------------------------------------


class EntailmentScorer(Protocol):
    """Classifies (premise, hypothesis) into contradiction/neutral/entailment."""

    def classify(self, premise: str, hypothesis: str, sentences: list[str]) -> str:
        """``sentences`` is the premise split by ``segment_sentences``."""
        ...


_GENERIC_BIOMARKER_CUE = "biomarker"


class LexicalEntailmentScorer:
    """Deterministic rule system: biomarker status assertions plus cognitive
    severity imply a stage; an explicit concluding label cue is compared
    against the hypothesized diagnosis directly."""

    def __init__(self, cfg: RuleConfig | None = None):
        self.cfg = cfg or RuleConfig()

    def classify(self, premise: str, hypothesis: str, sentences: list[str]) -> str:
        diagnosis = self._hypothesis_label(hypothesis)
        if diagnosis is None:
            return "neutral"
        sentences = sentences or [premise]
        cue = last_label_cue(premise, self.cfg)
        implied = self._implied_stage(premise, sentences)
        if cue is not None and cue != diagnosis:
            return "contradiction"
        if implied is None:
            return "entailment" if cue == diagnosis else "neutral"
        # a stage implied by the findings either supports the diagnosis or
        # contradicts it; "weak" applies only when no stage is derivable
        return "entailment" if implied == diagnosis else "contradiction"

    def _hypothesis_label(self, hypothesis: str) -> str | None:
        toks = set(_safe_tokens(hypothesis))
        for label in LABELS:
            if label.lower() in toks:
                return label
        return None

    def _implied_stage(self, premise: str, sentences: list[str]) -> str | None:
        spec_norm = 0
        spec_abn = 0
        for marker in BIOMARKERS:
            status = asserted_biomarker_status(sentences, marker, self.cfg)
            if status == "normal":
                spec_norm += 1
            elif status == "abnormal":
                spec_abn += 1

        # when at least two named markers carry statuses, they alone decide
        # the stage; qualifier wording cannot override checkable assertions
        if spec_norm + spec_abn >= 2:
            if spec_abn == 0:
                return "CN"
            if spec_abn >= 3:
                return "Dementia"
            return "MCI"

        # generic "biomarkers are normal/abnormal" reads as plural (two)
        facts = [sentence_facts(s) for s in sentences]
        generic = None
        for f in facts:
            if f.status is not None and _GENERIC_BIOMARKER_CUE in f.low:
                generic = f.status
        bio_abn = spec_abn + (2 if generic == "abnormal" else 0)
        bio_norm = spec_norm + (2 if generic == "normal" else 0)

        # severity counts only in sentences naming a specific domain, so a
        # concluding label phrase cannot masquerade as clinical findings
        severity: int | None = None
        domain_cues = [c for cues in self.cfg.domain_cues.values() for c in cues]
        for f in facts:
            if f.severity is not None and _mentions(f.low, domain_cues):
                severity = f.severity if severity is None else max(severity, f.severity)

        if bio_norm == 0 and bio_abn == 0 and severity is None:
            return None
        if bio_abn >= 1 and severity is not None and severity >= 2:
            return "Dementia"
        if bio_abn == 0 and severity in (None, 0) and (bio_norm >= 1 or severity == 0):
            return "CN"
        return "MCI"


def consistency_reward(r: ClinicalReport, scorer: EntailmentScorer) -> float:
    """0 / 0.5 / 1 for contradiction / neutral / entailment of the diagnosis
    by the reasoning; an unparsed diagnosis scores 0."""
    if r.diagnosis not in LABELS:
        return 0.0
    hypothesis = f"The diagnosis is {r.diagnosis}."
    verdict = scorer.classify(r.reasoning, hypothesis, r.reasoning_sentences)
    return {"contradiction": 0.0, "neutral": 0.5, "entailment": 1.0}[verdict]


def total_reward(
    r: ClinicalReport,
    p: PatientRecord,
    cfg: RuleConfig,
    scorer: EntailmentScorer,
) -> RewardBreakdown:
    r_format = format_reward(r)
    r_cat = category_alignment(r, cfg)
    r_bio = biomarker_consistency(r, p, cfg)
    r_feat = feature_coverage(r, cfg)
    r_nia = nia_aa_reward(r_cat, r_bio, r_feat)
    r_cons = consistency_reward(r, scorer)
    total = cfg.w_format * r_format + cfg.w_nia * r_nia + cfg.w_consistency * r_cons
    return RewardBreakdown(r_format, r_cat, r_bio, r_feat, r_nia, r_cons, total)
