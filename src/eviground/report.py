"""Structured diagnostic report grammar: parser, sentence segmenter,
renderer, and the binary format-validity reward.

Grammar: sections are introduced by bracketed headers ``[Reasoning]``,
``[Diagnosis]``, ``[Confidence]``, each on its own line, in any order,
case-insensitive, first occurrence wins. Parsing is total; anything
malformed surfaces as diagnostics, never as an exception.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .records import LABELS

CONFIDENCE_LEVELS = ("High", "Medium", "Low")
UNPARSED = "Unparsed"

_HEADER = re.compile(r"^\s*\[([^\[\]]+)\]\s*$")
_ABBREVIATIONS = ("e.g.", "i.e.", "vs.", "mm.", "dr.")
_ABBREVIATION_SIZES = sorted({len(a) for a in _ABBREVIATIONS})
# \s matches exactly the code points for which str.isspace() holds
_TERMINATOR = re.compile(r"[.!?](?=\s|\Z)")

_DIAGNOSIS_SYNONYMS = {
    "cn": "CN",
    "mci": "MCI",
    "dementia": "Dementia",
    "ad": "Dementia",
    "alzheimer's disease": "Dementia",
    "alzheimers disease": "Dementia",
    "alzheimer disease": "Dementia",
}


@dataclass(frozen=True)
class ParseIssue:
    code: str
    detail: str


@dataclass
class ClinicalReport:
    raw_text: str
    reasoning: str
    reasoning_sentences: list[str]
    diagnosis: str  # CN | MCI | Dementia | Unparsed
    confidence: str  # High | Medium | Low | Unparsed
    parse_diagnostics: list[ParseIssue] = field(default_factory=list)


def segment_sentences(reasoning: str) -> list[str]:
    """Split on ., !, ? followed by whitespace or end, keeping terminators.

    A fixed abbreviation list guards '.'; empty segments are dropped.
    """
    sentences = []
    start = 0
    for m in _TERMINATOR.finditer(reasoning):
        end = m.end()
        if m.group() == "." and _ends_with_abbreviation(reasoning, end):
            continue
        segment = reasoning[start:end].strip()
        if segment:
            sentences.append(segment)
        start = end
    tail = reasoning[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def _ends_with_abbreviation(text: str, end: int) -> bool:
    """Whether the whitespace-delimited word ending at ``text[end - 1]`` is
    an abbreviation; ``lower`` keeps the length of any word that can lower
    to one, so only words of an abbreviation's length are read."""
    for size in _ABBREVIATION_SIZES:
        start = end - size
        if (
            start >= 0
            and (start == 0 or text[start - 1].isspace())
            and text[start:end].lower() in _ABBREVIATIONS
        ):
            return True
    return False


def parse_report(text: str) -> ClinicalReport:
    """Total parser: failures surface as Unparsed fields plus diagnostics."""
    issues: list[ParseIssue] = []
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    preamble: list[str] = []

    for line in text.splitlines():
        m = _HEADER.match(line)
        if m:
            name = m.group(1).strip().lower()
            if name not in ("reasoning", "diagnosis", "confidence"):
                issues.append(ParseIssue("unknown_section", name))
                current = None  # content of unknown sections is ignored
            elif name in sections:
                issues.append(ParseIssue("duplicate_section", name))
                current = None  # first occurrence wins
            else:
                sections[name] = []
                current = sections[name]
        elif current is not None:
            current.append(line)
        elif line.strip():
            preamble.append(line)

    if preamble:
        issues.append(ParseIssue("preamble_ignored", " ".join(preamble)[:80]))

    reasoning = "\n".join(sections.get("reasoning", [])).strip()
    if "reasoning" not in sections:
        issues.append(ParseIssue("missing_section", "reasoning"))

    diagnosis = _parse_value(
        sections,
        "diagnosis",
        issues,
        canonical=LABELS,
        synonyms=_DIAGNOSIS_SYNONYMS,
    )
    confidence = _parse_value(
        sections,
        "confidence",
        issues,
        canonical=CONFIDENCE_LEVELS,
        synonyms={v.lower(): v for v in CONFIDENCE_LEVELS},
    )

    return ClinicalReport(
        raw_text=text,
        reasoning=reasoning,
        reasoning_sentences=segment_sentences(reasoning),
        diagnosis=diagnosis,
        confidence=confidence,
        parse_diagnostics=issues,
    )


def _parse_value(sections, name, issues, canonical, synonyms) -> str:
    if name not in sections:
        issues.append(ParseIssue("missing_section", name))
        return UNPARSED
    lines = [ln.strip() for ln in sections[name] if ln.strip()]
    if not lines:
        issues.append(ParseIssue("invalid_value", f"{name}: empty"))
        return UNPARSED
    raw = lines[0].rstrip(".").strip()
    if raw in canonical:
        return raw
    mapped = synonyms.get(raw.lower())
    if mapped is not None:
        issues.append(ParseIssue("normalized_value", f"{name}: {raw!r} -> {mapped}"))
        return mapped
    issues.append(ParseIssue("invalid_value", f"{name}: {raw!r}"))
    return UNPARSED


def format_reward(r: ClinicalReport) -> float:
    """1 iff reasoning is nonempty, diagnosis and confidence are valid labels."""
    ok = (
        bool(r.reasoning.strip())
        and r.diagnosis in LABELS
        and r.confidence in CONFIDENCE_LEVELS
    )
    return 1.0 if ok else 0.0


def render_report(reasoning: str, diagnosis: str, confidence: str | None) -> str:
    """Render sections in the grammar above; a None confidence omits the section."""
    parts = ["[Reasoning]", reasoning, "[Diagnosis]", diagnosis]
    if confidence is not None:
        parts += ["[Confidence]", confidence]
    return "\n".join(parts) + "\n"
