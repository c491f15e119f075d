"""Report grammar: parser totality, segmentation, format reward."""

import re
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from eviground import report


WELL_FORMED = """[Reasoning]
Memory is intact. Total tau is within reference range.
[Diagnosis]
CN
[Confidence]
High
"""


class TestParseReport:
    def test_well_formed(self):
        r = report.parse_report(WELL_FORMED)
        assert r.diagnosis == "CN"
        assert r.confidence == "High"
        assert len(r.reasoning_sentences) == 2
        assert r.parse_diagnostics == []

    def test_missing_confidence_section(self):
        text = "[Reasoning]\nFine.\n[Diagnosis]\nMCI\n"
        r = report.parse_report(text)
        assert r.confidence == report.UNPARSED
        assert any(
            i.code == "missing_section" and i.detail == "confidence"
            for i in r.parse_diagnostics
        )

    def test_lowercase_diagnosis_normalized(self):
        text = "[Reasoning]\nFine.\n[Diagnosis]\ndementia\n[Confidence]\nLow\n"
        r = report.parse_report(text)
        assert r.diagnosis == "Dementia"
        assert any(i.code == "normalized_value" for i in r.parse_diagnostics)

    def test_ad_synonym_normalized(self):
        text = "[Reasoning]\nFine.\n[Diagnosis]\nAD\n[Confidence]\nLow\n"
        assert report.parse_report(text).diagnosis == "Dementia"

    def test_unknown_section_recorded_not_fatal(self):
        text = "[Reasoning]\nFine.\n[Notes]\nignored\n[Diagnosis]\nCN\n[Confidence]\nHigh\n"
        r = report.parse_report(text)
        assert r.diagnosis == "CN"
        assert any(i.code == "unknown_section" for i in r.parse_diagnostics)

    def test_duplicate_section_first_wins(self):
        text = "[Diagnosis]\nCN\n[Diagnosis]\nMCI\n[Reasoning]\nFine.\n[Confidence]\nHigh\n"
        r = report.parse_report(text)
        assert r.diagnosis == "CN"
        assert any(i.code == "duplicate_section" for i in r.parse_diagnostics)

    def test_sections_any_order(self):
        text = "[Confidence]\nLow\n[Reasoning]\nFine.\n[Diagnosis]\nMCI\n"
        r = report.parse_report(text)
        assert (r.diagnosis, r.confidence) == ("MCI", "Low")

    def test_reparse_of_rerender_is_identity(self):
        r = report.parse_report(WELL_FORMED)
        again = report.parse_report(
            report.render_report(r.reasoning, r.diagnosis, r.confidence)
        )
        assert again.reasoning_sentences == r.reasoning_sentences
        assert again.diagnosis == r.diagnosis
        assert again.confidence == r.confidence

    @given(st.text(max_size=400))
    @settings(max_examples=200)
    def test_total_on_arbitrary_text(self, text):
        r = report.parse_report(text)
        assert r.diagnosis in ("CN", "MCI", "Dementia", report.UNPARSED)
        assert r.confidence in ("High", "Medium", "Low", report.UNPARSED)


class TestSegmentSentences:
    def test_basic_split(self):
        assert report.segment_sentences("A. B.") == ["A.", "B."]

    def test_abbreviation_guard(self):
        assert report.segment_sentences("e.g. atrophy is mild.") == ["e.g. atrophy is mild."]

    def test_question_and_bang(self):
        assert report.segment_sentences("Really? Yes! Done.") == ["Really?", "Yes!", "Done."]

    def test_decimal_not_split(self):
        assert report.segment_sentences("Score is 1.25 today.") == ["Score is 1.25 today."]

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(categories=["Ll", "Nd"], include_characters=" "),
                min_size=1,
                max_size=30,
            ).map(lambda s: s.strip() + "."),
            min_size=1,
            max_size=6,
        )
    )
    def test_lossless_up_to_whitespace(self, sentences):
        sentences = [s for s in sentences if s != "."]
        reasoning = " ".join(sentences)
        segments = report.segment_sentences(reasoning)
        assert " ".join(" ".join(segments).split()) == " ".join(reasoning.split())


def _reference_segment_sentences(reasoning: str) -> list[str]:
    """The original per-character segmenter, kept as the behavioural reference."""
    sentences = []
    start = 0
    n = len(reasoning)
    for i, ch in enumerate(reasoning):
        if ch not in ".!?":
            continue
        if i + 1 < n and not reasoning[i + 1].isspace():
            continue
        if ch == "." and _reference_ends_with_abbreviation(reasoning, i):
            continue
        segment = reasoning[start : i + 1].strip()
        if segment:
            sentences.append(segment)
        start = i + 1
    tail = reasoning[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def _reference_ends_with_abbreviation(text: str, dot_index: int) -> bool:
    j = dot_index
    while j > 0 and not text[j - 1].isspace():
        j -= 1
    return text[j : dot_index + 1].lower() in ("e.g.", "i.e.", "vs.", "mm.", "dr.")


# terminators, letters, digits, ASCII and Unicode whitespace, abbreviations
# (also in capitals), and the two characters whose lowercase leaves ASCII
# letters behind (dotted capital I, Kelvin sign)
_SEGMENTER_ATOMS = [
    ".", "!", "?", "a", "E", "g", "z", "0", "7",
    " ", "\t", "\n", "\r", "\x0b", "\x0c",
    "\u00a0", "\u2009", "\u3000", "\x1c", "\x85",
    "e.g.", "I.E.", "vs.", "Dr.", "mm.", "E.G.", "\u0130.e.", "\u212a",
]


class TestSegmenterMatchesReference:
    @given(st.lists(st.sampled_from(_SEGMENTER_ATOMS), max_size=40).map("".join))
    @settings(max_examples=1000)
    @example("e.g. mild. I.E. no.")
    @example("x.\ne.g. y.\nvs. z.\nDr. Q. mm.")
    @example("Done.\u00a0Next!\u3000Last?\x1cEnd.\x85")
    def test_equal_to_per_character_loop(self, text):
        assert report.segment_sentences(text) == _reference_segment_sentences(text)

    def test_regex_whitespace_is_str_isspace(self):
        space = re.compile(r"\s")
        for code in range(sys.maxunicode + 1):
            ch = chr(code)
            assert bool(space.match(ch)) == ch.isspace(), hex(code)


class TestFormatReward:
    def test_valid_report(self):
        assert report.format_reward(report.parse_report(WELL_FORMED)) == 1.0

    def test_invalid_confidence(self):
        text = "[Reasoning]\nFine.\n[Diagnosis]\nCN\n[Confidence]\nCertain\n"
        assert report.format_reward(report.parse_report(text)) == 0.0

    def test_empty_reasoning(self):
        text = "[Reasoning]\n\n[Diagnosis]\nCN\n[Confidence]\nHigh\n"
        assert report.format_reward(report.parse_report(text)) == 0.0

    @given(st.text(max_size=200))
    @settings(max_examples=100)
    def test_binary_and_pure(self, text):
        r = report.parse_report(text)
        assert report.format_reward(r) in (0.0, 1.0)
        assert report.format_reward(r) == report.format_reward(r)
