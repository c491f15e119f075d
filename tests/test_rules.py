"""Executable reward components and their partial-credit arithmetic."""

import pytest

from eviground import rules
from eviground.errors import ValidationError
from eviground.records import EvidenceItem, PatientRecord
from eviground.report import parse_report
from eviground.rules import (
    LexicalEntailmentScorer,
    RuleConfig,
    biomarker_consistency,
    category_alignment,
    consistency_reward,
    feature_coverage,
    nia_aa_reward,
    total_reward,
)


@pytest.fixture
def cfg():
    return RuleConfig()


@pytest.fixture
def scorer(cfg):
    return LexicalEntailmentScorer(cfg)


@pytest.fixture
def patient():
    # Dementia-pattern record: all three markers abnormal, memory severe
    return PatientRecord(
        id="x1",
        demographics={"age": 77.0, "sex": "female", "education_years": 12.0},
        cognition={"memory": -2.8, "executive": -1.8, "visuospatial": -1.0, "language": -0.9},
        biomarkers={"abeta": 600.0, "ttau": 420.0, "ptau": 38.0},
        genetics={"apoe": "e3/e4"},
        evidence=[EvidenceItem("demo", "77-year-old female", "demographics", "demographics")],
        gt_label="Dementia",
    )


def _report(reasoning, diagnosis="Dementia", confidence="High"):
    text = f"[Reasoning]\n{reasoning}\n[Diagnosis]\n{diagnosis}\n"
    if confidence is not None:
        text += f"[Confidence]\n{confidence}\n"
    return parse_report(text)


class TestCategoryAlignment:
    def test_matching_final_cue(self, cfg):
        r = _report("Findings are consistent with mild cognitive impairment.", "MCI")
        assert category_alignment(r, cfg) == 1.0

    def test_conflicting_final_cue(self, cfg):
        r = _report("All fine. Findings indicate dementia.", "CN")
        assert category_alignment(r, cfg) == 0.5

    def test_unparsed_diagnosis(self, cfg):
        r = _report("Anything.", "Possible")
        assert category_alignment(r, cfg) == 0.0

    def test_no_cues_counts_as_aligned(self, cfg):
        assert category_alignment(_report("Numbers look odd.", "CN"), cfg) == 1.0

    def test_last_cue_wins(self, cfg):
        r = _report("Could be dementia. Overall findings are within normal limits.", "CN")
        assert category_alignment(r, cfg) == 1.0


class TestBiomarkerConsistency:
    def test_all_three_correct(self, cfg, patient):
        r = _report(
            "CSF abeta42 is reduced. Total tau is elevated. Phosphorylated tau is elevated."
        )
        assert biomarker_consistency(r, patient, cfg) == pytest.approx(1.0)

    def test_none_mentioned(self, cfg, patient):
        assert biomarker_consistency(_report("Nothing here."), patient, cfg) == 0.0

    def test_single_marker_correct_status(self, cfg, patient):
        r = _report("CSF abeta42 is reduced.")
        assert biomarker_consistency(r, patient, cfg) == pytest.approx(1 / 3, abs=1e-9)

    def test_mention_with_wrong_status_gets_half_credit(self, cfg, patient):
        r = _report("CSF abeta42 is within reference range.")
        assert biomarker_consistency(r, patient, cfg) == pytest.approx(1 / 6, abs=1e-9)

    def test_negation_flips_status(self, cfg, patient):
        r = _report("Total tau is not elevated.")  # patient's ttau is abnormal
        assert biomarker_consistency(r, patient, cfg) == pytest.approx(1 / 6, abs=1e-9)

    def test_monotone_in_correct_mentions(self, cfg, patient):
        partial = biomarker_consistency(_report("CSF abeta42 is reduced."), patient, cfg)
        more = biomarker_consistency(
            _report("CSF abeta42 is reduced. Total tau is elevated."), patient, cfg
        )
        assert more >= partial


class TestFeatureCoverage:
    def test_all_four_domains(self, cfg):
        r = _report(
            "Memory is intact. Executive function shows mild impairment. "
            "Visuospatial skills are intact. Language fluency is normal."
        )
        assert feature_coverage(r, cfg) == 1.0

    def test_single_domain(self, cfg):
        assert feature_coverage(_report("Memory is impaired."), cfg) == 0.25

    def test_domain_without_qualifier_gets_nothing(self, cfg):
        assert feature_coverage(_report("Memory was discussed at length."), cfg) == 0.0

    def test_monotone_in_domains(self, cfg):
        one = feature_coverage(_report("Memory is impaired."), cfg)
        two = feature_coverage(
            _report("Memory is impaired. Language fluency is intact."), cfg
        )
        assert two >= one


class TestNiaAaReward:
    def test_perfect(self):
        assert nia_aa_reward(1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_category_only(self):
        assert nia_aa_reward(1.0, 0.0, 0.0) == pytest.approx(0.4)

    def test_weighted_sum(self):
        assert nia_aa_reward(0.5, 1 / 3, 0.25) == pytest.approx(0.375, abs=1e-12)


class TestConsistencyReward:
    def test_abnormal_findings_entail_dementia(self, scorer):
        r = _report("CSF biomarkers are abnormal. Memory is impaired.", "Dementia")
        assert consistency_reward(r, scorer) == 1.0

    def test_normal_findings_contradict_dementia(self, scorer):
        r = _report("All biomarkers are normal, cognition intact.", "Dementia")
        assert consistency_reward(r, scorer) == 0.0

    def test_no_cues_is_neutral(self, scorer):
        r = _report("The patient was seen in clinic today.", "Dementia")
        assert consistency_reward(r, scorer) == 0.5

    def test_unparsed_diagnosis_scores_zero(self, scorer):
        r = _report("All fine.", "Unknown")
        assert consistency_reward(r, scorer) == 0.0

    def test_specific_statuses_override_qualifiers(self, scorer):
        # two truthfully-normal markers pin the implied stage regardless of
        # dramatic qualifier wording
        r = _report(
            "CSF abeta42 is within reference range. Total tau is within reference range. "
            "Phosphorylated tau is within reference range. Memory shows severe impairment.",
            "Dementia",
        )
        assert consistency_reward(r, scorer) == 0.0


class TestTotalReward:
    def test_gold_report_is_maximal(self, small_cohort):
        cfg = small_cohort.rules
        scorer = LexicalEntailmentScorer(cfg)
        pid = small_cohort.split["train"][0]
        rb = total_reward(
            parse_report(small_cohort.gold_report(pid)),
            small_cohort.records[pid],
            cfg,
            scorer,
        )
        assert rb.total == pytest.approx(cfg.max_total(), abs=1e-9)

    def test_empty_input_scores_zero(self, cfg, scorer, patient):
        rb = total_reward(parse_report(""), patient, cfg, scorer)
        assert rb.total == 0.0

    def test_weights_projection(self, scorer, patient):
        cfg = RuleConfig(w_format=0.0, w_nia=1.0, w_consistency=0.0)
        r = _report("CSF abeta42 is reduced. Memory is impaired.")
        rb = total_reward(r, patient, cfg, scorer)
        assert rb.total == pytest.approx(rb.r_nia, abs=1e-12)

    def test_doubling_weights_doubles_total(self, scorer, patient):
        base = RuleConfig()
        double = RuleConfig(w_format=0.4, w_nia=1.0, w_consistency=0.6)
        r = _report("CSF abeta42 is reduced. Memory is impaired.", "MCI")
        rb1 = total_reward(r, patient, base, scorer)
        rb2 = total_reward(r, patient, double, scorer)
        assert rb2.total == pytest.approx(2 * rb1.total, abs=1e-9)
        for field in ("r_format", "r_cat", "r_bio", "r_feat", "r_nia", "r_consistency"):
            assert getattr(rb1, field) == getattr(rb2, field)

    def test_determinism_bitwise(self, cfg, scorer, patient):
        r = _report("CSF abeta42 is reduced. Memory is impaired.", "MCI")
        assert total_reward(r, patient, cfg, scorer) == total_reward(r, patient, cfg, scorer)

    def test_breakdown_invariants(self, cfg, scorer, patient):
        r = _report("Total tau is elevated. Memory is impaired. Maybe dementia.", "MCI")
        rb = total_reward(r, patient, cfg, scorer)
        assert abs(rb.r_nia - (0.4 * rb.r_cat + 0.3 * rb.r_bio + 0.3 * rb.r_feat)) <= 1e-12
        expected_total = (
            cfg.w_format * rb.r_format + cfg.w_nia * rb.r_nia + cfg.w_consistency * rb.r_consistency
        )
        assert abs(rb.total - expected_total) <= 1e-12


class TestStageRule:
    def test_shared_rule_recovers_generated_labels(self, small_cohort):
        for record in small_cohort.records.values():
            got = rules.stage_from_values(record.biomarkers, record.cognition, small_cohort.rules)
            assert got == record.gt_label

    def test_config_roundtrip(self, tmp_path, cfg):
        cfg.save(tmp_path / "rules.json")
        back = RuleConfig.load(tmp_path / "rules.json")
        assert back == cfg


    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[1, 2]",
            '{"w_format": 0.2, "w_fromat": 0.2}',
            '{"w_nia": -1}',
            '{"w_nia": "0.5"}',
            '{"label_cues": []}',
            '{"biomarker_cues": {"abeta": "amyloid"}}',
        ],
    )
    def test_bad_rules_json_rejected(self, tmp_path, text):
        path = tmp_path / "rules.json"
        path.write_text(text)
        with pytest.raises(ValidationError):
            RuleConfig.load(path)
