"""Executable reward components and their partial-credit arithmetic."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eviground import policy as P
from eviground import rules
from eviground.errors import ValidationError
from eviground.records import BIOMARKERS, COGNITIVE_DOMAINS, LABELS, EvidenceItem, PatientRecord
from eviground.report import format_reward, parse_report, segment_sentences
from eviground.rules import (
    LexicalEntailmentScorer,
    RewardBreakdown,
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


def _dementia_patient():
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


def _cn_patient():
    # every marker on the normal side of its threshold
    return PatientRecord(
        id="x2",
        demographics={"age": 68.0, "sex": "male", "education_years": 16.0},
        cognition={"memory": 0.1, "executive": -0.2, "visuospatial": 0.3, "language": 0.0},
        biomarkers={"abeta": 1200.0, "ttau": 210.0, "ptau": 18.0},
        genetics={"apoe": "e3/e3"},
        evidence=[EvidenceItem("demo", "68-year-old male", "demographics", "demographics")],
        gt_label="CN",
    )


@pytest.fixture
def patient():
    return _dementia_patient()


def _rules_text(name, **change):
    """rules.json text whose cue lexicon ``name`` is the default, updated by ``change``."""
    cues = {**getattr(RuleConfig(), name), **change}
    return json.dumps({name: {k: v for k, v in cues.items() if v is not None}})


# cue lexicons the rules cannot use; test_cli feeds most of them to train-grpo
BAD_CUE_LEXICONS = [
    pytest.param(_rules_text("domain_cues", memory=None), id="domain-missing-memory"),
    pytest.param(_rules_text("domain_cues", motor=["gait"]), id="domain-extra-key"),
    pytest.param(_rules_text("biomarker_cues", abeta=None), id="biomarker-missing-abeta"),
    pytest.param(_rules_text("biomarker_cues", nfl=["nfl"]), id="biomarker-extra-key"),
    pytest.param(_rules_text("label_cues", AD=["alzheimer"]), id="label-unknown-key"),
    pytest.param(_rules_text("label_cues", CN=[""]), id="label-empty-cue"),
    pytest.param(_rules_text("biomarker_cues", abeta=["Amyloid"]), id="biomarker-uppercase-cue"),
]


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


    def test_unknown_rules_key_is_named(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text('{"w_format": 0.2, "w_fromat": 0.2}')
        with pytest.raises(ValidationError, match=r"^unknown keys in rules: \['w_fromat'\]$"):
            RuleConfig.load(path)

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
            *BAD_CUE_LEXICONS,
        ],
    )
    def test_bad_rules_json_rejected(self, tmp_path, text):
        path = tmp_path / "rules.json"
        path.write_text(text)
        with pytest.raises(ValidationError):
            RuleConfig.load(path)


# --- reference: the reward helpers as first written, before the sentence memo --


def _ref_asserted_biomarker_status(sentences, marker, cfg):
    cues = cfg.biomarker_cues[marker]
    for sentence in sentences:
        low = sentence.lower()
        if not any(c in low for c in cues):
            continue
        status = rules._status_from_tokens(rules._safe_tokens(low))
        if status is not None:
            return status
    return None


def _ref_mentions_biomarker(sentences, marker, cfg):
    cues = cfg.biomarker_cues[marker]
    return any(any(c in s.lower() for c in cues) for s in sentences)


def _ref_last_label_cue(text, cfg):
    best = None
    low = text.lower()
    for label, cues in cfg.label_cues.items():
        for cue in cues:
            for m in re.finditer(re.escape(cue), low):
                key = (m.start(), len(cue), label)
                if best is None or key[:2] > best[:2]:
                    best = key
    return best[2] if best else None


def _ref_feature_coverage(r, cfg):
    score = 0.0
    for domain in COGNITIVE_DOMAINS:
        cues = cfg.domain_cues[domain]
        for sentence in r.reasoning_sentences:
            low = sentence.lower()
            if any(c in low for c in cues) and any(
                t in rules._QUALIFIER_SEVERITY for t in rules._safe_tokens(low)
            ):
                score += 0.25
                break
    return score


def _ref_implied_stage(cfg, sentences):
    spec_norm = 0
    spec_abn = 0
    for marker in BIOMARKERS:
        status = _ref_asserted_biomarker_status(sentences, marker, cfg)
        if status == "normal":
            spec_norm += 1
        elif status == "abnormal":
            spec_abn += 1
    if spec_norm + spec_abn >= 2:
        if spec_abn == 0:
            return "CN"
        if spec_abn >= 3:
            return "Dementia"
        return "MCI"
    generic = None
    for sentence in sentences:
        low = sentence.lower()
        if "biomarker" in low:
            status = rules._status_from_tokens(rules._safe_tokens(low))
            if status is not None:
                generic = status
    bio_abn = spec_abn + (2 if generic == "abnormal" else 0)
    bio_norm = spec_norm + (2 if generic == "normal" else 0)
    severity = None
    domain_cues = [c for cues in cfg.domain_cues.values() for c in cues]
    for sentence in sentences:
        low = sentence.lower()
        if not any(c in low for c in domain_cues):
            continue
        for tok in rules._safe_tokens(low):
            if tok in rules._QUALIFIER_SEVERITY:
                sev = rules._QUALIFIER_SEVERITY[tok]
                severity = sev if severity is None else max(severity, sev)
    if bio_norm == 0 and bio_abn == 0 and severity is None:
        return None
    if bio_abn >= 1 and severity is not None and severity >= 2:
        return "Dementia"
    if bio_abn == 0 and severity in (None, 0) and (bio_norm >= 1 or severity == 0):
        return "CN"
    return "MCI"


def _ref_classify(cfg, premise, hypothesis):
    toks = set(rules._safe_tokens(hypothesis))
    diagnosis = next((label for label in LABELS if label.lower() in toks), None)
    if diagnosis is None:
        return "neutral"
    sentences = segment_sentences(premise) or [premise]
    cue = _ref_last_label_cue(premise, cfg)
    implied = _ref_implied_stage(cfg, sentences)
    if cue is not None and cue != diagnosis:
        return "contradiction"
    if implied is None:
        return "entailment" if cue == diagnosis else "neutral"
    return "entailment" if implied == diagnosis else "contradiction"


def _ref_total_reward(r, p, cfg):
    r_format = format_reward(r)
    r_cat = 0.0
    if r.diagnosis in LABELS:
        r_cat = 1.0 if _ref_last_label_cue(r.reasoning, cfg) in (None, r.diagnosis) else 0.5
    r_bio = 0.0
    for marker in BIOMARKERS:
        if not _ref_mentions_biomarker(r.reasoning_sentences, marker, cfg):
            continue
        r_bio += 1.0 / 6.0
        asserted = _ref_asserted_biomarker_status(r.reasoning_sentences, marker, cfg)
        ground = "abnormal" if rules.biomarker_abnormal(marker, p.biomarkers[marker], cfg) else "normal"
        if asserted == ground:
            r_bio += 1.0 / 6.0
    r_feat = _ref_feature_coverage(r, cfg)
    r_nia = nia_aa_reward(r_cat, r_bio, r_feat)
    r_cons = 0.0
    if r.diagnosis in LABELS:
        verdict = _ref_classify(cfg, r.reasoning, f"The diagnosis is {r.diagnosis}.")
        r_cons = {"contradiction": 0.0, "neutral": 0.5, "entailment": 1.0}[verdict]
    total = cfg.w_format * r_format + cfg.w_nia * r_nia + cfg.w_consistency * r_cons
    return RewardBreakdown(r_format, r_cat, r_bio, r_feat, r_nia, r_cons, total)


# Different cue lists over the same words: a memo keyed by text alone would
# carry one config's cue matches into the other. "no no" overlaps itself: in
# "no no no" finditer finds it at 0 only, before the MCI cue "o no no" at 1,
# while an overlapping search would also find it at 3.
_ALT_RULES = RuleConfig(
    label_cues={"CN": ["no no", "unremarkable"], "MCI": ["o no no", "mild"], "Dementia": ["severe"]},
    domain_cues={
        "memory": ["recall"],
        "executive": ["planning", "memory"],
        "visuospatial": ["spatial"],
        "language": ["naming", "tau"],
    },
    biomarker_cues={"abeta": ["amyloid"], "ttau": ["tau"], "ptau": ["p-tau", "abeta"]},
)
_CONFIGS = [(cfg, LexicalEntailmentScorer(cfg)) for cfg in (RuleConfig(), _ALT_RULES)]

# cue words, negators, qualifiers, status words, generic "biomarkers" phrases
# and label cues of both configs
_WORDS = (
    "amyloid abeta CSF total tau ttau t-tau phosphorylated ptau p-tau "
    "memory Memory recall amnestic executive planning visuospatial spatial "
    "language naming fluency not no without intact normal mild moderate "
    "impaired declined severe unremarkable preserved abnormal elevated reduced "
    "lowered decreased atrophic within reference below above range biomarkers "
    "biomarker are is cognitively cognitive impairment limits dementia alzheimer e.g."
).split() + ["no no"]
_sentence = st.tuples(
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=8).map(" ".join),
    st.sampled_from([".", "!", "?", ""]),
).map("".join)
_reasoning = st.tuples(
    st.lists(_sentence, max_size=6),
    st.sampled_from([" ", "\n", "  "]),
).map(lambda parts: parts[1].join(parts[0]))


def _assert_matches_reference(report, patient):
    for cfg, scorer in _CONFIGS:
        assert rules.total_reward(report, patient, cfg, scorer) == _ref_total_reward(
            report, patient, cfg
        )


class TestRewardsMatchReference:
    def test_self_overlapping_cue_keeps_non_overlapping_matches(self):
        assert "no no no".rfind("no no") > "no no no".find("o no no")  # overlapping: CN
        assert rules.last_label_cue("no no no", _ALT_RULES) == "MCI"
        assert _ref_last_label_cue("no no no", _ALT_RULES) == "MCI"

    def test_total_reward_finds_the_label_cue_once(self, small_cohort):
        pid = small_cohort.split["train"][0]
        report = parse_report(small_cohort.gold_report(pid))
        cfg = RuleConfig()
        rules._last_label_cue.cache_clear()
        rules.total_reward(report, small_cohort.records[pid], cfg, LexicalEntailmentScorer(cfg))
        info = rules._last_label_cue.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_label_cue_memo_follows_lexicon_contents(self):
        cfg = RuleConfig()
        text = "Findings suggest dementia."
        assert rules.last_label_cue(text, cfg) == "Dementia"
        cfg.label_cues["Dementia"] = ["alzheimer"]
        assert rules.last_label_cue(text, cfg) is None

    def test_every_rollout_of_a_short_train_rft(self, small_cohort, monkeypatch):
        scored = []

        def recording_total_reward(r, p, cfg, scorer):
            scored.append((r, p))
            return rules.total_reward(r, p, cfg, scorer)

        monkeypatch.setattr(P, "total_reward", recording_total_reward)
        patients = [small_cohort.records[pid] for pid in small_cohort.split["train"]]
        pol = P.ReportPolicy(rules=small_cohort.rules)
        scorer = LexicalEntailmentScorer(small_cohort.rules)
        P.train_rft(pol, patients, small_cohort.rules, scorer, P.RftConfig(iters=30), seed=0)
        assert len(scored) == 30 * P.RftConfig().group_size
        for k, (report, patient) in enumerate(scored):
            cfg, scorer = _CONFIGS[k % 2]  # alternate so a config-blind memo goes stale
            assert rules.total_reward(report, patient, cfg, scorer) == _ref_total_reward(
                report, patient, cfg
            )

    @given(
        _reasoning,
        st.sampled_from([*LABELS, "Possible"]),
        st.sampled_from([_dementia_patient(), _cn_patient()]),
    )
    @settings(max_examples=400, deadline=None)
    def test_generated_reasoning(self, reasoning, diagnosis, patient):
        _assert_matches_reference(_report(reasoning, diagnosis), patient)
