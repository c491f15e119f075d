"""Synthetic cohort generator contracts."""

import json
import re

import numpy as np
import pytest

from eviground import cohort as C
from eviground.report import parse_report
from eviground.rules import (
    LexicalEntailmentScorer,
    biomarker_abnormal,
    total_reward,
)


class TestGeneratePatient:
    def test_cn_biomarkers_all_normal_side(self):
        cfg = C.CohortConfig(n_patients=1)
        for seed in range(10):
            record, _, _ = C.generate_patient(cfg, seed, "CN")
            for marker in ("abeta", "ttau", "ptau"):
                assert not biomarker_abnormal(marker, record.biomarkers[marker], cfg.rules)

    def test_dementia_abeta_below_threshold(self):
        cfg = C.CohortConfig(n_patients=1)
        for seed in range(10):
            record, _, _ = C.generate_patient(cfg, seed, "Dementia")
            assert record.biomarkers["abeta"] < cfg.rules.abeta_abnormal_below

    def test_bitwise_determinism(self):
        cfg = C.CohortConfig(n_patients=1)
        r1, v1, m1 = C.generate_patient(cfg, 7, "MCI")
        r2, v2, m2 = C.generate_patient(cfg, 7, "MCI")
        assert r1.biomarkers == r2.biomarkers
        assert r1.cognition == r2.cognition
        np.testing.assert_array_equal(v1, v2)
        for key in m1:
            np.testing.assert_array_equal(m1[key], m2[key])

    def test_masks_match_analytic_support(self):
        cfg = C.CohortConfig(n_patients=1)
        _, volume, masks = C.generate_patient(cfg, 3, "CN")
        for mask in masks.values():
            assert set(np.unique(mask)) <= {0.0, 1.0}
            assert 20 < mask.sum() < 400

    def test_radius_shrinks_with_stage(self):
        cfg = C.CohortConfig(n_patients=1)
        sizes = {}
        for label in ("CN", "MCI", "Dementia"):
            vols = []
            for seed in range(8):
                _, _, masks = C.generate_patient(cfg, seed, label)
                vols.append(sum(m.sum() for m in masks.values()))
            sizes[label] = np.mean(vols)
        assert sizes["CN"] > sizes["MCI"] > sizes["Dementia"]


class TestGoldReport:
    def test_roundtrip_zero_diagnostics(self, small_cohort):
        for pid in small_cohort.split["train"][:8]:
            parsed = parse_report(small_cohort.gold_report(pid))
            assert parsed.parse_diagnostics == []
            assert parsed.diagnosis == small_cohort.records[pid].gt_label

    def test_gold_reward_is_maximal(self, small_cohort):
        scorer = LexicalEntailmentScorer(small_cohort.rules)
        for pid in small_cohort.split["test"]:
            rb = total_reward(
                parse_report(small_cohort.gold_report(pid)),
                small_cohort.records[pid],
                small_cohort.rules,
                scorer,
            )
            assert rb.total == pytest.approx(small_cohort.rules.max_total(), abs=1e-9)

    def test_every_sentence_has_gold_link(self, small_cohort):
        by_pid = {}
        for row in small_cohort.grounding:
            by_pid.setdefault(row.patient_id, []).append(row)
        for pid in small_cohort.split["train"][:8]:
            parsed = parse_report(small_cohort.gold_report(pid))
            rows = by_pid[pid]
            assert len(rows) == len(parsed.reasoning_sentences)
            assert all(row.evidence_ids for row in rows)

    def test_evidence_numbers_roundtrip(self, small_cohort):
        for record in list(small_cohort.records.values())[:10]:
            for item in record.evidence:
                if item.source_field.startswith("biomarkers."):
                    marker = item.source_field.split(".")[1]
                    number = float(re.search(r"(\d+) pg/mL", item.descriptor).group(1))
                    assert number == pytest.approx(record.biomarkers[marker], abs=0.5)
                if item.source_field.startswith("imaging."):
                    structure = item.source_field.split(".")[1]
                    number = float(re.search(r"(\d+) mm3", item.descriptor).group(1))
                    assert number == pytest.approx(record.imaging[structure], abs=0.5)


class TestGenerateCohort:
    def test_split_sizes_70_10_20(self, default_cohort):
        split = default_cohort.split
        assert (len(split["train"]), len(split["val"]), len(split["test"])) == (70, 10, 20)
        all_ids = split["train"] + split["val"] + split["test"]
        assert len(set(all_ids)) == 100  # subject-wise, disjoint

    def test_same_seed_same_manifest(self, tmp_path):
        m1 = C.generate_cohort(C.CohortConfig(n_patients=8), tmp_path / "a", seed=4)
        m2 = C.generate_cohort(C.CohortConfig(n_patients=8), tmp_path / "b", seed=4)
        assert m1["files"] == m2["files"]

    def test_label_mix_all_cn(self, tmp_path):
        C.generate_cohort(
            C.CohortConfig(n_patients=6, label_mix=(1.0, 0.0, 0.0)), tmp_path / "cn", seed=1
        )
        loaded = C.Cohort.load(tmp_path / "cn")
        assert all(r.gt_label == "CN" for r in loaded.records.values())

    def test_manifest_hashes_cover_all_files(self, small_cohort):
        manifest = json.loads((small_cohort.root / "manifest.json").read_text())
        listed = set(manifest["files"])
        on_disk = {
            str(p.relative_to(small_cohort.root))
            for p in small_cohort.root.rglob("*")
            if p.is_file() and p.name not in ("manifest.json", "run.json")
        }
        assert listed == on_disk

    def test_generator_rule_consistency_all_seeds(self, small_cohort, default_cohort):
        from eviground.rules import stage_from_values

        for loaded in (small_cohort, default_cohort):
            for record in loaded.records.values():
                assert (
                    stage_from_values(record.biomarkers, record.cognition, loaded.rules)
                    == record.gt_label
                )


def test_generator_rule_consistency_random_seed_sweep():
    from eviground.rules import stage_from_values

    cfg = C.CohortConfig(n_patients=1)
    rng = np.random.default_rng(2024)
    for _ in range(40):
        label = ("CN", "MCI", "Dementia")[int(rng.integers(3))]
        seed = int(rng.integers(1_000_000))
        record, _, _ = C.generate_patient(cfg, seed, label)
        assert stage_from_values(record.biomarkers, record.cognition, cfg.rules) == label
