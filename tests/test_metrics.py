"""Retrieval metrics with brute-force oracles and evaluation tables."""

import numpy as np
import pytest

from eviground import metrics
from eviground.errors import EmptyGoldError


def brute_force_ap(ranked, gold):
    """AP as mean over gold items of precision at each item's rank."""
    precisions = []
    for item in gold:
        if item not in ranked:
            precisions.append(0.0)
            continue
        rank = ranked.index(item) + 1
        hits = sum(1 for r in ranked[:rank] if r in gold)
        precisions.append(hits / rank)
    return sum(precisions) / len(gold)


class TestRecallAtK:
    def test_gold_first(self):
        assert metrics.recall_at_k(["a", "b", "c"], {"a"}, 1) == 1.0

    def test_gold_fourth_k3(self):
        assert metrics.recall_at_k(["b", "c", "d", "a"], {"a"}, 3) == 0.0

    def test_two_gold_one_recovered(self):
        assert metrics.recall_at_k(["a", "x", "y", "b"], {"a", "b"}, 3) == 0.5

    def test_empty_gold(self):
        with pytest.raises(EmptyGoldError):
            metrics.recall_at_k(["a"], set(), 1)


class TestAveragePrecision:
    def test_all_gold_first(self):
        assert metrics.average_precision(["a", "b"], {"a"}) == 1.0

    def test_hand_computed(self):
        got = metrics.average_precision(["g1", "x", "g2"], {"g1", "g2"})
        assert got == pytest.approx(0.8333, abs=1e-4)

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            items = [f"i{j}" for j in range(n)]
            rng.shuffle(items)
            gold = set(rng.choice(items, size=int(rng.integers(1, n)), replace=False))
            assert metrics.average_precision(items, gold) == pytest.approx(
                brute_force_ap(items, gold), abs=1e-12
            )


class TestMeanAveragePrecision:
    def test_perfect(self):
        assert metrics.mean_average_precision([["a"], ["b"]], [{"a"}, {"b"}]) == 1.0

    def test_order_stability(self):
        rng = np.random.default_rng(1)
        rankings, golds = [], []
        for _ in range(10):
            items = [f"i{j}" for j in range(6)]
            rng.shuffle(items)
            rankings.append(items)
            golds.append(set(rng.choice(items, size=2, replace=False)))
        base = metrics.mean_average_precision(rankings, golds)
        perm = list(rng.permutation(10))
        got = metrics.mean_average_precision(
            [rankings[i] for i in perm], [golds[i] for i in perm]
        )
        assert got == pytest.approx(base, abs=1e-12)


class TestEvalConsistency:
    def test_gold_reports_all_ones(self, small_cohort):
        from eviground.rules import LexicalEntailmentScorer

        pairs = [
            (small_cohort.records[pid], small_cohort.gold_report(pid))
            for pid in small_cohort.split["test"]
        ]
        table = metrics.eval_consistency(
            pairs, small_cohort.rules, LexicalEntailmentScorer(small_cohort.rules)
        )
        assert table == {
            "accuracy": 1.0,
            "valid_format_rate": 1.0,
            "nia_consistency_rate": 1.0,
            "entailment_rate": 1.0,
        }

    def test_shuffled_diagnoses_near_chance(self, small_cohort):
        from eviground.report import parse_report, render_report
        from eviground.rules import LexicalEntailmentScorer

        rng = np.random.default_rng(2)
        ids = list(small_cohort.records)
        labels = [small_cohort.records[p].gt_label for p in ids]
        shuffled = list(rng.permutation(labels))
        pairs = []
        for pid, label in zip(ids, shuffled):
            parsed = parse_report(small_cohort.gold_report(pid))
            pairs.append(
                (
                    small_cohort.records[pid],
                    render_report(parsed.reasoning, label, parsed.confidence),
                )
            )
        table = metrics.eval_consistency(
            pairs, small_cohort.rules, LexicalEntailmentScorer(small_cohort.rules)
        )
        counts = {l: labels.count(l) for l in set(labels)}
        chance = sum(c * c for c in counts.values()) / len(labels) ** 2
        assert abs(table["accuracy"] - chance) <= 0.25


class TestEvalGrounding:
    def test_one_ablated_pass_per_patient(self, small_cohort, monkeypatch):
        from eviground.losses import dice_score
        from eviground.segdecoder import SegDecoder, SegDecoderConfig, decode_mask
        from eviground.textenc import Embedder, tokenize

        emb = Embedder(seed=0)
        pids = small_cohort.split["test"]
        dec = SegDecoder(
            SegDecoderConfig(
                volume_dim=small_cohort.volume(pids[0]).shape[0],
                token_dim=emb.embed_dim,
                layers=1,
                seed=3,
            )
        )
        ablated_calls = []

        def counting_decode(decoder, tokens, ev_tokens, zero_cross_attention=False):
            if zero_cross_attention:
                ablated_calls.append(1)
            return decode_mask(decoder, tokens, ev_tokens, zero_cross_attention)

        monkeypatch.setattr(metrics, "decode_mask", counting_decode)
        table = metrics.eval_grounding(emb, dec, small_cohort, "test")

        per_structure = {}
        for pid in pids:
            tokens = dec.volume_to_tokens(small_cohort.volume(pid))
            for item in small_cohort.records[pid].evidence:
                if item.anatomy_ref is None:
                    continue
                ev_tokens = emb.embed_tokens(tokenize(item.descriptor))
                probs = decode_mask(dec, tokens, ev_tokens, zero_cross_attention=True)
                score = dice_score((probs >= 0.5).astype(np.float64),
                                   small_cohort.mask(pid, item.anatomy_ref))
                per_structure.setdefault(item.anatomy_ref, []).append(score)
        assert len(ablated_calls) == len(pids)
        for structure, vals in per_structure.items():
            assert table[f"dice_ablated.{structure}"] == float(np.mean(vals))
