"""Contrastive grounding loss: frozen examples, brute-force oracle, and
invariants."""

import math

import numpy as np
import pytest

from eviground import grounding
from eviground.errors import EmptyEvidenceError, NoPositiveError
from eviground.records import EvidenceItem
from eviground.textenc import Embedder

WORDS = "memory tau amyloid atrophy volume recall executive language score level high low".split()


def _ev(j, text):
    return EvidenceItem(f"e{j}", text, "field", "lab")


def _random_batch(rng, n_s, n_e):
    sentences = [" ".join(rng.choice(WORDS, size=rng.integers(2, 5))) for _ in range(n_s)]
    evidences = [_ev(j, " ".join(rng.choice(WORDS, size=rng.integers(2, 5)))) for j in range(n_e)]
    pairs = {(i, int(rng.integers(n_e))) for i in range(n_s)}
    for j in range(n_e):  # every evidence needs a positive too
        pairs.add((int(rng.integers(n_s)), j))
    while rng.random() < 0.5:
        pairs.add((int(rng.integers(n_s)), int(rng.integers(n_e))))
    return grounding.GroundingBatch(sentences, evidences, pairs)


def brute_force_loss(batch, emb, tau):
    """Direct evaluation: per anchor, mean over positives of the negative
    log ratio; negatives are all non-positives; directions averaged over
    their own anchors and summed."""
    v_s = [emb.embed_text(s) for s in batch.sentences]
    v_e = [emb.embed_text(e.descriptor) for e in batch.evidences]

    def kappa(a, b):
        return math.exp(float(np.dot(a, b)) / tau)

    def direction(anchors, cands, positives_of):
        total = 0.0
        for i, a in enumerate(anchors):
            pos = positives_of(i)
            neg = [j for j in range(len(cands)) if j not in pos]
            terms = []
            for j in pos:
                denom = kappa(a, cands[j]) + sum(kappa(a, cands[k]) for k in neg)
                terms.append(-math.log(kappa(a, cands[j]) / denom))
            total += sum(terms) / len(terms)
        return total / len(anchors)

    s2e = direction(v_s, v_e, lambda i: sorted(j for (si, j) in batch.positive_pairs if si == i))
    e2s = direction(v_e, v_s, lambda j: sorted(i for (i, ej) in batch.positive_pairs if ej == j))
    return s2e + e2s


class TestMultiPositiveInfonce:
    def test_one_positive_one_orthogonal_negative(self):
        """Identical-embedding pair plus an orthogonal negative at tau=1
        gives -log(e/(e+1)) per direction and twice that in total."""

        class StubEmbedder:
            table = {
                "s0": np.array([1.0, 0.0]),
                "p0": np.array([1.0, 0.0]),
                "n0": np.array([0.0, 1.0]),
                "s1": np.array([0.0, 1.0]),
            }

            def features_of_texts(self, texts):
                return np.stack([self.table[t] for t in texts])

            def encode_features(self, feats):
                from eviground.textenc import EncodeCache

                norms = np.linalg.norm(feats, axis=1)
                return feats / norms[:, None], EncodeCache(feats, feats, norms, feats)

            def backward_texts(self, cache, d_unit):
                return np.zeros(6)

        batch = grounding.GroundingBatch(
            ["s0", "s1"],
            [_ev(0, "p0"), _ev(1, "n0")],
            {(0, 0), (1, 1)},
        )
        lw = grounding.multi_positive_infonce(batch, StubEmbedder(), tau=1.0)
        per_direction = -math.log(math.e / (math.e + 1.0))
        assert per_direction == pytest.approx(0.3133, abs=1e-4)
        assert lw.value == pytest.approx(2 * per_direction, abs=1e-9)
        assert lw.value == pytest.approx(0.6266, abs=1e-3)

    def test_uniform_similarities_give_log2(self):
        class ConstantEmbedder:
            def features_of_texts(self, texts):
                return np.tile(np.array([1.0, 0.0]), (len(texts), 1))

            def encode_features(self, feats):
                from eviground.textenc import EncodeCache

                norms = np.linalg.norm(feats, axis=1)
                return feats / norms[:, None], EncodeCache(feats, feats, norms, feats)

            def backward_texts(self, cache, d_unit):
                return np.zeros(6)

        batch = grounding.GroundingBatch(
            ["s0", "s1"], [_ev(0, "pos"), _ev(1, "neg")], {(0, 0), (1, 1)}
        )
        # every anchor sees one positive and one negative with equal kappas,
        # so each directional mean is log 2
        lw = grounding.multi_positive_infonce(batch, ConstantEmbedder(), tau=1.0)
        assert lw.value / 2 == pytest.approx(math.log(2), abs=1e-9)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        emb = Embedder(vocab_hash_dim=32, base_dim=8, embed_dim=6, seed=2)
        for _ in range(25):
            batch = _random_batch(rng, 4, 5)
            got = grounding.multi_positive_infonce(batch, emb, tau=0.5).value
            want = brute_force_loss(batch, emb, 0.5)
            assert got == pytest.approx(want, abs=1e-10)

    def test_single_positive_reduces_to_symmetric_infonce(self):
        rng = np.random.default_rng(6)
        emb = Embedder(vocab_hash_dim=32, base_dim=8, embed_dim=6, seed=3)
        n = 4
        sentences = [" ".join(rng.choice(WORDS, size=3)) for _ in range(n)]
        evidences = [_ev(j, " ".join(rng.choice(WORDS, size=3))) for j in range(n)]
        batch = grounding.GroundingBatch(sentences, evidences, {(i, i) for i in range(n)})

        v_s = np.stack([emb.embed_text(s) for s in sentences])
        v_e = np.stack([emb.embed_text(e.descriptor) for e in evidences])
        kap = np.exp(v_s @ v_e.T / 0.5)
        ce_rows = -np.mean(np.log(np.diag(kap) / kap.sum(axis=1)))
        ce_cols = -np.mean(np.log(np.diag(kap) / kap.sum(axis=0)))
        want = ce_rows + ce_cols

        got = grounding.multi_positive_infonce(batch, emb, tau=0.5).value
        assert got == pytest.approx(want, abs=1e-10)

    def test_invariant_to_negative_reordering(self):
        rng = np.random.default_rng(7)
        emb = Embedder(vocab_hash_dim=32, base_dim=8, embed_dim=6, seed=4)
        batch = _random_batch(rng, 3, 5)
        base = grounding.multi_positive_infonce(batch, emb, tau=0.5).value

        perm = list(rng.permutation(len(batch.evidences)))
        shuffled = grounding.GroundingBatch(
            batch.sentences,
            [batch.evidences[j] for j in perm],
            {(i, perm.index(j)) for (i, j) in batch.positive_pairs},
        )
        got = grounding.multi_positive_infonce(shuffled, emb, tau=0.5).value
        assert got == pytest.approx(base, abs=1e-12)

    def test_anchor_without_positive_raises(self):
        # sentence 1 has no positive (s->e), then evidence 1 has none (e->s)
        for pairs in ({(0, 0), (0, 1)}, {(0, 0), (1, 0)}):
            batch = grounding.GroundingBatch(["a", "b"], [_ev(0, "x"), _ev(1, "y")], pairs)
            with pytest.raises(NoPositiveError):
                grounding.multi_positive_infonce(batch, Embedder(seed=0), tau=1.0)

    def test_gradients_pass_fd(self):
        from eviground.gradcheck import check_infonce

        assert max(check_infonce(s) for s in range(5)) < 1e-4


class TestGroundSentence:
    """One sentence against its candidate evidences: ``grounding_logits`` and
    the tempered distribution distillation takes from them."""

    @staticmethod
    def _distribution(sentence, evidences, emb, tau=0.07):
        from eviground.distill import TeacherGrounder, teacher_evidence_distribution

        teacher = TeacherGrounder(emb, tau=tau)
        return teacher_evidence_distribution(teacher, [sentence], evidences, 1.0)[0]

    def test_single_candidate(self):
        p = self._distribution("memory", [_ev(0, "memory score")], Embedder(seed=0))
        np.testing.assert_allclose(p, [1.0])

    def test_empty_candidates_raise(self):
        with pytest.raises(EmptyEvidenceError):
            grounding.grounding_logits(["memory"], [], Embedder(seed=0), 0.07)

    def test_permutation_equivariance(self):
        emb = Embedder(seed=1)
        evs = [_ev(j, t) for j, t in enumerate(["memory score", "tau level", "brain volume"])]
        z = grounding.grounding_logits(["memory is low"], evs, emb, 0.07)
        z_rev = grounding.grounding_logits(["memory is low"], evs[::-1], emb, 0.07)
        np.testing.assert_allclose(z, z_rev[:, ::-1], atol=1e-12)

    def test_logits_match_per_pair_cosine(self, small_cohort):
        """The one product against the per-pair cosine it replaced, which
        normalized each already unit vector again and clipped to [-1, 1]."""
        from eviground.grounding import GrounderConfig, train_grounding

        emb, _, _ = train_grounding(
            small_cohort, GrounderConfig(epochs=2, train_decoder=False), seed=0
        )
        for row in small_cohort.rows_for("test"):
            evs = small_cohort.records[row.patient_id].evidence
            s_vec = emb.embed_text(row.sentence)
            want = []
            for e in evs:
                e_vec = emb.embed_text(e.descriptor)
                cos = s_vec.dot(e_vec) / (np.linalg.norm(s_vec) * np.linalg.norm(e_vec))
                want.append(float(np.clip(cos, -1.0, 1.0)) / 0.07)
            got = grounding.grounding_logits([row.sentence], evs, emb, 0.07)
            np.testing.assert_allclose(got, [want], rtol=1e-12, atol=0)

    def test_rows_match_one_sentence_calls(self, small_cohort):
        """Each row of a patient's one product equals that sentence's own
        call, and the teacher's targets are the tempered softmax of the rows."""
        from eviground.distill import TeacherGrounder, teacher_evidence_distribution
        from eviground.grounding import GrounderConfig, train_grounding
        from eviground.losses import softmax

        emb, _, _ = train_grounding(
            small_cohort, GrounderConfig(epochs=2, train_decoder=False), seed=0
        )
        teacher = TeacherGrounder(emb, tau=0.07)
        for pid in small_cohort.split["test"]:
            sentences = [r.sentence for r in small_cohort.rows_for("test") if r.patient_id == pid]
            evs = small_cohort.records[pid].evidence
            z = grounding.grounding_logits(sentences, evs, emb, 0.07)
            assert z.shape == (len(sentences), len(evs))
            for i, sentence in enumerate(sentences):
                one = grounding.grounding_logits([sentence], evs, emb, 0.07)
                np.testing.assert_allclose(z[i], one[0], rtol=0, atol=1e-12)
            q = teacher_evidence_distribution(teacher, sentences, evs, 2.0)
            np.testing.assert_array_equal(q, [softmax(row, temperature=2.0) for row in z])

    def test_sums_to_one(self):
        evs = [_ev(j, t) for j, t in enumerate(["memory score", "tau level"])]
        assert self._distribution("anything here", evs, Embedder(seed=1)).sum() == pytest.approx(1.0)

    def test_lexically_identical_descriptor_dominates(self, small_cohort):
        from eviground.grounding import GrounderConfig, train_grounding

        emb, _, _ = train_grounding(
            small_cohort, GrounderConfig(epochs=8, train_decoder=False), seed=0
        )
        pid = small_cohort.split["test"][0]
        record = small_cohort.records[pid]
        target = record.evidence[4]  # a cognition descriptor
        probs = self._distribution(target.descriptor, record.evidence, emb, tau=0.07)
        assert probs[4] > 0.99


def _directional_terms_loop(kap, positives, tau):
    """The per-anchor, per-positive loop that _directional_terms replaced,
    over sorted positive index lists."""
    n_anchors, n_cands = kap.shape
    grad = np.zeros_like(kap)
    total = 0.0
    for i in range(n_anchors):
        pos = positives[i]
        neg = [j for j in range(n_cands) if j not in set(pos)]
        neg_sum = float(kap[i, neg].sum()) if neg else 0.0
        inv_npos = 1.0 / len(pos)
        for j in pos:
            denom = kap[i, j] + neg_sum
            total += -math.log(kap[i, j] / denom) * inv_npos
            grad[i, j] += (kap[i, j] / denom - 1.0) / tau * inv_npos
            for k in neg:
                grad[i, k] += kap[i, k] / (denom * tau) * inv_npos
    return total / n_anchors, grad / n_anchors


def test_directional_terms_bit_equal_to_loop():
    """The mask form against the loop, to rtol 1e-12 rather than bit for bit:
    a masked row sum adds its terms in another order than ``row[neg].sum()``."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        n_anchors, n_cands = (int(x) for x in rng.integers(1, 15, size=2))
        n_cands = max(n_cands, 3)
        tau = float(rng.choice([0.07, 0.5, 1.0]))
        kap = np.exp(rng.uniform(-1, 1, size=(n_anchors, n_cands)) / tau)
        positives = [
            sorted(int(j) for j in rng.choice(n_cands, size=rng.integers(1, 4), replace=False))
            for _ in range(n_anchors)
        ]
        pos = np.zeros((n_anchors, n_cands), dtype=bool)
        for i, row in enumerate(positives):
            pos[i, row] = True
        for k in (kap, np.ascontiguousarray(kap.T).T):  # contiguous rows and strided rows
            loss, grad = grounding._directional_terms(k, pos, tau)
            want_loss, want_grad = _directional_terms_loop(k, positives, tau)
            assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
            np.testing.assert_allclose(grad(), want_grad, rtol=1e-12, atol=0)
