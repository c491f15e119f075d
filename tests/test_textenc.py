"""Tokenizer rules and the hashed-feature embedder contracts."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eviground import textenc
from eviground.errors import DimMismatchError, EmptyTextError, ValidationError


class TestTokenize:
    def test_measurement_string(self):
        assert textenc.tokenize("Hippocampal volume 4,724 mm3") == [
            "hippocampal",
            "volume",
            "4",
            "724",
            "mm3",
        ]

    def test_single_label(self):
        assert textenc.tokenize("CN") == ["cn"]

    def test_empty_raises(self):
        with pytest.raises(EmptyTextError):
            textenc.tokenize("!!! ---")

    @given(st.text(alphabet=st.characters(categories=["Ll", "Lu", "Nd", "Po", "Zs"]), min_size=1))
    def test_idempotent(self, text):
        try:
            tokens = textenc.tokenize(text)
        except EmptyTextError:
            return
        assert textenc.tokenize(" ".join(tokens)) == tokens


class TestEmbedder:
    def test_same_token_same_vector(self):
        emb = textenc.Embedder(seed=3)
        vecs = emb.embed_tokens(["tau", "tau"])
        np.testing.assert_array_equal(vecs[0], vecs[1])

    def test_equal_seeds_equal_outputs(self):
        a = textenc.Embedder(seed=9)
        b = textenc.Embedder(seed=9)
        np.testing.assert_array_equal(a.embed_text("memory decline"), b.embed_text("memory decline"))

    def test_unit_norm_output(self):
        emb = textenc.Embedder(seed=0)
        for text in ("tau", "memory is impaired", "a b c d e f"):
            assert np.linalg.norm(emb.embed_text(text)) == pytest.approx(1.0, abs=1e-9)

    def test_token_order_invariance(self):
        emb = textenc.Embedder(seed=0)
        np.testing.assert_allclose(
            emb.embed_text("amyloid tau memory"), emb.embed_text("memory amyloid tau"), atol=1e-12
        )

    def test_single_token_equals_normalized_token_vector(self):
        emb = textenc.Embedder(seed=5)
        tok = emb.embed_tokens(["hippocampus"])[0]
        np.testing.assert_allclose(
            emb.embed_text("hippocampus"), tok / np.linalg.norm(tok), atol=1e-12
        )

    def test_features_of_texts_computes_each_text_once(self, monkeypatch):
        emb = textenc.Embedder(seed=4)
        texts = ["memory recall is low", "tau elevated", "memory recall is low", "x y z w"]
        want = [emb.token_features(textenc.tokenize(t)).mean(axis=0) for t in texts]
        looked_up = []
        token_features = emb.token_features

        def counted(tokens):
            looked_up.append(tokens)
            return token_features(tokens)

        monkeypatch.setattr(emb, "token_features", counted)
        first = emb.features_of_texts(texts)
        again = emb.features_of_texts(texts[::-1])
        assert len(looked_up) == 3  # one per distinct text, on the first call only
        for i, row in enumerate(want):
            assert np.array_equal(first[i], row) and np.array_equal(again[-1 - i], row)
        first[0] += 1.0  # callers get their own array; the memo stays as computed
        assert np.array_equal(emb.features_of_texts(texts[:1])[0], want[0])
        fresh = textenc.Embedder(seed=4)
        assert np.array_equal(fresh.features_of_texts(texts), emb.features_of_texts(texts))

    def test_base_table_immutable_and_only_head_grads(self):
        from eviground.grounding import GroundingBatch, multi_positive_infonce
        from eviground.records import EvidenceItem

        emb = textenc.Embedder(vocab_hash_dim=16, base_dim=8, embed_dim=4, seed=1)
        before = emb.base_table.copy()
        batch = GroundingBatch(
            ["memory is down", "tau is up"],
            [
                EvidenceItem("a", "memory score low", "f", "cognition"),
                EvidenceItem("b", "tau level high", "f", "biomarker"),
            ],
            {(0, 0), (1, 1)},
        )
        lw = multi_positive_infonce(batch, emb, tau=0.5)
        assert set(lw.grads) == {"flat"} and lw.grads["flat"].shape == emb.flat.shape
        emb.flat -= 0.1 * lw.grads["flat"]
        np.testing.assert_array_equal(emb.base_table, before)
        with pytest.raises((ValueError, RuntimeError)):
            emb.base_table[0, 0] = 1.0

    def test_checkpoint_roundtrip(self, tmp_path):
        emb = textenc.Embedder(seed=2)
        emb.params["head_w"][...] += 0.5
        emb.save(tmp_path / "emb")
        back = textenc.Embedder.load(tmp_path / "emb")
        assert back.vocab_hash_dim == emb.vocab_hash_dim
        assert all(np.shares_memory(view, back.flat) for view in back.params.values())
        with pytest.raises(TypeError):
            back.params["head_b"] = np.zeros_like(back.params["head_b"])
        # weights serialize at single precision
        np.testing.assert_allclose(back.flat, emb.flat, atol=1e-6)
        np.testing.assert_array_equal(back.base_table, emb.base_table)

    def test_flat_step_matches_per_tensor_update(self):
        from eviground.grounding import GroundingBatch, infonce_from_features
        from eviground.records import EvidenceItem

        emb = textenc.Embedder(vocab_hash_dim=16, base_dim=8, embed_dim=4, seed=3)
        assert emb.flat.size == 8 * 4 + 4
        sentences = ["memory is down", "tau is up", "amyloid is low"]
        evidences = [
            EvidenceItem("a", "memory score low", "f", "cognition"),
            EvidenceItem("b", "tau level high", "f", "biomarker"),
            EvidenceItem("c", "amyloid level low", "f", "biomarker"),
        ]
        batch = GroundingBatch(sentences, evidences, {(0, 0), (1, 1), (2, 2), (1, 2)})
        args = (
            emb.features_of_texts(sentences),
            emb.features_of_texts([e.descriptor for e in evidences]),
            batch.positive_mask(),
        )
        # reference: loose per-tensor weights stepped one tensor at a time
        head_w, head_b = emb.params["head_w"].copy(), emb.params["head_b"].copy()
        ref = textenc.Embedder(vocab_hash_dim=16, base_dim=8, embed_dim=4, seed=3)  # same table
        lr = 0.5
        for _ in range(3):
            emb.flat -= lr * infonce_from_features(*args, emb, 0.07).grads["flat"]
            ref.params["head_w"][...] = head_w
            ref.params["head_b"][...] = head_b
            g = infonce_from_features(*args, ref, 0.07).grads["flat"]
            gw, gb = g[: head_w.size].reshape(head_w.shape), g[head_w.size :]
            head_w -= lr * gw
            head_b -= lr * gb
            np.testing.assert_array_equal(emb.params["head_w"], head_w)
            np.testing.assert_array_equal(emb.params["head_b"], head_b)

    @pytest.mark.parametrize(
        "key, value",
        [("heads", 2), ("base_dim", "8"), ("base_dim", -1), ("seed", -3), ("vocab_hash_dim", 0)],
    )
    def test_load_rejects_bad_manifest_dims(self, tmp_path, key, value):
        textenc.Embedder(vocab_hash_dim=16, base_dim=8, embed_dim=4).save(tmp_path / "emb")
        manifest_path = tmp_path / "emb" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match=key):
            textenc.Embedder.load(tmp_path / "emb")

    def test_seed_has_no_upper_bound(self):
        # train_student seeds its student with the distill seed + 1, so 2**64 must construct
        textenc.Embedder(vocab_hash_dim=16, base_dim=8, embed_dim=4, seed=2**64)

    def test_load_missing_dim_falls_back_then_shape_check_fails(self, tmp_path):
        textenc.Embedder(vocab_hash_dim=16, base_dim=8, embed_dim=4).save(tmp_path / "emb")
        manifest_path = tmp_path / "emb" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["base_dim"]  # the default of 64 does not fit an (8, 4) head
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DimMismatchError, match="head_w"):
            textenc.Embedder.load(tmp_path / "emb")


class TestFastPaths:
    """Each fast path against the formula it replaced, written out here."""

    def test_encode_features_bit_equal_to_norm_form(self):
        rng = np.random.default_rng(0)
        emb = textenc.Embedder(seed=4)
        emb.flat[...] = rng.normal(size=emb.flat.size)
        for n in (1, 2, 7, 13):
            mean_feats = rng.normal(size=(n, emb.base_dim)) * 10.0 ** rng.uniform(-3, 3)
            unit, cache = emb.encode_features(mean_feats)
            pooled = mean_feats @ emb.params["head_w"] + emb.params["head_b"]
            norms = np.linalg.norm(pooled, axis=1)
            np.testing.assert_array_equal(cache.norms, norms)
            np.testing.assert_array_equal(unit, pooled / norms[:, None])

    def test_backward_texts_bit_equal_to_sum_form(self):
        rng = np.random.default_rng(1)
        emb = textenc.Embedder(seed=5)
        for n in (1, 3, 12):
            _, cache = emb.encode_features(rng.normal(size=(n, emb.base_dim)))
            d_unit = rng.normal(size=(n, emb.embed_dim))
            inner = np.sum(cache.unit * d_unit, axis=1, keepdims=True)
            d_pooled = (d_unit - inner * cache.unit) / cache.norms[:, None]
            want = np.concatenate(
                [(cache.mean_features.T @ d_pooled).ravel(), np.sum(d_pooled, axis=0)]
            )
            np.testing.assert_array_equal(emb.backward_texts(cache, d_unit), want)

    def test_embed_text_bit_equal_to_norm_form(self):
        emb = textenc.Embedder(seed=8)
        for text in ("memory", "tau level high", "hippocampal volume 4,724 mm3 low"):
            pooled = emb.embed_tokens(textenc.tokenize(text)).mean(axis=0)
            np.testing.assert_array_equal(emb.embed_text(text), pooled / np.linalg.norm(pooled))

    def test_token_features_equal_to_stacked_rows(self):
        emb = textenc.Embedder(seed=6)
        tokens = textenc.tokenize("tau tau amyloid level 4,724 mm3 memory recall low")
        rows = [emb.base_table[textenc.token_bucket(t, emb.vocab_hash_dim)] for t in tokens]
        np.testing.assert_array_equal(emb.token_features(tokens), np.stack(rows))


class TestFrozenTexts:
    def test_same_vector_and_one_embed_per_text(self, monkeypatch):
        emb = textenc.Embedder(seed=7)
        texts = ["memory is low", "tau level high", "memory is low", "CN", "tau level high"]
        want = [emb.embed_text(t) for t in texts]
        calls = []
        embed_text = textenc.Embedder.embed_text

        def counting(self, text):
            calls.append(text)
            return embed_text(self, text)

        monkeypatch.setattr(textenc.Embedder, "embed_text", counting)
        frozen = textenc.FrozenTexts(emb)
        for text, vec in zip(texts, want):
            np.testing.assert_array_equal(frozen.embed_text(text), vec)
        assert calls == ["memory is low", "tau level high", "CN"]

    def test_stored_vectors_are_read_only(self):
        frozen = textenc.FrozenTexts(textenc.Embedder(seed=8))
        with pytest.raises(ValueError):
            frozen.embed_text("memory")[0] = 1.0
