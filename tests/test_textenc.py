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
            [batch.positives_of_sentence(i) for i in range(3)],
            [batch.positives_of_evidence(j) for j in range(3)],
        )
        # reference: loose per-tensor weights stepped one tensor at a time
        head_w, head_b = emb.params["head_w"].copy(), emb.params["head_b"].copy()
        ref = emb.copy()
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

    @pytest.mark.parametrize("key, value", [("heads", 2), ("base_dim", "8")])
    def test_load_rejects_bad_manifest_dims(self, tmp_path, key, value):
        textenc.Embedder(vocab_hash_dim=16, base_dim=8, embed_dim=4).save(tmp_path / "emb")
        manifest_path = tmp_path / "emb" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match=key):
            textenc.Embedder.load(tmp_path / "emb")

    def test_load_missing_dim_falls_back_then_shape_check_fails(self, tmp_path):
        textenc.Embedder(vocab_hash_dim=16, base_dim=8, embed_dim=4).save(tmp_path / "emb")
        manifest_path = tmp_path / "emb" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["base_dim"]  # the default of 64 does not fit an (8, 4) head
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DimMismatchError, match="head_w"):
            textenc.Embedder.load(tmp_path / "emb")
