"""Deterministic toy text embedder: frozen hashed token features with a
single trainable linear head, mean pooling, and L2 normalization.

:class:`FrozenTexts` memoizes ``embed_text`` for an embedder whose head no
longer changes (a frozen teacher, or any embedder under evaluation).
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import tensorio
from .errors import EmptyTextError, ValidationError, ZeroNormError

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")
# a pooled text vector shorter than this has no direction to normalize
ZERO_NORM_TOL = 1e-12


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters."""
    tokens = [t for t in _TOKEN_SPLIT.split(text.lower()) if t]
    if not tokens:
        raise EmptyTextError(f"no tokens in {text!r}")
    return tokens


@functools.lru_cache(maxsize=1 << 16)
def token_bucket(token: str, vocab_hash_dim: int) -> int:
    """Stable 64-bit hash of the token, reduced to a table row."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % vocab_hash_dim


@dataclass
class EncodeCache:
    """Intermediates needed to backpropagate through encode_features."""

    mean_features: np.ndarray  # (n_texts, base_dim)
    pooled: np.ndarray  # pre-normalization head outputs (n_texts, embed_dim)
    norms: np.ndarray  # (n_texts,)
    unit: np.ndarray  # normalized outputs (n_texts, embed_dim)


class Embedder:
    """Frozen random base table keyed by token hash; trainable head W, b.

    ``flat`` holds ``head_w`` (base_dim x embed_dim), then ``head_b``;
    ``params`` names read-only views into it. The base table is immutable
    and lies outside ``flat``; only the head ever receives gradients.
    """

    def __init__(
        self,
        vocab_hash_dim: int = 256,
        base_dim: int = 64,
        embed_dim: int = 32,
        seed: int = 0,
    ):
        for name, value, low in (
            ("vocab_hash_dim", vocab_hash_dim, 1),
            ("base_dim", base_dim, 1),
            ("embed_dim", embed_dim, 1),
            ("seed", seed, 0),  # no upper bound: train_student seeds its student with seed + 1
        ):
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ValidationError(f"embedder {name} must be an integer >= {low}, got {value!r}")
        self.vocab_hash_dim = vocab_hash_dim
        self.base_dim = base_dim
        self.embed_dim = embed_dim
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.base_table = rng.normal(0.0, 1.0, size=(vocab_hash_dim, base_dim))
        self.base_table.setflags(write=False)
        # text -> read-only mean feature row; the base table never changes
        self._text_features: dict[str, np.ndarray] = {}
        slots = tensorio.flat_layout([("head_w", (base_dim, embed_dim)), ("head_b", (embed_dim,))])
        self.flat = np.zeros(slots[-1][2])
        self.params = MappingProxyType(tensorio.views(self.flat, slots))
        head_w = self.params["head_w"]
        head_w[...] = rng.normal(0.0, 1.0 / np.sqrt(base_dim), size=head_w.shape)

    # --- forward ------------------------------------------------------------

    def token_features(self, tokens: list[str]) -> np.ndarray:
        return self.base_table[[token_bucket(t, self.vocab_hash_dim) for t in tokens]]

    def embed_tokens(self, tokens: list[str]) -> np.ndarray:
        """Per-token embeddings (n_tokens, embed_dim), unnormalized."""
        if not tokens:
            raise EmptyTextError("empty token sequence")
        return self.token_features(tokens) @ self.params["head_w"] + self.params["head_b"]

    def embed_text(self, text: str) -> np.ndarray:
        """Mean-pooled, L2-normalized sentence vector."""
        vecs = self.embed_tokens(tokenize(text))
        pooled = vecs.mean(axis=0)
        norm = np.linalg.norm(pooled)
        if norm < ZERO_NORM_TOL:
            raise ZeroNormError(f"degenerate embedding of {text!r}: pooled norm below 1e-12")
        return pooled / norm

    def features_of_texts(self, texts: list[str]) -> np.ndarray:
        """Head-independent mean token features, one row per text, safe to
        precompute and reuse. Each distinct text's row is computed once per
        embedder, as the mean of its token rows."""
        memo = self._text_features
        missing = [text for text in dict.fromkeys(texts) if text not in memo]
        if missing:
            rows = []
            for text in missing:
                feats = self.token_features(tokenize(text))
                # np.add.reduce / n is .mean(axis=0), bit for bit, without its overhead
                rows.append(np.add.reduce(feats, axis=0) / len(feats))
            # one block per call, kept as row views: a 512-byte heap block per
            # text kept for the embedder's life fragments the heap the mask
            # decoder then trains in
            block = np.stack(rows)
            block.setflags(write=False)
            memo.update(zip(missing, block))
        return np.stack([memo[text] for text in texts])

    def encode_features(self, mean_feats: np.ndarray) -> tuple[np.ndarray, EncodeCache]:
        """Apply the trainable head to precomputed mean features and normalize."""
        pooled = mean_feats @ self.params["head_w"] + self.params["head_b"]
        norms = np.sqrt(np.add.reduce(pooled * pooled, axis=1))  # np.linalg.norm's axis path
        unit = pooled / norms[:, None]
        return unit, EncodeCache(mean_feats, pooled, norms, unit)

    # --- backward -----------------------------------------------------------

    def backward_texts(self, cache: EncodeCache, d_unit: np.ndarray) -> np.ndarray:
        """Gradient of a loss w.r.t. the head, laid out like ``flat``, given
        d(loss)/d(unit rows).

        Normalization backward: du = (dv - (v . dv) v) / ||u||.
        """
        v = cache.unit
        inner = np.add.reduce(v * d_unit, axis=1, keepdims=True)
        d_pooled = (d_unit - inner * v) / cache.norms[:, None]
        d_b = np.add.reduce(d_pooled, axis=0)
        return np.concatenate([(cache.mean_features.T @ d_pooled).ravel(), d_b])

    # --- checkpoints ----------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        tensorio.save_params(
            directory,
            {"base_table": self.base_table, **self.params},
            meta={
                "kind": "embedder",
                "vocab_hash_dim": self.vocab_hash_dim,
                "base_dim": self.base_dim,
                "embed_dim": self.embed_dim,
                "seed": self.seed,
            },
        )

    @classmethod
    def load(cls, directory: str | Path) -> "Embedder":
        """Rebuild a saved embedder; the base table is regenerated from the seed."""
        keys = ("vocab_hash_dim", "base_dim", "embed_dim", "seed")
        params, meta = tensorio.load_params(directory, keys)
        params.pop("base_table", None)
        emb = cls(**meta)
        tensorio.copy_params(params, emb.params, directory)
        return emb


class FrozenTexts:
    """``embed_text`` of an embedder that no longer changes, computed once per
    distinct text. Never wrap an embedder that is still being trained:
    ``flat`` changes in place and the stored vectors would go stale."""

    def __init__(self, emb: Embedder):
        self.emb = emb
        self._vectors: dict[str, np.ndarray] = {}

    def embed_text(self, text: str) -> np.ndarray:
        vec = self._vectors.get(text)
        if vec is None:
            vec = self._vectors[text] = self.emb.embed_text(text)
            vec.setflags(write=False)
        return vec
