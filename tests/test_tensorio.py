"""Binary tensor format round-trips and failure modes."""

import json

import numpy as np
import pytest

from eviground import tensorio
from eviground.errors import ValidationError


def test_roundtrip_single_precision(tmp_path):
    x = np.random.default_rng(0).normal(size=(3, 5, 2))
    path = tmp_path / "t.emad"
    tensorio.save_tensor(path, x)
    back = tensorio.load_tensor(path)
    assert back.shape == x.shape
    np.testing.assert_allclose(back, x.astype("<f4").astype(np.float64), atol=0)


def test_magic_and_layout(tmp_path):
    path = tmp_path / "t.emad"
    tensorio.save_tensor(path, np.arange(6, dtype=float).reshape(2, 3))
    raw = path.read_bytes()
    assert raw[:4] == b"EMAD"
    assert raw[4] == 2  # rank
    assert int.from_bytes(raw[5:9], "little") == 2
    assert int.from_bytes(raw[9:13], "little") == 3
    vals = np.frombuffer(raw[13:], dtype="<f4")
    np.testing.assert_allclose(vals, np.arange(6))  # row-major, last axis fastest


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.emad"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(ValidationError):
        tensorio.load_tensor(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.emad"
    tensorio.save_tensor(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValidationError):
        tensorio.load_tensor(path)


@pytest.mark.parametrize("keep", [4, 5, 7, 12])
def test_truncated_header_rejected(tmp_path, keep):
    path = tmp_path / "t.emad"
    tensorio.save_tensor(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValidationError, match="truncated header"):
        tensorio.load_tensor(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.emad"
    tensorio.save_tensor(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValidationError, match="trailing"):
        tensorio.load_tensor(path)


def test_nonfinite_rejected(tmp_path):
    with pytest.raises(ValidationError):
        tensorio.save_tensor(tmp_path / "t.emad", np.array([1.0, np.nan]))


def test_param_dir_roundtrip(tmp_path):
    params = {"a": np.ones((2, 2)), "b": np.arange(3, dtype=float)}
    tensorio.save_params(tmp_path / "ckpt", params, {"kind": "test", "seed": 7})
    back, meta = tensorio.load_params(tmp_path / "ckpt", ("seed",))
    assert meta["seed"] == 7
    assert set(back) == {"a", "b"}
    np.testing.assert_allclose(back["a"], params["a"])


def _saved_manifest(tmp_path):
    tensorio.save_params(tmp_path / "ckpt", {"a": np.ones(2)}, {"kind": "test"})
    return tmp_path / "ckpt" / "manifest.json"


def test_manifest_not_json_rejected(tmp_path):
    manifest = _saved_manifest(tmp_path)
    manifest.write_text(manifest.read_text()[:-3])
    with pytest.raises(ValidationError, match="not JSON"):
        tensorio.load_params(tmp_path / "ckpt", ())


def test_manifest_without_params_rejected(tmp_path):
    manifest = _saved_manifest(tmp_path)
    manifest.write_text(json.dumps({"kind": "test"}))
    with pytest.raises(ValidationError, match="params"):
        tensorio.load_params(tmp_path / "ckpt", ())
