"""Binary tensor format round-trips and failure modes."""

import json
from dataclasses import dataclass, field, fields

import numpy as np
import pytest

from eviground import tensorio
from eviground.cohort import CohortConfig, GroundingRow
from eviground.config import RunConfig
from eviground.distill import DistillConfig
from eviground.errors import ValidationError
from eviground.grounding import GrounderConfig
from eviground.policy import RftConfig
from eviground.pretrain import PretrainConfig
from eviground.records import EvidenceItem, PatientRecord
from eviground.rules import RuleConfig


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


@dataclass
class _Inner:
    n: int
    x: float = 0.5


@dataclass
class _Doc:
    name: str
    flag: bool = False
    note: str | None = None
    tags: list[str] = field(default_factory=list)
    pair: tuple[float, ...] = (0.0, 1.0)
    table: dict[str, float] = field(default_factory=dict)
    inner: _Inner = field(default_factory=lambda: _Inner(1))
    items: list[_Inner] = field(default_factory=list)


def test_from_json_builds_nested_fields_and_keeps_defaults():
    doc = tensorio.from_json(
        _Doc,
        {"name": "a", "note": None, "pair": [1, 2.5], "inner": {"n": 2}, "items": [{"n": 3, "x": 1}]},
    )
    assert doc == _Doc("a", pair=(1, 2.5), inner=_Inner(2), items=[_Inner(3, 1)])
    assert type(doc.pair) is tuple
    assert type(doc.items[0].x) is int  # an int in a float field is kept, not converted


@pytest.mark.parametrize(
    "value, message",
    [
        ([], "wrong type: expected a JSON object, got an array"),
        ({}, "missing keys: ['name']"),
        ({"name": "a", "extra": 1}, "unknown keys: ['extra']"),
        ({"name": 1}, "wrong type in name: expected a string, got 1"),
        ({"name": None}, "wrong type in name: expected a string, got null"),
        ({"name": "a", "note": 5}, "wrong type in note: expected a string or null, got 5"),
        ({"name": "a", "flag": 1}, "wrong type in flag: expected true or false, got 1"),
        ({"name": "a", "tags": "t"}, 'wrong type in tags: expected a JSON array, got "t"'),
        ({"name": "a", "tags": ["t", {}]}, "wrong type in tags[1]: expected a string, got an object"),
        ({"name": "a", "pair": [0.5, False]}, "wrong type in pair[1]: expected a number, got false"),
        ({"name": "a", "table": {"k": "1"}}, 'wrong type in table.k: expected a number, got "1"'),
        ({"name": "a", "inner": {"n": True}}, "wrong type in inner.n: expected an integer, got true"),
        ({"name": "a", "inner": {"n": 1.0}}, "wrong type in inner.n: expected an integer, got 1.0"),
        ({"name": "a", "inner": {"n": 1, "m": 2}}, "unknown keys in inner: ['m']"),
        ({"name": "a", "items": [{"n": 1}, {"x": 1}]}, "missing keys in items[1]: ['n']"),
    ],
)
def test_from_json_rejects_in_one_line_naming_the_key(value, message):
    with pytest.raises(ValidationError) as info:
        tensorio.from_json(_Doc, value)
    assert str(info.value) == message


def test_from_json_paths_start_at_where():
    with pytest.raises(ValidationError, match=r"^missing keys in doc\.inner: \['n'\]$"):
        tensorio.from_json(_Doc, {"name": "a", "inner": {}}, "doc")


@pytest.mark.parametrize(
    "cls",
    [
        RunConfig,
        CohortConfig,
        RuleConfig,
        GrounderConfig,
        DistillConfig,
        RftConfig,
        PretrainConfig,
        PatientRecord,
        EvidenceItem,
        GroundingRow,
    ],
    ids=lambda cls: cls.__name__,
)
def test_schema_resolves_for_every_class_read_from_json(cls):
    direct, readers, required = tensorio._schema(cls)
    assert direct.keys() == readers.keys() == {f.name for f in fields(cls)}
    assert required <= readers.keys()


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_json_readers_reject_nan_and_infinity(tmp_path, constant):
    path = tmp_path / "doc.json"
    path.write_text(f'{{"x": {constant}}}')
    with pytest.raises(ValidationError, match=f"not JSON \\({constant} is not a JSON number\\)"):
        tensorio.read_json_object(path)
    path.write_text(f'{{"name": "a", "table": {{"k": {constant}}}}}\n')
    with pytest.raises(ValidationError, match="line 1 is not JSON"):
        list(tensorio.read_json_lines(path, _Doc))
