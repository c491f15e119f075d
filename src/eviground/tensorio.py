"""Binary tensor file format and checkpoint helpers.

Format: magic bytes ``EMAD``, one unsigned 8-bit rank, ``rank`` unsigned
32-bit little-endian extents, then row-major (last axis fastest) IEEE-754
little-endian 32-bit floats. Arrays are held in float64 in memory and
serialized at single precision.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import struct
import types
import typing
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

from .errors import DimMismatchError, MissingCheckpointError, ValidationError

MAGIC = b"EMAD"


def assert_finite(x: np.ndarray, name: str = "tensor") -> None:
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} contains non-finite entries")


def assert_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")


def save_tensor(path: str | Path, x: np.ndarray) -> None:
    x = np.asarray(x, dtype=np.float64)
    assert_finite(x)
    if x.ndim < 1 or x.ndim > 255:
        raise ValidationError(f"rank {x.ndim} outside [1, 255]")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", x.ndim))
        fh.write(struct.pack(f"<{x.ndim}I", *x.shape))
        fh.write(np.ascontiguousarray(x, dtype="<f4").tobytes())


def load_tensor(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValidationError(f"{path}: bad magic bytes {magic!r}")
        rank_byte = fh.read(1)
        rank = rank_byte[0] if rank_byte else 0
        extents = fh.read(4 * rank)
        if not rank_byte or len(extents) != 4 * rank:
            raise ValidationError(f"{path}: truncated header")
        dims = struct.unpack(f"<{rank}I", extents)
        if any(d <= 0 for d in dims):
            raise ValidationError(f"{path}: non-positive extent in {dims}")
        n = int(np.prod(dims))
        raw = fh.read(4 * n)
        if len(raw) != 4 * n:
            raise ValidationError(f"{path}: truncated payload")
        if fh.read(1):
            raise ValidationError(f"{path}: trailing bytes after payload")
    data = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    x = data.reshape(dims)
    assert_finite(x, str(path))
    return x


def save_params(directory: str | Path, params: dict[str, np.ndarray], meta: dict) -> None:
    """Write one .emad file per named parameter plus a JSON manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = sorted(params)
    for name in names:
        save_tensor(directory / f"{name}.emad", params[name])
    manifest = dict(meta)
    manifest["params"] = names
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def read_text(path: str | Path) -> str:
    """Text of a UTF-8 file; other bytes are a ``ValidationError`` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


# Python's json reads NaN and Infinity as floats, which pass every range check
# (NaN compares false); JSON has neither
_JSON = json.JSONDecoder(parse_constant=_reject_constant)


def read_json_object(path: str | Path) -> dict:
    """Parse a JSON file whose top level must be an object."""
    try:
        with open(path) as fh:
            data = _JSON.decode(fh.read())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValidationError(f"{path}: not JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top level must be an object")
    return data


def write_json_lines(path: str | Path, values) -> None:
    """One JSON value per line, keys sorted."""
    with open(path, "w") as fh:
        for value in values:
            fh.write(json.dumps(value, sort_keys=True) + "\n")


def read_json_lines(path: str | Path, cls) -> Iterator:
    """Yield the JSON value of each non-blank line of a JSON Lines file as
    dataclass ``cls`` (``from_json``); a ``ValidationError`` names the file
    and the line."""
    with open(path, "rb") as fh:  # decoding each line makes bad UTF-8 a ValueError too
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                value = _JSON.decode(line.decode())
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise ValidationError(f"{path}: line {number} is not JSON ({exc})") from exc
            try:
                yield from_json(cls, value)
            except ValidationError as exc:
                raise ValidationError(f"{path}: line {number}: {exc}") from exc


# JSON types that each plain field type accepts, and its name in messages: a
# bool is never a number and a number never a bool; an int in a float field stays an int
_PLAIN = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    dict: ((dict,), "a JSON object"),
}


def _in(where: str) -> str:
    return f" in {where}" if where else ""


def _wrong(expected: str, value, where: str):
    shown = {dict: "an object", list: "an array"}.get(type(value)) or json.dumps(value, default=repr)
    raise ValidationError(f"wrong type{_in(where)}: expected {expected}, got {shown}")


@functools.cache
def _schema(cls) -> tuple[dict, dict, frozenset]:
    """Direct types and reader (as ``_reader`` gives them) of each init field
    of dataclass ``cls``, and the required names. A field's
    ``metadata["from_json"]``, if set, reads every value of it instead."""
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    direct, readers = {}, {}
    for f in fields:
        hook = f.metadata.get("from_json")
        direct[f.name], readers[f.name] = ((), hook) if hook else _reader(hints[f.name])
    missing = dataclasses.MISSING
    required = frozenset(f.name for f in fields if f.default is missing and f.default_factory is missing)
    return direct, readers, required


@functools.cache
def _reader(hint) -> tuple[tuple, Callable]:
    """``(direct, read)`` for type ``hint``: a parsed JSON value whose type is
    in ``direct`` is already a ``hint``; ``read(value, where)`` checks any
    other value and builds it as a ``hint``, or names its path ``where``
    in a ``ValidationError``. Callers test ``direct`` first, so the many
    plain values cost no call."""
    if hint in _PLAIN:
        accepted, expected = _PLAIN[hint]
        return accepted, functools.partial(_wrong, expected)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType and args[1:] == (type(None),) and args[0] in _PLAIN:
        accepted, expected = _PLAIN[args[0]]
        return (*accepted, type(None)), functools.partial(_wrong, f"{expected} or null")
    if dataclasses.is_dataclass(hint):
        direct, readers, required = _schema(hint)
        names = readers.keys()

        def read(value, where):
            if type(value) is not dict:
                _wrong("a JSON object", value, where)
            keys = value.keys()
            if not keys <= names:
                raise ValidationError(f"unknown keys{_in(where)}: {sorted(keys - names)}")
            if not keys >= required:
                raise ValidationError(f"missing keys{_in(where)}: {sorted(required - keys)}")
            return hint(**{
                k: v if type(v) in direct[k] else readers[k](v, f"{where}.{k}" if where else k)
                for k, v in value.items()
            })

    elif origin is dict and args[0] is str:
        direct, item = _reader(args[1])

        def read(value, where):
            if type(value) is not dict:
                _wrong("a JSON object", value, where)
            return {k: v if type(v) in direct else item(v, f"{where}.{k}") for k, v in value.items()}

    elif origin is list or (origin is tuple and args[1:] == (...,)):
        direct, item = _reader(args[0])

        def read(value, where):
            if type(value) is not list:
                _wrong("a JSON array", value, where)
            return origin(
                [v if type(v) in direct else item(v, f"{where}[{i}]") for i, v in enumerate(value)]
            )

    else:
        raise TypeError(f"no JSON reader for type {hint!r}")
    return (), read


def from_json(cls, value, where: str = ""):
    """Parsed JSON ``value`` as an instance of dataclass ``cls``, built from
    its field types: nested dataclasses, ``X | None``, ``list[X]``,
    ``tuple[X, ...]``, ``dict[str, X]`` and the plain JSON types. Absent
    fields keep their defaults. A value that is not an object, an unknown or
    missing key, or a value of the wrong type is a one-line
    ``ValidationError`` naming its path, which starts at ``where``."""
    return _reader(cls)[1](value, where)


def load_params(directory: str | Path, meta_keys) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; besides ``kind`` and ``params`` its manifest may
    hold only integers, under ``meta_keys``."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise MissingCheckpointError(f"no manifest at {manifest_path}")
    meta = read_json_object(manifest_path)
    names = meta.pop("params", None)
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValidationError(f"{manifest_path}: no list of parameter names under 'params'")
    meta.pop("kind", None)
    unknown = sorted(meta.keys() - set(meta_keys))
    if unknown:
        raise ValidationError(f"{manifest_path}: unknown keys {unknown}")
    not_int = sorted(k for k, v in meta.items() if type(v) is not int)
    if not_int:
        raise ValidationError(f"{manifest_path}: keys {not_int} are not integers")
    params = {name: load_tensor(directory / f"{name}.emad") for name in names}
    return params, meta


def copy_params(params: dict[str, np.ndarray], dest: dict[str, np.ndarray], directory) -> None:
    """Copy loaded tensors into a model's views; names and shapes must match."""
    missing = sorted(dest.keys() - params.keys())
    if missing:
        raise ValidationError(f"{directory}: checkpoint lacks tensors {missing}")
    unknown = sorted(params.keys() - dest.keys())
    if unknown:
        raise ValidationError(f"{directory}: checkpoint has unknown tensors {unknown}")
    for name, view in dest.items():
        if (got := params[name].shape) != view.shape:
            raise DimMismatchError(f"{directory}: {name} has shape {got}, needs {view.shape}")
        view[...] = params[name]


def flat_layout(shapes) -> list[tuple[str, int, int, tuple[int, ...]]]:
    """Name, ``[start, stop)`` span and shape of each tensor, packed in order."""
    slots, stop = [], 0
    for name, shape in shapes:
        start, stop = stop, stop + math.prod(shape)
        slots.append((name, start, stop, shape))
    return slots


def views(vec: np.ndarray, slots) -> dict[str, np.ndarray]:
    """Named, reshaped views into a vector laid out by ``flat_layout``."""
    return {name: vec[start:stop].reshape(shape) for name, start, stop, shape in slots}


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
