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


def read_json_object(path: str | Path) -> dict:
    """Parse a JSON file whose top level must be an object."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValidationError(f"{path}: not JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top level must be an object")
    return data


def read_json_lines(path: str | Path, convert: Callable) -> Iterator:
    """Yield ``convert(value)`` for the JSON value of each non-blank line of a
    JSON Lines file; a ``ValidationError`` names the file and the line."""
    with open(path, "rb") as fh:  # json.loads decodes bytes, so bad UTF-8 is a ValueError too
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise ValidationError(f"{path}: line {number} is not JSON ({exc})") from exc
            try:
                yield convert(value)
            except ValidationError as exc:
                raise ValidationError(f"{path}: line {number}: {exc}") from exc


@functools.cache
def _field_names(cls) -> tuple[frozenset, frozenset]:
    """(all, required) field names of dataclass ``cls``."""
    fields = dataclasses.fields(cls)
    required = (
        f.name
        for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    )
    return frozenset(f.name for f in fields), frozenset(required)


def dataclass_fields(cls, value) -> dict:
    """``value`` as keyword arguments of dataclass ``cls``: it must be a JSON
    object with every required field and no unknown one."""
    if not isinstance(value, dict):
        raise ValidationError(f"expected a JSON object, got {type(value).__name__}")
    names, required = _field_names(cls)
    keys = value.keys()
    if keys >= required and keys <= names:
        return value
    missing = sorted(required - keys)
    if missing:
        raise ValidationError(f"{cls.__name__} is missing fields {missing}")
    raise ValidationError(f"{cls.__name__} has unknown fields {sorted(keys - names)}")


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
