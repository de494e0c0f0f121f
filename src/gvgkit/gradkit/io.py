"""Numeric arrays in JSON files as base64 of their row-major
little-endian bytes, with the dtype in the key name (``float64_le``,
``int32_le``), so an array loads back bit for bit and costs no number
formatting or parsing. Checkpoints store each named leaf tensor this
way, next to its shape; prediction files store rankings, scores and box
tables this way too."""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from gvgkit.gradkit.tensor import Tensor


# stored dtype name -> numpy dtype
ARRAY_DTYPES = {"float64_le": np.dtype("<f8"), "int32_le": np.dtype("<i4")}


def encode_array(values: np.ndarray, dtype: str) -> str:
    """The base64 of ``values``' row-major bytes as ``dtype``, a key of
    ``ARRAY_DTYPES``."""
    return base64.b64encode(np.ascontiguousarray(values, dtype=ARRAY_DTYPES[dtype])
                            .tobytes()).decode()


def decode_array(text, dtype: str, what: str) -> np.ndarray:
    """The flat array ``encode_array`` stored as ``text``, read-only.
    Text that is not strict base64, or bytes that are not a whole number
    of entries, raise a ValueError that names the array as ``what``."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError):   # binascii.Error is a ValueError
        raise ValueError(f"{what} is not base64") from None
    itemsize = ARRAY_DTYPES[dtype].itemsize
    if len(raw) % itemsize:
        raise ValueError(f"{what} holds {len(raw)} bytes, not a whole number of "
                         f"{itemsize}-byte entries")
    return np.frombuffer(raw, dtype=ARRAY_DTYPES[dtype])


def dump_leaves(leaves: Sequence[tuple[str, Tensor]]) -> dict:
    return {name: {"shape": list(t.value.shape),
                   "float64_le": encode_array(t.value, "float64_le")}
            for name, t in leaves}


def load_leaves(leaves: Sequence[tuple[str, Tensor]], stored, source) -> None:
    """Set every named leaf from a ``dump_leaves`` table. Each leaf must
    be stored under its name with its current shape, one float64 per
    entry and finite values; anything else raises ValueError naming the
    tensor."""
    if not isinstance(stored, dict):
        raise ValueError(f"{source} holds no tensor table")
    for name, t in leaves:
        spec = stored.get(name)
        if not isinstance(spec, dict):
            raise ValueError(f"{source} lacks tensor {name!r}")
        try:
            shape = tuple(spec["shape"])
            data = decode_array(spec["float64_le"], "float64_le", name)
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"tensor {name!r} in {source} is malformed") from None
        if shape != t.value.shape or data.size != t.value.size:
            raise ValueError(f"tensor {name!r} in {source} has shape {list(shape)} "
                             f"and {data.nbytes} bytes, expected {list(t.value.shape)} "
                             f"and {8 * t.value.size}")
        data = data.astype(np.float64).reshape(shape)   # a writable copy
        if not np.all(np.isfinite(data)):
            raise ValueError(f"tensor {name!r} in {source} holds a non-finite value")
        t.value = data


def read_checkpoint(path: str | Path, fmt: str, version: int, kind: str) -> dict:
    """The JSON payload of a ``fmt`` checkpoint at ``version``; an
    unreadable file, another format or another version raises a
    one-line ValueError."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as err:
        raise ValueError(f"{path} is not valid JSON ({err}); re-run `gvgkit train`") from None
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise ValueError(f"{path} is not a {fmt} file")
    if payload.get("version") != version:
        raise ValueError(f"unsupported {kind} version {payload.get('version')}; "
                         "re-run `gvgkit train`")
    return payload
