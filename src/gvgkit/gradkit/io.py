"""Named leaf tensors in checkpoints: each stored as its shape plus the
base64 of its row-major little-endian float64 bytes, so a tensor loads
back bit for bit and costs no float formatting or parsing."""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from gvgkit.gradkit.tensor import Tensor


def dump_leaves(leaves: Sequence[tuple[str, Tensor]]) -> dict:
    return {name: {"shape": list(t.value.shape),
                   "float64_le": base64.b64encode(t.value.astype("<f8").tobytes()).decode()}
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
            raw = base64.b64decode(spec["float64_le"], validate=True)
        except (KeyError, TypeError, ValueError):   # binascii.Error is a ValueError
            raise ValueError(f"tensor {name!r} in {source} is malformed") from None
        if shape != t.value.shape or len(raw) != 8 * t.value.size:
            raise ValueError(f"tensor {name!r} in {source} has shape {list(shape)} "
                             f"and {len(raw)} bytes, expected {list(t.value.shape)} "
                             f"and {8 * t.value.size}")
        data = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
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
