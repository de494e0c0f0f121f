"""Named leaf tensors in checkpoints: each stored as its shape plus its
flat row-major data."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from gvgkit.gradkit.tensor import Tensor


def dump_leaves(leaves: Sequence[tuple[str, Tensor]]) -> dict:
    return {name: {"shape": list(t.value.shape), "data": t.value.reshape(-1).tolist()}
            for name, t in leaves}


def load_leaves(leaves: Sequence[tuple[str, Tensor]], stored, source) -> None:
    """Set every named leaf from a ``dump_leaves`` table. Each leaf must
    be stored under its name with its current shape and finite values;
    anything else raises ValueError naming the tensor."""
    if not isinstance(stored, dict):
        raise ValueError(f"{source} holds no tensor table")
    for name, t in leaves:
        spec = stored.get(name)
        if not isinstance(spec, dict):
            raise ValueError(f"{source} lacks tensor {name!r}")
        try:
            shape = tuple(spec["shape"])
            data = np.asarray(spec["data"], dtype=np.float64)
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"tensor {name!r} in {source} is malformed") from None
        if shape != t.value.shape or data.shape != (t.value.size,):
            raise ValueError(f"tensor {name!r} in {source} has shape {list(shape)} "
                             f"and {data.size} values, expected {list(t.value.shape)}")
        if not np.all(np.isfinite(data)):
            raise ValueError(f"tensor {name!r} in {source} holds a non-finite value")
        t.value = data.reshape(shape)
