"""Numeric arrays in JSON files as base64 of their row-major
little-endian bytes, with the dtype in the key name (``float64_le``,
``int32_le``), so an array loads back bit for bit and costs no number
formatting or parsing. Checkpoints store each named leaf tensor this
way, next to its shape; prediction files store rankings, scores and box
tables this way too. A checkpoint is one JSON object; dataset splits
and prediction files are JSON lines (``write_records``)."""

from __future__ import annotations

import base64
import itertools
import json
from pathlib import Path
from typing import Callable, Iterable, Sequence

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


def read_json_object(path: str | Path, command: str | None = None) -> dict:
    """The JSON object in the file at ``path``. Text that is not JSON, or
    JSON that is not an object, raises a one-line ValueError naming the
    file and, if ``command`` is given, the ``gvgkit`` command to re-run."""
    rerun = f"; re-run `gvgkit {command}`" if command else ""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as err:
        raise ValueError(f"{path} is not valid JSON ({err}){rerun}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path} is not a JSON object{rerun}")
    return payload


def _check_header(header: dict, fmt: str, version: int, kind: str, command: str) -> None:
    """Raise a one-line ValueError unless ``header`` names format ``fmt``
    at ``version``; another version asks to re-run ``gvgkit command``."""
    if header.get("format") != fmt:
        raise ValueError(f"not a {fmt} file")
    if header.get("version") != version:
        raise ValueError(f"unsupported {kind} version {header.get('version')}; "
                         f"re-run `gvgkit {command}`")


def write_checkpoint(path: str | Path, fmt: str, version: int, seed: int | None,
                     fields: dict, leaves: Sequence[tuple[str, Tensor]]) -> None:
    """Write a ``fmt`` checkpoint at ``version``: its header (``format``,
    ``version``, ``seed``), then the model's own ``fields`` in order, then
    its leaf tensors under ``tensors``."""
    payload = {"format": fmt, "version": version, "seed": seed, **fields,
               "tensors": dump_leaves(leaves)}
    Path(path).write_text(json.dumps(payload))


def read_checkpoint(path: str | Path, fmt: str, version: int, kind: str) -> dict:
    """The JSON payload of a ``fmt`` checkpoint at ``version``; an
    unreadable file, another format or another version raises a
    one-line ValueError."""
    payload = read_json_object(path, "train")
    _check_header(payload, fmt, version, kind, "train")
    return payload


def write_records(path: str | Path, header: dict, records: Iterable[dict]) -> None:
    """Write ``header`` as the header line, then one line per record (each
    naming its kind under ``"record"``), with sorted keys and no spaces."""
    lines = [json.dumps(record, sort_keys=True, separators=(",", ":"))
             for record in itertools.chain([{"record": "header", **header}], records)]
    Path(path).write_text("\n".join(lines) + "\n")


def check_unique(first_line: dict, key: str, lineno: int, what: str) -> None:
    """Note in ``first_line``, a dict for ``what`` records, that ``key``'s
    record is on ``lineno``, unless it has one."""
    first = first_line.setdefault(key, lineno)
    if first != lineno:
        raise ValueError(f"a second record for {what} {key!r} (the first is on line {first})")


def read_records(path: str | Path, fmt: str, version: int, kind: str, command: str,
                 parsers: dict[str, Callable[[dict, int], None]]) -> dict:
    """The header, less its ``"record"`` key, of a ``write_records`` file
    of ``fmt`` at ``version``. Every other non-blank line goes, with its
    number, to the parser of its record kind (the header too, if there
    is a ``"header"`` parser). A line that is not a JSON object, a second
    header, a kind with no parser, and a parser's ``KeyError``,
    ``TypeError`` or ``ValueError`` raise ``<path>, line N: ...``; a file
    with no header line raises ``<path>: empty, ...``."""
    header = None
    body_parsers = {name: parse for name, parse in parsers.items() if name != "header"}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("not a JSON object")
                if header is None:
                    _check_header(record, fmt, version, kind, command)
                    header, parse = record, parsers.get("header")
                else:
                    parse = body_parsers.get(record.get("record"))
                    if parse is None:
                        raise ValueError(f"unexpected record kind {record.get('record')!r}")
                if parse is not None:
                    parse(record, lineno)
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}, line {lineno}: not JSON ({err.msg})") from None
            except KeyError as err:
                raise ValueError(f"{path}, line {lineno}: missing key {err}") from None
            except (TypeError, ValueError) as err:
                raise ValueError(f"{path}, line {lineno}: {err}") from None
    if header is None:
        raise ValueError(f"{path}: empty, no header line; re-run `gvgkit {command}`")
    return {key: value for key, value in header.items() if key != "record"}
