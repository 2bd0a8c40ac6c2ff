"""Shared helpers: canonical JSON serialization, the one JSONL writer, the
one JSON line decoder, the one finite-number check, file hashing, seed
derivation, and the median and percentile of a list of numbers.

Every JSON artifact the pipeline writes goes through ``canonical_dumps`` so
that identical inputs produce byte-identical outputs; ``write_jsonl`` writes
one such line per object. Every reader of a JSONL line, or of one whole JSON
document held in a string, decodes it with ``loads_line``: the value, and
any error with its message, are those of ``json.loads``. ``json_object``
reads a line that must hold an object.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Any, Iterable


# one encoder for every call: the writers call canonical_dumps once per row
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_dumps(obj: Any) -> str:
    """Serialize to JSON with sorted keys and fixed separators (byte-stable)."""
    return _CANONICAL.encode(obj)


# one decoder for every line, with json.loads' settings
_DECODER = json.JSONDecoder()
_JSON_WHITESPACE = " \t\n\r"


def loads_line(line: str) -> Any:
    """json.loads(line): the same value, or the same exception with the same
    message. The decoder's C scanner reads the value from the first
    character; a line it rejects, or that holds more than JSON whitespace
    after the value, goes to json.loads itself, which decodes it (leading
    whitespace) or raises (no value, a BOM, extra data)."""
    try:
        value, end = _DECODER.raw_decode(line)
    except ValueError:  # a JSONDecodeError, or an integer over the digit limit
        return json.loads(line)
    if line[end:].strip(_JSON_WHITESPACE):
        return json.loads(line)
    return value


def json_object(line: str, where: str) -> dict:
    """The JSON object on a line; anything else raises ValueError starting with where."""
    try:
        row = loads_line(line)
    except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
        raise ValueError(f"{where}: bad json: {exc}") from None
    if not isinstance(row, dict):
        raise ValueError(f"{where}: not a JSON object")
    return row


def finite_number(value: Any) -> bool:
    """Whether value is a JSON number (not a boolean) that a float holds
    finitely: NaN, the infinities and integers past the float range are not."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(canonical_dumps(obj) + "\n", encoding="utf-8")


def write_jsonl(path: str | Path, objs: Iterable[Any]) -> None:
    """One canonical_dumps line per object, in the order given."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(canonical_dumps(obj) + "\n")


def read_json(path: str | Path) -> Any:
    return loads_line(Path(path).read_text(encoding="utf-8"))


# bytes sha256_file reads at a time, into one buffer per call
_HASH_CHUNK = 1 << 16


def sha256_file(path: str | Path) -> str:
    """sha256 of a file's bytes, read into one buffer made for this call
    rather than into a new bytes object per chunk."""
    h = hashlib.sha256()
    buf = bytearray(_HASH_CHUNK)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def derive_seed(master: int, *names: object) -> int:
    """Derive a named sub-seed from a master seed.

    All randomness in the pipeline flows from one top-level seed through
    this function, keyed by stage/index names, so stages stay independent
    and reproducible.
    """
    tag = ":".join([str(master)] + [str(n) for n in names])
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def median(values: Iterable[float]) -> float:
    """The median of a non-empty list, equal to ``statistics.median``:
    the middle value, or the mean of the two middle values."""
    data = sorted(values)
    half = len(data) // 2
    return data[half] if len(data) % 2 else (data[half - 1] + data[half]) / 2


def percentile(values: Iterable[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100) of a non-empty list of finite
    numbers by numpy's default linear rule, with the same operations in the
    same order, so it equals ``float(np.percentile(values, q))``. Only when
    the values hold both 0.0 and -0.0 may a zero result have the other sign:
    numpy partitions the values where this sorts them."""
    data = sorted(values)
    v = (len(data) - 1) * (q / 100)
    if v >= len(data) - 1:  # numpy's ends are at index -1, so t = v - (-1); that turns a -0.0 maximum into 0.0
        a = b = data[-1]
        t = v + 1
    else:
        i = math.floor(v)
        a, b = data[i], data[i + 1]
        t = v - i
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
