"""Shared helpers: canonical JSON serialization, file hashing, seed derivation.

Every JSON artifact the pipeline writes goes through ``canonical_dumps`` so
that identical inputs produce byte-identical outputs.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any


def canonical_dumps(obj: Any) -> str:
    """Serialize to JSON with sorted keys and fixed separators (byte-stable)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(canonical_dumps(obj) + "\n", encoding="utf-8")


def read_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
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
