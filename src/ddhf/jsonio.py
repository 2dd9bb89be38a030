"""Deterministic JSON writing (floats at 9 significant digits, stable layout)
and the one checker for the JSON records the pipeline reads."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .core import is_real


def dumps(obj) -> str:
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"json dump: non-finite float {x}")
        return format(x, ".9g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"json dump: unsupported type {type(obj)}")


def dump(obj, path: str | Path) -> None:
    Path(path).write_text(dumps(obj) + "\n", encoding="utf-8")


def load(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def numbers(length: int, ok):
    """Check for a JSON list (a tuple once read) of `length` values passing `ok`."""
    return lambda v: isinstance(v, tuple) and len(v) == length and all(ok(x) for x in v)


# a world range [lo, hi], as a config and a scene spec give one per axis
RANGE = (
    lambda v: numbers(2, is_real)(v) and v[0] < v[1], "a list of 2 ascending finite numbers", False
)


def check_record(data, table: dict, where: str) -> dict:
    """`data` checked against `table`, a map of key -> (check, what it must
    be, required), with list values returned as tuples.

    A non-object, an unknown or missing key, or a value failing its check
    raises ValueError naming the field as `where` + key ("objects[1]."
    names objects[1].class).
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"{where.rstrip('.: ')}: expected an object, got {type(data).__name__}"
            " (each record is one JSON object)"
        )
    for key in data:
        if key not in table:
            raise ValueError(f"{where}{key} is not a known key (known: {', '.join(table)})")
    out = {}
    for key, (ok, what, required) in table.items():
        if key not in data:
            if required:
                raise ValueError(f"{where}{key} is missing")
            continue
        val = tuple(data[key]) if isinstance(data[key], list) else data[key]
        if not ok(val):
            raise ValueError(f"{where}{key} must be {what}, got {data[key]!r}")
        out[key] = val
    return out
