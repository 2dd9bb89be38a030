#!/usr/bin/env python3
"""Recompute every pinned digest and rewrite tests/pins.json.

    python scripts/repin.py

Each table is recomputed through the function its tests compare against,
so a tree whose pins hold gets the file back byte for byte and nothing is
printed. Otherwise each `table.entry` that moved is printed. Run it only
for a deliberate numerics change, and say in CHANGES.md why each printed
entry moved.

TABLES is the one registry of pinned tables: tests/test_harness.py's
test_every_pin_holds_at_blas_threads recomputes all of them at 1, 2 and 4
OpenBLAS threads, so a table added here is thread-checked with no other
edit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_harness
import test_layer_hashes
import test_ssm
import test_stage_hashes
import test_tracing
from conftest import PINS, PINS_PATH

TABLES = {  # pins.json table -> the function that recomputes it
    "golden": test_harness.golden_digests,
    "weights": test_harness.weight_digests,
    "layer": test_layer_hashes.layer_hashes,
    "stage": test_stage_hashes.stage_hashes,
    "scan": test_ssm.scan_hashes,
    "bench": test_tracing.bench_references,
}


def recompute_pins() -> dict:
    return {table: recompute() for table, recompute in TABLES.items()}


def main() -> None:
    pins = recompute_pins()
    for table in sorted(pins.keys() | PINS.keys()):
        old, new = PINS.get(table, {}), pins.get(table, {})
        for entry in sorted(old.keys() | new.keys()):
            if old.get(entry) != new.get(entry):
                print(f"{table}.{entry}")
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
