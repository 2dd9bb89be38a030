"""Regenerate reference.json: seeded detections on each workload's reference scene.

    python3 perfbench/make_reference.py

Run it only when a change alters the pipeline's numerics on purpose, and say
why in the change's notes; the benchmark checks every run against this file.
"""

from __future__ import annotations

import json

import bootstrap


def main() -> None:
    bootstrap.prepare()
    from checks import REFERENCE_PATH
    from cold_setup import reference_detections
    from workloads import WORKLOADS

    out = {}
    for name in WORKLOADS:
        table, _ = reference_detections(name)
        out[name] = table.tolist()
        print(f"{name}: {len(table)} detections")
    REFERENCE_PATH.write_text(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
