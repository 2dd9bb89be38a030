"""One cold set-up, in a fresh process: the benchmark's `setup_s` sample.

Times importing `ddhf`, `build_weights` and the first frame, on the
workload's fixed reference scene, and prints as its last line
{"setup_s": ..., "detections": [[...9 floats...], ...]}. A fresh process
per sample keeps lazily built caches and import-time work inside set-up.

    python3 perfbench/cold_setup.py --workload tiny_stream
"""

from __future__ import annotations

import argparse
import json
import time

import bootstrap


def reference_detections(name: str):
    """Builds the workload's weights and runs its reference scene once.

    Returns the detection table and the seconds from `build_weights` to the
    frame's return; `ddhf` must be importable already.
    """
    from ddhf import pipeline

    from checks import detection_table
    from workloads import WORKLOADS, reference_scene

    workload = WORKLOADS[name]
    scene = reference_scene(workload)
    t = time.perf_counter()
    weights = pipeline.build_weights(workload.cfg)
    dets, _ = pipeline.run_pipeline(
        scene.points, scene.images, scene.cameras, workload.cfg, weights
    )
    return detection_table(dets), time.perf_counter() - t


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    name = parser.parse_args().workload
    bootstrap.prepare()
    import numpy  # noqa: F401  (loaded before the timed import of ddhf)

    t0 = time.perf_counter()
    from ddhf import pipeline  # noqa: F401

    import_s = time.perf_counter() - t0

    table, first_frame_s = reference_detections(name)
    print(json.dumps({"setup_s": import_s + first_frame_s, "detections": table.tolist()}))


if __name__ == "__main__":
    main()
