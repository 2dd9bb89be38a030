"""Self-test of the benchmark itself, at a tiny length (about half a minute).

    python3 perfbench/selftest.py

Checks that
- a run prints every metric BENCHMARK.json names, with its unit, for
  --trace 0 (end-to-end) and --trace 1 (per-layer), and passes its checks;
- a corrupted detection in one timed frame is counted as one failed frame;
- each output check rejects the damage it is meant to catch;
- in a directory holding only BENCHMARK.json and the benchmark, the command
  fails with a non-zero exit and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import bootstrap

HERE = bootstrap.ROOT / "perfbench"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(args, cwd=bootstrap.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def check_metrics_print(spec: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(["--workload", "tiny_stream", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == RESULT_KEYS, result.keys()
        assert result["correct"] and result["failed"] == 0, proc.stdout
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, (sorted(set(got) ^ set(want)), section)
        summary = proc.stdout.strip().splitlines()[:-1]
        for name in want:
            assert any(line.split()[0] == name for line in summary), f"{name} not printed"
    print("ok: every end-to-end and per-layer metric prints with its unit")


def check_corruption_counted() -> None:
    import bench
    import checks

    real = checks.detection_table
    calls = []

    def corrupting(dets):
        table = real(dets)
        calls.append(1)
        if len(calls) == 2:  # the warm-up is call 1, the first timed frame call 2
            table[0, checks.SCORE_COL] = 1.5
        return table

    checks.detection_table = corrupting
    try:
        result = bench.run("tiny_stream", 3, 0.5, trace=False)
    finally:
        checks.detection_table = real
    assert result["failed"] == 1, result["failures"]
    assert result["failures"][0].startswith("frame0:"), result["failures"]
    print("ok: a corrupted detection counts as one failed frame")


def check_checks_reject() -> None:
    import numpy as np

    import checks
    from workloads import TINY

    ref = checks.load_reference("tiny_stream")
    assert checks.frame_problems(ref, TINY) == []
    assert checks.reference_problems(ref.copy(), ref) == []
    for col, value in ((0, np.nan), (checks.CLASS_COL, TINY.k_classes),
                       (checks.SCORE_COL, -0.1), (3, 0.0)):
        bad = ref.copy()
        bad[1, col] = value
        assert checks.frame_problems(bad, TINY), (col, value)
    nudged = ref.copy()
    nudged[2, 0] += 1e-2
    assert checks.reference_problems(nudged, ref)
    assert checks.reference_problems(ref[:-1], ref)
    truth = [{"class": 0, "center": [1000.0, 1000.0, 0.0]}]
    assert checks.ap_problems(ref, truth)
    print("ok: the output checks reject damaged detections")


def check_fails_without_program() -> None:
    bare = bootstrap.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(bootstrap.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "tiny_stream", "--seed", "1", "--seconds", "1"], cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    print("ok: without the program's sources the command fails and prints no result")


def main() -> None:
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    check_fails_without_program()
    check_metrics_print(spec)
    bootstrap.prepare()
    check_checks_reject()
    check_corruption_counted()


if __name__ == "__main__":
    main()
