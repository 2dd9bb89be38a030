"""The frame benchmark: one closed-loop caller running `run_pipeline`.

A run, for one workload and seed:

1. set-up (untraced runs only): fresh processes, each timing a cold set-up
   (`cold_setup.py`), until SETUP_SHARE of the run's seconds is spent, at
   least SETUP_MIN and at most SETUP_MAX of them; `setup_s` is their median;
2. warm-up: this process builds the weights and runs the reference scene;
3. timed frames: scenes 0, 1, 2, ... of the seed's stream, each run once,
   the next frame starting when the previous returns, while the next frame
   is expected to end within the run's seconds;
4. traced runs only: the same scenes again with every layer wrapped
   (`tracing.py`), then one scene under tracemalloc for stage peaks;
5. passthrough check frames on the first timed scenes.

Every frame's output is checked (`checks.py`); a failed check or a raised
error counts the frame as failed. `StageLog`, which `run_pipeline` also
returns, is not used: its timings are coarse and its memory figure is a sum
of output sizes, not a measurement.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ddhf import pipeline

import checks
import tracing
from bootstrap import OUT_DIR, ROOT
from workloads import WORKLOADS, Workload, make_scene, passthrough_cfg, reference_scene

SETUP_SHARE = 0.5
SETUP_MIN, SETUP_MAX = 3, 11
SETUP_TIMEOUT_S = 150
TAIL_MIN_BEYOND = 10  # samples a reported tail percentile needs beyond it
COLD_SETUP = Path(__file__).resolve().parent / "cold_setup.py"


@dataclass
class Ledger:
    """Frames attempted and the reasons each failed frame failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")


def _checked_frame(ledger, label, scene, cfg, weights, extra_checks=()):
    """Run and check one frame; returns (table, seconds), or None if it raised."""
    try:
        t = time.perf_counter()
        dets, _ = pipeline.run_pipeline(scene.points, scene.images, scene.cameras, cfg, weights)
        seconds = time.perf_counter() - t
        table = checks.detection_table(dets)
    except Exception:  # a frame that raises is a failed frame, not a crash
        ledger.record(label, ["raised " + traceback.format_exc(limit=3).replace("\n", " | ")])
        return None
    problems = checks.frame_problems(table, cfg)
    for check in extra_checks:
        problems += check(table)
    ledger.record(label, problems)
    return table, seconds


def _cold_setups(workload: Workload, ledger: Ledger, reference, seconds) -> tuple[list, list]:
    samples, tables = [], []
    start = time.perf_counter()
    for i in range(SETUP_MAX):
        if i >= SETUP_MIN and time.perf_counter() - start >= SETUP_SHARE * seconds:
            break
        label = f"setup{i}"
        try:
            proc = subprocess.run(
                [sys.executable, str(COLD_SETUP), "--workload", workload.name],
                cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            ledger.record(label, [f"no result within {SETUP_TIMEOUT_S} s"])
            continue
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            ledger.record(label, [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"])
            continue
        table = np.asarray(out["detections"], dtype=np.float64).reshape(-1, 9)
        ledger.record(label, checks.frame_problems(table, workload.cfg)
                      + checks.reference_problems(table, reference))
        samples.append(out["setup_s"])
        tables.append(table)
    return samples, tables


def _frame_times(workload, seed, weights, ledger, label, seconds=None, n_scenes=None,
                 before_frame=None) -> tuple[list[float], int, float]:
    """Times one frame on each of scenes 0, 1, 2, ... of the seed's stream.

    Runs `n_scenes` frames, or, given `seconds` instead, new scenes while
    the next frame, if it takes as long as the last, ends within that time.
    Returns the times of the frames that did not raise, the number of scenes
    run and the loop's wall time less the time spent generating scenes,
    which is input synthesis, not the caller's work.
    """
    times = []
    start = time.perf_counter()
    making_s = last_s = 0.0
    i = 0

    def more():
        if n_scenes is not None:
            return i < n_scenes
        return i == 0 or time.perf_counter() - start - making_s + last_s <= seconds

    while more():
        t = time.perf_counter()
        scene = make_scene(workload, seed, i)
        making_s += time.perf_counter() - t
        if before_frame is not None:
            before_frame()
        t = time.perf_counter()
        done = _checked_frame(ledger, f"{label}{i}", scene, workload.cfg, weights)
        last_s = time.perf_counter() - t
        if done is not None:
            times.append(done[1])
        i += 1
    return times, i, time.perf_counter() - start - making_s


def _median(values: list) -> float:
    # 0.0 only when every sample failed, which the failed count reports
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns metrics, frame counts and failure reasons."""
    workload = WORKLOADS[name]
    reference = checks.load_reference(name)
    ledger = Ledger()
    result: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}

    setup_samples, setup_tables = (
        ([], []) if trace else _cold_setups(workload, ledger, reference, seconds))

    def same_as_setups(table):
        differ = [i for i, t in enumerate(setup_tables) if t.tobytes() != table.tobytes()]
        return [f"not byte-identical to set-ups {differ}"] if differ else []

    weights = pipeline.build_weights(workload.cfg)
    _checked_frame(ledger, "warm-up", reference_scene(workload), workload.cfg, weights,
                   (lambda t: checks.reference_problems(t, reference), same_as_setups))

    budget = seconds / 2 if trace else seconds
    times, n_scenes, wall_s = _frame_times(workload, seed, weights, ledger, "frame",
                                           seconds=budget)

    metrics = {}
    if trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            traced, _, _ = _frame_times(workload, seed, weights, ledger, "traced",
                                        n_scenes=n_scenes, before_frame=tracer.next_frame)
            timed_frames = list(range(tracer.frame + 1))
            tracer.next_frame()
            tracer.memory = True
            tracemalloc.start()
            try:
                _checked_frame(ledger, "tracemalloc", make_scene(workload, seed, 0),
                               workload.cfg, weights)
            finally:
                tracemalloc.stop()
        metrics.update(tracing.layer_metrics(tracer, timed_frames, tracer.frame))
        untraced_p50, traced_p50 = _median(times), _median(traced)
        metrics["bench.frame_p50_untraced_s"] = untraced_p50
        metrics["bench.frame_p50_traced_s"] = traced_p50
        metrics["bench.trace_overhead_s"] = traced_p50 - untraced_p50
        result["trace_file"] = str(_write_trace(tracer, name, seed))
    else:
        metrics["frame_s_p50"] = _median(times)
        metrics["frames_per_s"] = len(times) / wall_s
        metrics["setup_s"] = _median(setup_samples)
        metrics["peak_rss_mb"] = peak_rss_mb()
        result["setup_samples_s"] = setup_samples

    pass_cfg = passthrough_cfg(workload)
    pass_weights = pipeline.build_weights(pass_cfg)
    for i in range(min(workload.check_frames, n_scenes)):
        scene = make_scene(workload, seed, i)
        _checked_frame(ledger, f"passthrough{i}", scene, pass_cfg, pass_weights,
                       (lambda t, s=scene: checks.ap_problems(t, s.truth),))

    result["frame_times_s"] = times
    if len(times) >= 10 * TAIL_MIN_BEYOND:
        result["frame_s_p90"] = statistics.quantiles(times, n=10)[-1]
    result.update(metrics=metrics, attempted=ledger.attempted, failed=len(ledger.failures),
                  failures=ledger.failures)
    return result


def _write_trace(tracer: tracing.Tracer, name: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-seed{seed}.trace.json"
    tracer.write_chrome_trace(path)
    return path
