"""Outside-in span tracing of the pipeline's layers.

`Tracer.installed()` replaces each public function listed in LAYERS with a
recording wrapper, at every `ddhf` module attribute that holds it, which are
the names the callers look up at run time; on exit the originals come back.
Nothing inside the package changes. Each call records a span (name, start,
end, parent, frame id) plus counts read from its arguments and result. A
span's self time is its duration minus the time its child spans cover.

With `memory` set, the stages in PEAK_STAGES also record their tracemalloc
peak above the allocation level at entry; tracemalloc slows every
allocation, so those frames are kept apart from the timed ones.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

MB = 1e6
F64_BYTES = 8


def _scan_counts(a, out):
    steps, c_width = a["x"].shape
    d_state = a["a"].shape[1]
    # discretized Abar and Bbar*x: two float64 (steps, C, d_state) arrays
    return {"steps": steps, "state_mb": 2 * steps * c_width * d_state * F64_BYTES / MB}


# qualified name -> counts taken from (bound arguments, result), or None
LAYERS = {
    "pipeline.run_pipeline": None,
    "core.voxelize": lambda a, out: {"points": len(a["points"]), "voxels": out.n},
    "viewtrans.encode_images": None,
    "viewtrans.safs_select": None,
    "viewtrans.fps": lambda a, out: {"candidates": len(a["points"]), "picked": len(out)},
    "viewtrans.lss_splat": None,
    "curve.hilbert_sort": None,
    "curve.hilbert_index": None,
    "ssm.bidirectional_block": None,
    "ssm.selective_scan_chunked": _scan_counts,
    "ssm.selective_scan": _scan_counts,
    "hvf.hvf_forward": None,
    "hvf.iv_mamba": None,
    "hvf.cv_mamba": lambda a, out: {"len": a["v_lidar"].n + a["v_image"].n},
    "hvf.sparse_down": None,
    "hvf.sparse_up": None,
    "hbf.hbf_forward": None,
    "hbf.sparse_height_compress": None,
    "hbf.ib_mamba": None,
    "hbf.cb_mamba": None,
    "hbf.bev_backbone": None,
    "pqg.pqg_forward": lambda a, out: {"easy": len(out[0]), "hard": len(out[1]),
                                       "k_hard": a["k_hard"]},
    "pqg.hia": None,
    "decoder.decode": None,
    "decoder.deformable_layer": None,
    "decoder.mmvfm_layer": None,
    "decoder.voxel_pool": lambda a, out: {"points": out.shape[0]},
    "decoder.detection_head": None,
}
PEAK_STAGES = ("viewtrans.safs_select", "hvf.hvf_forward", "hbf.hbf_forward", "decoder.decode")
CV_SCALES = 3


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    frame: int
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.frame = -1
        self.memory = False
        self._stack: list[Span] = []
        self._origin = time.perf_counter()

    def next_frame(self) -> None:
        """Spans recorded from now on belong to the next frame id."""
        self.frame += 1

    def _wrap(self, fn, name: str, counter):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, parent and parent.id, self.frame, 0.0)
            self.spans.append(span)
            self._stack.append(span)
            measure_peak = self.memory and name in PEAK_STAGES
            if measure_peak:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if measure_peak:
                span.counts["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / MB
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts.update(counter(bound.arguments, out))
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every LAYERS function wherever a ddhf module binds it."""
        patched = []
        try:
            for qual, counter in LAYERS.items():
                mod_name, fn_name = qual.split(".")
                orig = getattr(importlib.import_module(f"ddhf.{mod_name}"), fn_name)
                wrapper = self._wrap(orig, qual, counter)
                for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "ddhf"]:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(patched):
                setattr(mod, attr, orig)

    def write_chrome_trace(self, path: Path) -> None:
        """Chrome trace-event JSON (complete events), opens in Perfetto."""
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - self._origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": s.id, "parent": s.parent, "frame": s.frame,
                         "self_us": s.self_s * 1e6, **s.counts},
            }
            for s in self.spans
        ]
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def _per_frame(spans: list[Span], frames: list[int]):
    """frame -> name -> list of that frame's spans of that name."""
    table = {f: defaultdict(list) for f in frames}
    for s in spans:
        if s.frame in table:
            table[s.frame][s.name].append(s)
    return table


def layer_metrics(tracer: Tracer, timed_frames: list[int], memory_frame: int) -> dict:
    """Per-layer figures as medians over the timed traced frames."""
    table = _per_frame(tracer.spans, timed_frames)

    def med(fn):
        return statistics.median(fn(table[f]) for f in timed_frames)

    def total(name, key=None):
        return lambda spans: sum(s.counts[key] if key else s.self_s for s in spans[name])

    out = {}
    for qual in LAYERS:
        out[f"{qual}.self_s"] = med(total(qual))
    for qual in ("viewtrans.fps", "ssm.selective_scan", "ssm.selective_scan_chunked",
                 "decoder.voxel_pool"):
        out[f"{qual}.calls"] = med(lambda spans, q=qual: len(spans[q]))
    out["viewtrans.fps.candidates"] = med(total("viewtrans.fps", "candidates"))
    out["viewtrans.fps.picked"] = med(total("viewtrans.fps", "picked"))
    out["viewtrans.fps.keep_ratio"] = (
        out["viewtrans.fps.picked"] / out["viewtrans.fps.candidates"]
        if out["viewtrans.fps.candidates"] else 0.0
    )
    for qual in ("ssm.selective_scan", "ssm.selective_scan_chunked"):
        out[f"{qual}.steps"] = med(total(qual, "steps"))
    out["ssm.scan.state_mb_computed"] = med(
        lambda spans: max((s.counts["state_mb"] for q in ("ssm.selective_scan",
                           "ssm.selective_scan_chunked") for s in spans[q]), default=0.0)
    )
    for k in range(CV_SCALES):
        out[f"hvf.cv_mamba.len_s{k}"] = med(
            lambda spans, k=k: spans["hvf.cv_mamba"][k].counts["len"]
            if len(spans["hvf.cv_mamba"]) > k else 0
        )
    out["pqg.queries_easy"] = med(total("pqg.pqg_forward", "easy"))
    out["pqg.queries_hard"] = med(total("pqg.pqg_forward", "hard"))
    out["pqg.hard_live_ratio"] = med(
        lambda spans: sum(s.counts["hard"] / s.counts["k_hard"] for s in spans["pqg.pqg_forward"])
    )
    out["decoder.voxel_pool.points"] = med(total("decoder.voxel_pool", "points"))
    out["core.voxelize.points"] = med(total("core.voxelize", "points"))
    out["core.voxelize.voxels"] = med(total("core.voxelize", "voxels"))
    mem = _per_frame(tracer.spans, [memory_frame])[memory_frame]
    for qual in PEAK_STAGES:
        out[f"{qual}.peak_mb"] = max((s.counts["peak_mb"] for s in mem[qual]), default=0.0)
    return out
