"""The benchmark's files against the package they import.

`perfbench/tracing.py` wraps the functions its LAYERS table names, by module
and function name, and reads counts from their argument names;
`perfbench/workloads.py` builds its configs at import. A renamed layer or
argument, or a config rule its configs break, would only show in a
benchmark run; these tests show it in the suite. Each file is loaded as it
is, without writing bytecode. `bench_references` recomputes the seeded
detections `perfbench/reference.json` holds, as the `bench` pin table.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ddhf import pipeline
from ddhf.config import config_from_dict, config_to_dict
from ddhf.scene import gen_points, render_images

from conftest import PINS
from test_harness import TINY, TINY_SCENE

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks the module up in sys.modules while the file runs, and
    # the perfbench files import each other by their own names
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_every_layer_of_a_camera_frame(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    tracer = tracing.Tracer()
    points, images = gen_points(TINY_SCENE), render_images(TINY_SCENE)
    with tracer.installed():
        tracer.next_frame()
        # through the module attribute, which is what the tracer replaces
        dets, _ = pipeline.run_pipeline(points, images, list(TINY_SCENE.cameras), TINY)
    assert dets
    recorded = {s.name for s in tracer.spans}
    assert recorded == set(tracing.LAYERS), sorted(set(tracing.LAYERS) ^ recorded)
    for name, counter in tracing.LAYERS.items():
        if counter is not None:
            assert all(s.counts for s in tracer.spans if s.name == name), name
    # decode returns one box per query, easy and hard together
    (pqg_span,) = [s for s in tracer.spans if s.name == "pqg.pqg_forward"]
    assert pqg_span.counts["easy"] + pqg_span.counts["hard"] == len(dets)
    assert pipeline.run_pipeline.__name__ == "run_pipeline"  # the original is back


def test_workload_configs_construct(monkeypatch):
    workloads = _load(monkeypatch, "workloads")
    assert workloads.TINY == TINY
    assert workloads.WORKLOADS
    for workload in workloads.WORKLOADS.values():
        assert config_from_dict(config_to_dict(workload.cfg)) == workload.cfg


def bench_references() -> dict:
    """Each perfbench workload's seeded detection table on its reference
    scene, as float lists, computed by the benchmark's own
    `cold_setup.reference_detections` (its process set-up is not run)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in ("bootstrap", "checks"):  # cold_setup imports them by name
            _load(monkeypatch, name)
        workloads, cold_setup = _load(monkeypatch, "workloads"), _load(monkeypatch, "cold_setup")
        return {
            name: cold_setup.reference_detections(name)[0].tolist() for name in workloads.WORKLOADS
        }


def test_bench_pins_equal_the_benchmark_reference():
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    assert PINS["bench"] == reference
