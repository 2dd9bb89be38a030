"""The benchmark's outside-in tracer against the pipeline it wraps.

`perfbench/tracing.py` wraps the functions its LAYERS table names, by module
and function name, and reads counts from their argument names. A renamed
layer or argument would only show in a benchmark run; this test shows it in
the suite. The tracer file is loaded as it is, without writing bytecode.
"""

import importlib.util
import sys
from pathlib import Path

from ddhf import pipeline
from ddhf.scene import gen_points, render_images

from test_harness import TINY, TINY_SCENE

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks the module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_every_layer_of_a_camera_frame(monkeypatch):
    tracing = _load_tracing(monkeypatch)
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
    assert pipeline.run_pipeline.__name__ == "run_pipeline"  # the original is back
