import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ddhf.core import GridSpec, SparseVoxelSet


def random_voxel_set(rng, grid: GridSpec, n: int, channels: int) -> SparseVoxelSet:
    """Random occupancy (unique cells) with standard-normal features."""
    total = grid.nx * grid.ny * grid.nz
    n = min(n, total)
    flat = rng.choice(total, size=n, replace=False)
    coords = np.stack(np.unravel_index(flat, grid.extents), axis=1).astype(np.int64)
    feats = rng.normal(size=(n, channels)).astype(np.float32)
    return SparseVoxelSet(coords, feats, grid)


def fill_zero_tensors(w, rng):
    """Copy of the weights `w` with every all-zero tensor (the zero-initialized
    biases and norm shifts) filled with nonzero values. An identity
    configuration built from it must zero every tensor it relies on: one left
    off its zeroing list no longer reads zero by accident."""
    if dataclasses.is_dataclass(w):
        return dataclasses.replace(
            w, **{f.name: fill_zero_tensors(getattr(w, f.name), rng) for f in dataclasses.fields(w)}
        )
    if isinstance(w, tuple):
        return tuple(fill_zero_tensors(v, rng) for v in w)
    return rng.uniform(0.1, 0.5, size=w.shape).astype(w.dtype) if not np.any(w) else w


def sparse_lattice(rng, extents, keep: float = 0.9) -> np.ndarray:
    """Cell centers at the default image grid's 2.25 x 2.25 x 0.5 spacing, in
    grid (x-major) order, with about 1 - keep of the cells left out: the
    dense distance ties that semantic voxel selection hands to fps."""
    cells = np.stack(
        np.meshgrid(*(np.arange(e) for e in extents), indexing="ij"), axis=-1
    ).reshape(-1, 3)
    return ((cells + 0.5) * (2.25, 2.25, 0.5))[rng.random(cells.shape[0]) < keep]


TESTS = Path(__file__).resolve().parent
PINS_PATH = TESTS / "pins.json"
# every pinned digest, by table and entry; scripts/repin.py rewrites the file
PINS = json.loads(PINS_PATH.read_text(encoding="utf-8"))


def sha256_hashes(outputs: dict) -> dict:
    """SHA-256 of each output array's bytes, in C order."""
    return {
        name: hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()
        for name, out in outputs.items()
    }


def recorded(module, name: str, fn, *args) -> tuple:
    """fn(*args) and a copy of every result `module.name` returns meanwhile,
    in call order, captured by wrapping the module global its callers read."""
    seen = []
    orig = getattr(module, name)

    def record(*a):
        out = orig(*a)
        seen.append(out.copy())
        return out

    setattr(module, name, record)
    try:
        return fn(*args), seen
    finally:
        setattr(module, name, orig)


def pins_at_blas_threads(threads: int) -> dict:
    """Every table of scripts/repin.py's TABLES, recomputed in a fresh
    interpreter with OPENBLAS_NUM_THREADS=threads (read only at numpy
    import, so an in-process switch would not reach it)."""
    path = [str(TESTS.parent / "scripts"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(path))
    code = "import json, repin\nprint(json.dumps(repin.recompute_pins()))\n"
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.fixture
def rng():
    return np.random.default_rng(20240816)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = str(getattr(rep, "nodeid", ""))
            if "test_acceptance.py" in nodeid and getattr(rep, "when", "call") == "call":
                rows.append((nodeid.split("::")[-1], status == "passed"))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, ok in sorted(rows):
            terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {name}")


def traced_peak(fn, *args) -> int:
    """Highest tracemalloc peak, in bytes, while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
