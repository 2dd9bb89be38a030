"""Process set-up shared by the benchmark's entry points; import it first.

It sets the BLAS thread pools to the CPUs this process may use (before
numpy loads) and puts the checkout's own `src/` first on the import path.
Without `src/ddhf` next to this directory it exits with code 2: the
benchmark never falls back to some other installed copy of the package.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def prepare() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap.prepare() must run before numpy is imported")
    if not (SRC / "ddhf" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources at {SRC / 'ddhf'}\n")
        raise SystemExit(2)
    cpus = str(usable_cpus())
    for var in THREAD_VARS:
        os.environ[var] = cpus
    sys.path.insert(0, str(SRC))
