"""Frame benchmark for ddhf.pipeline.run_pipeline.

    python3 perfbench/run.py --workload frame_default --seed 1 --seconds 24 --trace 0

Prints one line per metric (name, value, unit), the failed-frame ratio and
the machine it ran on, then, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics; --trace 1 reports the per-layer ones and also writes a Chrome
trace-event file under .perfbench_out/. The full record of each run (frame
times, failures, machine) is written there too. Each metric carries the
unit BENCHMARK.json gives it. Workloads are defined in workloads.py; see
README.md for what each one is for.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import sys

import bootstrap


def metric_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return "unknown"


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": bootstrap.usable_cpus(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    bootstrap.prepare()
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(bench.WORKLOADS)}")
    units = metric_units()
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    result["machine"] = machine()
    bootstrap.OUT_DIR.mkdir(exist_ok=True)
    record = bootstrap.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1))

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}"
          f"  timed frames {len(result['frame_times_s'])}")
    for name, value in result["metrics"].items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    if "frame_s_p90" in result:
        print(f"  {'frame_s_p90':<40} {result['frame_s_p90']:>14.6g} s")
    print(f"  {'failed_frame_ratio':<40} {failed / attempted:>14.6g} ({failed}/{attempted})")
    for reason in result["failures"]:
        print(f"  FAILED {reason}")
    print("machine " + json.dumps(result["machine"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
