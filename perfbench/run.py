"""Run one sgear benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 3 --seconds 25 --trace 0

Run from the repository root; the benchmark imports sgear from ``src/``.
With ``--trace 0`` the run sets up several times (the median is
``setup_s``), then runs the workload closed-loop for ``--seconds`` and
reports the end-to-end metrics. With ``--trace 1`` it sets up once under
the tracer, runs one op that counts calls and autodiff nodes, then
alternates untraced and traced ops for ``--seconds``, and reports the
per-layer metrics. ``--workload all`` runs every workload in turn.

The last line of standard output is the result as one JSON object. A run
record (machine, settings, metrics) goes to ``perfbench/out/`` and, for a
traced run, the spans of the traced ops too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads: the arrays are 16 wide, and on a
# 2-core machine a second thread made per-clip latency noisier, not lower.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_mean": "ms",
    "latency_ms_p90": "ms",
    "loss": "nat",
    "accuracy": "share",
}
WORKLOADS = ("train", "eval", "gradcheck")


def run_ops(workload, seconds):
    """Closed loop: at least one op, then ops until `seconds` have passed."""
    durations = []
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        op_start = time.perf_counter()
        workload.op()
        durations.append(time.perf_counter() - op_start)
    return durations


def end_to_end_run(workload, seconds, work_dir):
    setups = []
    for i in range(workload.setup_repeats):
        shutil.rmtree(work_dir / f"setup{i - 1}", ignore_errors=True)
        start = time.perf_counter()
        workload.setup(work_dir / f"setup{i}")
        setups.append(time.perf_counter() - start)
    durations = run_ops(workload, seconds)
    metrics = workload.end_to_end()
    metrics["setup_s"] = statistics.median(setups)
    return metrics, {"setup_s": setups, "op_s": durations,
                     "latency_ms": workload.latency_ms}


def traced_run(workload, seconds, work_dir, spans_path):
    import layers
    from tracer import Tracer

    with Tracer() as setup_trace:
        workload.setup(work_dir / "setup0")
    with Tracer(count_nodes=True) as counting:
        workload.op()
    # Untraced and traced ops alternate, so both see the same machine state
    # and their ratio gives the tracing overhead.
    timed, untraced, traced = Tracer(), [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced += run_ops(workload, 0)
        with timed:
            traced += run_ops(workload, 0)
    timed.write(spans_path)
    metrics = layers.layer_metrics(setup_trace, counting, timed, traced)
    metrics["tracing_overhead_share"] = (statistics.median(traced)
                                         / statistics.median(untraced) - 1.0)
    metrics.update(workload.layer_extras())
    return metrics, {"untraced_op_s": untraced, "traced_op_s": traced}


def machine_record(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np) or os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def blas_threads(np):
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    import ctypes
    import glob

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def run_workload(name, args, out_dir, machine):
    import layers
    import workloads

    workload = workloads.WORKLOADS[name](args.seed)
    work_dir = BENCH_DIR / "work" / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, samples = traced_run(
                workload, args.seconds, work_dir,
                out_dir / f"spans-{name}-seed{args.seed}.jsonl")
            units = layers.UNITS
        else:
            metrics, samples = end_to_end_run(workload, args.seconds, work_dir)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine,
              "samples": samples, **result}
    suffix = f"{name}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / suffix).write_text(json.dumps(record) + "\n")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "sgear" / "__init__.py").is_file():
        print(f"perfbench: no sgear sources at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import sgear
    if Path(sgear.__file__).resolve().parent != SRC_DIR / "sgear":
        print(f"perfbench: imported sgear from {sgear.__file__}, not {SRC_DIR}",
              file=sys.stderr)
        return 2

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    machine = machine_record(args.seed)
    print("machine " + json.dumps(machine))
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args, out_dir, machine)
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
