"""A/B comparison of two source trees' benchmark ops in one process.

    python tools/interleave.py PARENT_DIR CHANGE_DIR --workload train --rounds 10

Each directory is a checkout of this repository. Both trees' ``src/`` and
``perfbench/workloads.py`` are imported side by side in this process, each
workload is set up once per tree, and then every round runs one ``op()`` of
each tree; which tree goes first alternates from round to round. Separate
benchmark processes on a small shared machine can drift apart by more than
a code change is worth; ops interleaved in one process see the same machine
state, so their per-round ratio shows the change.

With ``--measure setup`` each round times a fresh ``setup`` of each tree
instead of an op (the benchmark's ``setup_s``).

Printed: per tree, the throughput (units per second of op time), the mean
and p90 latency the workload recorded, loss, accuracy and failed share; then
the median per-round ratio (change over parent, above 1 means the change is
faster) and the number of rounds the change won. Nothing is written under
either tree: set-up files go to a temporary directory.
"""

from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

# one BLAS thread, as perfbench/run.py sets before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS setting)

TREE_MODULES = ("sgear", "tracer", "layers", "workloads")


def _owned(name):
    return name.split(".")[0] in TREE_MODULES


class Tree:
    """One checkout's modules, imported under their usual names and kept
    apart from the other tree's by swapping them into ``sys.modules``."""

    def __init__(self, label, root):
        self.label = label
        root = Path(root).resolve()
        if not (root / "perfbench" / "workloads.py").is_file():
            raise SystemExit(f"{root}: no perfbench/workloads.py")
        others = {n: sys.modules.pop(n) for n in list(sys.modules) if _owned(n)}
        sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
        try:
            self.workloads = importlib.import_module("workloads")
            self.modules = {n: m for n, m in sys.modules.items() if _owned(n)}
        finally:
            del sys.path[:2]
            for name in self.modules:
                sys.modules.pop(name, None)
            sys.modules.update(others)

    def activate(self):
        for name in [n for n in sys.modules if _owned(n)]:
            del sys.modules[name]
        sys.modules.update(self.modules)


def time_op(tree, workload):
    """One op: (units, seconds) as the workload counted them."""
    tree.activate()
    units, seconds = workload.units, workload.seconds
    workload.op()
    return workload.units - units, workload.seconds - seconds


def time_setup(tree, workload, work_dir):
    tree.activate()
    start = time.perf_counter()
    workload.setup(work_dir)
    return 1, time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", default="train",
                        choices=["train", "eval", "gradcheck"])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--measure", choices=["op", "setup"], default="op")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    trees = [Tree("parent", args.parent), Tree("change", args.change)]
    rates = {tree.label: [] for tree in trees}
    totals = {tree.label: [0, 0.0] for tree in trees}
    with tempfile.TemporaryDirectory(prefix="interleave-") as tmp:
        workloads = {}
        for tree in trees:
            tree.activate()
            workloads[tree.label] = tree.workloads.WORKLOADS[args.workload](args.seed)
            workloads[tree.label].setup(Path(tmp) / tree.label / "setup")
        for r in range(args.rounds):
            for tree in (trees if r % 2 == 0 else trees[::-1]):
                workload = workloads[tree.label]
                if args.measure == "op":
                    units, seconds = time_op(tree, workload)
                else:
                    units, seconds = time_setup(tree, workload,
                                                Path(tmp) / tree.label / f"r{r}")
                rates[tree.label].append(units / seconds if seconds else 0.0)
                totals[tree.label][0] += units
                totals[tree.label][1] += seconds
        for tree in trees:
            tree.activate()
            workload = workloads[tree.label]
            units, seconds = totals[tree.label]
            line = f"{tree.label}: {units / seconds:.2f} {args.measure}-units/s"
            if args.measure == "op":
                loss, accuracy = workload.loss_and_accuracy()
                latency = workload.latency_ms
                line += (f", latency mean {np.mean(latency):.3f} ms, "
                         f"p90 {np.percentile(latency, 90):.3f} ms, "
                         f"loss {float(loss)!r}, accuracy {float(accuracy)!r}")
            line += f", failed {workload.failed}/{workload.attempted}"
            print(line)
    # a failed op counts no units: its round's ratio is 0 or inf
    ratios = [c / p if p else float("inf")
              for p, c in zip(rates["parent"], rates["change"])]
    won = sum(ratio > 1.0 for ratio in ratios)
    print(f"ratio change/parent: median {statistics.median(ratios):.3f} "
          f"(min {min(ratios):.3f}, max {max(ratios):.3f}); "
          f"change faster in {won}/{len(ratios)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
