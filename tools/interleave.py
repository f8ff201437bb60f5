"""Side-by-side comparison of source trees' benchmark ops in one process.

    python tools/interleave.py PARENT_DIR CHANGE_DIR --workload train --rounds 10
    python tools/interleave.py TREE1 TREE2 TREE3 ... --workload train

Each directory is a checkout of this repository. All trees' ``src/`` and
``perfbench/workloads.py`` are imported side by side in this process, each
workload is set up once per tree, and then every round runs one ``op()`` of
each tree; the order rotates by one tree from round to round (with two
trees, which goes first alternates). Separate benchmark processes on a small
shared machine can drift apart by more than a code change is worth; ops
interleaved in one process see the same machine state, so their per-round
ratio shows the change. Given the trees of a bundle of changes applied one
after another, the ratios give each change's own share.

With ``--measure setup`` each round times a fresh ``setup`` of each tree
instead of an op (the benchmark's ``setup_s``).

Printed: per tree, the throughput (units per second of op time), the mean
and p90 latency the workload recorded, loss, accuracy and failed share; then,
for each tree after the first, the median per-round ratio over the tree
before it (above 1 means it is faster) and the number of rounds it won. Two
trees are labelled ``parent`` and ``change``, more ``tree1``, ``tree2``, ...
in argument order. Nothing is written under any tree: set-up files go to a
temporary directory.
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
    parser.add_argument("trees", nargs="+", metavar="TREE",
                        help="checkouts to compare, the parent first")
    parser.add_argument("--workload", default="train",
                        choices=["train", "eval", "gradcheck"])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--measure", choices=["op", "setup"], default="op")
    args = parser.parse_args(argv)
    if len(args.trees) < 2:
        parser.error("give at least two trees")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    labels = (["parent", "change"] if len(args.trees) == 2 else
              [f"tree{i}" for i in range(1, len(args.trees) + 1)])
    trees = [Tree(label, root) for label, root in zip(labels, args.trees)]
    rates = {tree.label: [] for tree in trees}
    totals = {tree.label: [0, 0.0] for tree in trees}
    with tempfile.TemporaryDirectory(prefix="interleave-") as tmp:
        workloads = {}
        for tree in trees:
            tree.activate()
            workloads[tree.label] = tree.workloads.WORKLOADS[args.workload](args.seed)
            workloads[tree.label].setup(Path(tmp) / tree.label / "setup")
        for r in range(args.rounds):
            first = r % len(trees)
            for tree in trees[first:] + trees[:first]:
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
    for before, after in zip(labels, labels[1:]):
        # a failed op counts no units: its round's ratio is 0 or inf
        ratios = [a / b if b else float("inf")
                  for b, a in zip(rates[before], rates[after])]
        won = sum(ratio > 1.0 for ratio in ratios)
        print(f"ratio {after}/{before}: median {statistics.median(ratios):.3f} "
              f"(min {min(ratios):.3f}, max {max(ratios):.3f}); "
              f"{after} faster in {won}/{len(ratios)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
