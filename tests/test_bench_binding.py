"""The benchmark under perfbench/ still binds to the package: every entry
point its tracer wraps exists, and its gradcheck workload builds and runs one
probe. A change in src/ that would break the benchmark fails here first."""

import importlib
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_tracer_targets_exist(perfbench):
    tracer, _ = perfbench
    for owner, attr, _ in tracer.TARGETS:
        assert attr in vars(owner), (owner, attr)


def test_gradcheck_workload_runs_one_probe(perfbench, tmp_path):
    _, workloads = perfbench
    work = workloads.GradcheckWorkload(3)
    work.setup(tmp_path)
    work._losses = []
    loss = work._probe()
    assert math.isfinite(float(loss.data)) and work._losses == [float(loss.data)]
