"""The benchmark under perfbench/ still binds to the package: every entry
point its tracer wraps exists, its gradcheck workload builds and runs one
probe, and its eval workload times one clip per `predict` call. A change in
src/ that would break the benchmark fails here first."""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from sgear import dataio, evaluate
from sgear.autodiff import Tensor
from sgear.model import SgearModel
from sgear.semantic import ProtoStore

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


def test_eval_clock_records_one_latency_per_clip(perfbench):
    """The eval workload's latency is its `_clock` around each one-clip
    `predict` of `predict_dataset`: one (K,) result and one time per clip."""
    tracer, workloads = perfbench
    k, frames, d = workloads.K, workloads.FRAMES, workloads.D
    language = ProtoStore(kind="language", tensor=Tensor(
        dataio.language_prototypes_from_cooccurrence(np.full((k, k), 1.0 / k), d)))
    model = workloads.tiny_model(k, frames, d, language)
    rng = np.random.default_rng(3)
    clips = [(rng.normal(size=(frames, workloads.TOKENS, d)), i, None)
             for i in range(3)]
    work = workloads.EvalWorkload(3)
    work._gap = True
    with tracer.patched(SgearModel, "predict", work._clock):
        preds = evaluate.predict_dataset(model, clips)
    assert [p.scores.shape for p in preds] == [(k,)] * len(clips)
    assert len(work.latency_ms) == len(clips)
    assert all(ms > 0 for ms in work.latency_ms)
