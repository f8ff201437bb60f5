"""The benchmark under perfbench/ still binds to the package: every entry
point its tracer wraps exists, its node-counting pass reads the loss and the
head's output it expects, its gradcheck workload builds and runs one probe,
its eval workload times one clip per `predict` call and one rollout per tau
sweep chunk, and the checkpoint calls it makes keep their forms. A change in src/ that would break the benchmark
fails here first."""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from sgear import dataio, evaluate, trainer
from sgear.autodiff import Tensor
from sgear.model import SgearModel
from sgear.semantic import LossWeights, ProtoStore

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_tracer_targets_exist(perfbench):
    tracer, _ = perfbench
    for owner, attr, _ in tracer.TARGETS:
        assert attr in vars(owner), (owner, attr)


def test_tracer_counts_nodes(perfbench):
    """`perfbench --trace 1` counts the graph behind `total_loss`'s "loss" and
    behind the probabilities `step_logits` returns second, as its counting
    pass does: one 4-clip training loss and one one-clip `predict`."""
    tracer, workloads = perfbench
    k, frames, d = workloads.K, workloads.FRAMES, workloads.D
    language = ProtoStore(kind="language", tensor=Tensor(
        dataio.language_prototypes_from_cooccurrence(np.full((k, k), 1.0 / k), d)))
    model = workloads.tiny_model(k, frames, d, language)
    feats = np.random.default_rng(3).normal(size=(4, frames, workloads.TOKENS, d))
    with tracer.Tracer(count_nodes=True) as trace:
        out = model.total_loss(feats, [0, 1, 2, 3],
                               LossWeights(1.0, 1.0, 1.0, 1.0, 1.0),
                               past_labels=[None, [1] * frames, None, None])
        model.predict(feats[0])
    loss_nodes, predict_nodes = trace.node_counts
    assert loss_nodes == tracer.count_nodes(out["loss"]) > 100
    # predict builds no graph: its probabilities are one node
    assert predict_nodes == 1 and trace._last_probs.shape == (1, k)
    assert trace.clips() == 2


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


def test_eval_clock_records_one_rollout_time_per_chunk(perfbench):
    """`--trace 1` reports the median of the eval workload's `rollout_ms`:
    its `_clock` times each `predict` call of the tau sweep at the largest
    gap's step count, one per sweep chunk. A sweep that stopped calling
    `predict` with that step count would leave it empty."""
    tracer, workloads = perfbench
    k, frames, d = workloads.K, workloads.FRAMES, workloads.D
    language = ProtoStore(kind="language", tensor=Tensor(
        dataio.language_prototypes_from_cooccurrence(np.full((k, k), 1.0 / k), d)))
    model = workloads.tiny_model(k, frames, d, language)
    rng = np.random.default_rng(3)
    clips = [(rng.normal(size=(frames, workloads.TOKENS, d)), i % k, None)
             for i in range(evaluate.SWEEP_CHUNK + 1)]
    manifest = dataio.DatasetManifest(
        num_classes=k, class_names=[str(i) for i in range(k)],
        tau_o=float(frames), tau_a=1.0, fps=1.0)
    work = workloads.EvalWorkload(3)
    # as the workload's set-up computes it
    work.rollout_steps = round((workloads.TAUS[-1] - manifest.tau_a) * manifest.fps)
    with tracer.patched(SgearModel, "predict", work._clock):
        rows = evaluate.eval_variable_tau(model, manifest, clips, workloads.TAUS,
                                          metric=evaluate.topk_accuracy)
    assert rows[-1]["n_steps"] == work.rollout_steps > 0
    assert len(work.rollout_ms) == 2 and work.latency_ms == []
    assert work.layer_extras()["evaluate.rollout_ms_p50"] > 0


def test_eval_workload_checkpoint_calls(perfbench, tmp_path):
    """The eval workload trains, saves and loads in exactly these forms, and
    its repeated set-up checks that the same training writes the same
    bytes."""
    _, workloads = perfbench
    k, frames, d = workloads.K, workloads.FRAMES, workloads.D
    language = ProtoStore(kind="language", tensor=Tensor(
        dataio.language_prototypes_from_cooccurrence(np.full((k, k), 1.0 / k), d)))
    rng = np.random.default_rng(3)
    clips = [(rng.normal(size=(frames, workloads.TOKENS, d)), i % k, None)
             for i in range(4)]
    saved = []
    for repeat in range(2):
        trained = workloads.tiny_model(k, frames, d, language)
        history, optimizer = trainer.fit(trained, clips,
                                         workloads.train_config(trained))
        path = tmp_path / f"model{repeat}.sgck"
        trainer.save_checkpoint(path, trained, optimizer, step=len(history))
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]
    model, _, _ = trainer.load_checkpoint(path)
    assert np.array_equal(model.predict(clips[0][0]),
                          trained.predict(clips[0][0]))
