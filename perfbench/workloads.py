"""The three closed-loop workloads of the sgear benchmark.

Each workload builds its inputs from the seed in ``setup``, then the runner
calls ``op`` back to back: the next op starts only when the previous one has
finished. Every op also checks its own outputs; a failed check or a failed
unit of work counts in ``failed``.

All workloads use the acceptance tests' tiny model shape (one TCA block, a
one-layer decoder with 2 heads and a 32-wide MLP) on the synthetic chain
task: K=12 classes, T=8 frames, d=16, 2 tokens per frame.

* ``train``: ``trainer.fit`` with the ``desk`` preset and the ``full``
  setting for one epoch over 300 training clips, as in the acceptance
  split; after the timed ops, Top-1 on 200 held-out clips. Backward
  dominates.
* ``eval``: the ``sgear eval`` plus ``sgear ensemble`` flow on a checkpoint
  trained during setup: predictions for 2,000 clips, a 5-point anticipation
  gap sweep (up to 4 rollout steps) and a 3-point prototype-ratio sweep on
  200 of them, prediction files written and read back, and ``late_fuse`` of
  three 2,000-clip sets, enough clips for its quadratic cost to show. No
  loss, backward or optimizer call runs. The decoder dominates.
* ``gradcheck``: ``autodiff.grad_check`` of the full loss on the gradient
  integrity test's model and input (T=3, 5 tokens, past labels
  ``[None, 1, 2]``), over a fixed set of parameters from every layer.
  Forward only, batch size 1, finiteness checks on, detach tape replayed.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from sgear import autodiff, dataio, evaluate, trainer
from sgear.cli import build_co_graph
from sgear.decoder import DecoderConfig
from sgear.encoder import EncoderConfig
from sgear.errors import SgearError
from sgear.model import TABLE3_SETTINGS, ModelConfig, SgearModel
from sgear.semantic import LossWeights, ProtoStore

from tracer import patched

K, FRAMES, D, TOKENS = 12, 8, 16, 2
# 200 held-out clips, not the acceptance split's 40: on 40 clips one clip is
# 2.5 points of Top-1, and the held-out score varied by 20% between seeds.
TRAIN_CLIPS, HELD_CLIPS = 300, 200
TRAIN_EPOCHS = 1
EVAL_CLIPS, SWEEP_CLIPS = 2000, 200
TAUS = [1.0, 2.0, 3.0, 4.0, 5.0]          # training gap 1.0 at 1 fps: 0-4 rollout steps
RATIOS = [0.25, 0.5, 1.0]
FUSE_WEIGHTS = [1.5, 1.5, 1.0]
SCORE_SUM_TOL = 1e-6                       # read_predictions' own tolerance
GRADCHECK_TOL = 1e-4                       # the gradient integrity test's bound
GRADCHECK_PARAMS = ("encoder.lin.b", "tca.block0.alpha", "tca.block0.wo.b",
                    "pa.toe_weights", "pa.beta", "pa.lam",
                    "decoder.block0.mlp.fc2.b", "head.alpha", "head.w_cls.b",
                    "protos.visual")


def tiny_model(num_classes, frames, d, language_store):
    config = ModelConfig(
        num_classes=num_classes, frames=frames, d=d,
        encoder=EncoderConfig(mode="passthrough", d=d),
        n_tca=1, tca_heads=2,
        decoder=DecoderConfig(d=d, layers=1, heads=2, mlp_hidden=32,
                              max_len=frames),
        toggles=TABLE3_SETTINGS["full"], seed=0)
    return SgearModel(config, language_store=language_store)


def train_config(model):
    """The ``desk`` preset cut to TRAIN_EPOCHS without warmup, so the cosine
    schedule decays to zero: with the warmup the one-epoch model ends at the
    peak learning rate, and its Top-1 varied more between seeds."""
    config = trainer.make_preset("desk")
    config.epochs = TRAIN_EPOCHS
    config.warmup_epochs = 0
    config.toggles = model.config.toggles
    return config


def chain_dataset(out_dir, n_clips, seed):
    graph = build_co_graph("chain", K, within=0.95)
    manifest_path, proto_path = dataio.generate_synthetic_dataset(
        out_dir, K, FRAMES, D, n_clips, graph, seed=seed, tokens=TOKENS)
    manifest, clips = trainer.load_dataset(manifest_path)
    language = ProtoStore.load(proto_path, kind="language",
                               class_names=manifest.class_names)
    return manifest, clips, language


def percentile(samples, q):
    return float(np.percentile(np.asarray(samples), q))


def scores_ok(preds):
    """Finite, non-negative probabilities summing to 1 within tolerance."""
    return all(np.all(np.isfinite(p.scores)) and np.all(p.scores >= 0)
               and abs(p.scores.sum() - 1.0) <= SCORE_SUM_TOL for p in preds)


def mean_nll(preds):
    return float(np.mean([-np.log(p.scores[p.truth]) for p in preds]))


class Workload:
    """Counters shared by the workloads; subclasses fill in the work."""

    setup_repeats = 7

    def __init__(self, seed):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self.seconds = 0.0
        self.latency_ms = []
        self.quality = None

    def check(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1
        return ok

    def same_quality(self, quality):
        """Every op repeats the same computation, so its results must too."""
        if self.quality is None:
            self.quality = quality
        self.check(quality == self.quality)

    def end_to_end(self):
        loss, accuracy = self.loss_and_accuracy()
        return {
            "throughput_per_s": self.units / self.seconds,
            "latency_ms_mean": float(np.mean(self.latency_ms)),
            "latency_ms_p90": percentile(self.latency_ms, 90),
            "loss": loss,
            "accuracy": accuracy,
        }

    def loss_and_accuracy(self):
        return self.quality

    def layer_extras(self):
        return {}


class TrainWorkload(Workload):
    """Unit: one clip-step. Latency: one optimizer step (4 clips)."""

    model = None

    def setup(self, out_dir):
        _, clips, self.language = chain_dataset(
            out_dir, TRAIN_CLIPS + HELD_CLIPS, self.seed)
        self.train, self.held = clips[:TRAIN_CLIPS], clips[TRAIN_CLIPS:]
        # a model build counts as set-up; each op still trains a fresh model
        tiny_model(K, FRAMES, D, self.language)

    def _clock(self, train_step):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            record = train_step(*args, **kwargs)
            self.latency_ms.append((time.perf_counter() - start) * 1e3)
            return record
        return timed

    def op(self):
        model = tiny_model(K, FRAMES, D, self.language)
        config = train_config(model)
        steps = TRAIN_EPOCHS * math.ceil(TRAIN_CLIPS / config.batch_size)
        self.attempted += steps
        start = time.perf_counter()
        try:
            with patched(trainer, "train_step", self._clock):
                history, _ = trainer.fit(model, self.train, config)
        except SgearError:
            self.failed += steps
            return
        self.seconds += time.perf_counter() - start
        self.units += TRAIN_EPOCHS * TRAIN_CLIPS
        losses = [r["total"] for r in history]
        self.check(len(losses) == steps and np.all(np.isfinite(losses)))
        self.same_quality(losses)
        self.model = model

    def loss_and_accuracy(self):
        """Mean loss of the fit, and held-out Top-1 of the last trained
        model, scored after the timed ops so every traced clip trains."""
        held = evaluate.predict_dataset(self.model, self.held)
        self.check(scores_ok(held))
        return float(np.mean(self.quality)), evaluate.topk_accuracy(held, 1)


class EvalWorkload(Workload):
    """Unit: one eval-set clip through the whole flow. Latency: one clip's
    prediction at the training gap."""

    setup_repeats = 3
    checkpoint_bytes = None
    _gap = False

    def __init__(self, seed):
        super().__init__(seed)
        self.rollout_ms = []

    def setup(self, out_dir):
        out_dir = Path(out_dir)
        manifest, clips, language = chain_dataset(
            out_dir, TRAIN_CLIPS + EVAL_CLIPS, self.seed)
        model = tiny_model(K, FRAMES, D, language)
        history, optimizer = trainer.fit(model, clips[:TRAIN_CLIPS],
                                         train_config(model))
        checkpoint = out_dir / "model.sgck"
        trainer.save_checkpoint(checkpoint, model, optimizer, step=len(history))
        # set-up is deterministic: a repeat must write the same checkpoint
        if self.checkpoint_bytes is not None:
            self.check(checkpoint.read_bytes() == self.checkpoint_bytes)
        self.checkpoint_bytes = checkpoint.read_bytes()
        self.checkpoint, self.out_dir, self.manifest = checkpoint, out_dir, manifest
        # eval_variable_tau's step count for the largest gap
        self.rollout_steps = round((TAUS[-1] - manifest.tau_a) * manifest.fps)
        ids = [rec.clip_id for rec in manifest.records]
        self.eval_clips = clips[TRAIN_CLIPS:]
        self.eval_ids = ids[TRAIN_CLIPS:]
        self.sweep_clips = self.eval_clips[:SWEEP_CLIPS]
        self.sweep_ids = self.eval_ids[:SWEEP_CLIPS]

    def _clock(self, predict):
        # a tracer's wrapper carries __wrapped__: keep rollout times untraced
        traced = hasattr(predict, "__wrapped__")

        def timed(model, inputs, n_steps=0):
            start = time.perf_counter()
            probs = predict(model, inputs, n_steps=n_steps)
            elapsed = (time.perf_counter() - start) * 1e3
            if self._gap:
                self.latency_ms.append(elapsed)
            elif n_steps == self.rollout_steps and not traced:
                self.rollout_ms.append(elapsed)
            return probs
        return timed

    def op(self):
        out = self.out_dir
        self.attempted += EVAL_CLIPS
        start = time.perf_counter()
        try:
            with patched(SgearModel, "predict", self._clock):
                preds, sweeps, fused = self._flow(out)
        except SgearError:
            self.failed += EVAL_CLIPS
            return
        self.seconds += time.perf_counter() - start
        self.units += EVAL_CLIPS
        self.failed += sum(1 for p in preds if not scores_ok([p]))
        back = evaluate.read_predictions(out / "preds.jsonl")
        self.check(len(back) == len(preds) and all(
            a.clip_id == b.clip_id and a.truth == b.truth
            and np.array_equal(a.scores, b.scores) for a, b in zip(back, preds)))
        # the three fused sets are the same file, so fusion must give it back
        self.check(scores_ok(fused) and all(
            np.allclose(f.scores, p.scores, rtol=0, atol=1e-12)
            for f, p in zip(fused, preds)))
        self.check(all(0.0 <= row["metric"] <= 1.0 for row in sweeps))
        nll = mean_nll(preds)
        self.check(math.isfinite(nll))
        self.same_quality((nll, evaluate.topk_accuracy(preds, 1)))

    def _flow(self, out):
        """``sgear eval`` with --tau and --ratios, then ``sgear ensemble``."""
        model, _, _ = trainer.load_checkpoint(self.checkpoint)
        self._gap = True
        preds = evaluate.predict_dataset(model, self.eval_clips, self.eval_ids)
        self._gap = False
        rows = [{"metric": "top1", "value": evaluate.topk_accuracy(preds, 1)},
                {"metric": "top5", "value": evaluate.topk_accuracy(preds, 5)},
                {"metric": "recall5",
                 "value": evaluate.class_mean_top5_recall(preds)}]
        evaluate.write_csv(out / "metrics.csv", rows)
        evaluate.write_predictions(out / "preds.jsonl", preds)
        # pass the metric explicitly: a default argument would keep the
        # original function while a tracer has replaced the module attribute
        tau_rows = evaluate.eval_variable_tau(
            model, self.manifest, self.sweep_clips, TAUS, self.sweep_ids,
            metric=evaluate.topk_accuracy)
        evaluate.write_csv(out / "metrics.tau.csv", tau_rows)
        ratio_rows = evaluate.prototype_ratio_sweep(
            model, self.sweep_clips, RATIOS, self.sweep_ids,
            metric=evaluate.topk_accuracy)
        evaluate.write_csv(out / "metrics.ratio.csv", ratio_rows)
        sets = [evaluate.read_predictions(out / "preds.jsonl")
                for _ in FUSE_WEIGHTS]
        fused = evaluate.late_fuse(list(zip(sets, FUSE_WEIGHTS)))
        evaluate.write_predictions(out / "fused.jsonl", fused)
        return preds, tau_rows + ratio_rows, fused

    def layer_extras(self):
        return {"evaluate.rollout_ms_p50": percentile(self.rollout_ms, 50)}


class GradcheckWorkload(Workload):
    """Unit: one finite-difference probe (one full-loss forward). Latency:
    one probe."""

    setup_repeats = 15
    num_classes, frames, tokens = 6, 3, 5
    target, past_labels = 0, [None, 1, 2]
    weights = LossWeights(1.0, 1.0, 1.0, 1.0, 1.0)
    passed = calls = 0

    def setup(self, out_dir):
        k = self.num_classes
        language = ProtoStore(kind="language", tensor=autodiff.Tensor(
            dataio.language_prototypes_from_cooccurrence(np.full((k, k), 1.0 / k), D)))
        self.model = tiny_model(k, self.frames, D, language)
        params = self.model.parameters()
        self.params = [params[name] for name in GRADCHECK_PARAMS]
        self.probes = 1 + 2 * sum(p.data.size for p in self.params)
        self.feats = np.random.default_rng(self.seed).normal(
            size=(self.frames, self.tokens, D))

    def _probe(self):
        start = time.perf_counter()
        loss = self.model.total_loss(self.feats, self.target, self.weights,
                                     past_labels=self.past_labels)["loss"]
        self.latency_ms.append((time.perf_counter() - start) * 1e3)
        self._losses.append(float(loss.data))
        return loss

    def op(self):
        self.attempted += self.probes
        self._losses = []
        start = time.perf_counter()
        try:
            err = autodiff.grad_check(self._probe, self.params)
        except SgearError:
            self.failed += self.probes
            return
        self.seconds += time.perf_counter() - start
        self.units += self.probes
        self.calls += 1
        self.passed += self.check(err < GRADCHECK_TOL)
        reference = self._losses[0]     # grad_check's first call is unperturbed
        self.check(math.isfinite(reference))
        self.same_quality(reference)

    def loss_and_accuracy(self):
        """Reference loss, and the share of grad_check calls within bound."""
        return self.quality, self.passed / self.calls


WORKLOADS = {
    "train": TrainWorkload,
    "eval": EvalWorkload,
    "gradcheck": GradcheckWorkload,
}
