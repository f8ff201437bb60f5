"""Acceptance criteria: one test per criterion, each emitting a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines; the quantitative surrogates (criteria 5 and 6) train small
models and take a few minutes combined.
"""

import time

import numpy as np
import pytest

import sgear.autodiff as ad
from sgear import dataio, evaluate, semantic
from sgear.autodiff import Tensor
from sgear.cli import build_co_graph
from sgear.decoder import CausalDecoder, DecoderConfig
from sgear.encoder import EncoderConfig
from sgear.evaluate import ENSEMBLE_PRESETS, Prediction
from sgear.model import TABLE3_SETTINGS, ModelConfig, SgearModel, Toggles
from sgear.pa import build_toeplitz
from sgear.semantic import (LossWeights, ProtoStore, alignment_score,
                            choose_subset, init_visual_prototypes, loss_feat,
                            loss_reg, loss_sem)
from sgear.tca import TcaStack
from sgear.trainer import (AdamW, fit, load_checkpoint, load_dataset,
                           make_preset, save_checkpoint)


def report(ok, name):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def uniform_language_store(k, d):
    return ProtoStore(kind="language", tensor=Tensor(
        dataio.language_prototypes_from_cooccurrence(np.full((k, k), 1.0 / k), d)))


def tiny_model(k=6, t=3, d=16, setting="full", seed=0, lang=None,
               ratio=1.0):
    config = ModelConfig(
        num_classes=k, frames=t, d=d,
        encoder=EncoderConfig(mode="passthrough", d=d),
        n_tca=1, tca_heads=2,
        decoder=DecoderConfig(d=d, layers=1, heads=2, mlp_hidden=32, max_len=t),
        toggles=TABLE3_SETTINGS[setting], subset_ratio=ratio, seed=seed)
    return SgearModel(config, language_store=lang or uniform_language_store(k, d))


@pytest.mark.slow
def test_01_gradient_integrity():
    """Full-loss grad check on a tiny model (T=3, P=4, d=16, K=6) < 1e-4."""
    start = time.time()
    k, d, t, tokens = 6, 16, 3, 5      # 4 patch tokens + class token
    model = tiny_model(k=k, t=t, d=d)
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(t, tokens, d))
    weights = LossWeights(1.0, 1.0, 1.0, 1.0, 1.0)
    err = ad.grad_check(
        lambda: model.total_loss(feats, 0, weights,
                                 past_labels=[None, 1, 2])["loss"],
        list(model.parameters().values()))
    elapsed = time.time() - start
    report(err < 1e-4 and elapsed < 120,
           f"criterion 1: gradient integrity (max rel err {err:.2e}, "
           f"{elapsed:.0f}s)")


def test_02_detach_contracts():
    """Stop-gradient probes are exactly zero where the losses block them."""
    rng = np.random.default_rng(1)
    protos = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
    z = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
    loss_sem(z, protos, Tensor(rng.uniform(-1, 1, (1, 5)))).backward()
    sem_ok = z.grad is None and np.abs(protos.grad).max() > 0
    protos.zero_grad()
    loss_reg(z, protos, [2]).backward()
    reg_ok = protos.grad is None and np.abs(z.grad).max() > 0
    merged = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    future = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    loss_feat(future, merged).backward()
    feat_ok = merged.grad is None and np.abs(future.grad[:3]).max() > 0
    report(sem_ok and reg_ok and feat_ok,
           "criterion 2: detach contracts (sem/reg/feat gradients blocked "
           "exactly)")


def test_03_causality():
    """TCA and decoder outputs at step t are unaffected by steps > t."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for t_len in (2, 5, 8):
        stack = TcaStack(8, 2, t_len, np.random.default_rng(t_len), n_blocks=2)
        x = rng.normal(size=(t_len, 3, 8))
        dec = CausalDecoder(DecoderConfig(d=8, layers=2, heads=2,
                                          mlp_hidden=16, max_len=t_len),
                            np.random.default_rng(t_len + 50))
        m = rng.normal(size=(t_len, 8))
        base_tca = stack(Tensor(x)).data
        base_dec = dec.decode(Tensor(m)).data
        for t in range(t_len - 1):
            x2, m2 = x.copy(), m.copy()
            x2[t + 1:] += rng.normal(size=x2[t + 1:].shape) * 100
            m2[t + 1:] += rng.normal(size=m2[t + 1:].shape) * 100
            worst = max(
                worst,
                np.abs(stack(Tensor(x2)).data[:t + 1] - base_tca[:t + 1]).max(),
                np.abs(dec.decode(Tensor(m2)).data[:t + 1] - base_dec[:t + 1]).max())
    report(worst < 1e-9,
           f"criterion 3: causality for T in {{2,5,8}} (max deviation "
           f"{worst:.1e})")


def test_04_toeplitz_structure():
    """T=m grid uses exactly 2T-1 parameters with constant diagonals."""
    ok = True
    for t_len in (2, 3, 5):
        w = Tensor(np.random.default_rng(t_len).normal(size=2 * t_len - 1))
        delta = build_toeplitz(w, t_len, t_len).data
        for off in range(-(t_len - 1), t_len):
            diag = np.diagonal(delta, off)
            ok = ok and np.all(diag == diag[0])
    w = Tensor(np.arange(5, dtype=float))
    layout = build_toeplitz(w, 3, 3).data
    expect = np.array([[0, 1, 2], [3, 0, 1], [4, 3, 0]], dtype=float)
    ok = ok and np.array_equal(layout, expect)
    report(ok, "criterion 4: Toeplitz structure (2T-1 parameters, exact "
               "diagonals, reference layout)")


def test_05_semantic_transfer():
    """Random prototypes align with language geometry under sem+reg losses."""
    start = time.time()
    k, d = 12, 16
    graph = np.zeros((k, k))
    for i in range(k):
        block = [j for j in range(k) if j // 6 == i // 6]
        other = [j for j in range(k) if j // 6 != i // 6]
        graph[i, block] = 0.9 / len(block)
        graph[i, other] = 0.1 / len(other)
    lang = ProtoStore(kind="language", tensor=Tensor(
        dataio.language_prototypes_from_cooccurrence(graph, d)))
    targets = semantic.LanguageTargets(lang)
    visual = init_visual_prototypes("random", k, d, seed=0)
    initial = alignment_score(visual, lang)
    rng = np.random.default_rng(1)
    z = Tensor(rng.normal(0, 1 / np.sqrt(d), (k, d)), requires_grad=True)
    opt = AdamW({"protos": visual.tensor, "z": z})
    final = initial
    steps = 0
    for step in range(2000):
        visual.tensor.zero_grad()
        z.zero_grad()
        total = None
        for y in range(k):
            term = (loss_sem(z[y:y + 1], visual.tensor, targets.row([y]))
                    + loss_reg(z[y:y + 1], visual.tensor, [y]))
            total = term if total is None else total + term
        total.backward()
        opt.step(0.02)
        steps = step + 1
        if step % 50 == 49:
            final = alignment_score(visual, lang)
            if final >= 0.6:
                break
    elapsed = time.time() - start
    report(abs(initial) < 0.3 and final >= 0.6 and elapsed < 180,
           f"criterion 5: semantic transfer (alignment {initial:.3f} -> "
           f"{final:.3f} in {steps} steps, {elapsed:.0f}s)")


@pytest.mark.slow
def test_06_anticipation_sanity(tmp_path):
    """Full model fits the synthetic chain task to >= 95% training Top-1."""
    start = time.time()
    k, t, d = 12, 8, 16
    graph = build_co_graph("chain", k, within=0.95)
    mpath, ppath = dataio.generate_synthetic_dataset(
        tmp_path, k, t, d, 340, graph, seed=3, tokens=2)
    manifest, clips = load_dataset(mpath)
    train, held = clips[:300], clips[300:]
    lang = ProtoStore.load(ppath, kind="language",
                           class_names=manifest.class_names)

    def run(setting):
        model = tiny_model(k=k, t=t, d=d, setting=setting, lang=lang)
        cfg = make_preset("desk")
        cfg.epochs = 10
        fit(model, train, cfg)
        tr = evaluate.topk_accuracy(evaluate.predict_dataset(model, train), 1)
        ho = evaluate.topk_accuracy(evaluate.predict_dataset(model, held), 1)
        return tr, ho

    full_train, full_held = run("full")
    base_train, base_held = run("1")
    elapsed = time.time() - start
    print(f"\n  full model:  train top-1 {full_train:.3f}, held-out "
          f"{full_held:.3f}")
    print(f"  baseline(1): train top-1 {base_train:.3f}, held-out "
          f"{base_held:.3f}")
    report(full_train >= 0.95 and full_held >= base_held and elapsed < 600,
           f"criterion 6: anticipation sanity (train {full_train:.3f} >= "
           f"0.95, held-out {full_held:.3f} vs baseline {base_held:.3f}, "
           f"{elapsed:.0f}s)")


def test_07_metric_oracles():
    """Metrics equal exhaustive brute-force implementations exactly."""
    def brute_topk(preds, k):
        hits = 0
        for p in preds:
            order = sorted(range(len(p.scores)),
                           key=lambda i: (-p.scores[i], i))
            hits += p.truth in order[:k]
        return hits / len(preds)

    def brute_recall(preds, k=5):
        classes = []
        for p in preds:
            if p.truth not in classes:
                classes.append(p.truth)
        recalls = []
        for c in classes:
            mine = [p for p in preds if p.truth == c]
            hit = sum(1 for p in mine
                      if c in sorted(range(len(p.scores)),
                                     key=lambda i: (-p.scores[i], i))[:k])
            recalls.append(hit / len(mine))
        return float(np.mean(recalls))

    rng = np.random.default_rng(4)
    ok = True
    for _ in range(100):
        preds = [Prediction(f"c{i}", rng.dirichlet(np.ones(9)),
                            int(rng.integers(9))) for i in range(40)]
        k = int(rng.integers(1, 6))
        ok = ok and evaluate.topk_accuracy(preds, k) == brute_topk(preds, k)
        ok = ok and (evaluate.class_mean_top5_recall(preds)
                     == brute_recall(preds))
    report(ok, "criterion 7: metric oracles (100 randomized sets, exact "
               "equality)")


def test_08_configuration_fidelity():
    """Presets reproduce the published hyperparameter tables verbatim."""
    ek100 = make_preset("ek100")
    fifty = make_preset("50s")
    eg = make_preset("eg")
    ok = (ek100.loss_weights == LossWeights(4.0, 1.0, 1.0, 1.0, 1.0)
          and ek100.optimizer == "sgd" and ek100.lr == 1e-4
          and ek100.momentum == 0.9 and ek100.weight_decay == 1e-5
          and ek100.batch_size == 3 and ek100.epochs == 50
          and ek100.warmup_epochs == 20
          and fifty.loss_weights == LossWeights(1.0, 0.1, 1.0, 0.1, 1.0)
          and fifty.optimizer == "adamw" and fifty.lr == 5e-6
          and fifty.betas == (0.9, 0.999) and fifty.weight_decay == 1e-4
          and fifty.batch_size == 2 and fifty.epochs == 100
          and eg.lr == 4.75e-4 and eg.warmup_epochs == 5 and eg.epochs == 10
          and eg.loss_weights == LossWeights(2.0, 1.0, 1.0, 0.1, 1.0)
          and make_preset("ek55").loss_weights == LossWeights(2.0, 1.0, 1.0,
                                                              1.0, 1.0)
          and ENSEMBLE_PRESETS["ek100"] == [2.5, 1.5, 1.0, 1.0, 0.5]
          and ENSEMBLE_PRESETS["ek55"] == [1.5, 1.5, 1.5, 1.0, 1.0])
    report(ok, "criterion 8: configuration fidelity (golden preset values)")


def test_09_subset_inference():
    """Ratio 0.1 on K=4053 gives 406 comparisons; ratio 1.0 is exact."""
    k, t, d = 4053, 3, 16
    subset = choose_subset(k, 0.1, seed=0)
    count_ok = len(subset) == 406
    config = ModelConfig(
        num_classes=k, frames=t, d=d,
        encoder=EncoderConfig(mode="passthrough", d=d),
        decoder=DecoderConfig(d=d, layers=1, heads=2, mlp_hidden=32, max_len=t),
        toggles=Toggles(tca=False, pa=True, sem=False),
        subset_ratio=0.1, seed=0)
    model = SgearModel(config)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(t, 2, d))
    probs = model.predict(x)
    sub_ok = (abs(probs.sum() - 1.0) < 1e-9
              and np.all(probs[np.setdiff1d(np.arange(k), model.subset)] == 0)
              and len(model.subset) == 406)
    model.subset = np.arange(k)
    full_a = model.predict(x)
    full_b = model.predict(x)
    exact_ok = np.array_equal(full_a, full_b) and abs(full_a.sum() - 1) < 1e-9
    rows = evaluate.prototype_ratio_sweep(
        model, [(x, 0, None)], ratios=[1.0])
    plain = evaluate.topk_accuracy(
        evaluate.predict_dataset(model, [(x, 0, None)]), 1)
    sweep_ok = rows[0]["metric"] == plain and rows[0]["comparisons"] == k
    report(count_ok and sub_ok and exact_ok and sweep_ok,
           "criterion 9: subset inference (406 comparisons at ratio 0.1, "
           "ratio 1.0 exact)")


def test_10_round_trips(tmp_path):
    """File formats and checkpoints are bit-exact; seeded runs reproduce."""
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(3, 2, 5)).astype(np.float32)
    dataio.write_feature_file(tmp_path / "f.sgft", feats)
    f_ok = np.array_equal(
        dataio.read_feature_file(tmp_path / "f.sgft").view(np.uint32),
        feats.view(np.uint32))
    protos = rng.normal(size=(4, 5)).astype(np.float32)
    dataio.write_prototype_file(tmp_path / "p.sglp", protos)
    p_ok = np.array_equal(
        dataio.read_prototype_file(tmp_path / "p.sglp").view(np.uint32),
        protos.view(np.uint32))

    k, t, d = 4, 3, 8
    graph = np.full((k, k), 1.0 / k)
    mpath, ppath = dataio.generate_synthetic_dataset(
        tmp_path / "data", k, t, d, 8, graph, seed=7, tokens=2)
    manifest, clips = load_dataset(mpath)
    lang = ProtoStore.load(ppath, kind="language",
                           class_names=manifest.class_names)

    def trained():
        model = tiny_model(k=k, t=t, d=d, lang=lang, seed=9)
        cfg = make_preset("desk")
        cfg.epochs = 2
        _, opt = fit(model, clips, cfg)
        return model, opt

    model, _ = trained()
    save_checkpoint(tmp_path / "a.sgck", model, step=4)
    back, _, _ = load_checkpoint(tmp_path / "a.sgck")
    save_checkpoint(tmp_path / "b.sgck", back, step=4)
    raw_a = (tmp_path / "a.sgck").read_bytes()
    ck_ok = ((tmp_path / "b.sgck").read_bytes() == raw_a
             and np.array_equal(model.predict(clips[0][0]),
                                back.predict(clips[0][0])))
    # a fresh seeded run (including optimizer state) reproduces byte-for-byte
    model1, opt1 = trained()
    model2, opt2 = trained()
    save_checkpoint(tmp_path / "c.sgck", model1, opt1, step=4)
    save_checkpoint(tmp_path / "d.sgck", model2, opt2, step=4)
    repro_ok = ((tmp_path / "c.sgck").read_bytes()
                == (tmp_path / "d.sgck").read_bytes())
    report(f_ok and p_ok and ck_ok and repro_ok,
           "criterion 10: round trips (feature/prototype/checkpoint bit-exact,"
           " seeded reruns identical)")
