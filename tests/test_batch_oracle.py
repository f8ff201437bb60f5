"""One graph per batch against the per-clip training loop it replaced.

The oracle below is the old `train_step`: it runs `total_loss` once per clip
and averages the clips' losses and loss parts. The batched step must give the
same loss record and every parameter gradient within 1e-10 (relative, floor
1), for any batch size, setting, subset ratio and mix of past labels.

Batched `predict` and the sweeps built on it are checked the same way against
per-clip `predict` and the old per-clip sweeps.

One clip runs as a batch of one. The one-clip path it replaced is kept below
as an oracle: one clip's loss parts, loss, every gradient and `predict` must
equal it bit for bit, and a batch must agree with the old batch path within
1e-12 (relative, floor 1).
"""

import contextlib
import types

import numpy as np
import pytest

import sgear.autodiff as ad
from sgear import dataio, evaluate, semantic, trainer
from sgear.autodiff import Tensor
from sgear.decoder import DecoderConfig
from sgear.encoder import EncoderConfig, build_encoder
from sgear.errors import NumericError, ShapeError
from sgear.model import TABLE3_SETTINGS, ModelConfig, SgearModel
from sgear.semantic import CosineHead, LossWeights, ProtoStore
from sgear.tca import TcaBlock
from sgear.trainer import TrainConfig, fit, train_step

TOL = 1e-10
K, T, D, TOKENS = 6, 5, 8, 2
WEIGHTS = LossWeights(sem=1.3, reg=0.7, cls=1.1, past=0.9, feat=0.6)
PAST_LABELS = ([0, 3, 1, 5, 2], [None, 4, None, 2, None], None)


# -- oracle: the per-clip loop ----------------------------------------------------

def oracle_train_step(batch, model, weights):
    """Loss record of the per-clip loop; leaves the gradients in the model."""
    for p in model.parameters().values():
        p.zero_grad()
    scale = 1.0 / len(batch)
    record = {}
    total = None
    for feats, target, past_labels in batch:
        out = model.total_loss(feats, target, weights, past_labels=past_labels)
        for name, part in out["parts"].items():
            value = float(part.data)
            if not np.isfinite(value):
                raise NumericError(f"non-finite '{name}' loss part")
            record[name] = record.get(name, 0.0) + value * scale
        total = out["loss"] if total is None else total + out["loss"]
    total = total * scale
    total.backward()
    record["total"] = float(total.data)
    return record


# -- comparison -------------------------------------------------------------------

def make_model(setting, ratio=1.0, t_len=T, d=D):
    protos = dataio.language_prototypes_from_cooccurrence(
        np.random.default_rng(7).dirichlet(np.ones(K), size=K), d)
    config = ModelConfig(
        num_classes=K, frames=t_len, d=d,
        encoder=EncoderConfig(mode="passthrough", d=d),
        n_tca=1, tca_heads=2, pa_k=2,
        decoder=DecoderConfig(d=d, layers=1, heads=2, mlp_hidden=16,
                              max_len=t_len),
        toggles=TABLE3_SETTINGS[setting], subset_ratio=ratio, seed=4)
    model = SgearModel(config, language_store=ProtoStore(
        kind="language", tensor=Tensor(protos)))
    # move TCA's decay off its all-ones start so every product is exercised
    if model.tca is not None:
        for block in model.tca.blocks:
            block.alpha.data[...] = np.linspace(0.9, -0.4, t_len - 1)
    return model


def make_clips(n, seed=11, t_len=T, d=D):
    """n clips cycling through all, partly and no known past labels."""
    rng = np.random.default_rng(seed)
    return [(rng.normal(size=(t_len, TOKENS, d)), int(rng.integers(K)),
             PAST_LABELS[i % len(PAST_LABELS)]) for i in range(n)]


def grads(model):
    return {name: p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
            for name, p in model.parameters().items()}


def close(a, b, tol=TOL):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b)))


def assert_same_step(got_record, got_grads, want_record, want_grads):
    assert set(got_record) == set(want_record)
    for name, value in want_record.items():
        assert close(got_record[name], value), name
    assert set(got_grads) == set(want_grads)
    for name, grad in want_grads.items():
        assert close(got_grads[name], grad), name


@pytest.mark.parametrize("batch_size", [1, 3, 17])
@pytest.mark.parametrize("ratio", [1.0, 0.5])
@pytest.mark.parametrize("setting", ["1", "2", "3", "4", "5", "full"])
def test_batched_step_matches_per_clip_loop(setting, ratio, batch_size):
    model = make_model(setting, ratio)
    batch = make_clips(batch_size)
    want = oracle_train_step(batch, model, WEIGHTS)
    want_grads = grads(model)
    got = train_step(batch, model, WEIGHTS, None, 0.0)
    assert_same_step(got, grads(model), want, want_grads)


def head_rows(model, inputs, clip, step):
    """The head's (logits, probs) on the decoder rows (clip, step) of a
    (B, T, tokens, d) batch, through the model's own path."""
    future = model.decoder.decode(model.encode_merge(inputs))
    return model.step_logits(future[clip, step])


def test_batch_forward_rows_per_clip():
    """Each clip of a batch gets its own parts, equal to a single-clip run;
    the clip without past labels gets a zero `past` part, and the head scores
    each clip's final step as it scores that clip alone."""
    model = make_model("full")
    batch = make_clips(4, seed=12)
    feats, targets, past = zip(*batch)
    feats = np.stack(feats)
    parts = model.forward(feats, list(targets), past_labels=list(past))
    assert list(parts["past"].data == 0.0) == [False, False, True, False]
    logits, probs = head_rows(model, feats, np.arange(4), T - 1)
    assert logits.shape == (4, K) and probs.shape == (4, K)
    for b, (x, y, labels) in enumerate(batch):
        one = model.forward(x, y, past_labels=labels)
        for name, part in one.items():
            assert part.shape == () and parts[name].shape == (4,)
            assert close(parts[name].data[b], part.data), name
        _, one_probs = head_rows(model, x[None], [0], T - 1)
        assert close(probs.data[b], one_probs.data[0])


def test_short_last_batch_in_fit(monkeypatch):
    """10 clips in batches of 4: every step of `fit`, the short last one too,
    matches the per-clip loop on the same parameters."""
    model = make_model("full")
    clips = make_clips(10, seed=13)
    sizes = []

    def checked(batch, model, weights, optimizer, lr, grad_clip=None):
        want = oracle_train_step(batch, model, weights)
        want_grads = grads(model)
        got = train_step(batch, model, weights, optimizer, lr,
                         grad_clip=grad_clip)
        # the optimizer step leaves the gradients in place
        assert_same_step(got, grads(model), want, want_grads)
        sizes.append(len(batch))
        return got

    monkeypatch.setattr(trainer, "train_step", checked)
    config = TrainConfig(optimizer="adamw", lr=1e-3, epochs=1, batch_size=4,
                         loss_weights=WEIGHTS)
    history, _ = fit(model, clips, config)
    assert sizes == [4, 4, 2] and len(history) == 3


def test_grad_check_batched_loss():
    """Finite differences of a 3-clip loss: the detach tape and the frozen
    prototype choice work with a clip axis."""
    model = make_model("full", t_len=3)
    feats, targets, past = zip(*make_clips(3, seed=14, t_len=3))
    past = ([None, 1, 2], None, [4, None, 0])
    params = model.parameters()
    names = ("encoder.lin.b", "tca.block0.alpha", "tca.block0.wo.b",
             "pa.toe_weights", "pa.beta", "pa.lam", "decoder.block0.mlp.fc2.b",
             "head.alpha", "head.w_cls.b", "protos.visual")
    err = ad.grad_check(
        lambda: model.total_loss(np.stack(feats), list(targets), WEIGHTS,
                                 past_labels=list(past))["loss"],
        [params[name] for name in names])
    assert err < 1e-6


# -- graph size ---------------------------------------------------------------------

def count_nodes(root):
    """Distinct tensors reachable from `root` through the autodiff graph (the
    benchmark tracer's walk)."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for child in stack.pop()._prev:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return len(seen)


def bench_model(k, t_len, d=16):
    """The benchmark's tiny model: full setting, uniform language store."""
    lang = ProtoStore(kind="language", tensor=Tensor(
        dataio.language_prototypes_from_cooccurrence(np.full((k, k), 1.0 / k), d)))
    config = ModelConfig(
        num_classes=k, frames=t_len, d=d,
        encoder=EncoderConfig(mode="passthrough", d=d), n_tca=1, tca_heads=2,
        decoder=DecoderConfig(d=d, layers=1, heads=2, mlp_hidden=32,
                              max_len=t_len),
        toggles=TABLE3_SETTINGS["full"], seed=0)
    return SgearModel(config, language_store=lang)


def test_node_counts():
    """The benchmark's gradcheck model and input (one clip) stay at most 298
    nodes; a batch of four clips of the train workload's shape costs at most
    330, not four times a clip."""
    weights = LossWeights(1.0, 1.0, 1.0, 1.0, 1.0)
    model = bench_model(6, 3)
    feats = np.random.default_rng(3).normal(size=(3, 5, 16))
    one = model.total_loss(feats, 0, weights, past_labels=[None, 1, 2])["loss"]
    assert count_nodes(one) <= 298

    model = bench_model(12, 8)
    feats = np.random.default_rng(4).normal(size=(4, 8, 2, 16))
    past = [[None] + [1] * 7, None, [2, None] * 4, [None] * 8]
    four = model.total_loss(feats, [0, 5, 7, 11], weights, past_labels=past)["loss"]
    assert count_nodes(four) <= 330


# -- one clip as a batch of one, against the one-clip path it replaced -------------------

def old_aggregate_kv(alpha, *seqs):
    """`tca.aggregate_kv` as it was: the decayed sums along axis 0."""
    t_len = seqs[0].shape[0]
    decay = ad.decay_matrix(alpha, t_len)
    return [ad.matmul(decay, seq.reshape(t_len, -1)).reshape(seq.shape)
            for seq in seqs]


def old_tca_attention(block, x):
    """`TcaBlock.attention` as it was: keys and values moved time to axis 0
    for the history and back."""
    q = block.wq(x)
    keys, values = old_aggregate_kv(
        block.alpha, block.wk(x).swapaxes(0, -3), block.wv(x).swapaxes(0, -3))
    out = ad.attention(q, keys.swapaxes(0, -3), values.swapaxes(0, -3),
                       1.0 / np.sqrt(block.dim), heads=block.heads)
    return block.wo(out)


def old_aggregate(head, z, protos, subset=None):
    """`CosineHead.aggregate` as it was, with its reshape pair."""
    p = semantic._rows(protos, subset)
    weights = ad.softmax(ad.cosine(z, p), axis=-1)
    return ad.matmul(weights.reshape(-1, p.shape[0]), p).reshape(*z.shape)


@pytest.fixture
def old_path(monkeypatch):
    """Route TCA and the cosine head through the code they replaced."""
    def use():
        monkeypatch.setattr(TcaBlock, "attention", old_tca_attention)
        monkeypatch.setattr(CosineHead, "aggregate", old_aggregate)
    return use


def one_clip_rows(t_len, target, past_labels):
    """The (step, label) rows of one clip: the final step first, then each
    step whose next frame's label is known."""
    rows = [(t_len - 1, target)]
    rows += [(t, past_labels[t + 1]) for t in range(t_len - 1)
             if past_labels and past_labels[t + 1] is not None]
    return [np.array(col) for col in zip(*rows)]


def oracle_total_loss(model, inputs, target, weights, past_labels=None):
    """`SgearModel.total_loss` for one clip as it was: the clip's arrays
    carry no clip axis, z is `future[step]` and the parts are scalars. Also
    returns the head's logits and probabilities on every row, and whether
    the clip has no past rows."""
    step, labels = one_clip_rows(model.config.frames, target, past_labels)
    own = np.ones(len(step), dtype=bool)
    past_rows = own & (np.arange(len(step)) >= 1)
    pool = own / own.sum(axis=-1, keepdims=True)
    no_part = Tensor(np.zeros(()))

    sub = model._subset_or_none()
    merged = model.encode_merge(inputs)
    future = model.decoder.decode(merged)
    z = future[step]
    logits, probs = model.step_logits(z)
    ce = semantic.loss_cls(logits, labels)
    parts = {"cls": ce[0], "past": (ce * past_rows).sum(axis=-1)}
    protos = model.visual_store.tensor if model.use_cosine_head else None
    parts["sem"] = (semantic.loss_sem(
        z, protos, model.language_targets.row(labels, subset=sub),
        subset=sub, pool=pool) if model.config.toggles.sem else no_part)
    parts["reg"] = (semantic.loss_reg(z, protos, labels, pool=pool)
                    if model.use_cosine_head else no_part)
    parts["feat"] = semantic.loss_feat(future, merged)
    return {"logits": logits, "probs": probs, "parts": parts,
            "past_empty": not past_rows.any(),
            "loss": semantic.total_loss(parts, weights)}


def oracle_predict(model, inputs, n_steps=0):
    """`SgearModel.predict` for one clip as it was: no clip axis, and the
    head took the last step's (d,) embedding. Each head op ran a (d,)
    embedding as one row, the same numpy calls on the same values, so the
    oracle hands the head that row."""
    with ad.no_grad():
        future = model.decoder.rollout(model.encode_merge(inputs), n_steps)
        return model.step_probs(future[-1:])[0]


def loss_run(model, run):
    """The output of `run` and every parameter's gradient after backward."""
    params = model.parameters()
    for p in params.values():
        p.zero_grad()
    out = run()
    out["loss"].backward()
    return out, grads(model)


def one_clip_head(model, x, y, past_labels):
    """The head's (logits, probs) on one clip's rows, through the model's own
    path: the clip runs as a batch of one."""
    step, _ = one_clip_rows(model.config.frames, y, past_labels)
    return head_rows(model, np.asarray(x)[None], 0, step)


def assert_bit_equal(got, want, got_grads, want_grads, got_head):
    assert np.array_equal(got["loss"].data, want["loss"].data)
    for key, value in zip(("logits", "probs"), got_head):
        assert np.array_equal(value.data, want[key].data), key
    assert got["parts"].keys() == want["parts"].keys()
    for name, part in want["parts"].items():
        assert got["parts"][name].shape == part.shape == ()
        assert np.array_equal(got["parts"][name].data, part.data), name
    assert (float(got["parts"]["past"].data) == 0.0) == want["past_empty"]
    assert got_grads.keys() == want_grads.keys()
    for name, grad in want_grads.items():
        assert np.array_equal(got_grads[name], grad), name


@pytest.mark.parametrize("labels", range(len(PAST_LABELS)),
                         ids=["all-past", "some-past", "no-past"])
@pytest.mark.parametrize("ratio", [1.0, 0.5])
@pytest.mark.parametrize("setting", ["1", "2", "3", "4", "5", "full"])
def test_one_clip_bit_equal_to_the_one_clip_path(setting, ratio, labels,
                                                 old_path):
    model = make_model(setting, ratio)
    x, y, _ = make_clips(1, seed=21)[0]
    past = PAST_LABELS[labels]
    got = loss_run(model, lambda: model.total_loss(x, y, WEIGHTS,
                                                   past_labels=past))
    head = one_clip_head(model, x, y, past)
    preds = [model.predict(x, n_steps=n) for n in range(3)]
    old_path()
    want = loss_run(model, lambda: oracle_total_loss(model, x, y, WEIGHTS,
                                                     past_labels=past))
    assert_bit_equal(got[0], want[0], got[1], want[1], head)
    for n, probs in enumerate(preds):
        assert probs.shape == (K,)
        assert np.array_equal(probs, oracle_predict(model, x, n_steps=n))


def test_one_clip_bit_equal_on_the_gradient_integrity_model(old_path):
    """test_01's model, input and loss."""
    model = bench_model(6, 3)
    feats = np.random.default_rng(0).normal(size=(3, 5, 16))
    weights = LossWeights(1.0, 1.0, 1.0, 1.0, 1.0)
    got = loss_run(model, lambda: model.total_loss(feats, 0, weights,
                                                   past_labels=[None, 1, 2]))
    head = one_clip_head(model, feats, 0, [None, 1, 2])
    preds = [model.predict(feats, n_steps=n) for n in range(3)]
    old_path()
    want = loss_run(model, lambda: oracle_total_loss(
        model, feats, 0, weights, past_labels=[None, 1, 2]))
    assert_bit_equal(got[0], want[0], got[1], want[1], head)
    for n, probs in enumerate(preds):
        assert np.array_equal(probs, oracle_predict(model, feats, n_steps=n))


ORACLE_TOL = 1e-12


@pytest.mark.parametrize("ratio", [1.0, 0.5])
@pytest.mark.parametrize("setting", ["1", "2", "3", "4", "5", "full"])
def test_batch_matches_the_old_batch_path(setting, ratio, old_path):
    """TCA now sums a batch's decay gradient over per-clip products, not in
    one product over all clips; everything else runs the same arithmetic."""
    model = make_model(setting, ratio)
    feats, targets, past = zip(*make_clips(4, seed=22))
    feats, targets, past = np.stack(feats), list(targets), list(past)

    def run():
        out, grad = loss_run(model, lambda: model.total_loss(
            feats, targets, WEIGHTS, past_labels=past))
        return out, grad, model.predict(feats, n_steps=2)

    got, got_grads, preds = run()
    old_path()
    want, want_grads, want_preds = run()
    assert close(got["loss"].data, want["loss"].data, ORACLE_TOL)
    for name, part in want["parts"].items():
        assert close(got["parts"][name].data, part.data, ORACLE_TOL), name
    for name, grad in want_grads.items():
        assert close(got_grads[name], grad, ORACLE_TOL), name
    assert close(preds, want_preds, ORACLE_TOL)


# -- inference without a graph ----------------------------------------------------------

@pytest.mark.parametrize("setting", ["1", "full"])
def test_predict_bit_identical_without_graph(setting, monkeypatch):
    model = make_model(setting, ratio=0.5)
    clips = make_clips(3, seed=15)
    without = [model.predict(x, n_steps=n) for x, _, _ in clips for n in (0, 2)]
    monkeypatch.setattr(ad, "no_grad", contextlib.nullcontext)
    with_graph = [model.predict(x, n_steps=n) for x, _, _ in clips for n in (0, 2)]
    for a, b in zip(without, with_graph):
        assert np.array_equal(a, b)


def test_no_grad_builds_no_graph_and_restores():
    model = make_model("full")
    x, y, labels = make_clips(1, seed=16)[0]
    with ad.no_grad():
        out = model.total_loss(x, y, WEIGHTS, past_labels=labels)
    assert not out["loss"].requires_grad and out["loss"]._prev == ()
    assert out["loss"]._backward is None

    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside")
    with ad.no_grad():
        with ad.no_grad():
            pass
        assert not ad._GRAD_ENABLED       # the inner exit restores "off"
    out = model.total_loss(x, y, WEIGHTS, past_labels=labels)
    assert out["loss"].requires_grad
    out["loss"].backward()
    assert np.abs(model.head.w_cls.w.grad).max() > 0.0


# -- encoders with a clip axis ------------------------------------------------------------

def test_encoders_take_a_clip_axis():
    """A (B, T, ...) batch encodes to the stack of its clips' encodings."""
    rng = np.random.default_rng(17)
    adapter = build_encoder(EncoderConfig(mode="adapter", d=8), rng)
    adapter.set_prototype_stats(rng.normal(size=8), rng.uniform(0.5, 2.0, 8))
    feats = rng.normal(size=(3, 4, 1, 8))
    got = adapter(feats).data
    for b in range(3):
        assert np.array_equal(got[b], adapter(feats[b]).data)

    passthrough = build_encoder(EncoderConfig(mode="passthrough", d=8), rng)
    feats = rng.normal(size=(3, 4, 2, 8))
    got = passthrough(feats).data
    for b in range(3):
        assert np.array_equal(got[b], passthrough(feats[b]).data)


# -- batched predict and sweeps -------------------------------------------------------

PREDICT_TOL = 1e-12
MANIFEST = types.SimpleNamespace(tau_a=1.0, fps=2.0)
TAUS, RATIOS = [1.0, 1.5, 2.0], [1.0, 0.5, 0.25]


def per_clip_preds(model, clips, ids, n_steps=0):
    return [evaluate.Prediction(cid, model.predict(x, n_steps=n_steps), y)
            for cid, (x, y, _) in zip(ids, clips)]


def oracle_tau_rows(model, clips, ids):
    """`eval_variable_tau` as it was: one `predict` call per clip."""
    rows = []
    for tau in TAUS:
        n_steps = int(round((tau - MANIFEST.tau_a) * MANIFEST.fps))
        preds = per_clip_preds(model, clips, ids, n_steps=n_steps)
        rows.append({"tau_a": tau, "n_steps": n_steps,
                     "metric": evaluate.topk_accuracy(preds, 1)})
    return rows


def oracle_ratio_rows(model, clips, ids):
    """`prototype_ratio_sweep` as it was: one `predict` call per clip."""
    saved, rows = model.subset, []
    for ratio in RATIOS:
        model.subset = semantic.choose_subset(K, ratio, model.config.subset_seed)
        preds = per_clip_preds(model, clips, ids)
        rows.append({"ratio": ratio, "comparisons": len(model.subset),
                     "metric": evaluate.topk_accuracy(preds, 1)})
    model.subset = saved
    return rows


@pytest.mark.parametrize("ratio", [1.0, 0.5])
@pytest.mark.parametrize("setting", ["1", "2", "3", "4", "5", "full"])
def test_batched_predict_matches_per_clip(setting, ratio):
    model = make_model(setting, ratio)
    feats = np.stack([x for x, _, _ in make_clips(257, seed=18)])
    for n_steps in (0, 2):
        want = [model.predict(x, n_steps=n_steps) for x in feats]
        assert all(p.shape == (K,) for p in want)
        for size in (1, 3, 257):
            got = model.predict(feats[:size], n_steps=n_steps)
            assert got.shape == (size, K)
            assert np.abs(got - want[:size]).max() <= PREDICT_TOL


@pytest.mark.parametrize("setting", ["1", "full"])
def test_sweeps_match_per_clip_sweeps(setting, monkeypatch):
    """257 clips cross one chunk boundary: each gap of the tau sweep is one
    256-clip and one 1-clip `predict` call; the ratio sweep encodes each
    chunk once for all its ratios and calls no `predict`. Every row equals
    the per-clip sweep."""
    model = make_model(setting, ratio=0.5)
    clips = make_clips(257, seed=19)
    ids = [f"c{i}" for i in range(len(clips))]
    want = oracle_tau_rows(model, clips, ids), oracle_ratio_rows(model, clips, ids)
    sizes = {"predict": [], "encode_merge": []}

    def counting(name):
        original = getattr(SgearModel, name)

        def counted(self, inputs, **kwargs):
            sizes[name].append(len(inputs))
            return original(self, inputs, **kwargs)
        return counted

    for name in sizes:
        monkeypatch.setattr(SgearModel, name, counting(name))
    saved = model.subset
    tau_rows = evaluate.eval_variable_tau(model, MANIFEST, clips, TAUS, ids)
    assert sizes == {"predict": [256, 1] * len(TAUS),
                     "encode_merge": [256, 1] * len(TAUS)}
    for calls in sizes.values():
        calls.clear()
    ratio_rows = evaluate.prototype_ratio_sweep(model, clips, RATIOS, ids)
    assert sizes == {"predict": [], "encode_merge": [256, 1]}
    assert (tau_rows, ratio_rows) == want
    assert model.subset is saved


def test_sweeps_reject_clips_of_different_shapes():
    model = make_model("full", ratio=0.5)
    saved = model.subset
    clips = make_clips(3, seed=20)
    for odd in (np.zeros((T - 1, TOKENS, D)), np.zeros((T, TOKENS + 1, D))):
        mixed = clips + [(odd, 0, None)]
        with pytest.raises(ShapeError, match="differ in shape"):
            evaluate.eval_variable_tau(model, MANIFEST, mixed, TAUS)
        with pytest.raises(ShapeError, match="differ in shape"):
            evaluate.prototype_ratio_sweep(model, mixed, RATIOS)
        assert model.subset is saved
