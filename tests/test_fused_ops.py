"""The fused autodiff ops `linear`, `layer_norm`, `attention` (heads
included), `gate_mix` and `cosine`, and the one-node `sub`, against the
composites they replaced.

The composites below are the old code paths, kept as oracles. A fused op runs
the same numpy operations in the same order, so its forward must be
bit-equal; only the order in which gradients are summed changed, so every
gradient must agree within 1e-12 (relative, floor 1).

`Tensor` has no unary minus, reflected subtraction or division, and no `.T`;
the composites use `neg`, `rsub`, `div` and `.transpose()` below, which run
the numpy operations those members ran.
"""

import numpy as np
import pytest

import sgear.autodiff as ad
from sgear import nn, semantic
from sgear.autodiff import Tensor
from sgear.errors import NumericError, ShapeError
from sgear.semantic import LossWeights
from sgear.tca import TcaBlock

from test_batch_oracle import WEIGHTS, bench_model, count_nodes, make_clips, make_model

TOL = 1e-12


# -- oracles: the composites the fused ops replaced -----------------------------------

def neg(x):
    """-x as one node; multiplying by -1.0 is exact."""
    return x * -1.0


def rsub(c, x):
    """The constant c minus x."""
    return Tensor(c) - x


def div(a, b):
    """a / b as a times b to the power -1."""
    return a * b ** -1.0


def composite_linear(x, w, b):
    return ad.matmul(x, w) + b


def composite_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x + neg(mu)
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc * ((var + eps) ** -0.5) * gain + bias


def sigmoid(x):
    """The old `autodiff.sigmoid` op."""
    x = ad._as_tensor(x)
    s = np.where(x.data >= 0,
                 1.0 / (1.0 + np.exp(-np.abs(x.data))),
                 np.exp(-np.abs(x.data)) / (1.0 + np.exp(-np.abs(x.data))))
    out = ad._make(s, (x,), "sigmoid")
    if out.requires_grad:
        out._backward = lambda g: x._accum(g * out.data * (1.0 - out.data))
    return out


def composite_gate_mix(logit, a, b):
    gate = sigmoid(logit)
    return gate * a + rsub(1.0, gate) * b


def composite_cosine(x, p):
    """The old `semantic.relative_repr` body, past its prototype subset."""
    d = p.shape[1]
    xn = ((x * x).sum(axis=-1, keepdims=True)) ** 0.5
    pn = ((p * p).sum(axis=1)) ** 0.5
    num = ad.matmul(x.reshape(-1, d), p.transpose()).reshape(*x.shape[:-1], -1)
    return div(num, xn * pn + 1e-8)


def split_heads(x, heads):
    """(..., N, d) -> (..., heads, N, d/heads)."""
    *lead, n, d = x.shape
    return x.reshape(*lead, n, heads, d // heads).swapaxes(-3, -2)


def join_heads(x):
    """(..., heads, N, dh) -> (..., N, heads*dh)."""
    *lead, h, n, dh = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, n, h * dh)


def composite_attention(q, k, v, scale, mask=None, heads=1):
    if heads > 1:
        q, k, v = (split_heads(t, heads) for t in (q, k, v))
    scores = ad.matmul(q, k.mT) * scale
    if mask is not None:
        scores = scores + Tensor(mask)
    out = ad.matmul(ad.softmax(scores, axis=-1), v)
    return join_heads(out) if heads > 1 else out


# -- comparison --------------------------------------------------------------------------

def rel_err(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a),
                                                                   np.abs(b)))))


def run(fn, operands, seed):
    """Output and the operands' gradients after backward from `seed`."""
    for t in operands:
        t.zero_grad()
    out = fn(*operands)
    grads = None
    if out.requires_grad:
        out.backward(seed)
        grads = [None if t.grad is None else t.grad.copy() for t in operands]
    return out.data.copy(), grads


def assert_matches(fused, composite, operands, rng):
    seed = rng.normal(size=fused(*operands).shape)
    out, grads = run(fused, operands, seed)
    want, want_grads = run(composite, operands, seed)
    assert np.array_equal(out, want)
    assert (grads is None) == (want_grads is None)
    for t, g, w in zip(operands, grads or [], want_grads or []):
        assert (g is None) == (not t.requires_grad)
        assert (w is None) == (not t.requires_grad)
        if g is not None:
            assert g.shape == t.shape
            assert rel_err(g, w) <= TOL


def tensors(rng, *shapes, grad=True):
    return [Tensor(rng.normal(size=s), requires_grad=grad) for s in shapes]


# -- linear ------------------------------------------------------------------------------

@pytest.mark.parametrize("lead", [(1,), (5,), (2, 3, 4)])
@pytest.mark.parametrize("frozen", [None, "x", "w", "b", "wb"])
def test_linear_matches_composite(lead, frozen):
    rng = np.random.default_rng(len(lead))
    x, w, b = tensors(rng, (*lead, 6), (6, 3), (3,))
    for name, t in zip("xwb", (x, w, b)):
        t.requires_grad = frozen is None or name not in frozen
    assert_matches(ad.linear, composite_linear, [x, w, b], rng)


def test_linear_module_is_one_node():
    rng = np.random.default_rng(1)
    layer = nn.Linear(6, 3, rng)
    x = Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
    y = layer(x)
    assert y._prev == (x, layer.w, layer.b)
    assert np.array_equal(y.data, composite_linear(x, layer.w, layer.b).data)


def test_linear_shape_errors():
    x, w, b = tensors(np.random.default_rng(2), (2, 6), (6, 3), (3,))
    with pytest.raises(ShapeError):
        ad.linear(x[0], w, b)
    with pytest.raises(ShapeError):
        ad.linear(x, w.transpose(), b)
    with pytest.raises(ShapeError):
        ad.linear(x, w, Tensor(np.zeros(6)))


# -- layer norm --------------------------------------------------------------------------

@pytest.mark.parametrize("lead", [(), (5,), (2, 3, 4)])
@pytest.mark.parametrize("frozen", [None, "x", "g", "b", "gb"])
def test_layer_norm_matches_composite(lead, frozen):
    rng = np.random.default_rng(10 + len(lead))
    x, gain, bias = tensors(rng, (*lead, 8), (8,), (8,))
    x.data *= 3.0
    for name, t in zip("xgb", (x, gain, bias)):
        t.requires_grad = frozen is None or name not in frozen
    assert_matches(ad.layer_norm, composite_layer_norm, [x, gain, bias], rng)


def test_layer_norm_of_a_constant_row():
    """Zero variance: eps keeps the scale finite, as in the composite."""
    rng = np.random.default_rng(11)
    x = Tensor(np.full((2, 8), 3.0), requires_grad=True)
    gain, bias = tensors(rng, (8,), (8,))
    assert_matches(ad.layer_norm, composite_layer_norm, [x, gain, bias], rng)


# -- attention -----------------------------------------------------------------------------

ATTENTION_SHAPES = {
    # SelfAttention over (B, T, tokens, d) split into 2 heads of 4
    "self-attention": ((2, 3, 2, 4, 4), (2, 3, 2, 4, 4)),
    # TCA's (T, heads, N, dh) for one clip and (B, T, heads, N, dh) for four
    "tca-clip": ((3, 2, 5, 8), (3, 2, 5, 8)),
    "tca-batch": ((4, 3, 2, 5, 8), (4, 3, 2, 5, 8)),
    # more keys than queries, and a value width of its own
    "rectangular": ((2, 3, 4), (2, 6, 4)),
}

# the same shapes before the head split: (..., N, d) operands and `heads`
MULTI_HEAD_SHAPES = {
    "self-attention": ((2, 3, 4, 8), (2, 3, 4, 8), 2),
    "tca-clip": ((3, 5, 16), (3, 5, 16), 2),
    "tca-batch": ((4, 3, 5, 16), (4, 3, 5, 16), 2),
    "rectangular": ((2, 3, 12), (2, 6, 12), 3),
    "four-heads": ((2, 4, 8), (2, 4, 8), 4),
}


@pytest.mark.parametrize("case", sorted(ATTENTION_SHAPES))
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("frozen", [None, "q", "k", "v", "qk"])
def test_attention_matches_composite(case, masked, frozen):
    q_shape, k_shape = ATTENTION_SHAPES[case]
    rng = np.random.default_rng(20 + len(q_shape))
    v_shape = (*k_shape[:-1], 3) if case == "rectangular" else k_shape
    q, k, v = tensors(rng, q_shape, k_shape, v_shape)
    for name, t in zip("qkv", (q, k, v)):
        t.requires_grad = frozen is None or name not in frozen
    nq, nk = q_shape[-2], k_shape[-2]
    mask = np.triu(np.full((nq, nk), -1e30), k=1) if masked else None
    scale = 1.0 / np.sqrt(8)
    assert_matches(lambda *a: ad.attention(*a, scale, mask=mask),
                   lambda *a: composite_attention(*a, scale, mask=mask),
                   [q, k, v], rng)


@pytest.mark.parametrize("case", sorted(MULTI_HEAD_SHAPES))
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("frozen", [None, "q", "k", "v", "qk"])
def test_multi_head_attention_matches_split_and_join(case, masked, frozen):
    """Heads split and joined inside the op against the Tensor-level split,
    the composite attention and the join."""
    q_shape, k_shape, heads = MULTI_HEAD_SHAPES[case]
    rng = np.random.default_rng(40 + len(q_shape) + heads)
    v_shape = (*k_shape[:-1], 6) if case == "rectangular" else k_shape
    q, k, v = tensors(rng, q_shape, k_shape, v_shape)
    for name, t in zip("qkv", (q, k, v)):
        t.requires_grad = frozen is None or name not in frozen
    nq, nk = q_shape[-2], k_shape[-2]
    mask = np.triu(np.full((nq, nk), -1e30), k=1) if masked else None
    scale = 1.0 / np.sqrt(q_shape[-1])
    assert_matches(lambda *a: ad.attention(*a, scale, mask=mask, heads=heads),
                   lambda *a: composite_attention(*a, scale, mask=mask,
                                                  heads=heads),
                   [q, k, v], rng)


def split_first_tca_attention(block, x):
    """`TcaBlock.attention` as it was: heads split first, then each head's
    keys and values mixed along time, one decay matrix each."""
    def history(seq):
        seq = seq.swapaxes(0, -4)
        t_len = seq.shape[0]
        mixed = ad.matmul(ad.decay_matrix(block.alpha, t_len),
                          seq.reshape(t_len, -1)).reshape(seq.shape)
        return mixed.swapaxes(0, -4)

    q = split_heads(block.wq(x), block.heads)
    k_hat = history(split_heads(block.wk(x), block.heads))
    v_hat = history(split_heads(block.wv(x), block.heads))
    out = composite_attention(q, k_hat, v_hat, 1.0 / np.sqrt(block.dim))
    return block.wo(join_heads(out))


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one-clip", "batched"])
def test_tca_attention_matches_the_split_first_path(lead):
    """Keys and values mixed along time before the head split: forward
    bit-equal, gradients within TOL, for one clip and a batch of clips."""
    rng = np.random.default_rng(50 + len(lead))
    block = TcaBlock(16, 2, 4, rng)
    block.alpha.data[...] = [0.8, -0.3, 1.2]
    x = Tensor(rng.normal(size=(*lead, 4, 3, 16)), requires_grad=True)
    params = [p for name, p in block.parameters().items()
              if name.split(".")[0] in ("wq", "wk", "wv", "wo", "alpha")]
    assert_matches(lambda x, *_: block.attention(x),
                   lambda x, *_: split_first_tca_attention(block, x),
                   [x, *params], rng)


def test_causal_mask_is_built_once_and_read_only():
    mask = nn.causal_mask(4)
    assert nn.causal_mask(4) is mask
    assert not mask.flags.writeable
    assert np.array_equal(mask, np.triu(np.full((4, 4), -1e30), k=1))


def test_attention_shape_errors():
    q, k, v = tensors(np.random.default_rng(3), (2, 3, 4), (2, 5, 4), (2, 4, 4))
    with pytest.raises(ShapeError):
        ad.attention(q, k, v, 0.5)
    with pytest.raises(ShapeError):
        ad.attention(q, Tensor(np.zeros((2, 5, 3))), Tensor(np.zeros((2, 5, 4))), 0.5)


# -- gate_mix ----------------------------------------------------------------------------

GATE_SHAPES = {
    # a scalar gate on vectors, and the cosine head's alpha on a stack of
    # embeddings
    "head-1d": ((), (8,), (8,)),
    "head-rows": ((), (5, 8), (5, 8)),
    # prototype attention's beta: the (T, m) Toeplitz matrix broadcasts
    # across the clips' (B, T, m) attention
    "pa-delta": ((), (3, 4, 6), (4, 6)),
    # the merge gate lam on (B, T, d) streams
    "merge": ((), (3, 4, 8), (3, 4, 8)),
    # a gate per entry
    "elementwise": ((2, 3), (2, 3), (2, 3)),
}


@pytest.mark.parametrize("case", sorted(GATE_SHAPES))
@pytest.mark.parametrize("frozen", [None, "g", "a", "b", "ab", "gab"])
def test_gate_mix_matches_composite(case, frozen):
    rng = np.random.default_rng(60 + len(case))
    logit, a, b = tensors(rng, *GATE_SHAPES[case])
    for name, t in zip("gab", (logit, a, b)):
        t.requires_grad = frozen is None or name not in frozen
    assert_matches(ad.gate_mix, composite_gate_mix, [logit, a, b], rng)


@pytest.mark.parametrize("logit", [-800.0, -30.0, 0.0, 30.0, 800.0])
def test_gate_mix_saturated_gates(logit):
    """Both branches of the stable sigmoid, and gates that round to 0 or 1."""
    rng = np.random.default_rng(61)
    a, b = tensors(rng, (4,), (4,))
    assert_matches(ad.gate_mix, composite_gate_mix,
                   [Tensor(logit, requires_grad=True), a, b], rng)


# -- cosine ------------------------------------------------------------------------------

@pytest.mark.parametrize("x_shape", [(5, 8)], ids=["rows"])
@pytest.mark.parametrize("frozen", [None, "x", "p"])
def test_cosine_matches_composite(x_shape, frozen):
    rng = np.random.default_rng(70 + len(x_shape))
    x, p = tensors(rng, x_shape, (6, 8))
    x.requires_grad = frozen != "x"
    p.requires_grad = frozen != "p"
    assert_matches(ad.cosine, composite_cosine, [x, p], rng)


def test_cosine_of_a_zero_row():
    """eps keeps the value finite, as in the composite."""
    rng = np.random.default_rng(71)
    x = Tensor(np.zeros((2, 8)))
    x.data[1] = rng.normal(size=8)
    p = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
    assert_matches(ad.cosine, composite_cosine, [x, p], rng)


@pytest.mark.parametrize("x_shape", [(5, 8)], ids=["rows"])
def test_relative_repr_with_a_prototype_subset(x_shape):
    rng = np.random.default_rng(72)
    x, protos = tensors(rng, x_shape, (6, 8))
    subset = np.array([1, 3, 4])
    assert_matches(lambda x, p: semantic.relative_repr(x, p, subset=subset),
                   lambda x, p: composite_cosine(x, p[subset]),
                   [x, protos], rng)


@pytest.mark.parametrize("subset", [None, [0, 2, 5]], ids=["all", "subset"])
@pytest.mark.parametrize("frozen_protos", [False, True])
def test_loss_sem_matches_composite(subset, frozen_protos, monkeypatch):
    """The detached embedding gets no gradient; learned prototypes get the
    composite's, frozen ones (the language-as-visual ablation) none."""
    rng = np.random.default_rng(73)
    z, protos = tensors(rng, (4, 8), (6, 8))
    protos.requires_grad = not frozen_protos
    k = 6 if subset is None else len(subset)
    target = Tensor(rng.uniform(-1.0, 1.0, size=(4, k)))
    pool = rng.dirichlet(np.ones(4), size=2)

    def loss(z, protos):
        return semantic.loss_sem(z, protos, target, subset=subset, pool=pool)

    fused = run(loss, [z, protos], np.ones(2))
    monkeypatch.setattr(ad, "cosine", composite_cosine)
    want = run(loss, [z, protos], np.ones(2))
    assert np.array_equal(fused[0], want[0])
    if frozen_protos:
        assert fused[1] is None and want[1] is None
    else:
        assert fused[1][0] is None and want[1][0] is None
        assert rel_err(fused[1][1], want[1][1]) <= TOL


def test_cosine_shape_errors():
    x, p = tensors(np.random.default_rng(74), (2, 8), (6, 8))
    with pytest.raises(ShapeError):
        ad.cosine(x, Tensor(np.zeros((6, 7))))
    with pytest.raises(ShapeError):
        ad.cosine(Tensor(np.zeros((2, 3, 8))), p)
    with pytest.raises(ShapeError):
        ad.cosine(x, Tensor(np.zeros(8)))
    with pytest.raises(ShapeError):
        ad.cosine(x[0], p)


# -- the model through fused ops against the model through composites ---------------------

@pytest.fixture
def composites(monkeypatch):
    """Route every caller of the fused ops through the old composites."""
    def use():
        monkeypatch.setattr(ad, "linear", composite_linear)
        monkeypatch.setattr(ad, "layer_norm", composite_layer_norm)
        monkeypatch.setattr(ad, "attention", composite_attention)
        monkeypatch.setattr(ad, "gate_mix", composite_gate_mix)
        monkeypatch.setattr(ad, "cosine", composite_cosine)
        monkeypatch.setattr(TcaBlock, "attention", split_first_tca_attention)
    return use


@pytest.mark.parametrize("setting", ["1", "3", "full"])
def test_model_matches_composite_model(setting, composites):
    """Loss and batched predictions bit-equal, gradients within TOL, for
    settings with and without TCA, PA and the cosine head."""
    model = make_model(setting, ratio=0.5)
    clips = make_clips(4)
    feats = np.stack([x for x, _, _ in clips])
    targets = [y for _, y, _ in clips]
    past = [p for _, _, p in clips]

    def loss_grads_and_predictions():
        params = model.parameters()
        for p in params.values():
            p.zero_grad()
        out = model.total_loss(feats, targets, WEIGHTS, past_labels=past)
        out["loss"].backward()
        return (out["loss"].data.copy(),
                {name: p.grad.copy() for name, p in params.items()
                 if p.grad is not None},
                model.predict(feats, n_steps=2))

    loss, grads, preds = loss_grads_and_predictions()
    composites()
    want_loss, want_grads, want_preds = loss_grads_and_predictions()
    assert np.array_equal(loss, want_loss)
    assert np.array_equal(preds, want_preds)
    assert grads.keys() == want_grads.keys()
    for name in want_grads:
        assert rel_err(grads[name], want_grads[name]) <= TOL, name


# -- sub ---------------------------------------------------------------------------------

def test_sub_is_one_node_with_the_composite_value():
    rng = np.random.default_rng(5)
    a, b = tensors(rng, (3, 4), (4,))
    d = a - b
    assert d._prev == (a, b)
    assert np.array_equal(d.data, (a + neg(b)).data)
    r = rsub(2.0, a)
    assert np.array_equal(r.data, (Tensor(2.0) + neg(a)).data)
    assert_matches(lambda a, b: a - b, lambda a, b: a + neg(b), [a, b], rng)
    assert_matches(lambda a: rsub(2.0, a), lambda a: Tensor(2.0) + neg(a), [a],
                   rng)


def test_first_gradient_is_a_private_copy():
    """`add` hands one array to both operands and `sum` a broadcast view;
    each operand's gradient must still be its own writable array."""
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    (a + b).backward(np.array([1.0, 1.0]))
    assert a.grad is not b.grad and a.grad.flags.writeable
    a.grad += 1.0
    assert np.array_equal(b.grad, [1.0, 1.0])
    c = Tensor(np.ones((2, 3)), requires_grad=True)
    c.sum().backward()
    assert c.grad.flags.writeable and c.grad.flags.owndata
    c.sum().backward()
    assert np.array_equal(c.grad, np.full((2, 3), 2.0))


# -- grad_check of each fused op ---------------------------------------------------------

def fused_cases(rng):
    x, w, b = tensors(rng, (2, 3, 5), (5, 4), (4,))
    rng.normal(size=5)     # a spare draw, so the operands below keep their values
    xn, gain, bias = tensors(rng, (2, 3, 6), (6,), (6,))
    q, k, v = tensors(rng, (2, 2, 4, 3), (2, 2, 4, 3), (2, 2, 4, 3))
    a, c = tensors(rng, (3, 4), (4,))
    lg = Tensor(0.3, requires_grad=True)
    mask = np.triu(np.full((4, 4), -1e30), k=1)

    def weighted(t):
        # a fixed random weighting: the plain sum of a layer norm is constant
        r = np.random.default_rng(t.data.size).normal(size=t.shape)
        return (t * r).sum()

    return {
        "linear": (lambda: weighted(ad.linear(x, w, b)), [x, w, b]),
        "layer_norm": (lambda: weighted(ad.layer_norm(xn, gain, bias)),
                       [xn, gain, bias]),
        "attention": (lambda: weighted(ad.attention(q, k, v, 0.7)), [q, k, v]),
        "attention-masked": (lambda: weighted(ad.attention(q, k, v, 0.7, mask)),
                             [q, k, v]),
        "attention-heads": (lambda: weighted(ad.attention(xn, xn * 0.5, xn, 0.7,
                                                          heads=2)), [xn]),
        "gate_mix": (lambda: weighted(ad.gate_mix(c, a, a * a)), [c, a]),
        "gate_mix-broadcast": (lambda: weighted(ad.gate_mix(lg, xn, gain)),
                               [lg, xn, gain]),
        "cosine": (lambda: weighted(ad.cosine(a, w)), [a, w]),
        "sub-broadcast": (lambda: weighted((a - c) * (c - a)), [a, c]),
        "rsub": (lambda: weighted(rsub(1.5, a * a)), [a]),
    }


@pytest.mark.parametrize("name", sorted(fused_cases(np.random.default_rng(0))))
def test_grad_check_fused_op(name):
    f, params = fused_cases(np.random.default_rng(30))[name]
    assert ad.grad_check(f, params) < 1e-6


# -- non-finite values ---------------------------------------------------------------------

def test_attention_rejects_an_infinite_score_with_checks_off():
    assert not ad.CHECK_FINITE
    q, k, v = tensors(np.random.default_rng(6), (3, 4), (3, 4), (3, 4))
    q.data[1, 2] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericError, match="attention received non-finite scores"):
        ad.attention(q, k, v, 0.5)


@pytest.mark.parametrize("op", ["linear", "layer_norm", "attention"])
def test_check_finite_names_the_fused_op(op, monkeypatch):
    monkeypatch.setattr(ad, "CHECK_FINITE", True)
    rng = np.random.default_rng(7)
    a, b, c = tensors(rng, (3, 4), (4, 4), (4,))
    if op == "linear":
        b.data[0, 0] = np.inf
        call = lambda: ad.linear(a, b, c)
    elif op == "layer_norm":
        c.data[0] = np.inf          # a finite variance, an infinite bias
        call = lambda: ad.layer_norm(a, Tensor(np.ones(4)), c)
    else:
        b.data[0, 0] = np.inf       # finite scores, an infinite value
        call = lambda: ad.attention(a, Tensor(np.ones((4, 4))), b, 0.5)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError,
                                                      match=f"'{op}'"):
        call()


def test_layer_norm_checks_its_variance(monkeypatch):
    """An input whose squares overflow gives a zero scale and a finite output,
    but the composite raised on the overflow; the fused op raises too."""
    monkeypatch.setattr(ad, "CHECK_FINITE", True)
    x = Tensor([[1e200, -1e200, 0.0, 0.0]])
    with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                   match="'layer_norm'"):
        ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))


def non_finite_cases():
    """Operands that made a composite raise under CHECK_FINITE, by case."""
    rows, protos = np.ones((2, 4)), np.ones((3, 4))
    big, nan = rows.copy(), rows.copy()
    big[1, 0] = 1e200                 # its square overflows, the cosine is 0
    nan[0, 2] = np.nan
    vec, inf = np.ones(4), np.ones(4)
    inf[3] = np.inf
    return {
        "cosine-x-norm-overflow": ("cosine", [big, protos]),
        "cosine-p-norm-overflow": ("cosine", [rows, big]),
        "cosine-nan": ("cosine", [nan, protos]),
        "gate_mix-inf-a": ("gate_mix", [0.0, inf, vec]),
        "gate_mix-closed-gate-inf-a": ("gate_mix", [-800.0, inf, vec]),
        "gate_mix-open-gate-inf-b": ("gate_mix", [800.0, vec, inf]),
        "gate_mix-nan-logit": ("gate_mix", [np.nan, vec, vec]),
    }


@pytest.mark.parametrize("case", sorted(non_finite_cases()))
def test_fused_op_raises_where_the_composite_raised(case, monkeypatch):
    monkeypatch.setattr(ad, "CHECK_FINITE", True)
    op, operands = non_finite_cases()[case]
    composite = {"cosine": composite_cosine, "gate_mix": composite_gate_mix}[op]
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError):
            composite(*[Tensor(o) for o in operands])
        with pytest.raises(NumericError, match=f"'{op}'"):
            getattr(ad, op)(*[Tensor(o) for o in operands])


# -- graph size --------------------------------------------------------------------------

def test_fused_node_counts(monkeypatch):
    """With the fused ops, and one clip run as a batch of one, the
    benchmark's gradcheck model (one clip) builds at most 151 nodes and one
    of grad_check's graph-free probes of it runs at most 87 ops; a four-clip
    batch of the train shape builds at most 153 nodes, and one clip's
    `predict` runs at most 56 ops. test_batch_oracle.test_node_counts keeps
    the older, looser bounds."""
    ops = []
    make = ad._make
    monkeypatch.setattr(ad, "_make", lambda *args: ops.append(args[2]) or make(*args))
    weights = LossWeights(1.0, 1.0, 1.0, 1.0, 1.0)
    model = bench_model(6, 3)
    feats = np.random.default_rng(3).normal(size=(3, 5, 16))
    one = model.total_loss(feats, 0, weights, past_labels=[None, 1, 2])["loss"]
    assert count_nodes(one) <= 151
    ops.clear()
    with ad.no_grad():
        model.total_loss(feats, 0, weights, past_labels=[None, 1, 2])
    assert len(ops) <= 87

    model = bench_model(12, 8)
    feats = np.random.default_rng(4).normal(size=(4, 8, 2, 16))
    past = [[None] + [1] * 7, None, [2, None] * 4, [None] * 8]
    four = model.total_loss(feats, [0, 5, 7, 11], weights, past_labels=past)["loss"]
    assert count_nodes(four) <= 153

    ops.clear()
    model.predict(feats[0])
    assert len(ops) <= 56
