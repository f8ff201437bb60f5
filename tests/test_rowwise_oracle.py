"""The row-wise head, losses and decay-matrix TCA against the per-step loop
they replaced.

The oracle below is the per-step form of the same model: it classifies one
decoder step at a time, calls each loss once per labelled step, sums T-1
separate feature mse terms, picks PA prototypes frame by frame and runs TCA's
history sum as a recurrence. The model's own path must give the same loss
parts, probabilities and parameter gradients within 1e-12.
"""

import numpy as np
import pytest

import sgear.autodiff as ad
from sgear import dataio, pa, tca
from sgear.autodiff import Tensor
from sgear.decoder import DecoderConfig
from sgear.encoder import EncoderConfig
from sgear.model import TABLE3_SETTINGS, ModelConfig, SgearModel
from sgear.semantic import LossWeights, ProtoStore

from test_fused_ops import div, rsub, sigmoid

TOL = 1e-12
K, T, D = 6, 5, 8
WEIGHTS = LossWeights(sem=1.3, reg=0.7, cls=1.1, past=0.9, feat=0.6)
PAST_LABELS = {
    "all-known": [0, 3, 1, 5, 2],
    "partly-known": [None, 4, None, 2, None],
    "none": None,
}


# -- oracle: the per-step code --------------------------------------------------

def oracle_aggregate_kv(alpha, *seqs):
    """The recurrence along the time axis -3 of (..., T, N, d) sequences."""
    mixed = []
    for seq in seqs:
        acc = [seq[..., 0, :, :]]
        for t in range(1, seq.shape[-3]):
            acc.append(seq[..., t, :, :] + alpha[t - 1] * acc[-1])
        mixed.append(stack(acc, axis=-3))
    return mixed


def stack(tensors, axis=0):
    """The tensors stacked on a new axis `axis` of the result, as a concat
    of reshapes; bit-equal in value and gradient to a stack op."""
    shape = tensors[0].shape
    at = axis % (len(shape) + 1)
    return ad.concat([t.reshape(*shape[:at], 1, *shape[at:]) for t in tensors],
                     axis=at)


def oracle_select_prototypes(sims, k):
    per_frame = []
    for t in range(sims.shape[0]):
        order = np.argsort(-sims[t], kind="stable")
        per_frame.append([int(i) for i in order[:k]])
    return np.array([i for row in per_frame for i in row], dtype=np.intp)


def oracle_l1_mean(a, b):
    return (a - b).abs().mean()


def oracle_mse(a, b):
    return ((a - b) ** 2).mean()


def oracle_relative_repr(x, protos, subset=None):
    p = protos if subset is None else protos[np.asarray(subset, dtype=np.intp)]
    xn = ((x * x).sum()) ** 0.5
    pn = ((p * p).sum(axis=1)) ** 0.5
    num = ad.matmul(p, x.reshape(-1, 1)).reshape(-1)
    return div(num, xn * pn + 1e-8)


def oracle_cross_entropy(logits, y):
    """Cross-entropy of one (K,) step's logits as a scalar."""
    return ad.cross_entropy(logits.reshape(1, -1), [y]).sum()


def oracle_step_logits(model, z):
    """One step's (d,) embedding through the head; the linear layer runs on
    it as one row."""
    sub = model._subset_or_none()
    head = model.head
    if model.use_cosine_head:
        protos = model.visual_store.tensor
        r = oracle_relative_repr(z, protos, subset=sub)
        p = protos if sub is None else protos[np.asarray(sub, dtype=np.intp)]
        agg = ad.matmul(ad.softmax(r, axis=-1).reshape(1, -1), p).reshape(-1)
        gate = sigmoid(head.alpha)
        z = gate * z + rsub(1.0, gate) * agg
    logits = head.w_cls(z.reshape(1, -1)).reshape(-1)
    return logits, ad.softmax(logits, axis=-1)


def oracle_forward(model, inputs, target, past_labels):
    t_len = model.config.frames
    sub = model._subset_or_none()
    protos = model.visual_store.tensor if model.visual_store else None
    merged = model.encode_merge(inputs)
    future = model.decoder.decode(merged)

    logits_final, probs_final = oracle_step_logits(model, future[t_len - 1])
    parts = {"cls": oracle_cross_entropy(logits_final, target)}
    step_targets = [(t_len - 1, target)]
    past_terms = []
    for t in range(t_len - 1):
        y_next = past_labels[t + 1] if past_labels else None
        if y_next is not None:
            step_targets.append((t, y_next))
            logits_t, _ = oracle_step_logits(model, future[t])
            past_terms.append(oracle_cross_entropy(logits_t, y_next))
    parts["past"] = (sum(past_terms[1:], past_terms[0]) if past_terms
                     else Tensor(np.asarray(0.0)))

    sem_terms, reg_terms = [], []
    for t, y in step_targets:
        if model.config.toggles.sem:
            row = model.language_targets.matrix[y]
            if sub is not None:
                row = row[sub]
            r_z = oracle_relative_repr(future[t].detach(), protos, subset=sub)
            sem_terms.append(oracle_l1_mean(r_z, Tensor(row)))
        if model.use_cosine_head:
            reg_terms.append(oracle_mse(future[t], protos[y].detach()))
    parts["sem"] = (sum(sem_terms[1:], sem_terms[0]) * (1.0 / len(sem_terms))
                    if sem_terms else Tensor(np.asarray(0.0)))
    parts["reg"] = (sum(reg_terms[1:], reg_terms[0]) * (1.0 / len(reg_terms))
                    if reg_terms else Tensor(np.asarray(0.0)))

    feat = oracle_mse(future[0], merged[1].detach())
    for t in range(1, t_len - 1):
        feat = feat + oracle_mse(future[t], merged[t + 1].detach())
    parts["feat"] = feat
    return {"logits": logits_final, "probs": probs_final, "parts": parts,
            "past_empty": not past_terms}


# -- comparison -------------------------------------------------------------------

def make_model(setting, ratio):
    protos = dataio.language_prototypes_from_cooccurrence(
        np.random.default_rng(7).dirichlet(np.ones(K), size=K), D)
    config = ModelConfig(
        num_classes=K, frames=T, d=D,
        encoder=EncoderConfig(mode="passthrough", d=D),
        n_tca=1, tca_heads=2, pa_k=2,
        decoder=DecoderConfig(d=D, layers=1, heads=2, mlp_hidden=16, max_len=T),
        toggles=TABLE3_SETTINGS[setting], subset_ratio=ratio, seed=4)
    model = SgearModel(config, language_store=ProtoStore(
        kind="language", tensor=Tensor(protos)))
    # move TCA's decay off its all-ones start so every product is exercised
    if model.tca is not None:
        for block in model.tca.blocks:
            block.alpha.data[...] = np.linspace(0.9, -0.4, T - 1)
    return model


def model_forward(model, inputs, target, past_labels):
    """The model's own parts, and its head's logits and probabilities on the
    final step."""
    future = model.decoder.decode(model.encode_merge(inputs[None]))
    logits, probs = model.step_logits(future[:, -1])
    return {"parts": model.forward(inputs, target, past_labels=past_labels),
            "logits": logits[0], "probs": probs[0]}


def loss_and_grads(model, run):
    params = model.parameters()
    for p in params.values():
        p.zero_grad()
    out = run()
    total = sum((getattr(WEIGHTS, name) * part
                 for name, part in out["parts"].items()), Tensor(0.0))
    total.backward()
    grads = {name: p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
             for name, p in params.items()}
    return out, grads


def close(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.all(np.abs(a - b) <= TOL * np.maximum(1.0, np.abs(b)))


@pytest.mark.parametrize("labels", sorted(PAST_LABELS))
@pytest.mark.parametrize("ratio", [1.0, 0.5])
@pytest.mark.parametrize("setting", ["1", "2", "3", "4", "5", "full"])
def test_rowwise_forward_matches_per_step_oracle(setting, ratio, labels, monkeypatch):
    model = make_model(setting, ratio)
    inputs = np.random.default_rng(11).normal(size=(T, 2, D))
    target, past_labels = 4, PAST_LABELS[labels]

    new, new_grads = loss_and_grads(
        model, lambda: model_forward(model, inputs, target, past_labels))
    monkeypatch.setattr(tca, "aggregate_kv", oracle_aggregate_kv)
    monkeypatch.setattr(pa, "select_prototypes", oracle_select_prototypes)
    old, old_grads = loss_and_grads(
        model, lambda: oracle_forward(model, inputs, target, past_labels))

    assert set(new["parts"]) == set(old["parts"])
    for name in old["parts"]:
        assert close(new["parts"][name].data, old["parts"][name].data), name
    assert close(new["logits"].data, old["logits"].data)
    assert close(new["probs"].data, old["probs"].data)
    assert (float(new["parts"]["past"].data) == 0.0) == old["past_empty"]
    assert set(new_grads) == set(old_grads)
    for name, grad in old_grads.items():
        assert close(new_grads[name], grad), name


# -- decay matrix -----------------------------------------------------------------

ALPHA = np.array([0.7, 0.0, -1.3, 2.0, -0.5])


def test_decay_matrix_entries_are_direct_products():
    m = ad.decay_matrix(Tensor(ALPHA), 6).data
    for t in range(6):
        for s in range(6):
            expect = np.prod(ALPHA[s:t]) if s <= t else 0.0
            assert m[t, s] == expect


@pytest.mark.parametrize("t_len", [1, 2, 6])
def test_decay_matrix_layout_is_cached_and_bit_equal(t_len):
    """The cached triangle indices and mask build the matrix the per-call
    np.tril_indices and np.tril did, bit for bit."""
    alpha = ALPHA[:t_len - 1]
    factors = np.ones((t_len, t_len))
    rows, cols = np.tril_indices(t_len, -1)
    factors[rows, cols] = alpha[cols]
    want = np.tril(np.cumprod(factors[:, ::-1], axis=1)[:, ::-1])
    assert np.array_equal(ad.decay_matrix(Tensor(alpha), t_len).data, want)
    layout = ad._decay_layout(t_len)
    assert ad._decay_layout(t_len) is layout
    assert not any(a.flags.writeable for a in layout)


def test_decay_matrix_matches_recurrence_with_zero_and_negative_alpha():
    seq = Tensor(np.random.default_rng(5).normal(size=(6, 2, 3)))
    got = tca.aggregate_kv(Tensor(ALPHA), seq)[0].data
    want = oracle_aggregate_kv(Tensor(ALPHA), seq)[0].data
    assert np.abs(got - want).max() <= TOL


def test_decay_matrix_gradient():
    rng = np.random.default_rng(6)
    alpha = Tensor(ALPHA.copy(), requires_grad=True)
    seq = Tensor(rng.normal(size=(6, 2, 3)), requires_grad=True)
    weight = Tensor(rng.normal(size=(6, 2, 3)))
    err = ad.grad_check(
        lambda: (tca.aggregate_kv(alpha, seq)[0] * weight).sum(), [alpha, seq])
    assert err < 1e-8


def test_decay_matrix_gradient_matches_recurrence():
    rng = np.random.default_rng(8)
    seq_data = rng.normal(size=(6, 4)).reshape(6, 2, 2)
    weight = Tensor(rng.normal(size=(6, 4)).reshape(6, 2, 2))
    grads = []
    for aggregate in (tca.aggregate_kv, oracle_aggregate_kv):
        alpha = Tensor(ALPHA.copy(), requires_grad=True)
        (aggregate(alpha, Tensor(seq_data))[0] * weight).sum().backward()
        grads.append(alpha.grad)
    assert close(*grads)


def test_stack_helper_equals_a_stack_in_value_and_gradient():
    rng = np.random.default_rng(10)
    rows = [Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(4)]
    weight = rng.normal(size=(4, 2, 3))
    out = stack(rows)
    assert np.array_equal(out.data, np.stack([r.data for r in rows]))
    (out * Tensor(weight)).sum().backward()
    for i, r in enumerate(rows):
        assert np.array_equal(r.grad, weight[i])


# -- row-wise cross-entropy and prototype selection ---------------------------------

def test_cross_entropy_rows_equal_single_rows_and_gradcheck():
    rng = np.random.default_rng(9)
    logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    targets = [3, 0, 4, 3]
    rows = ad.cross_entropy(logits, targets).data
    for i, y in enumerate(targets):
        assert rows[i] == ad.cross_entropy(Tensor(logits.data[i:i + 1]), [y]).data[0]
    weight = Tensor(rng.normal(size=4))
    assert ad.grad_check(
        lambda: (ad.cross_entropy(logits, targets) * weight).sum(), [logits]) < 1e-8


def test_select_prototypes_matches_per_frame_loop_with_ties():
    sims = np.random.default_rng(10).integers(0, 3, size=(7, 5)).astype(float)
    for k in (1, 2, 5):
        got = pa.select_prototypes(sims, k)
        assert np.array_equal(got, oracle_select_prototypes(sims, k))
        assert got.dtype == np.intp
