"""The flat-buffer `Sgd` and `AdamW` against the per-tensor optimizers they
replaced.

The oracle classes below are those optimizers, unchanged. Every elementwise
operation of a step is the same, so unclipped training must match them bit
for bit: parameters, moments and the checkpoint bytes. Only the clip's
global norm is summed in another order (one dot product over the flat
gradient instead of a sum of per-tensor sums), so a clipped run is held to
CLIP_TOLERANCE instead.
"""

import numpy as np
import pytest

from sgear import dataio
from sgear.autodiff import Tensor
from sgear.decoder import DecoderConfig
from sgear.encoder import EncoderConfig
from sgear.errors import ConfigError
from sgear.model import TABLE3_SETTINGS, ModelConfig, SgearModel
from sgear.semantic import (LanguageTargets, LossWeights, ProtoStore,
                            init_visual_prototypes, loss_reg, loss_sem)
from sgear.trainer import AdamW, Sgd, save_checkpoint, train_step

K, T, D = 5, 4, 8
STEPS = 20
WEIGHTS = LossWeights(1.0, 0.5, 1.0, 1.0, 0.5)
# largest difference allowed between a parameter entry of a clipped flat run
# and the oracle's after STEPS steps (parameters are of order 1): the two
# norms differ in the last bits only, which AdamW's normalisation amplifies
# to at most ~5e-12 in these runs
CLIP_TOLERANCE = 1e-10


# -- oracle: the per-tensor optimizers ------------------------------------------------

class OracleSgd:
    """SGD with momentum; weight decay is coupled (added to the gradient)."""

    def __init__(self, params: dict, momentum=0.9, weight_decay=0.0):
        self.params = dict(sorted(params.items()))
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, lr):
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad + self.weight_decay * p.data
            v = self.velocity[name]
            v *= self.momentum
            v += g
            p.data -= lr * v

    def state_arrays(self):
        """The velocities concatenated in name order, as the flat `Sgd`
        holds them."""
        return {"velocity": np.concatenate([v.ravel()
                                            for v in self.velocity.values()])}


class OracleAdamW:
    """Adam with decoupled weight decay."""

    def __init__(self, params: dict, betas=(0.9, 0.999), weight_decay=0.0,
                 eps=1e-8):
        self.params = dict(sorted(params.items()))
        self.betas = betas
        self.weight_decay = weight_decay
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, lr):
        self.t += 1
        b1, b2 = self.betas
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / c1
            v_hat = self.v[name] / c2
            p.data -= lr * self.weight_decay * p.data
            p.data -= lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_arrays(self):
        """The step count and the moments concatenated in name order, as the
        flat `AdamW` holds them."""
        return {"t": np.array([float(self.t)]),
                "m": np.concatenate([m.ravel() for m in self.m.values()]),
                "v": np.concatenate([v.ravel() for v in self.v.values()])}


def oracle_clip(params, clip):
    if not clip:
        return
    norm = np.sqrt(sum(float((p.grad ** 2).sum())
                       for p in params.values() if p.grad is not None))
    if norm > clip:
        s = clip / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= s


def oracle_train_step(batch, model, optimizer, lr, grad_clip=None):
    """The per-tensor train step: clip the parameters' own gradients, then
    step the oracle optimizer."""
    params = model.parameters()
    for p in params.values():
        p.zero_grad()
    feats, targets, past_labels = zip(*batch)
    out = model.total_loss(np.stack(feats), list(targets), WEIGHTS,
                           past_labels=list(past_labels))
    out["loss"].backward()
    oracle_clip(params, grad_clip)
    optimizer.step(lr)
    return float(out["loss"].data)


# -- set-up -------------------------------------------------------------------------

OPTIMIZERS = {
    "sgd": (Sgd, OracleSgd, {"momentum": 0.9, "weight_decay": 1e-3}),
    "adamw": (AdamW, OracleAdamW, {"weight_decay": 1e-2}),
}


def make_model(setting):
    config = ModelConfig(
        num_classes=K, frames=T, d=D, encoder=EncoderConfig(mode="passthrough", d=D),
        n_tca=2, tca_heads=2,
        decoder=DecoderConfig(d=D, layers=2, heads=2, mlp_hidden=16, max_len=T),
        toggles=TABLE3_SETTINGS[setting])
    language = ProtoStore(kind="language", tensor=Tensor(
        dataio.language_prototypes_from_cooccurrence(np.full((K, K), 1.0 / K), D)))
    return SgearModel(config, language_store=language)


def batches(n=STEPS, size=2, seed=1):
    rng = np.random.default_rng(seed)
    return [[(rng.normal(size=(T, 2, D)), int(rng.integers(K)),
              [int(c) for c in rng.integers(K, size=T)]) for _ in range(size)]
            for _ in range(n)]


def lr_of(step):
    return 5e-2 * (1.0 + step) / STEPS


def train_both(setting, name, grad_clip=None):
    """(flat model, flat optimizer, oracle model, oracle optimizer) after
    STEPS steps of the same batches from the same initial parameters."""
    flat_cls, oracle_cls, kwargs = OPTIMIZERS[name]
    flat_model, oracle_model = make_model(setting), make_model(setting)
    flat = flat_cls(flat_model.parameters(), **kwargs)
    oracle = oracle_cls(oracle_model.parameters(), **kwargs)
    for step, batch in enumerate(batches()):
        got = train_step(batch, flat_model, WEIGHTS, flat, lr_of(step),
                         grad_clip=grad_clip)
        want = oracle_train_step(batch, oracle_model, oracle, lr_of(step),
                                 grad_clip=grad_clip)
        if grad_clip is None:
            assert got["total"] == want, step
    return flat_model, flat, oracle_model, oracle


def assert_bit_equal(got: dict, want: dict):
    assert list(got) == list(want)
    for name in want:
        a, b = np.asarray(got[name]), np.asarray(want[name])
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def data_of(params):
    return {k: p.data for k, p in params.items()}


# -- bit-exact against the oracle ---------------------------------------------------------

@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
@pytest.mark.parametrize("setting", sorted(TABLE3_SETTINGS))
def test_unclipped_training_is_bit_exact(setting, name):
    flat_model, flat, oracle_model, oracle = train_both(setting, name)
    assert_bit_equal(data_of(flat_model.parameters()),
                     data_of(oracle_model.parameters()))
    assert_bit_equal(flat.state_arrays(), oracle.state_arrays())


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_checkpoint_bytes_match_the_oracle(tmp_path, name):
    flat_model, flat, oracle_model, oracle = train_both("full", name)
    save_checkpoint(tmp_path / "flat.sgck", flat_model, flat, step=STEPS)
    save_checkpoint(tmp_path / "oracle.sgck", oracle_model, oracle, step=STEPS)
    assert ((tmp_path / "flat.sgck").read_bytes()
            == (tmp_path / "oracle.sgck").read_bytes())


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_parameters_are_views_of_one_buffer(name):
    model = make_model("full")
    params = model.parameters()
    before = {k: p.data.copy() for k, p in params.items()}
    flat_cls, _, kwargs = OPTIMIZERS[name]
    opt = flat_cls(params, **kwargs)
    assert opt.flat.dtype == np.float64
    assert opt.flat.size == sum(v.size for v in before.values())
    start = 0
    for key in sorted(params):                        # sorted-name layout
        data = params[key].data
        assert np.array_equal(data, before[key]) and data.shape == before[key].shape
        assert np.shares_memory(data, opt.flat[start:start + data.size])
        start += data.size
    assert model.parameters()["head.alpha"] is params["head.alpha"]


# -- parameters without a gradient, 0-d parameters, hand-built optimizers -------------

def tensors(seed=0):
    rng = np.random.default_rng(seed)
    return {"a": Tensor(rng.normal(size=(3, 2)), requires_grad=True),
            "b": Tensor(rng.normal(size=4), requires_grad=True),
            "c": Tensor(np.asarray(0.7), requires_grad=True),   # 0-d
            "d": Tensor(rng.normal(size=(2, 1, 2)), requires_grad=True)}


def step_both(name, grads_per_step, lr=0.1):
    """Run the flat and the oracle optimizer over the same hand-set
    gradients (None leaves a parameter without one); return both."""
    flat_cls, oracle_cls, kwargs = OPTIMIZERS[name]
    flat_params, oracle_params = tensors(), tensors()
    flat = flat_cls(flat_params, **kwargs)
    oracle = oracle_cls(oracle_params, **kwargs)
    for grads in grads_per_step:
        for params in (flat_params, oracle_params):
            for key, p in params.items():
                g = grads.get(key)
                p.grad = None if g is None else np.array(g)
        flat.step(lr)
        oracle.step(lr)
    return flat, flat_params, oracle, oracle_params


def hand_grads(steps, missing=None, seed=5):
    """Random gradients per step; `missing` maps a step to the parameters
    that have none on it."""
    rng = np.random.default_rng(seed)
    shapes = {k: p.shape for k, p in tensors().items()}
    return [{k: rng.normal(size=shape) for k, shape in shapes.items()
             if k not in (missing or {}).get(i, ())} for i in range(steps)]


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_parameter_without_gradient_is_untouched(name):
    start = {k: p.data.copy() for k, p in tensors().items()}
    flat, params, oracle, oracle_params = step_both(
        name, hand_grads(5, {i: ("b",) for i in range(5)}))
    assert params["b"].data.tobytes() == start["b"].tobytes()
    for key, values in flat.state_arrays().items():
        if key != "t":
            assert not flat._views(values)["b"].any(), key   # no moment change
    assert_bit_equal(data_of(params), data_of(oracle_params))
    assert_bit_equal(flat.state_arrays(), oracle.state_arrays())
    assert not np.array_equal(params["a"].data, start["a"])


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_gradients_that_come_and_go_match_the_oracle(name):
    """A parameter may lack a gradient on some steps only: its moments keep
    what earlier steps gave them, and later steps go on from there."""
    missing = {1: ("a", "c"), 2: ("c",), 4: ("a", "b", "c", "d")}
    flat, params, oracle, oracle_params = step_both(name, hand_grads(6, missing))
    assert_bit_equal(data_of(params), data_of(oracle_params))
    assert_bit_equal(flat.state_arrays(), oracle.state_arrays())


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_zero_d_parameter(name):
    flat, params, oracle, oracle_params = step_both(name, hand_grads(4))
    assert params["c"].data.shape == () and params["c"].grad.shape == ()
    assert_bit_equal(data_of(params), data_of(oracle_params))
    assert_bit_equal(flat.state_arrays(), oracle.state_arrays())


def test_hand_built_adamw_on_prototypes():
    """test_05's optimizer: a visual store's Tensor and a free Tensor."""
    k, d = 6, 4
    lang = ProtoStore(kind="language", tensor=Tensor(
        dataio.language_prototypes_from_cooccurrence(np.full((k, k), 1.0 / k), d)))
    targets = LanguageTargets(lang)
    runs = []
    for cls in (AdamW, OracleAdamW):
        visual = init_visual_prototypes("random", k, d, seed=0)
        z = Tensor(np.random.default_rng(1).normal(0, 0.5, (k, d)),
                   requires_grad=True)
        opt = cls({"protos": visual.tensor, "z": z})
        for _ in range(15):
            visual.tensor.zero_grad()
            z.zero_grad()
            total = None
            for y in range(k):
                term = (loss_sem(z[y:y + 1], visual.tensor, targets.row([y]))
                        + loss_reg(z[y:y + 1], visual.tensor, [y]))
                total = term if total is None else total + term
            total.backward()
            opt.step(0.02)
        runs.append(({"protos": visual.tensor.data, "z": z.data}, opt))
    (got, flat), (want, oracle) = runs
    assert_bit_equal(got, want)
    assert_bit_equal(flat.state_arrays(), oracle.state_arrays())
    assert np.shares_memory(got["protos"], flat.flat)


@pytest.mark.parametrize("cls", [Sgd, AdamW])
def test_tensor_under_two_names_is_a_config_error(cls):
    p = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ConfigError, match="two names"):
        cls({"a": p, "b": p})


# -- the clip and the train step ------------------------------------------------------

@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
@pytest.mark.parametrize("setting", ["1", "4", "full"])
def test_clipped_training_within_tolerance(setting, name):
    clip = 0.1
    flat_model, flat, oracle_model, oracle = train_both(setting, name,
                                                        grad_clip=clip)
    got, want = data_of(flat_model.parameters()), data_of(oracle_model.parameters())
    assert list(got) == list(want)
    for key in want:
        assert np.abs(got[key] - want[key]).max() <= CLIP_TOLERANCE, key
    # the clip was active: unclipped gradients have a larger norm
    grads = [p.grad for p in flat.params.values() if p.grad is not None]
    assert np.sqrt(sum(float((g ** 2).sum()) for g in grads)) > clip


def test_clip_scales_the_flat_gradient_only():
    """`p.grad` keeps the unclipped gradient; the step uses the clipped one."""
    params = tensors()
    grads = hand_grads(1)[0]
    for key, p in params.items():
        p.grad = grads[key].copy()
    norm = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
    opt = Sgd(params, momentum=0.0)
    start = opt.flat.copy()
    opt.step(1.0, clip=norm / 4)
    step = start - opt.flat
    assert np.isclose(np.sqrt(step @ step), norm / 4, rtol=1e-12)
    for key, p in params.items():
        assert np.array_equal(p.grad, grads[key])


def test_train_step_reads_the_optimizer_registry(monkeypatch):
    model = make_model("full")
    opt = AdamW(model.parameters())

    def walk():
        raise AssertionError("train_step walked the model")

    monkeypatch.setattr(model, "parameters", walk, raising=False)
    record = train_step(batches(1)[0], model, WEIGHTS, opt, 1e-3)
    assert np.isfinite(record["total"]) and opt.t == 1
    # no optimizer: the model is walked to zero its gradients
    calls = []
    monkeypatch.setattr(model, "parameters",
                        lambda: calls.append(1) or SgearModel.parameters(model),
                        raising=False)
    train_step(batches(1)[0], model, WEIGHTS, None, 1e-3)
    assert calls == [1]
