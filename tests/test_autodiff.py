"""Oracle tests for the autodiff core: hand values, brute-force oracles and
finite-difference gradient checks."""

import numpy as np
import pytest

import sgear.autodiff as ad
from sgear import semantic
from sgear.autodiff import Tensor
from sgear.errors import NumericError, ShapeError

from test_fused_ops import sigmoid


def exp(x):
    """The old `Tensor.exp` op, kept as grad_check material."""
    out = ad._make(np.exp(x.data), (x,), "exp")
    if out.requires_grad:
        out._backward = lambda g: x._accum(g * out.data)
    return out


def log(x):
    """The old `Tensor.log` op, kept as grad_check material."""
    out = ad._make(np.log(x.data), (x,), "log")
    if out.requires_grad:
        out._backward = lambda g: x._accum(g / x.data)
    return out


def triple_loop_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def op_case(rng, trial):
    """Trial `trial` of the per-op property suite: a scalar loss through one
    differentiable op on fresh random operands, and the tensors to check."""
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    v = Tensor(rng.normal(size=4), requires_grad=True)
    g = Tensor(np.ones(4) + 0.1 * rng.normal(size=4), requires_grad=True)
    rng.normal(size=4)       # a spare draw, so c_mat keeps its values
    c_mat = Tensor(rng.normal(size=(3, 4)))
    fns = [
        lambda: ad.matmul(a, b).sum(),
        lambda: ad.softmax(a, axis=-1)[1].sum(),
        lambda: semantic.relative_repr(v.reshape(1, -1), c_mat).sum(),
        lambda: ad.cross_entropy(v.reshape(1, -1), [trial % 4]).sum(),
        lambda: sigmoid(a).mean(),
        lambda: ad.gelu(a).sum(),
        lambda: ad.layer_norm(a, g, v).sum(),
        lambda: (a - c_mat).abs().mean(),
        lambda: ((a - c_mat) ** 2).mean(),
        lambda: log(exp(a)).sum(),
        lambda: a.transpose(1, 0).reshape(-1).mean(),
        lambda: ad.concat([v.reshape(1, -1), a[0].reshape(1, -1)],
                          axis=0).sum(),
    ]
    return fns[trial % len(fns)], [a, b, v, g]


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ad.matmul(a, b).data, b.data)

    def test_selector_row(self):
        out = ad.matmul(Tensor([[1.0, 0.0]]), Tensor([[0.0], [5.0]]))
        assert np.array_equal(out.data, [[0.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        got = ad.matmul(Tensor(a), Tensor(b)).data
        assert np.abs(got - triple_loop_matmul(a, b)).max() < 1e-12

    def test_random_sizes_vs_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, k, m = rng.integers(1, 9, size=3)
            a, b = rng.normal(size=(n, k)), rng.normal(size=(k, m))
            got = ad.matmul(Tensor(a), Tensor(b)).data
            assert np.abs(got - triple_loop_matmul(a, b)).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(ad.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_shift_invariance_no_overflow(self):
        out = ad.softmax(Tensor([1000.0, 1000.0, 1000.0])).data
        assert np.allclose(out, 1 / 3)
        a = ad.softmax(Tensor([1.0, 2.0, 3.0])).data
        b = ad.softmax(Tensor([101.0, 102.0, 103.0])).data
        assert np.abs(a - b).max() < 1e-12

    def test_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        expect = np.exp(x) / np.exp(x).sum()
        assert np.abs(ad.softmax(Tensor(x)).data - expect).max() < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 7))
        sums = ad.softmax(Tensor(x), axis=-1).data.sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-9

    def test_non_finite_input(self):
        with pytest.raises(NumericError):
            ad.softmax(Tensor([np.nan, 0.0]))


def cosine(a, b):
    """The model's differentiable cosine, `semantic.relative_repr`, of two
    vectors."""
    return float(semantic.relative_repr(Tensor([a]), Tensor([b])).data[0, 0])


class TestCosineSim:
    def test_self_similarity(self):
        v = [3.0, -1.0, 2.0]
        assert abs(cosine(v, v) - 1.0) < 1e-6

    def test_orthogonality(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        got = cosine([1.0, 2.0], [2.0, 1.0])
        assert abs(got - 0.8) < 1e-7   # epsilon in the denominator shifts ~2e-9

    def test_zero_vectors(self):
        assert cosine([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = cosine(rng.normal(size=4), rng.normal(size=4))
            assert -1 - 1e-9 <= c <= 1 + 1e-9


class TestCrossEntropy:
    def test_two_way_symmetry(self):
        got = float(ad.cross_entropy(Tensor([[0.0, 0.0]]), [0]).data[0])
        assert abs(got - np.log(2)) < 1e-12

    def test_saturation(self):
        assert float(ad.cross_entropy(Tensor([[100.0, 0.0]]), [0]).data[0]) < 1e-9

    def test_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        expect = -np.log(np.exp(3.0) / np.exp(x).sum())
        got = float(ad.cross_entropy(Tensor([x]), [2]).data[0])
        assert abs(got - expect) < 1e-9

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            ad.cross_entropy(Tensor([[0.0, 0.0]]), [2])

    def test_takes_rows_of_logits_only(self):
        with pytest.raises(ShapeError):
            ad.cross_entropy(Tensor([0.0, 0.0]), 0)
        with pytest.raises(ShapeError):
            ad.cross_entropy(Tensor([[0.0, 0.0]]), 0)


class TestSmallOps:
    def test_sigmoid_zero(self):
        assert float(sigmoid(Tensor(0.0)).data) == 0.5

    def test_l1_mean_identity(self):
        v = Tensor([1.0, -2.0, 3.0])
        assert float((v - v).abs().mean().data) == 0.0

    def test_mse_hand_value(self):
        got = float(((Tensor([1.0, 2.0]) - Tensor([0.0, 0.0])) ** 2).mean().data)
        assert abs(got - 2.5) < 1e-12

    def test_layer_norm_normalizes(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 8)))
        y = ad.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        assert np.abs(y.mean(axis=-1)).max() < 1e-9
        assert np.abs(y.std(axis=-1) - 1.0).max() < 1e-3

    def test_gelu_values(self):
        # gelu(0) = 0; large x passes through; large negative goes to 0
        x = Tensor([0.0, 10.0, -10.0])
        y = ad.gelu(x).data
        assert y[0] == 0.0 and abs(y[1] - 10.0) < 1e-9 and abs(y[2]) < 1e-9


class TestGradCheck:
    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        err = ad.grad_check(lambda: (x * x).sum(), [x])
        assert err < 1e-9
        x.zero_grad()
        (x * x).sum().backward()
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_cross_entropy_chain(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.normal(size=6), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        def f():
            return ad.cross_entropy(ad.matmul(logits.reshape(1, -1), w), [3]).sum()
        assert ad.grad_check(f, [logits, w]) < 1e-6

    def test_per_op_property_100_trials(self):
        """Every differentiable op passes grad_check < 1e-6 on random inputs."""
        rng = np.random.default_rng(6)
        worst = 0.0
        for trial in range(100):
            worst = max(worst, ad.grad_check(*op_case(rng, trial)))
        assert worst < 1e-6

    def test_grad_accumulation_and_zeroing(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0
        y.backward(np.array([1.0]))
        y2 = x * 3.0
        y2.backward(np.array([1.0]))
        assert np.allclose(x.grad, [6.0])   # accumulates across backwards
        x.zero_grad()
        assert x.grad is None

    def test_full_loss_tiny_model(self):
        """Composite loss over a tiny model graph checks below 1e-4."""
        from sgear.model import ModelConfig, SgearModel
        from sgear.encoder import EncoderConfig
        from sgear.decoder import DecoderConfig
        from sgear.semantic import LossWeights, ProtoStore
        from sgear import dataio

        k, d, t = 4, 8, 3
        rng = np.random.default_rng(7)
        lang = ProtoStore(kind="language", tensor=Tensor(
            dataio.language_prototypes_from_cooccurrence(np.full((k, k), 1 / k), d)))
        config = ModelConfig(
            num_classes=k, frames=t, d=d,
            encoder=EncoderConfig(mode="passthrough", d=d),
            n_tca=1, tca_heads=2,
            decoder=DecoderConfig(d=d, layers=1, heads=2, mlp_hidden=16,
                                  max_len=t),
            seed=7)
        model = SgearModel(config, language_store=lang)
        feats = rng.normal(size=(t, 2, d))
        weights = LossWeights(1.0, 1.0, 1.0, 1.0, 1.0)
        past = [None, 1, 2]
        params = list(model.parameters().values())
        err = ad.grad_check(
            lambda: model.total_loss(feats, 0, weights, past_labels=past)["loss"],
            params)
        assert err < 1e-4


class TestFinite:
    @pytest.mark.parametrize("bad", [[np.nan, 1.0], [np.inf, 1.0],
                                     [-np.inf, 1.0], [np.inf, -np.inf]])
    def test_non_finite_output_names_op(self, bad, monkeypatch):
        monkeypatch.setattr(ad, "CHECK_FINITE", True)
        with np.errstate(invalid="ignore"):     # inf + -inf in the sum
            with pytest.raises(NumericError, match="'mul'"):
                Tensor(bad) * 1.0
            with pytest.raises(NumericError, match="'sum'"):
                Tensor(bad).sum()            # a numpy-scalar output

    def test_overflowing_sum_of_finite_entries_passes(self, monkeypatch):
        monkeypatch.setattr(ad, "CHECK_FINITE", True)
        big = np.array([1e308, 1e308])
        with np.errstate(over="ignore"):
            assert np.isinf(big.sum())       # the entrywise check decides
            assert np.array_equal((Tensor(big) * 1.0).data, big)

    def test_zero_d_and_scalar_outputs(self, monkeypatch):
        monkeypatch.setattr(ad, "CHECK_FINITE", True)
        assert float((Tensor(2.0) * 3.0).data) == 6.0
        assert float(Tensor([1.0, 2.0]).sum().data) == 3.0
        for bad in (np.asarray(np.inf), np.float64(np.nan)):
            with pytest.raises(NumericError, match="'probe'"):
                ad._finite("probe", bad)
        assert ad._finite("probe", np.float64(1.0)) == 1.0

    def test_off_by_default(self):
        assert not ad.CHECK_FINITE
        assert np.isnan((Tensor([np.nan]) * 1.0).data[0])

    @pytest.mark.parametrize("bad", [[np.nan, 0.0], [np.inf, 0.0],
                                     [-np.inf, 0.0], [np.inf, -np.inf]])
    def test_softmax_rejects_non_finite_input_with_checks_off(self, bad):
        assert not ad.CHECK_FINITE
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericError, match="^softmax received non-finite input$"):
            ad.softmax(Tensor(bad))

    def test_softmax_takes_entries_whose_sum_overflows(self):
        with np.errstate(over="ignore"):
            out = ad.softmax(Tensor([1e308, 1e308])).data
        assert np.array_equal(out, [0.5, 0.5])


# -- grad_check probes without a graph ------------------------------------------------

def _finite_entrywise(name, data):
    if ad.CHECK_FINITE and not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite values produced by '{name}'")
    return data


def grad_check_oracle(f, params, eps=1e-5):
    """grad_check as it was before its probes ran graph-free: every probe
    builds its full graph, and each op's output is checked entry by entry."""
    prev = ad.CHECK_FINITE, ad._DETACH_TAPE, ad._finite
    ad.CHECK_FINITE, ad._DETACH_TAPE = True, ad._DetachTape()
    ad._finite = _finite_entrywise
    try:
        for p in params:
            p.zero_grad()
        f().backward()
        ad._DETACH_TAPE.replay_from_start()
        grads = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                 for p in params]
        worst = 0.0
        for p, g_ad in zip(params, grads):
            flat = p.data.reshape(-1)
            g_flat = g_ad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                ad._DETACH_TAPE.cursor = 0
                out = f()
                assert out.requires_grad        # the oracle does build graphs
                f_plus = float(out.data)
                flat[i] = orig - eps
                ad._DETACH_TAPE.cursor = 0
                f_minus = float(f().data)
                flat[i] = orig
                g_fd = (f_plus - f_minus) / (2.0 * eps)
                err = abs(g_flat[i] - g_fd) / max(1.0, abs(g_flat[i]), abs(g_fd))
                worst = max(worst, err)
        return worst
    finally:
        ad.CHECK_FINITE, ad._DETACH_TAPE, ad._finite = prev


def gradient_integrity_case():
    """The gradient integrity acceptance test's model, input and loss, checked
    over one parameter tensor from each layer (the full set takes ~30 s per
    run; every coordinate is checked independently of the others)."""
    from sgear import dataio
    from sgear.decoder import DecoderConfig
    from sgear.encoder import EncoderConfig
    from sgear.model import TABLE3_SETTINGS, ModelConfig, SgearModel
    from sgear.semantic import LossWeights, ProtoStore

    k, d, t, tokens = 6, 16, 3, 5
    lang = ProtoStore(kind="language", tensor=Tensor(
        dataio.language_prototypes_from_cooccurrence(np.full((k, k), 1.0 / k), d)))
    model = SgearModel(ModelConfig(
        num_classes=k, frames=t, d=d,
        encoder=EncoderConfig(mode="passthrough", d=d), n_tca=1, tca_heads=2,
        decoder=DecoderConfig(d=d, layers=1, heads=2, mlp_hidden=32, max_len=t),
        toggles=TABLE3_SETTINGS["full"], seed=0), language_store=lang)
    feats = np.random.default_rng(0).normal(size=(t, tokens, d))
    weights = LossWeights(1.0, 1.0, 1.0, 1.0, 1.0)
    params = model.parameters()
    names = ("encoder.lin.b", "tca.block0.alpha", "tca.block0.wo.b",
             "pa.toe_weights", "pa.beta", "pa.lam", "decoder.block0.mlp.fc2.b",
             "head.alpha", "head.w_cls.b", "protos.visual")
    return (lambda: model.total_loss(feats, 0, weights,
                                     past_labels=[None, 1, 2])["loss"],
            [params[name] for name in names])


def detach_and_choice_case():
    """A loss with a stop-gradient branch and a top-k choice frozen under
    grad_check, the two things its tape replays."""
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=6), requires_grad=True)
    w = Tensor(rng.normal(size=(6, 6)), requires_grad=True)

    def f():
        h = ad.matmul(x.reshape(1, -1), w).reshape(-1)
        top = ad.frozen_choice(np.argsort(-h.data, kind="stable")[:3])
        return (((h[top] - h.detach()[top][::-1]) ** 2).sum()
                + log(ad.softmax(h))[top].sum())
    return f, [x, w]


class TestGraphFreeProbes:
    def test_bit_identical_on_gradient_integrity_model(self):
        f, params = gradient_integrity_case()
        got = ad.grad_check(f, params)
        assert got < 1e-4
        assert got == grad_check_oracle(f, params)

    def test_bit_identical_on_op_suite(self):
        for trial in range(26):
            f, params = op_case(np.random.default_rng(trial), trial)
            assert ad.grad_check(f, params) == grad_check_oracle(f, params)

    def test_bit_identical_with_detach_and_frozen_choice(self):
        f, params = detach_and_choice_case()
        got = ad.grad_check(f, params)
        assert got < 1e-6
        assert got == grad_check_oracle(f, params)

    def test_only_the_reference_call_builds_a_graph(self):
        f, params = detach_and_choice_case()
        outs = []
        ad.grad_check(lambda: outs.append(f()) or outs[-1], params)
        n = sum(p.data.size for p in params)
        assert len(outs) == 1 + 2 * n
        assert outs[0].requires_grad and outs[0]._prev
        assert all(not o.requires_grad and o._prev == () for o in outs[1:])

    def test_inside_no_grad_equals_outside(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        cases = [(lambda: (x * x).sum(), [x]), detach_and_choice_case()]
        for f, params in cases:
            outside = ad.grad_check(f, params)
            with ad.no_grad():
                inside = ad.grad_check(f, params)
                assert not ad._GRAD_ENABLED
            assert inside == outside == grad_check_oracle(f, params)
            assert inside < 1e-6

    @pytest.mark.parametrize("grad_enabled", [True, False])
    @pytest.mark.parametrize("check_finite", [False, True])
    @pytest.mark.parametrize("tape", [None, "outer"])
    def test_state_restored_also_when_a_probe_raises(
            self, monkeypatch, grad_enabled, check_finite, tape):
        tape = ad._DetachTape() if tape else None
        monkeypatch.setattr(ad, "_GRAD_ENABLED", grad_enabled)
        monkeypatch.setattr(ad, "CHECK_FINITE", check_finite)
        monkeypatch.setattr(ad, "_DETACH_TAPE", tape)
        x = Tensor([1.0, 2.0], requires_grad=True)
        ad.grad_check(lambda: (x * x).sum(), [x])
        assert (ad._GRAD_ENABLED, ad.CHECK_FINITE) == (grad_enabled, check_finite)
        assert ad._DETACH_TAPE is tape

        # the last coordinate's minus probe takes the log of a negative number
        y = Tensor([1.0, 2.0, 1e-7], requires_grad=True)
        calls = []
        with np.errstate(invalid="ignore"), pytest.raises(NumericError,
                                                          match="'log'"):
            ad.grad_check(lambda: calls.append(1) or log(y).sum(), [y])
        assert len(calls) == 1 + 2 * 3       # it raised on the last probe
        assert (ad._GRAD_ENABLED, ad.CHECK_FINITE) == (grad_enabled, check_finite)
        assert ad._DETACH_TAPE is tape
