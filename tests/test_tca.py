"""Temporal context aggregation: recurrence, reduction to plain attention,
causality and gradient integrity."""

import numpy as np
import pytest

import sgear.autodiff as ad
from sgear.autodiff import Tensor
from sgear.errors import ConfigError
from sgear.tca import TcaBlock, TcaStack, aggregate_kv


class TestAggregateKv:
    def test_zero_alpha_no_history(self):
        rng = np.random.default_rng(0)
        seq = Tensor(rng.normal(size=(4, 3, 8)))
        out, = aggregate_kv(Tensor(np.zeros(3)), seq)
        assert np.array_equal(out.data, seq.data)

    def test_telescoping_sum(self):
        c = np.full((2, 4), 1.5)
        seq = Tensor(np.stack([c, c, c]))
        out = aggregate_kv(Tensor(np.ones(2)), seq)[0].data
        for t in range(3):
            assert np.abs(out[t] - (t + 1) * c).max() < 1e-12

    def test_unrolled_recurrence(self):
        rng = np.random.default_rng(1)
        k0, k1, k2 = rng.normal(size=(3, 2, 4))
        out = aggregate_kv(Tensor([0.5, 0.5]),
                           Tensor(np.stack([k0, k1, k2])))[0].data
        assert np.abs(out[2] - (k2 + 0.5 * k1 + 0.25 * k0)).max() < 1e-12

    def test_alpha_length_error(self):
        with pytest.raises(ConfigError):
            aggregate_kv(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2, 4))))


def reference_self_attention(block: TcaBlock, x: np.ndarray) -> np.ndarray:
    """Independent per-frame attention with the block's weights (no history)."""
    t_len, n, d = x.shape
    heads, dh = block.heads, d // block.heads
    def lin(layer, v):
        return v @ layer.w.data + layer.b.data
    out = np.empty_like(x)
    for t in range(t_len):
        q = lin(block.wq, x[t]).reshape(n, heads, dh).transpose(1, 0, 2)
        k = lin(block.wk, x[t]).reshape(n, heads, dh).transpose(1, 0, 2)
        v = lin(block.wv, x[t]).reshape(n, heads, dh).transpose(1, 0, 2)
        scores = q @ k.transpose(0, 2, 1) / np.sqrt(d)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        mixed = (attn @ v).transpose(1, 0, 2).reshape(n, d)
        out[t] = lin(block.wo, mixed)
    return out


class TestTcaBlock:
    def _block(self, frames, seed=2):
        return TcaBlock(8, 2, frames, np.random.default_rng(seed))

    def test_zero_alpha_equals_per_frame_attention(self):
        rng = np.random.default_rng(3)
        block = self._block(4)
        block.alpha.data[...] = 0.0
        x = rng.normal(size=(4, 3, 8))
        got = block.attention(Tensor(x)).data
        assert np.abs(got - reference_self_attention(block, x)).max() < 1e-9

    def test_single_frame_equals_reference(self):
        rng = np.random.default_rng(4)
        block = self._block(1)
        x = rng.normal(size=(1, 3, 8))
        got = block.attention(Tensor(x)).data
        assert np.abs(got - reference_self_attention(block, x)).max() < 1e-9

    def test_uniform_keys_values_average(self):
        rng = np.random.default_rng(5)
        block = self._block(1)
        # identical tokens: attention over identical keys returns the value row
        row = rng.normal(size=8)
        x = np.tile(row, (1, 3, 1))
        got = block.attention(Tensor(x)).data
        assert np.abs(got - got[0, 0]).max() < 1e-9

    def test_shape_contract(self):
        rng = np.random.default_rng(6)
        block = self._block(5)
        out = block(Tensor(rng.normal(size=(5, 4, 8))))
        assert out.shape == (5, 4, 8)

    def test_frame_count_mismatch(self):
        block = self._block(4)
        with pytest.raises(ConfigError):
            block(Tensor(np.zeros((3, 2, 8))))

    def test_causality_by_perturbation(self):
        rng = np.random.default_rng(7)
        stack = TcaStack(8, 2, 6, rng, n_blocks=2)
        x = rng.normal(size=(6, 3, 8))
        base = stack(Tensor(x)).data
        for t_perturb in (3, 5):
            x2 = x.copy()
            x2[t_perturb] += rng.normal(size=(3, 8)) * 10
            out = stack(Tensor(x2)).data
            assert np.abs(out[:t_perturb] - base[:t_perturb]).max() < 1e-9

    def test_causality_by_gradient(self):
        rng = np.random.default_rng(8)
        block = self._block(4)
        x = Tensor(rng.normal(size=(4, 2, 8)), requires_grad=True)
        block(x)[1].sum().backward()
        assert np.abs(x.grad[2:]).max() == 0.0

    def test_grad_check(self):
        rng = np.random.default_rng(9)
        block = TcaBlock(4, 2, 2, np.random.default_rng(10), mlp_ratio=1)
        x = rng.normal(size=(2, 2, 4))
        params = list(block.parameters().values())
        err = ad.grad_check(lambda: block(Tensor(x)).sum(), params)
        assert err < 1e-5

    def test_stack_has_independent_alphas(self):
        stack = TcaStack(8, 2, 4, np.random.default_rng(11), n_blocks=2)
        names = stack.parameters().keys()
        assert "block0.alpha" in names and "block1.alpha" in names
        assert stack.blocks[0].alpha is not stack.blocks[1].alpha
        assert np.all(stack.blocks[0].alpha.data == 1.0)   # full history at init
