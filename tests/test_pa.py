"""Prototype attention: selection, Toeplitz structure, fusion and merge."""

import numpy as np
import pytest

import sgear.autodiff as ad
from sgear.autodiff import Tensor
from sgear.errors import ConfigError, ShapeError
from sgear.pa import (PaBlock, build_toeplitz, frame_relative_repr, merge,
                      pa_fuse, select_prototypes, toeplitz_index)


def logit(p):
    return float(np.log(p / (1.0 - p)))


class TestFrameRelativeRepr:
    def test_self_similarity(self):
        protos = np.eye(3)
        sims = frame_relative_repr(protos[1][None, :], protos)
        assert abs(sims[0, 1] - 1.0) < 1e-7
        assert np.abs(sims[0, [0, 2]]).max() < 1e-7

    def test_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        x, p = rng.normal(size=(4, 6)), rng.normal(size=(5, 6))
        sims = frame_relative_repr(x, p)
        for t in range(4):
            for j in range(5):
                norms = np.linalg.norm(x[t]) * np.linalg.norm(p[j])
                expect = x[t] @ p[j] / (norms + 1e-8)
                assert abs(sims[t, j] - expect) < 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            frame_relative_repr(np.zeros((2, 4)), np.zeros((3, 5)))


class TestSelectPrototypes:
    def test_argmax(self):
        assert list(select_prototypes(np.array([[0.1, 0.9, 0.3]]), 1)) == [1]

    def test_tie_lower_index_wins(self):
        assert list(select_prototypes(np.array([[0.5, 0.5]]), 1)) == [0]

    def test_top2_sort_oracle(self):
        assert list(select_prototypes(np.array([[0.1, 0.9, 0.3]]), 2)) == [1, 2]

    def test_frame_order_preserved(self):
        sims = np.array([[0.9, 0.0], [0.0, 0.9]])
        assert list(select_prototypes(sims, 1)) == [0, 1]

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            select_prototypes(np.zeros((1, 3)), 4)


class TestToeplitz:
    def test_appendix_layout(self):
        w = Tensor(np.arange(5, dtype=float))
        delta = build_toeplitz(w, 3, 3).data
        expect = np.array([[0.0, 1.0, 2.0],
                           [3.0, 0.0, 1.0],
                           [4.0, 3.0, 0.0]])
        assert np.array_equal(delta, expect)

    def test_single_weight(self):
        assert np.array_equal(build_toeplitz(Tensor([7.0]), 1, 1).data, [[7.0]])

    def test_diagonal_constancy_scan(self):
        w = Tensor(np.random.default_rng(1).normal(size=5))
        delta = build_toeplitz(w, 2, 4).data
        for i in range(2):
            for j in range(4):
                expect = (w.data[j - i] if j >= i
                          else w.data[(4 - 1) + (i - j)])
                assert delta[i, j] == expect
        # same parameter everywhere on a diagonal: exact equality
        for off in range(-1, 4):
            diag = [delta[i, i + off] for i in range(2) if 0 <= i + off < 4]
            assert len(set(diag)) <= 1

    def test_parameter_count(self):
        for t_len in (2, 3, 5):
            m = t_len
            w = Tensor(np.random.default_rng(2).normal(size=2 * t_len - 1))
            assert build_toeplitz(w, t_len, m).shape == (t_len, m)
        with pytest.raises(ConfigError):
            build_toeplitz(Tensor(np.zeros(4)), 3, 3)

    def test_gradient_ties_diagonals(self):
        w = Tensor(np.zeros(5), requires_grad=True)
        build_toeplitz(w, 3, 3).sum().backward()
        # w0 sits on the 3-element main diagonal, w1 on 2 cells, etc.
        assert np.array_equal(w.grad, [3.0, 2.0, 1.0, 2.0, 1.0])

    def test_index_is_built_once_and_read_only(self):
        idx = toeplitz_index(3, 6)
        assert toeplitz_index(3, 6) is idx
        assert not idx.flags.writeable
        i, j = np.arange(3)[:, None], np.arange(6)[None, :]
        assert np.array_equal(idx, np.where(j >= i, j - i, 5 + (i - j)))


class TestPaFuse:
    def test_attention_only_single_value(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.normal(size=(3, 4)))
        kv = Tensor(rng.normal(size=(1, 4)))
        delta = Tensor(np.full((3, 1), 99.0))   # must be ignored
        out = pa_fuse(q, kv, kv, delta, Tensor(1000.0)).data
        for t in range(3):
            assert np.abs(out[t] - kv.data[0]).max() < 1e-9

    def test_toeplitz_only_selector(self):
        rng = np.random.default_rng(4)
        q = Tensor(rng.normal(size=(2, 4)))
        values = Tensor(rng.normal(size=(3, 4)))
        delta = Tensor(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        out = pa_fuse(q, values, values, delta, Tensor(-1000.0)).data
        assert np.abs(out[0] - values.data[1]).max() < 1e-9
        assert np.abs(out[1] - values.data[2]).max() < 1e-9

    def test_mix_decomposition(self):
        rng = np.random.default_rng(5)
        q, kv = Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(2, 4)))
        delta = Tensor(rng.normal(size=(2, 2)))
        beta = Tensor(0.7)
        got = pa_fuse(q, kv, kv, delta, beta).data
        gate = 1.0 / (1.0 + np.exp(-0.7))
        scores = q.data @ kv.data.T / 4.0
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        soft = e / e.sum(axis=-1, keepdims=True)
        expect = (gate * soft + (1 - gate) * delta.data) @ kv.data
        assert np.abs(got - expect).max() < 1e-12
        assert np.abs(soft.sum(axis=-1) - 1.0).max() < 1e-9


class TestMerge:
    def test_full_causal_side(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 3)))
        out = merge(a, b, Tensor(1000.0)).data
        assert np.abs(out - 1.0).max() < 1e-9

    def test_equal_inputs(self):
        a = Tensor(np.random.default_rng(7).normal(size=(2, 3)))
        out = merge(a, Tensor(a.data.copy()), Tensor(0.0)).data
        assert np.abs(out - a.data).max() < 1e-12

    def test_hand_convex_combination(self):
        a = Tensor(np.full((1, 2), 4.0))
        b = Tensor(np.full((1, 2), 8.0))
        out = merge(a, b, Tensor(logit(0.25))).data
        assert np.abs(out - (0.25 * 4.0 + 0.75 * 8.0)).max() < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            merge(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(0.0))


class TestPaBlock:
    def _setup(self, t_len=3, d=8, k_protos=5, seed=8):
        rng = np.random.default_rng(seed)
        block = PaBlock(d, t_len, rng)
        cls_stream = Tensor(rng.normal(size=(t_len, d)))
        protos = Tensor(rng.normal(size=(k_protos, d)), requires_grad=True)
        return block, cls_stream, protos

    def test_toe_weight_count_is_2t_minus_1(self):
        for t_len in (2, 4, 7):
            block = PaBlock(8, t_len, np.random.default_rng(9))
            assert block.toe_weights.shape == (2 * t_len - 1,)

    def test_output_shape_and_selection(self):
        block, cls_stream, protos = self._setup()
        assert block(cls_stream, protos).shape == (3, 8)
        flat = select_prototypes(frame_relative_repr(cls_stream, protos), block.k)
        assert flat.shape == (3,)

    def test_grad_check_fuse_and_merge(self):
        block, cls_stream, protos = self._setup(t_len=2, d=4)
        causal = Tensor(np.random.default_rng(10).normal(size=(2, 4)))
        params = list(block.parameters().values()) + [protos]
        def f():
            return block.merge(causal, block(cls_stream, protos)).sum()
        assert ad.grad_check(f, params) < 1e-5

    def test_gates_initialized_to_half(self):
        block, _, _ = self._setup()
        assert float(block.beta.data) == 0.0 and float(block.lam.data) == 0.0
