"""Temporal context aggregation: causal attention with accumulated keys/values.

Keys and values of frame t are augmented with a learnable-weighted sum of all
past frames' keys/values (token-aligned) before the per-frame attention, so
queries see spatiotemporal context without breaking causality.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .errors import ConfigError, ShapeError


def aggregate_kv(seq: Tensor, alpha: Tensor) -> Tensor:
    """Decayed causal sum along axis 0, out_t = sum_{s<=t} prod(alpha[s:t]) seq_s,
    i.e. the recurrence out_0 = seq_0, out_t = seq_t + alpha[t-1] * out_{t-1}.

    Runs as one (T, T) decay-matrix product over the flattened trailing axes,
    so clips stacked on a later axis share the matrix.
    """
    t_len = seq.shape[0]
    if alpha.shape != (max(t_len - 1, 0),):
        raise ConfigError(
            f"alpha must have length T-1 = {t_len - 1}, got {alpha.shape}")
    mixed = ad.matmul(ad.decay_matrix(alpha, t_len), seq.reshape(t_len, -1))
    return mixed.reshape(seq.shape)


class TcaBlock(nn.Module):
    """One pre-norm block: aggregated-KV attention plus an MLP sub-block."""

    def __init__(self, dim, heads, frames, rng, mlp_ratio=4):
        if dim % heads != 0:
            raise ConfigError(f"heads ({heads}) must divide dim ({dim})")
        self.dim = dim
        self.heads = heads
        self.frames = frames
        self.wq = nn.Linear(dim, dim, rng)
        self.wk = nn.Linear(dim, dim, rng)
        self.wv = nn.Linear(dim, dim, rng)
        self.wo = nn.Linear(dim, dim, rng)
        # full history flow at init; training attenuates
        self.alpha = Tensor(np.ones(max(frames - 1, 0)), requires_grad=True)
        self.ln1 = nn.LayerNorm(dim)
        self.ln2 = nn.LayerNorm(dim)
        self.mlp = nn.Mlp(dim, mlp_ratio * dim, rng)

    def _history(self, seq: Tensor) -> Tensor:
        """Accumulated (..., T, heads, N, dh) keys or values: time moves to
        axis 0 for `aggregate_kv` and back (a no-op for one clip)."""
        return aggregate_kv(seq.swapaxes(0, -4), self.alpha).swapaxes(0, -4)

    def attention(self, x: Tensor) -> Tensor:
        """x: (..., T, P+1, d) -> the same shape, frame t attending over
        accumulated keys/values of its own clip's frames <= t."""
        q = nn.split_heads(self.wq(x), self.heads)      # (..., T, heads, N, dh)
        k_hat = self._history(nn.split_heads(self.wk(x), self.heads))
        v_hat = self._history(nn.split_heads(self.wv(x), self.heads))
        out = ad.attention(q, k_hat, v_hat, 1.0 / np.sqrt(self.dim))
        return self.wo(nn.join_heads(out))

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim < 3 or x.shape[-1] != self.dim:
            raise ShapeError(
                f"TCA expects (..., T, P+1, {self.dim}), got {x.shape}")
        if x.shape[-3] != self.frames:
            raise ConfigError(
                f"TCA block sized for T={self.frames}, got T={x.shape[-3]}")
        x = x + self.attention(self.ln1(x))
        return x + self.mlp(self.ln2(x))


class TcaStack(nn.Module):
    """n stacked TCA blocks; each block owns an independent alpha vector."""

    def __init__(self, dim, heads, frames, rng, n_blocks=2, mlp_ratio=4):
        self.blocks = [TcaBlock(dim, heads, frames, rng, mlp_ratio=mlp_ratio)
                       for _ in range(n_blocks)]

    def __call__(self, x: Tensor) -> Tensor:
        for block in self.blocks:
            x = block(x)
        return x
