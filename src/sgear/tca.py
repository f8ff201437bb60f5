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


def aggregate_kv(alpha: Tensor, *seqs: Tensor) -> list:
    """Decayed causal sums along the time axis of each (..., T, N, d)
    sequence, out_t = sum_{s<=t} prod(alpha[s:t]) seq_s, i.e. the recurrence
    out_0 = seq_0, out_t = seq_t + alpha[t-1] * out_{t-1}.

    Builds one (T, T) decay matrix for all the sequences (a block's keys and
    values) and runs each as one product over (..., T, N*d), the matrix
    broadcast across the leading (clip) axes.
    """
    t_len = seqs[0].shape[-3]
    if alpha.shape != (max(t_len - 1, 0),):
        raise ConfigError(
            f"alpha must have length T-1 = {t_len - 1}, got {alpha.shape}")
    decay = ad.decay_matrix(alpha, t_len)
    return [ad.matmul(decay, seq.reshape(*seq.shape[:-2], -1)).reshape(seq.shape)
            for seq in seqs]


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

    def attention(self, x: Tensor) -> Tensor:
        """x: (..., T, P+1, d) -> the same shape, frame t attending over
        accumulated keys/values of its own clip's frames <= t.

        Mixing along time commutes with the head split, so the keys and
        values are mixed before `attention` splits them.
        """
        keys, values = aggregate_kv(self.alpha, self.wk(x), self.wv(x))
        out = ad.attention(self.wq(x), keys, values, 1.0 / np.sqrt(self.dim),
                           heads=self.heads)
        return self.wo(out)

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
