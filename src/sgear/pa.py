"""Prototype attention: per-frame prototype selection, Toeplitz temporal order
encoding, cosine-gated fusion and the merge with the causal class-token stream.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .errors import ConfigError, ShapeError


def frame_relative_repr(cls_stream, protos) -> np.ndarray:
    """(..., T, K) cosine similarities of each frame's class token against the
    prototype rows. Selection is discrete, so this runs outside the tape."""
    x = cls_stream.data if isinstance(cls_stream, Tensor) else np.asarray(cls_stream)
    p = protos.data if isinstance(protos, Tensor) else np.asarray(protos)
    if x.shape[-1] != p.shape[-1]:
        raise ShapeError(f"feature dim {x.shape[-1]} does not match prototype "
                         f"dim {p.shape[-1]}")
    return nn.cosine_matrix(x, p)


def select_prototypes(sims: np.ndarray, k: int):
    """Top-k prototype indices per frame of (..., T, K) similarities, ties
    broken by lower index, as one (..., T*k) index array in frame order."""
    num_protos = sims.shape[-1]
    if not 1 <= k <= num_protos:
        raise ConfigError(f"k={k} must be in [1, {num_protos}]")
    top = np.argsort(-sims, axis=-1, kind="stable")[..., :k]   # lower index wins ties
    return top.reshape(*top.shape[:-2], -1)


@functools.lru_cache(maxsize=None)
def toeplitz_index(t_len: int, m: int) -> np.ndarray:
    """Read-only (T, m) index of each Toeplitz entry into its T+m-1 weights,
    built once per shape."""
    i = np.arange(t_len)[:, None]
    j = np.arange(m)[None, :]
    idx = np.where(j >= i, j - i, (m - 1) + (i - j))
    idx.flags.writeable = False
    return idx


def build_toeplitz(weights: Tensor, t_len: int, m: int) -> Tensor:
    """(T, m) Toeplitz matrix from T+m-1 weights: main diagonal w0,
    superdiagonals w1..w_{m-1}, subdiagonals w_m..w_{T+m-2}."""
    if weights.shape != (t_len + m - 1,):
        raise ConfigError(
            f"need {t_len + m - 1} Toeplitz weights for T={t_len}, m={m}; "
            f"got {weights.shape}")
    return weights[toeplitz_index(t_len, m)]


def pa_fuse(queries: Tensor, keys: Tensor, values: Tensor, delta: Tensor,
            beta: Tensor) -> Tensor:
    """Mix cosine-style attention with the temporal-order matrix:
    (sigmoid(beta) * softmax(QK^T / d) + (1 - sigmoid(beta)) * delta) V."""
    if queries.shape[-1] != keys.shape[-1]:
        raise ShapeError(f"query dim {queries.shape} vs key dim {keys.shape}")
    if keys.shape[-2] != values.shape[-2]:
        raise ShapeError("keys and values must have the same sequence length")
    scores = ad.matmul(queries, keys.mT) * (1.0 / float(queries.shape[-1]))
    return ad.matmul(ad.gate_mix(beta, ad.softmax(scores, axis=-1), delta), values)


def merge(causal_cls: Tensor, fused: Tensor, lam: Tensor) -> Tensor:
    """sigmoid(lam)-weighted sum of the causal class stream and the PA output."""
    if causal_cls.shape != fused.shape:
        raise ShapeError(f"merge shape mismatch: {causal_cls.shape} vs {fused.shape}")
    return ad.gate_mix(lam, causal_cls, fused)


class PaBlock(nn.Module):
    """Prototype attention over the raw class-token stream.

    Selection (top-k per frame) is hard and carries no gradient; gradients do
    flow into the selected prototypes' key/value projections.
    """

    def __init__(self, dim, frames, rng, k=1):
        self.dim = dim
        self.frames = frames
        self.k = k
        self.m = frames * k
        self.wq = nn.Linear(dim, dim, rng)
        self.wk = nn.Linear(dim, dim, rng)
        self.wv = nn.Linear(dim, dim, rng)
        self.wo = nn.Linear(dim, dim, rng)
        # rows of delta start uniform so its value mix matches softmax's scale
        self.toe_weights = Tensor(np.full(frames + self.m - 1, 1.0 / self.m),
                                  requires_grad=True)
        self.beta = Tensor(np.asarray(0.0), requires_grad=True)
        self.lam = Tensor(np.asarray(0.0), requires_grad=True)

    def __call__(self, cls_stream: Tensor, protos: Tensor) -> Tensor:
        """cls_stream: (..., T, d) raw class tokens; protos: (K, d) -> the
        fused (..., T, d) stream."""
        if cls_stream.shape[-2:] != (self.frames, self.dim):
            raise ShapeError(f"PA expects (..., {self.frames}, {self.dim}), got "
                             f"{cls_stream.shape}")
        sims = frame_relative_repr(cls_stream, protos)
        # the choice is held fixed under grad_check probes
        flat = ad.frozen_choice(select_prototypes(sims, self.k))
        selected = protos[flat]                       # (..., m, d), frame order
        # one Toeplitz matrix, shared by every clip
        delta = build_toeplitz(self.toe_weights, self.frames, self.m)
        fused = pa_fuse(self.wq(cls_stream), self.wk(selected),
                        self.wv(selected), delta, self.beta)
        return self.wo(fused)

    def merge(self, causal_cls: Tensor, fused: Tensor) -> Tensor:
        return merge(causal_cls, fused, self.lam)
