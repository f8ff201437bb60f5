"""Autoregressive causal transformer mapping merged frame features to
future-feature predictions, plus the variable-horizon rollout used when the
anticipation gap at inference exceeds the training gap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .errors import ConfigError, ShapeError


@dataclass
class DecoderConfig:
    d: int = 64
    layers: int = 2
    heads: int = 2
    mlp_hidden: int = 256
    max_len: int = 16           # trained positions; later ones reuse the last
    max_rollout_steps: int = 32

    def __post_init__(self):
        if self.d % self.heads != 0:
            raise ConfigError(f"heads ({self.heads}) must divide d ({self.d})")


@functools.lru_cache(maxsize=None)
def position_index(length: int, max_len: int) -> np.ndarray:
    """Read-only position row of each of `length` steps: positions past the
    trained `max_len` reuse the last row."""
    idx = np.minimum(np.arange(length), max_len - 1)
    idx.flags.writeable = False
    return idx


class CausalDecoder(nn.Module):
    def __init__(self, config: DecoderConfig, rng):
        self.config = config
        self.pos = Tensor(rng.normal(0.0, 0.02, (config.max_len, config.d)),
                          requires_grad=True)
        self.blocks = [
            nn.TransformerBlock(config.d, config.heads, rng, config.mlp_hidden)
            for _ in range(config.layers)
        ]

    def _positions(self, length):
        return self.pos[position_index(length, self.config.max_len)]

    def decode(self, merged: Tensor) -> Tensor:
        """(..., T, d) -> (..., T, d); output t depends only on inputs 0..t
        of its own clip."""
        if merged.ndim < 2 or merged.shape[-1] != self.config.d:
            raise ShapeError(
                f"decoder expects (..., T, {self.config.d}), got {merged.shape}")
        x = merged + self._positions(merged.shape[-2])
        for block in self.blocks:
            x = block(x)
        return x

    __call__ = decode

    def rollout(self, merged: Tensor, n_steps: int) -> Tensor:
        """Extend the horizon by feeding each last prediction back as the next
        input feature. Returns the decoded sequence of length T + n_steps
        along the time axis (-2)."""
        if n_steps < 0:
            raise ConfigError("n_steps must be >= 0")
        if n_steps > self.config.max_rollout_steps:
            raise ConfigError(
                f"n_steps {n_steps} exceeds max_rollout_steps "
                f"{self.config.max_rollout_steps}")
        x = merged
        future = self.decode(x)
        for _ in range(n_steps):
            x = ad.concat([x, future[..., -1:, :]], axis=-2)
            future = self.decode(x)
        return future
