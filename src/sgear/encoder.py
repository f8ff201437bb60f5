"""Per-frame visual encoders producing the token streams the model consumes.

Two modes, each taking (..., T, tokens, d) features, leading axes
independent (the model passes a clip axis, of length one for one clip), and
returning a Tensor of the same shape:

* ``adapter``   -- pre-extracted single-token (..., T, 1, d) features mapped
  through a learnable affine layer and normalized by visual-prototype
  channel statistics.
* ``passthrough`` -- stored multi-token features passed through one learnable
  affine map (used with synthetic token datasets where the upstream encoder
  is simulated by the data generator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .autodiff import Tensor
from .errors import ConfigError, ShapeError


@dataclass
class EncoderConfig:
    mode: str = "passthrough"     # "adapter" | "passthrough"
    d: int = 64

    def __post_init__(self):
        if self.mode not in ("adapter", "passthrough"):
            raise ConfigError(f"unknown encoder mode '{self.mode}'")


class FeatureAdapter(nn.Module):
    """Map pre-extracted (..., T, 1, d) features into the visual prototypes'
    range.

    I_t = (lin(x_t) - mu) / sigma with mu/sigma channelwise statistics over
    the K visual prototypes; sigma floored at 1e-6.
    """

    def __init__(self, config: EncoderConfig, rng):
        if config.mode != "adapter":
            raise ConfigError("FeatureAdapter requires mode 'adapter'")
        self.config = config
        self.lin = nn.Linear(config.d, config.d, rng)
        self._mu = None
        self._inv_sigma = None

    def set_prototype_stats(self, mu, sigma):
        mu = np.asarray(mu, dtype=np.float64)
        sigma = np.maximum(np.asarray(sigma, dtype=np.float64), 1e-6)
        if mu.shape != (self.config.d,) or sigma.shape != (self.config.d,):
            raise ShapeError("prototype statistics must be d-vectors")
        self._mu = Tensor(mu)
        self._inv_sigma = Tensor(1.0 / sigma)

    def stats_arrays(self):
        """The set statistics as named arrays, for checkpoints; empty if unset."""
        if self._mu is None:
            return {}
        return {"mu": self._mu.data, "inv_sigma": self._inv_sigma.data}

    def load_stats_arrays(self, arrays):
        """Restore statistics saved by `stats_arrays`, bit for bit."""
        if arrays:
            self._mu = Tensor(arrays["mu"].copy())
            self._inv_sigma = Tensor(arrays["inv_sigma"].copy())

    @staticmethod
    def stats_from_prototypes(protos: np.ndarray):
        """Channelwise mean/std over the K prototype rows."""
        return protos.mean(axis=0), protos.std(axis=0)

    def __call__(self, feats) -> Tensor:
        if self._mu is None:
            raise ConfigError(
                "adapter needs visual-prototype statistics; call "
                "set_prototype_stats first")
        x = feats if isinstance(feats, Tensor) else Tensor(np.asarray(feats))
        if x.ndim < 3 or x.shape[-1] != self.config.d:
            raise ShapeError(f"adapter expects (..., T, 1, {self.config.d}), "
                             f"got {x.shape}")
        if x.shape[-2] != 1:
            raise ShapeError("adapter features must have a single token")
        return (self.lin(x) - self._mu) * self._inv_sigma


class PassthroughEncoder(nn.Module):
    """Learnable affine map over stored multi-token features."""

    def __init__(self, config: EncoderConfig, rng):
        if config.mode != "passthrough":
            raise ConfigError("PassthroughEncoder requires mode 'passthrough'")
        self.config = config
        self.lin = nn.Linear(config.d, config.d, rng)
        # start at identity so stored feature geometry survives initialization
        self.lin.w.data += np.eye(config.d)

    def __call__(self, feats) -> Tensor:
        """(..., T, tokens, d) -> the same shape."""
        x = feats if isinstance(feats, Tensor) else Tensor(np.asarray(feats))
        if x.ndim < 3 or x.shape[-1] != self.config.d:
            raise ShapeError(
                f"passthrough expects (..., T, tokens, {self.config.d}), got "
                f"{x.shape}")
        return self.lin(x)


def build_encoder(config: EncoderConfig, rng):
    if config.mode == "adapter":
        return FeatureAdapter(config, rng)
    return PassthroughEncoder(config, rng)
