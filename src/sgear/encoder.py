"""Per-frame visual encoders producing the token streams the model consumes.

Three modes, each taking one clip or a batch of clips on leading axes:

* ``vit-lite``  -- tiny ViT over raw (grayscale) frames: patch embedding,
  learnable positional encodings, a prepended learnable class token and a
  short pre-norm transformer stack, applied to each frame independently.
* ``adapter``   -- pre-extracted (T, d) features mapped through a learnable
  affine layer and normalized by visual-prototype channel statistics.
* ``passthrough`` -- stored multi-token features passed through one learnable
  affine map (used with synthetic token datasets where the upstream encoder
  is simulated by the data generator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .errors import ConfigError, ShapeError


@dataclass
class ClipFeatures:
    """(..., T, tokens, d) token tensor, one clip per leading index; token 0
    of each frame is the class token."""

    tokens: Tensor

    @property
    def cls_view(self) -> Tensor:
        """The class-token stream, shape (..., T, d)."""
        return self.tokens[..., 0, :]

    @property
    def shape(self):
        return self.tokens.shape


@dataclass
class EncoderConfig:
    mode: str = "vit-lite"     # "vit-lite" | "adapter" | "passthrough"
    d: int = 64
    patch_size: int = 16
    depth: int = 2
    heads: int = 2
    input_size: int = 32       # frame height == width in vit-lite mode

    def __post_init__(self):
        if self.mode not in ("vit-lite", "adapter", "passthrough"):
            raise ConfigError(f"unknown encoder mode '{self.mode}'")
        if self.mode == "vit-lite" and self.input_size % self.patch_size != 0:
            raise ConfigError(
                f"input_size {self.input_size} not divisible by patch size "
                f"{self.patch_size}")


def patchify(frame: np.ndarray, patch_size: int) -> np.ndarray:
    """Split an (H, W) frame into P flattened patches, row-major patch order."""
    h, w = frame.shape
    if h % patch_size or w % patch_size:
        raise ShapeError(f"frame {h}x{w} not divisible by patch size {patch_size}")
    ph, pw = h // patch_size, w // patch_size
    patches = (frame.reshape(ph, patch_size, pw, patch_size)
               .transpose(0, 2, 1, 3)
               .reshape(ph * pw, patch_size * patch_size))
    return patches


class VitLiteEncoder:
    """Small per-frame ViT; frames never mix (the temporal stage does that)."""

    def __init__(self, config: EncoderConfig, rng):
        if config.mode != "vit-lite":
            raise ConfigError("VitLiteEncoder requires mode 'vit-lite'")
        self.config = config
        side = config.input_size // config.patch_size
        self.num_patches = side * side
        self.embed = nn.Linear(config.patch_size ** 2, config.d, rng)
        self.cls_token = Tensor(rng.normal(0.0, 0.02, (1, config.d)),
                                requires_grad=True)
        self.pos = Tensor(rng.normal(0.0, 0.02, (self.num_patches + 1, config.d)),
                          requires_grad=True)
        self.blocks = [nn.TransformerBlock(config.d, config.heads, rng)
                       for _ in range(config.depth)]

    def encode_frame(self, frame: np.ndarray) -> Tensor:
        patches = patchify(np.asarray(frame, dtype=np.float64),
                           self.config.patch_size)
        if patches.shape[0] != self.num_patches:
            raise ShapeError(
                f"frame yields {patches.shape[0]} patches, config expects "
                f"{self.num_patches}")
        x = self.embed(Tensor(patches))
        x = ad.concat([self.cls_token, x], axis=0) + self.pos
        for block in self.blocks:
            x = block(x)
        return x

    def __call__(self, frames) -> ClipFeatures:
        """frames: (..., T, H, W), e.g. a list of (H, W) arrays for one clip
        -> (..., T, P+1, d) tokens; every frame of every clip is encoded on
        its own."""
        frames = np.asarray(frames, dtype=np.float64)
        per_frame = [self.encode_frame(f)
                     for f in frames.reshape(-1, *frames.shape[-2:])]
        tokens = ad.stack(per_frame, axis=0)
        return ClipFeatures(tokens.reshape(*frames.shape[:-2], *tokens.shape[1:]))

    def parameters(self):
        params = nn.merge_params(
            nn.prefixed("embed", self.embed.parameters()),
            {"cls_token": self.cls_token, "pos": self.pos})
        for i, block in enumerate(self.blocks):
            params = nn.merge_params(
                params, nn.prefixed(f"block{i}", block.parameters()))
        return params


class FeatureAdapter:
    """Map pre-extracted (T, d) features into the visual prototypes' range.

    I_t = (lin(x_t) - mu) / sigma with mu/sigma channelwise statistics over
    the K visual prototypes; sigma floored at 1e-6.
    """

    def __init__(self, config: EncoderConfig, rng, proto_stats=None):
        if config.mode != "adapter":
            raise ConfigError("FeatureAdapter requires mode 'adapter'")
        self.config = config
        self.lin = nn.Linear(config.d, config.d, rng)
        self._mu = None
        self._inv_sigma = None
        if proto_stats is not None:
            self.set_prototype_stats(*proto_stats)

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

    def __call__(self, feats) -> ClipFeatures:
        if self._mu is None:
            raise ConfigError(
                "adapter needs visual-prototype statistics; call "
                "set_prototype_stats first")
        x = feats if isinstance(feats, Tensor) else Tensor(np.asarray(feats))
        if x.ndim == 2:                       # (T, d): one clip, one token
            x = x.reshape(x.shape[0], 1, x.shape[1])
        if x.ndim < 3 or x.shape[-1] != self.config.d:
            raise ShapeError(f"adapter expects (..., T, 1, {self.config.d}) or "
                             f"(T, {self.config.d}), got {x.shape}")
        if x.shape[-2] != 1:
            raise ShapeError("adapter features must have a single token")
        return ClipFeatures((self.lin(x) - self._mu) * self._inv_sigma)

    def parameters(self):
        return nn.prefixed("lin", self.lin.parameters())


class PassthroughEncoder:
    """Learnable affine map over stored multi-token features."""

    def __init__(self, config: EncoderConfig, rng):
        if config.mode != "passthrough":
            raise ConfigError("PassthroughEncoder requires mode 'passthrough'")
        self.config = config
        self.lin = nn.Linear(config.d, config.d, rng)
        # start at identity so stored feature geometry survives initialization
        self.lin.w.data += np.eye(config.d)

    def __call__(self, feats) -> ClipFeatures:
        """(..., T, tokens, d) -> the same shape."""
        x = feats if isinstance(feats, Tensor) else Tensor(np.asarray(feats))
        if x.ndim < 3 or x.shape[-1] != self.config.d:
            raise ShapeError(
                f"passthrough expects (..., T, tokens, {self.config.d}), got "
                f"{x.shape}")
        return ClipFeatures(self.lin(x))

    def parameters(self):
        return nn.prefixed("lin", self.lin.parameters())


def build_encoder(config: EncoderConfig, rng):
    if config.mode == "vit-lite":
        return VitLiteEncoder(config, rng)
    if config.mode == "adapter":
        return FeatureAdapter(config, rng)
    return PassthroughEncoder(config, rng)
