"""Small neural-net building blocks on top of the autodiff tensors.

Every block with learnables subclasses `Module`, whose ``parameters()``
returns a dict from a unique dotted name to a Tensor. It walks the block's
attributes in the order ``__init__`` sets them:

* a Tensor that requires grad is a leaf, named after its attribute;
* a Module is a child, whose names get the attribute name as a prefix;
* a list named ``blocks`` holds Modules, named ``block0``, ``block1``, ...

Every other attribute (configs, stores, plain arrays, constant Tensors) is
skipped. The names are the checkpoint contract, e.g. ``tca.block0.wq.w``.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError


class Module:
    """Base of every block with learnables; the module docstring gives the
    naming rule of `parameters`."""

    def parameters(self) -> dict:
        params = {}
        self._collect("", params)
        return params

    def _collect(self, prefix, params):
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                if value.requires_grad:
                    params[prefix + name] = value
            elif isinstance(value, Module):
                value._collect(f"{prefix}{name}.", params)
            elif name == "blocks":
                for i, block in enumerate(value):
                    block._collect(f"{prefix}block{i}.", params)


def cosine_matrix(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(..., n, m) cosines of the (..., n, d) rows of x and (m, d) rows of p.
    The row norms are what `np.linalg.norm` computes for real rows."""
    xn = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
    pn = np.sqrt(np.add.reduce(p * p, axis=-1, keepdims=True))
    return (x @ p.T) / (xn * pn.T + 1e-8)


class Linear(Module):
    """Affine map in_dim -> out_dim; weight stored (in, out)."""

    def __init__(self, in_dim, out_dim, rng):
        self.w = Tensor(rng.normal(0.0, 0.02, (in_dim, out_dim)), requires_grad=True)
        self.b = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, dim):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias)


class Mlp(Module):
    """Two-layer GELU MLP, the standard transformer feed-forward."""

    def __init__(self, dim, hidden, rng):
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(ad.gelu(self.fc1(x)))


@functools.lru_cache(maxsize=None)
def causal_mask(n: int) -> np.ndarray:
    """Read-only (n, n) additive mask: -1e30 above the diagonal, else 0."""
    mask = np.triu(np.full((n, n), -1e30), k=1)
    mask.flags.writeable = False
    return mask


class SelfAttention(Module):
    """Causal multi-head self-attention over token sequences (..., N, d):
    position i attends to positions <= i; leading axes are independent
    sequences."""

    def __init__(self, dim, heads, rng):
        if dim % heads != 0:
            raise ConfigError(f"heads ({heads}) must divide dim ({dim})")
        self.heads = heads
        self.dim = dim
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim < 2 or x.shape[-1] != self.dim:
            raise ShapeError(f"attention expects (..., N, {self.dim}), got {x.shape}")
        out = ad.attention(self.wq(x), self.wk(x), self.wv(x),
                           1.0 / np.sqrt(self.dim), mask=causal_mask(x.shape[-2]),
                           heads=self.heads)
        return self.wo(out)


class TransformerBlock(Module):
    """Pre-norm causal block: x + attn(ln(x)), then x + mlp(ln(x))."""

    def __init__(self, dim, heads, rng, mlp_hidden):
        self.ln1 = LayerNorm(dim)
        self.attn = SelfAttention(dim, heads, rng)
        self.ln2 = LayerNorm(dim)
        self.mlp = Mlp(dim, mlp_hidden, rng)

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        return x + self.mlp(self.ln2(x))
