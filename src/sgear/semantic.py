"""Prototype stores, the shared similarity space, the cosine-attention head,
the training losses (with their exact gradient-blocking semantics) and
prototype-geometry analysis.

Gradient-blocking contracts, enforced here and probed by tests:

* semantic loss: the embedding is detached, gradient reaches the visual
  prototypes only;
* regularization loss: the matched prototype is detached, gradient reaches
  the embedding only;
* future-feature loss: the target features are detached, gradient reaches
  the predictions only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import dataio
from . import nn
from .autodiff import Tensor
from .errors import ConfigError, ShapeError


# -- prototype stores ----------------------------------------------------------

@dataclass
class ProtoStore:
    kind: str                  # "visual" | "language"
    tensor: Tensor             # (K, d)
    class_names: list = None
    frozen: bool = False
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in ("visual", "language"):
            raise ConfigError(f"unknown prototype kind '{self.kind}'")
        if self.kind == "language":
            self.frozen = True
        self.tensor.requires_grad = self.kind == "visual" and not self.frozen

    @property
    def num_classes(self):
        return self.tensor.shape[0]

    @property
    def d(self):
        return self.tensor.shape[1]

    def freeze(self):
        self.frozen = True
        self.tensor.requires_grad = False

    @classmethod
    def load(cls, path, kind, class_names=None, frozen=False):
        return cls(kind=kind, tensor=Tensor(read_protos(path)),
                   class_names=class_names, frozen=frozen)


def read_protos(path):
    return dataio.read_prototype_file(path).astype(np.float64)


def init_visual_prototypes(mode, num_classes, d, seed,
                           embeddings=None, labels=None, class_names=None):
    """Build the visual prototype store.

    * ``random`` -- N(0, 1/sqrt(d)) rows.
    * ``class-mean`` -- average of the supplied per-sample embeddings by class
      (raw encoder features).
    * ``recognition-mean`` -- same averaging, but the caller supplies
      embeddings extracted from the architecture pre-trained for per-clip
      recognition (see trainer.recognition_embeddings).

    Classes with zero samples in the mean modes fall back to random rows and
    are listed in the store's warnings.
    """
    rng = np.random.default_rng(seed)
    random_rows = rng.normal(0.0, 1.0 / math.sqrt(d), (num_classes, d))
    warnings = []
    if mode == "random":
        rows = random_rows
    elif mode in ("class-mean", "recognition-mean"):
        if embeddings is None or labels is None:
            raise ConfigError(f"mode '{mode}' needs embeddings and labels")
        embeddings = np.asarray(embeddings, dtype=np.float64)
        labels = np.asarray(labels)
        rows = random_rows.copy()
        for k in range(num_classes):
            mask = labels == k
            if mask.any():
                rows[k] = embeddings[mask].mean(axis=0)
            else:
                warnings.append(f"class {k}: no samples, random initialization")
    else:
        raise ConfigError(f"unknown prototype init mode '{mode}'")
    return ProtoStore(kind="visual", tensor=Tensor(rows, requires_grad=True),
                      class_names=class_names, warnings=warnings)


# -- relative representations ---------------------------------------------------

def choose_subset(num_classes, ratio, seed):
    """Fixed seeded prototype subset of size ceil(ratio*K), drawn once."""
    if not 0.0 < ratio <= 1.0:
        raise ConfigError(f"subset ratio must be in (0, 1], got {ratio}")
    size = math.ceil(ratio * num_classes)
    if size == num_classes:
        return np.arange(num_classes)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(num_classes, size=size, replace=False))


def _rows(protos: Tensor, subset=None) -> Tensor:
    return protos if subset is None else protos[np.asarray(subset, dtype=np.intp)]


def relative_repr(x: Tensor, protos: Tensor, subset=None) -> Tensor:
    """(n, K') cosine similarities of the (n, d) rows of `x` against (a
    subset of) the prototype rows, differentiable through both arguments."""
    return ad.cosine(x, _rows(protos, subset))


class LanguageTargets:
    """Precomputed rows of the language-prototype self-similarity matrix.

    The language encoding of label y is the prototype itself, so the target
    relative representation is row y of cos(rho_l, rho_l).
    """

    def __init__(self, store: ProtoStore):
        self.matrix = similarity_matrix(store)

    def row(self, y, subset=None) -> Tensor:
        """Row y, or one row per class when `y` is a sequence of classes."""
        y = np.asarray(y, dtype=np.intp)
        if np.any((y < 0) | (y >= self.matrix.shape[0])):
            raise IndexError(f"class {y} out of range")
        row = self.matrix[y]
        if subset is not None:
            row = row[..., np.asarray(subset, dtype=np.intp)]
        return Tensor(row)


# -- classification head -----------------------------------------------------------

class CosineHead(nn.Module):
    """Mix the decoder embedding with a similarity-weighted prototype
    aggregate, then project to class logits. Every method takes a stack of
    embeddings (n, d) and works row by row."""

    def __init__(self, d, num_classes, rng):
        self.alpha = Tensor(np.asarray(0.0), requires_grad=True)
        self.w_cls = nn.Linear(d, num_classes, rng)

    def aggregate(self, z: Tensor, protos: Tensor, subset=None) -> Tensor:
        """softmax(r^z) . P over the subset; r^z keeps gradient to z here."""
        p = _rows(protos, subset)
        return ad.matmul(ad.softmax(ad.cosine(z, p), axis=-1), p)

    def cosine_attention(self, z: Tensor, protos: Tensor, subset=None) -> Tensor:
        return ad.gate_mix(self.alpha, z, self.aggregate(z, protos, subset=subset))

    def classify(self, z_hat: Tensor):
        logits = self.w_cls(z_hat)
        return logits, ad.softmax(logits, axis=-1)


class LinearHead(nn.Module):
    """Plain linear classifier (the no-semantics baseline head)."""

    def __init__(self, d, num_classes, rng):
        self.w_cls = nn.Linear(d, num_classes, rng)

    def classify(self, z: Tensor):
        logits = self.w_cls(z)
        return logits, ad.softmax(logits, axis=-1)


# -- losses ----------------------------------------------------------------------

def _pooled(entries: Tensor, pool=None) -> Tensor:
    """Row means of (n, m) `entries`, averaged over the rows with weights
    `pool`: (n,) weights give a scalar, (B, n) weights one value per clip. No
    `pool` weighs every row 1/n."""
    if pool is None:
        pool = np.full(entries.shape[0], 1.0 / entries.shape[0])
    pool = np.asarray(pool, dtype=np.float64) / entries.shape[-1]
    return (entries * pool[..., None]).sum(axis=(-2, -1))


def loss_sem(z: Tensor, protos: Tensor, target_row: Tensor, subset=None,
             pool=None) -> Tensor:
    """Mean |r^z - r^enc(y)| with z detached: gradient reaches protos only.

    z (n, d) takes (n, K') target rows; the mean runs over every entry, so it
    is the mean over rows of each row's loss. With `pool` (see `_pooled`) the
    rows are averaged with its weights, e.g. per clip.
    """
    r_z = relative_repr(z.detach(), protos, subset=subset)
    if r_z.shape != target_row.shape:
        raise ShapeError(f"relative reprs disagree: {r_z.shape} vs "
                         f"{target_row.shape}")
    return _pooled((r_z - target_row.detach()).abs(), pool)


def loss_reg(z: Tensor, protos: Tensor, y, pool=None) -> Tensor:
    """Mean squared pull of z toward its own (detached) class prototype; z
    (n, d) takes n classes and averages over rows, or over them with the
    weights `pool` (see `_pooled`)."""
    y = np.asarray(y, dtype=np.intp)
    if np.any((y < 0) | (y >= protos.shape[0])):
        raise IndexError(f"class {y} out of range")
    target = protos[y].detach()
    if z.ndim != 2 or z.shape != target.shape:
        raise ShapeError(f"loss_reg: z {z.shape} vs prototypes {target.shape}")
    return _pooled((z - target) ** 2, pool)


def loss_cls(logits: Tensor, y) -> Tensor:
    """Cross-entropy of class y; (n, K) logits take n classes and give one
    value per row."""
    return ad.cross_entropy(logits, y)


def loss_feat(future: Tensor, merged: Tensor) -> Tensor:
    """Sum over t < T-1 of the mean squared error between future_t and
    detach(merged_{t+1}), in one pass: ((future[:-1] - merged[1:])^2).sum() / d;
    0 for T=1, where the slices are empty.

    (..., T, d) streams give one value per leading index (per clip)."""
    if merged.shape != future.shape:
        raise ShapeError(f"future {future.shape} vs merged {merged.shape}")
    sq = (future[..., :-1, :] - merged.detach()[..., 1:, :]) ** 2
    return sq.sum(axis=(-2, -1)) * (1.0 / future.shape[-1])


@dataclass(frozen=True)
class LossWeights:
    sem: float
    reg: float
    cls: float
    past: float
    feat: float

    def as_dict(self):
        return {"sem": self.sem, "reg": self.reg, "cls": self.cls,
                "past": self.past, "feat": self.feat}


def total_loss(parts: dict, weights: LossWeights) -> Tensor:
    """Weighted sum of the five loss parts; every part must be present.
    Per-clip (B,) parts give per-clip (B,) totals."""
    wd = weights.as_dict()
    missing = set(wd) - set(parts)
    if missing:
        raise ConfigError(f"missing loss parts: {sorted(missing)}")
    total = Tensor(np.asarray(0.0))
    for name, w in wd.items():
        total = total + w * parts[name]
    return total


# -- geometry analysis -----------------------------------------------------------

def similarity_matrix(store: ProtoStore) -> np.ndarray:
    return nn.cosine_matrix(store.tensor.data, store.tensor.data)


def alignment_score(store_a: ProtoStore, store_b: ProtoStore) -> float:
    """Pearson correlation of the two stores' off-diagonal cosine entries."""
    if store_a.num_classes != store_b.num_classes:
        raise ShapeError(f"stores disagree on K: {store_a.num_classes} vs "
                         f"{store_b.num_classes}")
    k = store_a.num_classes
    mask = ~np.eye(k, dtype=bool)
    a = similarity_matrix(store_a)[mask]
    b = similarity_matrix(store_b)[mask]
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    if denom == 0.0:
        return 0.0
    return float((a * b).sum() / denom)


def nearest_actions(ref_class, store: ProtoStore, n=5):
    """The n most cosine-similar classes to `ref_class`, excluding itself, so
    at most K-1 of them."""
    sims = similarity_matrix(store)[ref_class]
    others = np.delete(np.arange(store.num_classes), ref_class)
    order = others[np.argsort(-sims[others], kind="stable")][:n]
    names = store.class_names or [str(i) for i in range(store.num_classes)]
    return [(int(i), names[int(i)], float(sims[int(i)])) for i in order]
