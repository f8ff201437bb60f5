"""Optimization loop: schedules, SGD-with-momentum and AdamW, dataset-named
hyperparameter presets, deterministic training, and versioned checkpoints.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import dataio
from .autodiff import Tensor
from .encoder import FeatureAdapter
from .errors import ConfigError, DataError, FormatError, NumericError
from .model import ModelConfig, SgearModel, config_from_dict, config_to_dict
from .semantic import LossWeights, ProtoStore

CHECKPOINT_MAGIC = b"SGCK"
# 2: the encoder config holds only its mode and d; 3: config-sized sections
CHECKPOINT_VERSION = 3
_HEADER_KEYS = {"config", "sections", "step", "visual_frozen"}
# the stores come first: the model is built from them
SECTIONS = ("store.visual", "store.language", "adapter.mu", "adapter.inv_sigma",
            "param", "opt.t", "opt.m", "opt.v", "opt.velocity")


# -- schedule -----------------------------------------------------------------

def lr_at(step, base_lr, warmup_steps, total_steps):
    """Linear warmup 0 -> base_lr, then cosine decay to 0 at the final step."""
    if step < 0:
        raise ConfigError("step must be >= 0")
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    if total_steps <= warmup_steps:
        return base_lr
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    progress = min(progress, 1.0)
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


# -- optimizers ------------------------------------------------------------------

class _FlatOptimizer:
    """Base of `Sgd` and `AdamW`: the parameters, sorted by name, live in one
    float64 buffer, each ``p.data`` a view of it, so a step is a few numpy ops."""

    def __init__(self, params: dict, weight_decay):
        self.params = dict(sorted(params.items()))
        if len({id(p) for p in self.params.values()}) < len(self.params):
            raise ConfigError("a Tensor is registered under two names")
        self.weight_decay = weight_decay
        self._sizes = [p.data.size for p in self.params.values()]
        self.flat = np.concatenate([p.data.ravel() for p in self.params.values()])
        for p, view in zip(self.params.values(), self._views(self.flat).values()):
            p.data = view

    def _views(self, flat):
        parts = np.split(flat, np.cumsum(self._sizes)[:-1])
        return {k: a.reshape(p.shape)
                for (k, p), a in zip(self.params.items(), parts)}

    def _gather(self, clip):
        """The flat gradient, clipped to global norm `clip` when set, and where
        the step may write: a parameter whose ``.grad`` is None is left out."""
        params = self.params.values()
        grad = np.concatenate([np.zeros(p.data.size) if p.grad is None
                               else p.grad.ravel() for p in params])
        _clip(grad, clip)
        has = [p.grad is not None for p in params]
        return grad, True if all(has) else np.repeat(has, self._sizes)


class Sgd(_FlatOptimizer):
    """SGD with momentum; weight decay is coupled (added to the gradient)."""

    def __init__(self, params: dict, momentum=0.9, weight_decay=0.0):
        super().__init__(params, weight_decay)
        self.momentum = momentum
        self.velocity = np.zeros_like(self.flat)

    def step(self, lr, clip=None):
        grad, live = self._gather(clip)
        grad += self.weight_decay * self.flat
        np.copyto(self.velocity, self.velocity * self.momentum + grad, where=live)
        np.copyto(self.flat, self.flat - lr * self.velocity, where=live)

    def state_arrays(self):
        return {"velocity": self.velocity}


class AdamW(_FlatOptimizer):
    """Adam with decoupled weight decay."""

    def __init__(self, params: dict, betas=(0.9, 0.999), weight_decay=0.0,
                 eps=1e-8):
        super().__init__(params, weight_decay)
        self.betas = betas
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def step(self, lr, clip=None):
        grad, live = self._gather(clip)
        self.t += 1
        b1, b2 = self.betas
        np.copyto(self.m, self.m * b1 + (1 - b1) * grad, where=live)
        np.copyto(self.v, self.v * b2 + (1 - b2) * grad * grad, where=live)
        m_hat = self.m / (1.0 - b1 ** self.t)
        v_hat = self.v / (1.0 - b2 ** self.t)
        flat = self.flat - lr * self.weight_decay * self.flat
        flat -= lr * m_hat / (np.sqrt(v_hat) + self.eps)
        np.copyto(self.flat, flat, where=live)

    def state_arrays(self):
        return {"t": np.array([float(self.t)]), "m": self.m, "v": self.v}


def build_optimizer(name, params, config):
    if name == "sgd":
        return Sgd(params, momentum=config.momentum,
                   weight_decay=config.weight_decay)
    if name == "adamw":
        return AdamW(params, betas=config.betas,
                     weight_decay=config.weight_decay)
    raise ConfigError(f"unknown optimizer '{name}'")


# -- configuration -----------------------------------------------------------------

@dataclass
class TrainConfig:
    optimizer: str = "sgd"
    lr: float = 1e-4
    momentum: float = 0.9
    betas: tuple = (0.9, 0.999)
    weight_decay: float = 0.0
    batch_size: int = 3
    epochs: int = 10
    warmup_epochs: int = 0
    loss_weights: LossWeights = field(
        default_factory=lambda: LossWeights(1.0, 1.0, 1.0, 1.0, 1.0))
    grad_clip: float = None
    seed: int = 0

    def __post_init__(self):
        if self.warmup_epochs > self.epochs:
            raise ConfigError("warmup_epochs must not exceed epochs")


_PRESETS = {
    # optimizer, lr, momentum, wd, batch, epochs, warmup, loss weights
    "ek100": ("sgd", 1e-4, 0.9, 1e-5, 3, 50, 20,
              LossWeights(4.0, 1.0, 1.0, 1.0, 1.0)),
    "ek55": ("sgd", 1e-4, 0.9, 1e-5, 3, 35, 10,
             LossWeights(2.0, 1.0, 1.0, 1.0, 1.0)),
    "eg": ("sgd", 4.75e-4, 0.9, 1e-5, 3, 10, 5,
           LossWeights(2.0, 1.0, 1.0, 0.1, 1.0)),
    "50s": ("adamw", 5e-6, 0.0, 1e-4, 2, 100, 20,
            LossWeights(1.0, 0.1, 1.0, 0.1, 1.0)),
    # small synthetic-task defaults
    "desk": ("adamw", 3e-3, 0.0, 0.0, 4, 30, 2,
             LossWeights(1.0, 0.5, 1.0, 1.0, 0.5)),
}


def make_preset(name) -> TrainConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset '{name}'; choose from "
                          f"{sorted(_PRESETS)}")
    opt, lr, momentum, wd, batch, epochs, warmup, weights = _PRESETS[name]
    return TrainConfig(optimizer=opt, lr=lr, momentum=momentum,
                       weight_decay=wd, batch_size=batch, epochs=epochs,
                       warmup_epochs=warmup, loss_weights=weights)


# -- dataset loading --------------------------------------------------------------

def load_dataset(manifest_path):
    """Materialize all clips: list of (features, target, past_labels).

    past_labels[t] is the class of frame t when a label time falls on that
    frame (within half a frame period), else None.
    """
    manifest = dataio.read_manifest(manifest_path)
    t_len = manifest.frames_per_clip
    clips = []
    shape = None
    for rec in manifest.records:
        feats = dataio.load_clip_features(manifest_path, rec).astype(np.float64)
        # every clip is (T, tokens, d) like the first, so batches stack
        expect = shape or (t_len,) + feats.shape[1:]
        if feats.shape != expect:
            raise DataError(f"{rec.clip_id}: features of shape {feats.shape}, "
                            f"expected {expect} ({t_len} frames per clip, "
                            f"tokens and d of the first clip)")
        shape = expect
        times = dataio.sample_observation_window(
            rec.start_time, manifest.tau_o, manifest.tau_a, manifest.fps)
        past_labels = [None] * t_len
        for label_time, cls in rec.labels:
            for i, ft in enumerate(times):
                if abs(ft - label_time) <= 0.5 / manifest.fps:
                    past_labels[i] = cls
                    break
        clips.append((feats, rec.target_class, past_labels))
    return manifest, clips


# -- training loop ----------------------------------------------------------------

def train_step(batch, model: SgearModel, weights: LossWeights, optimizer, lr,
               grad_clip=None):
    """One optimization step over a batch of clips, run through the model as
    one graph (loss: mean of per-clip losses), with the global gradient norm
    clipped to `grad_clip` when it is set. The clip scales the optimizer's
    flat gradient; each ``p.grad`` keeps the unclipped gradient. The
    gradients zeroed are the optimizer's parameters (the model's when there
    is no optimizer).

    Returns the per-part mean loss record as floats.
    """
    params = model.parameters() if optimizer is None else optimizer.params
    for p in params.values():
        p.zero_grad()
    feats, targets, past_labels = zip(*batch)
    out = model.total_loss(np.stack(feats), list(targets), weights,
                           past_labels=list(past_labels))
    record = {}
    for name, part in out["parts"].items():
        if not np.all(np.isfinite(part.data)):
            raise NumericError(f"non-finite '{name}' loss part")
        record[name] = float(part.data.mean())
    total = out["loss"]
    loss_value = float(total.data)
    if not np.isfinite(loss_value):
        raise NumericError("non-finite total loss")
    total.backward()
    if optimizer is not None:
        optimizer.step(lr, grad_clip)
    record["total"] = loss_value
    return record


def _clip(grad, clip):
    """Scale the flat gradient in place to global norm `clip` when larger."""
    if clip:
        norm = np.sqrt(grad @ grad)
        if norm > clip:
            grad *= clip / norm


def fit(model: SgearModel, clips, config: TrainConfig, log_every=0):
    """Deterministic training over the in-memory clip list.

    Returns the history: one loss record per step.
    """
    optimizer = build_optimizer(config.optimizer, model.parameters(), config)
    rng = np.random.default_rng(config.seed)
    steps_per_epoch = max(1, int(np.ceil(len(clips) / config.batch_size)))
    total_steps = config.epochs * steps_per_epoch
    warmup_steps = config.warmup_epochs * steps_per_epoch
    history = []
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(clips))
        for start in range(0, len(clips), config.batch_size):
            batch = [clips[i] for i in order[start:start + config.batch_size]]
            lr = lr_at(step, config.lr, warmup_steps, total_steps)
            record = train_step(batch, model, config.loss_weights, optimizer,
                                lr, grad_clip=config.grad_clip)
            record["lr"] = lr
            record["step"] = step
            history.append(record)
            if log_every and step % log_every == 0:
                parts = " ".join(f"{k}={v:.4f}" for k, v in record.items()
                                 if k not in ("step",))
                print(f"step {step}: {parts}")
            step += 1
    return history, optimizer


# -- recognition pre-training for prototype initialization ------------------------------

def recognition_embeddings(model_config: ModelConfig, clips, train_config,
                           language_store=None):
    """Train the architecture with prototype attention omitted for per-clip
    classification, then extract each clip's final decoder embedding."""
    toggles = replace(model_config.toggles, pa=False, sem=False,
                      use_language_as_visual=False)
    recog_model = SgearModel(replace(model_config, toggles=toggles),
                             language_store=language_store)
    fit(recog_model, clips, train_config)
    feats, labels, _ = zip(*clips)
    with ad.no_grad():
        future = recog_model.decoder.decode(
            recog_model.encode_merge(np.stack(feats)))
    return future.data[:, -1], np.asarray(labels)


# -- checkpoints ---------------------------------------------------------------------

def save_checkpoint(path, model: SgearModel, optimizer=None, step=0):
    """Versioned container: JSON header, then the sections (`SECTIONS`) of
    one little-endian float64 block."""
    params = model.parameters()
    if optimizer is not None and optimizer.params.keys() != params.keys():
        raise ConfigError("the optimizer's parameters are not the model's")
    arrays = {"param": np.concatenate([p.data.ravel()
                                       for _, p in sorted(params.items())])}
    stores = {"store.visual": model.visual_store,
              "store.language": model.language_store}
    arrays.update((k, s.tensor.data) for k, s in stores.items() if s is not None)
    if isinstance(model.encoder, FeatureAdapter):
        arrays.update(("adapter." + k, v)
                      for k, v in model.encoder.stats_arrays().items())
    if optimizer is not None:
        arrays.update(("opt." + k, v) for k, v in optimizer.state_arrays().items())
    sections = [name for name in SECTIONS if name in arrays]
    header = {
        "version": CHECKPOINT_VERSION,
        "step": step,
        "config": config_to_dict(model.config),
        "visual_frozen": (model.visual_store.frozen
                          if model.visual_store is not None else None),
        "sections": sections,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    payload = np.concatenate([arrays[name].ravel() for name in sections])
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(payload.astype("<f8", copy=False).tobytes())


def load_checkpoint(path):
    """Rebuild the model (and the optimizer's flat buffers) from a checkpoint;
    the rebuilt model sizes each section, and the sections must cover the
    payload exactly. Returns (model, opt_arrays, step)."""
    data, (hlen,) = dataio.read_binary(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                       1, "checkpoint")
    pos = 12 + hlen
    if len(data) < pos:
        raise FormatError("truncated file while reading the JSON header",
                          offset=12)
    try:
        header = json.loads(data[12:pos].decode())
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep
        raise FormatError(f"unreadable checkpoint header: {exc}",
                          offset=12) from exc
    missing = (sorted(_HEADER_KEYS - header.keys())
               if isinstance(header, dict) else sorted(_HEADER_KEYS))
    if missing:
        raise FormatError(f"checkpoint header lacks {missing}", offset=12)
    sections = header["sections"]
    if (not isinstance(sections, list) or not all(x in SECTIONS for x in sections)
            or sections != sorted(set(sections), key=SECTIONS.index)
            or "param" not in sections
            or ("adapter.mu" in sections) != ("adapter.inv_sigma" in sections)):
        raise FormatError(f"checkpoint sections {sections!r} are not distinct "
                          f"names from {SECTIONS} in that order, with 'param' "
                          "and both adapter statistics or neither", offset=12)
    try:
        config = config_from_dict(header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad checkpoint config: {exc!r}", offset=12) from exc

    def take(name, count):
        nonlocal pos
        if len(data) < pos + 8 * count:
            raise FormatError(f"truncated file while reading section '{name}' "
                              f"({count} float64 values)", offset=pos)
        pos += 8 * count
        return np.frombuffer(data, "<f8", count, pos - 8 * count)

    k, d = config.num_classes, config.d
    visual_store = language_store = None
    if "store.visual" in sections:
        visual_store = ProtoStore(
            kind="visual", tensor=Tensor(take("store.visual", k * d).reshape(k, d)
                                         .copy(), requires_grad=True),
            frozen=bool(header["visual_frozen"]))
    if "store.language" in sections:
        language_store = ProtoStore(kind="language", tensor=Tensor(
            take("store.language", k * d).reshape(k, d).copy()))
    try:
        model = SgearModel(config, visual_store=visual_store,
                           language_store=language_store)
    except ConfigError as exc:
        raise FormatError(f"checkpoint config builds no model: {exc}",
                          offset=12) from exc
    # a model without an adapter leaves its sections to fail the length check
    if isinstance(model.encoder, FeatureAdapter) and "adapter.mu" in sections:
        model.encoder.load_stats_arrays(
            {name: take(f"adapter.{name}", d) for name in ("mu", "inv_sigma")})
    params = [p for _, p in sorted(model.parameters().items())]
    sizes = [p.data.size for p in params]
    flat = take("param", sum(sizes))
    for p, part in zip(params, np.split(flat, np.cumsum(sizes)[:-1])):
        p.data[...] = part.reshape(p.shape)
    opt_arrays = {name[len("opt."):]: take(name, 1 if name == "opt.t" else flat.size)
                  for name in sections if name.startswith("opt.")}
    if pos != len(data):
        raise FormatError("bytes after the last section", offset=pos)
    return model, opt_arrays, header["step"]
