"""Full anticipation model: encoder -> [temporal aggregation] -> [prototype
attention + merge] -> causal decoder -> classification head, with all five
training losses.

Ablation toggles route exactly as the study grid:

* baseline        -- linear head, no temporal aggregation, no prototypes;
* sem             -- prototype learning + cosine-attention head;
* tca             -- temporal context aggregation;
* pa              -- prototype attention (needs a prototype store);
* use_language_as_visual -- visual store replaced by the frozen language
  store, semantic loss off.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import nn
from . import semantic
from .autodiff import Tensor
from .dataio import is_int
from .decoder import CausalDecoder, DecoderConfig
from .encoder import EncoderConfig, build_encoder
from .errors import ConfigError, ShapeError
from .pa import PaBlock
from .semantic import (CosineHead, LanguageTargets, LinearHead, LossWeights,
                       ProtoStore)
from .tca import TcaStack


@dataclass
class Toggles:
    tca: bool = True
    pa: bool = True
    sem: bool = True
    use_language_as_visual: bool = False


TABLE3_SETTINGS = {
    "1": Toggles(tca=False, pa=False, sem=False),
    "2": Toggles(tca=False, pa=False, sem=True),
    "3": Toggles(tca=True, pa=False, sem=False),
    "4": Toggles(tca=False, pa=True, sem=True),
    "5": Toggles(tca=True, pa=True, sem=False, use_language_as_visual=True),
    "full": Toggles(),
}


@dataclass
class ModelConfig:
    num_classes: int
    frames: int
    d: int = 64
    encoder: EncoderConfig = None
    n_tca: int = 2
    tca_heads: int = 2
    pa_k: int = 1
    decoder: DecoderConfig = None
    toggles: Toggles = field(default_factory=Toggles)
    subset_ratio: float = 1.0
    subset_seed: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.encoder is None:
            self.encoder = EncoderConfig(mode="passthrough", d=self.d)
        if self.decoder is None:
            self.decoder = DecoderConfig(d=self.d, max_len=max(self.frames, 1))
        if self.encoder.d != self.d or self.decoder.d != self.d:
            raise ConfigError("encoder/decoder dimensionality must match d")
        if self.toggles.tca and self.encoder.mode == "adapter":
            raise ConfigError(
                "temporal aggregation needs multi-token features; disable the "
                "tca toggle in adapter mode")


class SgearModel(nn.Module):
    def __init__(self, config: ModelConfig, visual_store: ProtoStore = None,
                 language_store: ProtoStore = None):
        self.config = config
        rng = np.random.default_rng(config.seed)
        toggles = config.toggles

        needs_protos = toggles.pa or toggles.sem or toggles.use_language_as_visual
        if toggles.use_language_as_visual:
            if language_store is None:
                raise ConfigError("use_language_as_visual needs a language store")
            visual_store = ProtoStore(
                kind="visual", tensor=Tensor(language_store.tensor.data.copy()),
                class_names=language_store.class_names, frozen=True)
        if needs_protos and visual_store is None:
            visual_store = semantic.init_visual_prototypes(
                "random", config.num_classes, config.d, seed=config.seed)
        if toggles.sem and language_store is None:
            raise ConfigError("semantic guidance needs a language store")

        self.visual_store = visual_store
        self.language_store = language_store
        self.language_targets = (LanguageTargets(language_store)
                                 if language_store is not None else None)
        self.subset = semantic.choose_subset(
            config.num_classes, config.subset_ratio, config.subset_seed)

        self.encoder = build_encoder(config.encoder, rng)
        self.tca = (TcaStack(config.d, config.tca_heads, config.frames, rng,
                             n_blocks=config.n_tca)
                    if toggles.tca else None)
        self.pa = (PaBlock(config.d, config.frames, rng, k=config.pa_k)
                   if toggles.pa else None)
        self.decoder = CausalDecoder(config.decoder, rng)
        self.use_cosine_head = needs_protos
        self.head = (CosineHead(config.d, config.num_classes, rng)
                     if self.use_cosine_head
                     else LinearHead(config.d, config.num_classes, rng))

    # -- forward pieces -----------------------------------------------------

    def _subset_or_none(self):
        return None if len(self.subset) == self.config.num_classes else self.subset

    def encode_merge(self, inputs):
        """Run encoder, temporal aggregation and prototype attention;
        returns the (..., T, d) merged stream, one per clip. Token 0 of each
        frame is its class token."""
        tokens = self.encoder(inputs)
        if tokens.shape[-3] != self.config.frames:
            raise ShapeError(f"model sized for T={self.config.frames}, got "
                             f"T={tokens.shape[-3]}")
        cls_causal = (self.tca(tokens) if self.tca is not None else tokens)[..., 0, :]
        if self.pa is not None:
            fused = self.pa(tokens[..., 0, :], self.visual_store.tensor)
            return self.pa.merge(cls_causal, fused)
        return cls_causal

    def step_logits(self, z: Tensor):
        """Route a stack of decoder embeddings (n, d) through the
        classification head."""
        sub = self._subset_or_none()
        if self.use_cosine_head:
            z_hat = self.head.cosine_attention(z, self.visual_store.tensor,
                                               subset=sub)
            return self.head.classify(z_hat)
        return self.head.classify(z)

    def step_probs(self, z: Tensor) -> np.ndarray:
        """(n, K) class probabilities of a stack of decoder embeddings (n, d);
        with a prototype subset active the softmax runs over the subset's
        logits only and the other classes score 0."""
        logits, probs = self.step_logits(z)
        sub = self._subset_or_none()
        if sub is None:
            return probs.data
        out = np.zeros((*logits.shape[:-1], self.config.num_classes))
        out[..., sub] = ad.softmax(logits[..., sub], axis=-1).data
        return out

    # -- training forward ------------------------------------------------------

    def forward(self, inputs, target, past_labels=None):
        """The five loss parts, for one clip or a batch.

        One clip: `target` is its class and `past_labels` an optional length-T
        list, entry t the class of frame t or None; step t < T-1 predicts
        past_labels[t+1]. A batch of B clips: `inputs` gains a leading clip
        axis, `target` is a sequence of B classes and `past_labels` None or B
        such lists (each may be None). One clip runs as a batch of one; either
        way the call builds one graph.

        The labelled steps form rows: each clip's final step T-1 first, then
        the (clip, t) with past_labels[t+1] known, in order. The head and each
        loss run once over all rows. Per clip, `cls` is its final row's
        cross-entropy, `past` the sum over its other rows (0 without past
        labels), `sem` and `reg` means over its rows and `feat` one shifted
        squared error over its steps: scalars for one clip, (B,) vectors for a
        batch.
        """
        one = np.ndim(target) == 0
        if one:
            inputs = np.asarray(inputs)[None]
            target, past_labels = [target], [past_labels]
        elif past_labels is None:
            past_labels = [None] * len(target)
        n_clips, t_len = len(target), self.config.frames
        rows = [(b, t_len - 1, y) for b, y in enumerate(target)]
        rows += [(b, t, past[t + 1]) for b, past in enumerate(past_labels) if past
                 for t in range(t_len - 1) if past[t + 1] is not None]
        clip, step, labels = (np.array(col) for col in zip(*rows))
        # (B, n) row ownership; for one clip the parts drop the clip axis here
        own = clip == np.arange(n_clips)[:, None]
        final = np.arange(n_clips)
        if one:
            own, final = own[0], 0
        past_rows = own & (np.arange(len(rows)) >= n_clips)
        pool = own / own.sum(axis=-1, keepdims=True)
        no_part = Tensor(np.zeros(np.shape(final)))

        sub = self._subset_or_none()
        merged = self.encode_merge(inputs)
        future = self.decoder.decode(merged)
        z = future[clip, step]
        logits, _ = self.step_logits(z)
        ce = semantic.loss_cls(logits, labels)
        parts = {"cls": ce[final], "past": (ce * past_rows).sum(axis=-1)}

        # sem needs language targets; reg applies whenever prototypes are in
        # play (including the frozen language-as-visual ablation)
        protos = self.visual_store.tensor if self.use_cosine_head else None
        parts["sem"] = (semantic.loss_sem(
            z, protos, self.language_targets.row(labels, subset=sub),
            subset=sub, pool=pool) if self.config.toggles.sem else no_part)
        parts["reg"] = (semantic.loss_reg(z, protos, labels, pool=pool)
                        if self.use_cosine_head else no_part)
        feat = semantic.loss_feat(future, merged)
        parts["feat"] = feat[0] if one else feat
        return parts

    def total_loss(self, inputs, target, weights: LossWeights, past_labels=None):
        """The loss parts (`forward`) and their weighted sum; a batch's loss is
        the mean of its clips' losses."""
        parts = self.forward(inputs, target, past_labels=past_labels)
        loss = semantic.total_loss(parts, weights)
        return {"loss": loss.mean() if loss.ndim else loss, "parts": parts}

    # -- inference ----------------------------------------------------------------

    def predict(self, inputs, n_steps=0) -> np.ndarray:
        """Class probabilities, (K,) for one clip (T, tokens, d) or (B, K) for
        a stack of clips (B, T, tokens, d); one clip runs as a stack of one.
        n_steps > 0 rolls the decoder forward autoregressively before
        classifying. Builds no graph."""
        one = np.ndim(inputs) == 3
        if one:
            inputs = np.asarray(inputs)[None]
        with ad.no_grad():
            future = self.decoder.rollout(self.encode_merge(inputs), n_steps)
            probs = self.step_probs(future[..., -1, :])
        return probs[0] if one else probs

    # -- registry ------------------------------------------------------------------

    def parameters(self):
        params = super().parameters()
        if (self.visual_store is not None
                and self.visual_store.tensor.requires_grad):
            params["protos.visual"] = self.visual_store.tensor
        return params


def config_to_dict(config: ModelConfig) -> dict:
    return asdict(config)


# int fields that may be 0; every other int field counts something, so >= 1
_MAY_BE_ZERO = {"seed", "subset_seed", "max_rollout_steps"}


def _checked(cls, obj):
    """cls(**obj) once `obj` is a dict whose given int fields are ints (not
    bools) of at least 1 (0 for `_MAY_BE_ZERO`), whose bool fields are bools
    and whose subset_ratio is in (0, 1]; ConfigError naming the field
    otherwise. A missing field keeps its default, or fails in cls."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{cls.__name__} must be an object, got {obj!r}")
    for f in fields(cls):
        if f.name not in obj:
            continue
        value = obj[f.name]
        if f.type == "int":
            low = 0 if f.name in _MAY_BE_ZERO else 1
            ok, need = is_int(value) and value >= low, f"an int >= {low}"
        elif f.type == "bool":
            ok, need = isinstance(value, bool), "a bool"
        elif f.name == "subset_ratio":
            ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
                  and 0 < value <= 1)
            need = "a number in (0, 1]"
        else:
            continue
        if not ok:
            raise ConfigError(f"{cls.__name__}.{f.name} is {value!r}, not {need}")
    return cls(**obj)


def config_from_dict(obj: dict) -> ModelConfig:
    """The config `config_to_dict` wrote, read from outside data, so every
    field is checked (`_checked`) before any is used."""
    nested = {key: _checked(cls, obj[key]) for key, cls in (
        ("encoder", EncoderConfig), ("decoder", DecoderConfig),
        ("toggles", Toggles))}
    return _checked(ModelConfig, {**obj, **nested})
