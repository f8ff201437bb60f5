"""End-to-end model routing: ablation toggles, loss assembly, prediction."""

import numpy as np
import pytest

from sgear import dataio
from sgear.autodiff import Tensor
from sgear.decoder import DecoderConfig
from sgear.encoder import EncoderConfig
from sgear.errors import ConfigError
from sgear.model import (TABLE3_SETTINGS, ModelConfig, SgearModel, Toggles,
                         config_from_dict, config_to_dict)
from sgear.semantic import LinearHead, LossWeights, ProtoStore


K, T, D = 4, 4, 8


def language_store(k=K, d=D):
    protos = dataio.language_prototypes_from_cooccurrence(
        np.full((k, k), 1.0 / k), d)
    return ProtoStore(kind="language", tensor=Tensor(protos))


def make_model(setting="full", k=K, t=T, d=D, ratio=1.0, seed=0):
    config = ModelConfig(
        num_classes=k, frames=t, d=d,
        encoder=EncoderConfig(mode="passthrough", d=d),
        n_tca=1, tca_heads=2,
        decoder=DecoderConfig(d=d, layers=1, heads=2, mlp_hidden=16, max_len=t),
        toggles=TABLE3_SETTINGS[setting], subset_ratio=ratio, seed=seed)
    return SgearModel(config, language_store=language_store(k, d))


class TestToggleRouting:
    def test_baseline_has_linear_head_no_blocks(self):
        model = make_model("1")
        assert isinstance(model.head, LinearHead)
        assert model.tca is None and model.pa is None
        assert model.visual_store is None

    def test_sem_only_uses_cosine_head(self):
        model = make_model("2")
        assert model.use_cosine_head and model.pa is None and model.tca is None

    def test_tca_only(self):
        model = make_model("3")
        assert model.tca is not None and model.pa is None
        assert not model.use_cosine_head

    def test_pa_sem(self):
        model = make_model("4")
        assert model.pa is not None and model.tca is None
        assert model.use_cosine_head

    def test_language_as_visual_is_frozen_copy(self):
        model = make_model("5")
        assert model.visual_store.frozen
        assert not model.visual_store.tensor.requires_grad
        assert np.array_equal(model.visual_store.tensor.data,
                              model.language_store.tensor.data)
        assert "protos.visual" not in model.parameters()

    def test_full_has_everything(self):
        model = make_model("full")
        assert model.tca is not None and model.pa is not None
        assert model.use_cosine_head
        assert "protos.visual" in model.parameters()

    def test_sem_requires_language_store(self):
        config = ModelConfig(num_classes=K, frames=T, d=D,
                             toggles=Toggles(tca=False, pa=False, sem=True))
        with pytest.raises(ConfigError):
            SgearModel(config)

    def test_tca_forbidden_in_adapter_mode(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_classes=K, frames=T, d=D,
                        encoder=EncoderConfig(mode="adapter", d=D),
                        toggles=Toggles(tca=True, pa=False, sem=False))


class TestForward:
    def _inputs(self, seed=1):
        return np.random.default_rng(seed).normal(size=(T, 2, D))

    def test_all_parts_present(self):
        model = make_model("full")
        parts = model.forward(self._inputs(), 1, past_labels=[None, 0, 1, 2])
        assert set(parts) == {"sem", "reg", "cls", "past", "feat"}
        assert float(parts["past"].data) > 0.0 and float(parts["feat"].data) > 0.0

    def test_past_loss_closed_form(self):
        # zeroed head => uniform logits => each labeled step contributes ln K
        model = make_model("1")
        model.head.w_cls.w.data[...] = 0.0
        model.head.w_cls.b.data[...] = 0.0
        parts = model.forward(self._inputs(), 0, past_labels=[None, 1, 2, 3])
        assert abs(float(parts["past"].data) - 3 * np.log(K)) < 1e-9
        assert abs(float(parts["cls"].data) - np.log(K)) < 1e-9

    def test_no_past_labels_give_a_zero_past_part(self):
        model = make_model("1")
        for past_labels in (None, [None] * T, [2, None, None, None]):
            parts = model.forward(self._inputs(), 0, past_labels=past_labels)
            assert float(parts["past"].data) == 0.0

    def test_total_loss_matches_manual_weighting(self):
        model = make_model("full")
        weights = LossWeights(4.0, 1.0, 1.0, 1.0, 1.0)
        out = model.total_loss(self._inputs(), 2, weights,
                               past_labels=[None, 0, 1, 2])
        manual = sum(getattr(weights, name) * float(part.data)
                     for name, part in out["parts"].items())
        assert abs(float(out["loss"].data) - manual) < 1e-9

    def test_sem_weight_ignored_when_sem_off(self):
        """With the sem toggle off the sem part is 0, so its weight changes
        neither the loss nor any gradient."""
        for setting in ("1", "3", "5"):
            model = make_model(setting)
            runs = []
            for sem in (4.0, 0.0):
                for p in model.parameters().values():
                    p.zero_grad()
                out = model.total_loss(self._inputs(), 2,
                                       LossWeights(sem, 1.0, 1.0, 1.0, 1.0),
                                       past_labels=[None, 0, 1, 2])
                out["loss"].backward()
                assert float(out["parts"]["sem"].data) == 0.0
                runs.append((out["loss"].data.copy(),
                             [p.grad for p in model.parameters().values()]))
            (loss, grads), (want_loss, want_grads) = runs
            assert np.array_equal(loss, want_loss)
            for g, w in zip(grads, want_grads):
                assert (g is None) == (w is None)
                assert g is None or np.array_equal(g, w)

    def test_wrong_frame_count(self):
        model = make_model("full")
        with pytest.raises(Exception):
            model.forward(np.zeros((T + 1, 2, D)), 0)


class TestPredict:
    def test_probabilities_normalized(self):
        model = make_model("full")
        probs = model.predict(np.random.default_rng(2).normal(size=(T, 2, D)))
        assert probs.shape == (K,)
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_subset_probs_zero_outside(self):
        model = make_model("full", k=8, ratio=0.5)
        assert len(model.subset) == 4
        probs = model.predict(np.random.default_rng(3).normal(size=(T, 2, D)))
        outside = np.setdiff1d(np.arange(8), model.subset)
        assert np.all(probs[outside] == 0.0)
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_rollout_changes_prediction_horizon(self):
        model = make_model("full")
        x = np.random.default_rng(4).normal(size=(T, 2, D))
        p0 = model.predict(x, n_steps=0)
        p2 = model.predict(x, n_steps=2)
        assert abs(p2.sum() - 1.0) < 1e-9
        assert np.abs(p0 - p2).max() > 0.0

    def test_deterministic(self):
        model = make_model("full")
        x = np.random.default_rng(5).normal(size=(T, 2, D))
        assert np.array_equal(model.predict(x), model.predict(x))


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        config = make_model("4").config
        back = config_from_dict(config_to_dict(config))
        assert back == config

    def test_table3_grid(self):
        assert TABLE3_SETTINGS["1"] == Toggles(tca=False, pa=False, sem=False)
        assert TABLE3_SETTINGS["5"].use_language_as_visual
        assert TABLE3_SETTINGS["full"] == Toggles()
