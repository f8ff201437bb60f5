"""The feature adapter and the passthrough encoder."""

import numpy as np
import pytest

from sgear.encoder import (EncoderConfig, FeatureAdapter, PassthroughEncoder,
                           build_encoder)
from sgear.errors import ConfigError, ShapeError


class TestFeatureAdapter:
    def _adapter(self, d=6, identity=True, seed=3):
        rng = np.random.default_rng(seed)
        cfg = EncoderConfig(mode="adapter", d=d)
        adapter = FeatureAdapter(cfg, rng)
        if identity:
            adapter.lin.w.data[...] = np.eye(d)
            adapter.lin.b.data[...] = 0.0
        return adapter

    def test_missing_stats(self):
        adapter = self._adapter()
        with pytest.raises(ConfigError):
            adapter(np.zeros((2, 1, 6)))

    def test_centering(self):
        adapter = self._adapter()
        mu = np.arange(6, dtype=float)
        adapter.set_prototype_stats(mu, np.ones(6))
        out = adapter(np.tile(mu, (3, 1, 1))).data
        assert np.abs(out).max() < 1e-12

    def test_unit_sigma(self):
        adapter = self._adapter()
        mu = np.full(6, 2.0)
        adapter.set_prototype_stats(mu, np.ones(6))
        x = np.random.default_rng(4).normal(size=(2, 6))
        out = adapter(x[:, None, :]).data[:, 0, :]
        assert np.abs(out - (x - mu)).max() < 1e-12

    def test_statistics_oracle(self):
        rng = np.random.default_rng(5)
        protos = rng.normal(size=(3, 6))
        mu, sigma = FeatureAdapter.stats_from_prototypes(protos)
        adapter = self._adapter()
        adapter.set_prototype_stats(mu, sigma)
        x = rng.normal(size=(4, 6))
        out = adapter(x[:, None, :]).data[:, 0, :]
        expect = (x - protos.mean(axis=0)) / np.maximum(protos.std(axis=0), 1e-6)
        assert np.abs(out - expect).max() < 1e-6

    def test_sigma_floor(self):
        adapter = self._adapter()
        adapter.set_prototype_stats(np.zeros(6), np.zeros(6))
        out = adapter(np.full((1, 1, 6), 1e-6)).data
        assert np.all(np.isfinite(out)) and np.abs(out - 1.0).max() < 1e-9

    def test_output_shape(self):
        adapter = self._adapter()
        adapter.set_prototype_stats(np.zeros(6), np.ones(6))
        assert adapter(np.zeros((5, 1, 6))).shape == (5, 1, 6)
        assert adapter(np.zeros((2, 5, 1, 6))).shape == (2, 5, 1, 6)

    def test_rejects_features_without_a_token_axis(self):
        adapter = self._adapter()
        adapter.set_prototype_stats(np.zeros(6), np.ones(6))
        with pytest.raises(ShapeError, match="adapter expects"):
            adapter(np.zeros((5, 6)))


class TestPassthrough:
    def test_identity_at_init_geometry(self):
        rng = np.random.default_rng(6)
        enc = PassthroughEncoder(EncoderConfig(mode="passthrough", d=8), rng)
        x = rng.normal(size=(3, 2, 8))
        out = enc(x).data
        # initialization is identity plus small noise
        assert np.abs(out - x).max() < 0.5

    def test_rejects_wrong_rank(self):
        rng = np.random.default_rng(8)
        enc = PassthroughEncoder(EncoderConfig(mode="passthrough", d=8), rng)
        with pytest.raises(ShapeError):
            enc(np.zeros((3, 8)))


def test_build_encoder_dispatch():
    rng = np.random.default_rng(9)
    assert isinstance(build_encoder(EncoderConfig(mode="adapter", d=4), rng),
                      FeatureAdapter)
    assert isinstance(
        build_encoder(EncoderConfig(mode="passthrough", d=4), rng),
        PassthroughEncoder)
    for mode in ("nope", "vit-lite"):
        with pytest.raises(ConfigError):
            EncoderConfig(mode=mode, d=4)
