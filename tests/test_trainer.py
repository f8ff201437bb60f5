"""Schedules, optimizers, presets, the training loop and checkpoints."""

import json
import struct

import numpy as np
import pytest

import sgear.autodiff as ad
from sgear import dataio, trainer
from sgear.autodiff import Tensor
from sgear.decoder import DecoderConfig
from sgear.encoder import EncoderConfig
from sgear.errors import ConfigError, DataError, FormatError, NumericError
from sgear.model import TABLE3_SETTINGS, ModelConfig, SgearModel
from sgear.semantic import LossWeights, ProtoStore
from sgear.trainer import (AdamW, Sgd, TrainConfig, fit, load_checkpoint,
                           load_dataset, lr_at, make_preset,
                           recognition_embeddings, save_checkpoint, train_step)


class TestSchedule:
    def test_warmup_start_is_zero(self):
        assert lr_at(0, 1e-3, 10, 100) == 0.0

    def test_warmup_end_hits_base(self):
        assert lr_at(10, 1e-3, 10, 100) == 1e-3

    def test_cosine_reaches_zero(self):
        assert lr_at(100, 1e-3, 10, 100) < 1e-8 * 1e-3

    def test_cosine_midpoint(self):
        assert abs(lr_at(55, 1e-3, 10, 100) - 5e-4) < 1e-12

    def test_monotone_after_warmup(self):
        values = [lr_at(s, 1e-3, 10, 100) for s in range(10, 101)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestOptimizers:
    def test_plain_sgd_step_oracle(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.array([0.5, 0.25])
        Sgd({"p": p}, momentum=0.0, weight_decay=0.0).step(0.1)
        assert np.array_equal(p.data, [1.0 - 0.05, -2.0 - 0.025])

    def test_sgd_momentum_accumulates(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Sgd({"p": p}, momentum=0.5, weight_decay=0.0)
        p.grad = np.array([1.0])
        opt.step(1.0)        # v=1, p=-1
        opt.step(1.0)        # v=1.5, p=-2.5
        assert np.allclose(p.data, [-2.5])

    def test_sgd_coupled_weight_decay(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([0.0])
        Sgd({"p": p}, momentum=0.0, weight_decay=0.1).step(1.0)
        assert np.allclose(p.data, [2.0 - 0.2])

    def test_adamw_first_step_oracle(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([0.3])
        opt = AdamW({"p": p}, betas=(0.9, 0.999), weight_decay=0.0)
        opt.step(0.01)
        # bias-corrected m_hat = g, v_hat = g^2 => update ~= lr * sign(g)
        expect = 1.0 - 0.01 * 0.3 / (0.3 + 1e-8)
        assert abs(float(p.data[0]) - expect) < 1e-9

    def test_adamw_decoupled_decay(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([0.0])
        opt = AdamW({"p": p}, weight_decay=0.5)
        opt.step(0.1)
        assert abs(float(p.data[0]) - 2.0 * (1 - 0.05)) < 1e-12


class TestPresets:
    def test_ek100_golden(self):
        cfg = make_preset("ek100")
        assert cfg.optimizer == "sgd" and cfg.lr == 1e-4
        assert cfg.momentum == 0.9 and cfg.weight_decay == 1e-5
        assert cfg.batch_size == 3 and cfg.epochs == 50
        assert cfg.warmup_epochs == 20
        assert cfg.loss_weights == LossWeights(4.0, 1.0, 1.0, 1.0, 1.0)

    def test_ek55_golden(self):
        cfg = make_preset("ek55")
        assert cfg.epochs == 35 and cfg.warmup_epochs == 10
        assert cfg.loss_weights == LossWeights(2.0, 1.0, 1.0, 1.0, 1.0)

    def test_eg_golden(self):
        cfg = make_preset("eg")
        assert cfg.lr == 4.75e-4 and cfg.warmup_epochs == 5 and cfg.epochs == 10
        assert cfg.loss_weights == LossWeights(2.0, 1.0, 1.0, 0.1, 1.0)

    def test_50s_golden(self):
        cfg = make_preset("50s")
        assert cfg.optimizer == "adamw" and cfg.lr == 5e-6
        assert cfg.betas == (0.9, 0.999) and cfg.weight_decay == 1e-4
        assert cfg.batch_size == 2 and cfg.epochs == 100
        assert cfg.warmup_epochs == 20
        assert cfg.loss_weights == LossWeights(1.0, 0.1, 1.0, 0.1, 1.0)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            make_preset("ek9000")

    def test_warmup_exceeding_epochs_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=5, warmup_epochs=6)


K, T, D = 4, 4, 8


def tiny_dataset(tmp_path, n_clips=12, k=K, t=T, d=D, seed=0):
    graph = np.full((k, k), 0.02 / (k - 2))
    np.fill_diagonal(graph, 0.0)
    for i in range(k):
        graph[i, (i + 1) % k] = 0.98
    manifest_path, proto_path = dataio.generate_synthetic_dataset(
        tmp_path, k, t, d, n_clips, graph, seed=seed, tokens=2)
    return manifest_path, proto_path


def tiny_model(manifest_path, proto_path, setting="full", seed=0):
    manifest = dataio.read_manifest(manifest_path)
    lang = ProtoStore.load(proto_path, kind="language",
                           class_names=manifest.class_names)
    config = ModelConfig(
        num_classes=K, frames=T, d=D,
        encoder=EncoderConfig(mode="passthrough", d=D),
        n_tca=1, tca_heads=2,
        decoder=DecoderConfig(d=D, layers=1, heads=2, mlp_hidden=16, max_len=T),
        toggles=TABLE3_SETTINGS[setting], seed=seed)
    return SgearModel(config, language_store=lang)


class TestTraining:
    def test_deterministic_loss_trajectory(self, tmp_path):
        manifest_path, proto_path = tiny_dataset(tmp_path)
        _, clips = load_dataset(manifest_path)
        cfg = TrainConfig(optimizer="adamw", lr=1e-3, epochs=2, batch_size=4,
                          seed=3)
        histories = []
        for _ in range(2):
            model = tiny_model(manifest_path, proto_path, seed=5)
            history, _ = fit(model, clips, cfg)
            histories.append([h["total"] for h in history])
        assert histories[0] == histories[1]

    def test_loss_decreases_on_separable_batch(self, tmp_path):
        manifest_path, proto_path = tiny_dataset(tmp_path, n_clips=8)
        _, clips = load_dataset(manifest_path)
        model = tiny_model(manifest_path, proto_path)
        cfg = TrainConfig(optimizer="adamw", lr=3e-3, epochs=25, batch_size=8,
                          seed=0)
        history, _ = fit(model, clips, cfg)   # 25 epochs x 1 step = 25 steps
        first = np.mean([h["total"] for h in history[:3]])
        last = np.mean([h["total"] for h in history[-3:]])
        assert last < first

    def test_non_finite_loss_aborts(self, tmp_path):
        manifest_path, proto_path = tiny_dataset(tmp_path, n_clips=4)
        _, clips = load_dataset(manifest_path)
        model = tiny_model(manifest_path, proto_path)
        model.decoder.pos.data[...] = np.nan
        with pytest.raises(NumericError):
            train_step(clips, model, LossWeights(1, 1, 1, 1, 1), None, 0.0)

    def test_clip_shapes_checked_at_load(self, tmp_path):
        manifest_path, _ = tiny_dataset(tmp_path, n_clips=3)
        clip = tmp_path / "clip_00001.sgft"
        arr = dataio.read_feature_file(clip)
        for bad in (arr[:, :1], arr[:-1], arr[..., :-1]):
            dataio.write_feature_file(clip, bad)
            with pytest.raises(DataError, match="clip_00001"):
                load_dataset(manifest_path)
        # a first clip with the wrong frame count is caught too
        dataio.write_feature_file(clip, arr)
        first = tmp_path / "clip_00000.sgft"
        dataio.write_feature_file(first, dataio.read_feature_file(first)[:-1])
        with pytest.raises(DataError, match="clip_00000"):
            load_dataset(manifest_path)

    @pytest.mark.parametrize("setting", ["full", "4"])
    def test_recognition_embeddings_match_the_per_clip_loop(
            self, tmp_path, monkeypatch, setting):
        """The recognition model drops PA and the semantic loss and keeps
        TCA; one stacked pass gives each clip's final decoder embedding as
        the per-clip loop it replaced did, bit for bit."""
        manifest_path, proto_path = tiny_dataset(tmp_path)
        _, clips = load_dataset(manifest_path)
        config = tiny_model(manifest_path, proto_path, setting=setting).config
        language = ProtoStore.load(proto_path, kind="language")
        trained = []

        def recorded(model, *args, **kwargs):
            trained.append(model)
            return fit(model, *args, **kwargs)

        monkeypatch.setattr(trainer, "fit", recorded)
        cfg = TrainConfig(optimizer="adamw", lr=1e-3, epochs=1, batch_size=4)
        embeddings, labels = recognition_embeddings(config, clips, cfg,
                                                    language_store=language)
        (recog,) = trained
        toggles = recog.config.toggles
        assert (toggles.tca == config.toggles.tca and not toggles.pa
                and not toggles.sem and not toggles.use_language_as_visual)
        assert config.toggles == TABLE3_SETTINGS[setting]
        with ad.no_grad():
            want = [recog.decoder.decode(recog.encode_merge(feats)).data[-1]
                    for feats, _, _ in clips]
        assert np.array_equal(embeddings, np.asarray(want))
        assert list(labels) == [target for _, target, _ in clips]

    def test_past_labels_matched_to_frames(self, tmp_path):
        manifest_path, _ = tiny_dataset(tmp_path, n_clips=3)
        _, clips = load_dataset(manifest_path)
        for _, _, past_labels in clips:
            assert len(past_labels) == T
            assert all(lbl is not None for lbl in past_labels)


def section_ends(data, model):
    """The header of checkpoint bytes `data` and the byte offset where each
    of its sections ends, each sized from `model` as the format says."""
    (hlen,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12:12 + hlen])
    k, d = model.config.num_classes, model.config.d
    n = sum(p.data.size for p in model.parameters().values())
    sizes = {"store.visual": k * d, "store.language": k * d, "adapter.mu": d,
             "adapter.inv_sigma": d, "opt.t": 1}
    offset, ends = 12 + hlen, {}
    for name in header["sections"]:
        offset += 8 * sizes.get(name, n)
        ends[name] = offset
    assert offset == len(data)
    return header, ends


def adapter_model(manifest_path, proto_path):
    """Setting 4 in adapter mode, with its statistics set, and its clips
    (the dataset's first token of each frame)."""
    lang = ProtoStore.load(proto_path, kind="language")
    config = ModelConfig(
        num_classes=K, frames=T, d=D,
        encoder=EncoderConfig(mode="adapter", d=D),
        decoder=DecoderConfig(d=D, layers=1, heads=2, mlp_hidden=16,
                              max_len=T),
        toggles=TABLE3_SETTINGS["4"])
    model = SgearModel(config, language_store=lang)
    rng = np.random.default_rng(1)
    model.encoder.set_prototype_stats(rng.normal(size=D),
                                      rng.uniform(0.5, 2.0, size=D))
    _, clips = load_dataset(manifest_path)
    return model, [(x[:, :1], y, past) for x, y, past in clips]


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestCheckpoint:
    def test_round_trip_preserves_predictions(self, tmp_path):
        manifest_path, proto_path = tiny_dataset(tmp_path)
        _, clips = load_dataset(manifest_path)
        model = tiny_model(manifest_path, proto_path)
        cfg = TrainConfig(optimizer="adamw", lr=1e-3, epochs=1, batch_size=4)
        _, optimizer = fit(model, clips, cfg)
        path = tmp_path / "model.sgck"
        save_checkpoint(path, model, optimizer, step=3)
        back, opt_arrays, step = load_checkpoint(path)
        assert step == 3
        x = clips[0][0]
        assert np.array_equal(model.predict(x), back.predict(x))
        want = optimizer.state_arrays()
        assert list(opt_arrays) == list(want) == ["t", "m", "v"]
        for name in want:
            assert_same_bytes(opt_arrays[name], want[name])

    @pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
    @pytest.mark.parametrize("setting", sorted(TABLE3_SETTINGS) + ["adapter"])
    def test_round_trip_is_bit_exact(self, tmp_path, setting, optimizer):
        """Every parameter, store, adapter statistic and optimizer buffer
        comes back bit for bit."""
        manifest_path, proto_path = tiny_dataset(tmp_path, n_clips=6)
        if setting == "adapter":
            model, clips = adapter_model(manifest_path, proto_path)
        else:
            _, clips = load_dataset(manifest_path)
            model = tiny_model(manifest_path, proto_path, setting=setting)
        cfg = TrainConfig(optimizer=optimizer, lr=1e-2, epochs=1, batch_size=4)
        _, opt = fit(model, clips, cfg)
        path = tmp_path / "model.sgck"
        save_checkpoint(path, model, opt, step=2)
        back, opt_arrays, _ = load_checkpoint(path)
        params, got = model.parameters(), back.parameters()
        assert list(got) == list(params)
        for name in params:
            assert_same_bytes(got[name].data, params[name].data)
        for attr in ("visual_store", "language_store"):
            store, loaded = getattr(model, attr), getattr(back, attr)
            assert (store is None) == (loaded is None)
            if store is not None:
                assert_same_bytes(loaded.tensor.data, store.tensor.data)
                assert loaded.frozen == store.frozen
        stats = model.encoder.stats_arrays() if setting == "adapter" else {}
        loaded = back.encoder.stats_arrays() if setting == "adapter" else {}
        assert list(loaded) == list(stats) == ([] if not stats
                                               else ["mu", "inv_sigma"])
        for name in stats:
            assert_same_bytes(loaded[name], stats[name])
        want = opt.state_arrays()
        assert list(opt_arrays) == list(want)
        for name in want:
            assert_same_bytes(opt_arrays[name], want[name])

    def test_save_load_save_byte_identical(self, tmp_path):
        manifest_path, proto_path = tiny_dataset(tmp_path)
        model = tiny_model(manifest_path, proto_path)
        a = tmp_path / "a.sgck"
        b = tmp_path / "b.sgck"
        save_checkpoint(a, model, step=1)
        back, _, step = load_checkpoint(a)
        save_checkpoint(b, back, step=step)
        assert a.read_bytes() == b.read_bytes()

    def test_optimizer_of_other_parameters_is_config_error(self, tmp_path):
        """An optimizer buffer the model would not size is never written."""
        manifest_path, proto_path = tiny_dataset(tmp_path, n_clips=4)
        model = tiny_model(manifest_path, proto_path)
        other = Sgd({"x": Tensor(np.zeros(3), requires_grad=True)})
        with pytest.raises(ConfigError, match="not the model's"):
            save_checkpoint(tmp_path / "m.sgck", model, other)
        assert not (tmp_path / "m.sgck").exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.sgck"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == 0

    def assert_every_cut_fails(self, path, model):
        """Every length through the header, then each section end +-1."""
        data = path.read_bytes()
        (hlen,) = struct.unpack("<I", data[8:12])
        _, ends = section_ends(data, model)
        cuts = set(range(12 + hlen + 1))
        for end in ends.values():
            cuts.update((end - 1, end, end + 1))
        cut = path.with_name("cut.sgck")
        for n in sorted(c for c in cuts if c < len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(FormatError):
                load_checkpoint(cut)
        return ends

    def test_truncated_prefixes_raise_format_error(self, tmp_path):
        manifest_path, proto_path = tiny_dataset(tmp_path, n_clips=4)
        model = tiny_model(manifest_path, proto_path)
        path = tmp_path / "m.sgck"
        save_checkpoint(path, model, AdamW(model.parameters()), step=1)
        ends = self.assert_every_cut_fails(path, model)
        assert list(ends) == ["store.visual", "store.language", "param", "opt.t",
                              "opt.m", "opt.v"]

    def test_truncated_adapter_checkpoint_raises_format_error(self, tmp_path):
        manifest_path, proto_path = tiny_dataset(tmp_path, n_clips=4)
        model, _ = adapter_model(manifest_path, proto_path)
        path = tmp_path / "m.sgck"
        save_checkpoint(path, model, Sgd(model.parameters()), step=1)
        ends = self.assert_every_cut_fails(path, model)
        assert list(ends) == ["store.visual", "store.language", "adapter.mu",
                              "adapter.inv_sigma", "param", "opt.velocity"]

    def test_corrupt_header_is_format_error(self, tmp_path):
        manifest_path, proto_path = tiny_dataset(tmp_path, n_clips=4)
        path = tmp_path / "m.sgck"
        save_checkpoint(path, tiny_model(manifest_path, proto_path))
        data = bytearray(path.read_bytes())
        for bad in (b"\xff", b"]"):
            data[12:13] = bad
            path.write_bytes(bytes(data))
            with pytest.raises(FormatError) as exc:
                load_checkpoint(path)
            assert exc.value.offset == 12

    def test_header_without_key_is_format_error(self, tmp_path):
        manifest_path, proto_path = tiny_dataset(tmp_path, n_clips=4)
        path = tmp_path / "m.sgck"
        save_checkpoint(path, tiny_model(manifest_path, proto_path))
        data = path.read_bytes()
        (hlen,) = struct.unpack("<I", data[8:12])
        full = json.loads(data[12:12 + hlen])
        headers = [{}, [], {k: v for k, v in full.items() if k != "sections"},
                   dict(full, sections=["x"]), dict(full, sections="param"),
                   dict(full, config={})]
        for header in headers:
            blob = json.dumps(header).encode()
            path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob
                             + data[12 + hlen:])
            with pytest.raises(FormatError) as exc:
                load_checkpoint(path)
            assert exc.value.offset == 12

    @pytest.mark.parametrize("dropped", ["adapter.mu", "adapter.inv_sigma"])
    def test_one_adapter_section_is_format_error(self, tmp_path, dropped):
        """The model reads both statistics or neither, so a list naming one
        of them is rejected."""
        manifest_path, proto_path = tiny_dataset(tmp_path, n_clips=4)
        model, _ = adapter_model(manifest_path, proto_path)
        path = tmp_path / "m.sgck"
        save_checkpoint(path, model)
        data = path.read_bytes()
        (hlen,) = struct.unpack("<I", data[8:12])
        header = json.loads(data[12:12 + hlen])
        header["sections"].remove(dropped)
        blob = json.dumps(header).encode()
        path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob
                         + data[12 + hlen:])
        with pytest.raises(FormatError, match="both adapter statistics") as exc:
            load_checkpoint(path)
        assert exc.value.offset == 12

    def test_adapter_sections_of_a_passthrough_model_are_format_error(
            self, tmp_path):
        """A model without an adapter reads no statistics, so their floats
        are left over after the last section."""
        manifest_path, proto_path = tiny_dataset(tmp_path, n_clips=4)
        model = tiny_model(manifest_path, proto_path)
        path = tmp_path / "m.sgck"
        save_checkpoint(path, model)
        data = path.read_bytes()
        header, ends = section_ends(data, model)
        header["sections"][2:2] = ["adapter.mu", "adapter.inv_sigma"]
        blob = json.dumps(header).encode()
        (hlen,) = struct.unpack("<I", data[8:12])
        cut = ends["store.language"]          # the statistics go after it
        path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob
                         + data[12 + hlen:cut] + np.zeros(2 * D).tobytes()
                         + data[cut:])
        with pytest.raises(FormatError, match="bytes after the last section"):
            load_checkpoint(path)

    def test_array_of_no_parameter_is_format_error(self, tmp_path):
        """A section name the format does not know is rejected by name."""
        manifest_path, proto_path = tiny_dataset(tmp_path, n_clips=4)
        path = tmp_path / "m.sgck"
        save_checkpoint(path, tiny_model(manifest_path, proto_path))
        data = path.read_bytes()
        (hlen,) = struct.unpack("<I", data[8:12])
        header = json.loads(data[12:12 + hlen])
        header["sections"][header["sections"].index("param")] = "param.nope"
        blob = json.dumps(header).encode()
        path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob
                         + data[12 + hlen:])
        with pytest.raises(FormatError, match="'param.nope'") as exc:
            load_checkpoint(path)
        assert exc.value.offset == 12

    @pytest.mark.parametrize("size", [1, 3])
    def test_array_of_other_shape_is_format_error(self, tmp_path, size):
        """A (1,) array would broadcast into the parameter, a (3,) one would
        not; the config sizes the parameter, so both leave the 'param'
        section short."""
        manifest_path, proto_path = tiny_dataset(tmp_path, n_clips=4)
        model = tiny_model(manifest_path, proto_path)
        _, param = next((n, p) for n, p in model.parameters().items()
                        if p.data.ndim == 1 and p.data.size > size)
        param.data = param.data[:size].copy()
        path = tmp_path / "m.sgck"
        save_checkpoint(path, model)
        _, ends = section_ends(path.read_bytes(), model)
        with pytest.raises(FormatError, match="section 'param'") as exc:
            load_checkpoint(path)
        assert exc.value.offset == ends["store.language"]

    @pytest.mark.parametrize("change", ["short", "long"])
    def test_payload_one_float_off_is_format_error(self, tmp_path, change):
        """The sizes come from the model: a payload one float short fails at
        the start of its last section, one float long at its end."""
        manifest_path, proto_path = tiny_dataset(tmp_path, n_clips=4)
        model = tiny_model(manifest_path, proto_path)
        path = tmp_path / "m.sgck"
        save_checkpoint(path, model, Sgd(model.parameters()))
        data = path.read_bytes()
        _, ends = section_ends(data, model)
        *_, before, last = ends
        if change == "short":
            path.write_bytes(data[:-8])
            match, offset = f"section '{last}'", ends[before]
        else:
            path.write_bytes(data + data[-8:])
            match, offset = "bytes after the last section", len(data)
        with pytest.raises(FormatError, match=match) as exc:
            load_checkpoint(path)
        assert exc.value.offset == offset

    def test_adapter_statistics_survive(self, tmp_path):
        manifest_path, proto_path = tiny_dataset(tmp_path, n_clips=4)
        lang = ProtoStore.load(proto_path, kind="language")
        config = ModelConfig(
            num_classes=K, frames=T, d=D,
            encoder=EncoderConfig(mode="adapter", d=D),
            decoder=DecoderConfig(d=D, layers=1, heads=2, mlp_hidden=16,
                                  max_len=T),
            toggles=TABLE3_SETTINGS["4"])
        model = SgearModel(config, language_store=lang)
        rng = np.random.default_rng(1)
        model.encoder.set_prototype_stats(rng.normal(size=D),
                                          rng.uniform(0.5, 2.0, size=D))
        path = tmp_path / "adapter.sgck"
        save_checkpoint(path, model)
        back, _, _ = load_checkpoint(path)
        x = rng.normal(size=(T, 1, D))
        assert np.array_equal(model.predict(x), back.predict(x))

    def test_frozen_flag_survives(self, tmp_path):
        manifest_path, proto_path = tiny_dataset(tmp_path)
        model = tiny_model(manifest_path, proto_path, setting="5")
        path = tmp_path / "m.sgck"
        save_checkpoint(path, model)
        back, _, _ = load_checkpoint(path)
        assert back.visual_store.frozen
