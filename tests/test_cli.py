"""End-to-end command-line runs and exit-code conventions."""

import json
import struct

import numpy as np
import pytest

from sgear import dataio, evaluate
from sgear.cli import build_co_graph, main
from sgear.encoder import FeatureAdapter
from sgear.errors import ConfigError


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic dataset and trained checkpoint shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--classes", "6", "--frames",
                 "4", "--dim", "12", "--clips", "24", "--tokens", "2",
                 "--seed", "1", "--graph", "chain", "--within", "0.95"]) == 0
    ckpt = root / "model.sgck"
    assert main(["train", "--manifest", str(data / "manifest.jsonl"),
                 "--prototypes", str(data / "language_prototypes.sglp"),
                 "--checkpoint", str(ckpt), "--preset", "desk",
                 "--epochs", "3", "--setting", "full"]) == 0
    return root, data, ckpt


class TestCoGraphs:
    def test_rows_stochastic(self):
        for kind in ("uniform", "blocks", "chain"):
            graph = build_co_graph(kind, 6, within=0.9)
            assert np.abs(graph.sum(axis=1) - 1.0).max() < 1e-9

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_co_graph("smallworld", 4)


class TestCommands:
    def test_eval_writes_reports(self, workspace):
        root, data, ckpt = workspace
        csv_out = root / "metrics.csv"
        preds_out = root / "preds.jsonl"
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--manifest", str(data / "manifest.jsonl"),
                     "--csv-out", str(csv_out),
                     "--predictions-out", str(preds_out),
                     "--tau", "1.0", "2.0", "--ratios", "0.5", "1.0"])
        assert code == 0
        assert csv_out.exists() and preds_out.exists()
        assert (root / "metrics.tau.csv").exists()
        assert (root / "metrics.ratio.csv").exists()

    def test_ensemble(self, workspace):
        root, data, ckpt = workspace
        preds = root / "preds.jsonl"
        fused = root / "fused.jsonl"
        code = main(["ensemble", "--inputs", str(preds), str(preds),
                     "--weights", "1.0", "2.0", "--out", str(fused)])
        assert code == 0 and fused.exists()

    def test_ensemble_preset(self, workspace):
        root, data, ckpt = workspace
        preds = root / "preds.jsonl"
        fused = root / "fused_preset.jsonl"
        assert main(["ensemble", "--inputs", str(preds), str(preds),
                     "--preset", "ek100", "--out", str(fused)]) == 0

    def test_analyze(self, workspace):
        root, data, ckpt = workspace
        out = root / "analysis"
        assert main(["analyze", "--checkpoint", str(ckpt),
                     "--out-dir", str(out)]) == 0
        for name in ("visual_similarity.csv", "language_similarity.csv",
                     "visual_nearest.csv", "alignment.txt"):
            assert (out / name).exists()


class TestAdapterRun:
    def test_single_token_train_then_eval(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--classes", "4", "--frames",
                     "3", "--dim", "8", "--clips", "8", "--tokens", "1",
                     "--seed", "2"]) == 0
        ckpt = tmp_path / "adapter.sgck"
        assert main(["train", "--manifest", str(data / "manifest.jsonl"),
                     "--prototypes", str(data / "language_prototypes.sglp"),
                     "--checkpoint", str(ckpt), "--preset", "desk",
                     "--epochs", "1", "--setting", "4"]) == 0

        shapes = []
        adapt = FeatureAdapter.__call__

        def recorded(self, feats):
            shapes.append(np.shape(feats))
            return adapt(self, feats)

        monkeypatch.setattr(FeatureAdapter, "__call__", recorded)

        def run_eval(name):
            csv_out = tmp_path / f"{name}.csv"
            assert main(["eval", "--checkpoint", str(ckpt),
                         "--manifest", str(data / "manifest.jsonl"),
                         "--csv-out", str(csv_out), "--tau", "1.0", "2.0",
                         "--ratios", "0.5", "1.0"]) == 0
            return [csv_out.with_suffix(suffix).read_text()
                    for suffix in (".csv", ".tau.csv", ".ratio.csv")]

        batched = run_eval("batched")
        # the sweeps stack all 8 clips; the main predictions go one by one
        assert set(shapes) == {(3, 1, 8), (8, 3, 1, 8)}
        monkeypatch.setattr(evaluate, "_predict_chunked",
                            evaluate.predict_dataset)
        assert batched == run_eval("per_clip")


class TestExitCodes:
    def test_config_error_is_2(self, workspace):
        root, data, ckpt = workspace
        # evaluation below the training anticipation gap
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--manifest", str(data / "manifest.jsonl"),
                     "--tau", "0.5"])
        assert code == 2

    def test_data_error_is_3(self, workspace, tmp_path):
        root, data, ckpt = workspace
        bad = tmp_path / "bad.sgck"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = main(["eval", "--checkpoint", str(bad),
                     "--manifest", str(data / "manifest.jsonl")])
        assert code == 3

    def test_numeric_error_is_4(self, tmp_path):
        from sgear import dataio
        data = tmp_path / "nan_data"
        assert main(["synth", "--out", str(data), "--classes", "4",
                     "--frames", "3", "--dim", "8", "--clips", "4",
                     "--tokens", "2", "--seed", "2"]) == 0
        # poison one clip's features with NaN
        clip = data / "clip_00000.sgft"
        arr = dataio.read_feature_file(clip).copy()
        arr[0, 0, 0] = np.nan
        dataio.write_feature_file(clip, arr)
        code = main(["train", "--manifest", str(data / "manifest.jsonl"),
                     "--prototypes", str(data / "language_prototypes.sglp"),
                     "--checkpoint", str(tmp_path / "x.sgck"),
                     "--preset", "desk", "--epochs", "1", "--setting", "full"])
        assert code == 4

    def test_ensemble_weight_mismatch_is_2(self, workspace):
        root, data, ckpt = workspace
        preds = root / "preds.jsonl"
        code = main(["ensemble", "--inputs", str(preds), str(preds),
                     "--weights", "1.0", "--out", str(root / "no.jsonl")])
        assert code == 2

    @pytest.mark.parametrize("key", ["arrays", "config", "step", "visual_frozen",
                                     "config.decoder", "config.encoder.mode"])
    def test_checkpoint_header_without_key_is_3(self, workspace, tmp_path,
                                                 capsys, key):
        root, data, ckpt = workspace
        raw = ckpt.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + hlen])
        *path, last = key.split(".")
        node = header
        for part in path:
            node = node[part]
        if last == "mode":
            node[last] = "nope"      # a config the model rejects
        else:
            del node[last]
        blob = json.dumps(header).encode()
        bad = tmp_path / "bad.sgck"
        bad.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob
                        + raw[12 + hlen:])
        code = main(["eval", "--checkpoint", str(bad),
                     "--manifest", str(data / "manifest.jsonl")])
        assert code == 3
        assert "byte offset 12" in capsys.readouterr().err

    @pytest.mark.parametrize("change", ["name", "shape"])
    def test_checkpoint_array_matching_no_parameter_is_3(
            self, workspace, tmp_path, capsys, change):
        """A renamed parameter array, or one whose (n,) shape reads as
        (1, n), ends in exit 3 naming it, not in a traceback."""
        root, data, ckpt = workspace
        raw = ckpt.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + hlen])
        entry = next(e for e in header["arrays"]
                     if e["name"].startswith("param.") and len(e["shape"]) == 1
                     and e["shape"][0] > 1)
        if change == "name":
            entry["name"] = "param.nope"
        else:
            entry["shape"] = [1] + entry["shape"]
        blob = json.dumps(header).encode()
        bad = tmp_path / "bad.sgck"
        bad.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob
                        + raw[12 + hlen:])
        code = main(["eval", "--checkpoint", str(bad),
                     "--manifest", str(data / "manifest.jsonl")])
        err = capsys.readouterr().err
        assert code == 3
        assert f"'{entry['name']}'" in err and "Traceback" not in err

    def test_mixed_feature_shapes_is_3(self, tmp_path, capsys):
        data = tmp_path / "mixed"
        assert main(["synth", "--out", str(data), "--classes", "4",
                     "--frames", "3", "--dim", "8", "--clips", "4",
                     "--tokens", "2", "--seed", "2"]) == 0
        # one clip with a third token
        clip = data / "clip_00002.sgft"
        arr = dataio.read_feature_file(clip)
        dataio.write_feature_file(clip, np.concatenate([arr, arr[:, :1]], axis=1))
        code = main(["train", "--manifest", str(data / "manifest.jsonl"),
                     "--prototypes", str(data / "language_prototypes.sglp"),
                     "--checkpoint", str(tmp_path / "x.sgck"),
                     "--preset", "desk", "--epochs", "1", "--setting", "full"])
        assert code == 3
        assert "clip_00002" in capsys.readouterr().err
