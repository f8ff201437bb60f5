"""End-to-end command-line runs and exit-code conventions."""

import csv
import json
import math
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

    def test_analyze_top_beyond_the_class_count(self, workspace):
        """--top 9 with K=6 lists each reference's 5 other classes."""
        root, data, ckpt = workspace
        out = root / "analysis-top9"
        assert main(["analyze", "--checkpoint", str(ckpt), "--out-dir",
                     str(out), "--top", "9"]) == 0
        for store in ("visual", "language"):
            with open(out / f"{store}_nearest.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 6 * 5
            for ref in range(6):
                listed = [int(r["class"]) for r in rows if int(r["reference"]) == ref]
                assert sorted(listed) == [c for c in range(6) if c != ref]
            assert all(math.isfinite(float(r["cosine"])) for r in rows)

    def test_train_reads_each_feature_file_once(self, workspace, tmp_path,
                                                monkeypatch):
        root, data, _ = workspace
        read = dataio.read_feature_file
        paths = []
        monkeypatch.setattr(dataio, "read_feature_file",
                            lambda path: paths.append(path) or read(path))
        assert main(["train", "--manifest", str(data / "manifest.jsonl"),
                     "--prototypes", str(data / "language_prototypes.sglp"),
                     "--checkpoint", str(tmp_path / "m.sgck"),
                     "--epochs", "1"]) == 0
        assert len(paths) == len(set(paths)) == 24

    def test_recognition_mean_train_then_eval(self, workspace, tmp_path):
        root, data, _ = workspace
        ckpt = tmp_path / "recognition.sgck"
        assert main(["train", "--manifest", str(data / "manifest.jsonl"),
                     "--prototypes", str(data / "language_prototypes.sglp"),
                     "--checkpoint", str(ckpt), "--epochs", "1",
                     "--proto-init", "recognition-mean"]) == 0
        assert main(["eval", "--checkpoint", str(ckpt), "--manifest",
                     str(data / "manifest.jsonl")]) == 0


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
        # the sweeps stack all 8 clips; the main predictions go one by one,
        # each a stack of one
        assert set(shapes) == {(1, 3, 1, 8), (8, 3, 1, 8)}
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

    @pytest.mark.parametrize("key", ["sections", "config", "step", "visual_frozen",
                                     "config.decoder", "config.encoder.mode",
                                     "config.encoder.mode:vit-lite"])
    def test_checkpoint_header_without_key_is_3(self, workspace, tmp_path,
                                                 capsys, key):
        root, data, ckpt = workspace
        raw = ckpt.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + hlen])
        key, _, mode = key.partition(":")
        *path, last = key.split(".")
        node = header
        for part in path:
            node = node[part]
        if last == "mode":
            node[last] = mode or "nope"      # a mode the model rejects
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

    @pytest.mark.parametrize("change", ["short", "long"])
    def test_checkpoint_payload_one_float_off_is_3(self, workspace, tmp_path,
                                                   capsys, change):
        """A payload one float short or long ends in exit 3 naming the byte
        offset, not in a traceback: the model, not the file, sizes it."""
        root, data, ckpt = workspace
        raw = ckpt.read_bytes()
        bad = tmp_path / "bad.sgck"
        bad.write_bytes(raw[:-8] if change == "short" else raw + raw[-8:])
        code = main(["eval", "--checkpoint", str(bad),
                     "--manifest", str(data / "manifest.jsonl")])
        err = capsys.readouterr().err
        assert code == 3
        assert "byte offset" in err and "Traceback" not in err
        if change == "long":
            assert f"bytes after the last section (byte offset {len(raw)})" in err

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

    def test_version_1_checkpoint_is_3(self, workspace, tmp_path, capsys):
        root, data, ckpt = workspace
        raw = ckpt.read_bytes()
        bad = tmp_path / "v1.sgck"
        bad.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
        code = main(["eval", "--checkpoint", str(bad),
                     "--manifest", str(data / "manifest.jsonl")])
        err = capsys.readouterr().err
        assert code == 3
        assert "version 1" in err and "byte offset 4" in err

    @pytest.mark.parametrize("target", ["missing checkpoint", "directory",
                                        "missing manifest"])
    def test_unreadable_path_is_3(self, workspace, tmp_path, capsys, target):
        root, data, ckpt = workspace
        manifest = data / "manifest.jsonl"
        bad = {"missing checkpoint": tmp_path / "none.sgck",
               "directory": tmp_path,
               "missing manifest": tmp_path / "none.jsonl"}[target]
        if target == "missing manifest":
            manifest = bad
        else:
            ckpt = bad
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--manifest", str(manifest)])
        assert code == 3
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, what", [
        ("--classes", "9", "classes 6, dataset has 9"),
        ("--frames", "3", "frames per clip 4, dataset has 3"),
        ("--dim", "8", "feature dim d 12, dataset has 8"),
    ])
    def test_eval_on_mismatched_dataset_is_3(self, workspace, tmp_path, capsys,
                                             flag, value, what):
        """The workspace checkpoint is K=6, T=4, d=12; a dataset that differs
        in one of them is refused before any prediction."""
        root, data, ckpt = workspace
        other = tmp_path / "other"
        args = {"--classes": "6", "--frames": "4", "--dim": "12"}
        args[flag] = value
        assert main(["synth", "--out", str(other), "--clips", "4",
                     "--tokens", "2", "--seed", "3",
                     *[item for pair in args.items() for item in pair]]) == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--manifest", str(other / "manifest.jsonl")])
        assert code == 3
        assert f"checkpoint has {what}" in capsys.readouterr().err

    def test_adapter_checkpoint_on_multi_token_data_is_3(self, tmp_path, capsys):
        common = ["--classes", "4", "--frames", "3", "--dim", "8", "--clips",
                  "4", "--seed", "2"]
        single, multi = tmp_path / "single", tmp_path / "multi"
        assert main(["synth", "--out", str(single), "--tokens", "1", *common]) == 0
        assert main(["synth", "--out", str(multi), "--tokens", "2", *common]) == 0
        ckpt = tmp_path / "adapter.sgck"
        assert main(["train", "--manifest", str(single / "manifest.jsonl"),
                     "--prototypes", str(single / "language_prototypes.sglp"),
                     "--checkpoint", str(ckpt), "--preset", "desk",
                     "--epochs", "1", "--setting", "4"]) == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--manifest", str(multi / "manifest.jsonl")])
        assert code == 3
        assert ("checkpoint has tokens per frame (adapter mode) 1, dataset has 2"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("shape", [(5, 12), (6, 8)])
    def test_train_with_mismatched_prototypes_is_3(self, workspace, tmp_path,
                                                   capsys, shape):
        root, data, ckpt = workspace
        protos = tmp_path / "other.sglp"
        dataio.write_prototype_file(protos, np.ones(shape))
        code = main(["train", "--manifest", str(data / "manifest.jsonl"),
                     "--prototypes", str(protos),
                     "--checkpoint", str(tmp_path / "x.sgck"),
                     "--preset", "desk", "--epochs", "1", "--setting", "full"])
        err = capsys.readouterr().err
        assert code == 3
        assert (f"{shape[0]} prototypes of d={shape[1]}, but the dataset has "
                f"6 classes of d=12") in err

    @pytest.mark.parametrize("weighting", [
        ["--weights", "1.0", "nan"],
        ["--weights", "1.0", "inf"],
        ["--weights", "1.0", "-1"],
        ["--weights", "0", "0"],
        ["--weights"],
        ["--preset", "ek55", "--weights", "0", "1"],
    ], ids=["nan", "inf", "-1", "zero-sum", "bare", "preset-and-weights"])
    def test_ensemble_bad_weight_is_2(self, workspace, weighting):
        """Rejected before any input is read: the second input is missing,
        which would be a data error (3)."""
        root, data, ckpt = workspace
        code = main(["ensemble", "--inputs", str(root / "preds.jsonl"),
                     str(root / "missing.jsonl"), *weighting,
                     "--out", str(root / "no.jsonl")])
        assert code == 2
