"""Malformed inputs through `sgear.cli.main`: each ends in its documented exit
code (2 config, 3 data or format), never in an exception escaping `main`.

JSON inputs name the path and the 1-based line of the bad line. Binary inputs
name the byte offset: no size read from a file is trusted before it is checked
against the file's length.
"""

import json
import struct

import pytest

from sgear import cli, trainer
from sgear.cli import main
from sgear.model import SgearModel


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A small dataset, a checkpoint trained on it and its predictions."""
    root = tmp_path_factory.mktemp("malformed")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--classes", "4", "--frames", "3",
                 "--dim", "8", "--clips", "6", "--tokens", "2"]) == 0
    ckpt = root / "model.sgck"
    assert main(["train", "--manifest", str(data / "manifest.jsonl"),
                 "--prototypes", str(data / "language_prototypes.sglp"),
                 "--checkpoint", str(ckpt), "--epochs", "1"]) == 0
    preds = root / "preds.jsonl"
    assert main(["eval", "--checkpoint", str(ckpt), "--manifest",
                 str(data / "manifest.jsonl"), "--predictions-out", str(preds)]) == 0
    return root, data, ckpt, preds


def edit_line(n, fn):
    """Text edit: line n (0-based) parsed, changed by fn, written back."""
    def edit(text):
        lines = text.splitlines()
        obj = json.loads(lines[n])
        lines[n] = json.dumps(fn(obj))
        return "\n".join(lines) + "\n"
    return edit


def set_key(n, key, value):
    return edit_line(n, lambda obj: {**obj, key: value})


def drop_key(n, key):
    return edit_line(n, lambda obj: {k: v for k, v in obj.items() if k != key})


def replace_line(n, raw):
    def edit(text):
        lines = text.splitlines()
        lines[n] = raw
        return "\n".join(lines) + "\n"
    return edit


def truncate(nbytes):
    return lambda text: text[:-nbytes]


def write(path, text):
    """Text written as UTF-8, except that a U+FFFF becomes the byte 0xff,
    which no UTF-8 text holds."""
    path.write_bytes(text.encode().replace("\uffff".encode(), b"\xff"))


# (id, edit of the manifest text, 1-based line the message must name)
MANIFEST_CASES = [
    ("truncated", truncate(20), 7),
    ("header-not-object", replace_line(0, "[1, 2]"), 1),
    ("record-not-object", replace_line(2, '"clip_00001"'), 3),
    ("missing-K", drop_key(0, "K"), 1),
    ("missing-fps", drop_key(0, "fps"), 1),
    ("missing-clip-id", drop_key(1, "clip_id"), 2),
    ("missing-target", drop_key(3, "target"), 4),
    ("missing-feature-path", drop_key(1, "feature_path"), 2),
    ("target-string", set_key(2, "target", "x"), 3),
    ("target-null", set_key(2, "target", None), 3),
    ("start-time-string", set_key(1, "start_time", "a"), 2),
    ("fps-string", set_key(0, "fps", "1"), 1),
    ("class-names-int", set_key(0, "class_names", 4), 1),
    ("labels-not-list", set_key(1, "labels", 5), 2),
    ("labels-wrong-arity", set_key(1, "labels", [[0.5, 1, 2]]), 2),
    ("not-utf8", replace_line(4, '{"clip_id": "\uffff"}'), 5),
    ("nested-too-deep", replace_line(2, "[" * 100000 + "]" * 100000), 3),
    # values that parse but are wrong
    ("target-float", set_key(2, "target", 2.5), 3),
    ("target-bool", set_key(2, "target", True), 3),
    ("target-out-of-range", set_key(2, "target", 4), 3),
    ("start-time-nan", set_key(1, "start_time", float("nan")), 2),
    ("start-time-inf", set_key(1, "start_time", float("inf")), 2),
    ("label-time-nan", set_key(1, "labels", [[float("nan"), 1]]), 2),
    ("label-class-float", set_key(1, "labels", [[0.5, 1.5]]), 2),
    ("label-class-bool", set_key(1, "labels", [[0.5, False]]), 2),
    ("K-float", set_key(0, "K", 4.0), 1),
    ("tau-o-inf", set_key(0, "tau_o", float("inf")), 1),
    ("tau-a-nan", set_key(0, "tau_a", float("nan")), 1),
    ("fps-nan", set_key(0, "fps", float("nan")), 1),
    ("fps-zero", set_key(0, "fps", 0), 1),
    ("fps-negative", set_key(0, "fps", -3.0), 1),
    # clip ids are unique strings
    ("clip-id-repeated", set_key(3, "clip_id", "clip_00000"), 4),
    ("clip-id-int", set_key(2, "clip_id", 7), 3),
]

PREDICTION_CASES = [
    ("truncated", truncate(30), 7),
    ("header-not-object", replace_line(0, "[]"), 1),
    ("record-not-object", replace_line(1, "3"), 2),
    ("scores-string", set_key(2, "scores", "x"), 3),
    ("scores-null", set_key(2, "scores", None), 3),
    ("missing-truth", drop_key(4, "truth"), 5),
    ("missing-scores", drop_key(1, "scores"), 2),
    ("missing-clip-id", drop_key(1, "clip_id"), 2),
    ("not-utf8", replace_line(3, '{"clip_id": "\uffff"}'), 4),
    # values checked against the header's K (4)
    ("K-missing", drop_key(0, "K"), 1),
    ("K-zero", set_key(0, "K", 0), 1),
    ("K-float", set_key(0, "K", 4.0), 1),
    ("K-bool", set_key(0, "K", True), 1),
    ("K-larger", set_key(0, "K", 5), 2),
    ("truth-out-of-range", set_key(2, "truth", 99), 3),
    ("truth-negative", set_key(2, "truth", -1), 3),
    ("truth-float", set_key(2, "truth", 1.0), 3),
    ("truth-bool", set_key(2, "truth", True), 3),
    ("scores-too-long", edit_line(2, lambda o: {**o, "scores": o["scores"] + [0.0]}), 3),
    ("scores-too-short", edit_line(2, lambda o: {**o, "scores": o["scores"][:-1]}), 3),
    ("scores-nan", edit_line(2, lambda o: {**o, "scores": [float("nan")] + o["scores"][1:]}), 3),
    ("scores-bool", set_key(2, "scores", [True, False, False, False]), 3),
    ("score-negative", set_key(2, "scores", [1.5, -0.25, -0.25, 0.0]), 3),
    # clip ids are unique strings
    ("clip-id-list", set_key(2, "clip_id", ["clip_00001"]), 3),
    ("clip-id-int", set_key(2, "clip_id", 1), 3),
    ("clip-id-null", set_key(2, "clip_id", None), 3),
    ("clip-id-repeated", set_key(3, "clip_id", "clip_00000"), 4),
]


def run(argv, capsys):
    """main's exit code and stderr; an exception escaping main fails."""
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("case,edit,line", MANIFEST_CASES,
                         ids=[c[0] for c in MANIFEST_CASES])
def test_malformed_manifest(ws, tmp_path, capsys, command, case, edit, line):
    root, data, ckpt, _ = ws
    bad = data / f"{case}.jsonl"          # beside the clips it names
    write(bad, edit((data / "manifest.jsonl").read_text()))
    if command == "train":
        argv = ["train", "--manifest", str(bad), "--checkpoint",
                str(tmp_path / "m.sgck"), "--epochs", "1", "--setting", "3"]
    else:
        argv = ["eval", "--checkpoint", str(ckpt), "--manifest", str(bad)]
    code, err = run(argv, capsys)
    assert code == 3
    assert f"{bad}, line {line}:" in err


@pytest.mark.parametrize("case,edit,line", PREDICTION_CASES,
                         ids=[c[0] for c in PREDICTION_CASES])
def test_malformed_predictions(ws, tmp_path, capsys, case, edit, line):
    _, _, _, preds = ws
    bad = tmp_path / "bad.jsonl"
    write(bad, edit(preds.read_text()))
    code, err = run(["ensemble", "--inputs", str(preds), str(bad),
                     "--out", str(tmp_path / "fused.jsonl")], capsys)
    assert code == 3
    assert f"{bad}, line {line}:" in err


def header_only(text):
    return text.splitlines()[0] + "\n"


def test_header_only_inputs(ws, tmp_path, capsys):
    root, data, ckpt, preds = ws
    manifest = data / "header-only.jsonl"
    manifest.write_text(header_only((data / "manifest.jsonl").read_text()))
    code, _ = run(["train", "--manifest", str(manifest), "--checkpoint",
                   str(tmp_path / "m.sgck")], capsys)
    assert code == 3
    bad = tmp_path / "bad.jsonl"
    bad.write_text(header_only(preds.read_text()))
    code, _ = run(["ensemble", "--inputs", str(bad), "--out",
                   str(tmp_path / "fused.jsonl")], capsys)
    assert code == 3


BAD_ARGUMENTS = [
    ["synth", "--clips", "0"],
    ["synth", "--dim", "0"],
    ["synth", "--dim", "-3"],
    ["synth", "--blocks", "0"],
    ["synth", "--frames", "0"],
    ["synth", "--tokens", "0"],
    ["synth", "--within", "2"],
    ["synth", "--within", "-0.1"],
    ["synth", "--within", "nan"],
    ["train", "--batch-size", "0"],
    ["train", "--epochs", "0"],
    ["train", "--epochs", "-1"],
    ["eval", "--tau", "nan"],
    ["eval", "--tau", "inf"],
    ["eval", "--tau", "1", "--tau=-inf"],
    # values that parse but are wrong
    ["synth", "--classes", "-3"],
    ["synth", "--classes", "1", "--graph", "chain"],
    ["synth", "--seed", "-1"],
    ["train", "--seed", "-1"],
    ["train", "--lr", "nan"],
    ["train", "--lr", "inf"],
    ["train", "--lr", "-1"],
    ["train", "--lr", "0"],
    ["train", "--log-every", "-1"],
    ["train", "--ratio", "5"],        # once raised only after pre-training
    ["train", "--ratio", "0"],
    ["analyze", "--top", "0"],
    ["analyze", "--top", "-2"],
]


@pytest.mark.parametrize("args", BAD_ARGUMENTS, ids=" ".join)
def test_bad_numeric_argument_exits_2(ws, tmp_path, capsys, args):
    root, data, ckpt, _ = ws
    command, *rest = args
    required = {
        "synth": ["--out", str(tmp_path / "out")],
        "train": ["--manifest", str(data / "manifest.jsonl"),
                  "--checkpoint", str(tmp_path / "m.sgck")],
        "eval": ["--checkpoint", str(ckpt), "--manifest",
                 str(data / "manifest.jsonl")],
        "analyze": ["--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "out")],
    }[command]
    code, err = run([command, *required, *rest], capsys)
    assert code == 2
    assert rest[0] in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "m.sgck").exists()


# eval arguments that the CLI once checked only after predicting the whole
# set, printing the metrics and writing --csv-out and --predictions-out
EVAL_REJECTED_BEFORE_WORK = [
    ["--tau", "0.5"],                   # below the set's training gap, 1
    ["--tau", "1", "99"],               # 98 rollout steps, above 32
    ["--ratios", "5"],
    ["--ratios", "0"],
    ["--ratios", "1", "nan"],
    ["--metrics", "bogus"],
    ["--metrics", "top1", "top2"],
]


@pytest.mark.parametrize("args", EVAL_REJECTED_BEFORE_WORK, ids=" ".join)
def test_bad_eval_argument_exits_2_before_any_work(ws, tmp_path, capsys,
                                                   monkeypatch, args):
    root, data, ckpt, _ = ws
    predicted = []
    monkeypatch.setattr(SgearModel, "predict",
                        lambda self, *a, **kw: predicted.append(a))
    csv, preds = tmp_path / "out.csv", tmp_path / "preds.jsonl"
    code, err = run(["eval", "--checkpoint", str(ckpt), "--manifest",
                     str(data / "manifest.jsonl"), "--csv-out", str(csv),
                     "--predictions-out", str(preds), *args], capsys)
    assert code == 2
    assert args[-1] in err
    assert predicted == []
    assert not csv.exists() and not preds.exists()


# train arguments that single-token features cannot serve, with the text the
# message must hold; each once failed only after training had begun
SINGLE_TOKEN_REJECTED_BEFORE_TRAINING = [
    (["--setting", "4", "--proto-init", "recognition-mean"],
     "--proto-init recognition-mean"),
    (["--setting", "2", "--proto-init", "recognition-mean"],
     "--proto-init recognition-mean"),
    (["--setting", "full"], "temporal aggregation"),
]


@pytest.mark.parametrize("args,text", SINGLE_TOKEN_REJECTED_BEFORE_TRAINING,
                         ids=[" ".join(a) for a, _ in
                              SINGLE_TOKEN_REJECTED_BEFORE_TRAINING])
def test_single_token_train_argument_exits_2_before_training(
        tmp_path, capsys, monkeypatch, args, text):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--classes", "4", "--frames", "3",
                 "--dim", "8", "--clips", "6", "--tokens", "1"]) == 0
    fitted = []
    for owner in (cli, trainer):
        monkeypatch.setattr(owner, "fit", lambda *a, **kw: fitted.append(a))
    ckpt = tmp_path / "m.sgck"
    code, err = run(["train", "--manifest", str(data / "manifest.jsonl"),
                     "--prototypes", str(data / "language_prototypes.sglp"),
                     "--checkpoint", str(ckpt), "--epochs", "1", *args], capsys)
    assert code == 2
    assert text in err and "single-token" in err
    assert fitted == [] and not ckpt.exists()


@pytest.mark.parametrize("which", ["feature", "prototype", "checkpoint"])
def test_truncated_binary_file_exits_3(ws, tmp_path, capsys, which):
    root, data, ckpt, _ = ws
    manifest = data / "manifest.jsonl"
    protos = data / "language_prototypes.sglp"
    if which == "feature":
        cut = data / "cut.sgft"
        cut.write_bytes((data / "clip_00002.sgft").read_bytes()[:-5])
        manifest = data / "cut-feature.jsonl"
        manifest.write_text(set_key(3, "feature_path", cut.name)(
            (data / "manifest.jsonl").read_text()))
    elif which == "prototype":
        protos = tmp_path / "cut.sglp"
        protos.write_bytes((data / "language_prototypes.sglp").read_bytes()[:-5])
    else:
        cut = tmp_path / "cut.sgck"
        cut.write_bytes(ckpt.read_bytes()[:-5])
        code, _ = run(["eval", "--checkpoint", str(cut), "--manifest",
                       str(manifest)], capsys)
        assert code == 3
        return
    code, _ = run(["train", "--manifest", str(manifest), "--prototypes",
                   str(protos), "--checkpoint", str(tmp_path / "m.sgck"),
                   "--epochs", "1"], capsys)
    assert code == 3


def edit_header(fn):
    """Checkpoint edit: the JSON header changed by fn, the payload kept."""
    def edit(data):
        (hlen,) = struct.unpack("<I", data[8:12])
        blob = json.dumps(fn(json.loads(data[12:12 + hlen])),
                          sort_keys=True).encode()
        return data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + hlen:]
    return edit


def set_sections(fn):
    return edit_header(lambda header: {**header,
                                       "sections": fn(header["sections"])})


def nested_header(depth):
    """Checkpoint edit: the JSON header replaced by `depth` nested lists."""
    def edit(data):
        (hlen,) = struct.unpack("<I", data[8:12])
        blob = b"[" * depth + b"]" * depth
        return data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + hlen:]
    return edit


def set_u32(offset, value):
    """Binary edit: the u32 at `offset` set to `value`."""
    return lambda data: (data[:offset] + struct.pack("<I", value)
                         + data[offset + 4:])


def set_config(path, value):
    """Checkpoint edit: the config field at dotted `path` set to `value`."""
    *parents, last = path.split(".")

    def change(header):
        node = header["config"]
        for key in parents:
            node = node[key]
        node[last] = value
        return header
    return edit_header(change)


def swap_first_two(sections):
    return [sections[1], sections[0], *sections[2:]]


# (id, edit of the checkpoint bytes, text the message must hold, given the
# length of the unedited file); the test checkpoint is the desk preset's
# (AdamW), so its sections end in opt.v
CHECKPOINT_CASES = [
    ("missing-parameter", set_sections(lambda s: [x for x in s if x != "param"]),
     lambda n: "neither (byte offset 12)"),
    ("trailing-byte", lambda data: data + b"\0",
     lambda n: f"bytes after the last section (byte offset {n})"),
    ("trailing-array", lambda data: data + data[-8:],
     lambda n: f"bytes after the last section (byte offset {n})"),
    ("repeated-array", set_sections(lambda s: s + ["opt.v"]),
     lambda n: "are not distinct names from"),
    ("out-of-order", set_sections(swap_first_two),
     lambda n: "are not distinct names from"),
    ("unknown-section", set_sections(lambda s: s + ["opt.w"]),
     lambda n: "are not distinct names from"),
    ("sections-not-list", set_sections(lambda s: {"param": 1}),
     lambda n: "are not distinct names from"),
    ("one-float-short", lambda data: data[:-8],
     lambda n: "truncated file while reading section 'opt.v'"),
    ("version-2", set_u32(4, 2),
     lambda n: "unsupported checkpoint version 2 (byte offset 4)"),
    ("header-length-overflow", set_u32(8, 0xFFFFFFFF),
     lambda n: "truncated file while reading the JSON header (byte offset 12)"),
    ("header-length-zero", set_u32(8, 0),
     lambda n: "unreadable checkpoint header"),
    ("header-nested-too-deep", nested_header(100000),
     lambda n: "unreadable checkpoint header"),
    # a config whose fields pass but that no model can be built from
    ("heads-not-dividing-d", set_config("tca_heads", 3),
     lambda n: "builds no model: heads (3) must divide dim (8) (byte offset 12)"),
    ("language-store-missing",
     set_sections(lambda s: [x for x in s if x != "store.language"]),
     lambda n: "builds no model: semantic guidance needs a language store"),
]


@pytest.mark.parametrize("case,edit,text", CHECKPOINT_CASES,
                         ids=[c[0] for c in CHECKPOINT_CASES])
def test_incomplete_checkpoint_exits_3(ws, tmp_path, capsys, case, edit, text):
    root, data, ckpt, _ = ws
    bad = tmp_path / "bad.sgck"
    bad.write_bytes(edit(ckpt.read_bytes()))
    code, err = run(["eval", "--checkpoint", str(bad), "--manifest",
                     str(data / "manifest.jsonl")], capsys)
    assert code == 3
    assert text(len(ckpt.read_bytes())) in err


@pytest.mark.parametrize("which", ["feature", "prototype"])
def test_huge_dim_field_exits_3(ws, tmp_path, capsys, which):
    """A first dim field of 0xFFFFFFFF is checked against the file's bytes
    before anything is allocated."""
    root, data, ckpt, _ = ws
    manifest = data / "manifest.jsonl"
    protos = data / "language_prototypes.sglp"
    if which == "feature":
        huge = data / "huge.sgft"
        huge.write_bytes(set_u32(8, 0xFFFFFFFF)(
            (data / "clip_00002.sgft").read_bytes()))
        manifest = data / "huge-feature.jsonl"
        manifest.write_text(set_key(3, "feature_path", huge.name)(
            (data / "manifest.jsonl").read_text()))
        offset = 20
    else:
        protos = tmp_path / "huge.sglp"
        protos.write_bytes(set_u32(8, 0xFFFFFFFF)(
            (data / "language_prototypes.sglp").read_bytes()))
        offset = 16
    code, err = run(["train", "--manifest", str(manifest), "--prototypes",
                     str(protos), "--checkpoint", str(tmp_path / "m.sgck"),
                     "--epochs", "1"], capsys)
    assert code == 3
    assert f"float32 values (byte offset {offset})" in err


# one bad value per config field the header holds
CONFIG_CASES = [
    ("num_classes", 0), ("frames", -1), ("d", 2.5), ("n_tca", "a"),
    ("tca_heads", -1), ("pa_k", 0), ("subset_ratio", 0), ("subset_ratio", 1.5),
    ("subset_ratio", "1"), ("subset_seed", -1), ("seed", True),
    ("encoder.mode", []), ("encoder.d", 0), ("decoder.d", None),
    ("decoder.layers", 0), ("decoder.heads", 0), ("decoder.mlp_hidden", []),
    ("decoder.max_len", 0), ("decoder.max_rollout_steps", -1),
    ("toggles.tca", 1), ("toggles.pa", "yes"), ("toggles.sem", None),
    ("toggles.use_language_as_visual", 0), ("toggles", []), ("decoder", 3),
]


@pytest.mark.parametrize("path,value", CONFIG_CASES,
                         ids=[f"{p}={v!r}" for p, v in CONFIG_CASES])
def test_bad_checkpoint_config_exits_3(ws, tmp_path, capsys, path, value):
    root, data, ckpt, _ = ws
    bad = tmp_path / "bad.sgck"
    bad.write_bytes(set_config(path, value)(ckpt.read_bytes()))
    code, err = run(["eval", "--checkpoint", str(bad), "--manifest",
                     str(data / "manifest.jsonl")], capsys)
    assert code == 3
    assert "byte offset 12" in err and path.split(".")[-1] in err.lower()


@pytest.mark.parametrize("value", [-1, 2.5, "a", None, [], 0],
                         ids=lambda v: repr(v))
@pytest.mark.parametrize("field", ["d", "num_classes", "frames", "n_tca",
                                   "tca_heads", "seed"])
def test_checkpoint_config_value_grid(ws, tmp_path, capsys, field, value):
    """Each of six values in each of six fields exits 3 at the header's
    offset; only seed 0 is a valid value, and it loads and evaluates."""
    root, data, ckpt, _ = ws
    bad = tmp_path / "bad.sgck"
    bad.write_bytes(set_config(field, value)(ckpt.read_bytes()))
    code, err = run(["eval", "--checkpoint", str(bad), "--manifest",
                     str(data / "manifest.jsonl")], capsys)
    if field == "seed" and value == 0:
        assert code == 0
    else:
        assert code == 3 and "byte offset 12" in err
