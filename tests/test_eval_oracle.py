"""The metrics, fusion, prediction files and prototype-ratio sweep on stacked
arrays against the per-clip code they replaced, kept below as oracles.

Metrics and fused scores must be bit-equal, written files byte-identical, a
read file must give the same predictions, and a bad file the same message
naming the same first bad line.
"""

import json

import numpy as np
import pytest

from sgear import dataio, evaluate, semantic
from sgear.errors import FormatError
from sgear.evaluate import Prediction

from test_batch_oracle import make_clips, make_model
from test_malformed_inputs import PREDICTION_CASES, set_key, write


# -- oracles: the per-clip code ----------------------------------------------------

def _ranked(scores):
    return np.argsort(-np.asarray(scores), kind="stable")


def oracle_topk(preds, k=1):
    hits = sum(1 for p in preds if p.truth in _ranked(p.scores)[:k])
    return hits / len(preds)


def oracle_recall(preds, k=5):
    hits, counts = {}, {}
    for p in preds:
        counts[p.truth] = counts.get(p.truth, 0) + 1
        if p.truth in _ranked(p.scores)[:k]:
            hits[p.truth] = hits.get(p.truth, 0) + 1
    recalls = [hits.get(c, 0) / n for c, n in counts.items()]
    return float(np.mean(recalls))


def oracle_late_fuse(weighted_sets):
    base, _ = weighted_sets[0]
    k = len(base[0].scores)
    by_id = [{p.clip_id: p for p in reversed(preds)} for preds, _ in weighted_sets]
    fused = []
    for p in base:
        acc = np.zeros(k)
        for ids, (_, weight) in zip(by_id, weighted_sets):
            acc += weight * np.asarray(ids[p.clip_id].scores)
        fused.append(Prediction(p.clip_id, acc / acc.sum(), p.truth))
    return fused


def oracle_write(path, preds):
    with open(path, "w") as fh:
        fh.write(json.dumps({"format": evaluate.PREDICTIONS_FORMAT, "version": 1,
                             "K": len(preds[0].scores)}) + "\n")
        for p in preds:
            fh.write(json.dumps({"clip_id": p.clip_id, "truth": p.truth,
                                 "scores": [float(s) for s in p.scores]}) + "\n")


def oracle_read(path):
    rows = dataio.read_json_lines(path, "predictions file")
    lineno, header = rows[0]
    if header.get("format") != evaluate.PREDICTIONS_FORMAT:
        raise FormatError(f"{path}: not a {evaluate.PREDICTIONS_FORMAT} file")
    k = header.get("K")
    if not dataio.is_int(k) or k < 1:
        raise FormatError(f"{path}, line {lineno}: K must be a positive int, "
                          f"got {k!r}")
    if len(rows) == 1:
        raise FormatError(f"{path}: no predictions after the header")
    preds = []
    try:
        for lineno, obj in rows[1:]:
            truth, scores = obj["truth"], np.asarray(obj["scores"])
            if not dataio.is_int(truth) or not 0 <= truth < k:
                raise FormatError(f"{path}, line {lineno}: truth must be an int "
                                  f"in [0, {k}), got {truth!r}")
            if scores.shape != (k,) or scores.dtype.kind not in "if":
                raise FormatError(f"{path}, line {lineno}: scores must be "
                                  f"{k} numbers")
            total = scores.sum()
            if not abs(total - 1.0) <= 1e-6:
                raise FormatError(f"{path}, line {lineno}: clip "
                                  f"{obj['clip_id']} scores sum to {total}")
            preds.append(Prediction(obj["clip_id"], scores, truth))
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise dataio.field_error(path, lineno, exc) from exc
    return preds


def oracle_ratio_sweep(model, clips, ratios, clip_ids=None):
    """One chunked `predict` pass per ratio, and the scores of each."""
    saved, rows, scores = model.subset, [], []
    try:
        for ratio in ratios:
            model.subset = semantic.choose_subset(
                model.config.num_classes, ratio, model.config.subset_seed)
            preds = evaluate._predict_chunked(model, clips, clip_ids)
            rows.append({"ratio": ratio, "comparisons": len(model.subset),
                         "metric": evaluate.topk_accuracy(preds)})
            scores.append(np.array([p.scores for p in preds]))
    finally:
        model.subset = saved
    return rows, scores


# -- prediction sets -----------------------------------------------------------------

K = 12


def make_preds(n, kind, seed=0, k=K):
    """n predictions: Dirichlet scores, scores with many ties, or scores that
    are 0 outside a class subset (as with a prototype subset active)."""
    rng = np.random.default_rng(seed)
    if kind == "tied":
        scores = rng.integers(0, 3, (n, k)).astype(np.float64)
        scores[:, 0] += 1.0                     # no all-zero row
    else:
        scores = rng.dirichlet(np.full(k, 0.5), size=n)
        if kind == "subset":
            scores[:, rng.permutation(k)[: k // 2]] = 0.0
            scores[:, 0] += 1e-3
    scores /= scores.sum(axis=1, keepdims=True)
    truth = rng.integers(0, k, n)
    return [Prediction(f"clip_{i:05d}", s, int(t))
            for i, (s, t) in enumerate(zip(scores, truth))]


KINDS = ["dirichlet", "tied", "subset"]
SIZES = [1, 2001]


def bits(scores):
    return np.asarray(scores, dtype=np.float64).tobytes()


def same_preds(got, want):
    assert [p.clip_id for p in got] == [p.clip_id for p in want]
    assert [p.truth for p in got] == [p.truth for p in want]
    assert all(bits(a.scores) == bits(b.scores) for a, b in zip(got, want))


# -- metrics ------------------------------------------------------------------------

@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", KINDS)
def test_metrics_bit_equal(kind, n):
    preds = make_preds(n, kind, seed=n)
    for k in (1, 2, 5, K):
        assert evaluate.topk_accuracy(preds, k) == oracle_topk(preds, k)
    for k in (1, 5):
        assert (evaluate.class_mean_top5_recall(preds, k)
                == oracle_recall(preds, k))


def test_recall_averages_in_first_appearance_order():
    """The mean of the recalls changes in the last bit with their order (in
    about a quarter of these sets, sorted class order gives another float);
    the classes must come in the order they first appear."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        preds = make_preds(int(rng.integers(1, 60)), "tied",
                           seed=int(rng.integers(1 << 30)), k=7)
        assert evaluate.class_mean_top5_recall(preds) == oracle_recall(preds)
        assert evaluate.class_mean_top5_recall(preds, 2) == oracle_recall(preds, 2)


# -- late fusion ----------------------------------------------------------------------

@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("preset", sorted(evaluate.ENSEMBLE_PRESETS))
def test_late_fuse_bit_equal_on_presets(preset, n):
    weights = evaluate.ENSEMBLE_PRESETS[preset]
    rng = np.random.default_rng(n)
    sets = []
    for i, _ in enumerate(weights):
        preds = make_preds(n, KINDS[i % len(KINDS)], seed=i)
        sets.append([preds[j] for j in rng.permutation(n)] if i else preds)
    weighted = list(zip(sets, weights))
    same_preds(evaluate.late_fuse(weighted), oracle_late_fuse(weighted))


def test_late_fuse_bit_equal_on_wide_rows():
    """Row sums of 300 classes run numpy's blocked pairwise sum."""
    sets = [make_preds(50, kind, seed=i, k=300) for i, kind in enumerate(KINDS)]
    weighted = list(zip(sets, [2.5, 1.0, 0.5]))
    same_preds(evaluate.late_fuse(weighted), oracle_late_fuse(weighted))


def test_late_fuse_repeated_clip_takes_its_first_row():
    a = make_preds(5, "dirichlet", seed=1)
    b = make_preds(5, "tied", seed=2)
    b = b + [Prediction(b[2].clip_id, b[0].scores, b[2].truth)]
    a = a[:3] + [a[1]] + a[3:]
    for weighted in ([(a, 1.0), (b, 2.0)], [(b, 0.5), (a, 1.5)]):
        same_preds(evaluate.late_fuse(weighted), oracle_late_fuse(weighted))


# -- prediction files -------------------------------------------------------------------

@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", KINDS)
def test_write_and_read_match_oracles(tmp_path, kind, n):
    preds = make_preds(n, kind, seed=n + 1)
    # rows of one array, as predict gives them, and float32 rows
    variants = [preds, [Prediction(p.clip_id, p.scores.astype(np.float32),
                                   p.truth) for p in preds]]
    for i, variant in enumerate(variants):
        got, want = tmp_path / f"got{i}.jsonl", tmp_path / f"want{i}.jsonl"
        evaluate.write_predictions(got, variant)
        oracle_write(want, variant)
        assert got.read_bytes() == want.read_bytes()
        if i == 0:
            same_preds(evaluate.read_predictions(got), oracle_read(want))


def test_read_takes_integer_scores(tmp_path):
    """A one-hot row of ints passes, as it did, and reads back as floats."""
    path = tmp_path / "p.jsonl"
    evaluate.write_predictions(path, make_preds(3, "dirichlet"))
    write(path, set_key(2, "scores", [0] * (K - 1) + [1])(path.read_text()))
    for read in (oracle_read, evaluate.read_predictions):
        assert np.array_equal(read(path)[1].scores, np.eye(K)[-1])


# the cases the oracle reader let through, or ended in a TypeError
NEW_CASES = {"score-negative", "clip-id-list", "clip-id-int", "clip-id-null",
             "clip-id-repeated"}
OLD_CASES = [c for c in PREDICTION_CASES if c[0] not in NEW_CASES]


def bad_file(tmp_path, *edits):
    """A 4-class, 6-clip predictions file with `edits` applied in turn."""
    path = tmp_path / "bad.jsonl"
    evaluate.write_predictions(path, make_preds(6, "dirichlet", seed=9, k=4))
    text = path.read_text()
    for edit in edits:
        text = edit(text)
    write(path, text)
    return path


def message(read, path):
    with pytest.raises(FormatError) as info:
        read(path)
    return str(info.value)


@pytest.mark.parametrize("case,edit,line", OLD_CASES, ids=[c[0] for c in OLD_CASES])
def test_bad_line_message_matches_oracle(tmp_path, case, edit, line):
    path = bad_file(tmp_path, edit)
    assert message(evaluate.read_predictions, path) == message(oracle_read, path)


def test_first_bad_line_is_named_whatever_comes_after(tmp_path):
    """Two bad lines of every pair of kinds: the first one is named, with
    the message the oracle gives."""
    body = [(name, edit, line) for name, edit, line in OLD_CASES
            if name != "truncated" and not name.startswith("K-")
            and not name.endswith("-not-object") and name != "not-utf8"]
    for name_a, edit_a, line_a in body:
        for name_b, edit_b, line_b in body:
            if line_a == line_b:
                continue
            path = bad_file(tmp_path, edit_a, edit_b)
            want = message(oracle_read, path)
            assert message(evaluate.read_predictions, path) == want, (name_a, name_b)


# -- prototype-ratio sweep -----------------------------------------------------------

@pytest.mark.parametrize("setting", ["1", "4", "full"])
def test_ratio_sweep_matches_one_predict_pass_per_ratio(setting):
    """Rows equal, and every ratio's scores bit-equal, across a chunk
    boundary."""
    model = make_model(setting)
    clips = make_clips(evaluate.SWEEP_CHUNK + 3, seed=21)
    ids = [f"c{i}" for i in range(len(clips))]
    ratios = [0.25, 0.5, 1.0]
    want_rows, want_scores = oracle_ratio_sweep(model, clips, ratios, ids)
    got_scores = []

    def metric(preds):
        got_scores.append(np.array([p.scores for p in preds]))
        return evaluate.topk_accuracy(preds)

    saved = model.subset
    assert evaluate.prototype_ratio_sweep(model, clips, ratios, ids,
                                          metric=metric) == want_rows
    assert [bits(s) for s in got_scores] == [bits(s) for s in want_scores]
    assert model.subset is saved
