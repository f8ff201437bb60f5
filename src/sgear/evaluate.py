"""Metrics, late fusion, variable-horizon evaluation, prototype-ratio sweeps
and prediction-file serialization.

Ties in every top-k ranking are broken by lower class index, matching the
prototype-selection rule. A prediction set is a list of `Prediction`s; the
metrics, fusion and file checks work on its stacked (N, K) scores.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import dataio, semantic
from .errors import ConfigError, EvalError, FormatError, ShapeError

PREDICTIONS_FORMAT = "sgear-predictions"
SCORE_SUM_TOL = 1e-6            # a predictions line's scores sum to 1 within it


@dataclass
class Prediction:
    clip_id: str
    scores: np.ndarray       # K class probabilities
    truth: int


def _stacked_scores(preds):
    """The (N, K) scores of a prediction set."""
    return np.array([p.scores for p in preds], dtype=np.float64)


def _hits(preds, k):
    """(N,) true classes, and whether each is among its clip's k best-scored
    classes; one stable argsort of -scores, so lower class index wins ties."""
    if not preds:
        raise EvalError("empty prediction set")
    top = np.argsort(-_stacked_scores(preds), axis=-1, kind="stable")[:, :k]
    truth = np.array([p.truth for p in preds])
    return truth, (top == truth[:, None]).any(axis=-1)


def topk_accuracy(preds, k=1):
    """Fraction of clips whose true class is among the k best-scored."""
    _, hit = _hits(preds, k)
    return int(np.count_nonzero(hit)) / len(preds)


def class_mean_top5_recall(preds, k=5):
    """Unweighted mean over present classes of their top-k recall, the
    classes in order of first appearance."""
    truth, hit = _hits(preds, k)
    _, first, inverse = np.unique(truth, return_index=True, return_inverse=True)
    order = np.argsort(first)
    recalls = np.bincount(inverse, weights=hit)[order] / np.bincount(inverse)[order]
    return float(np.mean(recalls))


# -- late fusion ---------------------------------------------------------------

ENSEMBLE_PRESETS = {
    # backbone fusion weights, in input order
    "ek100": [2.5, 1.5, 1.0, 1.0, 0.5],   # ViT, ViT(224), TSN, irCSN, Obj
    "ek55": [1.5, 1.5, 1.5, 1.0, 1.0],    # ViT, irCSN, TSN, Flow, Obj
}


def _first_rows(preds):
    """clip id -> the row of its first prediction."""
    return dict(zip([p.clip_id for p in reversed(preds)],
                    range(len(preds) - 1, -1, -1)))


def late_fuse(weighted_sets):
    """Weighted sum of per-clip probability vectors, renormalized to sum 1.

    `weighted_sets`: list of (predictions, weight); all sets must cover the
    same clip ids with the same class count. The clips come in the first
    set's order; a clip listed twice in a set takes its first row there.
    """
    if not weighted_sets:
        raise EvalError("nothing to fuse")
    base, _ = weighted_sets[0]
    k = len(base[0].scores)
    rows = [_first_rows(preds) for preds, _ in weighted_sets]
    for (preds, _), ids in zip(weighted_sets, rows):
        missing = sorted(rows[0].keys() ^ ids.keys())
        if missing:
            raise EvalError(f"prediction sets disagree on clips: {missing[:10]}")
        if any(len(p.scores) != k for p in preds):
            raise EvalError("prediction sets disagree on class count")
    fused = np.zeros((len(base), k))
    for (preds, weight), ids in zip(weighted_sets, rows):
        fused += weight * _stacked_scores(preds)[[ids[p.clip_id] for p in base]]
    total = fused.sum(axis=-1, keepdims=True)
    bad = np.flatnonzero(total <= 0)
    if bad.size:
        raise EvalError(f"clip {base[bad[0]].clip_id}: fused mass is not positive")
    return [Prediction(p.clip_id, scores, p.truth)
            for p, scores in zip(base, fused / total)]


# -- model evaluation ----------------------------------------------------------------

# Clips per `predict` call in the sweeps; bounds the stacked arrays' memory.
SWEEP_CHUNK = 256


def _predictions(clips, clip_ids, scores):
    return [Prediction(clip_ids[i] if clip_ids else f"clip_{i:05d}", p, target)
            for i, ((_, target, _), p) in enumerate(zip(clips, scores))]


def predict_dataset(model, clips, clip_ids=None, n_steps=0):
    # one `predict` call per clip: the benchmark times each call as one
    # clip's latency, so batching waits for that hook (ROADMAP item 3)
    return _predictions(clips, clip_ids, [model.predict(feats, n_steps=n_steps)
                                          for feats, _, _ in clips])


def _chunks(clips):
    """The clips' features stacked, SWEEP_CHUNK clips at a time."""
    for start in range(0, len(clips), SWEEP_CHUNK):
        chunk = [feats for feats, _, _ in clips[start:start + SWEEP_CHUNK]]
        shapes = {np.shape(feats) for feats in chunk}
        if len(shapes) > 1:
            raise ShapeError(f"clips differ in shape: {sorted(shapes)}")
        yield np.stack(chunk)


def _predict_chunked(model, clips, clip_ids, n_steps=0):
    """`predict_dataset` with one `predict` call per SWEEP_CHUNK clips."""
    scores = []
    for chunk in _chunks(clips):
        scores.extend(model.predict(chunk, n_steps=n_steps))
    return _predictions(clips, clip_ids, scores)


def rollout_steps(model, manifest, tau):
    """Decoder rollout steps, round((tau - tau_train) * fps), that reach the
    anticipation gap `tau`; ConfigError when `tau` is below the training gap
    or needs more steps than the decoder's `max_rollout_steps`."""
    if tau < manifest.tau_a:
        raise ConfigError(f"tau_a {tau} below training value "
                          f"{manifest.tau_a}")
    n_steps = int(round((tau - manifest.tau_a) * manifest.fps))
    limit = model.decoder.config.max_rollout_steps
    if n_steps > limit:
        raise ConfigError(f"tau_a {tau} needs {n_steps} rollout steps, above "
                          f"max_rollout_steps {limit}")
    return n_steps


def eval_variable_tau(model, manifest, clips, tau_list, clip_ids=None,
                      metric=topk_accuracy):
    """Metric per anticipation gap; gaps beyond the training gap are reached
    by autoregressive rollout (`rollout_steps`)."""
    rows = []
    for tau in tau_list:
        n_steps = rollout_steps(model, manifest, tau)
        preds = _predict_chunked(model, clips, clip_ids, n_steps=n_steps)
        rows.append({"tau_a": tau, "n_steps": n_steps, "metric": metric(preds)})
    return rows


def prototype_ratio_sweep(model, clips, ratios, clip_ids=None,
                          metric=topk_accuracy):
    """Evaluate under prototype subsets of each ratio (fixed seeded subsets).

    Reports the metric and the comparison count per representation. A subset
    acts only in the head, so each chunk of clips runs `predict`'s encoder
    and decoder steps once, then its head step (`step_probs`) per ratio.
    """
    subsets = [semantic.choose_subset(model.config.num_classes, ratio,
                                      model.config.subset_seed)
               for ratio in ratios]
    scores = [[] for _ in ratios]
    saved = model.subset
    try:
        with ad.no_grad():
            for chunk in _chunks(clips):
                last = model.decoder.decode(model.encode_merge(chunk))[..., -1, :]
                for subset, out in zip(subsets, scores):
                    model.subset = subset
                    out.extend(model.step_probs(last))
    finally:
        model.subset = saved
    return [{"ratio": ratio, "comparisons": len(subset),
             "metric": metric(_predictions(clips, clip_ids, out))}
            for ratio, subset, out in zip(ratios, subsets, scores)]


# -- serialization ------------------------------------------------------------------

def write_predictions(path, preds):
    lines = [json.dumps({"format": PREDICTIONS_FORMAT, "version": 1,
                         "K": len(preds[0].scores)})]
    lines += [json.dumps({"clip_id": p.clip_id, "truth": p.truth,
                          "scores": np.asarray(p.scores, np.float64).tolist()})
              for p in preds]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_predictions(path):
    """Predictions checked against the header's K: each line's `clip_id` is a
    string no earlier line holds, its `truth` an int in [0, K) and its
    `scores` K non-negative numbers summing to 1, which also proves them
    finite. A bad line raises FormatError naming it.

    The checks run on the stacked lines; only when they fail are the lines
    checked one by one, for the first bad line's message.
    """
    rows = dataio.read_json_lines(path, "predictions file")
    lineno, header = rows[0]
    if header.get("format") != PREDICTIONS_FORMAT:
        raise FormatError(f"{path}: not a {PREDICTIONS_FORMAT} file")
    k = header.get("K")
    if not dataio.is_int(k) or k < 1:
        raise FormatError(f"{path}, line {lineno}: K must be a positive int, "
                          f"got {k!r}")
    if len(rows) == 1:
        raise FormatError(f"{path}: no predictions after the header")
    preds = _stacked_predictions(rows[1:], k)
    if preds is None:
        seen = {}
        preds = [_checked_line(path, lineno, obj, k, seen) for lineno, obj in rows[1:]]
    return preds


def _stacked_predictions(body, k):
    """The predictions of the (line number, object) pairs `body`, checked on
    the stacked lines; None unless every line passes `_checked_line`'s
    checks."""
    try:
        ids = [obj["clip_id"] for _, obj in body]
        truths = [obj["truth"] for _, obj in body]
        lists = [obj["scores"] for _, obj in body]
        scores = np.array(lists)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    if (scores.shape != (len(body), k) or scores.dtype.kind not in "if"
            or not all(type(t) is int for t in truths)
            or min(truths) < 0 or max(truths) >= k
            or not all(type(c) is str for c in ids) or len(set(ids)) < len(ids)
            # a row of bools alone is no row of numbers
            or any(type(row[0]) is bool and all(type(v) is bool for v in row)
                   for row in lists)):
        return None
    scores = scores.astype(np.float64, copy=False)
    total = scores.sum(axis=-1)
    if not ((np.abs(total - 1.0) <= SCORE_SUM_TOL).all() and (scores >= 0).all()):
        return None
    return [Prediction(*line) for line in zip(ids, scores, truths)]


def _checked_line(path, lineno, obj, k, seen):
    """One line's Prediction; FormatError naming the line for its first failed
    check. `seen` maps the clip ids of earlier lines to their line numbers."""
    try:
        truth, scores = obj["truth"], np.asarray(obj["scores"])
        if not dataio.is_int(truth) or not 0 <= truth < k:
            raise FormatError(f"{path}, line {lineno}: truth must be an int "
                              f"in [0, {k}), got {truth!r}")
        if scores.shape != (k,) or scores.dtype.kind not in "if":
            raise FormatError(f"{path}, line {lineno}: scores must be "
                              f"{k} numbers")
        total = scores.sum()
        if not abs(total - 1.0) <= SCORE_SUM_TOL:      # NaN and inf fail too
            raise FormatError(f"{path}, line {lineno}: clip "
                              f"{obj['clip_id']} scores sum to {total}")
        if (scores < 0).any():
            raise FormatError(f"{path}, line {lineno}: clip {obj['clip_id']} "
                              f"has a negative score {scores.min()}")
        clip_id = obj["clip_id"]
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise dataio.field_error(path, lineno, exc) from exc
    if type(clip_id) is not str:
        raise FormatError(f"{path}, line {lineno}: clip_id must be a string, "
                          f"got {clip_id!r}")
    if clip_id in seen:
        raise FormatError(f"{path}, line {lineno}: clip_id {clip_id!r} repeats "
                          f"line {seen[clip_id]}")
    seen[clip_id] = lineno
    return Prediction(clip_id, scores.astype(np.float64), truth)


def write_csv(path, rows, columns=None):
    if not rows:
        raise EvalError("no rows to write")
    columns = columns or list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
