"""Metrics, late fusion, variable-horizon evaluation, prototype-ratio sweeps
and prediction-file serialization.

Ties in every top-k ranking are broken by lower class index, matching the
prototype-selection rule.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import dataio, semantic
from .errors import ConfigError, EvalError, FormatError, ShapeError

PREDICTIONS_FORMAT = "sgear-predictions"


@dataclass
class Prediction:
    clip_id: str
    scores: np.ndarray       # K class probabilities
    truth: int


def _ranked(scores):
    # stable argsort of -scores: lower class index wins ties
    return np.argsort(-np.asarray(scores), kind="stable")


def topk_accuracy(preds, k=1):
    """Fraction of clips whose true class is among the k best-scored."""
    if not preds:
        raise EvalError("empty prediction set")
    hits = sum(1 for p in preds if p.truth in _ranked(p.scores)[:k])
    return hits / len(preds)


def class_mean_top5_recall(preds, k=5):
    """Unweighted mean over present classes of their top-k recall."""
    if not preds:
        raise EvalError("empty prediction set")
    hits, counts = {}, {}
    for p in preds:
        counts[p.truth] = counts.get(p.truth, 0) + 1
        if p.truth in _ranked(p.scores)[:k]:
            hits[p.truth] = hits.get(p.truth, 0) + 1
    recalls = [hits.get(c, 0) / n for c, n in counts.items()]
    return float(np.mean(recalls))


# -- late fusion ---------------------------------------------------------------

ENSEMBLE_PRESETS = {
    # backbone fusion weights, in input order
    "ek100": [2.5, 1.5, 1.0, 1.0, 0.5],   # ViT, ViT(224), TSN, irCSN, Obj
    "ek55": [1.5, 1.5, 1.5, 1.0, 1.0],    # ViT, irCSN, TSN, Flow, Obj
}


def late_fuse(weighted_sets):
    """Weighted sum of per-clip probability vectors, renormalized to sum 1.

    `weighted_sets`: list of (predictions, weight); all sets must cover the
    same clip ids with the same class count.
    """
    if not weighted_sets:
        raise EvalError("nothing to fuse")
    base, _ = weighted_sets[0]
    k = len(base[0].scores)
    # clip id -> its first prediction, one index per set
    by_id = [{p.clip_id: p for p in reversed(preds)} for preds, _ in weighted_sets]
    for (preds, _), ids in zip(weighted_sets[1:], by_id[1:]):
        missing = sorted(by_id[0].keys() ^ ids.keys())
        if missing:
            raise EvalError(f"prediction sets disagree on clips: {missing[:10]}")
        if any(len(p.scores) != k for p in preds):
            raise EvalError("prediction sets disagree on class count")
    fused = []
    for p in base:
        acc = np.zeros(k)
        for ids, (_, weight) in zip(by_id, weighted_sets):
            acc += weight * np.asarray(ids[p.clip_id].scores)
        total = acc.sum()
        if total <= 0:
            raise EvalError(f"clip {p.clip_id}: fused mass is not positive")
        fused.append(Prediction(p.clip_id, acc / total, p.truth))
    return fused


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


def _predict_chunked(model, clips, clip_ids, n_steps=0):
    """`predict_dataset` with one `predict` call per SWEEP_CHUNK clips."""
    scores = []
    for start in range(0, len(clips), SWEEP_CHUNK):
        chunk = [feats for feats, _, _ in clips[start:start + SWEEP_CHUNK]]
        shapes = {np.shape(feats) for feats in chunk}
        if len(shapes) > 1:
            raise ShapeError(f"clips differ in shape: {sorted(shapes)}")
        scores.extend(model.predict(np.stack(chunk), n_steps=n_steps))
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

    Reports the metric and the comparison count per representation.
    """
    saved = model.subset
    rows = []
    try:
        for ratio in ratios:
            model.subset = semantic.choose_subset(
                model.config.num_classes, ratio, model.config.subset_seed)
            preds = _predict_chunked(model, clips, clip_ids)
            rows.append({
                "ratio": ratio,
                "comparisons": len(model.subset),
                "metric": metric(preds),
            })
    finally:
        model.subset = saved
    return rows


# -- serialization ------------------------------------------------------------------

def write_predictions(path, preds):
    with open(path, "w") as fh:
        fh.write(json.dumps({"format": PREDICTIONS_FORMAT, "version": 1,
                             "K": len(preds[0].scores)}) + "\n")
        for p in preds:
            fh.write(json.dumps({"clip_id": p.clip_id, "truth": p.truth,
                                 "scores": [float(s) for s in p.scores]}) + "\n")


def read_predictions(path):
    """Predictions checked against the header's K: each line's `truth` is an
    int in [0, K) and its `scores` are K numbers summing to 1, which also
    proves them finite. A bad line raises FormatError naming it."""
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
            if not abs(total - 1.0) <= 1e-6:      # NaN and inf fail too
                raise FormatError(f"{path}, line {lineno}: clip "
                                  f"{obj['clip_id']} scores sum to {total}")
            preds.append(Prediction(obj["clip_id"], scores, truth))
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise dataio.field_error(path, lineno, exc) from exc
    return preds


def write_csv(path, rows, columns=None):
    if not rows:
        raise EvalError("no rows to write")
    columns = columns or list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
