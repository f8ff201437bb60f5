"""Metrics against brute-force oracles, fusion, sweeps and prediction-file
serialization."""

import numpy as np
import pytest

from sgear import evaluate
from sgear.errors import ConfigError, EvalError, FormatError
from sgear.evaluate import (ENSEMBLE_PRESETS, Prediction,
                            class_mean_top5_recall, late_fuse,
                            read_predictions, topk_accuracy, write_csv,
                            write_predictions)


def brute_force_topk(preds, k):
    hits = 0
    for p in preds:
        # ranking with lower-index tie break: sort by (-score, index)
        order = sorted(range(len(p.scores)), key=lambda i: (-p.scores[i], i))
        if p.truth in order[:k]:
            hits += 1
    return hits / len(preds)


def brute_force_recall(preds, k=5):
    classes = []
    for p in preds:                       # first-appearance order
        if p.truth not in classes:
            classes.append(p.truth)
    recalls = []
    for c in classes:
        mine = [p for p in preds if p.truth == c]
        hit = sum(1 for p in mine
                  if c in sorted(range(len(p.scores)),
                                 key=lambda i: (-p.scores[i], i))[:k])
        recalls.append(hit / len(mine))
    return float(np.mean(recalls))


def random_preds(rng, n=50, k=12):
    preds = []
    for i in range(n):
        scores = rng.dirichlet(np.ones(k))
        preds.append(Prediction(f"c{i}", scores, int(rng.integers(k))))
    return preds


class TestTopkAccuracy:
    def test_perfect_one_hot(self):
        preds = [Prediction(f"c{i}", np.eye(4)[i % 4], i % 4) for i in range(8)]
        for k in (1, 2, 5):
            assert topk_accuracy(preds, k) == 1.0

    def test_uniform_tie_rule(self):
        preds = [Prediction("c0", np.full(3, 1 / 3), 2)]
        assert topk_accuracy(preds, 1) == 0.0
        assert topk_accuracy(preds, 2) == 0.0
        assert topk_accuracy(preds, 3) == 1.0

    def test_hand_built_four_clips(self):
        preds = [
            Prediction("a", np.array([0.7, 0.2, 0.1]), 0),   # top-1 hit
            Prediction("b", np.array([0.5, 0.4, 0.1]), 1),   # top-2 hit
            Prediction("c", np.array([0.1, 0.2, 0.7]), 0),   # top-3 only
            Prediction("d", np.array([0.3, 0.3, 0.4]), 2),   # top-1 hit
        ]
        assert topk_accuracy(preds, 1) == 0.5
        assert topk_accuracy(preds, 2) == 0.75
        assert topk_accuracy(preds, 3) == 1.0

    def test_oracle_equality_100_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            preds = random_preds(rng)
            k = int(rng.integers(1, 7))
            assert topk_accuracy(preds, k) == brute_force_topk(preds, k)

    def test_empty_input(self):
        with pytest.raises(EvalError):
            topk_accuracy([], 1)


class TestClassMeanRecall:
    def test_hand_enumeration(self):
        # class 0: 1 of 2 hits; class 1: 1 of 1 => (0.5 + 1.0) / 2 = 0.75
        k = 7
        hit = np.zeros(k); hit[0] = 1.0
        miss = np.zeros(k); miss[6] = 0.4; miss[5] = 0.3; miss[4] = 0.2
        miss[3] = 0.05; miss[2] = 0.04; miss[1] = 0.01
        hit1 = np.zeros(k); hit1[1] = 1.0
        preds = [Prediction("a", hit, 0), Prediction("b", miss, 0),
                 Prediction("c", hit1, 1)]
        assert class_mean_top5_recall(preds) == 0.75

    def test_all_hit(self):
        preds = [Prediction(f"c{i}", np.eye(6)[i % 6], i % 6) for i in range(9)]
        assert class_mean_top5_recall(preds) == 1.0

    def test_single_class_degenerate(self):
        rng = np.random.default_rng(1)
        preds = [Prediction(f"c{i}", rng.dirichlet(np.ones(8)), 3)
                 for i in range(10)]
        plain = topk_accuracy(preds, 5)
        assert class_mean_top5_recall(preds) == plain

    def test_oracle_equality_100_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            preds = random_preds(rng)
            assert class_mean_top5_recall(preds) == brute_force_recall(preds)


class TestLateFuse:
    def test_weight_one_zero_is_first_model(self):
        rng = np.random.default_rng(3)
        a, b = random_preds(rng, n=5), random_preds(rng, n=5)
        fused = late_fuse([(a, 1.0), (b, 0.0)])
        for p, q in zip(fused, a):
            assert np.abs(p.scores - q.scores).max() < 1e-12

    def test_hand_average(self):
        a = [Prediction("x", np.array([0.6, 0.4]), 0)]
        b = [Prediction("x", np.array([0.2, 0.8]), 0)]
        fused = late_fuse([(a, 1.0), (b, 1.0)])
        assert np.abs(fused[0].scores - [0.4, 0.6]).max() < 1e-12

    def test_renormalization(self):
        rng = np.random.default_rng(4)
        sets = [(random_preds(rng, n=6), w) for w in (2.5, 1.5, 1.0)]
        fused = late_fuse(sets)
        for p in fused:
            assert abs(p.scores.sum() - 1.0) < 1e-9
            assert np.all(p.scores >= 0)

    def test_clip_mismatch(self):
        a = [Prediction("x", np.array([1.0, 0.0]), 0)]
        b = [Prediction("y", np.array([1.0, 0.0]), 0)]
        with pytest.raises(EvalError, match="disagree"):
            late_fuse([(a, 1.0), (b, 1.0)])

    def test_class_count_mismatch(self):
        a = [Prediction("x", np.array([1.0, 0.0]), 0)]
        b = [Prediction("x", np.array([0.5, 0.25, 0.25]), 0)]
        with pytest.raises(EvalError, match="class count"):
            late_fuse([(a, 1.0), (b, 1.0)])

    def test_set_order_does_not_change_output(self):
        rng = np.random.default_rng(5)
        a, b, c = (random_preds(rng, n=9) for _ in range(3))
        want = late_fuse([(a, 2.5), (b, 1.5), (c, 1.0)])
        shuffled = [[s[i] for i in rng.permutation(len(s))] for s in (b, c)]
        got = late_fuse([(a, 2.5), (shuffled[0], 1.5), (shuffled[1], 1.0)])
        assert [p.clip_id for p in got] == [p.clip_id for p in want]
        for p, q in zip(got, want):
            assert np.array_equal(p.scores, q.scores) and p.truth == q.truth

    def test_presets_golden(self):
        assert ENSEMBLE_PRESETS["ek100"] == [2.5, 1.5, 1.0, 1.0, 0.5]
        assert ENSEMBLE_PRESETS["ek55"] == [1.5, 1.5, 1.5, 1.0, 1.0]


class TestPredictionFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        preds = random_preds(rng, n=7, k=5)
        path = tmp_path / "p.jsonl"
        write_predictions(path, preds)
        back = read_predictions(path)
        assert [p.clip_id for p in back] == [p.clip_id for p in preds]
        for p, q in zip(back, preds):
            assert np.abs(p.scores - q.scores).max() < 1e-12
            assert p.truth == q.truth

    def test_rejects_unnormalized(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format": "sgear-predictions", "version": 1, "K": 2}\n'
            '{"clip_id": "x", "truth": 0, "scores": [0.9, 0.9]}\n')
        with pytest.raises(FormatError, match="sum"):
            read_predictions(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_scores(self, tmp_path, bad):
        path = tmp_path / "p.jsonl"
        write_predictions(path, [Prediction("a", np.array([bad, 0.0]), 0)])
        with pytest.raises(FormatError):
            read_predictions(path)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(FormatError):
            read_predictions(path)

    def test_csv_output(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, [{"metric": "top1", "value": 0.5}])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "metric,value" and lines[1] == "top1,0.5"
