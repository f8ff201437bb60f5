"""Prototype stores, relative representations, the cosine head, the five
losses with their gradient-blocking contracts, and geometry analysis."""

import numpy as np
import pytest

import sgear.autodiff as ad
from sgear import dataio, semantic
from sgear.autodiff import Tensor
from sgear.errors import ConfigError, ShapeError
from sgear.pa import frame_relative_repr
from sgear.semantic import (CosineHead, LanguageTargets, LinearHead,
                            LossWeights, ProtoStore, alignment_score,
                            choose_subset, init_visual_prototypes,
                            loss_feat, loss_reg, loss_sem, nearest_actions,
                            relative_repr, similarity_matrix, total_loss)


def store_from(rows, kind="visual", frozen=False):
    return ProtoStore(kind=kind, tensor=Tensor(np.asarray(rows, dtype=float),
                                               requires_grad=True),
                      frozen=frozen)


class TestProtoStore:
    def test_language_always_frozen(self):
        store = ProtoStore(kind="language", tensor=Tensor(np.eye(3)))
        assert store.frozen and not store.tensor.requires_grad

    def test_visual_learnable_until_frozen(self):
        store = store_from(np.eye(3))
        assert store.tensor.requires_grad
        store.freeze()
        assert not store.tensor.requires_grad

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ProtoStore(kind="audio", tensor=Tensor(np.eye(2)))

    def test_save_load(self, tmp_path):
        rng = np.random.default_rng(0)
        store = store_from(rng.normal(size=(4, 6)).astype(np.float32))
        dataio.write_prototype_file(tmp_path / "p.sglp", store.tensor.data)
        back = ProtoStore.load(tmp_path / "p.sglp", kind="visual")
        assert np.array_equal(back.tensor.data, store.tensor.data)


class TestInitVisualPrototypes:
    def test_single_sample_mean(self):
        e = np.arange(4, dtype=float)
        store = init_visual_prototypes("class-mean", 2, 4, seed=0,
                                       embeddings=[e, e * 2, e * 2],
                                       labels=[0, 1, 1])
        assert np.array_equal(store.tensor.data[0], e)
        assert np.array_equal(store.tensor.data[1], e * 2)

    def test_two_pass_mean_oracle(self):
        rng = np.random.default_rng(1)
        embeddings = rng.normal(size=(30, 5))
        labels = rng.integers(0, 3, size=30)
        store = init_visual_prototypes("class-mean", 3, 5, seed=0,
                                       embeddings=embeddings, labels=labels)
        for k in range(3):
            expect = embeddings[labels == k].sum(axis=0) / (labels == k).sum()
            assert np.abs(store.tensor.data[k] - expect).max() < 1e-9

    def test_zero_sample_fallback_warns(self):
        store = init_visual_prototypes("class-mean", 3, 4, seed=0,
                                       embeddings=[np.ones(4)], labels=[0])
        assert len(store.warnings) == 2   # classes 1 and 2 fell back
        random_ref = init_visual_prototypes("random", 3, 4, seed=0)
        assert np.array_equal(store.tensor.data[1], random_ref.tensor.data[1])

    def test_random_deterministic(self):
        a = init_visual_prototypes("random", 5, 8, seed=7)
        b = init_visual_prototypes("random", 5, 8, seed=7)
        assert a.tensor.data.tobytes() == b.tensor.data.tobytes()

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            init_visual_prototypes("centroid", 2, 4, seed=0)


class TestSubset:
    def test_ratio_point_one_of_4053(self):
        subset = choose_subset(4053, 0.1, seed=0)
        assert len(subset) == 406
        assert len(np.unique(subset)) == 406
        assert np.array_equal(subset, np.sort(subset))

    def test_full_ratio_identity(self):
        assert np.array_equal(choose_subset(10, 1.0, seed=3), np.arange(10))

    def test_seed_fixes_subset(self):
        a = choose_subset(100, 0.3, seed=4)
        b = choose_subset(100, 0.3, seed=4)
        assert np.array_equal(a, b)

    def test_invalid_ratio(self):
        with pytest.raises(ConfigError):
            choose_subset(10, 0.0, seed=0)


class TestRelativeRepr:
    def test_self_prototype(self):
        protos = Tensor(np.eye(3))
        r = relative_repr(Tensor(np.eye(3)[1:2]), protos).data[0]
        assert abs(r[1] - 1.0) < 1e-7
        assert np.array_equal(np.argsort(-r), [1, 0, 2])

    def test_orthonormal_one_hot(self):
        protos = Tensor(np.eye(4))
        r = relative_repr(Tensor(np.eye(4)[2:3]), protos).data
        assert np.abs(r - np.eye(4)[2:3]).max() < 1e-7

    def test_range(self):
        rng = np.random.default_rng(2)
        r = relative_repr(Tensor(rng.normal(size=(1, 6))),
                          Tensor(rng.normal(size=(9, 6)))).data
        assert np.all(r >= -1 - 1e-9) and np.all(r <= 1 + 1e-9)

    def test_subset_restriction(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(1, 5)))
        protos = Tensor(rng.normal(size=(6, 5)))
        full = relative_repr(x, protos).data
        sub = relative_repr(x, protos, subset=[1, 4]).data
        assert np.abs(sub - full[:, [1, 4]]).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            relative_repr(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 4))))


class TestLanguageTargets:
    def test_self_entry_is_one(self):
        rng = np.random.default_rng(4)
        targets = LanguageTargets(ProtoStore(
            kind="language", tensor=Tensor(rng.normal(size=(4, 6)))))
        for y in range(4):
            assert abs(float(targets.row(y).data[y]) - 1.0) < 1e-6

    def test_orthonormal_one_hot(self):
        targets = LanguageTargets(ProtoStore(kind="language",
                                             tensor=Tensor(np.eye(3))))
        assert np.abs(targets.row(1).data - np.eye(3)[1]).max() < 1e-7

    def test_pairwise_oracle(self):
        rng = np.random.default_rng(5)
        p = rng.normal(size=(5, 7))
        targets = LanguageTargets(ProtoStore(kind="language", tensor=Tensor(p)))
        for y in range(5):
            row = targets.row(y).data
            for j in range(5):
                norms = np.linalg.norm(p[y]) * np.linalg.norm(p[j])
                assert abs(row[j] - p[y] @ p[j] / (norms + 1e-8)) < 1e-9

    def test_out_of_range(self):
        targets = LanguageTargets(ProtoStore(kind="language",
                                             tensor=Tensor(np.eye(2))))
        with pytest.raises(IndexError):
            targets.row(5)


class TestCosineHead:
    def test_alpha_saturation_keeps_z(self):
        rng = np.random.default_rng(6)
        head = CosineHead(4, 3, rng)
        head.alpha.data[...] = 1000.0
        z = Tensor(rng.normal(size=(1, 4)))
        out = head.cosine_attention(z, Tensor(rng.normal(size=(3, 4)))).data
        assert np.abs(out - z.data).max() < 1e-9

    def test_single_prototype_aggregate(self):
        rng = np.random.default_rng(7)
        head = CosineHead(4, 1, rng)
        protos = Tensor(rng.normal(size=(1, 4)))
        agg = head.aggregate(Tensor(rng.normal(size=(1, 4))), protos).data
        assert np.abs(agg - protos.data).max() < 1e-12

    def test_hand_convex_combination(self):
        head = CosineHead(2, 2, np.random.default_rng(8))
        head.alpha.data[...] = 0.0          # gate 0.5
        protos = Tensor(np.eye(2))
        z = Tensor(np.array([[1.0, 0.0]]))
        r = relative_repr(z, protos).data
        w = np.exp(r) / np.exp(r).sum()
        expect = 0.5 * z.data + 0.5 * (w @ np.eye(2))
        got = head.cosine_attention(z, protos).data
        assert np.abs(got - expect).max() < 1e-9

    def test_classify_uniform_and_oracle(self):
        rng = np.random.default_rng(9)
        head = CosineHead(4, 5, rng)
        head.w_cls.w.data[...] = 0.0
        head.w_cls.b.data[...] = 0.0
        _, probs = head.classify(Tensor(rng.normal(size=(1, 4))))
        assert np.abs(probs.data - 0.2).max() < 1e-12
        head.w_cls.w.data[...] = rng.normal(size=(4, 5))
        z = rng.normal(size=(1, 4))
        logits, _ = head.classify(Tensor(z))
        assert np.abs(logits.data - z @ head.w_cls.w.data).max() < 1e-12

    def test_linear_head_argmax_selector(self):
        head = LinearHead(3, 3, np.random.default_rng(10))
        head.w_cls.w.data[...] = np.eye(3) * 10
        head.w_cls.b.data[...] = 0.0
        logits, _ = head.classify(Tensor(np.array([[0.0, 5.0, 1.0]])))
        assert int(np.argmax(logits.data)) == 1


class TestLosses:
    def test_loss_sem_identity(self):
        protos = Tensor(np.eye(3), requires_grad=True)
        z = Tensor(np.eye(3)[:1], requires_grad=True)
        row = relative_repr(Tensor(np.eye(3)[:1]), Tensor(np.eye(3)))
        assert float(loss_sem(z, protos, row).data) < 1e-9

    def test_loss_sem_hand_value(self):
        # z with cosines exactly (0.5, -0.2) against two orthonormal prototypes
        protos = Tensor(np.eye(3)[:2], requires_grad=True)
        z = Tensor(np.array([[0.5, -0.2, np.sqrt(1 - 0.25 - 0.04)]]))
        target = Tensor(np.array([[0.3, 0.1]]))
        got = float(loss_sem(z, protos, target).data)
        assert abs(got - 0.25) < 1e-7

    def test_loss_sem_detach_contract(self):
        rng = np.random.default_rng(11)
        protos = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        z = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        loss_sem(z, protos, Tensor(np.array([[0.5, 0.1, -0.3]]))).backward()
        assert z.grad is None                      # blocked exactly
        assert np.abs(protos.grad).max() > 0.0

    def test_loss_reg_zero_at_prototype(self):
        protos = Tensor(np.eye(3), requires_grad=True)
        z = Tensor(np.eye(3)[1:2], requires_grad=True)
        assert float(loss_reg(z, protos, [1]).data) == 0.0

    def test_loss_reg_hand_value(self):
        protos = Tensor(np.zeros((1, 2)), requires_grad=True)
        z = Tensor(np.array([[1.0, 0.0]]), requires_grad=True)
        assert abs(float(loss_reg(z, protos, [0]).data) - 0.5) < 1e-12

    def test_loss_reg_detach_contract(self):
        rng = np.random.default_rng(12)
        protos = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        z = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        loss_reg(z, protos, [2]).backward()
        assert protos.grad is None
        assert np.abs(z.grad).max() > 0.0

    def test_row_losses_average_rows_or_pool_them(self):
        rng = np.random.default_rng(14)
        protos = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        z = Tensor(rng.normal(size=(3, 4)))
        rows = Tensor(rng.uniform(-1, 1, size=(3, 3)))
        y = [2, 0, 2]
        sem = [float(loss_sem(z[i:i + 1], protos, rows[i:i + 1]).data)
               for i in range(3)]
        reg = [float(loss_reg(z[i:i + 1], protos, y[i:i + 1]).data)
               for i in range(3)]
        assert abs(float(loss_sem(z, protos, rows).data) - np.mean(sem)) < 1e-12
        assert abs(float(loss_reg(z, protos, y).data) - np.mean(reg)) < 1e-12
        pool = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])   # two clips
        np.testing.assert_allclose(
            loss_sem(z, protos, rows, pool=pool).data, pool @ sem, atol=1e-12)
        np.testing.assert_allclose(
            loss_reg(z, protos, y, pool=pool).data, pool @ reg, atol=1e-12)

    def test_loss_reg_rejects_rows_without_classes(self):
        protos = Tensor(np.eye(3))
        with pytest.raises(ShapeError):
            loss_reg(Tensor(np.eye(3)[:2]), protos, 1)
        with pytest.raises(ShapeError):
            loss_reg(Tensor(np.eye(3)[0]), protos, 1)

    def test_loss_feat_shifted_equal(self):
        rng = np.random.default_rng(13)
        merged = rng.normal(size=(4, 3))
        future = np.vstack([merged[1:], rng.normal(size=3)])
        value = loss_feat(Tensor(future), Tensor(merged))
        assert float(value.data) < 1e-12

    def test_loss_feat_hand_value(self):
        value = loss_feat(Tensor(np.array([[1.0], [9.0]])),
                          Tensor(np.array([[0.0], [3.0]])))
        assert float(value.data) == 4.0

    def test_loss_feat_single_frame_is_zero(self):
        """T=1 leaves no shifted pair: the value is 0 and so is the gradient,
        one clip or a batch."""
        rng = np.random.default_rng(15)
        for lead in ((), (3,)):
            future = Tensor(rng.normal(size=(*lead, 1, 3)), requires_grad=True)
            merged = Tensor(rng.normal(size=(*lead, 1, 3)), requires_grad=True)
            value = loss_feat(future, merged)
            assert value.shape == lead and np.all(value.data == 0.0)
            value.sum().backward()
            assert np.all(future.grad == 0.0) and merged.grad is None

    def test_loss_feat_detach_contract(self):
        rng = np.random.default_rng(14)
        merged = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        future = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        loss_feat(future, merged).backward()
        assert merged.grad is None
        assert np.abs(future.grad[:2]).max() > 0.0

    def test_total_loss_weighting(self):
        parts = {k: Tensor(np.asarray(v)) for k, v in
                 zip(("sem", "reg", "cls", "past", "feat"), (1.0, 2.0, 3.0, 4.0, 5.0))}
        weights = LossWeights(4.0, 1.0, 1.0, 1.0, 1.0)
        assert float(total_loss(parts, weights).data) == 4 + 2 + 3 + 4 + 5
        zero = LossWeights(0.0, 0.0, 0.0, 0.0, 0.0)
        assert float(total_loss(parts, zero).data) == 0.0

    def test_total_loss_missing_part(self):
        parts = {"sem": Tensor(np.asarray(0.0))}
        with pytest.raises(ConfigError, match="missing"):
            total_loss(parts, LossWeights(1, 1, 1, 1, 1))


class TestGeometry:
    def test_similarity_diagonal(self):
        rng = np.random.default_rng(15)
        sims = similarity_matrix(store_from(rng.normal(size=(4, 6))))
        assert np.abs(np.diag(sims) - 1.0).max() < 1e-6

    def test_one_cosine_helper_bit_exact(self):
        """The similarity matrix, the language targets and PA's frame scores
        all equal the formula each of them computed on its own before."""
        rng = np.random.default_rng(18)
        p = rng.normal(size=(5, 6))
        p[3] = 0.0
        x = rng.normal(size=(2, 3, 6))
        x[1, 2] = 0.0
        norms = np.linalg.norm(p, axis=1, keepdims=True)
        old_self = (p @ p.T) / (norms * norms.T + 1e-8)
        xn = np.linalg.norm(x, axis=-1, keepdims=True)
        pn = np.linalg.norm(p, axis=-1, keepdims=True)
        old_frames = (x @ p.T) / (xn * pn.T + 1e-8)
        store = store_from(p, kind="language")
        assert np.array_equal(similarity_matrix(store), old_self)
        assert np.array_equal(LanguageTargets(store).matrix, old_self)
        assert np.array_equal(frame_relative_repr(x, p), old_frames)

    def test_alignment_self_correlation(self):
        rng = np.random.default_rng(16)
        store = store_from(rng.normal(size=(5, 8)))
        assert abs(alignment_score(store, store) - 1.0) < 1e-12

    def test_alignment_pearson_oracle(self):
        rng = np.random.default_rng(17)
        a = store_from(rng.normal(size=(3, 4)))
        b = store_from(rng.normal(size=(3, 4)))
        mask = ~np.eye(3, dtype=bool)
        x = similarity_matrix(a)[mask]
        y = similarity_matrix(b)[mask]
        expect = np.corrcoef(x, y)[0, 1]
        assert abs(alignment_score(a, b) - expect) < 1e-9

    def test_alignment_k_mismatch(self):
        with pytest.raises(ShapeError):
            alignment_score(store_from(np.eye(3)), store_from(np.eye(4)))

    def test_nearest_actions(self):
        rows = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        store = ProtoStore(kind="visual", tensor=Tensor(rows),
                           class_names=["a", "b", "c"])
        near = nearest_actions(0, store, n=2)
        assert [n[0] for n in near] == [1, 2]
        assert near[0][1] == "b"
        assert near[0][2] > near[1][2]

    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_nearest_actions_lists_at_most_k_minus_1(self, n):
        """n >= K gives the K-1 other classes, never the reference itself."""
        rows = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [-1.0, 0.2]])
        store = ProtoStore(kind="visual", tensor=Tensor(rows))
        for ref in range(4):
            near = nearest_actions(ref, store, n=n)
            assert sorted(i for i, _, _ in near) == [i for i in range(4) if i != ref]
            cosines = [c for _, _, c in near]
            assert np.all(np.isfinite(cosines))
            assert cosines == sorted(cosines, reverse=True)
