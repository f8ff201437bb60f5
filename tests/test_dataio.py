"""Binary formats, manifests, observation windows and the synthetic task."""

import numpy as np
import pytest

from sgear import dataio
from sgear.errors import DataError, FormatError


class TestFeatureFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(4, 3, 8)).astype(np.float32)
        path = tmp_path / "a.sgft"
        dataio.write_feature_file(path, arr)
        back = dataio.read_feature_file(path)
        assert back.dtype == np.float32
        assert np.array_equal(back.view(np.uint32), arr.view(np.uint32))

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.sgft"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(FormatError) as exc:
            dataio.read_feature_file(path)
        assert exc.value.offset == 0

    def test_truncated_payload(self, tmp_path):
        # header says T=2, tokens=2, d=2 (8 floats) but only 7 are present
        import struct
        path = tmp_path / "short.sgft"
        payload = np.arange(7, dtype="<f4").tobytes()
        path.write_bytes(b"SGFT" + struct.pack("<IIII", 1, 2, 2, 2) + payload)
        with pytest.raises(FormatError, match="truncated"):
            dataio.read_feature_file(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.sgft"
        dataio.write_feature_file(path, np.zeros((1, 1, 2), dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            dataio.read_feature_file(path)

    def test_bad_version(self, tmp_path):
        import struct
        path = tmp_path / "v9.sgft"
        path.write_bytes(b"SGFT" + struct.pack("<IIII", 9, 0, 0, 0))
        with pytest.raises(FormatError) as exc:
            dataio.read_feature_file(path)
        assert exc.value.offset == 4


class TestPrototypeFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.normal(size=(6, 5)).astype(np.float32)
        path = tmp_path / "p.sglp"
        dataio.write_prototype_file(path, arr)
        back = dataio.read_prototype_file(path)
        assert np.array_equal(back.view(np.uint32), arr.view(np.uint32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sglp"
        path.write_bytes(b"QQQQ" + b"\x00" * 16)
        with pytest.raises(FormatError) as exc:
            dataio.read_prototype_file(path)
        assert exc.value.offset == 0


class TestManifest:
    def _manifest(self):
        rec = dataio.SegmentRecord(
            clip_id="c0", feature_path="c0.sgft", start_time=5.0,
            target_class=1, labels=[(1.0, 0), (2.0, 1)])
        return dataio.DatasetManifest(
            num_classes=3, class_names=["a", "b", "c"], tau_o=4.0, tau_a=1.0,
            fps=1.0, records=[rec])

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        dataio.write_manifest(path, self._manifest())
        back = dataio.read_manifest(path)
        assert back.num_classes == 3
        assert back.frames_per_clip == 4
        assert back.records[0].labels == [(1.0, 0), (2.0, 1)]

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"format": "other", "version": 1}\n')
        with pytest.raises(FormatError):
            dataio.read_manifest(path)

    def test_rejects_bad_target(self, tmp_path):
        m = self._manifest()
        m.records[0].target_class = 9
        with pytest.raises(DataError):
            m.validate()

    def test_rejects_label_after_start(self):
        m = self._manifest()
        m.records[0].labels = [(6.0, 0)]
        with pytest.raises(DataError):
            m.validate()


class TestObservationWindow:
    def test_unit_fps_window(self):
        times = dataio.sample_observation_window(20.0, 10.0, 1.0, 1.0)
        assert times == [float(v) for v in range(9, 19)]

    def test_single_frame(self):
        assert dataio.sample_observation_window(2.0, 1.0, 1.0, 1.0) == [0.0]

    def test_fractional_fps(self):
        times = dataio.sample_observation_window(5.0, 2.0, 0.5, 2.0)
        assert times == [2.5, 3.0, 3.5, 4.0]

    def test_clamp_to_zero(self):
        times = dataio.sample_observation_window(2.0, 3.0, 1.0, 1.0)
        assert times[0] == 0.0 and times == sorted(times)

    def test_never_reaches_anticipation_boundary(self):
        times = dataio.sample_observation_window(20.0, 10.0, 1.0, 1.0)
        assert all(t < 20.0 - 1.0 for t in times)
        assert times == sorted(times) and len(set(times)) == len(times)


class TestMarkov:
    def test_identity_graph_repeats(self):
        rng = np.random.default_rng(2)
        seq = dataio.markov_sequence(np.eye(4), 10, rng, start=2)
        assert seq == [2] * 10

    def test_same_stream_as_choice(self):
        """Each step draws what `rng.choice(k, p=row)` drew, and leaves the
        generator in the same state."""
        def by_choice(graph, length, rng):
            seq = [int(rng.integers(len(graph)))]
            for _ in range(length - 1):
                seq.append(int(rng.choice(len(graph), p=graph[seq[-1]])))
            return seq

        graphs = [np.full((5, 5), 0.2), np.eye(3),
                  np.random.default_rng(1).dirichlet(np.full(9, 0.3), size=9)]
        for graph in graphs:
            a, b = np.random.default_rng(4), np.random.default_rng(4)
            for _ in range(300):
                assert dataio.markov_sequence(graph, 9, a) == by_choice(graph, 9, b)
            assert a.bit_generator.state == b.bit_generator.state

    def test_uniform_transition_counts(self):
        rng = np.random.default_rng(3)
        graph = np.full((4, 4), 0.25)
        seq = dataio.markov_sequence(graph, 10001, rng)
        counts = np.zeros((4, 4))
        for a, b in zip(seq, seq[1:]):
            counts[a, b] += 1
        freqs = counts / counts.sum(axis=1, keepdims=True)
        assert np.abs(freqs - 0.25).max() < 0.02


class TestLanguagePrototypes:
    def test_block_structure(self):
        k, d = 6, 16
        graph = np.zeros((k, k))
        for i in range(k):
            block = [j for j in range(k) if j // 3 == i // 3]
            other = [j for j in range(k) if j // 3 != i // 3]
            graph[i, block] = 0.9 / len(block)
            graph[i, other] = 0.1 / len(other)
        protos = dataio.language_prototypes_from_cooccurrence(graph, d)
        assert np.abs(np.linalg.norm(protos, axis=1) - 1.0).max() < 1e-9
        sims = protos @ protos.T
        within = [sims[i, j] for i in range(k) for j in range(k)
                  if i != j and i // 3 == j // 3]
        across = [sims[i, j] for i in range(k) for j in range(k)
                  if i // 3 != j // 3]
        assert min(within) > max(across)


class TestSyntheticDataset:
    def test_rejects_non_stochastic_graph(self, tmp_path):
        graph = np.full((3, 3), 0.5)
        with pytest.raises(DataError, match="row 0"):
            dataio.generate_synthetic_dataset(tmp_path, 3, 2, 4, 1, graph, seed=0)

    @pytest.mark.parametrize("row,bad", [(0, [1.5, -0.5, 0.0]),
                                         (1, [np.nan, 0.5, 0.5])])
    def test_rejects_negative_or_nan_entry(self, tmp_path, row, bad):
        graph = np.eye(3)
        graph[row] = bad
        with pytest.raises(DataError, match=f"row {row} has a negative or NaN"):
            dataio.generate_synthetic_dataset(tmp_path, 3, 2, 4, 1, graph, seed=0)

    def test_identity_graph_target_repeats(self, tmp_path):
        manifest_path, _ = dataio.generate_synthetic_dataset(
            tmp_path, 3, 4, 8, 5, np.eye(3), seed=0)
        manifest = dataio.read_manifest(manifest_path)
        for rec in manifest.records:
            classes = {c for _, c in rec.labels}
            assert classes == {rec.target_class}

    def test_seeded_bytes_identical(self, tmp_path):
        for sub in ("one", "two"):
            dataio.generate_synthetic_dataset(
                tmp_path / sub, 4, 3, 8, 6, np.full((4, 4), 0.25), seed=9,
                tokens=2)
        for name in sorted(p.name for p in (tmp_path / "one").iterdir()):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b, name

    def test_features_separable_by_class(self, tmp_path):
        manifest_path, _ = dataio.generate_synthetic_dataset(
            tmp_path, 4, 4, 16, 30, np.full((4, 4), 0.25), seed=1)
        manifest = dataio.read_manifest(manifest_path)
        by_class = {}
        for rec in manifest.records:
            feats = dataio.load_clip_features(manifest_path, rec)
            for t, (_, cls) in enumerate(rec.labels):
                by_class.setdefault(cls, []).append(feats[t, 0])
        means = {c: np.mean(v, axis=0) for c, v in by_class.items()}
        for c, vecs in by_class.items():
            for v in vecs:
                dists = {k: np.linalg.norm(v - m) for k, m in means.items()}
                assert min(dists, key=dists.get) == c
