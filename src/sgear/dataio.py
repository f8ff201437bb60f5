"""Dataset manifests, binary feature/prototype files and synthetic data.

Binary formats (little-endian throughout):

* Feature file: magic ``SGFT``, u32 version (=1), u32 T, u32 tokens, u32 d,
  then T*tokens*d IEEE-754 float32 values in (t, token, channel) row-major
  order.
* Prototype file: magic ``SGLP``, u32 version (=1), u32 K, u32 d, then K*d
  float32 values row-major.
* Checkpoint (`sgear.trainer`): magic ``SGCK``, u32 version (=3), u32 header
  length, a UTF-8 JSON header (``version``, ``config``, ``step``,
  ``visual_frozen``, ``sections``), then one float64 block holding the
  listed sections in the order ``store.visual``, ``store.language``,
  ``adapter.mu``, ``adapter.inv_sigma``, ``param``, ``opt.t``, ``opt.m``,
  ``opt.v``, ``opt.velocity``. The model rebuilt from ``config`` fixes each
  size: K*d for a store, d for an adapter statistic, 1 for ``opt.t`` and
  the parameter count n for ``param`` (the parameters in sorted-name order)
  and each optimizer buffer. The sections must cover the block exactly.

Every reader reads a file's bytes once and checks each size its header gives
against the bytes it holds, so a size field larger than the file fails
before anything is allocated for it.

Manifests are line-delimited JSON: a header line
``{"format": "sgear-manifest", "version": 1, ...}`` followed by one record
per line. This keeps large datasets streamable and diffable.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError

FEATURE_MAGIC = b"SGFT"
PROTO_MAGIC = b"SGLP"
MANIFEST_FORMAT = "sgear-manifest"


# -- record types ---------------------------------------------------------------

def is_int(value):
    """An integer, numpy's included, that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_class(value, num_classes):
    return is_int(value) and 0 <= value < num_classes


@dataclass
class SegmentRecord:
    clip_id: str
    feature_path: str
    start_time: float          # action start tau_s, seconds
    target_class: int
    labels: list = field(default_factory=list)  # [(time_sec, class), ...]

    def validate(self, num_classes):
        if not isinstance(self.clip_id, str):
            raise DataError(f"clip_id must be a string, got {self.clip_id!r}")
        if not math.isfinite(self.start_time) or self.start_time < 0:
            raise DataError(f"{self.clip_id}: start_time must be finite and "
                            f">= 0, got {self.start_time}")
        if not _is_class(self.target_class, num_classes):
            raise DataError(f"{self.clip_id}: target class {self.target_class!r} "
                            f"is not an int in [0, {num_classes})")
        for t, c in self.labels:
            if not math.isfinite(t) or t >= self.start_time:
                raise DataError(f"{self.clip_id}: past label time must be finite "
                                f"and before start_time {self.start_time}, got {t}")
            if not _is_class(c, num_classes):
                raise DataError(f"{self.clip_id}: label class {c!r} is not an "
                                f"int in [0, {num_classes})")


@dataclass
class DatasetManifest:
    num_classes: int
    class_names: list
    tau_o: float
    tau_a: float
    fps: float
    records: list = field(default_factory=list)

    @property
    def frames_per_clip(self):
        return int(round(self.tau_o * self.fps))

    def validate(self):
        if not is_int(self.num_classes) or self.num_classes < 1:
            raise DataError(f"K must be a positive int, got {self.num_classes!r}")
        for name in ("tau_o", "tau_a", "fps"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"{name} must be finite, got {getattr(self, name)}")
        if self.fps <= 0:
            raise DataError(f"fps must be > 0, got {self.fps}")
        if len(self.class_names) != self.num_classes:
            raise DataError("class_names length does not match class count")
        if len(set(self.class_names)) != self.num_classes:
            raise DataError("class_names must be unique")
        if self.frames_per_clip < 1:
            raise DataError("tau_o * fps must round to at least one frame")
        for rec in self.records:
            rec.validate(self.num_classes)


def write_manifest(path, manifest: DatasetManifest):
    manifest.validate()
    header = {
        "format": MANIFEST_FORMAT,
        "version": 1,
        "K": manifest.num_classes,
        "class_names": manifest.class_names,
        "tau_o": manifest.tau_o,
        "tau_a": manifest.tau_a,
        "fps": manifest.fps,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for rec in manifest.records:
            fh.write(json.dumps({
                "clip_id": rec.clip_id,
                "feature_path": rec.feature_path,
                "start_time": rec.start_time,
                "target": rec.target_class,
                "labels": rec.labels,
            }) + "\n")


def read_json_lines(path, what):
    """The non-blank lines of a line-delimited JSON file as (1-based line
    number, object) pairs. An empty file, or a line that is not a JSON
    object, raises FormatError naming the path (and the line)."""
    with open(path, "rb") as fh:
        data = fh.read()
    rows = []
    for lineno, line in enumerate(data.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line.decode())
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep
            raise FormatError(f"{path}, line {lineno}: not valid JSON ({exc})") from exc
        if not isinstance(obj, dict):
            raise FormatError(f"{path}, line {lineno}: not a JSON object")
        rows.append((lineno, obj))
    if not rows:
        raise FormatError(f"{path}: empty {what}")
    return rows


def field_error(path, lineno, exc):
    """FormatError naming the path and line for the KeyError, TypeError or
    ValueError that reading one line's fields raised."""
    what = f"missing key {exc}" if isinstance(exc, KeyError) else f"bad field: {exc}"
    return FormatError(f"{path}, line {lineno}: {what}")


def read_manifest(path) -> DatasetManifest:
    rows = read_json_lines(path, "manifest")
    lineno, header = rows[0]
    if header.get("format") != MANIFEST_FORMAT:
        raise FormatError(f"{path}: not a {MANIFEST_FORMAT} file")
    if header.get("version") != 1:
        raise FormatError(f"{path}: unsupported manifest version {header.get('version')}")
    try:
        manifest = DatasetManifest(
            num_classes=header["K"],
            class_names=header["class_names"],
            tau_o=header["tau_o"],
            tau_a=header["tau_a"],
            fps=header["fps"],
        )
        manifest.validate()            # the header's fields; no records yet
        seen = {}                      # clip id -> its line
        for lineno, obj in rows[1:]:
            rec = SegmentRecord(
                clip_id=obj["clip_id"],
                feature_path=obj["feature_path"],
                start_time=obj["start_time"],
                target_class=obj["target"],
                labels=[tuple(lbl) for lbl in obj.get("labels", [])],
            )
            rec.validate(manifest.num_classes)
            if rec.clip_id in seen:
                raise DataError(f"clip_id {rec.clip_id!r} repeats line "
                                f"{seen[rec.clip_id]}")
            seen[rec.clip_id] = lineno
            manifest.records.append(rec)
    except DataError as exc:
        raise DataError(f"{path}, line {lineno}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise field_error(path, lineno, exc) from exc
    return manifest


# -- binary files --------------------------------------------------------------

def read_binary(path, magic, version, n_fields, kind):
    """The file's bytes, read once, and the `n_fields` u32 fields after its
    magic and u32 version; FormatError for a short header or a bad magic or
    version."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4:
        raise FormatError("truncated file while reading magic", offset=0)
    if data[:4] != magic:
        raise FormatError(f"bad magic {data[:4]!r}, expected {magic!r}", offset=0)
    if len(data) < 8 + 4 * n_fields:
        raise FormatError("truncated file while reading header", offset=4)
    got, *fields = struct.unpack_from(f"<{n_fields + 1}I", data, 4)
    if got != version:
        raise FormatError(f"unsupported {kind} version {got}", offset=4)
    return data, fields


def _write_array_file(path, magic, kind, array, n_dims):
    """magic, u32 version 1, u32 per dim, then the float32 payload."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    if arr.ndim != n_dims:
        raise DataError(f"{kind} payload must be {n_dims}-d, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack(f"<{n_dims + 1}I", 1, *arr.shape))
        fh.write(arr.tobytes())


def _read_array_file(path, magic, kind, n_dims):
    """The array `_write_array_file` wrote; FormatError with the byte offset
    for a bad magic or version, a short file or bytes after the payload."""
    data, shape = read_binary(path, magic, 1, n_dims, f"{kind}-file")
    start = 8 + 4 * n_dims
    count = math.prod(shape)
    end = start + 4 * count
    if len(data) < end:
        raise FormatError(f"truncated file while reading {count} float32 values",
                          offset=start)
    if len(data) > end:
        raise FormatError("trailing bytes after payload", offset=end)
    return np.frombuffer(data, "<f4", count, start).reshape(shape)


def write_feature_file(path, features: np.ndarray):
    """features: (T, tokens, d) array; stored as float32."""
    _write_array_file(path, FEATURE_MAGIC, "feature", features, 3)


def read_feature_file(path) -> np.ndarray:
    return _read_array_file(path, FEATURE_MAGIC, "feature", 3)


def write_prototype_file(path, protos: np.ndarray):
    """protos: (K, d) array; stored as float32."""
    _write_array_file(path, PROTO_MAGIC, "prototype", protos, 2)


def read_prototype_file(path) -> np.ndarray:
    return _read_array_file(path, PROTO_MAGIC, "prototype", 2)


# -- observation windows ------------------------------------------------------------

def sample_observation_window(tau_s, tau_o, tau_a, fps):
    """Frame times for the window [tau_s-(tau_o+tau_a), tau_s-tau_a).

    T = round(tau_o*fps) left-aligned uniform samples. Windows underflowing
    time 0 are clamped to 0, duplicating the earliest frame.
    """
    t_count = int(round(tau_o * fps))
    if t_count < 1:
        raise ConfigError("tau_o * fps must round to at least one frame")
    start = tau_s - tau_a - tau_o
    times = [start + i / fps for i in range(t_count)]
    return [max(0.0, t) for t in times]


# -- synthetic task -------------------------------------------------------------

def markov_sequence(co_graph, length, rng, start=None):
    """Draw an action sequence from the row-stochastic transition matrix.

    Each step inverts the row's normalized cumulative sum at one uniform
    draw, which is what `rng.choice(k, p=row)` computes, so the sequence and
    the generator's state are the same as with it."""
    k = co_graph.shape[0]
    cdf = np.cumsum(co_graph, axis=1, dtype=np.float64)
    cdf /= cdf[:, -1:]
    seq = [int(rng.integers(k)) if start is None else int(start)]
    for _ in range(length - 1):
        seq.append(int(cdf[seq[-1]].searchsorted(rng.random(), side="right")))
    return seq


def language_prototypes_from_cooccurrence(co_graph, d):
    """Unit prototypes whose pairwise cosine grows with symmetrized co-occurrence.

    Construction: take A = (C + C^T)/2, shift its diagonal until positive
    semidefinite, factor the Gram matrix through its eigendecomposition and
    keep the top-d coordinates, then row-normalize. With K <= d the Gram is
    represented exactly, so cos(rho[i], rho[j]) is monotone in A[i][j].
    """
    a = 0.5 * (co_graph + co_graph.T)
    vals, vecs = np.linalg.eigh(a)
    shift = max(0.0, -vals.min()) + 0.05
    vals = vals + shift
    emb = vecs * np.sqrt(vals)          # rows: Gram factor of A + shift*I
    k = a.shape[0]
    if k > d:
        order = np.argsort(vals)[::-1][:d]
        emb = emb[:, order]
    out = np.zeros((k, d))
    out[:, :emb.shape[1]] = emb
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    return out


def generate_synthetic_dataset(out_dir, num_classes, frames, d, n_clips, co_graph,
                               seed, tokens=1, noise=0.25, class_names=None):
    """Write a complete synthetic dataset under `out_dir`.

    Action sequences follow a Markov chain over `co_graph`; every frame's
    tokens are class-conditioned Gaussians (per-class mean, sigma=`noise`)
    so classes are linearly separable. Deterministic for a fixed seed.

    Returns (manifest_path, prototype_path).
    """
    co_graph = np.asarray(co_graph, dtype=np.float64)
    if num_classes < 2:
        raise ConfigError("need at least 2 classes")
    if co_graph.shape != (num_classes, num_classes):
        raise DataError(f"co_graph shape {co_graph.shape} does not match "
                        f"K={num_classes}")
    bad = np.flatnonzero(~(co_graph >= 0).all(axis=1))     # NaN fails too
    if bad.size:
        raise DataError(f"co_graph row {bad[0]} has a negative or NaN entry")
    row_sums = co_graph.sum(axis=1)
    bad = np.where(np.abs(row_sums - 1.0) > 1e-6)[0]
    if bad.size:
        raise DataError(f"co_graph row {bad[0]} sums to {row_sums[bad[0]]:.6f}, "
                        "expected 1")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    class_means = rng.normal(0.0, 1.0, (num_classes, d))
    if class_names is None:
        class_names = [f"action_{i:03d}" for i in range(num_classes)]

    tau_a = 1.0
    fps = 1.0
    tau_o = float(frames)
    records = []
    for ci in range(n_clips):
        seq = markov_sequence(co_graph, frames + 1, rng)
        noise_draw = rng.normal(0.0, noise, (frames, tokens, d))
        feats = (class_means[seq[:frames], None, :] + noise_draw).astype(np.float32)
        clip_id = f"clip_{ci:05d}"
        fpath = out_dir / f"{clip_id}.sgft"
        write_feature_file(fpath, feats)
        tau_s = tau_o + tau_a
        times = sample_observation_window(tau_s, tau_o, tau_a, fps)
        records.append(SegmentRecord(
            clip_id=clip_id,
            feature_path=fpath.name,
            start_time=tau_s,
            target_class=seq[frames],
            labels=[(times[t], seq[t]) for t in range(frames)],
        ))

    manifest = DatasetManifest(num_classes=num_classes, class_names=class_names,
                               tau_o=tau_o, tau_a=tau_a, fps=fps, records=records)
    manifest_path = out_dir / "manifest.jsonl"
    write_manifest(manifest_path, manifest)

    proto_path = out_dir / "language_prototypes.sglp"
    write_prototype_file(
        proto_path, language_prototypes_from_cooccurrence(co_graph, d))
    return manifest_path, proto_path


def load_clip_features(manifest_path, record: SegmentRecord) -> np.ndarray:
    """Resolve a record's feature file relative to its manifest and read it."""
    base = Path(manifest_path).parent
    path = Path(record.feature_path)
    if not path.is_absolute():
        path = base / path
    return read_feature_file(path)
