"""Command-line surface: synth / train / eval / ensemble / analyze.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import dataio, evaluate, semantic, trainer
from .encoder import EncoderConfig, FeatureAdapter
from .errors import ConfigError, DataError, EvalError, FormatError, NumericError
from .model import TABLE3_SETTINGS, ModelConfig, SgearModel
from .semantic import ProtoStore
from .trainer import fit, load_checkpoint, load_dataset, make_preset, save_checkpoint


def build_co_graph(kind, num_classes, within=0.9, n_blocks=2):
    """Convenience transition matrices for the synthetic task."""
    k = num_classes
    if kind == "uniform":
        return np.full((k, k), 1.0 / k)
    if kind == "blocks":
        graph = np.zeros((k, k))
        size = int(np.ceil(k / n_blocks))
        for i in range(k):
            block = i // size
            members = [j for j in range(k) if j // size == block]
            others = [j for j in range(k) if j // size != block]
            graph[i, members] = within / len(members)
            if others:
                graph[i, others] = (1.0 - within) / len(others)
            else:
                graph[i, members] += (1.0 - within) / len(members)
        return graph
    if kind == "chain":
        graph = np.full((k, k), (1.0 - within) / (k - 1))
        for i in range(k):
            graph[i, i] = 0.0
            graph[i, (i + 1) % k] = within
            rest = 1.0 - graph[i].sum() + graph[i, (i + 1) % k] - within
            graph[i, (i + 1) % k] += rest
        return graph
    raise ConfigError(f"unknown co-occurrence graph kind '{kind}'")


def _cmd_synth(args):
    graph = build_co_graph(args.graph, args.classes, within=args.within,
                           n_blocks=args.blocks)
    manifest, protos = dataio.generate_synthetic_dataset(
        args.out, args.classes, args.frames, args.dim, args.clips, graph,
        seed=args.seed, tokens=args.tokens)
    print(f"wrote {manifest}")
    print(f"wrote {protos}")
    return 0


def _model_config_for(manifest_path, manifest, clips, setting, args):
    if not clips:
        raise DataError(f"{manifest_path}: dataset has no clips")
    _, tokens, d = clips[0][0].shape
    toggles = TABLE3_SETTINGS[setting]
    mode = "passthrough" if tokens > 1 else "adapter"
    if toggles.tca and tokens == 1:
        raise ConfigError(
            "single-token features cannot feed temporal aggregation; pick a "
            "setting without tca (or regenerate data with more tokens)")
    return ModelConfig(
        num_classes=manifest.num_classes,
        frames=manifest.frames_per_clip,
        d=d,
        encoder=EncoderConfig(mode=mode, d=d),
        toggles=toggles,
        subset_ratio=args.ratio,
        seed=args.seed,
    )


def _build_stores(args, manifest, clips, config):
    language_store = None
    if args.prototypes:
        language_store = ProtoStore.load(args.prototypes, kind="language",
                                         class_names=manifest.class_names)
        if language_store.tensor.shape != (config.num_classes, config.d):
            raise DataError(
                f"{args.prototypes}: {language_store.num_classes} prototypes of "
                f"d={language_store.d}, but the dataset has "
                f"{config.num_classes} classes of d={config.d}")
    needs = (config.toggles.pa or config.toggles.sem
             or config.toggles.use_language_as_visual)
    visual_store = None
    if needs and not config.toggles.use_language_as_visual:
        if args.proto_init == "random":
            visual_store = semantic.init_visual_prototypes(
                "random", config.num_classes, config.d, seed=args.seed,
                class_names=manifest.class_names)
        else:
            if args.proto_init == "recognition-mean":
                if config.encoder.mode == "adapter":
                    raise ConfigError(
                        "--proto-init recognition-mean needs multi-token "
                        "features: on single-token features the recognition "
                        "model's adapter has no prototype statistics; use "
                        "class-mean or random")
                embeddings, labels = trainer.recognition_embeddings(
                    config, clips, make_preset("desk"),
                    language_store=language_store)
            else:  # class-mean: token-0 features averaged by frame label
                embeddings, labels = [], []
                for feats, target, past_labels in clips:
                    for t, lbl in enumerate(past_labels or []):
                        if lbl is not None:
                            embeddings.append(feats[t, 0])
                            labels.append(lbl)
            visual_store = semantic.init_visual_prototypes(
                args.proto_init, config.num_classes, config.d, seed=args.seed,
                embeddings=embeddings, labels=labels,
                class_names=manifest.class_names)
        for warning in visual_store.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    return visual_store, language_store


def _cmd_train(args):
    manifest, clips = load_dataset(args.manifest)
    config = _model_config_for(args.manifest, manifest, clips, args.setting,
                               args)
    train_config = make_preset(args.preset)
    if args.epochs is not None:
        train_config.epochs = args.epochs
        train_config.warmup_epochs = min(train_config.warmup_epochs, args.epochs)
    if args.lr is not None:
        train_config.lr = args.lr
    if args.batch_size is not None:
        train_config.batch_size = args.batch_size
    train_config.seed = args.seed

    visual_store, language_store = _build_stores(args, manifest, clips, config)
    model = SgearModel(config, visual_store=visual_store,
                       language_store=language_store)
    if isinstance(model.encoder, FeatureAdapter):
        source = model.visual_store or language_store
        if source is None:
            raise ConfigError("adapter mode needs a prototype store for its "
                              "normalization statistics")
        model.encoder.set_prototype_stats(
            *FeatureAdapter.stats_from_prototypes(source.tensor.data))
        if model.visual_store is not None:
            model.visual_store.freeze()   # pre-extracted-feature fine-tuning

    history, optimizer = fit(model, clips, train_config,
                             log_every=args.log_every)
    save_checkpoint(args.checkpoint, model, optimizer,
                    step=history[-1]["step"] + 1 if history else 0)
    final = history[-1] if history else {}
    parts = " ".join(f"{k}={v:.4f}" for k, v in final.items() if k != "step")
    print(f"trained {len(history)} steps; final {parts}")
    print(f"wrote {args.checkpoint}")
    return 0


METRICS = {
    "top1": lambda preds: evaluate.topk_accuracy(preds, 1),
    "top5": lambda preds: evaluate.topk_accuracy(preds, 5),
    "recall5": evaluate.class_mean_top5_recall,
}


def _metric_rows(preds, metric_names):
    return [{"metric": name, "value": METRICS[name](preds)}
            for name in metric_names]


def _check_compatible(config: ModelConfig, manifest, clips):
    """Raise DataError naming both sides when a checkpoint's model cannot
    take the dataset's clips."""
    if not clips:
        raise DataError("dataset has no clips")
    _, tokens, d = clips[0][0].shape
    pairs = [("classes", config.num_classes, manifest.num_classes),
             ("frames per clip", config.frames, manifest.frames_per_clip),
             ("feature dim d", config.d, d)]
    if config.encoder.mode == "adapter":
        pairs.append(("tokens per frame (adapter mode)", 1, tokens))
    for what, model_side, data_side in pairs:
        if model_side != data_side:
            raise DataError(f"checkpoint has {what} {model_side}, dataset has "
                            f"{data_side}")


def _cmd_eval(args):
    model, _, _ = load_checkpoint(args.checkpoint)
    manifest, clips = load_dataset(args.manifest)
    _check_compatible(model.config, manifest, clips)
    for tau in args.tau or ():          # before any prediction is made
        evaluate.rollout_steps(model, manifest, tau)
    clip_ids = [rec.clip_id for rec in manifest.records]
    preds = evaluate.predict_dataset(model, clips, clip_ids)
    rows = _metric_rows(preds, args.metrics)
    for row in rows:
        print(f"{row['metric']}: {row['value']:.4f}")
    if args.csv_out:
        evaluate.write_csv(args.csv_out, rows)
    if args.predictions_out:
        evaluate.write_predictions(args.predictions_out, preds)
    if args.tau:
        tau_rows = evaluate.eval_variable_tau(model, manifest, clips, args.tau,
                                              clip_ids)
        for row in tau_rows:
            print(f"tau_a={row['tau_a']}: metric={row['metric']:.4f} "
                  f"(rollout {row['n_steps']} steps)")
        if args.csv_out:
            evaluate.write_csv(Path(args.csv_out).with_suffix(".tau.csv"),
                               tau_rows)
    if args.ratios:
        ratio_rows = evaluate.prototype_ratio_sweep(model, clips, args.ratios,
                                                    clip_ids)
        for row in ratio_rows:
            print(f"ratio={row['ratio']}: metric={row['metric']:.4f} "
                  f"({row['comparisons']} comparisons)")
        if args.csv_out:
            evaluate.write_csv(Path(args.csv_out).with_suffix(".ratio.csv"),
                               ratio_rows)
    return 0


def _cmd_ensemble(args):
    n_sets = len(args.inputs)
    if args.preset:
        weights = evaluate.ENSEMBLE_PRESETS[args.preset][:n_sets]
    else:
        weights = args.weights or [1.0] * n_sets
    if len(weights) != n_sets:
        raise ConfigError(f"{n_sets} inputs but {len(weights)} weights")
    if not (all(math.isfinite(w) and w >= 0 for w in weights)
            and sum(weights) > 0):
        raise ConfigError(f"weights must be finite and non-negative with a "
                          f"positive sum, got {weights}")
    sets = [evaluate.read_predictions(p) for p in args.inputs]
    fused = evaluate.late_fuse(list(zip(sets, weights)))
    evaluate.write_predictions(args.out, fused)
    print(f"fused {len(sets)} sets -> {args.out}")
    print(f"top1: {evaluate.topk_accuracy(fused, 1):.4f}")
    return 0


def _cmd_analyze(args):
    model, _, _ = load_checkpoint(args.checkpoint)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stores = {}
    if model.visual_store is not None:
        stores["visual"] = model.visual_store
    if model.language_store is not None:
        stores["language"] = model.language_store
    if not stores:
        raise ConfigError("checkpoint holds no prototype stores to analyze")
    for name, store in stores.items():
        sims = semantic.similarity_matrix(store)
        rows = [{"class": i, **{f"c{j}": sims[i, j]
                                for j in range(sims.shape[1])}}
                for i in range(sims.shape[0])]
        evaluate.write_csv(out_dir / f"{name}_similarity.csv", rows)
        near = []
        for ref in range(store.num_classes):
            for rank, (idx, label, sim) in enumerate(
                    semantic.nearest_actions(ref, store, n=args.top)):
                near.append({"reference": ref, "rank": rank, "class": idx,
                             "name": label, "cosine": sim})
        evaluate.write_csv(out_dir / f"{name}_nearest.csv", near)
    if len(stores) == 2:
        score = semantic.alignment_score(stores["visual"], stores["language"])
        (out_dir / "alignment.txt").write_text(f"{score:.6f}\n")
        print(f"alignment score: {score:.6f}")
    print(f"wrote analysis to {out_dir}")
    return 0


def _checked(convert, ok, need):
    """argparse type: `convert`, then exit 2 unless the value is `need`."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value
    parse.__name__ = convert.__name__      # argparse's "invalid int value"
    return parse


COUNT = _checked(int, lambda v: v >= 1, "at least 1")
NON_NEGATIVE = _checked(int, lambda v: v >= 0, "at least 0")
CLASSES = _checked(int, lambda v: v >= 2, "at least 2")
FINITE = _checked(float, math.isfinite, "finite")
POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0,
                    "finite and above 0")
SHARE = _checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
RATIO = _checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")


def build_parser():
    parser = argparse.ArgumentParser(prog="sgear")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=CLASSES, default=12)
    p.add_argument("--frames", type=COUNT, default=8)
    p.add_argument("--dim", type=COUNT, default=16)
    p.add_argument("--clips", type=COUNT, default=200)
    p.add_argument("--tokens", type=COUNT, default=2)
    p.add_argument("--seed", type=NON_NEGATIVE, default=0)
    p.add_argument("--graph", choices=["uniform", "blocks", "chain"],
                   default="blocks")
    p.add_argument("--blocks", type=COUNT, default=2)
    p.add_argument("--within", type=SHARE, default=0.9)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model on a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--prototypes", help="language prototype file (.sglp)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--preset", default="desk",
                   choices=["ek100", "ek55", "eg", "50s", "desk"])
    p.add_argument("--setting", default="full",
                   choices=sorted(TABLE3_SETTINGS))
    p.add_argument("--proto-init", default="class-mean",
                   choices=["random", "class-mean", "recognition-mean"])
    p.add_argument("--epochs", type=COUNT)
    p.add_argument("--lr", type=POSITIVE)
    p.add_argument("--batch-size", type=COUNT)
    p.add_argument("--ratio", type=RATIO, default=1.0)
    p.add_argument("--seed", type=NON_NEGATIVE, default=0)
    p.add_argument("--log-every", type=NON_NEGATIVE, default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--metrics", nargs="+", choices=list(METRICS),
                   default=list(METRICS))
    p.add_argument("--tau", type=FINITE, nargs="*")
    p.add_argument("--ratios", type=RATIO, nargs="*")
    p.add_argument("--csv-out")
    p.add_argument("--predictions-out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ensemble", help="late-fuse prediction files")
    p.add_argument("--inputs", nargs="+", required=True)
    weighting = p.add_mutually_exclusive_group()
    weighting.add_argument("--weights", type=float, nargs="+")
    weighting.add_argument("--preset", choices=sorted(evaluate.ENSEMBLE_PRESETS))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("analyze", help="prototype geometry reports")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--top", type=COUNT, default=5)
    p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:    # argparse printed usage (exit 2) or help (0)
        return exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FormatError, EvalError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:       # missing file, a directory, ...; names the path
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
