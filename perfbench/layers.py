"""Per-layer metrics from the three tracers of a traced run.

Times are self times from the traced ops, per clip the model processed
(``SgearModel.total_loss`` or ``predict`` calls), per optimizer step or per
op. Call and node counts come from the single counting op, so they repeat
exactly from run to run. ``dataio.*`` and the checkpoint save come from the
traced set-up.
"""

from __future__ import annotations

UNITS = {
    "autodiff.backward_ms_per_clip": "ms",
    "autodiff.backward_calls_per_clip": "count",
    "autodiff.nodes_per_clip": "count",
    "autodiff.grad_check_self_ms_per_clip": "ms",
    "encoder.ms_per_clip": "ms",
    "encoder.calls_per_clip": "count",
    "tca.ms_per_clip": "ms",
    "tca.calls_per_clip": "count",
    "pa.ms_per_clip": "ms",
    "pa.calls_per_clip": "count",
    "decoder.ms_per_clip": "ms",
    "decoder.decode_calls_per_clip": "count",
    "semantic.head_ms_per_clip": "ms",
    "semantic.head_calls_per_clip": "count",
    "semantic.losses_ms_per_clip": "ms",
    "semantic.loss_calls_per_clip": "count",
    "model.self_ms_per_clip": "ms",
    "trainer.optimizer_ms_per_step": "ms",
    "trainer.optimizer_calls_per_clip": "count",
    "trainer.step_self_ms": "ms",
    "trainer.fit_self_ms_per_clip": "ms",
    "trainer.checkpoint_save_ms": "ms",
    "trainer.checkpoint_load_ms": "ms",
    "evaluate.sweep_self_ms_per_clip": "ms",
    "evaluate.late_fuse_ms": "ms",
    "evaluate.predictions_io_ms": "ms",
    "evaluate.metrics_ms": "ms",
    "evaluate.rollout_ms_p50": "ms",
    "dataio.synth_s": "s",
    "dataio.load_s": "s",
    "dataio.feature_reads": "count",
    "trace.coverage_share": "share",
    "tracing_overhead_share": "share",
}

# metric -> tracer layer, for the per-clip self times
PER_CLIP_MS = {
    "autodiff.backward_ms_per_clip": "autodiff.backward",
    "autodiff.grad_check_self_ms_per_clip": "autodiff.grad_check",
    "encoder.ms_per_clip": "encoder",
    "tca.ms_per_clip": "tca",
    "pa.ms_per_clip": "pa",
    "decoder.ms_per_clip": "decoder",
    "semantic.head_ms_per_clip": "semantic.head",
    "semantic.losses_ms_per_clip": "semantic.losses",
    "model.self_ms_per_clip": "model",
    "trainer.fit_self_ms_per_clip": "trainer.fit",
    "evaluate.sweep_self_ms_per_clip": "evaluate.sweep",
}

PER_CLIP_CALLS = {
    "autodiff.backward_calls_per_clip": "autodiff.backward",
    "encoder.calls_per_clip": "encoder",
    "tca.calls_per_clip": "tca",
    "pa.calls_per_clip": "pa",
    "semantic.head_calls_per_clip": "semantic.head",
    "semantic.loss_calls_per_clip": "semantic.losses",
    "trainer.optimizer_calls_per_clip": "trainer.optimizer",
}

PER_OP_MS = {
    "evaluate.late_fuse_ms": "evaluate.late_fuse",
    "evaluate.predictions_io_ms": "evaluate.predictions_io",
    "evaluate.metrics_ms": "evaluate.metrics",
}


def _per(value, count, scale=1.0):
    return value * scale / count if count else 0.0


def _seconds(totals, layer):
    return totals.get(layer, (0.0, 0))[0]


def _calls(totals, layer):
    return totals.get(layer, (0.0, 0))[1]


def _per_call(totals, layer, scale):
    return _per(_seconds(totals, layer), _calls(totals, layer), scale)


def layer_metrics(setup, counting, timed, traced_op_seconds):
    """All of UNITS except the two the runner adds itself."""
    times, clips = timed.layer_totals(), timed.clips()
    counts, count_clips = counting.layer_totals(), counting.clips()
    setup_totals = setup.layer_totals()
    ops = len(traced_op_seconds)

    metrics = {name: _per(_seconds(times, layer), clips, 1e3)
               for name, layer in PER_CLIP_MS.items()}
    metrics.update({name: _per(_calls(counts, layer), count_clips)
                    for name, layer in PER_CLIP_CALLS.items()})
    metrics.update({name: _per(_seconds(times, layer), ops, 1e3)
                    for name, layer in PER_OP_MS.items()})
    decodes = sum(1 for span in counting.spans if span[1] == "decode")
    metrics["decoder.decode_calls_per_clip"] = _per(decodes, count_clips)
    metrics["autodiff.nodes_per_clip"] = _per(sum(counting.node_counts),
                                              len(counting.node_counts))
    metrics["trainer.optimizer_ms_per_step"] = _per_call(times, "trainer.optimizer", 1e3)
    metrics["trainer.step_self_ms"] = _per_call(times, "trainer.step", 1e3)
    metrics["trainer.checkpoint_save_ms"] = _per_call(
        setup_totals, "trainer.checkpoint_save", 1e3)
    metrics["trainer.checkpoint_load_ms"] = _per_call(
        times, "trainer.checkpoint_load", 1e3)
    metrics["evaluate.rollout_ms_p50"] = 0.0     # eval replaces it
    metrics["dataio.synth_s"] = _seconds(setup_totals, "dataio.synth")
    metrics["dataio.load_s"] = (_seconds(setup_totals, "dataio.load")
                                + _seconds(setup_totals, "dataio.feature_read"))
    metrics["dataio.feature_reads"] = _calls(setup_totals, "dataio.feature_read")
    metrics["trace.coverage_share"] = timed.covered_seconds() / sum(traced_op_seconds)
    return metrics
