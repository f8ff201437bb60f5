"""Outside-in layer tracer for the sgear benchmark.

Nothing under ``src/`` knows about this module. While a ``Tracer`` is active
it replaces the public entry points of each sgear layer (module functions and
class methods) with timing wrappers, and puts the originals back on exit.
Spans stay in memory as ``[layer, name, parent, start, end]`` lists; a
layer's self time is its spans' durations minus the time covered by their
child spans.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import ExitStack, contextmanager

from sgear import autodiff, dataio, decoder, encoder, evaluate, pa, semantic, tca, trainer
from sgear.model import SgearModel

# (owner, attribute, layer). The model calls every entry point below through
# a module or class attribute, so replacing the attribute reaches every call.
TARGETS = [
    (encoder.PassthroughEncoder, "__call__", "encoder"),
    (encoder.FeatureAdapter, "__call__", "encoder"),
    (tca.TcaStack, "__call__", "tca"),
    (pa.PaBlock, "__call__", "pa"),
    (pa.PaBlock, "merge", "pa"),
    (decoder.CausalDecoder, "decode", "decoder"),
    (decoder.CausalDecoder, "rollout", "decoder"),
    (SgearModel, "step_logits", "semantic.head"),
    (semantic, "loss_sem", "semantic.losses"),
    (semantic, "loss_reg", "semantic.losses"),
    (semantic, "loss_cls", "semantic.losses"),
    (semantic, "loss_feat", "semantic.losses"),
    (semantic, "total_loss", "semantic.losses"),
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (autodiff, "grad_check", "autodiff.grad_check"),
    (trainer.AdamW, "step", "trainer.optimizer"),
    (trainer.Sgd, "step", "trainer.optimizer"),
    (trainer, "train_step", "trainer.step"),
    (trainer, "fit", "trainer.fit"),
    (trainer, "save_checkpoint", "trainer.checkpoint_save"),
    (trainer, "load_checkpoint", "trainer.checkpoint_load"),
    (trainer, "load_dataset", "dataio.load"),
    (dataio, "generate_synthetic_dataset", "dataio.synth"),
    (dataio, "read_feature_file", "dataio.feature_read"),
    (SgearModel, "total_loss", "model"),
    (SgearModel, "forward", "model"),
    (SgearModel, "predict", "model"),
    (SgearModel, "encode_merge", "model"),
    (SgearModel, "step_probs", "model"),
    (evaluate, "predict_dataset", "evaluate.sweep"),
    (evaluate, "eval_variable_tau", "evaluate.sweep"),
    (evaluate, "prototype_ratio_sweep", "evaluate.sweep"),
    (evaluate, "late_fuse", "evaluate.late_fuse"),
    (evaluate, "write_predictions", "evaluate.predictions_io"),
    (evaluate, "read_predictions", "evaluate.predictions_io"),
    (evaluate, "write_csv", "evaluate.predictions_io"),
    (evaluate, "topk_accuracy", "evaluate.metrics"),
    (evaluate, "class_mean_top5_recall", "evaluate.metrics"),
]

# Span names that mark one clip passing through the model.
CLIP_ENTRY_POINTS = ("total_loss", "predict")


@contextmanager
def patched(owner, attr, make):
    """Replace ``owner.attr`` with ``make(original)`` until the block exits."""
    original = vars(owner)[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def count_nodes(root) -> int:
    """Distinct tensors reachable from `root` through the autodiff graph."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for child in stack.pop()._prev:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return len(seen)


class Tracer:
    """Records a span per call into each layer while the context is open.

    With ``count_nodes=True`` it also walks the graph behind each clip's loss
    (``total_loss``) or output probabilities (``predict``); the walk is slow,
    so only an untimed counting pass turns it on.
    """

    def __init__(self, count_nodes=False):
        self.spans = []
        self.node_counts = []
        self._count_nodes = count_nodes
        self._stack = []
        self._last_probs = None
        self._patches = None

    def __enter__(self):
        with ExitStack() as patches:
            for owner, attr, layer in TARGETS:
                patches.enter_context(
                    patched(owner, attr, lambda fn, layer=layer: self._wrap(layer, fn)))
            self._patches = patches.pop_all()
        return self

    def __exit__(self, *exc):
        self._patches.close()
        return False

    def _wrap(self, layer, fn):
        spans, stack, name = self.spans, self._stack, fn.__name__
        after = self._node_hook(layer, name) if self._count_nodes else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _node_hook(self, layer, name):
        if layer == "model" and name == "total_loss":
            return lambda out: self.node_counts.append(count_nodes(out["loss"]))
        if layer == "model" and name == "predict":
            return lambda _: self.node_counts.append(count_nodes(self._last_probs))
        if name == "step_logits":
            return self._remember_probs
        return None

    def _remember_probs(self, result):
        self._last_probs = result[1]

    # -- summaries --------------------------------------------------------

    def layer_totals(self):
        """Per layer: (self seconds, call count)."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for (layer, _, _, start, end), inner in zip(self.spans, child):
            seconds, calls = totals.get(layer, (0.0, 0))
            totals[layer] = (seconds + (end - start) - inner, calls + 1)
        return totals

    def clips(self):
        """Clips the model processed: calls of its per-clip entry points."""
        return sum(1 for span in self.spans
                   if span[0] == "model" and span[1] in CLIP_ENTRY_POINTS)

    def covered_seconds(self):
        """Wall time inside any span, from the outermost spans."""
        return sum(end - start for _, _, parent, start, end in self.spans
                   if parent < 0)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
