"""Span tracing from outside the program.

The benchmark wraps public callables of `rcfvis` at class or module level
for the duration of a traced pass.  Each call of a wrapped callable records
one span (name, start, end, parent) in memory; count-only targets bump a
counter instead.  Nothing inside `src/` knows about the tracer, so a traced
pass runs exactly the same arithmetic as an untraced one.

A layer's self time is the summed duration of its spans minus the part
covered by their direct child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Target:
    """One callable to wrap: `attr` is `func` or `Class.method` in `module`.

    `kind` is "span" (timed, nested) or "count" (call counter only).
    """

    module: str
    attr: str
    span: str
    kind: str = "span"


# Span name -> layer time metric.  Root spans (the entry points a pass calls)
# map to no layer; their self time is part of `unattributed_ms`.
TARGETS: tuple[Target, ...] = (
    Target("rcfvis.stream", "infer_frame", "stream.infer_frame"),
    Target("rcfvis.training", "train_loop", "training.train_loop"),
    Target("rcfvis.videonet", "Backbone.__call__", "videonet.backbone"),
    Target("rcfvis.videonet", "MaskFeatureDecoder.__call__", "videonet.mask_decoder"),
    Target("rcfvis.fusion", "TargetTokenizer.__call__", "fusion.tokenize"),
    Target("rcfvis.fusion", "ReferenceTokenizer.__call__", "fusion.tokenize"),
    Target("rcfvis.fusion", "AudioTokenizer.__call__", "fusion.tokenize"),
    Target("rcfvis.fusion", "FusionEncoder.__call__", "fusion.encoder"),
    Target("rcfvis.instance_head", "InstanceHead.decode", "instance_head.decode"),
    Target("rcfvis.instance_head", "InstanceHead.predict_class", "instance_head.decode"),
    Target("rcfvis.instance_head", "InstanceHead.dynamic_masks", "instance_head.decode"),
    Target("rcfvis.audiodsp", "log_mel", "audiodsp.audio"),
    Target("rcfvis.audiodsp", "AudioEncoder.__call__", "audiodsp.audio"),
    Target("rcfvis.stream", "postprocess", "stream.track"),
    Target("rcfvis.stream", "track_update", "stream.track"),
    Target("rcfvis.matching", "similarity_matrix", "matching.similarity"),
    Target("rcfvis.matching", "hungarian_assign", "matching.hungarian"),
    Target("rcfvis.training", "set_loss", "training.set_loss"),
    Target("rcfvis.tensor", "Tensor.backward", "tensor.backward"),
    Target("rcfvis.optim", "adamw_step", "optim.adamw"),
    Target("rcfvis.container", "write_container", "container.write"),
    Target("rcfvis.synthav", "read_clip", "synthav.read_clip"),
    Target("rcfvis._kernels", "conv2d_forward", "kernels.conv"),
    Target("rcfvis._kernels", "conv2d_grad_input", "kernels.conv"),
    Target("rcfvis._kernels", "conv2d_grad_weight", "kernels.conv"),
    Target("rcfvis.stream", "mask_iou", "stream.mask_iou", kind="count"),
    Target("rcfvis.matching", "dice_coeff", "matching.dice", kind="count"),
)

# Layers with a `<span>_ms` self-time metric, and the end-to-end figure each
# should move:
#   fusion.encoder, instance_head.decode: steps_per_s on stream_small (large
#     share), less on stream_hires, and on train_crowded
#   videonet.backbone, videonet.mask_decoder, kernels.conv: stream_hires and
#     train_crowded; small on stream_small.  kernels.conv spans nest inside
#     the others
#   audiodsp.audio, fusion.tokenize: a fixed cost per frame, visible on
#     stream_small, negligible on stream_hires
#   stream.track (postprocess + track_update): step_ms_p90 and steps_per_s on
#     stream_hires; light on stream_small
#   matching.*, training.set_loss, tensor.backward, optim.adamw: train_crowded
#     only; no change predicted for the stream workloads
#   container.write, synthav.read_clip: train_crowded and setup_s
LAYER_SPANS = (
    "fusion.encoder",
    "instance_head.decode",
    "videonet.backbone",
    "videonet.mask_decoder",
    "kernels.conv",
    "audiodsp.audio",
    "fusion.tokenize",
    "stream.track",
    "matching.similarity",
    "matching.hungarian",
    "training.set_loss",
    "tensor.backward",
    "optim.adamw",
    "container.write",
    "synthav.read_clip",
)

# count metric -> (counter it reads, span whose target feeds that counter)
COUNTED = {
    "videonet.backbone_calls": ("videonet.backbone", "videonet.backbone"),
    "kernels.conv_calls": ("kernels.conv", "kernels.conv"),
    "stream.mask_iou_calls": ("stream.mask_iou", "stream.mask_iou"),
    "matching.dice_calls": ("matching.dice", "matching.dice"),
    "tensor.tape_nodes": ("tensor.tape_nodes", "tensor.backward"),
}


def tape_size(root) -> int:
    """Number of tape nodes reachable from `root` through `_parents`."""
    seen = {id(root)}
    todo = [root]
    while todo:
        node = todo.pop()
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


@dataclass
class Tracer:
    """In-memory span recorder; spans are [name, start_ns, end_ns, parent].

    `counts` holds the calls of each span or count target, plus the tape
    nodes reachable from every tensor that `backward` was called on.
    """

    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)

    def wrap(self, target: Target, fn):
        name = target.span
        if target.kind == "count":

            def counted(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        tape = target.span == "tensor.backward"

        def spanned(*args, **kwargs):
            self.counts[name] += 1
            if tape:
                self.counts["tensor.tape_nodes"] += tape_size(args[0])
            rec = [name, 0, 0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                self._stack.pop()

        return spanned

    def self_times_ns(self) -> Counter:
        """Span name -> summed self time in ns."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out


def _resolve(target: Target):
    """(owner, attribute name, callable) or None when the callable is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, leaf, None)
    return (owner, leaf, fn) if callable(fn) else None


_ABSENT = object()


class installed:
    """Context manager that wraps every resolvable target with `tracer`.

    Module-level functions are also replaced wherever another `rcfvis`
    module bound them by name (`from .matching import similarity_matrix`).
    Targets that no longer exist are skipped.  Every patch is undone on exit.
    """

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.tracer = tracer
        self.targets = targets
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for target in self.targets:
            found = _resolve(target)
            if found is None:
                continue
            owner, leaf, fn = found
            wrapper = self.tracer.wrap(target, fn)
            holders = [(owner, leaf)]
            if not isinstance(owner, type):
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or not mod_name.startswith("rcfvis"):
                        continue
                    holders += [(mod, k) for k, v in vars(mod).items() if v is fn]
            for holder, key in holders:
                self._undo.append((holder, key, vars(holder).get(key, _ABSENT)))
                setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, key, original in reversed(self._undo):
            if original is _ABSENT:  # method inherited from a base class
                delattr(holder, key)
            else:
                setattr(holder, key, original)
        self._undo.clear()
        return False


def absent_metrics(targets=TARGETS) -> set[str]:
    """Layer metrics none of whose targets exist in the program any more."""
    present = {t.span for t in targets if _resolve(t) is not None}
    gone = {f"{span}_ms" for span in LAYER_SPANS if span not in present}
    return gone | {metric for metric, (_, span) in COUNTED.items() if span not in present}
