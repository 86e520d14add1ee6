"""Span tracing for the benchmark's traced run.

The traced run rebinds the public names that callers look up (for
example ``scaleloc.proposal.rasterize`` or ``ProposalModel.forward``) to
wrappers that record one span per call, and restores them afterwards.
Nothing under ``src/`` changes. Spans stay in memory as
``(id, name, start, end, parent, op)`` records; ``op`` is the index of
the benchmark operation the span belongs to, shared by all its spans.

A span's self time is its duration minus the part of its interval that
its child spans cover. Per-layer metrics are self times and counts per
operation; byte counts are computed from array sizes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

ROOT = "bench.op"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    op: int


class Tracer:
    """In-memory span recorder plus per-layer counters."""

    def __init__(self):
        self._records: list[list] = []  # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.op = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.rendered: set = set()

    @contextmanager
    def span(self, name: str):
        sid = len(self._records)
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._records.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        """A stand-in for ``fn`` that records a span per call and, on
        success, lets ``counter(tracer, args, kwargs, result)`` add to
        ``tracer.counts``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def spans(self) -> list[Span]:
        return [Span(i, *rec) for i, rec in enumerate(self._records)]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    clipped to it."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo = max(c.start, cursor)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def write_spans(path, spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s.__dict__) + "\n")


# ---------------------------------------------------------------------------
# The layers: which names are rebound, and what each one counts.


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_rasterize(tracer, args, kwargs, result):
    scene = _arg(args, kwargs, 0, "scene")
    key = (scene.id, scene.seed)
    if key in tracer.rendered:
        tracer.counts["scenegen.rasterize.repeats"] += 1
    tracer.rendered.add(key)


def _count_pyramid(tracer, args, kwargs, result):
    tracer.counts["featpyr.build_pyramid.out_bytes"] += sum(
        g.nbytes for g in result.grids.values()
    )


def _count_roi_pool_many(tracer, args, kwargs, result):
    tracer.counts["featpyr.roi_pool_many.boxes"] += result.shape[0]
    tracer.counts["featpyr.roi_pool_many.out_bytes"] += result.nbytes


def _count_labels(tracer, args, kwargs, result):
    labels = result[0]
    tracer.counts["anchors.label_arrays.positives"] += int((labels == 1).sum())
    tracer.counts["anchors.label_arrays.anchors"] += labels.shape[0]


def _count_sampler(tracer, args, kwargs, result):
    if _arg(args, kwargs, 1, "scores") is None:
        return
    labels = _arg(args, kwargs, 0, "labels")
    # Only the scored pool is still labelled negative when scores are given.
    tracer.counts["anchors.sample_minibatch_indices.neg_scored"] += int((labels == 0).sum())
    tracer.counts["anchors.sample_minibatch_indices.neg_kept"] += len(result[1])


def _count_forward(tracer, args, kwargs, result):
    tracer.counts["proposal.ProposalModel.forward.rows"] += result[0].shape[0]


def _count_observe(tracer, args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    layer_id = _arg(args, kwargs, 1, "layer_id")
    tracer.counts["policy.observe.weight_bytes"] += params.theta_o(layer_id).nbytes


def _count_backward(tracer, args, kwargs, result):
    tracer.counts["policy.episode_backward.steps"] += len(_arg(args, kwargs, 1, "steps"))
    tracer.counts["policy.episode_backward.grad_bytes"] += sum(g.nbytes for g in result.values())


# layer name -> (names callers look it up by, counter)
LAYERS = {
    "scenegen.rasterize": (("scenegen.rasterize", "proposal.rasterize"), _count_rasterize),
    "featpyr.build_pyramid": (("featpyr.build_pyramid",), _count_pyramid),
    "featpyr.roi_pool_many": (
        ("featpyr.roi_pool_many", "proposal.roi_pool_many"),
        _count_roi_pool_many,
    ),
    "featpyr.roi_pool": (("featpyr.roi_pool",), None),
    "anchors.generate_anchors": (("anchors.generate_anchors",), None),
    "anchors.label_arrays": (("anchors.label_arrays",), _count_labels),
    "anchors.sample_minibatch_indices": (
        ("anchors.sample_minibatch_indices", "proposal.sample_minibatch_indices"),
        _count_sampler,
    ),
    "proposal.train_proposal_model": (("proposal.train_proposal_model",), None),
    "proposal.proposal_loss_and_grad": (("proposal.proposal_loss_and_grad",), None),
    "proposal.ProposalModel.forward": (("proposal.ProposalModel.forward",), _count_forward),
    "proposal.score_proposals": (("proposal.score_proposals",), None),
    "proposal.top_k": (("proposal.top_k",), None),
    "policy.observe": (("policy.observe",), _count_observe),
    "policy.recur": (("policy.recur",), None),
    "policy.action_distribution": (("policy.action_distribution",), None),
    "policy.sample_action": (("policy.sample_action",), None),
    "policy.episode_backward": (("policy.episode_backward",), _count_backward),
    "geometry.apply_transform": (("geometry.apply_transform",), None),
    "geometry.clip": (("geometry.clip",), None),
}


def _owner(path: str):
    """(object, attribute) for a dotted name under ``scaleloc``."""
    module, *attrs = path.split(".")
    owner = importlib.import_module(f"scaleloc.{module}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return owner, attrs[-1]


@contextmanager
def traced(tracer: Tracer):
    """Rebind every layer's public names to span-recording wrappers."""
    saved = []
    try:
        for layer, (paths, counter) in LAYERS.items():
            owners = [_owner(p) for p in paths]
            original = getattr(*owners[0])
            wrapper = tracer.wrap(layer, original, counter)
            for owner, attr in owners:
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{layer}: {owner.__name__}.{attr} is not the same function")
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics

PER_OP = "calls/op"
MS_OP = "ms/op"
BYTES_OP = "B/op-computed"
FRAC = "frac"

# metric name -> unit, in the order they are reported
PER_LAYER_METRICS = {
    "scenegen.rasterize.calls": PER_OP,
    "scenegen.rasterize.self_ms": MS_OP,
    "scenegen.rasterize.repeat_frac": FRAC,
    "featpyr.build_pyramid.calls": PER_OP,
    "featpyr.build_pyramid.self_ms": MS_OP,
    "featpyr.build_pyramid.out_bytes": BYTES_OP,
    "featpyr.roi_pool_many.calls": PER_OP,
    "featpyr.roi_pool_many.boxes": "boxes/op",
    "featpyr.roi_pool_many.self_ms": MS_OP,
    "featpyr.roi_pool_many.out_bytes": BYTES_OP,
    "featpyr.roi_pool.calls": PER_OP,
    "featpyr.roi_pool.self_ms": MS_OP,
    "anchors.generate_anchors.calls": PER_OP,
    "anchors.generate_anchors.self_ms": MS_OP,
    "anchors.label_arrays.calls": PER_OP,
    "anchors.label_arrays.self_ms": MS_OP,
    "anchors.label_arrays.pos_frac": FRAC,
    "anchors.sample_minibatch_indices.calls": PER_OP,
    "anchors.sample_minibatch_indices.self_ms": MS_OP,
    "anchors.sample_minibatch_indices.neg_kept_frac": FRAC,
    "proposal.train_proposal_model.self_ms": MS_OP,
    "proposal.proposal_loss_and_grad.calls": PER_OP,
    "proposal.proposal_loss_and_grad.self_ms": MS_OP,
    "proposal.ProposalModel.forward.calls": PER_OP,
    "proposal.ProposalModel.forward.rows": "rows/op",
    "proposal.ProposalModel.forward.self_ms": MS_OP,
    "proposal.score_proposals.self_ms": MS_OP,
    "proposal.top_k.self_ms": MS_OP,
    "policy.observe.calls": PER_OP,
    "policy.observe.self_ms": MS_OP,
    "policy.observe.weight_bytes": BYTES_OP,
    "policy.recur.self_ms": MS_OP,
    "policy.action_distribution.self_ms": MS_OP,
    "policy.sample_action.self_ms": MS_OP,
    "policy.episode_backward.calls": PER_OP,
    "policy.episode_backward.steps": "steps/op",
    "policy.episode_backward.self_ms": MS_OP,
    "policy.episode_backward.grad_bytes": BYTES_OP,
    "geometry.apply_transform.self_ms": MS_OP,
    "geometry.clip.self_ms": MS_OP,
    "bench.gap_ms": MS_OP,
    "bench.gap_frac": FRAC,
    "bench.trace_overhead_frac": FRAC,
}

# fraction metric -> (numerator count, denominator count)
_RATIOS = {
    "scenegen.rasterize.repeat_frac": ("scenegen.rasterize.repeats", "scenegen.rasterize.calls"),
    "anchors.label_arrays.pos_frac": ("anchors.label_arrays.positives", "anchors.label_arrays.anchors"),
    "anchors.sample_minibatch_indices.neg_kept_frac": (
        "anchors.sample_minibatch_indices.neg_kept",
        "anchors.sample_minibatch_indices.neg_scored",
    ),
}


def layer_metrics(spans: list[Span], counts: dict[str, float], n_ops: int) -> dict[str, float]:
    """Per-operation layer metrics from the spans and counters of a traced
    run of ``n_ops`` operations. Layers never called report 0.

    ``bench.gap_ms`` is the time per operation that no layer span
    covers, the self time of the root spans; ``bench.gap_frac`` is that
    time over the root spans' total duration.
    """
    totals: dict[str, float] = defaultdict(float, counts)
    root_time = 0.0
    for span, self_s in zip(spans, self_times(spans)):
        totals[f"{span.name}.calls"] += 1
        totals[f"{span.name}.self_ms"] += self_s * 1e3
        if span.name == ROOT:
            root_time += span.end - span.start
    out = {}
    for name, unit in PER_LAYER_METRICS.items():
        if name in _RATIOS:
            num, den = _RATIOS[name]
            out[name] = totals[num] / totals[den] if totals[den] else 0.0
        elif unit != FRAC:
            out[name] = totals[name] / n_ops if n_ops else 0.0
    gap_s = totals[f"{ROOT}.self_ms"] / 1e3
    out["bench.gap_ms"] = gap_s * 1e3 / n_ops if n_ops else 0.0
    out["bench.gap_frac"] = gap_s / root_time if root_time else 0.0
    return out
