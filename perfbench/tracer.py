"""Span tracer that times the program's layers from outside.

Nothing under ``src/`` knows about this module.  :func:`installed`
replaces the public functions and methods listed in :data:`LAYERS` with
wrappers that open a span around each call and restores the originals on
exit, so an untraced run executes the program's own code objects and
nothing else.

A span is ``(name, start, end, parent, trace_id)``: ``parent`` is the
index of the enclosing span (``-1`` at the top) and ``trace_id`` is the
repetition the span belongs to.  Spans stay in memory until
:meth:`Tracer.write_spans`.  A layer's self time is its span's duration
minus the time its child spans cover; the program is single-threaded, so
children never overlap and the subtraction is exact.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional


class Tracer:
    """In-memory span recorder with per-layer self time and counters."""

    def __init__(self) -> None:
        self.spans: list = []
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.trace_id = 0
        self._stack: list = []  # [span index, name, time covered by children]

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        frame = [index, name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            self.spans[index] = (name, start, end, parent, self.trace_id)
            self.self_time[name] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration

    def inside(self, name: str) -> bool:
        """Whether the current call runs inside an open span called ``name``."""
        return any(frame[1] == name for frame in self._stack)

    def reset_totals(self) -> None:
        """Start a new repetition's totals (spans are kept)."""
        self.self_time = defaultdict(float)
        self.counts = Counter()

    def write_spans(self, path) -> None:
        """Write every recorded span as one JSON line each."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, trace_id in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "trace": trace_id,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


# -- counters observed at the wrapped boundaries ---------------------------
# An observer gets (counts, token, result, args, kwargs), where ``token`` is
# what the layer's ``before`` hook returned, called as (tracer, args) just
# before the wrapped call (None when the layer has no hook).


def _count_grad_calls(counts, token, result, args, kwargs):
    counts["nn.grad_calls"] += 1


def _count_reconstructions(counts, token, result, args, kwargs):
    counts["attacks.reconstructions"] += sum(
        event["num_reconstructions"] for event in result
    )


def _count_expanded(counts, token, result, args, kwargs):
    if not token:  # only the outermost defense of a pipeline counts
        counts["defense.expanded_images"] += len(result[0])


def _count_scored(counts, token, result, args, kwargs):
    counts["metrics.scored"] += len(result)


def _materialized_before(tracer, args):
    return args[0].materialized_count


def _nested_defense(tracer, args):
    return tracer.inside("defense.process_batch")


def _count_materialized(counts, token, result, args, kwargs):
    counts["fl.fleet.materialized"] += args[0].materialized_count - token


def _count_plan(counts, token, result, args, kwargs):
    counts["fl.arrivals.dispatched"] += len(result.dispatched)
    counts["fl.arrivals.unavailable"] += len(result.unavailable)


def _count_ledger(counts, token, result, args, kwargs):
    counts["fl.engine.fresh"] += len(result.fresh)
    counts["fl.engine.late"] += len(result.straggler_ids)


def _count_survivors(counts, token, result, args, kwargs):
    metadata = args[0].last_metadata
    counts["fl.secagg.survivors"] += metadata["survivors"]
    counts["fl.secagg.committed"] += metadata["committed"]


def _count_outcome(counts, token, result, args, kwargs):
    counts["sweep.cells_cached"] += len(result.cached)
    counts["sweep.cells_computed"] += len(result.computed)


# (module, attribute path, span name or None for count-only, observer)
LAYERS: tuple = (
    ("repro.fl.gradients", "compute_batch_gradients", "nn.grad", _count_grad_calls),
    ("repro.fl.simulator", "FederatedSimulation.__init__", "fl.simulator.build", None),
    ("repro.experiments.sweep", "make_attack", "attacks.make", None),
    ("repro.fl.server", "DishonestServer.prepare_broadcast", "attacks.craft", None),
    ("repro.fl.server", "DishonestServer.broadcast_to", "attacks.craft", None),
    ("repro.fl.server", "DishonestServer.inspect_updates", "attacks.reconstruct", _count_reconstructions),
    ("repro.fl.server", "DishonestServer.inspect_aggregate", "attacks.reconstruct", _count_reconstructions),
    ("repro.defense.base", "ClientDefense.process_batch", "defense.process_batch", _count_expanded),
    ("repro.defense.oasis", "OasisDefense.process_batch", "defense.process_batch", _count_expanded),
    ("repro.defense.baselines", "TransformReplaceDefense.process_batch", "defense.process_batch", _count_expanded),
    ("repro.defense.tabular", "TabularOasisDefense.process_batch", "defense.process_batch", _count_expanded),
    ("repro.defense.pipeline", "DefensePipeline.process_batch", "defense.process_batch", _count_expanded),
    ("repro.experiments.sweep", "match_reconstructions", "metrics.match", _count_scored),
    ("repro.fl.client", "Client.local_update", "fl.client.update", None),
    ("repro.fl.fleet", "Fleet.get", "fl.fleet.materialize", _count_materialized),
    ("repro.fl.arrivals", "InstantArrivals.plan_round", "fl.arrivals.plan", _count_plan),
    ("repro.fl.arrivals", "UniformArrivals.plan_round", "fl.arrivals.plan", _count_plan),
    ("repro.fl.arrivals", "TieredArrivals.plan_round", "fl.arrivals.plan", _count_plan),
    ("repro.fl.engine", "RoundEngine.run_round", "fl.engine.loop", _count_ledger),
    ("repro.fl.server", "Server.select_client_ids", "fl.server.select", None),
    ("repro.fl.server", "Server.apply_aggregate", "fl.server.apply", None),
    ("repro.fl.aggregators", "RoundBuffer.add", "fl.aggregators.ingest", None),
    ("repro.fl.aggregators", "Aggregator.aggregate_buffer", "fl.aggregators.reduce", None),
    ("repro.fl.secagg.aggregators", "ProtocolAggregator.aggregate_committed", "fl.secagg.round", _count_survivors),
    ("repro.fl.secagg.protocol", "SecAggProtocol.begin", "fl.secagg.setup", None),
    ("repro.fl.secagg.protocol", "SecAggRound.masked_upload", "fl.secagg.mask", None),
    ("repro.fl.secagg.protocol", "SecAggRound.recover_sum", "fl.secagg.recover", None),
    ("repro.experiments.sweep", "SweepStore.__init__", "sweep.store_open", None),
    ("repro.experiments.sweep", "SweepRunner.store_key", "sweep.store_key", None),
    ("repro.experiments.sweep", "SweepStore.get", "sweep.store_get", None),
    ("repro.experiments.sweep", "SweepStore.put", "sweep.store_append", None),
    ("repro.experiments.sweep", "SweepStore.update", "sweep.store_append", None),
    ("repro.experiments.sweep", "SweepStore.compact", "sweep.store_compact", None),
    ("repro.experiments.sweep", "SweepRunner.run", None, _count_outcome),
)

# Layers whose observer needs state from before the call.
_BEFORE: dict = {
    "fl.fleet.materialize": _materialized_before,
    "defense.process_batch": _nested_defense,
}

# Every layer that owns time, in report order.
LAYER_NAMES: tuple = tuple(
    dict.fromkeys(span for _, _, span, _ in LAYERS if span is not None)
)


def _wrap(tracer: Tracer, span: Optional[str], original, observe):
    before = _BEFORE.get(span)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        token = None if before is None else before(tracer, args)
        if span is None:
            result = original(*args, **kwargs)
        else:
            result = tracer.call(span, original, args, kwargs)
        if observe is not None:
            observe(tracer.counts, token, result, args, kwargs)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Wrap every :data:`LAYERS` entry for the duration of the block."""
    patched = []
    try:
        for module_name, path, span, observe in LAYERS:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            # A class's own __dict__ entry, so an inherited method is wrapped
            # where it is defined and restored exactly.
            original = (
                owner.__dict__[attribute]
                if isinstance(owner, type)
                else getattr(owner, attribute)
            )
            setattr(owner, attribute, _wrap(tracer, span, original, observe))
            patched.append((owner, attribute, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)
