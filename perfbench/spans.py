"""Spans around lineworld's public functions, recorded from the benchmark.

`Tracer.installed()` replaces each function in `TARGETS` at the name its
caller looks it up (a module global such as `analysis.step_interval`, or a
method on `OverlayGraph`) with a wrapper that records a span.  Spans stay in
memory: per name and per (parent, name) path as call counts, total and self
time, and as raw start/end records for the two outermost levels (the
benchmark's own task spans and the first program call under each).  Self
time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext

from lineworld import analysis, dynamics, harness, overlay, routing


def _accepted(out) -> Counter:
    return Counter(redirects_asked=1, redirects_accepted=out is not None)


def _parts(out) -> Counter:
    return Counter(split_parts=len(out))


# (span name, owner, attribute, counter of the result or None).  The span
# name's prefix is the layer; `linkgen.sample_line_links` is wrapped where
# dynamics calls it.
TARGETS = [
    ("harness.run_experiment", harness, "run_experiment", None),
    ("harness.build_by_joins", harness, "build_by_joins", None),
    ("linkgen.sample_line_links", dynamics, "sample_line_links", None),
    ("overlay.build", overlay, "build", None),
    ("overlay.build_binomial_presence", overlay, "build_binomial_presence", None),
    ("overlay.apply_node_failures", overlay, "apply_node_failures", None),
    ("overlay.apply_link_failures", overlay, "apply_link_failures", None),
    ("overlay.neighbors", overlay.OverlayGraph, "neighbors", None),
    ("overlay.in_neighbors", overlay.OverlayGraph, "in_neighbors", None),
    ("overlay.live_sorted", overlay.OverlayGraph, "live_sorted", None),
    ("routing.route", routing, "route", None),
    ("routing.greedy_step", routing, "greedy_step", None),
    ("dynamics.join", dynamics, "join", None),
    ("dynamics.leave", dynamics, "leave", None),
    ("dynamics.replacement_decision", dynamics, "replacement_decision", _accepted),
    ("analysis.chain_equivalence_tv", analysis, "chain_equivalence_tv", None),
    ("analysis.step_interval", analysis, "step_interval", None),
    ("analysis.split_interval", analysis, "split_interval", _parts),
]

LAYERS = ("harness", "linkgen", "overlay", "routing", "dynamics", "analysis")

ROOTS = ("task", "growth")  # the benchmark's own spans; their self time is not the program's


class NoTrace:
    """Stand-in for an untraced pass."""

    def root(self, name: str):
        return nullcontext()


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.paths: dict[tuple[str, str], list] = {}  # (parent, name) -> same
        self.spans: list[tuple[str, str | None, float, float]] = []
        self.counts: Counter = Counter()

    def _open(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][1] += duration
        if len(stack) <= 1:
            self.spans.append((frame[0], parent, start, end))
        for table, key in ((self.stats, frame[0]), (self.paths, (parent, frame[0]))):
            rec = table.setdefault(key, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += duration
            rec[2] += duration - frame[1]

    @contextmanager
    def root(self, name: str):
        frame = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, time.perf_counter())

    def _wrap(self, name: str, fn, count):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = self._open(name)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(frame, start, clock())
            if count is not None:
                self.counts.update(count(out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for name, owner, attr, count in TARGETS:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, count))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.stats.items():
            if name not in ROOTS:
                out[name.split(".", 1)[0]] += self_s
        return out

    def dump(self) -> dict:
        return {
            "stats": {k: dict(zip(("calls", "total_s", "self_s"), v))
                      for k, v in sorted(self.stats.items())},
            "paths": [{"parent": p, "name": n, "calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for (p, n), v in sorted(self.paths.items(), key=lambda kv: str(kv[0]))],
            "counts": dict(self.counts),
            "spans": [{"name": n, "parent": p, "start": s, "end": e}
                      for n, p, s, e in self.spans],
        }


def layer_metrics(tracer: Tracer, outcomes, traced_wall_s: float,
                  untraced_wall_s: float) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}, and
    the names that no call measured.  A call count of 0 is a measurement; a
    time or ratio with no call behind it is not, and carries 0 only because
    the result format needs a number."""
    metrics: dict[str, tuple[float, str]] = {}
    unmeasured: list[str] = []

    def put(name, value, unit, measured=True):
        metrics[name] = (value, unit)
        if not measured:
            unmeasured.append(name)

    layer_self = tracer.layer_self_s()
    layer_calls = Counter()
    for name, (calls, _, _) in tracer.stats.items():
        layer_calls[name.split(".", 1)[0]] += calls
    program_s = sum(layer_self.values())
    put("harness.tasks", tracer.calls("task"), "count")
    for layer in LAYERS:
        measured = layer_calls[layer] > 0
        put(f"{layer}.self_s", layer_self[layer], "s", measured)
        put(f"{layer}.self_frac", layer_self[layer] / program_s if program_s else 0.0,
            "ratio", measured)
    for name, *_ in TARGETS:
        measured = tracer.calls(name) > 0
        put(f"{name}.calls", tracer.calls(name), "count")
        put(f"{name}.self_s", tracer.self_s(name), "s", measured)
    routed = outcomes.routes > 0
    put("routing.hops", outcomes.hops, "count", routed)
    put("routing.delivered_ratio", outcomes.delivered / outcomes.routes if routed else 0.0,
        "ratio", routed)
    put("routing.backtracks", outcomes.backtracks, "count", routed)
    put("routing.restarts", outcomes.restarts, "count", routed)
    put("routing.capped", outcomes.capped, "count", routed)
    asked = tracer.counts["redirects_asked"]
    put("dynamics.redirect_accept_ratio",
        tracer.counts["redirects_accepted"] / asked if asked else 0.0, "ratio", asked > 0)
    splits = tracer.calls("analysis.split_interval")
    put("analysis.split_parts_per_call",
        tracer.counts["split_parts"] / splits if splits else 0.0, "ratio", splits > 0)
    put("trace.overhead_frac", traced_wall_s / untraced_wall_s - 1.0, "ratio")
    return metrics, unmeasured
