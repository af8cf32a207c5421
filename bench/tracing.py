"""Spans around qleak's public functions, recorded from outside the package.

`install` replaces each traced function in every qleak module namespace that
binds it (including names that `qleak.cli` and `qleak/__init__` re-bind with
`from ... import`), so module-global calls inside the package hit the
wrapper too. Spans stay in memory until the run ends.

Nothing here imports numpy or qleak: the modules to patch are passed in.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Collects spans and counts from wrapped calls.

    A call made on a thread that has no open span (a restart running in the
    CLI's thread pool) takes the main thread's innermost open span as its
    parent: in qleak only `compute_leakage` hands work to other threads, and
    it waits on them while they run.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = 0              # the benchmark numbers its operations
        self._ids = itertools.count()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn: Callable,
             on_return: Callable | None = None) -> Callable:
        """Return fn wrapped in a span called `name`; `on_return(counts,
        args, kwargs, result)` derives counts from the public return value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, self.op))
            if on_return is not None:
                on_return(self.counts, args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer, modules, targets) -> Callable[[], None]:
    """Patch every binding of each target; returns the function that undoes it.

    targets: (owner, attribute, span name, on_return) tuples. For a module
    owner, every module in `modules` that binds the same function object
    under that attribute is patched; for a class owner, the class attribute.
    """
    undo = []
    for owner, attr, name, on_return in targets:
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, on_return)
        holders = [owner] if isinstance(owner, type) else [
            m for m in modules if vars(m).get(attr) is original]
        for holder in holders:
            setattr(holder, attr, wrapper)
            undo.append((holder, attr, original))

    def uninstall():
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)

    return uninstall


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct child spans cover.

    Children may overlap (restarts on two threads); overlapping time is
    counted once.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def backtracks(step_sizes, mu: float) -> int:
    """Step halvings a restart took: sum of round(log2(mu / step)) over the
    recorded steps. Iteration 0 records step 0 and is skipped."""
    return sum(round(math.log2(mu / step)) for step in step_sizes if step > 0.0)


def record_report(counts: Counter, report, mu: float):
    """Counts from one LeakageReport. Iterations are sum(trace.iterations[-1])
    over restarts, which leaves out each restart's iteration-0 row."""
    iters = [trace.iterations[-1] for trace in report.traces]
    counts["restarts"] += len(report.traces)
    counts["iters"] += sum(iters)
    counts["converged"] += sum(report.converged_flags)
    counts["best_iters"] += iters[report.best_restart]
    counts["backtracks"] += sum(backtracks(t.step_sizes, mu) for t in report.traces)


def qleak_targets(cli, ensemble_io, states, leakage, linalg):
    """The traced functions of each layer: cli -> ensemble_io -> states ->
    leakage -> linalg."""

    def on_report(counts, args, kwargs, report):
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        record_report(counts, report, (cfg or leakage.AscentConfig()).mu)

    def on_channel(counts, args, kwargs, channel):
        counts["kraus_ops"] += len(channel.kraus_ops)

    return [
        (cli, "main", "cli.main", None),
        (ensemble_io, "resolve_ensemble", "ensemble_io.resolve_ensemble", None),
        (ensemble_io, "parse_ensemble_config", "ensemble_io.parse_ensemble_config", None),
        (states, "random_povm", "states.random_povm", None),
        (states.Povm, "__init__", "states.Povm.__init__", None),
        (states, "depolarizing_global", "states.channel", on_channel),
        (states, "depolarizing_local", "states.channel", on_channel),
        (states, "random_kraus_channel", "states.channel", on_channel),
        (states.Ensemble, "transform", "states.Ensemble.transform", None),
        (states, "born_distribution", "states.born_distribution", None),
        (leakage, "compute_leakage", "leakage.compute_leakage", on_report),
        (leakage, "verify_properties", "leakage.verify_properties", None),
        (leakage, "leakage_objective", "leakage.leakage_objective", None),
        (leakage, "mutual_information", "leakage.mutual_information", None),
        (linalg, "inv_sqrt_psd", "linalg.inv_sqrt_psd", None),
        (linalg, "herm_eig", "linalg.herm_eig", None),
    ]


def layer_metrics(tracer: Tracer, batches: int) -> dict[str, float]:
    """Per-layer numbers from the spans and counts of `batches` identical
    batches; totals are reported per batch."""
    own = self_times(tracer.spans)
    calls, total, self_s = Counter(), Counter(), Counter()
    for span in tracer.spans:
        calls[span.name] += 1
        total[span.name] += span.end - span.start
        self_s[span.name] += own[span.id]
    counts = tracer.counts

    def per_batch(value):
        return value / batches

    def us_per_call(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    restarts = counts["restarts"]
    iters = counts["iters"]
    return {
        "cli.self_s": per_batch(self_s["cli.main"]),
        "ensemble_io.resolve.calls": per_batch(calls["ensemble_io.resolve_ensemble"]),
        "ensemble_io.resolve_s": per_batch(total["ensemble_io.resolve_ensemble"]),
        "ensemble_io.parse_s": per_batch(total["ensemble_io.parse_ensemble_config"]),
        "states.random_povm.calls": per_batch(calls["states.random_povm"]),
        "states.random_povm.us": us_per_call("states.random_povm"),
        "states.povm_init.calls": per_batch(calls["states.Povm.__init__"]),
        "states.povm_init.us": us_per_call("states.Povm.__init__"),
        "states.channel.calls": per_batch(calls["states.channel"]),
        "states.channel_s": per_batch(total["states.channel"]),
        "states.kraus_ops": per_batch(counts["kraus_ops"]),
        "states.transform_s": per_batch(total["states.Ensemble.transform"]),
        "states.born.us": us_per_call("states.born_distribution"),
        "leakage.compute.calls": per_batch(calls["leakage.compute_leakage"]),
        "leakage.compute_s": per_batch(total["leakage.compute_leakage"]),
        "leakage.compute.self_s": per_batch(self_s["leakage.compute_leakage"]),
        "leakage.restarts": per_batch(restarts),
        "leakage.iters": per_batch(iters),
        "leakage.us_per_iter":
            1e6 * total["leakage.compute_leakage"] / iters if iters else 0.0,
        "leakage.converged_frac": counts["converged"] / restarts if restarts else 0.0,
        "leakage.best_iters_frac": counts["best_iters"] / iters if iters else 0.0,
        "leakage.backtracks": per_batch(counts["backtracks"]),
        "leakage.verify.self_s": per_batch(self_s["leakage.verify_properties"]),
        "leakage.objective.calls": per_batch(calls["leakage.leakage_objective"]),
        "leakage.mi.calls": per_batch(calls["leakage.mutual_information"]),
        "leakage.mi.us": us_per_call("leakage.mutual_information"),
        "linalg.inv_sqrt_psd.calls": per_batch(calls["linalg.inv_sqrt_psd"]),
        "linalg.inv_sqrt_psd.us": us_per_call("linalg.inv_sqrt_psd"),
        "linalg.herm_eig.calls": per_batch(calls["linalg.herm_eig"]),
    }


def dump_spans(tracer: Tracer) -> dict:
    """JSON-ready form of the spans: one [id, name, start, end, parent, op]
    row per span, names as indices into `names`."""
    names = sorted({span.name for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    return {
        "columns": ["id", "name", "start_s", "end_s", "parent", "op"],
        "names": names,
        "spans": [[s.id, index[s.name], s.start, s.end, s.parent, s.op]
                  for s in tracer.spans],
    }
