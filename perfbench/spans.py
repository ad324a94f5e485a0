"""Span tracing of collatzq's layers from outside the package.

The tracer replaces public functions at the module attributes their callers
look up (``collatzq.census.word_eval``, ``collatzq.kernels.theta_sweep``, ...)
with wrappers that time each call.  Spans are kept in memory, aggregated by
name: call count, total time, and self time (total minus the time of spans
opened inside it).  Every traced name is registered before the run, so a
function the program stops calling reads 0 instead of vanishing.

Generators (word enumeration, sweep starts) are timed per item, since their
work happens inside the caller's loop.  Pool workers are separate processes
whose counters never reach this one, so block-level layers are traced with
one worker.
"""

from __future__ import annotations

import importlib
import os
import time

_clock = time.perf_counter


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.items = 0  # the span's own count: items, hits, steps or bytes


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        # open spans as [SpanStats, seconds of child spans]; innermost last
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def stats(self, name: str) -> SpanStats:
        return self.spans.setdefault(name, SpanStats())

    def span(self, name: str, fn, after=None, pick=None):
        """Wrap ``fn`` so that each call is a span named ``name``.

        ``after(stats, args, result)`` records counts once the span has
        closed; its cost is billed to no span.  ``pick(parent_stats)``
        chooses the span from the enclosing one instead, for a function
        that serves two layers.
        """
        stack = self._stack
        clock = _clock
        fixed = self.stats(name) if pick is None else None

        def traced(*args, **kwargs):
            rec = fixed or pick(stack[-1][0] if stack else None)
            frame = [rec, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                rec.calls += 1
                rec.total_s += dur
                rec.self_s += dur - frame[1]
            if after is not None:
                after(rec, args, result)
                dur = clock() - t0
            if stack:
                stack[-1][1] += dur
            return result

        return traced

    def iter_span(self, name: str, fn):
        """Wrap a generator function; the time to produce each item is a span."""
        stack = self._stack
        rec = self.stats(name)
        clock = _clock

        def timed(gen):
            nxt = gen.__next__
            while True:
                t0 = clock()
                try:
                    item = nxt()
                except StopIteration:
                    item = gen  # sentinel: the generator is exhausted
                dur = clock() - t0
                rec.total_s += dur
                rec.self_s += dur
                if stack:
                    stack[-1][1] += dur
                if item is gen:
                    return
                rec.items += 1
                yield item

        def traced(*args, **kwargs):
            rec.calls += 1
            return timed(fn(*args, **kwargs))

        return traced

    def patch(self, module_name: str, attr: str, wrap) -> None:
        # import_module, not attribute access: collatzq.census is shadowed
        # by the function census in the package namespace
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._undo.append((module, attr, original))
        setattr(module, attr, wrap(original))

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


SPAN_NAMES = (
    "words.enumerate",
    "words.eval",
    "core.eigen",
    "spectral.prefilter",
    "spectral.nk",
    "census.checkpoint",
    "kernels.theta",
    "kernels.phi",
    "dynamics.starts",
    "dynamics.sweep",
    "dynamics.redo",
    "dynamics.redo_rows",  # a count only: kernel rows flagged for the big-int redo
    "dynamics.recovery",
    "dynamics.recovery_orbit",
    "dynamics.recovery_replay",
    "reports.csv",
)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary; undo with ``tracer.restore()``."""
    kernels = importlib.import_module("collatzq.kernels")
    for name in SPAN_NAMES:
        tracer.stats(name)
    spans = tracer.spans

    def count_hits(rec, args, result):
        rec.items += result is not None and result is not False

    def count_steps(rec, args, result):
        steps, flags = result
        rec.items += int(steps.sum())
        if rec is spans["kernels.theta"]:
            spans["dynamics.redo_rows"].items += int((flags == kernels.FLAG_OVERFLOW).sum())

    def checkpoint_bytes(rec, args, result):
        rec.items += os.path.getsize(args[0])

    def csv_bytes(rec, args, result):
        rec.items += args[1].tell()  # every CSV goes to a fresh file or buffer

    def letters(rec, args, result):
        rec.items += len(args[0])

    def orbit_layer(parent):
        # orbit_pq serves word recovery and the sweep's big-int redo
        if parent is spans["dynamics.recovery"]:
            return spans["dynamics.recovery_orbit"]
        return spans["dynamics.redo"]

    def call(name, after=None):
        return lambda fn: tracer.span(name, fn, after)

    def items(name):
        return lambda fn: tracer.iter_span(name, fn)

    census = "collatzq.census"
    tracer.patch(census, "enumerate_lambda_block", items("words.enumerate"))
    tracer.patch(census, "word_eval", call("words.eval"))
    tracer.patch(census, "integer_eigenvalues", call("core.eigen", count_hits))
    tracer.patch(census, "prefilter_excludes", call("spectral.prefilter", count_hits))
    tracer.patch(census, "compute_nk", call("spectral.nk"))
    tracer.patch(census, "save_checkpoint", call("census.checkpoint", checkpoint_bytes))
    tracer.patch("collatzq.kernels", "theta_sweep", call("kernels.theta", count_steps))
    tracer.patch("collatzq.kernels", "phi_sweep", call("kernels.phi", count_steps))
    dynamics = "collatzq.dynamics"
    tracer.patch(dynamics, "reduced_fractions", items("dynamics.starts"))
    tracer.patch(dynamics, "theta_sweep_full", call("dynamics.sweep"))
    tracer.patch(dynamics, "phi_monotonicity_sweep", call("dynamics.sweep"))
    tracer.patch(dynamics, "verify_word_recovery", call("dynamics.recovery"))
    tracer.patch(dynamics, "orbit_pq", lambda fn: tracer.span("", fn, pick=orbit_layer))
    tracer.patch(dynamics, "replay_word_pq", call("dynamics.recovery_replay", letters))
    tracer.patch("collatzq.reports", "write_density_csv", call("reports.csv", csv_bytes))
    tracer.patch("collatzq.reports", "write_sweep_csv", call("reports.csv", csv_bytes))


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    s = tracer.spans
    prefilter = s["spectral.prefilter"]
    return {
        "words.enumerate_s": (s["words.enumerate"].total_s, "s"),
        "words.enumerated": (s["words.enumerate"].items, "count"),
        "words.eval_s": (s["words.eval"].total_s, "s"),
        "words.evals": (s["words.eval"].calls, "count"),
        "core.eigen_s": (s["core.eigen"].total_s, "s"),
        "core.eigen_calls": (s["core.eigen"].calls, "count"),
        "core.eigen_hits": (s["core.eigen"].items, "count"),
        "spectral.prefilter_s": (prefilter.total_s, "s"),
        "spectral.prefilter_calls": (prefilter.calls, "count"),
        "spectral.prefilter_skip_ratio": (
            prefilter.items / prefilter.calls if prefilter.calls else 0.0, "ratio"),
        "spectral.nk_s": (s["spectral.nk"].total_s, "s"),
        "census.blocks": (s["words.enumerate"].calls, "count"),
        "census.checkpoint_saves": (s["census.checkpoint"].calls, "count"),
        "census.checkpoint_s": (s["census.checkpoint"].total_s, "s"),
        "census.checkpoint_bytes": (s["census.checkpoint"].items, "B"),
        "kernels.theta_s": (s["kernels.theta"].total_s, "s"),
        "kernels.phi_s": (s["kernels.phi"].total_s, "s"),
        "kernels.theta_steps": (s["kernels.theta"].items, "count"),
        "kernels.phi_steps": (s["kernels.phi"].items, "count"),
        "dynamics.starts_s": (s["dynamics.starts"].total_s, "s"),
        "dynamics.redo_rows": (s["dynamics.redo_rows"].items, "count"),
        "dynamics.redo_s": (s["dynamics.redo"].total_s, "s"),
        "dynamics.report_s": (s["dynamics.sweep"].self_s, "s"),
        "dynamics.recovery_orbit_s": (s["dynamics.recovery_orbit"].total_s, "s"),
        "dynamics.recovery_replay_s": (s["dynamics.recovery_replay"].total_s, "s"),
        "dynamics.recovery_letters": (s["dynamics.recovery_replay"].items, "count"),
        "reports.csv_s": (s["reports.csv"].total_s, "s"),
        "reports.csv_bytes": (s["reports.csv"].items, "B"),
    }
