"""In-memory span tracer for the benchmark's traced run.

Spans are recorded only from this directory: :func:`install` patches the
public functions each layer exposes (module attributes and class
attributes, at the binding the caller actually looks up) with wrappers
that open and close spans.  Nothing in ``src/`` is edited.  Spans stay in
memory and are written out once, after the run (:meth:`Tracer.dump`).

A span's *self* time is its duration minus the durations of the wrapped
spans nested directly inside it, so the self times of all spans plus
:attr:`Tracer.unattributed_ns` add up to the traced wall time.

Only the process that installed the wrappers records.  Forked pool
workers inherit the patched functions but call straight through, so
worker-side time is not attributed (``table2_sweep`` runs the same jobs
in-process and gives those shares).
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

_now = time.perf_counter_ns


class Tracer:
    """Stack-based span recorder with per-name call counts and self time."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: name -> [calls, total_ns, self_ns]
        self.stats: dict[str, list[int]] = {}
        #: Exact counters recorded beside the spans (computes, infeasible...).
        self.counts: dict[str, float] = {}
        #: (name, parent index, start ns, end ns) per span, in start order.
        self.spans: list[list] = []
        #: Sum of the durations of spans with no wrapped parent.
        self.top_ns = 0
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------
    def recording(self) -> bool:
        return os.getpid() == self.pid

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str) -> None:
        self.stats.setdefault(name, [0, 0, 0])[0] += 1

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0])
        self.spans.append([name, parent, _now(), 0])

    def end(self) -> int:
        """Close the innermost span; returns its duration in ns."""
        idx, child_ns = self._stack.pop()
        span = self.spans[idx]
        span[3] = _now()
        dur = span[3] - span[2]
        st = self.stats.setdefault(span[0], [0, 0, 0])
        st[1] += dur
        st[2] += dur - child_ns
        if self._stack:
            self._stack[-1][1] += dur
        else:
            self.top_ns += dur
        return dur

    # -- patching -------------------------------------------------------
    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` with ``make_wrapper(original)``."""
        own = attr in vars(owner)
        orig = getattr(owner, attr)
        wrapper = make_wrapper(orig)
        functools.update_wrapper(wrapper, orig)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig, own))

    def span_wrapper(self, name: str):
        """Wrapper factory: one call and one span per invocation."""

        def make(orig):
            def wrapper(*args, **kwargs):
                if not self.recording():
                    return orig(*args, **kwargs)
                self.call(name)
                self.begin(name)
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.end()

            return wrapper

        return make

    def count_wrapper(self, name: str):
        """Wrapper factory: counts calls only (no span)."""

        def make(orig):
            def wrapper(*args, **kwargs):
                if self.recording():
                    self.call(name)
                return orig(*args, **kwargs)

            return wrapper

        return make

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig, own = self._patches.pop()
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    # -- results --------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[2] / 1e9

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[1] / 1e9

    def dump(self, path: Path) -> None:
        """Write every span (names interned) plus the per-name table."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump(
                {
                    "names": names,
                    "spans": [[ids[n], p, s, e] for n, p, s, e in self.spans],
                    "stats": self.stats,
                    "counts": self.counts,
                },
                fh,
                separators=(",", ":"),
            )


class _TimedContext:
    """Times only the enter and exit halves of a context manager."""

    def __init__(self, tracer: Tracer, name: str, cm) -> None:
        self._tracer, self._name, self._cm = tracer, name, cm

    def __enter__(self):
        self._tracer.call(self._name)
        self._tracer.begin(self._name)
        try:
            return self._cm.__enter__()
        finally:
            self._tracer.end()

    def __exit__(self, *exc):
        self._tracer.begin(self._name)
        try:
            return self._cm.__exit__(*exc)
        finally:
            self._tracer.end()


def install(tracer: Tracer) -> None:
    """Patch every traced layer boundary (see NOTES.md for the table)."""
    from repro import api
    import repro
    import repro.analysis.preflight as preflight
    import repro.approx.runtime as approx_rt
    import repro.harness.batch as batch
    import repro.harness.database as database
    import repro.harness.pruning as pruning
    import repro.harness.runner as runner_mod
    import repro.openmp.runtime as omp
    import repro.pragma as pragma
    import repro.pragma.lowering as lowering
    from repro.apps.common import Benchmark
    from repro.harness.runner import ExperimentRunner

    t = tracer
    t.patch(api, "execute", t.span_wrapper("api.execute"))
    t.patch(ExperimentRunner, "run_point", t.span_wrapper("runner.run_point"))

    def make_baseline(orig):
        def baseline(runner, *args, **kwargs):
            if not t.recording():
                return orig(runner, *args, **kwargs)
            before = runner.baseline_computes
            t.call("runner.baseline")
            t.begin("runner.baseline")
            try:
                return orig(runner, *args, **kwargs)
            finally:
                dur = t.end()
                if runner.baseline_computes != before:
                    t.count("runner.baseline.computes")
                    t.count("runner.baseline.ns", dur)

        return baseline

    t.patch(ExperimentRunner, "baseline", make_baseline)
    t.patch(Benchmark, "run", t.span_wrapper("apps.run"))
    t.patch(Benchmark, "build_regions", t.span_wrapper("apps.build_regions"))
    t.patch(omp.OffloadProgram, "target_teams", t.span_wrapper("openmp.target_teams"))

    def make_target_data(orig):
        def target_data(*args, **kwargs):
            cm = orig(*args, **kwargs)
            return _TimedContext(t, "openmp.target_data", cm) if t.recording() else cm

        return target_data

    t.patch(omp.OffloadProgram, "target_data", make_target_data)
    t.patch(omp, "launch", t.span_wrapper("gpusim.launch"))
    t.patch(approx_rt, "taf_invoke", t.span_wrapper("approx.taf"))
    t.patch(approx_rt, "iact_invoke", t.span_wrapper("approx.iact"))

    def make_perfo(orig):
        # A generator: each step's work runs inside next(), so every step
        # gets its own span; calls count generator invocations.
        def perforated_grid_stride(*args, **kwargs):
            gen = orig(*args, **kwargs)
            if not t.recording():
                yield from gen
                return
            t.call("approx.perfo")
            try:
                while True:
                    t.begin("approx.perfo")
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t.end()
                    yield item
            finally:
                gen.close()

        return perforated_grid_stride

    t.patch(approx_rt, "perforated_grid_stride", make_perfo)
    t.patch(runner_mod, "error", t.span_wrapper("qoi.error"))
    t.patch(database, "dumps_record", t.span_wrapper("db.dumps_record"))
    t.patch(database.CheckpointWriter, "write", t.span_wrapper("db.checkpoint_write"))

    def make_preflight(orig):
        def factory(*args, **kwargs):
            hook = orig(*args, **kwargs)

            def preflight_hook(*hargs, **hkwargs):
                if not t.recording():
                    return hook(*hargs, **hkwargs)
                t.call("preflight")
                t.begin("preflight")
                try:
                    rec = hook(*hargs, **hkwargs)
                finally:
                    t.end()
                if rec is not None:
                    t.count("preflight.infeasible")
                return rec

            return preflight_hook

        return factory

    t.patch(preflight, "make_preflight", make_preflight)
    t.patch(pruning, "run_sweep_pruned", t.span_wrapper("pruning.run_sweep_pruned"))
    t.patch(batch.BatchEngine, "submit", t.span_wrapper("batch.submit"))
    t.patch(batch, "wait", t.span_wrapper("batch.wait"))

    def make_observe(orig):
        def observe(chunker, group, points, seconds):
            if t.recording() and points > 0:
                t.count("batch.chunks")
                t.count("batch.chunk_points", points)
                t.count("batch.chunk_seconds", seconds)
            return orig(chunker, group, points, seconds)

        return observe

    t.patch(batch.AdaptiveChunker, "observe", make_observe)
    for owner in (lowering, pragma, repro):
        t.patch(owner, "compile_pragma", t.count_wrapper("pragma.compile"))
        t.patch(owner, "compile_pragmas", t.count_wrapper("pragma.compile"))
