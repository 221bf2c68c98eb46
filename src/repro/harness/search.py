"""Smart parameter search — the second §4.2 automation, implemented.

The paper's harness explores the Table-2 space *exhaustively* (up to 988
GPU-hours per benchmark) and §4.2 proposes "smart search/optimization
techniques (genetic algorithms, Bayesian Optimization) to reduce parameter
exploration costs".  This module provides two budgeted strategies over the
same :class:`~repro.harness.sweep.SweepPoint` space:

* :func:`random_search` — the standard strong baseline: sample the grid
  uniformly without replacement.
* :func:`evolutionary_search` — a steady-state (μ+λ) evolutionary loop:
  keep the best configurations under the error budget, mutate one axis at
  a time toward grid neighbours, and resample when stuck.

Both take the :class:`~repro.harness.batch.BatchEngine` to evaluate on as
their first argument and evaluate through its
:meth:`~repro.harness.batch.BatchEngine.submit`, under the caller's
:class:`~repro.harness.config.SweepConfig` (workers, checkpoint,
preflight, ...) overlaid on the engine's own policy.  The evolutionary
loop is *streaming*: it keeps
``population`` single-job streams in flight and proposes the next
offspring the moment a result is consumed, instead of barriering per
generation — and because it consumes the streams strictly in submission
order, the evaluated point sequence depends only on the seed, so serial
and parallel runs produce identical records.

Both return the full :class:`~repro.harness.database.ResultsDB` so results
remain queryable exactly like an exhaustive sweep's, plus the best record
found.  The objective matches the paper's selection rule: maximize speedup
subject to ``error <= max_error``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.harness.batch import BatchEngine, BatchJob
from repro.harness.config import SweepConfig
from repro.harness.database import ResultsDB
from repro.harness.runner import RunRecord
from repro.harness.sweep import SweepPoint, table2_space


@dataclass
class SearchResult:
    """Outcome of a budgeted search."""

    best: RunRecord | None
    db: ResultsDB
    evaluations: int

    @property
    def best_speedup(self) -> float:
        return self.best.reported_speedup if self.best else 0.0


def _objective(record: RunRecord, max_error: float) -> float:
    """Paper selection rule: speedup if under budget, else -error."""
    if not record.feasible:
        return -float("inf")
    if record.error <= max_error:
        return record.reported_speedup
    return -record.error


def random_search(
    engine: BatchEngine,
    app: str,
    device: str | DeviceSpec,
    technique: str,
    budget: int = 20,
    max_error: float = 0.10,
    threshold_scale: float = 1.0,
    seed: int = 7,
    space: list[SweepPoint] | None = None,
    config: SweepConfig | None = None,
) -> SearchResult:
    """Uniform sampling of the Table-2 grid without replacement.

    The whole sample is known up front, so it is evaluated as one
    ``engine`` sweep under ``config`` (workers, checkpoint, preflight,
    ...); results are identical at any worker count because the
    simulation is deterministic per seed."""
    rng = np.random.default_rng(seed)
    points = list(
        space
        if space is not None
        else table2_space(technique, device, thinned=False,
                          threshold_scale=threshold_scale)
    )
    rng.shuffle(points)
    sample = points[: int(budget)]
    db = ResultsDB()
    records = engine.submit(
        [BatchJob(app, device, pt) for pt in sample],
        engine.config.merged(config),
    ).records()
    best, best_score = None, -float("inf")
    for rec in records:
        db.add(rec)
        score = _objective(rec, max_error)
        if score > best_score:
            best, best_score = rec, score
    return SearchResult(best=best, db=db, evaluations=len(db))


def _neighbors(point: SweepPoint, space: list[SweepPoint]) -> list[SweepPoint]:
    """Grid neighbours: points differing from ``point`` in exactly one axis
    (including level and items-per-thread)."""
    out = []
    for cand in space:
        if cand.technique != point.technique:
            continue
        # Diff over the UNION of key sets: perfo kinds carry different keys
        # (skip/herded vs skip_percent), and iterating only cand's keys
        # undercounts — and makes neighbourhood asymmetric — whenever one
        # point's params are a subset of the other's.
        keys = set(cand.params) | set(point.params)
        diffs = sum(
            cand.params.get(k) != point.params.get(k) for k in keys
        )
        diffs += cand.level != point.level
        diffs += cand.items_per_thread != point.items_per_thread
        if diffs == 1:
            out.append(cand)
    return out


def evolutionary_search(
    engine: BatchEngine,
    app: str,
    device: str | DeviceSpec,
    technique: str,
    budget: int = 30,
    max_error: float = 0.10,
    threshold_scale: float = 1.0,
    population: int = 3,
    seed: int = 7,
    space: list[SweepPoint] | None = None,
    config: SweepConfig | None = None,
) -> SearchResult:
    """Steady-state (μ+λ) evolutionary search over the Table-2 grid.

    Seeds ``population`` random configurations and then keeps
    ``population`` evaluations in flight: each time a result is consumed
    it joins the elite (the ``population`` fittest so far), and *one* new
    offspring is proposed immediately — mutated along one grid axis from
    an elite parent, resampling a fresh random point at dead ends — until
    ``budget`` proposals have been made.  There is no per-generation
    barrier: each proposal is one :meth:`~repro.harness.batch.BatchEngine.submit`
    stream (on a pool, dispatched as soon as it is proposed), and the
    streams are consumed strictly in submission order, which makes the
    evaluated point sequence a function of the seed alone — serial and
    parallel runs produce identical records.

    ``config`` is the evaluation policy (workers, checkpoint, preflight,
    ...): every stream runs under it, overlaid on ``engine``'s policy, so
    a checkpoint records every proposal and a rerun resumes them.
    """
    rng = np.random.default_rng(seed)
    points = list(
        space
        if space is not None
        else table2_space(technique, device, thinned=False,
                          threshold_scale=threshold_scale)
    )
    db = ResultsDB()
    seen: set[str] = set()
    cfg = engine.config.merged(config)

    def propose_one(parent: SweepPoint | None) -> SweepPoint | None:
        """One unseen offspring of ``parent`` (or a fresh random point)."""
        nbrs = (
            [n for n in _neighbors(parent, points) if n.label() not in seen]
            if parent is not None
            else []
        )
        if nbrs:
            nxt = nbrs[int(rng.integers(len(nbrs)))]
        else:
            fresh = [p for p in points if p.label() not in seen]
            if not fresh:
                return None
            nxt = fresh[int(rng.integers(len(fresh)))]
        seen.add(nxt.label())
        return nxt

    #: (point, single-job stream) per proposal, in submission order.
    in_flight: deque = deque()

    def submit(pt: SweepPoint) -> None:
        in_flight.append(
            (pt, engine.submit([BatchJob(app, device, pt)], config=cfg))
        )

    elite: list[tuple[float, SweepPoint, RunRecord]] = []
    proposals = 0
    #: Round-robin parent cursor: consecutive offspring come from different
    #: elite members, like the generational loop's i % len(parents).
    child_idx = 0
    try:
        # Seed wave: population distinct random points, all in flight.
        for idx in rng.permutation(len(points))[: int(population)]:
            if proposals >= budget:
                break
            pt = points[int(idx)]
            if pt.label() in seen:
                continue
            seen.add(pt.label())
            submit(pt)
            proposals += 1
        # Steady state: consume strictly in submission order; each consumed
        # result funds exactly one new proposal.
        while in_flight:
            pt, stream = in_flight.popleft()
            rec = stream.records()[0]
            db.add(rec)
            elite.append((_objective(rec, max_error), pt, rec))
            elite.sort(key=lambda t: -t[0])
            elite = elite[: int(population)]
            if proposals < budget:
                parent = elite[child_idx % len(elite)][1] if elite else None
                child_idx += 1
                nxt = propose_one(parent)
                if nxt is not None:
                    submit(nxt)
                    proposals += 1
    finally:
        for _pt, stream in in_flight:
            stream.close()

    best = db.best_speedup(max_error=max_error)
    if best is None and len(db):
        best = max(db.query(feasible=None), key=lambda r: _objective(r, max_error))
    return SearchResult(best=best, db=db, evaluations=len(db))
