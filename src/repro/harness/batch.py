"""Heterogeneous batch evaluation: the one path every job goes through.

:meth:`BatchEngine.submit` is the single way jobs get evaluated.  An
engine holds one parent :class:`~repro.harness.runner.ExperimentRunner`
(the baseline cache and the in-process executor), one in-memory record
cache keyed by :class:`~repro.harness.database.RecordKey`, and — for
``workers > 1`` — one kept-alive :class:`WorkerPool`.  ``submit`` returns
a :class:`BatchStream` that serves every slot it can without simulating
(the engine cache, the checkpoint, the static preflight, the variant
cache, duplicates of an earlier slot), then evaluates the rest in
chunks — one job each in-process, adaptively sized on a pool — and
yields records as they complete.
The blocking helpers (:meth:`BatchEngine.run_jobs`,
:meth:`BatchEngine.run_point`, :func:`run_sweep_parallel`) are drains of
the same stream, so streamed and blocking record sets are identical by
construction.

An in-process stream (``workers <= 1``) runs the same code and produces
byte-identical records (the simulation is deterministic per seed).
"""

from __future__ import annotations

import os
import sys
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.approx.base import ThresholdWindow
from repro.apps.common import make_params
from repro.errors import EngineMismatchError
from repro.gpusim.device import DeviceSpec, get_device
from repro.harness.config import SweepConfig
from repro.harness.database import (
    CheckpointWriter,
    RecordKey,
    ResultsDB,
    check_shared,
    shared_fields,
)
from repro.harness.reporting import SweepProgress, format_progress
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.sweep import SweepPoint

#: Chunk size used for a group before any throughput has been observed —
#: deliberately small so the controller gets feedback after little work.
INITIAL_CHUNK_SIZE = 2
MIN_CHUNK_SIZE = 1
MAX_CHUNK_SIZE = 64
#: Wall-clock one adaptively-sized chunk should cost once a job group's
#: throughput is known.
TARGET_CHUNK_SECONDS = 0.8
#: Pool respawns one stream tolerates before recording the affected jobs
#: as infeasible (a chunk that reliably kills workers must not respawn
#: forever).
MAX_POOL_RESPAWNS = 3


def _default_factory(problems: dict | None, seed: int) -> ExperimentRunner:
    return ExperimentRunner(problems=problems, seed=seed)


@dataclass(frozen=True)
class BatchJob:
    """One unit of work: evaluate ``point`` for ``app`` on ``device``."""

    app: str
    device: str | DeviceSpec
    point: SweepPoint
    site: str | None = None


@dataclass
class BatchReport:
    """Outcome of one drained :class:`BatchStream` (or pruned sweep)."""

    #: One record per input job, in job order (checkpointed + fresh; a
    #: deduplicated slot shares its record with the slot it collapsed into).
    records: list[RunRecord]
    #: Points evaluated by this invocation: simulated, or served by
    #: sibling reuse (``reused`` of them).
    evaluated: int
    #: Job slots satisfied from the checkpoint or the engine's session
    #: cache without running.
    skipped: int
    #: Duplicate job slots collapsed within this batch.
    deduped: int = 0
    #: Points recorded as infeasible by the static preflight, unsimulated.
    pruned: int = 0
    #: Job slots served from the content-hash variant cache.
    variant_hits: int = 0
    #: Evaluated points served from a threshold or items-per-thread
    #: sibling's record instead of simulated (see :class:`ThresholdMemo`);
    #: a subset of ``evaluated``.
    reused: int = 0
    #: Unique (app, device) baselines computed in the parent for sharing.
    baseline_runs: int = 0
    #: Baselines the evaluating runners computed themselves, in pool
    #: workers or in-process (0 when sharing works).
    worker_baseline_runs: int = 0
    elapsed: float = 0.0
    checkpoint: str | None = None
    extra: dict = field(default_factory=dict)

    @property
    def feasible(self) -> int:
        return sum(1 for r in self.records if r.feasible)

    @property
    def infeasible(self) -> int:
        return len(self.records) - self.feasible


class AdaptiveChunker:
    """Feedback controller sizing chunks from observed points/sec.

    Each (app, device) group keeps an exponentially-smoothed throughput
    estimate; the next chunk for a group carries
    ``rate × target_seconds`` points, clamped to
    [``min_size``, ``max_size``].  Until a group has been observed it gets
    ``initial`` points, so the first measurement arrives quickly even for
    slow apps."""

    def __init__(
        self,
        target_seconds: float = TARGET_CHUNK_SECONDS,
        initial: int = INITIAL_CHUNK_SIZE,
        min_size: int = MIN_CHUNK_SIZE,
        max_size: int = MAX_CHUNK_SIZE,
        smoothing: float = 0.5,
    ) -> None:
        self.target_seconds = target_seconds
        self.initial = initial
        self.min_size = min_size
        self.max_size = max_size
        self.smoothing = smoothing
        self.rates: dict = {}

    def next_size(self, group=None) -> int:
        rate = self.rates.get(group)
        if rate is None:
            return self.initial
        want = int(round(rate * self.target_seconds)) or 1
        return max(self.min_size, min(self.max_size, want))

    def observe(self, group, points: int, seconds: float) -> None:
        if points <= 0:
            return
        rate = points / max(seconds, 1e-9)
        prev = self.rates.get(group)
        self.rates[group] = (
            rate if prev is None
            else self.smoothing * rate + (1.0 - self.smoothing) * prev
        )


# ----------------------------------------------------------------------
# Retry wrapper.  Shared by in-process and pool evaluation.
def run_point_with_retry(
    runner,
    app: str,
    device: str | DeviceSpec,
    point: SweepPoint,
    site: str | None = None,
    retries: int = 1,
    rebuild: Callable[[], object] | None = None,
    sanitize: bool = False,
) -> RunRecord:
    """``runner.run_point`` hardened for sweep duty.

    ``run_point`` already records infeasible configurations gracefully;
    this catches everything else (harness bugs, partial region stats, a
    poisoned worker), retries ``retries`` times, and on persistent failure
    returns an infeasible record carrying the exception so one bad point
    cannot abort a 57k-point campaign.

    ``rebuild`` is called before each retry to replace the runner: an
    unexpected exception can leave the per-process runner's baseline/app
    caches or region state half-mutated, and retrying on the poisoned
    instance can fail for the wrong reason.  The callable should also
    update whatever slot the caller reuses across points (the
    :class:`_WorkerState`, a closure variable) so later points get the
    fresh instance."""
    # ``sanitize`` is forwarded only when set, so stub runners whose
    # run_point lacks the keyword keep working.
    kwargs = {"sanitize": True} if sanitize else {}
    last: Exception | None = None
    for attempt in range(max(0, retries) + 1):
        if attempt and rebuild is not None:
            try:
                runner = rebuild()
            except Exception:  # noqa: BLE001 — keep the old instance over losing the point
                pass
        try:
            return runner.run_point(app, device, point, site=site, **kwargs)
        except Exception as exc:  # noqa: BLE001 — sweep must survive anything
            last = exc
    return _failed_record(
        app, device, point,
        f"WorkerError after {retries + 1} attempts: {type(last).__name__}: {last}",
    )


def _failed_record(
    app: str, device: str | DeviceSpec, point: SweepPoint, note: str
) -> RunRecord:
    """Infeasible record for a point lost to errors or pool crashes."""
    return RunRecord(
        app=app,
        device=get_device(device).name,
        technique=point.technique,
        params=dict(point.params),
        level=point.level,
        items_per_thread=point.items_per_thread,
        feasible=False,
        note=note,
    )


# ----------------------------------------------------------------------
class _WorkerState:
    """The runner that evaluates chunks, and what rebuilding it needs.

    A pool worker holds one in :data:`_WORKER` for its whole life; an
    in-process stream wraps the engine's runner in one of its own.  Both
    get a chunk's group baselines with the chunk (a persistent pool
    outlives any one batch's baseline set); they accumulate in
    ``baselines``, so a retry rebuild re-primes every baseline seen."""

    def __init__(self, factory: Callable, args: tuple, runner=None) -> None:
        self.factory, self.args = factory, args
        self.baselines: dict = {}
        #: Baseline computes of runners a rebuild replaced.
        self.retired_computes = 0
        self.runner = runner
        if runner is None:
            self.rebuild()

    def rebuild(self):
        """Replace a possibly-poisoned runner with a fresh, primed one."""
        self.retired_computes += getattr(self.runner, "baseline_computes", 0)
        self.runner = self.factory(*self.args)
        if self.baselines and hasattr(self.runner, "prime_baselines"):
            self.runner.prime_baselines(self.baselines)
        return self.runner

    def _computes(self) -> int:
        return self.retired_computes + getattr(self.runner, "baseline_computes", 0)

    def run(
        self,
        chunk: list[BatchJob],
        retries: int,
        baselines: dict | None,
        sanitize: bool,
    ) -> tuple[list, float, int, list]:
        """Run one heterogeneous chunk; returns (records, seconds, baseline
        computes, threshold windows).

        ``seconds`` is measured where the chunk runs, so the adaptive
        controller sees compute time, not queue wait.  Each window is read
        from the runner a retry may have rebuilt; ``run_point`` resets it
        first, so a failed attempt never leaves a stale one behind."""
        if baselines:
            self.baselines.update(baselines)
            if hasattr(self.runner, "prime_baselines"):
                self.runner.prime_baselines(baselines)
        before = self._computes()
        t0 = time.monotonic()
        records, windows = [], []
        for job in chunk:
            records.append(run_point_with_retry(
                self.runner, job.app, job.device, job.point, site=job.site,
                retries=retries, rebuild=self.rebuild, sanitize=sanitize,
            ))
            windows.append(getattr(self.runner, "last_window", None))
        return records, time.monotonic() - t0, self._computes() - before, windows


#: This pool worker's state, set by the pool initializer.
_WORKER: _WorkerState | None = None


def _init_batch_worker(factory: Callable, args: tuple) -> None:
    global _WORKER
    _WORKER = _WorkerState(factory, args)


def _run_chunk(*args) -> tuple[list, float, int, list]:
    """Pool entry point: :meth:`_WorkerState.run` on this worker's state."""
    assert _WORKER is not None, "pool initializer did not run"
    return _WORKER.run(*args)


# ----------------------------------------------------------------------
class WorkerPool:
    """A kept-alive ``ProcessPoolExecutor`` for batch workers.

    Spawned lazily on the first submission, kept warm between batches so a
    session of ``submit`` calls pays the interpreter-spawn cost once, and
    replaced wholesale by :meth:`respawn` when a crashed worker breaks the
    executor.  ``spawns`` / ``respawns`` count pool creations so "exactly
    one pool per session" is assertable rather than assumed; ``spawns``
    also names the current executor's generation.
    """

    def __init__(
        self,
        max_workers: int,
        factory: Callable = _default_factory,
        args: tuple = (None, 2023),
    ) -> None:
        self.max_workers = max(1, int(max_workers))
        self.factory = factory
        self.args = args
        self.spawns = 0
        self.respawns = 0
        self._executor: ProcessPoolExecutor | None = None

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_batch_worker,
                initargs=(self.factory, self.args),
            )
            self.spawns += 1
        return self._executor

    def submit(self, fn, *args):
        return self._ensure().submit(fn, *args)

    def respawn(self, generation: int | None = None) -> bool:
        """Replace a broken executor with a fresh one (counted).

        Several streams can share one pool; a stream passes the
        ``generation`` its lost chunks were submitted to, so only the first
        to notice a breakage respawns.  Returns False when that generation
        has already been replaced."""
        if generation is not None and generation != self.spawns:
            return False
        old, self._executor = self._executor, None
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)
        self.respawns += 1
        self._ensure()
        return True

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
class ThresholdMemo:
    """Exact reuse across points that provably replay the same run.

    A chain is the set of points that differ only in ``threshold`` and
    ``items_per_thread``; its key is the job's
    :class:`~repro.harness.database.RecordKey` with the label replaced by
    the technique, the other params and the level.  TAF, iACT and
    perforation points have chains; perforation has
    no threshold, so its chains vary in items per thread alone.  A run's
    :class:`~repro.approx.base.ThresholdWindow` holds every threshold that
    gives each TAF/iACT comparison the same outcome, and every items per
    thread that resolves each ``teams_for`` call to the same team count.
    A point admitted on both would make every decision of the stored run
    on the same launch grids, so its record is the stored record with its
    own ``params`` and ``items_per_thread``.

    The latest entry is kept per (chain, launch grids): chains ascend in
    threshold, and a window that missed ``t2`` also misses every
    ``t3 > t2`` on the same grids.  That is one entry per distinct grid.
    Only feasible records without a note are stored, and a point that fails
    :func:`~repro.apps.common.make_params` validation is never served.
    """

    def __init__(self) -> None:
        self._chains: dict[tuple, dict[tuple, tuple[ThresholdWindow, RunRecord]]] = {}

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._chains.values())

    @staticmethod
    def key(pt: SweepPoint, key: RecordKey) -> RecordKey | None:
        """The chain key of ``pt``, whose record key is ``key``, or
        ``None`` for points that have no chain."""
        if pt.technique in ("taf", "iact"):
            if "threshold" not in pt.params:
                return None
            others = [(k, v) for k, v in pt.params.items() if k != "threshold"]
        elif pt.technique == "perfo":
            others = list(pt.params.items())
        else:
            return None
        return key._replace(label=f"{pt.technique}:{sorted(others)!r}:{pt.level}")

    def get(self, key: RecordKey, point: SweepPoint) -> RunRecord | None:
        """A stored record of the chain re-labelled for ``point``, when
        ``point``'s threshold and items per thread lie inside its window."""
        entries = self._chains.get(key)
        if not entries:
            return None
        try:
            make_params(point.technique, **point.params)
            threshold = point.params.get("threshold")
            for window, record in entries.values():
                if window.admits(point.technique, threshold) and window.admits_items(
                    point.items_per_thread
                ):
                    return _relabel(record, point)
        except Exception:  # noqa: BLE001 — an invalid point simulates (and fails) as usual
            pass
        return None

    def put(
        self, key: RecordKey, record: RunRecord, window: ThresholdWindow | None
    ) -> None:
        if window is not None and record.feasible and not record.note:
            self._chains.setdefault(key, {})[window.grids] = (window, record)


def _relabel(record: RunRecord, point: SweepPoint) -> RunRecord:
    """A new record carrying ``point``'s ``params`` and
    ``items_per_thread`` and ``record``'s results.

    It gets its own ``params``, ``region_stats`` and ``extra`` dicts.  The
    dicts nested in those (per-region snapshots, an ApproxSan report) are
    read-only results, shared with ``record`` to keep a sweep's served
    records small."""
    return RunRecord(
        app=record.app,
        device=record.device,
        technique=record.technique,
        params=dict(point.params),
        level=record.level,
        items_per_thread=point.items_per_thread,
        feasible=record.feasible,
        note=record.note,
        speedup=record.speedup,
        kernel_speedup=record.kernel_speedup,
        error=record.error,
        approx_fraction=record.approx_fraction,
        region_stats=dict(record.region_stats),
        extra=dict(record.extra),
    )


# ----------------------------------------------------------------------
class BatchStream:
    """Records of one :meth:`BatchEngine.submit` call, yielded as they land.

    Construction resolves job identities and serves every slot it can
    without simulating — the engine's session cache, the checkpoint, the
    static preflight, the variant cache, and duplicates of an earlier slot
    — then resolves shared baselines and, on a pool, dispatches the first
    chunks, so independent streams on one engine overlap.  A job taken for
    dispatch is first looked up in the engine's :class:`ThresholdMemo`
    (stock runner only) and served from a sibling when its threshold and
    items per thread cannot change a single decision.  One round rule
    serves both paths: a job whose chain has a job in flight is held until
    that job completes, then checked in job order, so a pool serves
    exactly what in-process does (in-process, one job at a time, nothing
    is ever held; on a pool, a stream of one chain runs one job at a
    time).  Early-resolved slots yield first, in job order; fresh
    evaluations yield as their chunk completes — one job per chunk
    in-process, adaptively sized on a pool — while checkpoint writes and
    progress callbacks absorb them, so a consumer overlaps its own work
    with the pool's.  :meth:`records` / :meth:`report` drain the stream
    and return the job-ordered result, byte-identical to a blocking run.

    ``config.workers > 1`` runs on the engine's kept-alive pool (or on a
    transient pool of the stream's own when the engine has none); otherwise
    jobs run in-process on the engine's runner.  Both complete chunks
    through the same :meth:`_complete`.
    """

    def __init__(
        self,
        engine: "BatchEngine",
        jobs: Iterable[BatchJob],
        config: SweepConfig,
    ) -> None:
        self.config = cfg = config
        self.jobs = list(jobs)
        self._engine = engine
        self._t0 = time.monotonic()
        stock = engine.runner_factory is None

        self._slot_keys = [engine._key(job, cfg.sanitize) for job in self.jobs]
        self._slots_by_key: dict[RecordKey, list[int]] = {}
        for idx, key in enumerate(self._slot_keys):
            self._slots_by_key.setdefault(key, []).append(idx)
        engine.stats.submitted += len(self.jobs)

        # Records from earlier calls on this engine, then checkpointed
        # jobs, are trusted and never dispatched.
        index: dict[RecordKey, RunRecord] = {}
        if cfg.checkpoint is not None:
            sites = {job.site for job in self.jobs} or {None}
            if len(sites) > 1:
                raise EngineMismatchError(
                    f"{cfg.checkpoint}: one checkpoint holds one site, not "
                    f"{sorted(sites, key=str)}"
                )
            shared = engine.shared(*sites, cfg.sanitize)
            index = engine.checkpoint_index(cfg.checkpoint, shared)
        self._done: dict[RecordKey, RunRecord] = {}
        self.cache_hits = self.skipped = 0
        for key, slots in self._slots_by_key.items():
            if key in engine._cache:
                self._done[key] = engine._cache[key]
                self.cache_hits += len(slots)
            elif key in index:
                self._done[key] = index[key]
                self.skipped += len(slots)

        # In-batch dedupe: first job per identity wins, later slots share it.
        pending: OrderedDict[RecordKey, BatchJob] = OrderedDict()
        for job, key in zip(self.jobs, self._slot_keys):
            if key not in self._done and key not in pending:
                pending[key] = job
        self.deduped = (
            len(self.jobs) - self.cache_hits - self.skipped - len(pending)
        )
        engine.stats.cache_hits += self.cache_hits
        engine.stats.deduped += self.deduped

        # Static preflight: vet pending jobs in the parent (cheap — no
        # simulation) and divert the statically infeasible ones straight to
        # the results, so the pool only ever sees points that might run.
        pre = cfg.preflight
        pruned: list[tuple[RecordKey, RunRecord]] = []
        if pre:
            if pre is True:
                from repro.analysis.preflight import make_preflight

                pre = make_preflight(engine.problems)
            survivors: OrderedDict[RecordKey, BatchJob] = OrderedDict()
            for key, job in pending.items():
                rec = pre(job.app, job.device, job.point, site=job.site)
                if rec is None:
                    survivors[key] = job
                else:
                    pruned.append((key, rec))
            pending = survivors
        self.pruned = len(pruned)

        # Content-hash variant cache: identical lowered configurations from
        # *other* campaigns (different checkpoint files, figures, apps) are
        # served without simulating.  Only sound for the stock runner — a
        # custom runner_factory may not be content-deterministic.
        self.variant_hits = 0
        self._vcache = cfg.variant_cache if stock else None
        vhits: list[tuple[RecordKey, RunRecord]] = []
        if self._vcache is not None:
            fresh_pending: OrderedDict[RecordKey, BatchJob] = OrderedDict()
            for key, job in pending.items():
                rec = self._vcache.get(key)
                if rec is None:
                    fresh_pending[key] = job
                else:
                    vhits.append((key, rec))
            pending = fresh_pending
            self.variant_hits = len(vhits)

        # Baseline pre-resolution: every unique (app, device) among the
        # pending jobs, computed exactly once in the engine's runner and
        # shipped to workers alongside their chunks (a persistent pool
        # outlives any one batch).  A custom runner factory may not build
        # an ExperimentRunner at all, so it gets no shared baselines.
        self.baseline_runs = 0
        self._group_baselines: dict[tuple, dict] = {}
        if stock and pending:
            src = engine.runner
            pairs: OrderedDict[tuple, BatchJob] = OrderedDict()
            for key, job in pending.items():
                pairs.setdefault((key.app, key.device), job)
            before = src.baseline_computes
            for job in pairs.values():
                src.baseline(job.app, job.device)
            self.baseline_runs = src.baseline_computes - before
            engine.stats.baseline_runs += self.baseline_runs
            for cache_key, result in src.export_baselines().items():
                pair = (cache_key[0], cache_key[1])
                if pair in pairs:
                    self._group_baselines.setdefault(pair, {})[cache_key] = result

        progress = cfg.progress
        if progress is True:
            progress = lambda p: print(format_progress(p), file=sys.stderr)  # noqa: E731
        self._report_progress = progress if callable(progress) else None

        self._writer = (
            engine.open_checkpoint(cfg.checkpoint, shared)
            if cfg.checkpoint is not None else None
        )
        self.evaluated = self._feasible = self._infeasible = 0
        self.worker_baseline_runs = 0
        self.pool_respawns = 0
        self.elapsed = 0.0

        # Early-resolved slots yield first, in job order.
        self._ready: deque[int] = deque()
        for key in list(self._done):
            self._notify(key, self._done[key])
        # Preflight rows, then variant-cache hits (from other campaigns'
        # caches), are written into *this* checkpoint to keep it
        # self-contained.
        early = pruned + vhits
        if early and self._writer is not None:
            self._writer.write([rec for _key, rec in early])
        for key, rec in early:
            self._done[key] = rec
            self._notify(key, rec)

        # Sibling reuse is exact only for the content-deterministic
        # stock runner, like the variant cache.
        self.reused = 0
        self._memo = engine.threshold_memo if stock else None
        self._memo_keys: dict[RecordKey, RecordKey] = {}
        if self._memo is not None:
            for key, job in pending.items():
                mkey = ThresholdMemo.key(job.point, key)
                if mkey is not None:
                    self._memo_keys[key] = mkey
        #: Sibling rounds: the chains with a job in flight, each with the
        #: jobs held back until that job completes, in job order.
        self._held: dict[RecordKey, list[tuple[RecordKey, BatchJob]]] = {}

        # Group pending jobs by (app, device), taken round-robin: the
        # adaptive controller's unit of throughput on a pool, and the
        # runner's unit of app-cache locality.
        self._chunker = AdaptiveChunker(target_seconds=TARGET_CHUNK_SECONDS)
        self._groups: OrderedDict[tuple, deque] = OrderedDict()
        for key, job in pending.items():
            self._groups.setdefault((key.app, key.device), deque()).append((key, job))
        self._total_pending = len(pending)
        #: Points neither dispatched nor served (held ones included), and
        #: ``(chunk points, such points when it was sized)`` per chunk (one
        #: job in-process), in dispatch order.
        self._undispatched = len(pending)
        self.dispatch_log: list[tuple[int, int]] = []

        self._workers = max(1, int(cfg.workers))
        self._inflight: dict = {}
        self._respawns_left = MAX_POOL_RESPAWNS
        self._pool: WorkerPool | None = None
        self._owns_pool = False
        self._local: _WorkerState | None = None
        if self._workers > 1 and pending:
            self._pool = engine.pool
            if self._pool is None:
                self._pool = WorkerPool(
                    self._workers, engine._factory, engine.factory_args
                )
                self._owns_pool = True
        else:
            self._local = _WorkerState(
                engine._factory, engine.factory_args, engine.runner
            )
        self._yielded = 0
        self._finished = False
        if self._pool is not None:
            self._fill()

    # -- bookkeeping ----------------------------------------------------
    def _notify(self, key: tuple, record: RunRecord) -> None:
        self._ready.extend(self._slots_by_key.get(key, ()))
        self._engine._cache[key] = record

    def _absorb(self, keys: list[tuple], records: list[RunRecord]) -> None:
        if self._writer is not None:
            self._writer.write(records)
        for key, rec in zip(keys, records):
            self._done[key] = rec
            self.evaluated += 1
            self._feasible += rec.feasible
            self._infeasible += not rec.feasible
            if self._vcache is not None and not (rec.note or "").startswith(
                ("WorkerError", "WorkerCrash")
            ):
                # Crash/retry-exhaustion records reflect machine state, not
                # the configuration's content — never cache them.
                self._vcache.put(key, rec)
            self._notify(key, rec)
        if self._report_progress is not None:
            self._report_progress(
                SweepProgress(
                    total=self._total_pending,
                    done=self.evaluated,
                    feasible=self._feasible,
                    infeasible=self._infeasible,
                    skipped=self.skipped,
                    elapsed=time.monotonic() - self._t0,
                    deduped=self.deduped,
                )
            )

    def _next_chunk(self) -> tuple[tuple, list[tuple], list[BatchJob]]:
        """Pop the next chunk ``(group, keys, jobs)``, round-robin across
        groups for fair mixing.

        A popped job whose :class:`ThresholdMemo` chain has a job in flight
        is held until that job completes (:meth:`_release`); otherwise
        sibling reuse serves it here, right before the chunk would run it,
        or the chunk takes it and its chain becomes busy.  So a chain meets
        the memo one job at a time, in job order, exactly as in-process,
        and no chunk carries two jobs of one chain."""
        group = next(iter(self._groups))
        queue = self._groups[group]
        left = self._undispatched
        # In-process there is no IPC to amortize: one job per chunk, so
        # progress and checkpoint writes follow every point.  A pool uses
        # guided self-scheduling: never more than an even share of what is
        # left, so every worker gets part of a short stream and the tail
        # shrinks geometrically.
        size = 1 if self._pool is None else min(
            self._chunker.next_size(group), -(-left // self._workers)
        )
        keys, jobs = [], []
        while queue and len(jobs) < size:
            key, job = queue.popleft()
            mkey = self._memo_keys.get(key)
            if mkey is not None:
                if mkey in self._held:
                    self._held[mkey].append((key, job))
                    continue
                rec = self._memo.get(mkey, job.point)
                if rec is not None:
                    self._undispatched -= 1
                    self.reused += 1
                    self._absorb([key], [rec])
                    continue
                self._held[mkey] = []
            self._undispatched -= 1
            keys.append(key)
            jobs.append(job)
        if jobs:
            self.dispatch_log.append((len(jobs), left))
        # Send the group to the back of the round-robin, or drop it empty.
        if queue:
            self._groups.move_to_end(group)
        else:
            del self._groups[group]
        return group, keys, jobs

    def _release(self, group: tuple, keys: list[tuple]) -> None:
        """Free the chains of ``keys``, a chunk that completed or was
        abandoned: their held jobs go back to the front of ``group``'s
        queue, in job order, to be memo-checked like any popped job."""
        held = []
        for key in keys:
            mkey = self._memo_keys.get(key)
            if mkey is not None:
                held += self._held.pop(mkey, ())
        if held:
            self._groups.setdefault(group, deque()).extendleft(reversed(held))

    # -- dispatch -------------------------------------------------------
    def _run_args(self, group: tuple, jobs: list[BatchJob]) -> tuple:
        """Arguments of :meth:`_WorkerState.run` for one chunk of ``group``."""
        cfg = self.config
        return jobs, cfg.retries, self._group_baselines.get(group), cfg.sanitize

    def _dispatch(self, group: tuple, keys: list[tuple], jobs: list[BatchJob]) -> None:
        try:
            fut = self._pool.submit(_run_chunk, *self._run_args(group, jobs))
        except Exception:  # noqa: BLE001 — broken pool surfaces at submit too
            self._recover([(group, keys, jobs, self._pool.spawns)])
            return
        self._inflight[fut] = (group, keys, jobs, self._pool.spawns)

    def _fill(self) -> None:
        """Dispatch chunks until every worker has one in flight."""
        while len(self._inflight) < self._workers and self._groups:
            group, keys, jobs = self._next_chunk()
            if jobs:
                self._dispatch(group, keys, jobs)

    def _recover(self, casualties: list[tuple]) -> None:
        """Respawn a broken pool and re-run its lost chunks (budgeted).

        Each casualty carries the pool generation it was submitted to; the
        pool is replaced only if that generation is still current (another
        stream on the same pool may already have replaced it)."""
        if self._respawns_left > 0:
            self._respawns_left -= 1
            generation = max(gen for *_rest, gen in casualties)
            self.pool_respawns += self._pool.respawn(generation)
            for group, keys, jobs, _gen in casualties:
                self._dispatch(group, keys, jobs)
        else:
            why = (
                f"WorkerCrash: process pool broke {MAX_POOL_RESPAWNS + 1} "
                f"times; chunk abandoned"
            )
            for group, keys, jobs, _gen in casualties:
                self._absorb(keys, [
                    _failed_record(j.app, j.device, j.point, why) for j in jobs
                ])
                self._release(group, keys)

    def _complete(self, group: tuple, keys: list[tuple], result: tuple) -> None:
        """Absorb one evaluated chunk: what :meth:`_WorkerState.run`
        returned, in-process or in a pool worker."""
        records, seconds, computes, windows = result
        for key, rec, window in zip(keys, records, windows):
            mkey = self._memo_keys.get(key)
            if mkey is not None:
                self._memo.put(mkey, rec, window)
        self.worker_baseline_runs += computes
        if self._pool is not None:  # only pool chunks are sized
            self._chunker.observe(group, len(keys), seconds)
        self._absorb(keys, records)
        self._release(group, keys)

    def _pump(self) -> bool:
        """Advance the batch one step; False when no work remains."""
        if self._finished:
            return False
        if self._pool is None:
            if not self._groups:
                return False
            group, keys, jobs = self._next_chunk()
            if jobs:
                self._complete(
                    group, keys, self._local.run(*self._run_args(group, jobs))
                )
            return True
        self._fill()
        if not self._inflight:
            return False
        finished, _ = wait(self._inflight, return_when=FIRST_COMPLETED)
        casualties = []
        for fut in finished:
            group, keys, jobs, gen = self._inflight.pop(fut)
            try:
                result = fut.result()
            except Exception:  # noqa: BLE001 — a dead worker breaks the pool
                casualties.append((group, keys, jobs, gen))
                continue
            self._complete(group, keys, result)
        if casualties:
            self._recover(casualties)
        return True

    # -- iteration ------------------------------------------------------
    def __iter__(self) -> Iterator[RunRecord]:
        return self

    def __next__(self) -> RunRecord:
        try:
            while not self._ready:
                if not self._pump():
                    break
        except BaseException:
            self._finish()
            raise
        if not self._ready:
            self._finish()
            raise StopIteration
        idx = self._ready.popleft()
        self._yielded += 1
        if self._yielded == len(self.jobs):
            self._finish()
        return self._done[self._slot_keys[idx]]

    @property
    def pending(self) -> int:
        """Job slots not yet yielded."""
        return len(self.jobs) - self._yielded

    def records(self) -> list[RunRecord]:
        """Drain the stream; all records in job order (blocking-equivalent)."""
        for _ in self:
            pass
        return [self._done[key] for key in self._slot_keys]

    def report(self) -> BatchReport:
        """Drain the stream into a :class:`BatchReport`.

        Engine cache hits count as ``skipped`` — like checkpoint hits, they
        are slots satisfied without running this call."""
        records = self.records()
        return BatchReport(
            records=records,
            evaluated=self.evaluated,
            skipped=self.skipped + self.cache_hits,
            deduped=self.deduped,
            pruned=self.pruned,
            variant_hits=self.variant_hits,
            reused=self.reused,
            baseline_runs=self.baseline_runs,
            worker_baseline_runs=self.worker_baseline_runs,
            elapsed=self.elapsed,
            checkpoint=(
                str(self.config.checkpoint)
                if self.config.checkpoint is not None else None
            ),
            extra={
                "dispatch_log": list(self.dispatch_log),
                "pool_respawns": self.pool_respawns,
            },
        )

    def close(self) -> None:
        """Stop dispatching; absorb in-flight chunks, drop the rest.

        Everything already completed stays in the checkpoint and the
        engine cache, so a partially-consumed stream never loses finished
        work; slots never evaluated (held siblings included) are simply
        never yielded."""
        if self._finished:
            return
        self._groups.clear()
        self._held.clear()
        while self._inflight:
            if not self._pump():
                break
        self._finish()

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.elapsed = time.monotonic() - self._t0
        if self._writer is not None:
            self._writer.close()
        if self._owns_pool:
            self._pool.shutdown()
        stats = self._engine.stats
        stats.executed += self.evaluated
        stats.skipped += self.skipped
        stats.pruned += self.pruned
        stats.variant_hits += self.variant_hits
        stats.reused += self.reused
        stats.worker_baseline_runs += self.worker_baseline_runs
        stats.elapsed += self.elapsed
        self._engine._sync_pool_stats()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            if not self._finished:
                self._groups.clear()
                self._inflight.clear()
                self._finish()
        except Exception:
            pass


# ----------------------------------------------------------------------
@dataclass
class EngineStats:
    """Cumulative counters across one :class:`BatchEngine`'s lifetime."""

    #: Job slots requested through the engine.
    submitted: int = 0
    #: Points evaluated: simulated, or served by sibling reuse.
    executed: int = 0
    #: Evaluated points served from a sibling's record without simulating
    #: (see :class:`ThresholdMemo`); a subset of ``executed``.
    reused: int = 0
    #: Slots served from the engine's session cache (cross-call dedupe).
    cache_hits: int = 0
    #: Duplicate slots collapsed inside single calls.
    deduped: int = 0
    #: Slots served from the checkpoint file.
    skipped: int = 0
    #: Slots recorded by the static preflight without simulating.
    pruned: int = 0
    #: Slots served from the content-hash variant cache (cross-campaign
    #: dedupe; see :class:`repro.harness.pruning.VariantCache`).
    variant_hits: int = 0
    #: Unique (app, device) baselines computed, session-wide.
    baseline_runs: int = 0
    #: Baselines recomputed by the evaluating runners (0 when sharing
    #: works).
    worker_baseline_runs: int = 0
    #: Process pools spawned for this engine (1 for a whole session once
    #: warm; crash respawns add to it).
    pool_spawns: int = 0
    #: Pools respawned after a worker crash broke the executor.
    pool_respawns: int = 0
    elapsed: float = 0.0


class BatchEngine:
    """Session-scoped front-end to the batch layer; see :meth:`submit`.

    Holds one parent :class:`ExperimentRunner` (the baseline cache and the
    in-process executor), one in-memory record cache keyed by
    :class:`~repro.harness.database.RecordKey` — so *independent callers*
    (Fig 6 and Fig 7, a search and a figure) share overlapping points
    instead of simulating them twice — and, for ``config.workers > 1``, one
    kept-alive :class:`WorkerPool` reused by every :meth:`submit`, so
    consecutive batches amortize the pool spawn (``stats.pool_spawns``
    asserts it).
    ``close()`` (or the context manager) releases the pool.

    ``runner_factory(*factory_args)`` builds the runners (parent and pool
    workers alike); it must be a picklable top-level callable for a pool.
    The default builds ``ExperimentRunner(problems=problems, seed=seed)``.
    A custom factory disables baseline sharing and the variant cache (its
    runner may not be an :class:`ExperimentRunner` at all).
    """

    def __init__(
        self,
        *,
        problems: dict | None = None,
        seed: int = 2023,
        config: SweepConfig | None = None,
        runner: ExperimentRunner | None = None,
        runner_factory: Callable[..., ExperimentRunner] | None = None,
        factory_args: tuple | None = None,
    ) -> None:
        self.config = config if config is not None else SweepConfig()
        if runner is not None:
            problems, seed = runner.problems, runner.seed
        #: The problems and seed this engine simulates with.
        self.problems = problems or {}
        self.seed = seed
        self.runner_factory = runner_factory
        self._factory = runner_factory or _default_factory
        self.factory_args = (
            tuple(factory_args) if factory_args is not None
            else (self.problems, self.seed)
        )
        self.runner = runner or self._factory(*self.factory_args)
        self.stats = EngineStats()
        self._problems_json = shared_fields(seed, self.problems)["problems"]
        self._cache: dict[RecordKey, RunRecord] = {}
        #: Per checkpoint file: its shared fields and its index.
        self._checkpoints: dict[str, tuple[dict, dict[RecordKey, RunRecord]]] = {}
        #: Windows of this engine's simulated TAF/iACT/perforation points.
        self.threshold_memo = ThresholdMemo()
        self._dev_names: dict[str, str] = {}
        self.pool: WorkerPool | None = (
            WorkerPool(self.config.workers, self._factory, self.factory_args)
            if self.config.workers > 1
            else None
        )
        self._closed = False

    def check_matches(self, problems: dict | None, seed: int) -> None:
        """Raise :class:`~repro.errors.EngineMismatchError` unless a sweep's
        ``problems`` (when given) and ``seed`` are the ones this engine
        simulates with."""
        asked = shared_fields(seed, self.problems if problems is None else problems)
        check_shared("the engine", self.shared(None, False), asked)

    def _key(self, job: BatchJob, sanitize: bool) -> RecordKey:
        """The :class:`~repro.harness.database.RecordKey` of ``job``'s record
        (device presets memoized)."""
        if isinstance(job.device, DeviceSpec):
            name = job.device.name
        else:
            name = self._dev_names.get(job.device)
            if name is None:
                name = get_device(job.device).name
                self._dev_names[job.device] = name
        return RecordKey(
            job.app, name, job.point.label(), job.site, bool(sanitize),
            self.seed, self._problems_json,
        )

    def shared(self, site: str | None, sanitize: bool) -> dict:
        """The checkpoint header fields of this engine's records for
        ``site`` and ``sanitize``."""
        return shared_fields(self.seed, self.problems, site, sanitize)

    def checkpoint_index(
        self, path: str | Path, shared: dict
    ) -> dict[RecordKey, RunRecord]:
        """The checkpoint at ``path`` as ``RecordKey -> latest record``,
        read once per engine and kept current by :meth:`open_checkpoint`'s
        writers.  A file of other ``shared`` fields (:meth:`shared`), or of
        records behind no such header, raises
        :class:`~repro.errors.EngineMismatchError` naming the file and the
        field; a missing or record-less file is adopted."""
        key = os.path.abspath(path)
        if key not in self._checkpoints:
            db = ResultsDB.load(path) if Path(path).exists() else ResultsDB()
            if db.shared is None and db.records:
                raise EngineMismatchError(
                    f"{path}: holds records but no header with their seed, "
                    f"problems, site and sanitize flag, so it cannot be "
                    f"resumed; start a new checkpoint file"
                )
            if db.shared is None:  # no records: rewrite it behind a header
                Path(path).unlink(missing_ok=True)
            held = db.shared or shared
            self._checkpoints[key] = (held, {
                RecordKey.of_record(r, held): r for r in db.records
            })
        held, index = self._checkpoints[key]
        check_shared(path, held, shared)
        return index

    def open_checkpoint(self, path: str | Path, shared: dict) -> CheckpointWriter:
        """An append writer on ``path`` that keeps its index current (see
        :meth:`checkpoint_index`)."""
        return CheckpointWriter(path, shared, self.checkpoint_index(path, shared))

    def _sync_pool_stats(self) -> None:
        if self.pool is not None:
            self.stats.pool_spawns = self.pool.spawns
            self.stats.pool_respawns = self.pool.respawns

    def submit(
        self, jobs: list[BatchJob], config: SweepConfig | None = None
    ) -> BatchStream:
        """Start evaluating ``jobs``; returns a stream of their records.

        A job's one identity is its
        :class:`~repro.harness.database.RecordKey`: app, device name, point
        label, site, ``config.sanitize``, and the engine's seed and
        problems.  Duplicate jobs evaluate once, and records of earlier
        calls on this engine are reused for the same key only.
        ``checkpoint`` (a JSONL or ``.jsonl.gz`` file, shared across any mix
        of apps and devices) satisfies previously-run jobs by the same key
        without simulating.  One file holds one (seed, problems, site,
        sanitize), in its header: jobs of several sites, or a file of
        another identity, raise :class:`~repro.errors.EngineMismatchError`.

        ``config`` is the complete policy for this call, used as given;
        ``None`` means the engine's own.  Callers that overlay a partial
        policy resolve ``engine.config.merged(theirs)`` first."""
        return BatchStream(self, jobs, self.config if config is None else config)

    def run_jobs(self, jobs: list[BatchJob]) -> list[RunRecord]:
        """Evaluate ``jobs``, returning one record per job in job order."""
        return self.submit(jobs).records()

    def run_point(
        self,
        app: str,
        device: str | DeviceSpec,
        point: SweepPoint,
        site: str | None = None,
    ) -> RunRecord:
        """Drop-in for :meth:`ExperimentRunner.run_point` through the engine."""
        return self.run_jobs([BatchJob(app, device, point, site=site)])[0]

    def close(self) -> None:
        """Release the persistent pool (cache and stats stay readable)."""
        if self._closed:
            return
        self._closed = True
        if self.pool is not None:
            self._sync_pool_stats()
            self.pool.shutdown()

    def __enter__(self) -> "BatchEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
def run_sweep_parallel(
    app: str,
    device: str | DeviceSpec,
    points: list[SweepPoint],
    *,
    site: str | None = None,
    problems: dict | None = None,
    seed: int = 2023,
    config: SweepConfig | None = None,
    engine: BatchEngine | None = None,
) -> BatchReport:
    """Execute ``points`` for one app/device, in parallel, resumably.

    ``engine`` runs the sweep on an existing :class:`BatchEngine` — its
    warm worker pool and session record cache — with ``config`` overlaid
    on the engine's own policy; the engine simulates with its own problems
    and seed, so a ``problems`` (when given) or ``seed`` that differs from
    them raises :class:`~repro.errors.EngineMismatchError`.  Without one, a
    transient engine is built from ``problems``, ``seed`` and ``config``
    and closed on return.

    The resolved policy is decided once, here: ``prune`` runs the
    lattice-pruned driver (:func:`repro.harness.pruning.run_sweep_pruned`;
    the records of every point it evaluates are byte-identical to an
    unpruned sweep's); otherwise the points are one
    :meth:`BatchEngine.submit`.  See :class:`~repro.harness.config.SweepConfig`
    for the policy fields (workers, checkpoint, retries, progress,
    preflight, sanitize, prune, variant cache)."""
    owned = engine is None
    if owned:
        engine = BatchEngine(problems=problems, seed=seed, config=config)
    else:
        engine.check_matches(problems, seed)
    cfg = engine.config.merged(config)
    try:
        if cfg.prune:
            if engine.runner_factory is not None:
                raise ValueError(
                    "SweepConfig(prune=...) requires the stock runner; "
                    "an engine with a runner_factory is not supported"
                )
            from repro.harness import pruning

            return pruning.run_sweep_pruned(
                app, device, points, site=site, config=cfg, engine=engine
            )
        jobs = [BatchJob(app, device, pt, site=site) for pt in points]
        return engine.submit(jobs, config=cfg).report()
    finally:
        if owned:
            engine.close()
