"""Heterogeneous batch evaluation: the one path every job goes through.

:meth:`BatchEngine.submit` is the single way jobs get evaluated.  An
engine holds one parent :class:`~repro.harness.runner.ExperimentRunner`
(the baseline cache and the in-process executor), one in-memory record
cache keyed by :class:`~repro.harness.database.RecordKey`, and — from
the first call with ``workers > 1`` — one kept-alive :class:`WorkerPool`.
Parent, in-process and pool runners are all
``ExperimentRunner(problems=, seed=)``.  ``submit`` returns
a :class:`BatchStream` that serves every slot it can without simulating
(the engine cache, the checkpoint, duplicates of an earlier slot, and —
as each job is popped — lattice pruning, the static preflight, the
variant cache and sibling reuse), evaluates the rest in chunks — one
job each in-process, adaptively sized on a pool — and yields records as
they complete.
Blocking callers drain the stream (``submit(jobs).records()`` or
``.report()``, as :func:`run_sweep_parallel` does), so streamed and
blocking record sets are identical by construction.

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
    record_status,
    shared_fields,
)
from repro.harness.pruning import (
    DEFAULT_QOI_BOUND,
    lattice_order,
    pruned_record,
    violates,
)
from repro.harness.reporting import SweepProgress, format_progress
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.sweep import SweepPoint

#: Record statuses no cache keeps: a ``pruned`` row is a verdict under one
#: stream's bound and an ``error`` row reflects machine state, so neither
#: is the configuration's record for a later call to reuse.
UNCACHEABLE = ("pruned", "error")

#: Chunk size used for a group before any throughput has been observed —
#: deliberately small so the controller gets feedback after little work.
INITIAL_CHUNK_SIZE = 2
MIN_CHUNK_SIZE = 1
MAX_CHUNK_SIZE = 8
#: Wall-clock one adaptively-sized chunk should cost once a job group's
#: throughput is known.
TARGET_CHUNK_SECONDS = 0.8
#: Pool respawns one stream tolerates before recording the affected jobs
#: as infeasible (a chunk that reliably kills workers must not respawn
#: forever).
MAX_POOL_RESPAWNS = 3


@dataclass(frozen=True)
class BatchJob:
    """One unit of work: evaluate ``point`` for ``app`` on ``device``."""

    app: str
    device: str | DeviceSpec
    point: SweepPoint
    site: str | None = None


@dataclass
class BatchReport:
    """Outcome of one drained :class:`BatchStream`; ``extra`` carries its
    ``dispatch_log``, ``pool_respawns``, ``lattice_pruned`` and
    ``qoi_bound`` (``None`` unpruned)."""

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
    runner: ExperimentRunner,
    app: str,
    device: str | DeviceSpec,
    point: SweepPoint,
    site: str | None = None,
    retries: int = 1,
    rebuild: Callable[[], ExperimentRunner] | None = None,
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
    last: Exception | None = None
    for attempt in range(max(0, retries) + 1):
        if attempt and rebuild is not None:
            try:
                runner = rebuild()
            except Exception:  # noqa: BLE001 — keep the old instance over losing the point
                pass
        try:
            return runner.run_point(app, device, point, site=site, sanitize=sanitize)
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

    def __init__(
        self, problems: dict, seed: int, runner: ExperimentRunner | None = None
    ) -> None:
        self.problems, self.seed = problems, seed
        self.baselines: dict = {}
        #: Baseline computes of runners a rebuild replaced.
        self.retired_computes = 0
        self.runner = runner or ExperimentRunner(problems=problems, seed=seed)

    def rebuild(self) -> ExperimentRunner:
        """Replace a possibly-poisoned runner with a fresh, primed one."""
        self.retired_computes += self.runner.baseline_computes
        self.runner = ExperimentRunner(problems=self.problems, seed=self.seed)
        self.runner.prime_baselines(self.baselines)
        return self.runner

    def _computes(self) -> int:
        return self.retired_computes + self.runner.baseline_computes

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
            self.runner.prime_baselines(baselines)
        before = self._computes()
        t0 = time.monotonic()
        records, windows = [], []
        for job in chunk:
            records.append(run_point_with_retry(
                self.runner, job.app, job.device, job.point, site=job.site,
                retries=retries, rebuild=self.rebuild, sanitize=sanitize,
            ))
            windows.append(self.runner.last_window)
        return records, time.monotonic() - t0, self._computes() - before, windows


#: This pool worker's state, set by the pool initializer.
_WORKER: _WorkerState | None = None


def _init_batch_worker(problems: dict, seed: int) -> None:
    global _WORKER
    _WORKER = _WorkerState(problems, seed)


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
        self, max_workers: int, problems: dict | None = None, seed: int = 2023
    ) -> None:
        self.max_workers = max(1, int(max_workers))
        self.problems, self.seed = problems or {}, seed
        self.spawns = 0
        self.respawns = 0
        self._executor: ProcessPoolExecutor | None = None

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_batch_worker,
                initargs=(self.problems, self.seed),
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

    Construction resolves identity only: slots the engine's session cache
    or the checkpoint already hold are served at once (and yield first, in
    job order), a duplicate of an earlier slot shares its record, and the
    remaining jobs queue per (app, device) in job order.  With
    ``config.prune`` set, one :class:`~repro.harness.pruning.SweepLattice`
    per (app, device, site) spans the stream's unique keys, and each queue
    is sorted by (lattice height, job order), so every job comes after its
    ancestors.

    A queued job meets one decision ladder when it is popped
    (:meth:`_next_chunk`):

    1. its :class:`ThresholdMemo` chain is busy with another job: it is
       held behind that job;
    2. a lattice ancestor has no record yet: it is held on that ancestor,
       and its chain is busy with it;
    3. an ancestor violates the QoI bound: a ``pruned`` row naming the
       least aggressive violator
       (:func:`~repro.harness.pruning.pruned_record`);
    4. ``config.preflight`` finds it statically infeasible
       (:func:`repro.analysis.preflight.make_preflight` on the engine's
       problems): the preflight's row;
    5. ``config.variant_cache`` holds its record;
    6. a chain sibling's window admits it: that record, re-labelled;
    7. otherwise it is dispatched, and its chain is busy until it lands.

    Any record that lands releases the jobs held on its key, in held
    order, to the front of their queue.  In-process a chunk is one job
    that lands before the next pop, so nothing is ever held; on a pool the
    holds make each chain meet the memo in that same order, so a pool
    evaluates, reuses and prunes exactly what in-process does.  Rows of
    steps 3-5 are written and yielded like evaluated ones, but count
    neither as ``evaluated`` nor enter the variant cache.  Fresh records
    yield as their chunk completes — one job per chunk in-process,
    adaptively sized on the engine's one pool (``config.workers > 1``,
    :meth:`BatchEngine.pool_for`) — while checkpoint writes and progress
    callbacks absorb them, so a consumer overlaps its own work with the
    pool's.  :meth:`records` / :meth:`report` drain the stream and return
    the job-ordered result, byte-identical to a blocking run.
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

        self._slot_keys = [engine._key(job, cfg.sanitize) for job in self.jobs]
        self._slots_by_key: dict[RecordKey, list[int]] = {}
        for idx, key in enumerate(self._slot_keys):
            self._slots_by_key.setdefault(key, []).append(idx)
        engine.stats.submitted += len(self.jobs)

        # Records from earlier calls on this engine, then checkpointed
        # jobs, are trusted and never dispatched.  A checkpoint's ``error``
        # rows (machine state, not the point's outcome) run again.
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
        resumable = {
            key for key in self._slots_by_key
            if key in index and record_status(index[key]) != "error"
        }
        self._done: dict[RecordKey, RunRecord] = {}
        self.cache_hits = self.skipped = 0
        for key, slots in self._slots_by_key.items():
            if key in engine._cache:
                self._done[key] = engine._cache[key]
                self.cache_hits += len(slots)
            elif key in resumable:
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

        queued = list(pending.items())
        #: Each pending key's lattice ancestors, least aggressive first.
        self._ancestors: dict[RecordKey, list[RecordKey]] = {}
        self.qoi_bound: float | None = None
        if cfg.prune:
            self.qoi_bound = (
                DEFAULT_QOI_BOUND if cfg.prune is True else float(cfg.prune)
            )
            heights, self._ancestors = lattice_order({
                key: self.jobs[slots[0]].point
                for key, slots in self._slots_by_key.items()
            })
            queued.sort(key=lambda kj: heights[kj[0]])
        self._preflight = None
        if cfg.preflight:
            # Looked up per stream, so a patched ``make_preflight`` is seen.
            from repro.analysis.preflight import make_preflight

            self._preflight = make_preflight(engine.problems)
        self._vcache = cfg.variant_cache

        progress = cfg.progress
        if progress is True:
            progress = lambda p: print(format_progress(p), file=sys.stderr)  # noqa: E731
        self._report_progress = progress if callable(progress) else None

        self._writer = None
        if cfg.checkpoint is not None:
            self._writer = engine.open_checkpoint(cfg.checkpoint, shared)
            # Slots the engine cache served go into this checkpoint too, so
            # the file resumes the whole call in a new process.
            cached = [
                rec for key, rec in self._done.items() if key not in resumable
            ]
            if cached:
                self._writer.write(cached)
        self.evaluated = self.reused = self.pruned = self.lattice_pruned = 0
        self.variant_hits = self._resolved = self._feasible = 0
        self.baseline_runs = self.worker_baseline_runs = 0
        self.pool_respawns = 0
        self.elapsed = 0.0
        #: Per (app, device): the parent's baselines shipped with its chunks,
        #: resolved when the group first dispatches.
        self._group_baselines: dict[tuple, dict] = {}

        # Early-resolved slots yield first, in job order.
        self._ready: deque[int] = deque()
        for key in list(self._done):
            self._notify(key, self._done[key])

        self._memo = engine.threshold_memo
        self._memo_keys: dict[RecordKey, RecordKey] = {}
        for key, job in queued:
            mkey = ThresholdMemo.key(job.point, key)
            if mkey is not None:
                self._memo_keys[key] = mkey
        #: Blocking key -> the jobs held on it, in held order.
        self._held: dict[RecordKey, list[tuple[RecordKey, BatchJob]]] = {}
        #: Memo chain -> the job it is busy with (in flight, or held on an
        #: ancestor).
        self._busy: dict[RecordKey, RecordKey] = {}

        # Group pending jobs by (app, device), taken round-robin: the
        # adaptive controller's unit of throughput on a pool, and the
        # runner's unit of app-cache locality.
        self._chunker = AdaptiveChunker(target_seconds=TARGET_CHUNK_SECONDS)
        self._groups: OrderedDict[tuple, deque] = OrderedDict()
        for key, job in queued:
            self._groups.setdefault((key.app, key.device), deque()).append((key, job))
        self._total_pending = len(pending)
        #: Points neither dispatched nor resolved (held ones included), and
        #: ``(chunk points, such points when it was sized)`` per chunk (one
        #: job in-process), in dispatch order.
        self._undispatched = len(pending)
        self.dispatch_log: list[tuple[int, int]] = []

        self._workers = max(1, int(cfg.workers))
        self._inflight: dict = {}
        self._respawns_left = MAX_POOL_RESPAWNS
        self._pool: WorkerPool | None = None
        self._local: _WorkerState | None = None
        if self._workers > 1 and pending:
            self._pool = engine.pool_for(self._workers)
        else:
            self._local = _WorkerState(engine.problems, engine.seed, engine.runner)
        self._yielded = 0
        self._finished = False
        if self._pool is not None:
            self._fill()

    # -- bookkeeping ----------------------------------------------------
    def _notify(self, key: RecordKey, record: RunRecord) -> None:
        self._ready.extend(self._slots_by_key.get(key, ()))
        if record_status(record) not in UNCACHEABLE:
            self._engine._cache[key] = record

    def _land(
        self, keys: list[RecordKey], records: list[RunRecord], evaluated: bool = True
    ) -> None:
        """Take in resolved jobs: checkpoint, count and yield their records,
        and release what they held (:meth:`_release`)."""
        if self._writer is not None:
            self._writer.write(records)
        for key, rec in zip(keys, records):
            self._done[key] = rec
            self._resolved += 1
            self._feasible += rec.feasible
            if evaluated:
                self.evaluated += 1
                if (self._vcache is not None
                        and record_status(rec) not in UNCACHEABLE):
                    self._vcache.put(key, rec)
            self._notify(key, rec)
        self._release(keys)
        if self._report_progress is not None:
            self._report_progress(
                SweepProgress(
                    total=self._total_pending,
                    done=self._resolved,
                    feasible=self._feasible,
                    infeasible=self._resolved - self._feasible,
                    skipped=self.skipped,
                    elapsed=time.monotonic() - self._t0,
                    deduped=self.deduped,
                )
            )

    def _release(self, keys: list[RecordKey]) -> None:
        """Free what ``keys`` blocked once their records landed (or their
        chunk was abandoned): the jobs held on them go back to the front of
        their queue, in held order, and their chains are no longer busy."""
        held = []
        for key in keys:
            held += self._held.pop(key, ())
            mkey = self._memo_keys.get(key)
            if mkey is not None and self._busy.get(mkey) == key:
                del self._busy[mkey]
        if held:
            key = held[0][0]
            self._groups.setdefault((key.app, key.device), deque()).extendleft(
                reversed(held)
            )

    def _blocker(self, key: RecordKey) -> RecordKey | None:
        """The key a popped job must wait for (ladder steps 1-2), if any."""
        mkey = self._memo_keys.get(key)
        owner = self._busy.get(mkey, key)
        if owner != key:
            return owner
        for anc in self._ancestors.get(key, ()):
            if anc not in self._done:
                if mkey is not None:
                    self._busy[mkey] = key
                return anc
        return None

    def _serve(self, key: RecordKey, job: BatchJob) -> tuple[RunRecord, bool] | None:
        """The record ladder steps 3-6 give a popped job without
        simulating it, and whether it counts as evaluated; ``None`` when
        it must run."""
        bound = self.qoi_bound
        if bound is not None:
            for anc in self._ancestors[key]:
                rec = self._done[anc]
                if violates(rec, bound):
                    self.lattice_pruned += 1
                    return pruned_record(
                        key.app, key.device, job.point, anc.label,
                        float(rec.error), bound,
                    ), False
        if self._preflight is not None:
            rec = self._preflight(job.app, job.device, job.point, site=job.site)
            if rec is not None:
                self.pruned += 1
                return rec, False
        if self._vcache is not None:
            rec = self._vcache.get(key)
            if rec is not None:
                self.variant_hits += 1
                return rec, False
        mkey = self._memo_keys.get(key)
        if mkey is not None:
            rec = self._memo.get(mkey, job.point)
            if rec is not None:
                self.reused += 1
                return rec, True
        return None

    def _next_chunk(self) -> tuple[tuple, list[RecordKey], list[BatchJob]]:
        """Pop the next chunk ``(group, keys, jobs)``, round-robin across
        groups for fair mixing, each popped job through the decision
        ladder.  So a chain meets the memo one job at a time, in queue
        order, exactly as in-process, and no chunk carries two jobs of
        one chain."""
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
            blocker = self._blocker(key)
            if blocker is not None:
                self._held.setdefault(blocker, []).append((key, job))
                continue
            self._undispatched -= 1
            served = self._serve(key, job)
            if served is not None:
                rec, evaluated = served
                self._land([key], [rec], evaluated)
                continue
            mkey = self._memo_keys.get(key)
            if mkey is not None:
                self._busy[mkey] = key
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

    # -- dispatch -------------------------------------------------------
    def _run_args(self, group: tuple, jobs: list[BatchJob]) -> tuple:
        """Arguments of :meth:`_WorkerState.run` for one chunk of ``group``."""
        cfg = self.config
        baselines = self._group_baselines.get(group)
        if baselines is None:
            # Computed once in the engine's runner and shipped with the
            # group's chunks (a persistent pool outlives any one batch).
            src = self._engine.runner
            before = src.baseline_computes
            src.baseline(jobs[0].app, jobs[0].device)
            runs = src.baseline_computes - before
            self.baseline_runs += runs
            self._engine.stats.baseline_runs += runs
            baselines = self._group_baselines[group] = {
                cache_key: result
                for cache_key, result in src.export_baselines().items()
                if (cache_key[0], cache_key[1]) == group
            }
        return jobs, cfg.retries, baselines, cfg.sanitize

    def _dispatch(self, group: tuple, keys: list[RecordKey], jobs: list[BatchJob]) -> None:
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
            for _group, keys, jobs, _gen in casualties:
                self._land(keys, [
                    _failed_record(j.app, j.device, j.point, why) for j in jobs
                ])

    def _complete(self, group: tuple, keys: list[RecordKey], result: tuple) -> None:
        """Land one evaluated chunk: what :meth:`_WorkerState.run`
        returned, in-process or in a pool worker."""
        records, seconds, computes, windows = result
        for key, rec, window in zip(keys, records, windows):
            mkey = self._memo_keys.get(key)
            if mkey is not None:
                self._memo.put(mkey, rec, window)
        self.worker_baseline_runs += computes
        if self._pool is not None:  # only pool chunks are sized
            self._chunker.observe(group, len(keys), seconds)
        self._land(keys, records)

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
                "lattice_pruned": self.lattice_pruned,
                "qoi_bound": self.qoi_bound,
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
        self._busy.clear()
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
    #: Process pools spawned by this engine's one pool (1 for a whole
    #: session; crash respawns add to it).
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
    instead of simulating them twice — and one :class:`WorkerPool`,
    created on the first :meth:`submit` whose config has ``workers > 1``
    and reused by every later one, so consecutive batches amortize the
    pool spawn (``stats.pool_spawns`` counts every spawn).
    ``close()`` (or the context manager) releases the pool.

    Every runner — the parent (:attr:`runner`), an in-process stream's, a
    pool worker's — is ``ExperimentRunner(problems=problems, seed=seed)``.
    """

    def __init__(
        self,
        *,
        problems: dict | None = None,
        seed: int = 2023,
        config: SweepConfig | None = None,
    ) -> None:
        self.config = config if config is not None else SweepConfig()
        #: The problems and seed this engine simulates with.
        self.problems = problems or {}
        self.seed = seed
        self.runner = ExperimentRunner(problems=self.problems, seed=seed)
        self.stats = EngineStats()
        self._problems_json = shared_fields(seed, self.problems)["problems"]
        self._cache: dict[RecordKey, RunRecord] = {}
        #: Per checkpoint file: its shared fields and its index.
        self._checkpoints: dict[str, tuple[dict, dict[RecordKey, RunRecord]]] = {}
        #: Windows of this engine's simulated TAF/iACT/perforation points.
        self.threshold_memo = ThresholdMemo()
        self._dev_names: dict[str, str] = {}
        #: The engine's one pool, created by :meth:`pool_for`.
        self.pool: WorkerPool | None = None
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

    def pool_for(self, workers: int) -> WorkerPool:
        """The engine's pool, created with ``workers`` processes on first use."""
        if self.pool is None:
            self.pool = WorkerPool(workers, self.problems, self.seed)
        return self.pool

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
        without simulating; its ``error`` rows run again.  One file holds
        one (seed, problems, site, sanitize), in its header: jobs of
        several sites, or a file of another identity, raise
        :class:`~repro.errors.EngineMismatchError`.

        ``config`` is the complete policy for this call, used as given;
        ``None`` means the engine's own.  Callers that overlay a partial
        policy resolve ``engine.config.merged(theirs)`` first."""
        return BatchStream(self, jobs, self.config if config is None else config)

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

    The policy is resolved once, here, and the points are one
    :meth:`BatchEngine.submit` (through
    :func:`repro.harness.pruning.run_sweep_pruned` when ``prune`` is set;
    the records of every point a pruned sweep evaluates are byte-identical
    to an unpruned sweep's).  See :class:`~repro.harness.config.SweepConfig`
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
            from repro.harness import pruning

            return pruning.run_sweep_pruned(
                app, device, points, site=site, config=cfg, engine=engine
            )
        jobs = [BatchJob(app, device, pt, site=site) for pt in points]
        return engine.submit(jobs, config=cfg).report()
    finally:
        if owned:
            engine.close()
