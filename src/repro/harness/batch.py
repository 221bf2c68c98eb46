"""Heterogeneous batch evaluation: the one path every job goes through.

:meth:`BatchEngine.submit` is the single way jobs get evaluated.  An
engine holds one parent :class:`~repro.harness.runner.ExperimentRunner`
(the baseline cache and the in-process executor), one in-memory record
cache keyed by the checkpoint label space, and — for ``workers > 1`` — one
kept-alive :class:`WorkerPool`.  ``submit`` returns a :class:`BatchStream`
that serves every slot it can without simulating (the engine cache, the
checkpoint, the static preflight, the variant cache, duplicates of an
earlier slot), then evaluates the rest in adaptively-sized chunks and
yields records as those chunks complete.  The blocking helpers
(:meth:`BatchEngine.run_jobs`, :meth:`BatchEngine.run_point`,
:func:`run_sweep_parallel`) are drains of the same stream, so streamed and
blocking record sets are identical by construction.

The serial path (``workers <= 1``) runs the same code in-process and
produces byte-identical records (the simulation is deterministic per
seed).
"""

from __future__ import annotations

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
from repro.harness.database import CheckpointWriter, ResultsDB
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
    #: Baselines computed inside pool workers (0 when sharing works).
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
        #: (group, points, seconds) per observed chunk, for introspection.
        self.log: list[tuple] = []

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
        self.log.append((group, points, seconds))


# ----------------------------------------------------------------------
# Retry wrapper.  Shared by the serial and worker paths.
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
    update whatever slot the caller reuses across points (the worker
    global, a closure variable) so later points get the fresh instance."""
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
    return RunRecord(
        app=app,
        device=get_device(device).name,
        technique=point.technique,
        params=dict(point.params),
        level=point.level,
        items_per_thread=point.items_per_thread,
        feasible=False,
        note=(
            f"WorkerError after {retries + 1} attempts: "
            f"{type(last).__name__}: {last}"
        ),
    )


def _window(runner) -> ThresholdWindow | None:
    """The threshold window of ``runner``'s last ``run_point``.

    Read after :func:`run_point_with_retry` from the runner it left in
    place (a retry may have rebuilt it).  ``run_point`` resets the window
    first, so a failed attempt never leaves a stale one behind."""
    return getattr(runner, "last_window", None)


def _crash_record(job: BatchJob, why: str) -> RunRecord:
    """Infeasible record for a job lost to repeated pool crashes."""
    return RunRecord(
        app=job.app,
        device=get_device(job.device).name,
        technique=job.point.technique,
        params=dict(job.point.params),
        level=job.point.level,
        items_per_thread=job.point.items_per_thread,
        feasible=False,
        note=f"WorkerCrash: {why}",
    )


# ----------------------------------------------------------------------
# Worker side.  Each pool process builds one runner in its initializer and
# reuses it for every chunk; baselines arrive *with the chunks* (a
# persistent pool outlives any single batch's baseline set) and accumulate
# in ``_BATCH_BASELINES`` so a retry rebuild re-primes everything seen.
_BATCH_FACTORY: Callable | None = None
_BATCH_ARGS: tuple = ()
_BATCH_BASELINES: dict = {}
_BATCH_RUNNER = None
_BATCH_RETIRED_COMPUTES = 0


def _build_worker_runner():
    runner = _BATCH_FACTORY(*_BATCH_ARGS)
    if _BATCH_BASELINES and hasattr(runner, "prime_baselines"):
        runner.prime_baselines(_BATCH_BASELINES)
    return runner


def _rebuild_batch_runner():
    """Replace a possibly-poisoned worker runner with a fresh, primed one."""
    global _BATCH_RUNNER, _BATCH_RETIRED_COMPUTES
    _BATCH_RETIRED_COMPUTES += getattr(_BATCH_RUNNER, "baseline_computes", 0)
    _BATCH_RUNNER = _build_worker_runner()
    return _BATCH_RUNNER


def _init_batch_worker(factory: Callable, args: tuple) -> None:
    global _BATCH_FACTORY, _BATCH_ARGS, _BATCH_BASELINES
    _BATCH_FACTORY, _BATCH_ARGS, _BATCH_BASELINES = factory, args, {}
    _rebuild_batch_runner()


def _worker_baseline_computes() -> int:
    return _BATCH_RETIRED_COMPUTES + getattr(_BATCH_RUNNER, "baseline_computes", 0)


def _run_chunk(
    chunk: list[tuple],
    retries: int,
    baselines: dict | None = None,
    sanitize: bool = False,
) -> tuple[list, float, int, list]:
    """Run one heterogeneous chunk; returns (records, seconds, baseline
    runs, windows).

    ``seconds`` is measured in the worker so the adaptive controller sees
    compute time, not queue wait."""
    assert _BATCH_RUNNER is not None, "pool initializer did not run"
    if baselines:
        _BATCH_BASELINES.update(baselines)
        if hasattr(_BATCH_RUNNER, "prime_baselines"):
            _BATCH_RUNNER.prime_baselines(baselines)
    before = _worker_baseline_computes()
    t0 = time.monotonic()
    records, windows = [], []
    for app, device, point, site in chunk:
        records.append(run_point_with_retry(
            _BATCH_RUNNER, app, device, point, site=site,
            retries=retries, rebuild=_rebuild_batch_runner, sanitize=sanitize,
        ))
        windows.append(_window(_BATCH_RUNNER))
    return (
        records, time.monotonic() - t0, _worker_baseline_computes() - before,
        windows,
    )


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

    @property
    def alive(self) -> bool:
        return self._executor is not None

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
    ``items_per_thread``; its key is (app, device name, technique, the
    other params, level, site, sanitize) — the engine fixes problems and
    seed.  TAF, iACT and perforation points have chains; perforation has
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
    def key(job: BatchJob, device_name: str, sanitize: bool) -> tuple | None:
        """The job's chain, or ``None`` for points that have none."""
        pt = job.point
        if pt.technique in ("taf", "iact"):
            if "threshold" not in pt.params:
                return None
            others = [(k, v) for k, v in pt.params.items() if k != "threshold"]
        elif pt.technique == "perfo":
            others = list(pt.params.items())
        else:
            return None
        return (
            job.app, device_name, pt.technique, repr(sorted(others)), pt.level,
            job.site, bool(sanitize),
        )

    def get(self, key: tuple, point: SweepPoint) -> RunRecord | None:
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
        self, key: tuple, record: RunRecord, window: ThresholdWindow | None
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
def _order_pending(
    pending: "OrderedDict[tuple, BatchJob]",
    order,
    done: dict,
    key: Callable[[BatchJob], tuple],
    bound: float | None = None,
) -> "OrderedDict[tuple, BatchJob]":
    """Reorder the pending frontier per ``SweepConfig.order``.

    A callable receives the pending job list and must return a permutation
    of it (checked by identity in the checkpoint label space); ``True``
    scores each job with the incremental surrogate fitted from already-done
    records (checkpoint rows of this very campaign), descending, stable."""
    entries = list(pending.items())
    if callable(order):
        ordered_jobs = list(order([job for _key, job in entries]))
        new_keys = [key(job) for job in ordered_jobs]
        if sorted(new_keys) != sorted(pending):
            raise ValueError(
                "order callable must return a permutation of the pending jobs"
            )
        return OrderedDict((k, pending[k]) for k in new_keys)
    from repro.harness.pruning import DEFAULT_QOI_BOUND, Surrogate

    surrogate = Surrogate()
    surrogate.observe_records(done.values())
    b = bound if bound is not None else DEFAULT_QOI_BOUND
    scores = {k: surrogate.score(job.point, b) for k, job in entries}
    return OrderedDict(sorted(entries, key=lambda kv: -scores[kv[0]]))


class BatchStream:
    """Records of one :meth:`BatchEngine.submit` call, yielded as they land.

    Construction resolves job identities and serves every slot it can
    without simulating — the engine's session cache, the checkpoint, the
    static preflight, the variant cache, and duplicates of an earlier slot
    — then resolves shared baselines and, on a pool, dispatches the first
    chunks, so independent streams on one engine overlap.  A job taken for
    dispatch is first looked up in the engine's :class:`ThresholdMemo`
    (stock runner only) and served from a sibling when its threshold and
    items per thread cannot change a single decision.  Those
    early-resolved slots yield first, in job order; fresh evaluations
    yield as their chunks complete, while checkpoint writes and progress
    callbacks absorb them, so a consumer overlaps its own work with the
    pool's.  :meth:`records` / :meth:`report` drain the stream and return
    the job-ordered result, byte-identical to a blocking run.

    ``config.workers > 1`` runs on the engine's kept-alive pool (or on a
    transient pool of the stream's own when the engine has none); otherwise
    jobs run in-process on the engine's runner.
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

        self._slot_keys = [engine._key(job) for job in self.jobs]
        self._slots_by_key: dict[tuple, list[int]] = {}
        for idx, key in enumerate(self._slot_keys):
            self._slots_by_key.setdefault(key, []).append(idx)
        engine.stats.submitted += len(self.jobs)

        # Records from earlier calls on this engine, then checkpointed
        # jobs, are trusted and never dispatched.
        index: dict[tuple, RunRecord] = {}
        if cfg.checkpoint is not None and Path(cfg.checkpoint).exists():
            for rec in ResultsDB.load(cfg.checkpoint):
                index[(rec.app, rec.device, SweepPoint.of_record(rec).label())] = rec
        self._done: dict[tuple, RunRecord] = {}
        self.cache_hits = self.skipped = 0
        for key, slots in self._slots_by_key.items():
            if key in engine._cache:
                self._done[key] = engine._cache[key]
                self.cache_hits += len(slots)
            elif key in index:
                self._done[key] = index[key]
                self.skipped += len(slots)

        # In-batch dedupe: first job per identity wins, later slots share it.
        pending: OrderedDict[tuple, BatchJob] = OrderedDict()
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
        pruned: list[tuple[tuple, RunRecord]] = []
        if pre:
            if pre is True:
                from repro.analysis.preflight import make_preflight

                pre = make_preflight(engine.problems)
            survivors: OrderedDict[tuple, BatchJob] = OrderedDict()
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
        self._vcache = None
        self._vkeys: dict[tuple, str] = {}
        vhits: list[tuple[tuple, RunRecord]] = []
        if stock:
            self._vcache = engine.variant_cache
            if self._vcache is None and cfg.variant_cache is not None:
                from repro.harness.pruning import resolve_variant_cache

                self._vcache = resolve_variant_cache(cfg.variant_cache)
        if self._vcache is not None:
            fresh_pending: OrderedDict[tuple, BatchJob] = OrderedDict()
            for key, job in pending.items():
                vkey = self._vcache.key_for(
                    job.app, job.device, job.point, site=job.site,
                    seed=engine.seed, problem=engine.problems,
                    sanitize=cfg.sanitize,
                )
                rec = self._vcache.get(vkey)
                if rec is None:
                    self._vkeys[key] = vkey
                    fresh_pending[key] = job
                else:
                    vhits.append((key, rec))
            pending = fresh_pending
            self.variant_hits = len(vhits)

        # Surrogate (or caller-supplied) ordering of the pending frontier:
        # changes dispatch order only — records stay slot-ordered, so the
        # result set is byte-identical either way.
        if cfg.order and len(pending) > 1:
            pending = _order_pending(
                pending,
                cfg.order,
                self._done,
                engine._key,
                bound=(
                    float(cfg.prune)
                    if isinstance(cfg.prune, float)
                    else None
                ),
            )

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
                pairs.setdefault((job.app, key[1]), job)
            before = src.baseline_computes
            for job in pairs.values():
                src.baseline(job.app, job.device)
            self.baseline_runs = src.baseline_computes - before
            engine.stats.baseline_runs += self.baseline_runs
            for cache_key, result in src.export_baselines().items():
                pair = (cache_key[0], cache_key[1])
                if pair in pairs:
                    self._group_baselines.setdefault(pair, {})[cache_key] = result

        if cfg.progress is True:
            def report_progress(p: SweepProgress) -> None:
                print(format_progress(p), file=sys.stderr)

            self._report_progress = report_progress
        elif callable(cfg.progress):
            self._report_progress = cfg.progress
        else:
            self._report_progress = None

        self._writer = (
            CheckpointWriter(cfg.checkpoint) if cfg.checkpoint is not None else None
        )
        self.evaluated = self._feasible = self._infeasible = 0
        self.worker_baseline_runs = 0
        self.pool_respawns = 0
        self.elapsed = 0.0

        # Early-resolved slots yield first, in job order.
        self._ready: deque[int] = deque()
        for key in list(self._done):
            self._notify(key, self._done[key])
        if pruned:
            if self._writer is not None:
                self._writer.write([rec for _key, rec in pruned])
            for key, rec in pruned:
                self._done[key] = rec
                self._notify(key, rec)
        if vhits:
            # Variant-cache hits come from other campaigns' caches, so they
            # are written into *this* checkpoint to keep it self-contained.
            if self._writer is not None:
                self._writer.write([rec for _key, rec in vhits])
            for key, rec in vhits:
                self._done[key] = rec
                self._notify(key, rec)

        # Sibling reuse is exact only for the content-deterministic
        # stock runner, like the variant cache.
        self.reused = 0
        self._memo = engine.threshold_memo if stock else None
        self._memo_keys: dict[tuple, tuple] = {}
        if self._memo is not None:
            for key, job in pending.items():
                mkey = ThresholdMemo.key(job, key[1], cfg.sanitize)
                if mkey is not None:
                    self._memo_keys[key] = mkey

        # Group pending jobs by (app, device): the adaptive controller's
        # unit of throughput, and the worker's unit of app-cache locality.
        self._chunker = AdaptiveChunker(target_seconds=TARGET_CHUNK_SECONDS)
        self._groups: OrderedDict[tuple, deque] = OrderedDict()
        for key, job in pending.items():
            self._groups.setdefault((job.app, key[1]), deque()).append((key, job))
        self._total_pending = len(pending)
        #: Points not yet dispatched, and ``(chunk points, points not yet
        #: dispatched before it)`` per chunk, in dispatch order.
        self._undispatched = len(pending)
        self.dispatch_log: list[tuple[int, int]] = []

        self._workers = max(1, int(cfg.workers))
        self._inflight: dict = {}
        self._respawns_left = MAX_POOL_RESPAWNS
        self._pool: WorkerPool | None = None
        self._owns_pool = False
        self._runner = engine.runner
        if self._workers > 1 and pending:
            self._pool = engine.pool
            if self._pool is None:
                self._pool = WorkerPool(
                    self._workers, engine._factory, engine.factory_args
                )
                self._owns_pool = True
        self._yielded = 0
        self._finished = False
        if self._pool is not None:
            self._fill()

    # -- bookkeeping ----------------------------------------------------
    def _reuse(self, key: tuple, job: BatchJob) -> RunRecord | None:
        """The job's record served by sibling reuse, or ``None``."""
        mkey = self._memo_keys.get(key)
        rec = None if mkey is None else self._memo.get(mkey, job.point)
        self.reused += rec is not None
        return rec

    def _remember(
        self, key: tuple, record: RunRecord, window: ThresholdWindow | None
    ) -> None:
        mkey = self._memo_keys.get(key)
        if mkey is not None:
            self._memo.put(mkey, record, window)

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
            if (
                self._vcache is not None
                and key in self._vkeys
                and not (rec.note or "").startswith(("WorkerError", "WorkerCrash"))
            ):
                # Crash/retry-exhaustion records reflect machine state, not
                # the configuration's content — never cache them.
                self._vcache.put(self._vkeys[key], rec)
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

    def _next_chunk(self) -> tuple[tuple | None, list]:
        """Pop the next chunk, round-robin across groups for fair mixing.

        On a pool, popped jobs that sibling reuse can serve are absorbed
        here instead of dispatched (in-process, each job is checked right
        before it runs, so siblings within one chunk are served too)."""
        if not self._groups:
            return None, []
        group = next(iter(self._groups))
        queue = self._groups[group]
        size = self.config.chunk_size
        if not size:
            size = self._chunker.next_size(group)
            if self._pool is not None:
                # Guided self-scheduling: never more than an even share of
                # what is left, so every worker gets part of a short stream
                # and the tail shrinks geometrically.
                size = min(size, -(-self._undispatched // self._workers))
        chunk: list = []
        served: list = []
        while queue and len(chunk) < size:
            key, job = queue.popleft()
            rec = self._reuse(key, job) if self._pool is not None else None
            if rec is None:
                chunk.append((key, job))
            else:
                served.append((key, rec))
        if chunk:
            self.dispatch_log.append((len(chunk), self._undispatched))
        self._undispatched -= len(chunk) + len(served)
        if served:
            self._absorb([key for key, _rec in served], [rec for _key, rec in served])
        if queue:
            self._groups.move_to_end(group)
        else:
            del self._groups[group]
        return group, chunk

    # -- dispatch -------------------------------------------------------
    def _dispatch(self, group: tuple, keys: list[tuple], jobs: list[BatchJob]) -> None:
        payload = [(job.app, job.device, job.point, job.site) for job in jobs]
        try:
            fut = self._pool.submit(
                _run_chunk, payload, self.config.retries,
                self._group_baselines.get(group), self.config.sanitize,
            )
        except Exception:  # noqa: BLE001 — broken pool surfaces at submit too
            self._recover([(group, keys, jobs, self._pool.spawns)])
            return
        self._inflight[fut] = (group, keys, jobs, self._pool.spawns)

    def _fill(self) -> None:
        """Dispatch chunks until every worker has one in flight."""
        while len(self._inflight) < self._workers and self._groups:
            group, chunk = self._next_chunk()
            if chunk:
                self._dispatch(
                    group, [key for key, _job in chunk], [job for _key, job in chunk]
                )

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
                f"process pool broke {MAX_POOL_RESPAWNS + 1} times; "
                f"chunk abandoned"
            )
            for _group, keys, jobs, _gen in casualties:
                self._absorb(keys, [_crash_record(j, why) for j in jobs])

    def _pump(self) -> bool:
        """Advance the batch one step; False when no work remains."""
        if self._finished:
            return False
        if self._pool is None:
            group, chunk = self._next_chunk()
            if not chunk:
                return False
            engine = self._engine

            def rebuild():
                self._runner = engine._factory(*engine.factory_args)
                if hasattr(self._runner, "prime_baselines"):
                    for entry in self._group_baselines.values():
                        self._runner.prime_baselines(entry)
                return self._runner

            t_chunk = time.monotonic()
            records = []
            for key, job in chunk:
                rec = self._reuse(key, job)
                if rec is None:
                    rec = run_point_with_retry(
                        self._runner, job.app, job.device, job.point,
                        site=job.site, retries=self.config.retries,
                        rebuild=rebuild, sanitize=self.config.sanitize,
                    )
                    self._remember(key, rec, _window(self._runner))
                records.append(rec)
            self._chunker.observe(group, len(chunk), time.monotonic() - t_chunk)
            self._absorb([key for key, _job in chunk], records)
            return True
        self._fill()
        if not self._inflight:
            return False
        finished, _ = wait(self._inflight, return_when=FIRST_COMPLETED)
        casualties = []
        for fut in finished:
            group, keys, jobs, gen = self._inflight.pop(fut)
            try:
                records, seconds, computes, windows = fut.result()
            except Exception:  # noqa: BLE001 — a dead worker breaks the pool
                casualties.append((group, keys, jobs, gen))
                continue
            for key, rec, window in zip(keys, records, windows):
                self._remember(key, rec, window)
            self.worker_baseline_runs += computes
            self._chunker.observe(group, len(keys), seconds)
            self._absorb(keys, records)
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
                "chunk_log": list(self._chunker.log),
                "dispatch_log": list(self.dispatch_log),
                "pool_respawns": self.pool_respawns,
            },
        )

    def close(self) -> None:
        """Stop dispatching; absorb in-flight chunks, drop the rest.

        Everything already completed stays in the checkpoint and the
        engine cache, so a partially-consumed stream never loses finished
        work; slots never evaluated are simply never yielded."""
        if self._finished:
            return
        self._groups.clear()
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
    #: Baselines recomputed inside workers (0 when sharing works).
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
    in-process executor), one in-memory record cache keyed by the
    checkpoint label space — so *independent callers* (Fig 6 and Fig 7, a
    search and a figure) share overlapping points instead of simulating
    them twice — and, for ``config.workers > 1``, one kept-alive
    :class:`WorkerPool` reused by every :meth:`submit`, so consecutive
    batches amortize the pool spawn (``stats.pool_spawns`` asserts it).
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
        self.variant_cache = None
        if self.config.variant_cache is not None:
            from repro.harness.pruning import resolve_variant_cache

            self.variant_cache = resolve_variant_cache(self.config.variant_cache)
        self._cache: dict[tuple, RunRecord] = {}
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
        if problems is not None and dict(problems) != self.problems:
            raise EngineMismatchError(
                f"sweep asks for problems={problems!r} but the engine "
                f"simulates problems={self.problems!r}"
            )
        if seed != self.seed:
            raise EngineMismatchError(
                f"sweep asks for seed={seed!r} but the engine simulates "
                f"seed={self.seed!r}"
            )

    def _key(self, job: BatchJob) -> tuple:
        """Checkpoint-label-space identity (device presets memoized)."""
        if isinstance(job.device, DeviceSpec):
            name = job.device.name
        else:
            name = self._dev_names.get(job.device)
            if name is None:
                name = get_device(job.device).name
                self._dev_names[job.device] = name
        return (job.app, name, job.point.label())

    def _sync_pool_stats(self) -> None:
        if self.pool is not None:
            self.stats.pool_spawns = self.pool.spawns
            self.stats.pool_respawns = self.pool.respawns

    def submit(
        self, jobs: list[BatchJob], config: SweepConfig | None = None
    ) -> BatchStream:
        """Start evaluating ``jobs``; returns a stream of their records.

        Identity of a job is ``(app, device name, point label)`` — the
        checkpoint label space — so duplicate jobs evaluate once, records
        of earlier calls on this engine are reused, and ``checkpoint`` (a
        JSONL or ``.jsonl.gz`` file, shared across any mix of apps and
        devices) satisfies previously-run jobs without simulating.
        ``site`` overrides are honoured per job but are *not* part of the
        identity (records do not store them).

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
    preflight, sanitize, order, variant cache)."""
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
