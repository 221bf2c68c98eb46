"""Lattice-pruned DSE sweeps (ROADMAP: "stop evaluating points we can
predict").

Table 2 spans 57k+ (technique, threshold/rate, hierarchy-level)
configurations, and the grid is *monotone*: making a configuration more
aggressive along any axis — a higher TAF/iACT threshold, a denser
perforation pattern, a coarser AC-state hierarchy level — can only admit
more approximation.  A point that already violates its QoI bound therefore
implies (under that monotonicity) that every more-aggressive descendant
violates it too, so simulating the descendants buys nothing.  Two
components exploit that structure:

* :class:`SweepLattice` — the subsumption lattice over sweep points.
  Points that agree on every non-aggressiveness parameter form a chain
  group; within a group, point *q* descends from *p* when *q*'s
  aggressiveness vector dominates *p*'s.  :func:`run_sweep_pruned`
  evaluates the lattice in ancestor-first waves and, the moment a point's
  error exceeds the bound, records every un-evaluated descendant as a
  ``pruned`` checkpoint row naming the violating ancestor — the same
  mechanism preflight uses for ``infeasible`` rows, so resume, merge, and
  :class:`~repro.harness.database.ResultsDB` work unchanged.
* :class:`VariantCache` — a content-hash record cache keyed on the sha256
  of a record's :class:`~repro.harness.database.RecordKey`, so identical
  configurations across apps, figures, and campaigns never re-simulate;
  optionally persisted to a JSONL file.

Soundness: pruning is exact only where error is monotone along the pruned
axes.  The threshold axes are monotone by construction (a larger threshold
accepts strictly more approximations); the hierarchy-level axis is
heuristic (sharing AC state across a warp usually, but not provably,
increases error).  Surviving (non-pruned) records are byte-identical to
the unpruned sweep's in either case — pruning only ever *removes* rows
from the simulated set, replacing them with ``pruned`` markers.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from pathlib import Path
from typing import Iterable

from repro.gpusim.device import DeviceSpec, get_device
from repro.harness.config import SweepConfig
from repro.harness.database import RecordKey, _decode, _encode, replace_lines
from repro.harness.runner import RunRecord
from repro.harness.sweep import LEVEL_ORDER, SweepPoint

#: Default QoI bound when ``SweepConfig(prune=True)`` does not name one —
#: the paper's 10% error budget (Fig 6).
DEFAULT_QOI_BOUND = 0.10

#: ``RunRecord.note`` prefix identifying a lattice-pruned checkpoint row
#: (mirrors the ``"preflight"`` prefix on statically pruned rows).
PRUNED_NOTE_PREFIX = "pruned:"


# ---------------------------------------------------------------------------
# Aggressiveness axes
# ---------------------------------------------------------------------------
def aggression_axes(point: SweepPoint) -> list[tuple[str, int]]:
    """The (param, direction) axes along which ``point`` can get more
    aggressive.  Direction ``+1`` means a larger value admits more
    approximation; ``-1`` the opposite (small-perforation ``skip`` drops
    one of every M iterations, so a *smaller* M skips more)."""
    t = point.technique
    if t in ("taf", "iact"):
        return [("threshold", +1)]
    if t == "perfo":
        kind = point.params.get("kind")
        if kind == "small":
            return [("skip", -1)]
        if kind == "large":
            return [("skip", +1)]
        if kind in ("ini", "fini"):
            return [("skip_percent", +1)]
    return []


def aggression_vector(
    point: SweepPoint, include_level: bool = True
) -> tuple[float, ...] | None:
    """Sortable aggressiveness coordinates, or ``None`` when the point has
    no recognized axes (such points form singleton lattice groups)."""
    axes = aggression_axes(point)
    coords: list[float] = []
    for name, sign in axes:
        val = point.params.get(name)
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            return None
        coords.append(sign * float(val))
    if include_level:
        coords.append(float(LEVEL_ORDER.get(point.level, -1)))
    if not coords:
        return None
    return tuple(coords)


def _base_key(point: SweepPoint, include_level: bool) -> tuple:
    """Everything a point's identity holds *except* its aggressiveness
    coordinates — two points compare only when these match."""
    axis_names = {name for name, _sign in aggression_axes(point)}
    fixed = tuple(
        sorted((k, v) for k, v in point.params.items() if k not in axis_names)
    )
    key = (point.technique, fixed, point.items_per_thread)
    if not include_level:
        key += (point.level,)
    return key


def _dominates(a: tuple, b: tuple) -> bool:
    """True when ``b`` is strictly more aggressive than ``a`` (elementwise
    ``>=`` with at least one ``>``)."""
    return all(x <= y for x, y in zip(a, b)) and a != b


class SweepLattice:
    """Subsumption lattice over a set of sweep points.

    Points sharing a :func:`_base_key` form one group; within a group the
    partial order is elementwise dominance of :func:`aggression_vector`.
    Points with no recognized axes (or non-numeric axis values) are
    singletons — never pruned, never pruning anything.
    """

    def __init__(
        self, points: Iterable[SweepPoint], include_level: bool = True
    ) -> None:
        self.points: list[SweepPoint] = []
        self._vec: dict[str, tuple | None] = {}
        self._groups: dict[tuple, list[SweepPoint]] = OrderedDict()
        self._group_of: dict[str, tuple] = {}
        seen: set[str] = set()
        for n, pt in enumerate(points):
            label = pt.label()
            if label in seen:
                continue
            seen.add(label)
            self.points.append(pt)
            vec = aggression_vector(pt, include_level)
            self._vec[label] = vec
            # Unordered points get a unique group so they stand alone.
            key = (
                _base_key(pt, include_level) if vec is not None else ("·", n)
            )
            self._groups.setdefault(key, []).append(pt)
            self._group_of[label] = key
        self._ancestors: dict[str, list[SweepPoint]] = {}
        self._descendants: dict[str, list[SweepPoint]] = {}
        for group in self._groups.values():
            for pt in group:
                label = pt.label()
                vec = self._vec[label]
                anc: list[SweepPoint] = []
                desc: list[SweepPoint] = []
                if vec is not None:
                    for other in group:
                        if other is pt:
                            continue
                        ovec = self._vec[other.label()]
                        if _dominates(ovec, vec):
                            anc.append(other)
                        elif _dominates(vec, ovec):
                            desc.append(other)
                self._ancestors[label] = anc
                self._descendants[label] = desc

    def __len__(self) -> int:
        return len(self.points)

    def vector(self, point: SweepPoint) -> tuple | None:
        return self._vec.get(point.label())

    def ancestors(self, point: SweepPoint) -> list[SweepPoint]:
        """Strictly less-aggressive points of the same group."""
        return self._ancestors.get(point.label(), [])

    def descendants(self, point: SweepPoint) -> list[SweepPoint]:
        """Strictly more-aggressive points of the same group."""
        return self._descendants.get(point.label(), [])


# ---------------------------------------------------------------------------
# Variant cache
# ---------------------------------------------------------------------------
class VariantCache:
    """Content-hash record cache keyed on the fully lowered configuration.

    Records are stored under :meth:`RecordKey.digest
    <repro.harness.database.RecordKey.digest>`, which covers everything
    that determines a deterministic simulation's record, so a hit is
    byte-exact by construction.  Shared across engines, figures, and
    campaigns; pass a ``path`` to persist (JSONL: one ``{"key", "record"}``
    object per line).
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._records: dict[str, RunRecord] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        if self.path is not None and self.path.exists():
            self.load(self.path)

    def get(self, key: RecordKey) -> RunRecord | None:
        rec = self._records.get(key.digest())
        if rec is None:
            self.misses += 1
        else:
            self.hits += 1
        return rec

    def put(self, key: RecordKey, record: RunRecord) -> None:
        digest = key.digest()
        if digest not in self._records:
            self.stores += 1
        self._records[digest] = record

    def __len__(self) -> int:
        return len(self._records)

    def save(self, path: str | Path | None = None) -> Path:
        """Write every cached record to ``path`` (default: the load path),
        atomically (:func:`~repro.harness.database.replace_lines`)."""
        dest = Path(path) if path is not None else self.path
        if dest is None:
            raise ValueError("VariantCache.save: no path given or configured")
        replace_lines(dest, (
            json.dumps({"key": key, "record": _encode(rec.to_dict())}, allow_nan=False)
            for key, rec in self._records.items()
        ))
        return dest

    def load(self, path: str | Path) -> int:
        """Merge records from ``path``; returns how many were loaded."""
        n = 0
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                rec = RunRecord(**_decode(obj["record"]))
            except (json.JSONDecodeError, KeyError, TypeError):
                continue  # torn line: the variant just re-simulates
            self._records[obj["key"]] = rec
            n += 1
        return n


# ---------------------------------------------------------------------------
# Pruned checkpoint rows
# ---------------------------------------------------------------------------
def pruned_record(
    app: str,
    device_name: str,
    point: SweepPoint,
    ancestor: str,
    ancestor_error: float,
    bound: float,
) -> RunRecord:
    """The checkpoint row recorded for a lattice-pruned point.

    Shaped exactly like a preflight ``infeasible`` row — ``feasible=False``
    with a provenance note — so checkpoint resume, merge, and every
    :class:`ResultsDB` query treat it as just another row; the pruning
    ancestor's label rides in both the note and ``extra["pruned_by"]``."""
    return RunRecord(
        app=app,
        device=device_name,
        technique=point.technique,
        params=dict(point.params),
        level=point.level,
        items_per_thread=point.items_per_thread,
        feasible=False,
        note=(
            f"{PRUNED_NOTE_PREFIX} ancestor {ancestor} "
            f"error {ancestor_error:.6g} > bound {bound:g}"
        ),
        extra={
            "pruned_by": ancestor,
            "ancestor_error": ancestor_error,
            "qoi_bound": bound,
        },
    )


def is_pruned_record(record: RunRecord) -> bool:
    """True for rows written by :func:`pruned_record`."""
    return not record.feasible and (record.note or "").startswith(
        PRUNED_NOTE_PREFIX
    )


def _violates(record: RunRecord, bound: float) -> bool:
    """A feasible record whose error exceeds the QoI bound (non-finite
    errors count: a diverged run certainly violates)."""
    return bool(record.feasible) and not (float(record.error) <= bound)


# ---------------------------------------------------------------------------
# The pruned sweep driver
# ---------------------------------------------------------------------------
def run_sweep_pruned(
    app: str,
    device: str | DeviceSpec,
    points: list[SweepPoint],
    *,
    config: SweepConfig,
    engine,
    site: str | None = None,
):
    """Execute ``points`` with lattice pruning on ``engine``; returns the same
    :class:`~repro.harness.batch.BatchReport` shape as
    :func:`~repro.harness.batch.run_sweep_parallel`, which calls this with
    its fully resolved ``config``.

    The lattice is evaluated in ancestor-first waves.  Before each wave,
    every ready point with a bound-violating evaluated ancestor is recorded
    as a ``pruned`` checkpoint row (never simulated); the surviving wave is
    submitted through the engine.  Records for evaluated points are byte-identical to
    the unpruned sweep's — pruning only substitutes rows for points it
    skips.

    ``config.checkpoint`` is managed *here* (resumed from the engine's
    index of the file by :class:`~repro.harness.database.RecordKey`, each
    decided row appended in wave order and added to that index); waves are
    submitted with the checkpoint stripped from their config so the engine
    does not double-write.
    """
    from repro.harness.batch import BatchJob, BatchReport

    cfg = config
    bound = DEFAULT_QOI_BOUND if cfg.prune is True else float(cfg.prune)
    dev_name = get_device(device).name
    t0 = time.monotonic()

    unique: "OrderedDict[str, SweepPoint]" = OrderedDict()
    for pt in points:
        unique.setdefault(pt.label(), pt)
    lattice = SweepLattice(unique.values())

    # Resume: checkpoint rows (evaluated, preflight, and prior pruned rows
    # alike) are trusted decisions.
    decided: dict[str, RunRecord] = {}
    writer = None
    if cfg.checkpoint is not None:
        shared = engine.shared(site, cfg.sanitize)
        writer = engine.open_checkpoint(cfg.checkpoint, shared)
        for label, pt in unique.items():
            key = engine._key(BatchJob(app, device, pt, site=site), cfg.sanitize)
            if key in writer.index:
                decided[label] = writer.index[key]
    skipped = len(decided)

    # Waves run without the checkpoint (managed here) and without prune
    # (pruning is this driver).
    wave_cfg = cfg.replace(checkpoint=None, prune=False)

    evaluated = preflight_pruned = lattice_pruned = variant_hits = 0
    reused = waves = 0
    dispatch_log: list[tuple[int, int]] = []
    try:
        while True:
            undecided = [
                pt for label, pt in unique.items() if label not in decided
            ]
            if not undecided:
                break
            ready = [
                pt
                for pt in undecided
                if all(
                    a.label() in decided for a in lattice.ancestors(pt)
                )
            ]
            if not ready:  # pragma: no cover - partial orders are acyclic
                raise RuntimeError("pruned sweep stalled: no ready points")

            wave: list[SweepPoint] = []
            for pt in ready:
                violators = [
                    a
                    for a in lattice.ancestors(pt)
                    if _violates(decided[a.label()], bound)
                ]
                if violators:
                    # Deterministic provenance: the least aggressive
                    # violating ancestor — the subtree's original root.
                    violators.sort(
                        key=lambda a: (lattice.vector(a), a.label())
                    )
                    root = violators[0]
                    rec = pruned_record(
                        app,
                        dev_name,
                        pt,
                        root.label(),
                        float(decided[root.label()].error),
                        bound,
                    )
                    decided[pt.label()] = rec
                    lattice_pruned += 1
                    if writer is not None:
                        writer.write(rec)
                else:
                    wave.append(pt)
            if not wave:
                waves += 1
                continue

            rep = engine.submit(
                [BatchJob(app, device, pt, site=site) for pt in wave],
                config=wave_cfg,
            ).report()
            evaluated += rep.evaluated
            reused += rep.reused
            skipped += rep.skipped
            preflight_pruned += rep.pruned
            variant_hits += rep.variant_hits
            dispatch_log += rep.extra["dispatch_log"]
            for pt, rec in zip(wave, rep.records):
                decided[pt.label()] = rec
                if writer is not None:
                    writer.write(rec)
            waves += 1
    finally:
        if writer is not None:
            writer.close()

    return BatchReport(
        records=[decided[pt.label()] for pt in points],
        evaluated=evaluated,
        skipped=skipped,
        deduped=len(points) - len(unique),
        pruned=preflight_pruned,
        variant_hits=variant_hits,
        reused=reused,
        elapsed=time.monotonic() - t0,
        checkpoint=(
            str(cfg.checkpoint) if cfg.checkpoint is not None else None
        ),
        extra={
            "lattice_pruned": lattice_pruned,
            "waves": waves,
            "qoi_bound": bound,
            "dispatch_log": dispatch_log,
        },
    )
