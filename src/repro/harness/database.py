"""Results database for DSE runs.

The HPAC harness "calculates and saves runtime information and error to a
database" (§2.3); this is that component.  Records are
:class:`~repro.harness.runner.RunRecord` rows; the store supports filtered
queries, best-under-error-budget selection (the Fig-6 aggregation), Pareto
frontiers (the speedup/error scatter plots), and JSONL persistence so
sweeps can be resumed or post-processed.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
from collections import OrderedDict
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from repro.errors import EngineMismatchError
from repro.harness.runner import RunRecord
from repro.harness.sweep import SweepPoint

#: Version of the checkpoint line format.  A checkpoint starts with one
#: JSON header line ``{"__checkpoint_schema__": 2, "seed": ..., "problems":
#: ..., "site": ..., "sanitize": ...}`` holding the :data:`SHARED_FIELDS` of
#: every row: one file per (seed, problems, site, sanitize).  The engine
#: resumes no other, nor records behind a schema-1 header or none.
CHECKPOINT_SCHEMA_VERSION = 2
SCHEMA_KEY = "__checkpoint_schema__"
#: The :class:`RecordKey` fields a checkpoint header holds for all its rows.
SHARED_FIELDS = ("seed", "problems", "site", "sanitize")


def shared_fields(
    seed: int, problems: dict | None, site: str | None = None, sanitize: bool = False
) -> dict:
    """The :data:`SHARED_FIELDS` of records simulated with ``seed`` and
    ``problems`` (kept as canonical JSON) for ``site`` and ``sanitize``."""
    problems = json.dumps(problems or {}, sort_keys=True)
    return dict(zip(SHARED_FIELDS, (int(seed), problems, site, bool(sanitize))))


class RecordKey(NamedTuple):
    """The one identity of a record.  The engine's session cache, the
    checkpoint index, :class:`~repro.harness.batch.ThresholdMemo` chains
    and :class:`~repro.harness.pruning.VariantCache` keys derive from it.
    A record stores the first three fields; a checkpoint header the rest."""

    app: str
    device: str  # resolved name
    label: str  # SweepPoint.label()
    site: str | None
    sanitize: bool
    seed: int
    problems: str  # canonical JSON

    @classmethod
    def of_record(cls, record: RunRecord, shared: dict | None) -> "RecordKey":
        """The key of ``record`` stored under ``shared`` (``None``: fields
        unknown, the same for every record)."""
        return cls(
            record.app, record.device, SweepPoint.of_record(record).label(),
            **(shared or dict.fromkeys(SHARED_FIELDS)),
        )

    def digest(self) -> str:
        """Stable sha256 of every field."""
        return hashlib.sha256(repr(tuple(self)).encode()).hexdigest()


def check_shared(where: str | Path, held: dict, asked: dict) -> None:
    """Raise :class:`~repro.errors.EngineMismatchError` naming ``where`` and
    the first shared field in which ``held`` differs from ``asked``."""
    for name in SHARED_FIELDS:
        if held[name] != asked[name]:
            raise EngineMismatchError(
                f"{where}: holds {name}={held[name]!r}, not "
                f"{name}={asked[name]!r}"
            )


def _is_gz(path: str | Path) -> bool:
    return Path(path).suffix == ".gz"

# --- portable JSON for non-finite floats --------------------------------
# ``json.dumps(float("inf"))`` emits the non-standard literal ``Infinity``,
# which strict parsers (and other languages) reject.  Infeasible/diverged
# records legitimately carry ``inf``/``nan`` errors, so they are encoded as
# sentinel strings and restored on load.
_NONFINITE_ENCODE = {math.inf: "__inf__", -math.inf: "__-inf__"}
_NONFINITE_DECODE = {
    "__inf__": math.inf,
    "__-inf__": -math.inf,
    "__nan__": math.nan,
}


def _encode(obj):
    if isinstance(obj, float):
        if math.isnan(obj):
            return "__nan__"
        if math.isinf(obj):
            return _NONFINITE_ENCODE[obj]
        return obj
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def _decode(obj):
    if isinstance(obj, str):
        return _NONFINITE_DECODE.get(obj, obj)
    if isinstance(obj, dict):
        return {k: _decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    return obj


_RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))


def _header_line(shared: dict | None) -> str:
    """A checkpoint's first line: the schema version and ``shared``."""
    return json.dumps({SCHEMA_KEY: CHECKPOINT_SCHEMA_VERSION, **(shared or {})})


def replace_lines(path: str | Path, lines: Iterable[str], gz: bool = False) -> None:
    """Write ``lines`` to ``path`` atomically, one per line (gzip when
    ``gz``): into a same-directory temp file, then :func:`os.replace`, so
    a save interrupted midway leaves the previous file whole.  The temp
    name carries the pid, so processes rewriting one file never share a
    temp file."""
    dest = Path(path)
    dest.parent.mkdir(parents=True, exist_ok=True)
    tmp = dest.with_name(f".{dest.name}.tmp.{os.getpid()}")
    try:
        with gzip.open(tmp, "wt", encoding="utf-8") if gz else tmp.open("w") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, dest)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def dumps_record(record: RunRecord) -> str:
    """One strict-JSON line for a record (non-finite floats sentinelled).

    Encodes straight from the fields: the same bytes as encoding
    :meth:`~repro.harness.runner.RunRecord.to_dict`, without its deep
    copy."""
    return json.dumps(
        {name: _encode(getattr(record, name)) for name in _RECORD_FIELDS},
        allow_nan=False,
    )


class CheckpointWriter:
    """Append-mode JSONL sink for streaming records as a sweep runs.

    Each record is written and flushed as one line, so an interrupted sweep
    loses at most the line being written (:meth:`ResultsDB.load` discards a
    truncated final line).  A ``.jsonl.gz`` path writes gzip-compressed
    lines instead (million-record campaigns compress ~10×); appends to an
    existing ``.gz`` file add a new gzip member, which readers concatenate
    transparently.  New files begin with the header line, holding the
    ``shared`` fields when given; an ``index`` gets every written record."""

    def __init__(
        self, path: str | Path, shared: dict | None = None, index: dict | None = None
    ) -> None:
        self.path = Path(path)
        self.shared, self.index = shared, index
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        existing = self.path.exists() and self.path.stat().st_size > 0
        if _is_gz(self.path):
            self._fh = gzip.open(self.path, "at", encoding="utf-8")
            if existing:
                # A crash can leave a truncated final line; appending
                # straight after it would corrupt the next record too.
                # (The tail is found by decompressing — acceptable for the
                # rare resume-after-crash open.)
                last, readable = "", True
                try:
                    with gzip.open(self.path, "rt", encoding="utf-8") as fh:
                        for last in fh:
                            pass
                except (EOFError, OSError):
                    readable = False
                if not readable or (last and not last.endswith("\n")):
                    self._fh.write("\n")
        else:
            self._fh = self.path.open("a")
            if existing:
                with self.path.open("rb") as fh:
                    fh.seek(-1, 2)
                    if fh.read(1) != b"\n":
                        self._fh.write("\n")
        if not existing:
            self._fh.write(_header_line(shared) + "\n")
            self._fh.flush()

    def write(self, record: RunRecord | Iterable[RunRecord]) -> None:
        records = [record] if isinstance(record, RunRecord) else list(record)
        for r in records:
            self._fh.write(dumps_record(r) + "\n")
        self._fh.flush()
        if self.index is not None:
            self.index.update((RecordKey.of_record(r, self.shared), r) for r in records)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Row statuses a checkpoint can hold.  ``ok`` is any feasible record;
#: the infeasible ones split by provenance: statically vetoed
#: (``preflight``), lattice-pruned with an ancestor's label (``pruned``,
#: see :mod:`repro.harness.pruning`), lost to worker errors/crashes
#: (``error``), or dynamically infeasible in the simulator (``infeasible``).
RECORD_STATUSES = ("ok", "preflight", "pruned", "error", "infeasible")


def record_status(record: RunRecord) -> str:
    """Classify one checkpoint row (see :data:`RECORD_STATUSES`)."""
    if record.feasible:
        return "ok"
    note = record.note or ""
    if note.startswith("preflight"):
        return "preflight"
    if note.startswith("pruned"):
        return "pruned"
    if note.startswith(("WorkerError", "WorkerCrash")):
        return "error"
    return "infeasible"


#: Merge preference between two records of one :class:`RecordKey`:
#: higher wins.  Evaluated rows outrank everything — ``ok`` first, then
#: ``infeasible`` (the simulator genuinely ran the configuration and
#: rejected it); rows that never entered the simulator (static
#: ``preflight`` veto, lattice ``pruned``) outrank only ``error`` rows,
#: which reflect machine state rather than the configuration.
STATUS_PRIORITY = {"ok": 4, "infeasible": 3, "preflight": 2, "pruned": 1, "error": 0}


@dataclass
class MergeStats:
    """Outcome counters for one :meth:`ResultsDB.merge` call."""

    #: Labels seen for the first time (appended).
    added: int = 0
    #: Duplicate labels whose records were byte-identical (dropped).
    identical: int = 0
    #: Duplicate labels with *differing* records (status or content).
    conflicts: int = 0
    #: Conflicts where the incoming record won (higher status priority).
    replaced: int = 0
    #: Conflicts resolved in favour of the already-held record.
    kept: int = 0

    def __iadd__(self, other: "MergeStats") -> "MergeStats":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


class ResultsDB:
    """In-memory collection of run records with query helpers."""

    def __init__(self, records: Iterable[RunRecord] | None = None) -> None:
        self.records: list[RunRecord] = list(records or [])
        #: The :data:`SHARED_FIELDS` of every record, when known (as read
        #: from a checkpoint header by :meth:`load`).
        self.shared: dict | None = None

    def add(self, record: RunRecord | list[RunRecord]) -> None:
        if isinstance(record, list):
            self.records.extend(record)
        else:
            self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # ------------------------------------------------------------------
    def query(
        self,
        app: str | None = None,
        device: str | None = None,
        technique: str | None = None,
        level: str | None = None,
        feasible: bool | None = True,
        predicate: Callable[[RunRecord], bool] | None = None,
        status: str | None = None,
    ) -> list[RunRecord]:
        """Filter records; ``device`` matches on substring (vendor or name).

        ``status`` selects one :data:`RECORD_STATUSES` class and subsumes
        the ``feasible`` filter (which is ignored when ``status`` is
        given): ``status="pruned"`` returns the lattice-pruned rows,
        ``status="ok"`` equals ``feasible=True``."""
        if status is not None and status not in RECORD_STATUSES:
            raise ValueError(
                f"unknown status {status!r}; expected one of {RECORD_STATUSES}"
            )
        out = []
        for r in self.records:
            if app is not None and r.app != app:
                continue
            if device is not None and device.lower() not in r.device.lower():
                continue
            if technique is not None and r.technique != technique:
                continue
            if level is not None and r.level != level:
                continue
            if status is not None:
                if record_status(r) != status:
                    continue
            elif feasible is not None and r.feasible != feasible:
                continue
            if predicate is not None and not predicate(r):
                continue
            out.append(r)
        return out

    def merge(self, other: "ResultsDB | Iterable[RunRecord]") -> MergeStats:
        """Fold ``other``'s records in, deduplicating by
        :class:`RecordKey` (a :class:`ResultsDB` of other known shared
        fields raises :class:`~repro.errors.EngineMismatchError`).

        When both sides hold a record for one key the winner is chosen
        *deterministically* by :data:`STATUS_PRIORITY`, never by file
        order: an evaluated (``ok``) record beats a ``pruned`` or
        ``preflight`` row from another shard (one shard may have
        lattice-pruned a point a different shard actually simulated), and
        ``error`` rows — worker crashes, not properties of the point —
        lose to everything.  Ties on priority keep the record already
        held (first-seen order), so merging A then B and B then A disagree
        only on genuinely ambiguous pairs, which are counted as conflicts
        either way.  Byte-identical duplicates are dropped silently into
        the ``identical`` counter.

        The held record's list position is preserved on replacement, so a
        merge never reorders ``self.records``."""
        records = other
        if isinstance(other, ResultsDB):
            if None not in (self.shared, other.shared):
                check_shared("merged database", self.shared, other.shared)
            records = other.records
        stats = MergeStats()
        index: dict[RecordKey, int] = {
            RecordKey.of_record(rec, self.shared): i
            for i, rec in enumerate(self.records)
        }
        for rec in records:
            key = RecordKey.of_record(rec, self.shared)
            held_at = index.get(key)
            if held_at is None:
                index[key] = len(self.records)
                self.records.append(rec)
                stats.added += 1
                continue
            held = self.records[held_at]
            if held.to_dict() == rec.to_dict():
                stats.identical += 1
                continue
            stats.conflicts += 1
            if STATUS_PRIORITY[record_status(rec)] > STATUS_PRIORITY[
                record_status(held)
            ]:
                self.records[held_at] = rec
                stats.replaced += 1
            else:
                stats.kept += 1
        return stats

    def status_counts(self, **filters) -> dict[str, int]:
        """Row count per :data:`RECORD_STATUSES` class (campaign triage)."""
        counts = {s: 0 for s in RECORD_STATUSES}
        for r in self.query(feasible=None, **filters):
            counts[record_status(r)] += 1
        return counts

    def best_speedup(
        self,
        max_error: float = 0.10,
        **filters,
    ) -> RunRecord | None:
        """Fastest configuration with error below ``max_error`` (Fig 6)."""
        candidates = [
            r for r in self.query(**filters) if r.error <= max_error
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda r: r.reported_speedup)

    def pareto_frontier(self, **filters) -> list[RunRecord]:
        """Error/speedup Pareto-optimal records (lower error, higher speedup)."""
        records = sorted(self.query(**filters), key=lambda r: (r.error, -r.reported_speedup))
        frontier: list[RunRecord] = []
        best = -float("inf")
        for r in records:
            if r.reported_speedup > best:
                frontier.append(r)
                best = r.reported_speedup
        return frontier

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist as JSON Lines (strict JSON, see :func:`dumps_record`),
        atomically (:func:`replace_lines`).

        A ``.jsonl.gz`` path writes gzip-compressed lines."""
        replace_lines(
            path, (dumps_record(r) for r in self.records), gz=_is_gz(path)
        )

    @classmethod
    def load(cls, path: str | Path) -> "ResultsDB":
        """Load a JSONL / ``.jsonl.gz`` file written by :meth:`save` or a
        checkpoint stream.

        The header line sets :attr:`shared` when it holds the shared
        fields; files without one load identically.  Lines torn by a
        crash mid-write — and, for ``.gz``, a truncated final gzip member —
        are skipped with a warning: losing one point re-runs it, aborting
        loses the campaign."""
        db = cls()
        torn = 0
        truncated = False
        lines: list[str] = []
        if _is_gz(path):
            try:
                with gzip.open(path, "rt", encoding="utf-8") as fh:
                    for line in fh:
                        lines.append(line)
            except (EOFError, OSError):
                truncated = True
        else:
            lines = Path(path).read_text().splitlines()
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                torn += 1
                continue
            if isinstance(obj, dict) and SCHEMA_KEY in obj:
                if all(name in obj for name in SHARED_FIELDS):
                    db.shared = {name: obj[name] for name in SHARED_FIELDS}
                continue
            try:
                db.add(RunRecord(**_decode(obj)))
            except TypeError:
                torn += 1
        if torn or truncated:
            import warnings

            what = f"skipped {torn} torn record line(s)" if torn else ""
            if truncated:
                what += ("; " if what else "") + "truncated gzip stream"
            warnings.warn(
                f"{path}: {what}; the affected points will re-run",
                stacklevel=2,
            )
        return db


def compact_checkpoint(
    path: str | Path, output: str | Path | None = None
) -> tuple[int, int]:
    """Dedupe a checkpoint's re-run labels, keeping the latest record.

    A resumed/re-driven campaign can legitimately append a label twice
    (retry semantics changed, a technique re-swept); readers take whichever
    record they see last, but the dead lines cost load time forever.  This
    rewrites the file with exactly one record per :class:`RecordKey` —
    first-occurrence order, latest content — behind the source's header
    fields, so the compacted file resumes like the source.

    ``output=None`` replaces ``path`` atomically; otherwise the compacted
    stream is written to ``output`` (whose suffix decides compression, so
    ``compact_checkpoint("c.jsonl", "c.jsonl.gz")`` also converts).
    Returns ``(kept, dropped)`` record counts."""
    src = Path(path)
    db = ResultsDB.load(src)
    latest: "OrderedDict[RecordKey, RunRecord]" = OrderedDict()
    for rec in db.records:
        latest[RecordKey.of_record(rec, db.shared)] = rec
    dest = Path(output) if output is not None else src
    replace_lines(
        dest,
        [_header_line(db.shared), *map(dumps_record, latest.values())],
        gz=_is_gz(dest),
    )
    return len(latest), len(db.records) - len(latest)
