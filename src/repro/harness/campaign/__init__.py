"""Multi-worker, crash-tolerant campaign fabric.

Scales the single-box :class:`~repro.harness.batch.BatchEngine` to the
paper's Table-2 reality — 57,288 configurations, up to 988 GPU-hours per
benchmark (§4) — by splitting a sweep's point space into shard jobs that
any number of plain engine sessions work through a file-backed queue:

* :func:`split_campaign` partitions the points of a sweep's
  :class:`~repro.api.SweepRequest` (the campaign's *spec*) into shard
  manifests keyed by point label and writes the ``campaign.json`` ledger
  once;
* :class:`~repro.harness.campaign.worker.CampaignWorker` sessions claim
  shards under leases with heartbeats (:mod:`.queue`, :mod:`.lease`) and
  run each claim as one checkpointed sweep into
  ``shards/<job>.<fence>.jsonl``, so a dead worker's unfinished shard is
  reclaimed after its TTL, re-issued under a higher fencing token, and
  resumed from the dead worker's file;
* :func:`merge_campaign` folds each done job's completion-fence file
  back into one :class:`~repro.harness.database.ResultsDB` — checking its
  header against the spec, counting the records of the job's other fence
  files (a dead or stalled worker's writes) as stale, deduplicating and
  conflict-counting the rest — and writes them in canonical spec order,
  producing a file **byte-identical** to a serial sweep's checkpoint of
  the same points.

The contract tested end-to-end (two workers, one killed mid-shard): kill,
reclaim, re-issue, merge — and the merged bytes equal the serial bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.api import SweepRequest
from repro.errors import EngineMismatchError
from repro.harness.campaign.lease import Lease, LeaseError, LeaseLost
from repro.harness.campaign.manifest import (
    CAMPAIGN_SCHEMA_VERSION,
    CampaignError,
    CampaignManifest,
    campaign_paths,
    init_campaign,
    load_campaign,
    shard_files,
    shard_path,
    spec_hash,
)
from repro.harness.campaign.queue import Claim, FileQueue
from repro.harness.campaign.worker import (
    DEFAULT_TTL,
    CampaignWorker,
    WorkerKilled,
    WorkerReport,
)
from repro.harness.database import (
    CheckpointWriter,
    MergeStats,
    ResultsDB,
    shared_fields,
)
from repro.harness.sweep import SweepPoint

__all__ = [
    "CAMPAIGN_SCHEMA_VERSION",
    "CampaignError",
    "CampaignManifest",
    "CampaignStatus",
    "CampaignWorker",
    "Claim",
    "DEFAULT_TTL",
    "FileQueue",
    "Lease",
    "LeaseError",
    "LeaseLost",
    "MergeResult",
    "SplitResult",
    "WorkerKilled",
    "WorkerReport",
    "campaign_paths",
    "campaign_status",
    "init_campaign",
    "load_campaign",
    "merge_campaign",
    "run_worker",
    "shard_path",
    "spec_hash",
    "split_campaign",
]


@dataclass
class SplitResult:
    """Outcome of :func:`split_campaign`."""

    directory: str
    spec_hash: str
    shards: int
    points: int
    jobs: list = field(default_factory=list)


@dataclass
class MergeResult:
    """Outcome of :func:`merge_campaign`."""

    directory: str
    output: str
    #: Records written to ``output``, in canonical spec order.
    merged: int
    #: Cross-shard dedupe/conflict accounting (:class:`MergeStats`).
    stats: MergeStats
    #: Records in a done job's files of other fences than its completion
    #: fence — writes of dead, stalled or superseded workers.
    rejected_stale: int = 0
    shards_merged: list = field(default_factory=list)
    #: Unfinished shards excluded by a partial (``strict=False``) merge.
    shards_skipped: list = field(default_factory=list)
    #: Labels the spec expects that no accepted record covered (partial
    #: merges only; a strict merge raises instead).
    missing: list = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.shards_skipped and not self.missing


@dataclass
class CampaignStatus:
    """Snapshot of a campaign's queue (:func:`campaign_status`)."""

    directory: str
    spec_hash: str
    progress: dict
    shards: dict
    lease_table: dict

    @property
    def complete(self) -> bool:
        return (
            self.progress.get("done", 0) > 0
            and self.progress.get("done")
            == sum(
                self.progress.get(k, 0)
                for k in ("pending", "leased", "expired", "done")
            )
        )


# ---------------------------------------------------------------------------
def split_campaign(
    directory: str | Path,
    spec: SweepRequest,
    shards: int = 2,
    clock=None,
) -> SplitResult:
    """Partition ``spec``'s point space into shard jobs under ``directory``.

    See :func:`~repro.harness.campaign.manifest.init_campaign` for the
    on-disk layout.  The job payloads carry both the point dicts and
    their labels, so ``campaign status`` and the merge can reason about
    coverage without re-deriving the grid."""
    manifest = init_campaign(directory, spec, shards=shards, clock=clock)
    return SplitResult(
        directory=str(directory),
        spec_hash=spec_hash(spec),
        shards=len(manifest.shard_meta),
        points=sum(m["points"] for m in manifest.shard_meta.values()),
        jobs=sorted(manifest.shard_meta),
    )


def run_worker(
    directory: str | Path,
    owner: str,
    *,
    ttl: float = DEFAULT_TTL,
    max_jobs: int | None = None,
    engine=None,
    clock=None,
    on_point=None,
) -> WorkerReport:
    """Run one worker loop against a campaign until its queue drains."""
    with CampaignWorker(
        directory, owner, ttl=ttl, engine=engine, clock=clock, on_point=on_point
    ) as worker:
        return worker.run(max_jobs=max_jobs)


def merge_campaign(
    directory: str | Path,
    output: str | Path | None = None,
    *,
    strict: bool = True,
    clock=None,
) -> MergeResult:
    """Fold the campaign's shard files into one canonical checkpoint.

    For every *completed* job, accept exactly the records of the file of
    the fence the job finished under; the records in its files of other
    fences (a predecessor's pre-steal writes, a stalled worker's
    post-steal writes) are counted in ``rejected_stale``.  Each accepted
    file is loaded behind its header, which must hold the spec's seed,
    problems, site and sanitize flag (else
    :class:`~repro.errors.EngineMismatchError`); its records are
    deduplicated/conflict-resolved across shards via
    :meth:`ResultsDB.merge` and written to ``output`` in the spec's
    canonical point order behind the spec's checkpoint header — the same
    file a serial checkpointed sweep of the spec produces.

    ``strict=True`` (default) demands a finished campaign: an unfinished
    shard or an uncovered label raises :class:`CampaignError`.
    ``strict=False`` merges what exists (progress snapshots, triage)."""
    manifest = load_campaign(directory, clock=clock)
    queue = manifest.queue()
    spec = manifest.spec
    shared = shared_fields(spec.seed, spec.problems, spec.site, spec.sanitize)
    db = ResultsDB()
    db.shared = shared
    stats = MergeStats()
    rejected_stale = 0
    shards_merged: list[str] = []
    shards_skipped: list[str] = []
    for job in queue.jobs():
        fence = queue.done_fence(job)
        if fence is None:
            if strict:
                raise CampaignError(
                    f"{job}: not completed (state {queue.state_of(job)!r}); "
                    f"merge with strict=False for a partial snapshot"
                )
            shards_skipped.append(job)
            continue
        files = shard_files(directory, job)
        path = files.pop(fence, None)
        if path is None:
            raise CampaignError(
                f"{job}: marked done under fence {fence} but "
                f"{shard_path(directory, job, fence)} does not exist"
            )
        shard = ResultsDB.load(path)
        if shard.shared is None:
            raise EngineMismatchError(
                f"{path}: holds no header with its seed, problems, site "
                f"and sanitize flag"
            )
        stats += db.merge(shard)
        rejected_stale += sum(len(ResultsDB.load(p)) for p in files.values())
        shards_merged.append(job)

    by_label = {SweepPoint.of_record(r).label(): r for r in db.records}
    ordered, missing = [], []
    for point in spec.resolve_points():
        rec = by_label.get(point.label())
        if rec is None:
            missing.append(point.label())
        else:
            ordered.append(rec)
    if missing and strict:
        raise CampaignError(
            f"merge is missing {len(missing)} label(s) the spec expects "
            f"(first: {missing[0]!r}) — a done shard under-covered its slice"
        )

    out_path = Path(output) if output is not None else campaign_paths(directory)[3]
    if out_path.exists():
        out_path.unlink()  # clean header, no stale append
    with CheckpointWriter(out_path, shared) as writer:
        writer.write(ordered)
    return MergeResult(
        directory=str(directory),
        output=str(out_path),
        merged=len(ordered),
        stats=stats,
        rejected_stale=rejected_stale,
        shards_merged=shards_merged,
        shards_skipped=shards_skipped,
        missing=missing,
    )


def campaign_status(directory: str | Path, clock=None) -> CampaignStatus:
    """Snapshot the campaign's queue (lease table included)."""
    manifest = load_campaign(directory, clock=clock)
    queue = manifest.queue()
    return CampaignStatus(
        directory=str(directory),
        spec_hash=spec_hash(manifest.spec),
        progress=manifest.progress(queue),
        shards=manifest.shard_meta,
        lease_table=queue.table(),
    )
