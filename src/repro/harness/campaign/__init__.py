"""Multi-worker, crash-tolerant campaign fabric.

Scales the single-box :class:`~repro.harness.batch.BatchEngine` to the
paper's Table-2 reality — 57,288 configurations, up to 988 GPU-hours per
benchmark (§4) — by splitting a sweep's point space into shard jobs that
any number of plain engine sessions work through a file-backed queue:

* :func:`split_campaign` partitions the points of a sweep's
  :class:`~repro.api.SweepRequest` (the campaign's *spec*) into shard
  manifests keyed by point label and writes the ``campaign.json`` ledger;
* :class:`~repro.harness.campaign.worker.CampaignWorker` sessions claim
  shards under leases with heartbeats (:mod:`.queue`, :mod:`.lease`), so
  a dead worker's unfinished shard is reclaimed after its TTL and
  re-issued under a higher fencing token;
* :func:`merge_campaign` folds the shard JSONLs back into one
  :class:`~repro.harness.database.ResultsDB` — rejecting records whose
  fence is not the one their job *completed* under (a stalled worker's
  late writes), deduplicating and conflict-counting the rest — and
  writes them in canonical spec order, producing a file **byte-identical**
  to a serial sweep's checkpoint of the same points.

The contract tested end-to-end (two workers, one killed mid-shard): kill,
reclaim, re-issue, merge — and the merged bytes equal the serial bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.api import SweepRequest
from repro.harness.campaign.lease import Lease, LeaseError, LeaseLost
from repro.harness.campaign.manifest import (
    CAMPAIGN_SCHEMA_VERSION,
    CampaignError,
    CampaignManifest,
    campaign_paths,
    init_campaign,
    load_campaign,
    shard_path,
    spec_hash,
)
from repro.harness.campaign.queue import Claim, FileQueue
from repro.harness.campaign.worker import (
    DEFAULT_TTL,
    CampaignWorker,
    WorkerKilled,
    WorkerReport,
    strip_tag,
    tag_record,
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
    "strip_tag",
    "tag_record",
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
    #: Records rejected because their fence was not the completion fence
    #: of their job — late writes from stalled/superseded workers.
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
    """Snapshot of a campaign's ledger (:func:`campaign_status`)."""

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
    """Fold the campaign's shard JSONLs into one canonical checkpoint.

    For every *completed* job, accept exactly the records tagged with the
    fence the job finished under — anything else in the shard file (a
    predecessor's pre-steal writes, a stalled worker's post-steal writes)
    is counted in ``rejected_stale`` and dropped.  Accepted records have
    their campaign tag popped (restoring the exact bytes a serial sweep
    would have written), are deduplicated/conflict-resolved across shards
    via :meth:`ResultsDB.merge`, and are written to ``output`` in the
    spec's canonical point order behind the spec's checkpoint header —
    the same file a serial checkpointed sweep of the spec produces.

    ``strict=True`` (default) demands a finished campaign: an unfinished
    shard or an uncovered label raises :class:`CampaignError`.
    ``strict=False`` merges what exists (progress snapshots, triage)."""
    manifest = load_campaign(directory, clock=clock)
    queue = manifest.queue()
    spec = manifest.spec
    db = ResultsDB()
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
        path = shard_path(directory, job)
        if not path.exists():
            raise CampaignError(
                f"{job}: marked done under fence {fence} but "
                f"{path} does not exist"
            )
        accepted = []
        for rec in ResultsDB.load(path).records:
            clean, tag = strip_tag(rec)
            if (
                tag is None
                or tag.get("job") != job
                or int(tag.get("fence", -1)) != fence
            ):
                rejected_stale += 1
                continue
            accepted.append(clean)
        stats += db.merge(accepted)
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
    shared = shared_fields(spec.seed, spec.problems, spec.site, spec.sanitize)
    with CheckpointWriter(out_path, shared) as writer:
        writer.write(ordered)
    manifest.refresh(queue=queue)
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
    """Re-snapshot and return the campaign ledger (lease table included)."""
    manifest = load_campaign(directory, clock=clock)
    snapshot = manifest.refresh()
    return CampaignStatus(
        directory=str(directory),
        spec_hash=snapshot["spec_hash"],
        progress=snapshot["progress"],
        shards=snapshot["shards"],
        lease_table=snapshot["lease_table"],
    )
