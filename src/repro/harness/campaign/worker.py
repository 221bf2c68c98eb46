"""Campaign workers: claim shards, run each as one checkpointed sweep.

A worker is a plain :class:`~repro.harness.batch.BatchEngine` session
pointed at a campaign directory.  It loops: claim a shard job from the
queue, run that shard's points as one
:meth:`~repro.harness.batch.BatchEngine.submit` whose checkpoint is the
claim's own file, ``shards/<job>.<fence>.jsonl``, heartbeat after every
record, and mark the job done.  Nothing about the evaluation itself is
campaign-specific — the engine runs the exact serial path a local sweep
runs, behind the spec's checkpoint header, so the records are
byte-identical to a serial sweep's (the equivalence the merge asserts).

Crash tolerance is the lease protocol's job, not the worker's:

* a worker that dies mid-shard simply stops heartbeating; after the TTL
  the next claimer steals the lease under a higher fence, seeds its own
  file with the compacted file of the newest earlier fence, and resumes
  from it: the dead worker's records are served as checkpoint rows
  (**re-emitted**, byte-identical), the remainder is evaluated;
* a worker that *stalls* (GC pause, NFS hang) and wakes after its lease
  was stolen can only append to its own, superseded file — harmlessly.
  Its next heartbeat raises
  :class:`~repro.harness.campaign.lease.LeaseLost`, and the merge reads
  only the file of the fence the job was completed under.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.harness.batch import BatchEngine, BatchJob
from repro.harness.campaign.lease import LeaseLost
from repro.harness.campaign.manifest import (
    CampaignError,
    CampaignManifest,
    load_campaign,
    shard_files,
    shard_path,
    spec_hash,
)
from repro.harness.campaign.queue import Claim, FileQueue
from repro.harness.database import compact_checkpoint
from repro.harness.sweep import SweepPoint

#: Default lease TTL (seconds): how long a silent worker is trusted.
DEFAULT_TTL = 60.0


class WorkerKilled(RuntimeError):
    """Raised by ``on_point`` hooks to simulate a worker dying mid-shard.

    Deliberately *not* caught by :meth:`CampaignWorker.run`: a killed
    worker neither releases nor completes its claim, so the lease stalls
    until the TTL expires and another worker reclaims the shard — the
    exact crash the fabric must absorb."""


@dataclass
class WorkerReport:
    """What one :meth:`CampaignWorker.run` loop accomplished."""

    owner: str
    jobs_done: int = 0
    evaluated: int = 0
    #: Records inherited from a dead predecessor's file and served from
    #: the checkpoint they seed (content-identical).
    reemitted: int = 0
    records_written: int = 0
    leases_lost: int = 0
    jobs: list = field(default_factory=list)


class CampaignWorker:
    """One worker process's view of a campaign (see module docstring).

    ``spec`` is the campaign's :class:`~repro.api.SweepRequest`.
    ``engine`` defaults to a fresh single-process
    :class:`~repro.harness.batch.BatchEngine` built from the spec's
    ``problems`` and ``seed`` — the configuration a serial sweep of
    the same spec would use, which is what keeps worker records
    byte-identical to serial ones.  A given engine must simulate the same
    (else :class:`~repro.errors.EngineMismatchError`).  Shards run with
    the spec's ``sanitize``.  ``clock`` and ``on_point`` exist for
    tests: ``on_point(worker, claim, label)`` runs after each point's
    record is written (raise :class:`WorkerKilled` there to simulate a
    mid-shard crash)."""

    def __init__(
        self,
        directory: str | Path,
        owner: str,
        *,
        ttl: float = DEFAULT_TTL,
        engine: BatchEngine | None = None,
        clock=None,
        on_point=None,
    ) -> None:
        self.directory = Path(directory)
        self.owner = owner
        self.ttl = float(ttl)
        self.manifest: CampaignManifest = load_campaign(directory, clock=clock)
        self.spec = self.manifest.spec
        self.queue: FileQueue = self.manifest.queue()
        self.on_point = on_point
        if engine is not None:
            engine.check_matches(self.spec.problems or {}, self.spec.seed)
        self.engine = engine or BatchEngine(
            problems=self.spec.problems, seed=self.spec.seed
        )
        self._owns_engine = engine is None

    # ------------------------------------------------------------------
    def _points_of(self, payload: dict) -> list[SweepPoint]:
        if payload.get("spec_hash") != spec_hash(self.spec):
            raise CampaignError(
                f"{payload.get('job')}: shard was split from a different "
                f"spec than {self.manifest.path} now holds"
            )
        return [SweepPoint.from_dict(p) for p in payload["points"]]

    def process(self, claim: Claim, report: WorkerReport) -> int:
        """Evaluate one claimed shard; returns records written.

        The claim's checkpoint starts as the compacted file of the job's
        newest earlier fence, when there is one, so the predecessor's
        records are served as ``skipped`` (counted as ``reemitted``);
        the shard is one :meth:`~repro.harness.batch.BatchEngine.submit`
        stream on that checkpoint (on the engine's pool when it has
        one).  The lease is heartbeated after every record, so a healthy
        worker's liveness window never depends on point runtime × shard
        size."""
        points = self._points_of(claim.payload)
        checkpoint = shard_path(self.directory, claim.job, claim.lease.fence)
        earlier = {
            fence: path
            for fence, path in shard_files(self.directory, claim.job).items()
            if fence < claim.lease.fence
        }
        if earlier:
            compact_checkpoint(earlier[max(earlier)], checkpoint)
        spec = self.spec
        stream = self.engine.submit(
            [BatchJob(spec.app, spec.device, pt, site=spec.site) for pt in points],
            self.engine.config.replace(
                sanitize=spec.sanitize, checkpoint=str(checkpoint)
            ),
        )
        written = 0
        try:
            for record in stream:
                # Checkpoint rows yield first, so the first ``skipped``
                # records are the predecessor's.
                if written < stream.skipped:
                    report.reemitted += 1
                else:
                    report.evaluated += 1
                written += 1
                report.records_written += 1
                if self.on_point is not None:
                    label = SweepPoint.of_record(record).label()
                    self.on_point(self, claim, label)
                claim = self.queue.heartbeat(claim)
        finally:
            stream.close()
        return written

    def run(self, max_jobs: int | None = None) -> WorkerReport:
        """Claim-and-process until the queue is drained (or ``max_jobs``).

        A lost lease abandons the current shard (its successor resumes
        from whatever we wrote) and moves on to the next claim; any other
        exception propagates — a genuinely crashed worker must *not*
        release its lease, that is the TTL's job."""
        report = WorkerReport(owner=self.owner)
        while max_jobs is None or report.jobs_done < max_jobs:
            claim = self.queue.claim(self.owner, self.ttl)
            if claim is None:
                break
            try:
                written = self.process(claim, report)
                self.queue.complete(claim, records=written)
            except LeaseLost:
                report.leases_lost += 1
                continue
            report.jobs_done += 1
            report.jobs.append(claim.job)
        return report

    def close(self) -> None:
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "CampaignWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
