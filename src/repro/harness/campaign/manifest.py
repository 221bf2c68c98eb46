"""Campaign specs, shard manifests, and the ``campaign.json`` ledger.

A **campaign** is one sweep — one ``(app, device)`` pair and an ordered
point list — split into shard jobs that any number of machines work
through the file queue.  Three invariants make a Table-2-scale run
globally resumable from any mix of machines:

* the campaign's :class:`~repro.api.SweepRequest` (its *spec*) is
  canonical and hashed: every worker loads the spec from the campaign
  directory and refuses to run against a manifest whose hash disagrees
  (a silently edited spec would break the byte-identity contract);
* the unit of distribution is the **existing checkpoint** — each shard
  lists the point labels it owns (under one spec, a label is a whole
  :class:`~repro.harness.database.RecordKey`), and each claim of a shard
  is one engine checkpoint behind the spec's checked header — so no new
  wire format exists anywhere;
* ``campaign.json`` is written once, at split: the schema version, the
  spec, its hash and each shard's slice.  Shard states, leases and
  progress live in the queue, which ``campaign status`` reads.

Directory layout (everything under one root)::

    campaign.json               the ledger (this module)
    queue/                      the work-stealing queue (jobs/leases/tombs/done)
    shards/<job>.<fence>.jsonl  the checkpoint of one claim, named by its fence
    merged.jsonl                default merge output
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.api import SweepRequest
from repro.errors import HarnessError
from repro.gpusim.device import get_device
from repro.harness.campaign.queue import FileQueue
from repro.harness.database import replace_lines

#: Version of the campaign.json / shard-payload / shard-file layout.
#: Version 1 wrote one fence-tagged ``shards/<job>.jsonl`` per job.
CAMPAIGN_SCHEMA_VERSION = 2

#: Subdirectory names under a campaign root.
QUEUE_DIR = "queue"
SHARD_DIR = "shards"
MERGED_NAME = "merged.jsonl"


class CampaignError(HarnessError):
    """Campaign-level protocol violations (bad spec, incomplete merge)."""


def spec_hash(request: SweepRequest) -> str:
    """sha256 of the canonical request — the campaign's global identity."""
    canonical = json.dumps(asdict(request), sort_keys=True, allow_nan=False)
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
def campaign_paths(directory: str | Path) -> tuple[Path, Path, Path, Path]:
    """(manifest file, queue root, shard dir, default merge output)."""
    root = Path(directory)
    return (
        root / "campaign.json",
        root / QUEUE_DIR,
        root / SHARD_DIR,
        root / MERGED_NAME,
    )


def shard_path(directory: str | Path, job: str, fence: int) -> Path:
    """The checkpoint the claim of ``job`` under ``fence`` writes."""
    return Path(directory) / SHARD_DIR / f"{job}.{fence}.jsonl"


def shard_files(directory: str | Path, job: str) -> dict[int, Path]:
    """Every shard file of ``job``, by fence."""
    files = {}
    for path in (Path(directory) / SHARD_DIR).glob(f"{job}.*.jsonl"):
        fence = path.name[len(job) + 1:-len(".jsonl")]
        if fence.isdigit():
            files[int(fence)] = path
    return files


def _shard_job_id(index: int) -> str:
    return f"shard-{index:04d}"


def partition_labels(n_points: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``[start, stop)`` slices over the point list.

    Contiguity keeps each shard's records a prefix-ordered slice of the
    serial sweep, so the merge's canonical reordering is a pure
    concatenation in the common (no-conflict) case.  Sizes differ by at
    most one."""
    shards = max(1, min(int(shards), n_points)) if n_points else 0
    if not shards:
        return []
    base, extra = divmod(n_points, shards)
    out, start = [], 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        out.append((start, stop))
        start = stop
    return out


def init_campaign(
    directory: str | Path,
    spec: SweepRequest,
    shards: int = 2,
    clock=None,
) -> "CampaignManifest":
    """Create a campaign directory: queue jobs + ``campaign.json``.

    Partitions the spec's resolved point list into ``shards`` contiguous
    jobs keyed by point label and registers each as an immutable queue
    job.  A spec without points or technique, or with an empty candidate
    grid, raises :class:`CampaignError`; an unknown device raises before
    anything is written.  Idempotent re-init of
    the same spec is an error — resume by just pointing workers at the
    directory."""
    manifest_path, queue_root, shard_dir, _ = campaign_paths(directory)
    if manifest_path.exists():
        raise CampaignError(
            f"{manifest_path}: campaign already initialised; "
            f"point workers at it to resume, or choose a new directory"
        )
    if not spec.points and spec.technique is None:
        raise CampaignError("a campaign needs points= or technique=")
    points = spec.resolve_points()
    if not points:
        raise CampaignError(
            f"no candidate grid for {spec.app}/{spec.technique} "
            f"at effort {spec.effort!r}"
        )
    get_device(spec.device)
    shard_dir.mkdir(parents=True, exist_ok=True)
    queue = FileQueue(queue_root, **({"clock": clock} if clock else {}))
    shard_meta: dict[str, dict] = {}
    for idx, (start, stop) in enumerate(partition_labels(len(points), shards)):
        job = _shard_job_id(idx)
        block = points[start:stop]
        payload = {
            "job": job,
            "version": CAMPAIGN_SCHEMA_VERSION,
            "spec_hash": spec_hash(spec),
            "app": spec.app,
            "device": spec.device,
            "site": spec.site,
            "points": [asdict(p) for p in block],
            "labels": [p.label() for p in block],
        }
        queue.add(job, payload)
        shard_meta[job] = {
            "points": len(block),
            "first_label": block[0].label(),
            "slice": [start, stop],
        }
    manifest = CampaignManifest(
        directory=str(directory), spec=spec, shard_meta=shard_meta
    )
    ledger = {
        "version": CAMPAIGN_SCHEMA_VERSION,
        "spec": asdict(spec),
        "spec_hash": spec_hash(spec),
        "shards": shard_meta,
    }
    replace_lines(manifest_path, [json.dumps(ledger, sort_keys=True)])
    return manifest


def load_campaign(directory: str | Path, clock=None) -> "CampaignManifest":
    """Load an existing campaign, verifying the spec hash."""
    manifest_path, queue_root, _, _ = campaign_paths(directory)
    try:
        data = json.loads(manifest_path.read_text())
    except FileNotFoundError:
        raise CampaignError(f"{manifest_path}: no campaign here") from None
    if data.get("version") != CAMPAIGN_SCHEMA_VERSION:
        raise CampaignError(
            f"{manifest_path}: campaign schema {data.get('version')!r} "
            f"unsupported (this build speaks {CAMPAIGN_SCHEMA_VERSION})"
        )
    try:
        spec = SweepRequest.from_dict(data["spec"])
    except ValueError as exc:
        raise CampaignError(f"{manifest_path}: stored spec: {exc}") from None
    if spec_hash(spec) != data["spec_hash"]:
        raise CampaignError(
            f"{manifest_path}: spec hash mismatch — the stored spec was "
            f"edited after split; records would not be comparable"
        )
    manifest = CampaignManifest(
        directory=str(directory), spec=spec, shard_meta=data["shards"]
    )
    if clock is not None:
        manifest._clock = clock
    return manifest


@dataclass
class CampaignManifest:
    """The ``campaign.json`` ledger: the spec and each shard's slice.

    It never changes after split; the campaign's mutable state (shard
    states, leases, progress) is the queue's (:meth:`queue`)."""

    directory: str
    spec: SweepRequest
    shard_meta: dict = field(default_factory=dict)
    _clock: object = None

    @property
    def path(self) -> Path:
        return campaign_paths(self.directory)[0]

    def queue(self) -> FileQueue:
        kwargs = {"clock": self._clock} if self._clock is not None else {}
        return FileQueue(campaign_paths(self.directory)[1], **kwargs)

    def progress(self, queue: FileQueue | None = None) -> dict:
        """Shard-state counts plus per-shard record totals."""
        queue = queue or self.queue()
        states = {"pending": 0, "leased": 0, "expired": 0, "done": 0}
        done_records = 0
        for job in queue.jobs():
            states[queue.state_of(job)] += 1
            info = queue.done_info(job)
            if info is not None:
                done_records += int(info.get("records", 0))
        states["records"] = done_records
        states["total_points"] = sum(
            int(meta.get("points", 0)) for meta in self.shard_meta.values()
        )
        return states
