"""Campaign specs, shard manifests, and the ``campaign.json`` ledger.

A **campaign** is one sweep — one ``(app, device)`` pair and an ordered
point list — split into shard jobs that any number of machines work
through the file queue.  Three invariants make a Table-2-scale run
globally resumable from any mix of machines:

* the :class:`CampaignSpec` is canonical and hashed: every worker loads
  the spec from the campaign directory and refuses to run against a
  manifest whose hash disagrees (a silently edited spec would break the
  byte-identity contract);
* the unit of distribution is the **existing checkpoint record** — each
  shard lists the point labels it owns (under one spec, a label is a
  whole :class:`~repro.harness.database.RecordKey`) — so no new wire
  format exists anywhere;
* ``campaign.json`` snapshots spec hash, shard states, the lease table,
  and progress after every state change, so ``campaign status`` answers
  from one file and a cold machine can decide whether to join, merge, or
  walk away without scanning shards.

Directory layout (everything under one root)::

    campaign.json        the ledger (this module)
    queue/               the work-stealing queue (jobs/leases/tombs/done)
    shards/<job>.jsonl   records written by workers, fence-tagged
    merged.jsonl         default merge output
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.harness.campaign.queue import FileQueue
from repro.harness.database import replace_lines, shared_fields
from repro.harness.sweep import SweepPoint

#: Version of the campaign.json / shard-payload format.
CAMPAIGN_SCHEMA_VERSION = 1

#: Subdirectory names under a campaign root.
QUEUE_DIR = "queue"
SHARD_DIR = "shards"
MERGED_NAME = "merged.jsonl"


class CampaignError(RuntimeError):
    """Campaign-level protocol violations (bad spec, incomplete merge)."""


@dataclass(frozen=True)
class CampaignSpec:
    """Frozen, versioned identity of one campaign's work.

    This is the request object the campaign CLI, :mod:`repro.api`, the
    split tool, and every worker all consume — *what* to run.  Execution
    policy (workers per box, TTLs) deliberately lives elsewhere: two
    machines may run the same spec with different policies, and the
    records must not care.

    ``points`` pins the grid explicitly (a tuple of point dicts, the
    JSONL shape of :class:`~repro.harness.sweep.SweepPoint`); when empty,
    the curated ``technique`` grid at ``effort`` is resolved — the same
    rule :func:`repro.api.sweep` applies.
    """

    app: str
    device: str = "v100_small"
    technique: str | None = None
    effort: str = "quick"
    points: tuple = ()
    site: str | None = None
    seed: int = 2023
    problems: dict | None = None
    sanitize: bool = False
    version: int = CAMPAIGN_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.version != CAMPAIGN_SCHEMA_VERSION:
            raise CampaignError(
                f"unsupported campaign spec version {self.version!r} "
                f"(this build speaks {CAMPAIGN_SCHEMA_VERSION})"
            )
        if not self.points and self.technique is None:
            raise CampaignError("CampaignSpec needs points= or technique=")
        # Normalize list inputs so equal specs hash equally.
        if isinstance(self.points, list):
            object.__setattr__(self, "points", tuple(self.points))

    # -- identity -------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "device": self.device,
            "technique": self.technique,
            "effort": self.effort,
            "points": [dict(p) for p in self.points],
            "site": self.site,
            "seed": self.seed,
            "problems": self.problems,
            "sanitize": self.sanitize,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        data = dict(data)
        data["points"] = tuple(data.get("points") or ())
        return cls(**data)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)

    def spec_hash(self) -> str:
        """sha256 of the canonical spec — the campaign's global identity."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def shared(self) -> dict:
        """The checkpoint header fields of the spec's records."""
        return shared_fields(self.seed, self.problems, self.site, self.sanitize)

    # -- work -----------------------------------------------------------
    def resolve_points(self) -> list[SweepPoint]:
        """The campaign's ordered point list (the serial sweep order)."""
        if self.points:
            return [
                SweepPoint(
                    p["technique"],
                    dict(p["params"]),
                    level=p.get("level", "thread"),
                    items_per_thread=p.get("items_per_thread", 8),
                )
                for p in self.points
            ]
        from repro.harness.figures import candidates

        pts = candidates(self.app, self.technique, self.effort)
        if not pts:
            raise CampaignError(
                f"no candidate grid for {self.app}/{self.technique} "
                f"at effort {self.effort!r}"
            )
        return pts

    @staticmethod
    def point_dict(point: SweepPoint) -> dict:
        """The JSONL shape of one point (what ``points=`` tuples hold)."""
        return {
            "technique": point.technique,
            "params": dict(point.params),
            "level": point.level,
            "items_per_thread": point.items_per_thread,
        }


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


def shard_path(directory: str | Path, job: str) -> Path:
    return Path(directory) / SHARD_DIR / f"{job}.jsonl"


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
    spec: CampaignSpec,
    shards: int = 2,
    clock=None,
) -> "CampaignManifest":
    """Create a campaign directory: queue jobs + ``campaign.json``.

    Partitions the spec's resolved point list into ``shards`` contiguous
    jobs keyed by point label and registers each as an immutable queue
    job.  Idempotent re-init of
    the same spec is an error — resume by just pointing workers at the
    directory."""
    manifest_path, queue_root, shard_dir, _ = campaign_paths(directory)
    if manifest_path.exists():
        raise CampaignError(
            f"{manifest_path}: campaign already initialised; "
            f"point workers at it to resume, or choose a new directory"
        )
    Path(directory).mkdir(parents=True, exist_ok=True)
    shard_dir.mkdir(parents=True, exist_ok=True)
    points = spec.resolve_points()
    from repro.gpusim.device import get_device

    device_name = get_device(spec.device).name
    queue = FileQueue(queue_root, **({"clock": clock} if clock else {}))
    shard_meta: dict[str, dict] = {}
    for idx, (start, stop) in enumerate(partition_labels(len(points), shards)):
        job = _shard_job_id(idx)
        block = points[start:stop]
        payload = {
            "job": job,
            "version": CAMPAIGN_SCHEMA_VERSION,
            "spec_hash": spec.spec_hash(),
            "app": spec.app,
            "device": spec.device,
            "site": spec.site,
            "points": [CampaignSpec.point_dict(p) for p in block],
            "labels": [p.label() for p in block],
        }
        queue.add(job, payload)
        shard_meta[job] = {
            "points": len(block),
            "first_label": block[0].label(),
            "slice": [start, stop],
        }
    manifest = CampaignManifest(
        directory=str(directory),
        spec=spec,
        shard_meta=shard_meta,
        device_name=device_name,
    )
    manifest.refresh(queue=queue)
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
    spec = CampaignSpec.from_dict(data["spec"])
    if spec.spec_hash() != data["spec_hash"]:
        raise CampaignError(
            f"{manifest_path}: spec hash mismatch — the stored spec was "
            f"edited after split; records would not be comparable"
        )
    manifest = CampaignManifest(
        directory=str(directory),
        spec=spec,
        shard_meta=data.get("shards", {}),
        device_name=data.get("device_name", ""),
    )
    if clock is not None:
        manifest._clock = clock
    return manifest


@dataclass
class CampaignManifest:
    """The ``campaign.json`` ledger: spec + shard states + lease table.

    The mutable half (shard states, lease snapshot, progress) is a
    *snapshot* regenerated from the queue on every :meth:`refresh` and
    written atomically, so concurrent writers cannot corrupt it — the
    newest snapshot simply wins."""

    directory: str
    spec: CampaignSpec
    shard_meta: dict = field(default_factory=dict)
    device_name: str = ""
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

    def refresh(self, queue: FileQueue | None = None) -> dict:
        """Re-snapshot queue state into ``campaign.json``; returns it."""
        queue = queue or self.queue()
        snapshot = {
            "version": CAMPAIGN_SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec.spec_hash(),
            "device_name": self.device_name,
            "shards": self.shard_meta,
            "lease_table": queue.table(),
            "progress": self.progress(queue),
        }
        replace_lines(self.path, [json.dumps(snapshot, sort_keys=True)])
        return snapshot
