"""Leases with heartbeats and fencing tokens for campaign jobs.

A lease is the queue's claim record: *who* is working a job, under which
**fencing token** (a per-job monotonically increasing integer), and until
*when* the claim is trusted (last heartbeat + TTL).  The fabric's crash
tolerance hangs off two rules:

* a lease whose deadline has passed may be **stolen** — its file is
  atomically renamed into a tombstone carrying its fence, and the next
  claimer takes ``fence + 1`` — so a dead shard's unfinished points are
  reclaimed and re-issued rather than lost;
* every claim writes its records to its own shard file, named by the
  fence it holds, and the merge reads only the file of the fence the job
  was *completed* under — so a stalled worker that wakes up after its
  lease was stolen can keep appending to its superseded file, harmlessly:
  its late records are fenced out (see
  :func:`repro.harness.campaign.merge_campaign`).

Everything here is plain JSON files manipulated with the two POSIX
primitives whose atomicity the design leans on: ``open(O_CREAT|O_EXCL)``
(exactly one creator wins) and ``os.rename`` (exactly one renamer of an
existing file wins).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.errors import HarnessError


class LeaseError(HarnessError):
    """Base class for lease-protocol violations."""


class LeaseLost(LeaseError):
    """The caller no longer holds the lease it is acting under.

    Raised by heartbeat/complete when the lease file is gone, carries a
    different owner/fence (it was stolen and re-claimed), or the job has
    already been completed under another fence.  A worker receiving this
    must abandon the job — anything it writes from now on will be fenced
    out at merge time."""


@dataclass(frozen=True)
class Lease:
    """One claim on one job: owner, fencing token, and liveness window."""

    job: str
    owner: str
    fence: int
    ttl: float
    granted_at: float
    heartbeat_at: float

    @property
    def deadline(self) -> float:
        """Instant after which the lease may be stolen."""
        return self.heartbeat_at + self.ttl

    def expired(self, now: float) -> bool:
        return now > self.deadline

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Lease":
        return cls(**data)


def create_exclusive(path: Path, payload: dict) -> bool:
    """Create ``path`` with ``payload`` iff it does not exist.

    Returns False when another process won the race (the file exists)."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")
    return True


def read_json(path: Path) -> dict | None:
    """Load one JSON file; ``None`` when it vanished under us (lost race)."""
    try:
        return json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        # A decode error means we read mid-replace; the caller retries or
        # skips, both safe (the authoritative state is the next read).
        return None
