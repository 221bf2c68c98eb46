"""File-backed work-stealing job queue with leases and fencing.

The queue is a directory — no daemon, no socket, no lock server — so any
machine that can see the filesystem (a shared mount, an rsync'd tree, one
box running several workers) can claim work.  Layout under ``root``::

    jobs/<job>.json      immutable job payloads (written once at split)
    leases/<job>.json    the active claim, if any (owner, fence, heartbeat)
    tombs/<job>.<n>.json tombstones of superseded claims (fence history)
    done/<job>.json      completion markers (the fence the job finished under)

State transitions use only atomic primitives (see
:mod:`repro.harness.campaign.lease`), so concurrent workers — including
workers racing to steal the same expired lease — resolve every conflict
to exactly one winner:

* **claim**: create ``leases/<job>.json`` with ``O_CREAT|O_EXCL``; the
  fence is ``1 + the highest tombstoned fence`` (tombstones persist, so
  fences are monotonic across any interleaving of claims and steals);
* **steal**: rename an *expired* lease to its tombstone — one renamer
  wins, everyone else moves on — after which the job is claimable again;
* **complete**: re-verify ownership, write ``done/<job>.json`` carrying
  the fence, remove the lease.  The done fence names the only shard file
  the merge reads.

The queue is *work-stealing* in the idle-worker-pulls sense: nothing
assigns jobs; every worker scans ``jobs/`` (cheapest-first by sorted id)
and takes whatever is unclaimed or reclaimable.  A socket front can later
wrap this same directory protocol without changing workers.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.harness.campaign.lease import (
    Lease,
    LeaseLost,
    create_exclusive,
    read_json,
)
from repro.harness.database import replace_lines

#: Subdirectories a queue root contains.
QUEUE_DIRS = ("jobs", "leases", "tombs", "done")


@dataclass
class Claim:
    """A successfully claimed job: its payload plus the lease held, whose
    fence names the shard file the claim writes."""

    job: str
    payload: dict
    lease: Lease


class FileQueue:
    """Directory-backed job queue (see module docstring for the protocol).

    ``clock`` injects time (seconds, ``time.time``-like) so lease expiry
    and reclamation are deterministic under test."""

    def __init__(self, root: str | Path, clock=time.time) -> None:
        self.root = Path(root)
        self.clock = clock
        for sub in QUEUE_DIRS:
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # -- paths ----------------------------------------------------------
    def _job_path(self, job: str) -> Path:
        return self.root / "jobs" / f"{job}.json"

    def _lease_path(self, job: str) -> Path:
        return self.root / "leases" / f"{job}.json"

    def _tomb_path(self, job: str, fence: int) -> Path:
        return self.root / "tombs" / f"{job}.{fence}.json"

    def _done_path(self, job: str) -> Path:
        return self.root / "done" / f"{job}.json"

    # -- job book-keeping ----------------------------------------------
    def add(self, job: str, payload: dict) -> None:
        """Register one immutable job (split-time only)."""
        if not create_exclusive(self._job_path(job), payload):
            raise ValueError(f"job {job!r} already exists in the queue")

    def jobs(self) -> list[str]:
        """All job ids, sorted (the claim scan order)."""
        return sorted(p.stem for p in (self.root / "jobs").glob("*.json"))

    def payload(self, job: str) -> dict:
        data = read_json(self._job_path(job))
        if data is None:
            raise KeyError(f"unknown job {job!r}")
        return data

    def is_done(self, job: str) -> bool:
        return self._done_path(job).exists()

    def done_fence(self, job: str) -> int | None:
        """The fence the job was completed under, or None if unfinished."""
        data = read_json(self._done_path(job))
        return None if data is None else int(data["fence"])

    def done_info(self, job: str) -> dict | None:
        return read_json(self._done_path(job))

    def lease_of(self, job: str) -> Lease | None:
        data = read_json(self._lease_path(job))
        return None if data is None else Lease.from_dict(data)

    def tomb_fences(self, job: str) -> list[int]:
        prefix = f"{job}."
        out = []
        for p in (self.root / "tombs").glob(f"{job}.*.json"):
            tail = p.name[len(prefix):-len(".json")]
            if tail.isdigit():
                out.append(int(tail))
        return sorted(out)

    def next_fence(self, job: str) -> int:
        """The fence the next successful claim of ``job`` would carry."""
        fences = self.tomb_fences(job)
        return (fences[-1] if fences else 0) + 1

    # -- the protocol ---------------------------------------------------
    def _steal(self, job: str, lease: Lease) -> bool:
        """Tombstone an expired lease; True iff *we* won the rename."""
        try:
            os.rename(self._lease_path(job), self._tomb_path(job, lease.fence))
        except FileNotFoundError:
            return False  # someone else stole (or the holder completed)
        return True

    def reclaim_expired(self) -> list[str]:
        """Tombstone every expired lease; returns the reclaimed job ids.

        Claiming does this lazily per job, so calling this is optional —
        it exists so a monitor (or ``campaign status``) can surface
        reclamation eagerly and so tests can assert on it."""
        now = self.clock()
        reclaimed = []
        for job in self.jobs():
            if self.is_done(job):
                continue
            lease = self.lease_of(job)
            if lease is not None and lease.expired(now) and self._steal(job, lease):
                reclaimed.append(job)
        return reclaimed

    def claim(self, owner: str, ttl: float, job: str | None = None) -> Claim | None:
        """Claim one available job for ``owner``; None when nothing is left.

        Scans jobs in sorted id order (or just ``job``); for each: skip if
        done; steal its lease if expired; then race to create the lease
        file.  The returned :class:`Claim` carries the fencing token that
        names the shard file every record written under it goes to."""
        now = self.clock()
        for candidate in [job] if job is not None else self.jobs():
            if self.is_done(candidate):
                continue
            held = self.lease_of(candidate)
            if held is not None:
                if not held.expired(now):
                    continue
                self._steal(candidate, held)
                # Fall through: the lease file is gone (by us or a rival);
                # the O_EXCL create below decides who gets the new claim.
            lease = Lease(
                job=candidate,
                owner=owner,
                fence=self.next_fence(candidate),
                ttl=float(ttl),
                granted_at=now,
                heartbeat_at=now,
            )
            if create_exclusive(self._lease_path(candidate), lease.to_dict()):
                return Claim(
                    job=candidate, payload=self.payload(candidate), lease=lease
                )
        return None

    def _verify(self, claim: Claim) -> Lease:
        """The claim's lease as currently on disk, or :class:`LeaseLost`."""
        if self.is_done(claim.job):
            raise LeaseLost(
                f"{claim.job}: already completed under fence "
                f"{self.done_fence(claim.job)} (we held {claim.lease.fence})"
            )
        held = self.lease_of(claim.job)
        if (
            held is None
            or held.owner != claim.lease.owner
            or held.fence != claim.lease.fence
        ):
            raise LeaseLost(
                f"{claim.job}: lease stolen "
                f"(held fence {claim.lease.fence}, current "
                f"{'none' if held is None else held.fence})"
            )
        return held

    def heartbeat(self, claim: Claim) -> Claim:
        """Refresh the claim's liveness window; returns the updated claim.

        Raises :class:`LeaseLost` when the lease was stolen — the worker
        must stop: any record it writes from here on goes to a superseded
        fence's file, which the merge does not read."""
        self._verify(claim)
        lease = Lease(
            job=claim.lease.job,
            owner=claim.lease.owner,
            fence=claim.lease.fence,
            ttl=claim.lease.ttl,
            granted_at=claim.lease.granted_at,
            heartbeat_at=self.clock(),
        )
        replace_lines(
            self._lease_path(claim.job),
            [json.dumps(lease.to_dict(), sort_keys=True)],
        )
        return Claim(job=claim.job, payload=claim.payload, lease=lease)

    def complete(self, claim: Claim, records: int = 0) -> None:
        """Mark the job done under the claim's fence and drop the lease."""
        self._verify(claim)
        done = {
            "job": claim.job,
            "fence": claim.lease.fence,
            "owner": claim.lease.owner,
            "records": int(records),
            "completed_at": self.clock(),
        }
        replace_lines(self._done_path(claim.job), [json.dumps(done, sort_keys=True)])
        try:
            os.remove(self._lease_path(claim.job))
        except FileNotFoundError:
            pass

    def release(self, claim: Claim) -> None:
        """Voluntarily give the job back (tombstoned, so the fence bumps)."""
        try:
            self._verify(claim)
        except LeaseLost:
            return
        self._steal(claim.job, claim.lease)

    # -- introspection --------------------------------------------------
    def state_of(self, job: str) -> str:
        """``done`` / ``leased`` / ``expired`` / ``pending``."""
        if self.is_done(job):
            return "done"
        lease = self.lease_of(job)
        if lease is None:
            return "pending"
        return "expired" if lease.expired(self.clock()) else "leased"

    def table(self) -> dict[str, dict]:
        """Snapshot of every job's state, lease, and fence history."""
        out: dict[str, dict] = {}
        for job in self.jobs():
            entry: dict = {
                "state": self.state_of(job),
                "reclaims": len(self.tomb_fences(job)),
            }
            lease = self.lease_of(job)
            if lease is not None:
                entry["lease"] = lease.to_dict()
            done = self.done_info(job)
            if done is not None:
                entry["done"] = done
            out[job] = entry
        return out
