"""Campaign fabric tests: queue/lease protocol, crash recovery, and the
byte-identity contract between a distributed campaign and a serial sweep."""

import json

import pytest

from repro.api import SweepRequest
from repro.harness.campaign import (
    CampaignError,
    FileQueue,
    LeaseLost,
    WorkerKilled,
    campaign_paths,
    campaign_status,
    init_campaign,
    load_campaign,
    merge_campaign,
    run_worker,
    shard_path,
    spec_hash,
    split_campaign,
)
from repro.harness.database import CheckpointWriter, ResultsDB, shared_fields
from repro.harness.runner import ExperimentRunner

PROBLEMS = {"blackscholes": {"num_options": 2048, "num_runs": 2}}


def make_spec(**overrides):
    kwargs = dict(
        app="blackscholes", technique="taf", effort="quick", problems=PROBLEMS
    )
    kwargs.update(overrides)
    return SweepRequest(**kwargs)


def shared(spec):
    """The checkpoint header fields of the spec's records."""
    return shared_fields(spec.seed, spec.problems, spec.site, spec.sanitize)


class FakeClock:
    """Deterministic, manually advanced time source for lease tests."""

    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def serial_checkpoint(spec, path):
    """The reference: a serial sweep's checkpoint of the spec's points,
    behind the header of the spec's seed, problems, site and sanitize."""
    runner = ExperimentRunner(problems=spec.problems, seed=spec.seed)
    with CheckpointWriter(path, shared(spec)) as w:
        for pt in spec.resolve_points():
            w.write(
                runner.run_point(spec.app, spec.device, pt, site=spec.site)
            )


# ---------------------------------------------------------------------------
class TestFileQueue:
    def test_claim_is_exclusive(self, tmp_path):
        q = FileQueue(tmp_path, clock=FakeClock())
        q.add("j0", {"x": 1})
        a = q.claim("a", ttl=10.0)
        assert a is not None and a.lease.owner == "a" and a.lease.fence == 1
        assert q.claim("b", ttl=10.0) is None  # held, not expired

    def test_expired_lease_is_stolen_with_higher_fence(self, tmp_path):
        clock = FakeClock()
        q = FileQueue(tmp_path, clock=clock)
        q.add("j0", {})
        a = q.claim("a", ttl=10.0)
        clock.advance(11.0)
        b = q.claim("b", ttl=10.0)
        assert b is not None and b.lease.owner == "b"
        assert b.lease.fence == a.lease.fence + 1
        # The dead claim can no longer heartbeat or complete.
        with pytest.raises(LeaseLost):
            q.heartbeat(a)
        with pytest.raises(LeaseLost):
            q.complete(a)

    def test_heartbeat_extends_the_window(self, tmp_path):
        clock = FakeClock()
        q = FileQueue(tmp_path, clock=clock)
        q.add("j0", {})
        a = q.claim("a", ttl=10.0)
        clock.advance(8.0)
        a = q.heartbeat(a)
        clock.advance(8.0)  # 16s after grant, 8s after heartbeat: alive
        assert q.state_of("j0") == "leased"
        assert q.claim("b", ttl=10.0) is None

    def test_complete_fences_out_late_claims(self, tmp_path):
        clock = FakeClock()
        q = FileQueue(tmp_path, clock=clock)
        q.add("j0", {})
        a = q.claim("a", ttl=10.0)
        q.complete(a, records=3)
        assert q.state_of("j0") == "done"
        assert q.done_fence("j0") == a.lease.fence
        assert q.claim("b", ttl=10.0) is None  # done jobs are never re-issued

    def test_fences_stay_monotonic_across_steals(self, tmp_path):
        clock = FakeClock()
        q = FileQueue(tmp_path, clock=clock)
        q.add("j0", {})
        fences = []
        for owner in ("a", "b", "c"):
            claim = q.claim(owner, ttl=5.0)
            fences.append(claim.lease.fence)
            clock.advance(6.0)
        assert fences == [1, 2, 3]

    def test_release_returns_job_with_fence_bump(self, tmp_path):
        q = FileQueue(tmp_path, clock=FakeClock())
        q.add("j0", {})
        a = q.claim("a", ttl=10.0)
        q.release(a)
        b = q.claim("b", ttl=10.0)
        assert b is not None and b.lease.fence == a.lease.fence + 1

    def test_reclaim_expired_reports_jobs(self, tmp_path):
        clock = FakeClock()
        q = FileQueue(tmp_path, clock=clock)
        q.add("j0", {})
        q.add("j1", {})
        q.claim("a", ttl=5.0, job="j0")
        assert q.reclaim_expired() == []
        clock.advance(6.0)
        assert q.reclaim_expired() == ["j0"]
        assert q.state_of("j0") == "pending"


class TestSplitAndManifest:
    def test_split_partitions_all_points(self, tmp_path):
        spec = make_spec()
        res = split_campaign(tmp_path / "c", spec, shards=2)
        assert res.points == len(spec.resolve_points())
        assert res.shards == 2 and res.jobs == ["shard-0000", "shard-0001"]
        manifest = load_campaign(tmp_path / "c")
        labels = []
        q = manifest.queue()
        for job in q.jobs():
            payload = q.payload(job)
            assert payload["spec_hash"] == spec_hash(spec)
            labels.extend(payload["labels"])
        assert labels == [p.label() for p in spec.resolve_points()]

    def test_double_split_is_an_error(self, tmp_path):
        split_campaign(tmp_path / "c", make_spec())
        with pytest.raises(CampaignError, match="already initialised"):
            split_campaign(tmp_path / "c", make_spec())

    def test_edited_spec_hash_is_rejected(self, tmp_path):
        split_campaign(tmp_path / "c", make_spec())
        path = campaign_paths(tmp_path / "c")[0]
        data = json.loads(path.read_text())
        data["spec"]["seed"] = 9999  # tampered after split
        path.write_text(json.dumps(data))
        with pytest.raises(CampaignError, match="hash mismatch"):
            load_campaign(tmp_path / "c")

    def test_spec_needs_points_or_technique(self, tmp_path):
        with pytest.raises(CampaignError, match="points= or technique="):
            split_campaign(tmp_path / "c", SweepRequest(app="blackscholes"))
        assert not (tmp_path / "c").exists()

    def test_empty_grid_is_refused_at_split(self, tmp_path):
        with pytest.raises(CampaignError, match="no candidate grid"):
            split_campaign(tmp_path / "c", make_spec(technique="perfo"))
        assert not (tmp_path / "c").exists()

    def test_spec_version_gate(self, tmp_path):
        split_campaign(tmp_path / "c", make_spec())
        path = campaign_paths(tmp_path / "c")[0]
        data = json.loads(path.read_text())
        data["spec"]["version"] = 99  # written by another build
        path.write_text(json.dumps(data))
        with pytest.raises(CampaignError, match="version"):
            load_campaign(tmp_path / "c")

    def test_first_layout_is_refused(self, tmp_path):
        # Schema 1 wrote one fence-tagged shard file per job; this build
        # would misread it, so it refuses the directory outright.
        split_campaign(tmp_path / "c", make_spec())
        path = campaign_paths(tmp_path / "c")[0]
        data = json.loads(path.read_text())
        data["version"] = 1
        path.write_text(json.dumps(data))
        with pytest.raises(CampaignError, match="campaign schema 1"):
            load_campaign(tmp_path / "c")

    def test_spec_hashes_are_pinned(self):
        # A campaign's identity is the sha256 of its request's canonical
        # JSON; these are the hashes of campaigns split by earlier builds.
        assert spec_hash(SweepRequest(app="kmeans", technique="taf")) == (
            "c0dfeda2b763b7e7ec1e294a87432eecc2842156ac2fba6415140746514e9f40"
        )
        assert spec_hash(make_spec(problems={
            "blackscholes": {"num_options": 4096, "num_runs": 4},
        })) == "309d7b2fa95c084fa3e00089e89089397c10c5541bf9384e6e41c9aca3777efb"


# ---------------------------------------------------------------------------
class TestCampaignEquivalence:
    """The tentpole contract: a 2-worker campaign with one worker killed
    mid-shard merges to bytes identical to a serial sweep."""

    def test_kill_reclaim_merge_byte_identity(self, tmp_path):
        spec = make_spec()
        serial = tmp_path / "serial.jsonl"
        serial_checkpoint(spec, serial)

        camp = tmp_path / "camp"
        clock = FakeClock()
        split_campaign(camp, spec, shards=2, clock=clock)

        # Worker A dies after writing its second record: no release, no
        # complete — the lease just goes silent.
        state = {"points": 0}

        def kill_after_two(worker, claim, label):
            state["points"] += 1
            if state["points"] >= 2:
                raise WorkerKilled("simulated crash")

        with pytest.raises(WorkerKilled):
            run_worker(camp, "worker-a", ttl=10.0, clock=clock,
                       on_point=kill_after_two)
        status = campaign_status(camp, clock=clock)
        assert status.progress["done"] == 0
        assert status.progress["leased"] == 1
        # Strict merge refuses while shards are outstanding.
        with pytest.raises(CampaignError, match="not completed"):
            merge_campaign(camp, clock=clock)

        # TTL passes; worker B reclaims the dead shard, re-emits A's
        # records under its own fence, and finishes the campaign.
        clock.advance(60.0)
        report = run_worker(camp, "worker-b", ttl=10.0, clock=clock)
        assert report.jobs_done == 2
        assert report.reemitted == 2  # A's two orphaned records
        assert report.evaluated == len(spec.resolve_points()) - 2

        result = merge_campaign(camp, clock=clock)
        assert result.complete
        # A's fence-1 records are fenced out, B's fence-2 records land.
        assert result.rejected_stale == 2
        assert result.stats.conflicts == 0
        assert (
            (tmp_path / "camp" / "merged.jsonl").read_bytes()
            == serial.read_bytes()
        )

    def test_clean_two_worker_campaign_matches_serial(self, tmp_path):
        spec = make_spec()
        serial = tmp_path / "serial.jsonl"
        serial_checkpoint(spec, serial)
        camp = tmp_path / "camp"
        split_campaign(camp, spec, shards=2)
        a = run_worker(camp, "a", max_jobs=1)
        b = run_worker(camp, "b")
        assert a.jobs_done == 1 and b.jobs_done == 1
        result = merge_campaign(camp)
        assert result.rejected_stale == 0 and result.complete
        assert (camp / "merged.jsonl").read_bytes() == serial.read_bytes()
        # Each claim's file is a checkpoint behind the spec's header.
        for job in ("shard-0000", "shard-0001"):
            assert ResultsDB.load(shard_path(camp, job, 1)).shared == shared(spec)
        # Resuming a finished campaign is a no-op.
        assert run_worker(camp, "c").jobs_done == 0

    @pytest.mark.parametrize("header, match", [
        (shared(make_spec(seed=7)), "seed=7"),
        (None, "no header"),
    ])
    def test_shard_of_another_identity_is_refused_at_merge(
        self, tmp_path, header, match
    ):
        from repro.errors import EngineMismatchError

        spec = make_spec()
        camp = tmp_path / "camp"
        split_campaign(camp, spec, shards=2)
        run_worker(camp, "a")
        # A done file rewritten behind another seed's header, or none.
        path = shard_path(camp, "shard-0001", 1)
        db = ResultsDB.load(path)
        path.unlink()
        with CheckpointWriter(path, header) as w:
            w.write(db.records)
        with pytest.raises(EngineMismatchError, match=match):
            merge_campaign(camp)


class TestPoolWorker:
    def test_pool_engine_runs_each_shard_as_one_stream(self, tmp_path, monkeypatch):
        # A worker on a 2-process engine submits each shard once and runs
        # it on the pool; the merge is still byte-identical to serial.
        from repro.harness.batch import BatchEngine
        from repro.harness.config import SweepConfig

        spec = make_spec()
        serial = tmp_path / "serial.jsonl"
        serial_checkpoint(spec, serial)
        camp = tmp_path / "camp"
        split_campaign(camp, spec, shards=2)
        submits = []
        real = BatchEngine.submit

        def counting(self, jobs, config=None):
            submits.append(len(jobs))
            return real(self, jobs, config)

        monkeypatch.setattr(BatchEngine, "submit", counting)
        with BatchEngine(
            problems=spec.problems, seed=spec.seed,
            config=SweepConfig(workers=2),
        ) as eng:
            report = run_worker(camp, "pooled", engine=eng)
            assert eng.stats.pool_spawns == 1
        n = len(spec.resolve_points())
        assert report.jobs_done == 2 and report.evaluated == n
        assert report.records_written == n
        assert len(submits) == 2 and sum(submits) == n
        assert merge_campaign(camp).complete
        assert (camp / "merged.jsonl").read_bytes() == serial.read_bytes()


class TestCallerEngine:
    """A worker given an engine runs the spec's identity or refuses."""

    def test_spec_sanitize_overrides_the_engine_policy(self, tmp_path):
        from repro.harness.batch import BatchEngine

        spec = make_spec(sanitize=True)
        camp = tmp_path / "camp"
        split_campaign(camp, spec, shards=2)
        with BatchEngine(problems=spec.problems) as eng:
            run_worker(camp, "w", engine=eng)
        merged = ResultsDB.load(merge_campaign(camp).output)
        assert len(merged) == len(spec.resolve_points())
        assert all("approxsan" in rec.extra for rec in merged)
        assert merged.shared == shared(spec)

    @pytest.mark.parametrize("field", ["seed", "problems"])
    def test_engine_of_another_seed_or_problems_is_refused(self, tmp_path, field):
        from repro.errors import EngineMismatchError
        from repro.harness.batch import BatchEngine

        spec = make_spec()
        camp = tmp_path / "camp"
        split_campaign(camp, spec, shards=2)
        other = {"seed": {"seed": 7}, "problems": {"problems": None}}[field]
        with BatchEngine(**{"problems": spec.problems, **other}) as eng:
            with pytest.raises(EngineMismatchError, match=f"{field}="):
                run_worker(camp, "w", engine=eng)
            assert eng.stats.submitted == 0


class TestLateWriterFencing:
    """Satellite regression: a worker that heartbeats, stalls past its
    TTL, and then writes anyway must have those records rejected."""

    def test_stalled_workers_late_records_are_fenced_out(self, tmp_path):
        spec = make_spec()
        serial = tmp_path / "serial.jsonl"
        serial_checkpoint(spec, serial)
        camp = tmp_path / "camp"
        clock = FakeClock()
        split_campaign(camp, spec, shards=1, clock=clock)

        manifest = load_campaign(camp, clock=clock)
        queue = manifest.queue()
        stalled = queue.claim("stalled", ttl=10.0)
        assert stalled is not None and stalled.lease.fence == 1
        stalled = queue.heartbeat(stalled)  # alive... then a long pause.
        clock.advance(30.0)

        # A healthy worker reclaims and completes the whole campaign.
        report = run_worker(camp, "healthy", ttl=10.0, clock=clock)
        assert report.jobs_done == 1

        # The stalled worker wakes with no idea it was superseded and
        # appends its records to its own, fence-1 checkpoint.
        runner = ExperimentRunner(problems=spec.problems, seed=spec.seed)
        points = spec.resolve_points()
        late = shard_path(camp, stalled.job, stalled.lease.fence)
        with CheckpointWriter(late, shared(spec)) as w:
            for pt in points[:2]:
                w.write(runner.run_point(spec.app, spec.device, pt))
        # Its heartbeat (and completion) now fail — the fence moved on.
        with pytest.raises(LeaseLost):
            queue.heartbeat(stalled)
        with pytest.raises(LeaseLost):
            queue.complete(stalled)

        result = merge_campaign(camp, clock=clock)
        assert result.rejected_stale == 2  # the late fence-1 records
        assert result.merged == len(points) and result.complete
        assert (camp / "merged.jsonl").read_bytes() == serial.read_bytes()


class TestPartialMerge:
    def test_partial_merge_of_incomplete_campaign(self, tmp_path):
        spec = make_spec()
        camp = tmp_path / "camp"
        split_campaign(camp, spec, shards=2)
        run_worker(camp, "a", max_jobs=1)
        result = merge_campaign(camp, strict=False)
        assert not result.complete
        assert result.shards_skipped == ["shard-0001"]
        assert result.merged > 0
        assert len(result.missing) == len(spec.resolve_points()) - result.merged

    def test_merge_to_explicit_output(self, tmp_path):
        spec = make_spec()
        camp = tmp_path / "camp"
        split_campaign(camp, spec, shards=2)
        run_worker(camp, "a")
        out = tmp_path / "elsewhere.jsonl"
        result = merge_campaign(camp, out)
        assert result.output == str(out) and out.exists()
        assert len(ResultsDB.load(out)) == len(spec.resolve_points())
