"""The service engine: dedup, admission, deadlines, degrade, recovery.

Most tests drive the real engine with real (tiny) litmus campaigns;
where precise control over job *timing* matters, ``build_job`` is
monkeypatched to return hand-made :class:`JobWork` whose execution
blocks on an event the test owns.
"""

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

import repro.service.engine as engine_mod
from repro.campaign import ParallelExecutor, SerialExecutor, run_campaign
from repro.service.engine import (
    ACCEPTED,
    COMPLETED,
    DRAINING,
    DUPLICATE,
    VerificationService,
)
from repro.service.jobs import (
    DONE,
    FAILED,
    JobError,
    JobWork,
    QUEUED,
    build_job,
)
from repro.service.chaos import assert_exactly_once, pid_alive, wait_until
from repro.service.queue import REJECTED_FULL


@pytest.fixture
def service(tmp_path):
    """A started engine on a fresh state dir; always stopped."""
    engine = VerificationService(
        tmp_path / "state", workers=2, campaign_jobs=1, capacity=8
    )
    engine.start()
    yield engine
    engine.stop(timeout=10)


def fake_work(digest: str, run, params=None) -> JobWork:
    return JobWork(
        kind="verify", params=params or {"fake": digest},
        digest=digest, direct=run,
    )


def install_fake_builder(monkeypatch, run_map):
    """``build_job`` returning blockable work keyed by params['name']."""

    def builder(kind, params=None):
        params = dict(params or {})
        name = params["name"]
        return fake_work(name * 8, run_map[name], params)

    monkeypatch.setattr(engine_mod, "build_job", builder)


class TestSubmission:
    def test_accept_run_fetch(self, service):
        job, verdict, _ = service.submit(
            "litmus", {"test": "fig1_dekker", "runs": 4}
        )
        assert verdict == ACCEPTED
        assert job.id == job.digest[:16]
        done = service.wait(job.id, timeout=60)
        assert done.state == DONE
        assert done.result["runs"] == 4
        assert done.result["completed_runs"] == 4

    def test_malformed_submission_raises_job_error(self, service):
        with pytest.raises(JobError):
            service.submit("litmus", {"test": "no_such_test"})
        # Nothing was admitted.
        assert service.queue.depth == 0
        assert service.list_jobs() == []

    def test_completed_job_served_from_memory(self, service):
        job, _, _ = service.submit("verify", {"test": "fig1_dekker"})
        service.wait(job.id, timeout=60)
        again, verdict, _ = service.submit("verify",
                                           {"test": "fig1_dekker"})
        assert verdict == COMPLETED
        assert again is service.get(job.id)
        assert again.result == job.result


class TestDedup:
    def test_inflight_submissions_coalesce(self, service, monkeypatch):
        release = threading.Event()
        started = threading.Event()

        def slow():
            started.set()
            release.wait(30)
            return {"ok": True}

        install_fake_builder(monkeypatch, {"j": slow})
        first, verdict, _ = service.submit("verify", {"name": "j"})
        assert verdict == ACCEPTED
        started.wait(10)
        second, verdict, _ = service.submit("verify", {"name": "j"})
        assert verdict == DUPLICATE
        assert second is first
        assert first.dedup_hits == 1
        # Only one admission slot was spent on the pair.
        assert service.queue.depth == 1
        release.set()
        assert service.wait(first.id, timeout=30).state == DONE

    def test_different_params_do_not_coalesce(self, service):
        a, _, _ = service.submit("verify", {"test": "fig1_dekker"})
        b, _, _ = service.submit(
            "verify", {"test": "fig1_dekker", "max_states": 99}
        )
        assert a.id != b.id


class TestBackpressure:
    def test_sheds_past_capacity_with_retry_after(
        self, tmp_path, monkeypatch
    ):
        release = threading.Event()
        run_map = {
            f"{i}": (lambda: (release.wait(30), {"ok": True})[1])
            for i in range(10)
        }
        install_fake_builder(monkeypatch, run_map)
        engine = VerificationService(
            tmp_path / "state", workers=1, campaign_jobs=1, capacity=3
        )
        engine.start()
        try:
            verdicts = []
            for i in range(6):
                _, verdict, retry_after = engine.submit(
                    "verify", {"name": f"{i}"}
                )
                verdicts.append((verdict, retry_after))
            accepted = [v for v, _ in verdicts if v == ACCEPTED]
            shed = [(v, r) for v, r in verdicts if v == REJECTED_FULL]
            assert len(accepted) == 3
            assert len(shed) == 3
            assert all(r is not None and r >= 1.0 for _, r in shed)
            # Shed submissions left no state: memory stays bounded.
            assert len(engine.list_jobs()) == 3
            release.set()
            for job in engine.list_jobs():
                assert engine.wait(job.id, timeout=30).state == DONE
            # Slots were returned; new work admits again.
            assert engine.queue.depth == 0
        finally:
            release.set()
            engine.stop(timeout=10)

    def test_per_client_cap_protects_others(self, tmp_path, monkeypatch):
        release = threading.Event()
        run_map = {
            f"{i}": (lambda: (release.wait(30), {"ok": True})[1])
            for i in range(6)
        }
        install_fake_builder(monkeypatch, run_map)
        engine = VerificationService(
            tmp_path / "state", workers=1, campaign_jobs=1,
            capacity=8, per_client=1,
        )
        engine.start()
        try:
            _, v1, _ = engine.submit("verify", {"name": "0"},
                                     client="hog")
            _, v2, _ = engine.submit("verify", {"name": "1"},
                                     client="hog")
            _, v3, _ = engine.submit("verify", {"name": "2"},
                                     client="meek")
            assert v1 == ACCEPTED
            assert v2 == "client-cap"
            assert v3 == ACCEPTED
        finally:
            release.set()
            engine.stop(timeout=10)


class TestDeadlines:
    def test_queue_wait_counts_against_the_budget(
        self, tmp_path, monkeypatch
    ):
        release = threading.Event()

        def blocker():
            release.wait(30)
            return {"ok": True}

        def never():  # pragma: no cover - must not run
            raise AssertionError("deadline-expired job was executed")

        install_fake_builder(
            monkeypatch, {"block": blocker, "late": never}
        )
        engine = VerificationService(
            tmp_path / "state", workers=1, campaign_jobs=1, capacity=8
        )
        engine.start()
        try:
            blockjob, _, _ = engine.submit("verify", {"name": "block"})
            late, verdict, _ = engine.submit(
                "verify", {"name": "late"}, deadline_s=0.2
            )
            assert verdict == ACCEPTED
            time.sleep(0.4)  # burn the whole budget in the queue
            release.set()
            finished = engine.wait(late.id, timeout=30)
            assert finished.state == FAILED
            assert finished.error == "deadline-exceeded"
            assert engine.wait(blockjob.id, timeout=30).state == DONE
        finally:
            release.set()
            engine.stop(timeout=10)

    def test_remaining_budget_caps_the_run_timeout(self, tmp_path):
        engine = VerificationService(
            tmp_path / "state", campaign_jobs=2, run_timeout=500.0
        )
        job = engine_mod.Job(
            id="x", kind="litmus", params={}, digest="x" * 16,
            deadline=time.time() + 60.0,
        )
        budget = engine._remaining_budget(job)
        assert 55.0 < budget <= 60.0
        engine.stop(timeout=5)


class TestDegrade:
    def test_open_breaker_degrades_to_serial_with_correct_results(
        self, tmp_path
    ):
        params = {"test": "fig1_dekker", "runs": 4, "policy": "SC"}
        baseline = VerificationService(
            tmp_path / "base", workers=1, campaign_jobs=1
        )
        baseline.start()
        try:
            ref, _, _ = baseline.submit("litmus", params)
            ref = baseline.wait(ref.id, timeout=120)
            assert ref.state == DONE
        finally:
            baseline.stop(timeout=10)

        engine = VerificationService(
            tmp_path / "state", workers=1, campaign_jobs=2,
            breaker_threshold=1, breaker_reset=3600.0,
        )
        engine.breaker.record_failure()  # wedge it open
        engine.start()
        try:
            job, _, _ = engine.submit("litmus", params)
            done = engine.wait(job.id, timeout=120)
            assert done.state == DONE
            assert done.degraded is True
            # Degraded means slower, never different.
            assert done.result == ref.result
        finally:
            engine.stop(timeout=10)

    def test_healthy_pool_jobs_are_not_flagged(self, service):
        job, _, _ = service.submit(
            "litmus", {"test": "fig1_dekker", "runs": 2}
        )
        done = service.wait(job.id, timeout=60)
        assert done.state == DONE
        assert done.degraded is False


class TestRecovery:
    def test_done_jobs_survive_restart(self, tmp_path):
        state = tmp_path / "state"
        first = VerificationService(state, workers=1, campaign_jobs=1)
        first.start()
        job, _, _ = first.submit(
            "litmus", {"test": "fig1_dekker", "runs": 3}
        )
        result = first.wait(job.id, timeout=60).result
        first.stop(timeout=10)

        second = VerificationService(state, workers=1, campaign_jobs=1)
        try:
            recovered = second.get(job.id)
            assert recovered is not None
            assert recovered.state == DONE
            assert recovered.recovered is True
            assert recovered.result == result
            # A repeat submission is served from the recovered record.
            _, verdict, _ = second.submit(
                "litmus", {"test": "fig1_dekker", "runs": 3}
            )
            assert verdict == COMPLETED
        finally:
            second.stop(timeout=10)

    def test_accepted_but_unfinished_jobs_rerun_after_crash(
        self, tmp_path
    ):
        state = tmp_path / "state"
        first = VerificationService(state, workers=1, campaign_jobs=1)
        # Never started: the accepted record is durable, the work never
        # ran — exactly what a SIGKILL right after the 202 leaves.
        job, verdict, _ = first.submit(
            "litmus", {"test": "fig1_dekker", "runs": 3}
        )
        assert verdict == ACCEPTED
        first.journal.close()
        first._close_log()

        second = VerificationService(state, workers=1, campaign_jobs=1)
        second.start()
        try:
            recovered = second.get(job.id)
            assert recovered is not None
            assert recovered.recovered is True
            done = second.wait(job.id, timeout=60)
            assert done.state == DONE
            assert done.result["completed_runs"] == 3
        finally:
            second.stop(timeout=10)

    def test_torn_tail_record_is_dropped(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        log = state / "jobs.jsonl"
        good = json.dumps({
            "type": "accepted", "id": "a" * 16, "kind": "verify",
            "params": {"test": "fig1_dekker"}, "digest": "a" * 64,
        })
        log.write_text(good + "\n" + '{"type": "accepted", "id": "tor')
        engine = VerificationService(state, workers=1, campaign_jobs=1)
        try:
            assert engine.get("a" * 16) is not None
            assert len(engine.list_jobs()) == 1
        finally:
            engine.stop(timeout=5)

    def test_unrecoverable_params_fail_the_job_not_the_boot(
        self, tmp_path
    ):
        state = tmp_path / "state"
        state.mkdir()
        log = state / "jobs.jsonl"
        record = json.dumps({
            "type": "accepted", "id": "b" * 16, "kind": "litmus",
            "params": {"test": "gone_from_catalog"}, "digest": "b" * 64,
        })
        log.write_text(record + "\n")
        engine = VerificationService(state, workers=1, campaign_jobs=1)
        try:
            job = engine.get("b" * 16)
            assert job.state == FAILED
            assert "unrecoverable" in job.error
        finally:
            engine.stop(timeout=5)


class TestDrain:
    def test_draining_refuses_new_submissions(self, service):
        service.request_drain()
        job, verdict, _ = service.submit(
            "litmus", {"test": "fig1_dekker", "runs": 2}
        )
        assert verdict == DRAINING
        assert job is None

    def test_pending_jobs_survive_a_drain_and_finish_after_restart(
        self, tmp_path, monkeypatch
    ):
        release = threading.Event()
        started = threading.Event()

        def blocker():
            started.set()
            release.wait(30)
            return {"ok": True}

        install_fake_builder(
            monkeypatch, {"block": blocker, "next": lambda: {"n": 2}}
        )
        state = tmp_path / "state"
        first = VerificationService(state, workers=1, campaign_jobs=1)
        first.start()
        first.submit("verify", {"name": "block"})
        started.wait(10)
        queued, _, _ = first.submit("verify", {"name": "next"})
        release.set()
        assert first.stop(timeout=10) is True

        second = VerificationService(state, workers=1, campaign_jobs=1)
        second.start()
        try:
            done = second.wait(queued.id, timeout=30)
            assert done.state == DONE
            assert done.result == {"n": 2}
        finally:
            second.stop(timeout=10)


class TestMemoryBound:
    def test_completed_jobs_are_lru_capped(self, tmp_path, monkeypatch):
        run_map = {f"{i}": (lambda i=i: {"i": i}) for i in range(8)}
        install_fake_builder(monkeypatch, run_map)
        engine = VerificationService(
            tmp_path / "state", workers=1, campaign_jobs=1, max_done=3
        )
        engine.start()
        try:
            ids = []
            for i in range(8):
                job, _, _ = engine.submit("verify", {"name": f"{i}"})
                engine.wait(job.id, timeout=30)
                ids.append(job.id)
            terminal = [j for j in engine.list_jobs()]
            assert len(terminal) == 3
            assert {j.id for j in terminal} == set(ids[-3:])
        finally:
            engine.stop(timeout=10)

    def test_pruned_results_still_durable_in_the_log(
        self, tmp_path, monkeypatch
    ):
        run_map = {f"{i}": (lambda i=i: {"i": i}) for i in range(5)}
        install_fake_builder(monkeypatch, run_map)
        state = tmp_path / "state"
        engine = VerificationService(
            state, workers=1, campaign_jobs=1, max_done=2
        )
        engine.start()
        for i in range(5):
            job, _, _ = engine.submit("verify", {"name": f"{i}"})
            engine.wait(job.id, timeout=30)
        engine.stop(timeout=10)
        text = (state / "jobs.jsonl").read_text()
        done = [json.loads(line) for line in text.splitlines()
                if json.loads(line)["type"] == "done"]
        assert len(done) == 5
        assert sorted(d["result"]["i"] for d in done) == list(range(5))


def spawned_pids():
    """Pids of this process's live spawned children."""
    return {
        p.pid for p in multiprocessing.active_children()
        if p.name.startswith("SpawnProcess")
    }


@pytest.fixture
def pool_pids():
    """Pids of spawned children started since the test began."""
    earlier = spawned_pids()
    return lambda: spawned_pids() - earlier


def litmus(seed):
    return {"test": "fig1_dekker", "runs": 8, "base_seed": seed}


def run_job(engine, params, **kwargs):
    job, _, _ = engine.submit("litmus", params, **kwargs)
    done = engine.wait(job.id, timeout=120)
    assert done.state == DONE, done.error
    return done


class TestWarmPool:
    """Each worker thread keeps one spawn pool across its jobs."""

    def test_consecutive_jobs_share_workers_and_stop_reaps_them(
        self, tmp_path, pool_pids
    ):
        engine = VerificationService(
            tmp_path / "state", workers=1, campaign_jobs=2
        )
        engine.start()
        try:
            run_job(engine, litmus(0))
            first = pool_pids()
            run_job(engine, litmus(1))
            assert len(first) == 2
            assert pool_pids() == first
        finally:
            assert engine.stop(timeout=30)
        assert pool_pids() == set()

    def test_deadline_run_timeout_does_not_carry_over(
        self, tmp_path, monkeypatch
    ):
        seen = []
        original = ParallelExecutor.map

        def spy(self, specs):
            seen.append((id(self), self.run_timeout))
            return original(self, specs)

        monkeypatch.setattr(ParallelExecutor, "map", spy)
        engine = VerificationService(
            tmp_path / "state", workers=1, campaign_jobs=2
        )
        engine.start()
        try:
            run_job(engine, litmus(0), deadline_s=60.0)
            run_job(engine, litmus(1))
        finally:
            engine.stop(timeout=30)
        (first, capped), (second, uncapped) = seen
        assert first == second  # one executor served both jobs
        assert 0 < capped <= 60.0
        assert uncapped is None

    def test_idle_worker_killed_between_jobs(self, tmp_path, pool_pids):
        state = tmp_path / "state"
        engine = VerificationService(
            state, workers=1, campaign_jobs=2,
            breaker_threshold=1, breaker_reset=0.0,
        )
        engine.start()
        try:
            run_job(engine, litmus(0))
            before = pool_pids()
            victim = min(before)
            os.kill(victim, signal.SIGKILL)
            # The pool learns of the death from the worker's sentinel;
            # a job submitted in the same instant could finish on the
            # surviving worker first, so let the kill land while idle.
            wait_until(lambda: not pid_alive(victim), timeout=10)
            time.sleep(0.2)
            job = run_job(engine, litmus(1))
            assert engine.breaker.opens == 1
            # The sick pool was dropped, not kept for the next job.
            assert pool_pids() == set()
            # The half-open probe runs on a fresh pool and closes it.
            probe = run_job(engine, litmus(2))
            assert not probe.degraded
            assert engine.breaker.state == "closed"
            after = pool_pids()
            assert after and not (after & before)
        finally:
            engine.stop(timeout=30)

        work = build_job("litmus", litmus(1))
        serial = run_campaign(work.specs, executor=SerialExecutor())
        assert job.result == work.collect(serial)
        assert_exactly_once(state / "runs.jsonl", {
            spec.digest(): result
            for spec, result in zip(work.specs, serial.results)
        })
