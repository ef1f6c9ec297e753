"""Kill-the-server chaos: accepted jobs survive anything short of
losing the state directory.

The acceptance drill for the service tier: submit a load of jobs over
real HTTP to a real ``repro serve`` subprocess, SIGKILL the server
mid-load, restart it on the same state dir, and every accepted job
must complete with journal records byte-identical to a clean serial
baseline (:func:`assert_exactly_once` — the same judge the campaign
soak harness answers to).  A SIGTERM instead must drain gracefully
with exit code 0.

Each worker thread's pool stays warm between jobs, so no pool process
may outlive the server, whether it drains or is killed.

These are subprocess tests; they are marked slow (``--runslow``).
"""

import threading

import pytest

from repro.campaign import SerialExecutor, run_campaign
from repro.service.chaos import (
    ServerProcess,
    assert_exactly_once,
    journal_results,
    pid_alive,
    wait_until,
)
from repro.service.jobs import build_job

pytestmark = pytest.mark.slow


def serial_baseline(kind, params):
    """Expected journal contents for one job, from a clean serial run."""
    work = build_job(kind, params)
    executor = SerialExecutor()
    try:
        campaign = run_campaign(
            work.specs, executor=executor, label="baseline"
        )
    finally:
        executor.close()
    return {
        spec.digest(): result
        for spec, result in zip(work.specs, campaign.results)
    }


JOBS = [
    ("litmus", {"test": "fig1_dekker", "runs": 8}),
    ("litmus", {"test": "fig1_dekker", "runs": 8, "policy": "SC"}),
    ("litmus", {"test": "fig1_dekker_sync", "runs": 8,
                "policy": "DEF2"}),
]


class TestServerSigkill:
    def test_accepted_jobs_survive_a_sigkill_byte_identical(
        self, tmp_path
    ):
        expected = {}
        for kind, params in JOBS:
            expected.update(serial_baseline(kind, params))

        state = tmp_path / "state"
        first = ServerProcess(state, workers=2, campaign_jobs=2)
        first.start()
        ids = []
        try:
            client = first.client
            for kind, params in JOBS:
                ids.append(
                    client.submit(kind, params)["job"]["id"]
                )
            # Let real work land in the journal, then pull the plug.
            wait_until(
                lambda: journal_results(state / "runs.jsonl") >= 3,
                timeout=60, message="journaled results before the kill",
            )
        finally:
            first.sigkill()

        second = ServerProcess(state, workers=2, campaign_jobs=2)
        second.start()
        try:
            client = second.client
            for job_id in ids:
                job = client.wait_done(job_id, timeout=180)
                assert job["state"] == "done", job
                assert job["recovered"] or job["state"] == "done"
            # Every expected digest exactly once, byte-identical to the
            # clean serial baseline — the SIGKILL cost nothing.
            assert_exactly_once(state / "runs.jsonl", expected)
            # A repeat submission is now a pure replay.
            kind, params = JOBS[0]
            doc = client.submit(kind, params)
            assert doc["verdict"] == "completed"
            assert second.sigterm() == 0
        finally:
            second.stop()


class TestServerSigterm:
    def test_sigterm_drains_cleanly_with_exit_zero(self, tmp_path):
        state = tmp_path / "state"
        server = ServerProcess(state, workers=1, campaign_jobs=1)
        server.start()
        try:
            client = server.client
            job_id = client.submit(
                "litmus", {"test": "fig1_dekker", "runs": 4}
            )["job"]["id"]
            client.wait_done(job_id, timeout=120)
            assert server.sigterm() == 0
        finally:
            server.stop()

    def test_jobs_preempted_by_sigterm_finish_after_restart(
        self, tmp_path
    ):
        kind, params = "litmus", {"test": "fig1_dekker", "runs": 16}
        expected = serial_baseline(kind, params)
        state = tmp_path / "state"
        first = ServerProcess(state, workers=1, campaign_jobs=1)
        first.start()
        try:
            job_id = first.client.submit(kind, params)["job"]["id"]
            # Terminate while the campaign is (very likely) in flight;
            # the drain is graceful either way.
            wait_until(
                lambda: journal_results(state / "runs.jsonl") >= 1,
                timeout=60, message="first journaled result",
            )
            assert first.sigterm() == 0
        finally:
            first.stop()

        second = ServerProcess(state, workers=1, campaign_jobs=1)
        second.start()
        try:
            job = second.client.wait_done(job_id, timeout=180)
            assert job["state"] == "done"
            result = second.client.result(job_id)["result"]
            assert result["completed_runs"] == 16
            assert_exactly_once(state / "runs.jsonl", expected)
        finally:
            second.stop()


class TestWorkerLoss:
    def test_sigkilled_pool_worker_does_not_lose_the_job(
        self, tmp_path
    ):
        kind = "conformance"
        params = {
            "machines": ["net_nocache"],
            "policies": ["SC", "RELAXED"],
            "tests": ["fig1_dekker"],
            "runs_per_test": 1000,
        }
        expected = serial_baseline(kind, params)
        state = tmp_path / "state"
        server = ServerProcess(state, workers=1, campaign_jobs=2)
        server.start()
        try:
            client = server.client
            # Hunt for a pool worker from the moment of submission —
            # the worker thread starts its pool on its first pool job.
            victims = []
            hunter = threading.Thread(
                target=lambda: victims.append(
                    server.kill_one_worker(timeout=60)
                )
            )
            hunter.start()
            job_id = client.submit(kind, params)["job"]["id"]
            hunter.join(timeout=90)
            assert victims, "never caught a pool worker to kill"
            job = client.wait_done(job_id, timeout=180)
            assert job["state"] == "done", job
            result = client.result(job_id)["result"]
            assert result["preempted"] is False
            assert {cell["policy"] for cell in result["cells"]} == {
                "SC", "RELAXED"
            }
            # The retried runs landed byte-identical regardless.
            assert_exactly_once(state / "runs.jsonl", expected)
            assert server.sigterm() == 0
        finally:
            server.stop()


class TestPoolLifetime:
    def test_sigkilled_server_leaves_no_pool_workers(self, tmp_path):
        server = ServerProcess(tmp_path / "state", workers=1,
                               campaign_jobs=2)
        server.start()
        try:
            client = server.client
            job_id = client.submit("litmus", JOBS[0][1])["job"]["id"]
            assert client.wait_done(job_id, timeout=120)["state"] == "done"
            # The warm pool outlives its job.
            assert len(server.worker_pids()) == 2
            orphans = server.descendant_pids()
        finally:
            server.sigkill()
        wait_until(
            lambda: not any(pid_alive(pid) for pid in orphans),
            timeout=10, message="pool processes to exit with the server",
        )

    def test_sigterm_keeps_one_pool_then_leaves_no_descendants(
        self, tmp_path
    ):
        server = ServerProcess(tmp_path / "state", workers=1,
                               campaign_jobs=2)
        server.start()
        try:
            client = server.client
            seen = []
            for kind, params in JOBS[:2]:
                job_id = client.submit(kind, params)["job"]["id"]
                assert client.wait_done(job_id, timeout=120)["state"] == (
                    "done"
                )
                seen.append(sorted(server.worker_pids()))
            assert len(seen[0]) == 2 and seen[1] == seen[0]
            descendants = server.descendant_pids()
            assert server.sigterm() == 0
        finally:
            server.stop()
        wait_until(
            lambda: not any(pid_alive(pid) for pid in descendants),
            timeout=10, message="descendants to exit after the drain",
        )
