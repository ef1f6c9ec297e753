"""Executor fault tolerance: crashes, timeouts, dead workers.

These are the regression tests for the campaign-robustness guarantees:
one bad run can never abort a batch.  Misbehaving specs are modelled as
module-level ``RunSpec`` subclasses (picklable, importable in workers)
that crash, hang, or kill their worker process on demand.
"""

import os
import pickle
import time
from dataclasses import dataclass

import pytest

from repro.campaign import (
    ParallelExecutor,
    PolicySpec,
    RunSpec,
    SerialExecutor,
    run_campaign,
)
from repro.litmus.catalog import fig1_dekker
from repro.memsys.config import NET_NOCACHE
from repro.models.policies import RelaxedPolicy

#: The test process; worker-killing specs must never fire in-process.
_MAIN_PID = os.getpid()


@dataclass(frozen=True)
class CrashingSpec(RunSpec):
    """A spec whose execution always raises."""

    def execute(self):
        raise RuntimeError("deliberate crash (test fixture)")


@dataclass(frozen=True)
class SleepingSpec(RunSpec):
    """A spec that out-sleeps any reasonable wall-clock budget."""

    sleep_seconds: float = 1.5

    def execute(self):
        time.sleep(self.sleep_seconds)
        return super().execute()


@dataclass(frozen=True)
class WorkerKillingSpec(RunSpec):
    """A spec that kills its worker process (``BrokenProcessPool``).

    ``marker`` is a path: once it exists the spec behaves normally, so a
    single kill tests pool recovery; with ``marker=""`` the spec kills
    every worker it lands on, driving the executor down the degradation
    ladder.  In the main process (degraded serial execution) it raises
    instead of exiting, so the test process itself survives.
    """

    marker: str = ""

    def execute(self):
        if self.marker and os.path.exists(self.marker):
            return super().execute()
        if self.marker:
            with open(self.marker, "w") as handle:
                handle.write("crashed once")
        if os.getpid() != _MAIN_PID:
            os._exit(1)
        raise RuntimeError("worker-killing spec ran in-process")


def _spec(cls=RunSpec, seed=0, **kwargs):
    return cls(
        program=fig1_dekker().program,
        policy=PolicySpec.of(RelaxedPolicy),
        config=NET_NOCACHE,
        seed=seed,
        **kwargs,
    )


def _specs_with(bad, index=1, total=4):
    specs = [_spec(seed=seed) for seed in range(total)]
    specs[index] = bad
    return specs


class TestCrashingSpec:
    def test_serial_batch_survives_a_crash(self):
        specs = _specs_with(_spec(CrashingSpec, seed=1))
        results = SerialExecutor().map(specs)
        assert len(results) == 4
        assert results[1].failure is not None
        assert results[1].failure.kind == "exception"
        assert "deliberate crash" in results[1].failure.message
        assert "deliberate crash" in results[1].failure.traceback
        for i in (0, 2, 3):
            assert results[i].ok

    def test_parallel_batch_keeps_surviving_results(self):
        # The original regression: pool.map lost the whole batch when
        # one worker raised.  Surviving results must come back in spec
        # order with the failing spec reported in place.
        specs = _specs_with(_spec(CrashingSpec, seed=1))
        with ParallelExecutor(jobs=2) as executor:
            results = executor.map(specs)
        baseline = SerialExecutor().map([specs[0], specs[2], specs[3]])
        assert results[1].failure is not None
        assert results[1].failure.kind == "exception"
        assert [pickle.dumps(results[i]) for i in (0, 2, 3)] == [
            pickle.dumps(r) for r in baseline
        ]

    def test_failure_results_byte_identical_serial_vs_parallel(self):
        specs = _specs_with(_spec(CrashingSpec, seed=1))
        serial = SerialExecutor().map(specs)
        with ParallelExecutor(jobs=2) as executor:
            parallel = executor.map(specs)
        assert [pickle.dumps(r) for r in serial] == [
            pickle.dumps(r) for r in parallel
        ]


class TestWallClockTimeout:
    def test_timed_out_run_fails_without_stranding_batch(self):
        specs = _specs_with(_spec(SleepingSpec, seed=1))
        with ParallelExecutor(jobs=2, run_timeout=0.25, retries=0) as executor:
            results = executor.map(specs)
            # The worker still running the abandoned spec is not kept
            # for the next batch.
            assert executor._pool is None
        assert results[1].failure is not None
        assert results[1].failure.kind == "wall-timeout"
        for i in (0, 2, 3):
            assert results[i].ok

    def test_timeout_is_retried_before_failing(self):
        specs = _specs_with(_spec(SleepingSpec, seed=1))
        with ParallelExecutor(jobs=2, run_timeout=0.2, retries=1,
                              backoff_base=0.01) as executor:
            results = executor.map(specs)
        assert results[1].failure is not None
        assert results[1].failure.kind == "wall-timeout"
        assert results[1].failure.attempts == 2
        assert executor.retried_runs == 1


class TestBrokenPool:
    def test_pool_rebuilt_after_worker_death(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        specs = _specs_with(_spec(WorkerKillingSpec, seed=1, marker=marker))
        with ParallelExecutor(jobs=2, backoff_base=0.01) as executor:
            results = executor.map(specs)
        assert executor.pool_rebuilds >= 1
        assert not executor.degraded
        # Second attempt (marker present) runs the real spec normally.
        assert all(r.ok for r in results)
        baseline = SerialExecutor().map([_spec(seed=s) for s in range(4)])
        assert pickle.dumps(results[0]) == pickle.dumps(baseline[0])

    def test_degrades_to_serial_when_pool_keeps_dying(self):
        specs = _specs_with(_spec(WorkerKillingSpec, seed=1))
        with ParallelExecutor(jobs=2, backoff_base=0.01,
                              max_pool_rebuilds=1) as executor:
            results = executor.map(specs)
        assert executor.degraded
        assert executor.pool_rebuilds >= 1
        assert len(results) == 4
        # In-process the killer raises instead of exiting; everything
        # else still completes.
        assert results[1].failure is not None
        assert results[1].failure.kind == "exception"
        for i in (0, 2, 3):
            assert results[i].ok


class TestAttemptAccounting:
    """``RunFailure.attempts`` and CampaignMetrics must tell one story:
    attempts on a failure = 1 + the retries the executor charged it."""

    def test_wall_timeout_attempts_agree_with_metrics(self):
        specs = _specs_with(_spec(SleepingSpec, seed=1))
        executor = ParallelExecutor(
            jobs=2, run_timeout=0.2, retries=1, backoff_base=0.01
        )
        campaign = run_campaign(specs, executor=executor, label="attempts")
        failure = campaign.results[1].failure
        assert failure is not None and failure.kind == "wall-timeout"
        assert failure.attempts == 1 + campaign.metrics.retried_runs
        assert campaign.metrics.retried_runs == executor.retried_runs == 1
        executor.close()

    def test_pool_rebuild_resubmissions_counted_as_retries(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        specs = _specs_with(_spec(WorkerKillingSpec, seed=1, marker=marker))
        executor = ParallelExecutor(jobs=2, backoff_base=0.01)
        campaign = run_campaign(specs, executor=executor, label="rebuild")
        assert campaign.metrics.pool_rebuilds >= 1
        # Every spec resubmitted to the rebuilt pool is a retry, and the
        # metrics see exactly what the executor counted.
        assert campaign.metrics.retried_runs == executor.retried_runs >= 1
        assert all(r.ok for r in campaign.results)
        executor.close()

    def test_degraded_failure_attempts_count_every_launch(self):
        specs = _specs_with(_spec(WorkerKillingSpec, seed=1))
        with ParallelExecutor(jobs=2, backoff_base=0.01,
                              max_pool_rebuilds=1) as executor:
            results = executor.map(specs)
        assert executor.degraded
        failure = results[1].failure
        assert failure is not None and failure.kind == "exception"
        # The killer consumed one launch per pool incarnation plus the
        # final in-process attempt.
        assert failure.attempts >= 2


class TestSimulationTimeout:
    def test_watchdog_trip_becomes_failure_outcome(self):
        spec = _spec(seed=1, max_cycles=20)
        result = spec.execute()
        assert not result.completed
        assert result.failure is not None
        assert result.failure.kind == "sim-timeout"
        assert "watchdog" in result.failure.message

    def test_campaign_metrics_count_timed_out_runs(self):
        specs = _specs_with(_spec(seed=1, max_cycles=20))
        campaign = run_campaign(specs, label="watchdog")
        assert campaign.metrics.failed_runs == 1
        assert campaign.metrics.timed_out_runs == 1
        assert "timed out" in campaign.metrics.describe()


class TestAcceptanceCriterion:
    """ISSUE.md: a campaign containing a crashing spec and a timing-out
    spec completes, returns all other results in spec order, and
    reports both failures."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mixed_failure_campaign_completes(self, jobs):
        specs = [_spec(seed=s) for s in range(6)]
        specs[1] = _spec(CrashingSpec, seed=1)
        specs[4] = _spec(seed=4, max_cycles=20)  # trips the watchdog
        campaign = run_campaign(specs, jobs=jobs, label="mixed")

        assert len(campaign) == 6
        assert not campaign.ok
        assert [i for i, _ in campaign.failures] == [1, 4]
        kinds = {i: f.kind for i, f in campaign.failures}
        assert kinds == {1: "exception", 4: "sim-timeout"}

        survivors = [0, 2, 3, 5]
        baseline = SerialExecutor().map([specs[i] for i in survivors])
        assert [pickle.dumps(campaign.results[i]) for i in survivors] == [
            pickle.dumps(r) for r in baseline
        ]

        report = campaign.failure_report()
        assert "run #1" in report and "run #4" in report
        assert campaign.metrics.failed_runs == 2
        assert campaign.metrics.timed_out_runs == 1
