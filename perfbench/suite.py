"""The four benchmark workloads, driven through ``repro.api`` / ``repro serve``.

Each workload builds its inputs from the seed alone, runs one *pass*
(the unit that is timed as ``wall_s``) as a sequence of *requests*
(each timed as one latency sample), and checks the pass's outputs
afterwards, outside the timed region.  Why each workload exists is in
``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import api
from repro.conformance import (
    VERDICT_BROKEN,
    VERDICT_NA,
    VERDICT_SC,
    VERDICT_WEAK,
)
from repro.obs.export import parse_prometheus

from hostspeed import HostSpeed
from layers import Patches, Recorder, in_process_trace

HERE = os.path.dirname(os.path.abspath(__file__))

#: Seeds per run in the conformance grid: sized so a pass takes about
#: 1.5 s on a 2-CPU host and RELAXED still breaks on every cached machine.
CONFORMANCE_RUNS_PER_TEST = 3
#: Seeds per run in the cross-check: simulation stays a minority share,
#: as in the default command, while the axiomatic side dominates.
CROSSCHECK_RUNS_PER_TEST = 6
CROSSCHECK_CELLS = 171
CROSSCHECK_SKIPPED = 2
EXPLORE_POLICIES = ("DEF2", "RELAXED", "SC", "TSO")
EXPLORE_MAX_DELAYS = 2
#: Seeded random programs per family.  Schedule counts of random
#: programs vary tenfold from seed to seed, so the programs are small
#: (one two-access critical section per processor, all under one lock
#: so that they contend; two accesses per racy processor): the pass
#: stays comparable across seeds while the explorer still gets inputs
#: it has not seen.
EXPLORE_RANDOM_PROGRAMS = 3
#: Machines with caches: RELAXED must break Definition 2 on every one.
CACHED_MACHINES = ("bus_cache", "bus_cache_snoop", "net_cache", "net_cache_vc")
#: Policies that promise Definition 2 (or SC) and must never be BROKEN.
CONFORMING_POLICIES = ("DEF1", "DEF2", "DEF2-R", "SC")

#: (test, policy, machine) of the fresh jobs: every pass submits each
#: template once, in a seed-shuffled order with seed-derived base seeds,
#: so passes and seeds ask for comparable amounts of work.
SERVICE_TEMPLATES = (
    ("fig1_dekker", "DEF2", "net_cache"),
    ("message_passing", "TSO", "bus_cache"),
    ("iriw", "SC", "net_cache"),
    ("wrc", "DEF1", "bus_cache_snoop"),
)
SERVICE_RUNS_PER_JOB = 16
#: Each fresh job is followed by this many repeats of the pass's
#: earlier fresh jobs (completed reads): an assumed mix, see
#: perfbench/README.md.
SERVICE_REPEATS = 4
SERVICE_CAMPAIGN_JOBS = 2
SERVICE_START_TIMEOUT = 60.0
SERVICE_STOP_TIMEOUT = 60.0


def derived_seed(*parts) -> int:
    """A 31-bit seed derived deterministically from ``parts``."""
    return random.Random(":".join(map(str, parts))).randrange(1 << 31)


class Collector(api.SerialExecutor):
    """The serial executor, totalling what the simulator did per pass."""

    #: A preemptible executor would take a SIGTERM as a request to stop
    #: the batch and return the rest as failed runs; the benchmark's own
    #: handler ends the run instead.
    preemptible = False

    def __init__(self) -> None:
        super().__init__()
        self.reset()

    def reset(self) -> None:
        self.totals = dict.fromkeys(
            ("runs", "failed_runs", "sim_cycles", "stall_cycles",
             "messages", "sync_nacks"), 0,
        )

    def map(self, specs):
        results = super().map(specs)
        totals = self.totals
        for result in results:
            totals["runs"] += 1
            totals["sim_cycles"] += result.cycles
            totals["stall_cycles"] += result.timings.stall_cycles
            totals["messages"] += result.timings.messages
            totals["sync_nacks"] += result.timings.sync_nacks
            if not result.ok:
                totals["failed_runs"] += 1
        return results


@dataclass
class Check:
    """What a pass's output check found."""

    attempted: int = 0
    failed: int = 0
    #: Exact-repeat work counts: deterministic per seed and pass index.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Additive layer counts for the traced run's table.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Latency samples per request path, where requests take different
    #: paths (service-mix: ``fresh`` and ``repeat`` jobs).
    paths: Dict[str, List[float]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def expect(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


class Workload:
    """One benchmark workload; subclasses fill in run_pass and check."""

    name = ""
    #: Whether the traced run can profile the work in this process.
    in_process = True

    def __init__(self, seed: int, state_root: str, traced: bool) -> None:
        self.seed = seed
        self.state_root = state_root
        self.traced = traced
        #: Calibration samples of the current pass, one per request.
        self.speed = HostSpeed()

    def start(self) -> None:
        """Bring up whatever the passes need (set-up, timed as setup_s)."""

    def close(self) -> None:
        """Stop everything :meth:`start` started."""

    def run_pass(self, index: int, traced: bool) -> Tuple[List[float], Any]:
        """Run pass ``index``; return per-request latencies and output.

        The requests run one after another, each right after a sample
        of :attr:`speed`, so the pass's time is the sum of its latencies.
        """
        raise NotImplementedError

    def check(self, output: Any) -> Check:
        raise NotImplementedError

    def tracing(self, recorder: Recorder):
        """Context that records the enclosed pass into ``recorder``."""
        return in_process_trace(recorder, self.speed)

    def peak_rss_extra_kb(self) -> int:
        """Peak RSS of helper processes, read before :meth:`close`."""
        return 0


def _run_check(totals: Dict[str, int]) -> Check:
    """A pass's check seeded with the simulator totals it collected."""
    check = Check(
        attempted=totals["runs"],
        failed=totals["failed_runs"],
        counts={"runs": totals["runs"], "sim_cycles": totals["sim_cycles"]},
        layer={
            key: totals[key]
            for key in ("stall_cycles", "messages", "sync_nacks")
        },
    )
    if totals["failed_runs"]:
        check.problems.append(f"{totals['failed_runs']} runs failed")
    return check


def _timed(call, latencies: List[float], speed: HostSpeed):
    speed.sample()
    start = time.perf_counter()
    result = call()
    latencies.append(time.perf_counter() - start)
    return result


class ConformanceGrid(Workload):
    """The full machines x policies x catalog grid, one row per test."""

    name = "conformance-grid"

    def __init__(self, seed, state_root, traced):
        super().__init__(seed, state_root, traced)
        self.base_seed = derived_seed(self.name, seed)
        self.tests = api.standard_catalog()
        plan = api.plan_conformance(
            tests=self.tests,
            runs_per_test=CONFORMANCE_RUNS_PER_TEST,
            base_seed=self.base_seed,
        )
        self.planned_runs = len(plan.specs)
        self.collector = Collector()

    def run_pass(self, index, traced):
        # One call per test: the same runs and judging as one whole-grid
        # call (the grid's DRF cache is keyed per test), but each test's
        # row is a request a user waits for, so it gives a latency.
        self.collector.reset()
        latencies: List[float] = []
        reports = [
            _timed(
                lambda test=test: api.run_conformance(
                    tests=[test],
                    runs_per_test=CONFORMANCE_RUNS_PER_TEST,
                    base_seed=self.base_seed,
                    executor=self.collector,
                ),
                latencies,
                self.speed,
            )
            for test in self.tests
        ]
        return latencies, (reports, dict(self.collector.totals))

    def check(self, output):
        reports, totals = output
        check = _run_check(totals)
        check.expect(
            totals["runs"] == self.planned_runs,
            f"ran {totals['runs']} runs, planned {self.planned_runs}",
        )
        rank = {VERDICT_SC: 0, VERDICT_WEAK: 1, VERDICT_BROKEN: 2}
        grid: Dict[Tuple[str, str], str] = {}
        for report in reports:
            for cell in report.cells:
                key = (cell.config_name, cell.policy_name)
                if cell.verdict == VERDICT_NA:
                    grid[key] = VERDICT_NA
                elif rank[cell.verdict] >= rank[grid.get(key, VERDICT_SC)]:
                    grid[key] = cell.verdict
        for (machine, policy), verdict in sorted(grid.items()):
            if verdict == VERDICT_NA:
                continue
            if policy in CONFORMING_POLICIES:
                check.expect(
                    verdict != VERDICT_BROKEN,
                    f"{policy} on {machine} is BROKEN",
                )
            elif policy == "RELAXED" and machine in CACHED_MACHINES:
                check.expect(
                    verdict == VERDICT_BROKEN,
                    f"RELAXED on {machine} is {verdict}, expected BROKEN",
                )
        return check


class CrosscheckAll(Workload):
    """Operational-vs-axiomatic agreement over every policy and test."""

    name = "crosscheck-all"

    def __init__(self, seed, state_root, traced):
        super().__init__(seed, state_root, traced)
        self.base_seed = derived_seed(self.name, seed)
        by_model: Dict[str, List[str]] = {}
        for policy in api.policy_names():
            by_model.setdefault(
                api.model_for_policy(policy).name, []
            ).append(policy)
        #: One request per (test, axiomatic model), model by model, so
        #: the few slow requests of one test are spread over the pass
        #: instead of bunched into one moment of host noise.  A test
        #: without a finite candidate space is one request (skipped).
        tests = api.standard_catalog()
        self.requests = [
            (test, list(api.policy_names()))
            for test in tests
            if not api.is_straightline(test.program)
        ] + [
            (test, policies)
            for policies in by_model.values()
            for test in tests
            if api.is_straightline(test.program)
        ]
        self.collector = Collector()

    def run_pass(self, index, traced):
        # The requests do the work of one whole-catalog call: each
        # model's allowed set is enumerated once per test either way,
        # and the runner shared across the pass enumerates each test's
        # SC set once.  Only the per-test DRF0 flags are redone per
        # request.  Per-test requests would leave one test (iriw_warm)
        # with most of the time and too few samples for a p90.
        self.collector.reset()
        runner = api.LitmusRunner()
        latencies: List[float] = []
        reports = [
            _timed(
                lambda test=test, policies=policies: api.crosscheck_models(
                    tests=[test],
                    policies=policies,
                    runs_per_test=CROSSCHECK_RUNS_PER_TEST,
                    base_seed=self.base_seed,
                    runner=runner,
                    executor=self.collector,
                ),
                latencies,
                self.speed,
            )
            for test, policies in self.requests
        ]
        return latencies, (reports, dict(self.collector.totals))

    def check(self, output):
        reports, totals = output
        check = _run_check(totals)
        cells = [cell for report in reports for cell in report.cells]
        skipped = [entry for report in reports for entry in report.skipped]
        for cell in cells:
            check.expect(cell.ok, cell.describe())
        check.expect(
            len(cells) == CROSSCHECK_CELLS,
            f"{len(cells)} cells, expected {CROSSCHECK_CELLS}",
        )
        check.expect(
            len(skipped) == CROSSCHECK_SKIPPED,
            f"{len(skipped)} tests skipped, expected {CROSSCHECK_SKIPPED}",
        )
        return check


class ExploreCatalog(Workload):
    """Delay-bounded exploration plus the SC check, catalog and random."""

    name = "explore-catalog"

    def __init__(self, seed, state_root, traced):
        super().__init__(seed, state_root, traced)
        self.programs: List[Tuple[str, Any]] = [
            ("catalog", test.program) for test in api.standard_catalog()
        ]
        for k in range(EXPLORE_RANDOM_PROGRAMS):
            self.programs.append(("drf0", api.random_drf0_program(
                derived_seed(self.name, seed, "drf0", k),
                sections_per_proc=1, num_locks=1,
            )))
            self.programs.append(("racy", api.random_racy_program(
                derived_seed(self.name, seed, "racy", k),
                ops_per_proc=2,
            )))
        #: RELAXED axiomatic sets of the racy programs, for the check;
        #: computed on first use, outside every timed or traced pass.
        self._relaxed: Dict[int, frozenset] = {}
        self.collector = Collector()

    def run_pass(self, index, traced):
        self.collector.reset()
        latencies: List[float] = []
        output = []
        for family, program in self.programs:
            def request(program=program):
                reports = {
                    policy: api.explore(
                        program, policy,
                        max_delays=EXPLORE_MAX_DELAYS,
                        executor=self.collector,
                    )
                    for policy in EXPLORE_POLICIES
                }
                return reports, api.verify_sc(program)

            reports, sc_set = _timed(request, latencies, self.speed)
            output.append((family, program, reports, sc_set))
        return latencies, (output, dict(self.collector.totals))

    def check(self, output):
        walks, totals = output
        schedules = sum(
            report.runs for _, _, reports, _ in walks
            for report in reports.values()
        )
        check = _run_check(totals)
        check.counts["explore.schedules"] = schedules
        distinct = pruned = 0
        for index, (family, program, reports, sc_set) in enumerate(walks):
            for policy, report in reports.items():
                check.expect(
                    report.exhausted,
                    f"{program.name}/{policy}: walk not exhausted",
                )
                distinct += len(report.outcomes)
                pruned += report.pruned_decisions
            if family == "drf0":
                check.expect(
                    reports["DEF2"].observables <= sc_set,
                    f"{program.name}: DEF2 outcome outside verify_sc's set",
                )
            elif family == "racy":
                if index not in self._relaxed:
                    self._relaxed[index] = api.allowed_outcomes(
                        program, api.model_by_name("RELAXED")
                    )
                check.expect(
                    reports["RELAXED"].observables <= self._relaxed[index],
                    f"{program.name}: RELAXED outcome the axioms forbid",
                )
        check.layer.update({
            "schedules": schedules, "pruned_decisions": pruned,
            "distinct_outcomes": distinct,
        })
        return check


class ServerProcess:
    """One ``repro serve`` subprocess with its own state directory."""

    def __init__(self, state_dir: str, traced: bool) -> None:
        self.state_dir = state_dir
        self.spans_path = os.path.join(state_dir, "spans.json")
        self.marker = os.path.join(state_dir, "spans.reset")
        shutil.rmtree(state_dir, ignore_errors=True)
        os.makedirs(state_dir)
        serve = [
            "serve", "--state", os.path.join(state_dir, "svc"),
            "--port", "0",
            "--workers", "1",
            "--campaign-jobs", str(SERVICE_CAMPAIGN_JOBS),
        ]
        if traced:
            command = [
                sys.executable, os.path.join(HERE, "traced_server.py"),
                self.spans_path, self.marker, *serve,
            ]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        self.log = open(os.path.join(state_dir, "server.log"), "wb")
        self.process = subprocess.Popen(
            command, stdout=self.log, stderr=subprocess.STDOUT,
        )
        try:
            self.client = self._wait_ready()
        except BaseException:
            self.process.kill()
            self.process.wait()
            self.log.close()
            raise

    def _wait_ready(self) -> "api.ServiceClient":
        endpoint = os.path.join(self.state_dir, "svc", "endpoint")
        deadline = time.monotonic() + SERVICE_START_TIMEOUT
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.process.returncode}; "
                    f"see {self.log.name}"
                )
            if os.path.exists(endpoint):
                try:
                    client = api.ServiceClient.from_state_dir(
                        os.path.join(self.state_dir, "svc"), timeout=120.0,
                    )
                    if client.readyz().get("ready"):
                        return client
                except (ValueError, api.ServiceError):
                    pass
            time.sleep(0.02)
        raise RuntimeError("repro serve did not become ready in time")

    def peak_rss_kb(self) -> int:
        try:
            with open(f"/proc/{self.process.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def reset_spans(self) -> None:
        """Zero the traced server's spans; wait until it confirms."""
        if os.path.exists(self.marker):
            os.unlink(self.marker)
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10.0
        while not os.path.exists(self.marker):
            if time.monotonic() > deadline:
                raise RuntimeError("traced server did not reset its spans")
            time.sleep(0.01)

    def stop(self) -> Optional[dict]:
        """SIGTERM (a clean drain), wait, and return any dumped spans."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=SERVICE_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()
        if os.path.exists(self.spans_path):
            with open(self.spans_path) as handle:
                return json.load(handle)
        return None


class ServiceMix(Workload):
    """Closed-loop litmus jobs against ``repro serve``: fresh and repeats."""

    name = "service-mix"
    in_process = False

    def __init__(self, seed, state_root, traced):
        super().__init__(seed, state_root, traced)
        # Planning the first pass validates every job the schedule can
        # draw (build_job raises on a bad parameter) before any timing.
        for params, _ in self.schedule(1):
            api.build_job("litmus", params)
        self.servers: Dict[bool, ServerProcess] = {}
        self.recorder: Optional[Recorder] = None

    def schedule(self, index: int) -> List[Tuple[dict, bool]]:
        """The pass's ``(params, is_repeat)`` sequence.

        Fresh jobs draw their base seeds from a stream keyed by (seed,
        pass), so every pass submits new work; a repeat resubmits one of
        the pass's earlier fresh jobs, which has completed.
        """
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        templates = list(SERVICE_TEMPLATES)
        rng.shuffle(templates)
        jobs: List[Tuple[dict, bool]] = []
        fresh: List[dict] = []
        for test, policy, machine in templates:
            params = {
                "test": test, "policy": policy, "machine": machine,
                "runs": SERVICE_RUNS_PER_JOB,
                "base_seed": rng.randrange(1 << 31),
            }
            fresh.append(params)
            jobs.append((params, False))
            jobs.extend(
                (rng.choice(fresh), True) for _ in range(SERVICE_REPEATS)
            )
        return jobs

    def start(self):
        self.servers[False] = ServerProcess(
            os.path.join(self.state_root, "plain"), traced=False
        )
        if self.traced:
            server = self.servers[True] = ServerProcess(
                os.path.join(self.state_root, "traced"), traced=True
            )
            # Warm the traced server on the warm-up pass's jobs too, so
            # neither leg of a round runs cold, then zero its spans.
            for params, _ in self.schedule(0):
                job = server.client.submit("litmus", params)["job"]
                server.client.wait_done(job["id"])
            server.reset_spans()

    def close(self):
        for traced, server in self.servers.items():
            spans = server.stop()
            if traced and spans and self.recorder is not None:
                self.recorder.spans.merge(spans)
        self.servers.clear()

    @contextlib.contextmanager
    def tracing(self, recorder):
        """Client spans here; the traced server's counters over HTTP.

        The campaigns run in the server and its spawned pool workers,
        so package self time is not available; the traced server's own
        spans are merged into ``recorder`` when it stops.
        """
        self.recorder = recorder
        client = self.servers[True].client
        before = parse_prometheus(client.metrics_text())
        patches = Patches()
        patches.attribute(api.ServiceClient, "submit",
                          lambda f: recorder.spans.timed("submit", f))
        patches.attribute(api.ServiceClient, "wait_done",
                          lambda f: recorder.spans.timed("wait", f))
        try:
            yield
        finally:
            patches.undo()
        recorder.add_obs(
            parse_prometheus(client.metrics_text()).diff(before)
        )

    def peak_rss_extra_kb(self):
        return self.servers[False].peak_rss_kb()

    def run_pass(self, index, traced):
        # One client: it sends its next job only after the previous
        # answer arrived, and samples the host's speed while the server
        # is idle between jobs.
        client = self.servers[traced].client
        records: List[dict] = []
        for params, repeat in self.schedule(index):
            record = {"params": params, "repeat": repeat}
            self.speed.sample()
            start = time.perf_counter()
            try:
                answer = client.submit("litmus", params, client="c0")
                record["job_id"] = answer["job"]["id"]
                record["verdict"] = answer.get("verdict")
                if "result" in answer:
                    record["result"] = answer["result"]
                else:
                    job = client.wait_done(record["job_id"])
                    record["state"] = job["state"]
                    record["result"] = client.result(job["id"])["result"]
            except api.ServiceError as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
            record["latency_s"] = time.perf_counter() - start
            records.append(record)
        return [record["latency_s"] for record in records], records

    def check(self, output):
        check = Check()
        runs = cycles = dedup = 0
        expected: Dict[str, dict] = {}
        for record in output:
            path = "repeat" if record["repeat"] else "fresh"
            check.paths.setdefault(path, []).append(record["latency_s"])
            key = json.dumps(record["params"], sort_keys=True)
            if "error" in record or record.get("state") == "failed":
                check.expect(False, f"job {key}: "
                             f"{record.get('error', 'failed')}")
                continue
            if record.get("verdict") in ("duplicate", "completed"):
                dedup += 1
            if key not in expected:
                work = api.build_job("litmus", record["params"])
                campaign = api.campaign(work.specs, executor=Collector())
                runs += len(campaign.results)
                cycles += sum(result.cycles for result in campaign.results)
                expected[key] = {
                    "id": work.digest[:16],
                    "result": json.loads(json.dumps(work.collect(campaign))),
                }
            want = expected[key]
            check.expect(
                record["job_id"] == want["id"]
                and record["result"] == want["result"],
                f"job {key}: result differs from a serial in-process "
                f"campaign over the same specs",
            )
        check.counts = {"runs": runs, "sim_cycles": cycles}
        check.layer = {"submissions": len(output), "dedup": dedup}
        return check


WORKLOADS = {
    cls.name: cls
    for cls in (ConformanceGrid, CrosscheckAll, ExploreCatalog, ServiceMix)
}
