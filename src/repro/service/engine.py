"""The verification service engine: admit, dedup, schedule, degrade.

:class:`VerificationService` is the service tier's state machine,
deliberately independent of HTTP so every robustness behaviour is
testable in-process.  A submission flows through four gates:

1. **Dedup** — jobs are content-named: the job id is a prefix of the
   work's digest (RunSpec-batch digest for campaign kinds).  A
   submission whose digest matches an in-flight job coalesces onto it;
   one matching a completed job is served from memory; and a repeat
   after restart replays instantly from the shared campaign journal and
   result cache.  Duplicate work is never executed twice.
2. **Admission** — a bounded :class:`~repro.service.queue.AdmissionQueue`
   claims a slot (429 + Retry-After when full, per-client fairness
   cap).  Rejected submissions leave *no* state behind, which is what
   keeps memory bounded at saturation.
3. **Schedule** — accepted jobs are journaled durably (``jobs.jsonl``)
   *before* the submitter gets its 202, then queued to worker threads.
   A SIGKILL at any instant therefore loses no accepted job: on
   restart, every ``accepted``-without-``done`` record is rebuilt from
   its parameters and re-run, replaying completed runs from the
   campaign journal — exactly-once per RunSpec digest, byte-identical
   results.
4. **Degrade** — campaign kinds normally run on a process pool guarded
   by the :class:`~repro.service.breaker.CircuitBreaker`.  Each worker
   thread owns one pool, started on its first pool job and kept warm
   across jobs until the thread exits; a pool that fell sick during a
   job is dropped before the failure is recorded, so the next pool job
   (the breaker's half-open probe included) starts on a fresh one.
   While the breaker is open, jobs run in-process serial instead —
   slower, byte-identical, flagged ``degraded=true`` — so pool-layer
   sickness costs latency, never correctness and never an error page.

Deadlines propagate: a submission's budget is stamped at admission, so
queue wait counts against it; the remainder at execution start becomes
the per-run wall-clock timeout, and a job whose budget is exhausted
before it starts fails fast with ``deadline-exceeded``.

Graceful drain rides the campaign layer's preemption token: the engine
holds a :func:`~repro.campaign.preempt.graceful_preemption` region open
for its lifetime, worker-thread executors nest into it, and
:meth:`stop` requests the shared token — in-flight campaigns stop at
the next spec boundary, jobs revert to ``queued``, and the journal
holds everything completed so far for the next incarnation.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.campaign import (
    CampaignJournal,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    graceful_preemption,
    run_campaign,
)
from repro.obs import METRICS
from repro.service.breaker import CircuitBreaker
from repro.service.jobs import (
    DONE,
    FAILED,
    JobError,
    JobWork,
    QUEUED,
    RUNNING,
    build_job,
)
from repro.service.queue import AdmissionQueue, ADMITTED

#: Submission verdicts (beyond the queue's admission verdicts).
ACCEPTED = "accepted"
DUPLICATE = "duplicate"
COMPLETED = "completed"
DRAINING = "draining"


@dataclass
class Job:
    """One accepted unit of service work and its lifecycle."""

    id: str
    kind: str
    params: Dict[str, Any]
    digest: str
    client: str = ""
    state: str = QUEUED
    #: Absolute wall-clock deadline (``time.time()``), None = none.
    deadline: Optional[float] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Ran in-process serial because the breaker was open.
    degraded: bool = False
    #: Another submission coalesced onto this in-flight job.
    dedup_hits: int = 0
    #: Recovered from the jobs journal after a crash.
    recovered: bool = False
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None

    def to_public(self) -> Dict[str, Any]:
        """The JSON shape clients see (status; result only when done)."""
        public = {
            "id": self.id,
            "kind": self.kind,
            "params": self.params,
            "digest": self.digest,
            "state": self.state,
            "client": self.client,
            "degraded": self.degraded,
            "dedup_hits": self.dedup_hits,
            "recovered": self.recovered,
        }
        if self.deadline is not None:
            public["deadline_in"] = round(self.deadline - time.time(), 3)
        if self.error is not None:
            public["error"] = self.error
        return public


class VerificationService:
    """The engine behind ``repro serve`` (and the service tests).

    ``state_dir`` owns all durable state: ``jobs.jsonl`` (the service's
    own accept/done journal), ``runs.jsonl`` (the shared
    :class:`CampaignJournal` every campaign job records into), and
    ``cache/`` (the shared :class:`ResultCache`).  Two incarnations of
    the service pointed at one state dir form a crash-recovery pair.
    """

    def __init__(
        self,
        state_dir: Union[str, Path],
        capacity: int = 32,
        per_client: Optional[int] = None,
        workers: int = 2,
        campaign_jobs: int = 2,
        run_timeout: Optional[float] = None,
        retries: int = 2,
        breaker_threshold: int = 3,
        breaker_reset: float = 30.0,
        max_done: int = 256,
        cache_max_bytes: Optional[int] = None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.queue = AdmissionQueue(capacity=capacity, per_client=per_client)
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold, reset_timeout=breaker_reset
        )
        self.workers = max(1, workers)
        self.campaign_jobs = max(1, campaign_jobs)
        self.run_timeout = run_timeout
        self.retries = retries
        self.max_done = max(1, max_done)
        self.journal = CampaignJournal(self.state_dir / "runs.jsonl")
        self.cache = ResultCache(
            self.state_dir / "cache", max_bytes=cache_max_bytes
        )
        self._jobs_log = self.state_dir / "jobs.jsonl"
        self._log_lock = threading.Lock()
        self._log_handle = None
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        #: Every known job by id (completed ones LRU-capped).
        self._jobs: Dict[str, Job] = {}
        #: Completion order, for the completed-jobs memory cap.
        self._done_order: List[str] = []
        #: Ids awaiting a worker, FIFO.
        self._pending: List[str] = []
        #: Normalized work per queued/running job id.
        self._work: Dict[str, JobWork] = {}
        self._threads: List[threading.Thread] = []
        #: Per worker thread: its warm pool (``pool``), once started.
        self._local = threading.local()
        self._draining = False
        self._started = False
        self._exit = contextlib.ExitStack()
        self.token = None
        self._recover()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the preemption region and launch the worker threads."""
        with self._lock:
            if self._started:
                return
            self._started = True
            self.token = self._exit.enter_context(graceful_preemption())
            for i in range(self.workers):
                thread = threading.Thread(
                    target=self._worker_loop, name=f"repro-worker-{i}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def stop(self, drain: bool = True, timeout: float = 30.0) -> bool:
        """Stop accepting, preempt in-flight work, join the workers.

        With ``drain=True`` (the default) in-flight campaigns stop
        gracefully at the next spec boundary and their jobs revert to
        ``queued`` — the jobs journal still holds their ``accepted``
        records, so a restarted service resumes them.  Returns True
        when every worker exited within ``timeout``.
        """
        with self._lock:
            self._draining = True
            if self.token is not None and drain:
                self.token.request()
            self._cond.notify_all()
        clean = True
        for thread in self._threads:
            thread.join(timeout=timeout)
            clean = clean and not thread.is_alive()
        self._exit.close()
        self.journal.close()
        self._close_log()
        return clean

    @property
    def draining(self) -> bool:
        return self._draining or (
            self.token is not None and self.token.requested()
        )

    def request_drain(self) -> None:
        """Begin a graceful drain (the ``POST /v1/drain`` entry point)."""
        with self._lock:
            self._draining = True
            if self.token is not None:
                self.token.request()
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        params: Optional[Dict[str, Any]] = None,
        client: str = "",
        deadline_s: Optional[float] = None,
    ):
        """Admit (or dedup, or shed) one submission.

        Returns ``(job, verdict, retry_after)``.  ``job`` is None only
        for shed or draining verdicts.  Raises :class:`JobError` for
        malformed submissions (the HTTP layer's 400).
        """
        work = build_job(kind, params)
        job_id = work.digest[:16]
        if METRICS.enabled:
            METRICS.inc("repro_service_jobs_submitted_total",
                        help="Job submissions received", kind=kind)
        with self._lock:
            if self.draining:
                return None, DRAINING, None
            existing = self._jobs.get(job_id)
            if existing is not None:
                if existing.state in (QUEUED, RUNNING):
                    existing.dedup_hits += 1
                    if METRICS.enabled:
                        METRICS.inc(
                            "repro_service_dedup_hits_total",
                            help="Submissions coalesced onto in-flight "
                                 "or completed jobs",
                        )
                    return existing, DUPLICATE, None
                if METRICS.enabled:
                    METRICS.inc(
                        "repro_service_dedup_hits_total",
                        help="Submissions coalesced onto in-flight "
                             "or completed jobs",
                    )
                return existing, COMPLETED, None
            admission = self.queue.try_admit(client)
            if not admission.admitted:
                return None, admission.verdict, admission.retry_after
            job = Job(
                id=job_id,
                kind=work.kind,
                params=work.params,
                digest=work.digest,
                client=client,
                submitted_at=time.time(),
                deadline=(
                    time.time() + deadline_s if deadline_s else None
                ),
            )
            self._jobs[job_id] = job
            self._work[job_id] = work
            self._append_log({
                "type": "accepted",
                "id": job.id,
                "kind": job.kind,
                "params": job.params,
                "digest": job.digest,
                "client": job.client,
                "deadline": job.deadline,
                "submitted_at": job.submitted_at,
            })
            self._pending.append(job_id)
            self._cond.notify()
            return job, ACCEPTED, None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Optional[Job]:
        """Block until ``job_id`` reaches a terminal state (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None or job.state in (DONE, FAILED):
                    return job
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return job
                self._cond.wait(timeout=remaining)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "queue_depth": self.queue.depth,
                "capacity": self.queue.capacity,
                "rejections": dict(self.queue.rejections),
                "breaker": self.breaker.state,
                "breaker_opens": self.breaker.opens,
                "draining": self.draining,
                "jobs": states,
                "journal_results": len(self.journal),
            }

    # ------------------------------------------------------------------
    # Execution (worker threads)
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        try:
            while True:
                with self._lock:
                    while not self._pending and not self.draining:
                        self._cond.wait(timeout=0.2)
                    if self.draining:
                        return
                    job_id = self._pending.pop(0)
                    job = self._jobs[job_id]
                    work = self._work[job_id]
                    job.state = RUNNING
                    job.started_at = time.time()
                try:
                    self._execute(job, work)
                except Exception as exc:  # pragma: no cover - last resort
                    self._drop_pool()
                    self._finish(job, error=f"{type(exc).__name__}: {exc}")
        finally:
            self._drop_pool()

    def _pool_for(
        self, job: Job, run_timeout: Optional[float]
    ) -> ParallelExecutor:
        """This thread's warm pool, with ``job``'s timeout and backoff."""
        executor = getattr(self._local, "pool", None)
        if executor is None:
            executor = self._local.pool = ParallelExecutor(
                jobs=self.campaign_jobs,
                retries=self.retries,
                # Never fork a multi-threaded server: a worker forked
                # while another thread held a lock deadlocks, and
                # joining it at shutdown hangs interpreter exit.
                mp_context="spawn",
            )
        executor.run_timeout = run_timeout
        # Seeded per job so retry timing is reproducible in tests yet
        # decorrelated across jobs.
        executor.reseed_backoff(int(job.digest[:8], 16))
        return executor

    def _drop_pool(self) -> None:
        """Shut this thread's pool down; the next pool job starts anew."""
        executor = getattr(self._local, "pool", None)
        if executor is not None:
            self._local.pool = None
            executor.close()

    def _remaining_budget(self, job: Job) -> Optional[float]:
        if job.deadline is None:
            return None
        return job.deadline - time.time()

    def _execute(self, job: Job, work: JobWork) -> None:
        budget = self._remaining_budget(job)
        if budget is not None and budget <= 0:
            if METRICS.enabled:
                METRICS.inc("repro_service_deadline_exceeded_total",
                            help="Jobs failed before start: deadline "
                                 "spent in the queue")
            self._finish(job, error="deadline-exceeded")
            return
        if work.direct is not None:
            summary = work.direct()
            self._finish(job, result=summary)
            return

        use_pool = self.campaign_jobs > 1 and self.breaker.allow()
        job.degraded = not use_pool and self.campaign_jobs > 1
        if job.degraded and METRICS.enabled:
            METRICS.inc("repro_service_jobs_degraded_total",
                        help="Jobs run in-process serial: breaker open")
        run_timeout = self.run_timeout
        if budget is not None:
            run_timeout = (
                budget if run_timeout is None else min(run_timeout, budget)
            )
        executor = (
            self._pool_for(job, run_timeout) if use_pool
            else SerialExecutor()
        )
        campaign = run_campaign(
            work.specs,
            executor=executor,
            cache=self.cache,
            journal=self.journal,
            label=f"job:{job.id}",
        )

        if use_pool:
            pool_sick = (
                executor.pool_rebuilds > 0
                or executor.degraded
                or any(
                    r.failure is not None
                    and r.failure.kind == "worker-lost"
                    for r in campaign.results
                )
            )
            if pool_sick:
                self._drop_pool()
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
            job.degraded = job.degraded or executor.degraded

        if campaign.preempted:
            # Drain: the job reverts to queued; its accepted record
            # (with no done record) makes the next incarnation rerun
            # it, replaying everything the journal already holds.
            with self._cond:
                job.state = QUEUED
                job.started_at = None
                self._cond.notify_all()
            return

        summary = work.collect(campaign)
        self._finish(job, result=summary)

    def _finish(
        self,
        job: Job,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        with self._cond:
            job.finished_at = time.time()
            if error is not None:
                job.state = FAILED
                job.error = error
            else:
                job.state = DONE
                job.result = result
            self._append_log({
                "type": "done",
                "id": job.id,
                "state": job.state,
                "degraded": job.degraded,
                "error": job.error,
                "result": job.result,
                "finished_at": job.finished_at,
            })
            self._work.pop(job.id, None)
            self.queue.release(job.client)
            self._done_order.append(job.id)
            self._prune_done()
            if METRICS.enabled:
                name = ("repro_service_jobs_completed_total"
                        if error is None
                        else "repro_service_jobs_failed_total")
                METRICS.inc(name,
                            help="Jobs reaching a terminal state",
                            kind=job.kind)
            self._cond.notify_all()

    def _prune_done(self) -> None:
        """Cap completed-job memory; results stay durable in the log."""
        while len(self._done_order) > self.max_done:
            victim = self._done_order.pop(0)
            job = self._jobs.get(victim)
            if job is not None and job.state in (DONE, FAILED):
                del self._jobs[victim]

    # ------------------------------------------------------------------
    # Durable job log + crash recovery
    # ------------------------------------------------------------------
    def _append_log(self, record: dict) -> None:
        with self._log_lock:
            if self._log_handle is None:
                self._log_handle = self._jobs_log.open("a", encoding="utf-8")
            self._log_handle.write(
                json.dumps(record, sort_keys=True) + "\n"
            )
            self._log_handle.flush()
            try:
                os.fsync(self._log_handle.fileno())
            except OSError:  # pragma: no cover - exotic filesystems
                pass

    def _close_log(self) -> None:
        with self._log_lock:
            if self._log_handle is not None:
                self._log_handle.close()
                self._log_handle = None

    def _recover(self) -> None:
        """Rebuild state from ``jobs.jsonl``: resume the unfinished.

        Accepted-without-done jobs are re-normalized from their stored
        parameters and re-enqueued (their campaign runs replay from the
        shared journal, so completed work is never repeated).  Done
        records re-populate the completed-jobs map so clients can fetch
        results across a restart.
        """
        try:
            raw = self._jobs_log.read_bytes()
        except FileNotFoundError:
            return
        accepted: Dict[str, dict] = {}
        done: Dict[str, dict] = {}
        order: List[str] = []
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
                if record["type"] == "accepted":
                    accepted[record["id"]] = record
                elif record["type"] == "done":
                    done[record["id"]] = record
                    order.append(record["id"])
            except Exception:
                # A torn tail from a killed incarnation; the record is
                # dropped, never trusted.  An accepted record torn away
                # means the submitter never got its 202 either.
                continue
        for job_id, record in accepted.items():
            finished = done.get(job_id)
            if finished is not None:
                job = Job(
                    id=job_id,
                    kind=record["kind"],
                    params=record["params"],
                    digest=record["digest"],
                    client=record.get("client", ""),
                    state=finished["state"],
                    degraded=bool(finished.get("degraded")),
                    error=finished.get("error"),
                    result=finished.get("result"),
                    submitted_at=record.get("submitted_at", 0.0),
                    finished_at=finished.get("finished_at"),
                    recovered=True,
                )
                self._jobs[job_id] = job
                continue
            # Accepted but never finished: rebuild and re-enqueue.
            try:
                work = build_job(record["kind"], record["params"])
            except JobError as exc:
                job = Job(
                    id=job_id,
                    kind=record["kind"],
                    params=record["params"],
                    digest=record["digest"],
                    state=FAILED,
                    error=f"unrecoverable: {exc}",
                    recovered=True,
                )
                self._jobs[job_id] = job
                self._done_order.append(job_id)
                continue
            job = Job(
                id=job_id,
                kind=work.kind,
                params=work.params,
                digest=work.digest,
                client=record.get("client", ""),
                deadline=record.get("deadline"),
                submitted_at=record.get("submitted_at", 0.0),
                recovered=True,
            )
            self._jobs[job_id] = job
            self._work[job_id] = work
            # The previous incarnation promised this job; re-claim its
            # slot without re-judging admission.
            self.queue.admit_unchecked(job.client)
            self._pending.append(job_id)
        # Preserve completion order for the memory cap.
        self._done_order = [
            job_id for job_id in order
            if job_id in self._jobs and job_id not in self._work
        ] + self._done_order
        self._prune_done()
        if METRICS.enabled and self._pending:
            METRICS.inc("repro_service_jobs_recovered_total",
                        len(self._pending),
                        help="Accepted jobs resumed after a restart")
