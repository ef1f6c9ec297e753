"""Pluggable executors: how a batch of :class:`RunSpec` gets run.

The contract is a single method — ``map(specs) -> [RunResult]`` — with
results in **spec order regardless of completion order**, so every
aggregation downstream (histograms, grids, sweeps) is independent of
scheduling.  :class:`SerialExecutor` is the reference implementation;
:class:`ParallelExecutor` fans the batch out over a process pool,
reconstructing policies from their specs inside the workers (nothing
unpicklable crosses the boundary).  Because a run is a pure function of
its spec, the two are interchangeable: serial and parallel campaigns
produce byte-identical results.

Both executors are **fault-tolerant**: a crashing spec becomes a
``RunResult`` carrying a :class:`~repro.campaign.spec.RunFailure`
(captured inside :func:`execute_spec_guarded`), never a batch abort.
On top of that the parallel executor survives the process pool itself
failing:

* per-spec futures (not ``pool.map``), so completed results are kept
  when a sibling dies;
* a per-run wall-clock timeout (``run_timeout``) as a safety net over
  the simulation's own cycle watchdog;
* retry with exponential backoff for transiently lost workers, pool
  rebuild after ``BrokenProcessPool``, and graceful degradation to
  in-process serial execution after repeated pool failures — partial
  results are always returned, with failures reported in place.

Both executors are also **preemptible**: ``map`` runs inside a
:func:`~repro.campaign.preempt.graceful_preemption` region, so a
SIGTERM/SIGINT stops dispatching, drains or cancels in-flight runs
within ``preempt_drain`` seconds, and reports every unexecuted spec as
a ``preempted`` failure instead of unwinding with a traceback (a second
signal escalates to ``KeyboardInterrupt``).  And whenever ``map`` *is*
unwound by an exception — including ``KeyboardInterrupt`` — the worker
pool is shut down and its children reaped before the exception
propagates, so an interrupted campaign never strands orphan processes.

Completed results are additionally announced one-by-one through the
optional ``result_callback`` attribute (``callback(index, result)`` in
the order results become final), which is how the campaign layer
journals progress incrementally instead of only at batch end.
"""

from __future__ import annotations

import dataclasses
import os
import random
import threading
import time
from typing import Callable, Iterable, List, Optional, Sequence

from repro.campaign.preempt import (
    PreemptionToken,
    current_token,
    graceful_preemption,
)
from repro.campaign.spec import (
    RunFailure,
    RunResult,
    RunSpec,
    execute_spec_guarded,
)
from repro.obs import METRICS


def execute_spec_observed(spec: RunSpec):
    """Worker-side entry point: run a spec and ship its metrics home.

    Returns ``(result, delta)`` where ``delta`` is the registry diff
    produced by this run (or None when metrics are off in the worker).
    The before/after snapshot diff cancels whatever counter baseline a
    fork-inherited registry already held, so merging deltas in the
    parent counts every observation exactly once.  Results themselves
    never carry metrics — serial and parallel campaigns must stay
    byte-identical.
    """
    if not METRICS.enabled:
        return execute_spec_guarded(spec), None
    before = METRICS.snapshot()
    result = execute_spec_guarded(spec)
    return result, METRICS.snapshot().diff(before)


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit as soon as the parent process dies.

    A parent that is SIGKILLed never shuts its pool down, so without
    this its idle workers (and the resource tracker they keep alive)
    would linger, reparented to init.  The parent's sentinel becomes
    readable exactly when the parent is gone.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    parent = multiprocessing.parent_process()
    if parent is None or parent.sentinel is None:
        return

    def watch() -> None:
        wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch",
                     daemon=True).start()


def _collect(value):
    """Unwrap a worker return value, merging any shipped metrics delta."""
    if type(value) is tuple:
        result, delta = value
        if delta is not None:
            METRICS.merge(delta)
        return result
    return value


def _failure(kind: str, message: str, attempts: int = 1) -> RunResult:
    return RunResult(
        observable=None,
        cycles=0,
        completed=False,
        failure=RunFailure(kind=kind, message=message, attempts=attempts),
    )


def preempted_result(token: Optional[PreemptionToken] = None) -> RunResult:
    """The failure result filled in for a spec preemption skipped."""
    signum = token.signum if token is not None else None
    via = f"signal {signum}" if signum is not None else "stop request"
    return _failure(
        "preempted",
        f"campaign preempted ({via}) before this run completed; "
        f"resume with the campaign journal to execute it",
    )


class Executor:
    """Execution strategy for a batch of independent runs."""

    #: Worker parallelism (1 for serial); informational for reports.
    jobs: int = 1
    #: Operational counters, reset by each ``map`` call and folded into
    #: :class:`~repro.campaign.metrics.CampaignMetrics`.
    retried_runs: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False
    #: Specs reported as ``preempted`` by the last ``map`` call.
    preempted_runs: int = 0
    #: Install SIGTERM/SIGINT graceful-stop handlers around ``map``.
    preemptible: bool = True
    #: Seconds to wait for in-flight runs after a preemption request.
    preempt_drain: float = 5.0
    #: Optional observer called as ``callback(index, result)`` the
    #: moment a spec's result becomes final (indices are positions in
    #: the ``map`` batch).  Exceptions propagate: the campaign journal
    #: uses this, and a journaling failure must not be swallowed.
    result_callback: Optional[Callable[[int, RunResult], None]] = None

    def map(self, specs: Iterable[RunSpec]) -> List[RunResult]:
        """Execute every spec, returning results in spec order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""

    def _emit(self, index: int, result: RunResult) -> None:
        if self.result_callback is not None:
            self.result_callback(index, result)

    def _publish_counters(self, dispatched: int) -> None:
        """Fold one ``map`` call's operational counters into METRICS."""
        kind = type(self).__name__
        METRICS.inc("repro_executor_dispatched_total", dispatched,
                    help="Specs dispatched for execution", executor=kind)
        if self.retried_runs:
            METRICS.inc("repro_executor_retries_total", self.retried_runs,
                        help="Runs retried after transient failures",
                        executor=kind)
        if self.pool_rebuilds:
            METRICS.inc("repro_executor_pool_rebuilds_total",
                        self.pool_rebuilds,
                        help="Worker-pool rebuilds", executor=kind)
        if self.degraded:
            METRICS.inc("repro_executor_degraded_total",
                        help="Batches finished in degraded serial mode",
                        executor=kind)
        if self.preempted_runs:
            METRICS.inc("repro_executor_preempted_total",
                        self.preempted_runs,
                        help="Specs resolved as preempted", executor=kind)

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run every spec in-process, one after another.

    Failures are still captured per spec (guarded execution); wall-clock
    timeouts need preemption and therefore only exist on the parallel
    executor — serial runs rely on the simulation's cycle watchdog.
    A preemption request between two specs stops the batch: remaining
    specs come back as ``preempted`` failures.
    """

    def map(self, specs: Iterable[RunSpec]) -> List[RunResult]:
        batch = list(specs)
        self.preempted_runs = 0
        results: List[RunResult] = []
        with graceful_preemption() if self.preemptible else _noop_token() as token:
            for i, spec in enumerate(batch):
                if token is not None and token.requested():
                    result = preempted_result(token)
                    self.preempted_runs += 1
                else:
                    result = execute_spec_guarded(spec)
                results.append(result)
                self._emit(i, result)
        if METRICS.enabled:
            self._publish_counters(len(batch))
        return results


class _noop_token:
    """Context yielding no token (preemption disabled)."""

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class ParallelExecutor(Executor):
    """Fan a batch out over a ``ProcessPoolExecutor``, fault-tolerantly.

    Every spec gets its own future; results are reassembled into spec
    order, so output never depends on completion order and surviving
    results are never discarded because a sibling failed.  Batches
    smaller than two specs short-circuit to in-process execution.

    ``run_timeout`` bounds the wall-clock wait per run (measured from
    the moment the batch starts waiting on that run; earlier runs in
    spec order are always waited on first, so a queued run is never
    charged for its predecessors).  A run that times out is retried up
    to ``retries`` times — with the pool rebuilt first if the stuck
    worker never came back — then reported as a ``wall-timeout``
    failure.

    A dead worker (``BrokenProcessPool``) fails every in-flight future;
    finished results are kept, the pool is rebuilt after a *full-jitter*
    exponential backoff (uniform over ``[0, backoff_base *
    2**(failures-1)]`` seconds) and unfinished specs are resubmitted
    (counted in ``retried_runs``).  The jitter desynchronises
    simultaneous rebuilds — many executors sharing a machine (the
    service tier) would otherwise stampede the freshly rebuilt pools in
    lock-step — while ``backoff_seed`` pins the draw sequence for
    reproducible tests (:meth:`reseed_backoff` restarts it, so a
    long-lived executor can give every batch its own sequence);
    ``backoff_jitter=False`` restores the deterministic ceiling-valued
    sleep.  After
    ``max_pool_rebuilds`` pool failures the executor degrades to
    in-process serial execution for the remaining specs, so the batch
    always completes.  ``RunFailure.attempts`` on environment-caused
    failures reflects every launch the spec consumed, across both the
    timeout-retry and pool-rebuild paths.

    ``mp_context`` names the :mod:`multiprocessing` start method for
    pool workers (``None`` = platform default).  Multi-threaded hosts
    (the service tier) must pass ``"spawn"``: a worker forked from a
    process with live threads can inherit a lock some other thread held
    at fork time and deadlock — harmless to the batch (its runs are
    retried elsewhere) but fatal at shutdown, where joining the wedged
    worker hangs interpreter exit.

    The pool is built on the first ``map`` that needs it and kept until
    :meth:`close`, so one executor serving many batches starts its
    workers once.  Workers exit by themselves if the parent dies.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        run_timeout: Optional[float] = None,
        retries: int = 2,
        backoff_base: float = 0.25,
        max_pool_rebuilds: int = 3,
        preemptible: bool = True,
        preempt_drain: float = 5.0,
        backoff_jitter: bool = True,
        backoff_seed: Optional[int] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        self.run_timeout = run_timeout
        self.retries = max(0, retries)
        self.backoff_base = backoff_base
        self.max_pool_rebuilds = max(0, max_pool_rebuilds)
        self.preemptible = preemptible
        self.preempt_drain = preempt_drain
        self.backoff_jitter = backoff_jitter
        self.reseed_backoff(backoff_seed)
        self.mp_context = mp_context
        self._pool = None
        self._pool_failures = 0

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        if self._pool is None:
            context = None
            if self.mp_context is not None:
                import multiprocessing

                context = multiprocessing.get_context(self.mp_context)
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context,
                initializer=_exit_with_parent,
            )
        return self._pool

    def _discard_pool(self) -> None:
        """Drop the pool without waiting on wedged workers."""
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            self._pool = None

    def reseed_backoff(self, seed: Optional[int]) -> None:
        """Restart the backoff jitter's draw sequence from ``seed``."""
        self._backoff_rng = random.Random(seed)

    def _backoff_delay(self, failures: int) -> float:
        """Seconds to wait before the ``failures``-th pool rebuild.

        Full jitter: a uniform draw over ``[0, backoff_base *
        2**(failures-1)]``.  The exponential ceiling still bounds load
        on the rebuilt pool, but concurrent executors spread out inside
        the window instead of retrying in lock-step.
        """
        cap = self.backoff_base * (2 ** (max(1, failures) - 1))
        if cap <= 0:
            return 0.0
        if not self.backoff_jitter:
            return cap
        return self._backoff_rng.uniform(0.0, cap)

    def _rebuild_pool(self) -> None:
        self._discard_pool()
        self._pool_failures += 1
        self.pool_rebuilds += 1
        backoff = self._backoff_delay(self._pool_failures)
        if backoff > 0:
            time.sleep(backoff)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def map(self, specs: Iterable[RunSpec]) -> List[RunResult]:
        batch: Sequence[RunSpec] = list(specs)
        self.retried_runs = 0
        self.pool_rebuilds = 0
        self.degraded = False
        self.preempted_runs = 0
        self._pool_failures = 0
        if self.jobs <= 1 or len(batch) <= 1:
            results = []
            for i, spec in enumerate(batch):
                result = execute_spec_guarded(spec)
                results.append(result)
                self._emit(i, result)
            if METRICS.enabled:
                self._publish_counters(len(batch))
            return results
        with graceful_preemption() if self.preemptible else _noop_token() as token:
            try:
                results = self._map_batch(batch, token)
                if METRICS.enabled:
                    self._publish_counters(len(batch))
                return results
            except BaseException:
                # The interrupt path (KeyboardInterrupt, SystemExit, a
                # callback raising) must never strand orphan workers:
                # shut the pool down — reaping children — before the
                # exception unwinds.  Running tasks are cancelled where
                # possible; an in-flight run finishes, then its worker
                # exits and is collected.
                try:
                    self.close()
                except Exception:
                    self._discard_pool()
                raise

    def _map_batch(
        self, batch: Sequence[RunSpec], token: Optional[PreemptionToken]
    ) -> List[RunResult]:
        from concurrent.futures import BrokenExecutor
        from concurrent.futures import TimeoutError as FutureTimeout

        results: List[Optional[RunResult]] = [None] * len(batch)
        #: Executions launched per spec (submits + in-process fallbacks);
        #: environment-caused failures report this as their attempts.
        launches = [0] * len(batch)
        timeout_attempts = [0] * len(batch)
        pending: List[int] = list(range(len(batch)))

        def finish(i: int, result: RunResult) -> None:
            results[i] = result
            self._emit(i, result)

        while pending:
            if token is not None and token.requested():
                self._preempt(pending, {}, results, token, finish)
                break
            if self._pool_failures > self.max_pool_rebuilds:
                # The pool keeps dying: finish the batch in-process so
                # partial results never strand.
                self.degraded = True
                for i in pending:
                    if token is not None and token.requested():
                        finish(i, preempted_result(token))
                        self.preempted_runs += 1
                        continue
                    launches[i] += 1
                    result = execute_spec_guarded(batch[i])
                    if result.failure is not None and launches[i] > 1:
                        result = _stamp_attempts(result, launches[i])
                    finish(i, result)
                pending = []
                break

            pool = self._ensure_pool()
            # When metrics are on, workers run the observed entry point
            # and ship per-run registry deltas back with their results.
            task = (
                execute_spec_observed if METRICS.enabled
                else execute_spec_guarded
            )
            try:
                futures = {}
                for i in pending:
                    futures[i] = pool.submit(task, batch[i])
                    launches[i] += 1
            except BrokenExecutor:
                self._rebuild_pool()
                continue

            retry: List[int] = []
            pool_broke = False
            stuck_worker = False
            preempted = False
            for pos, i in enumerate(pending):
                future = futures[i]
                if token is not None and token.requested():
                    # Stop dispatching: resolve this index and the rest
                    # of the wave by draining what already runs and
                    # cancelling the rest, then stop retrying anything.
                    self._preempt(
                        pending[pos:], futures, results, token, finish
                    )
                    retry = []
                    preempted = True
                    break
                if pool_broke:
                    # The pool died mid-batch; keep whatever already
                    # finished, queue the rest for the rebuilt pool.
                    if future.done():
                        try:
                            finish(i, _collect(future.result()))
                            continue
                        except Exception:
                            pass
                    retry.append(i)
                    self.retried_runs += 1
                    continue
                try:
                    finish(i, _collect(future.result(timeout=self.run_timeout)))
                except FutureTimeout:
                    cancelled = future.cancel()
                    if not cancelled:
                        stuck_worker = True
                    timeout_attempts[i] += 1
                    if timeout_attempts[i] > self.retries:
                        finish(i, _failure(
                            "wall-timeout",
                            f"run exceeded its {self.run_timeout:.3g}s "
                            f"wall-clock budget",
                            attempts=timeout_attempts[i],
                        ))
                    else:
                        self.retried_runs += 1
                        retry.append(i)
                except BrokenExecutor:
                    pool_broke = True
                    retry.append(i)
                    self.retried_runs += 1
                except Exception as exc:  # pragma: no cover - guarded
                    finish(i, _failure(
                        "worker-lost",
                        f"{type(exc).__name__}: {exc}",
                        attempts=launches[i],
                    ))

            if preempted:
                pending = []
                break
            if pool_broke:
                self._rebuild_pool()
            elif stuck_worker:
                # A timed-out run is still occupying a worker; reclaim
                # the capacity before retrying, or before the next batch.
                self._discard_pool()
                if retry:
                    self.pool_rebuilds += 1
            pending = retry

        # Every index is filled by the loop above; the fallback is pure
        # defence so a logic slip can never silently drop a slot.
        final: List[RunResult] = []
        for i, r in enumerate(results):
            if r is None:
                r = _failure("worker-lost", "run produced no result")
                self._emit(i, r)
            final.append(r)
        return final

    def _preempt(
        self,
        indices: Sequence[int],
        futures: dict,
        results: List[Optional[RunResult]],
        token: PreemptionToken,
        finish: Callable[[int, RunResult], None],
    ) -> None:
        """Resolve every remaining index under a preemption request.

        Futures that never started are cancelled; futures already done
        keep their results; running futures get ``preempt_drain``
        seconds to finish, after which their specs are reported as
        preempted and the (possibly still busy) pool is discarded.
        """
        from concurrent.futures import wait as wait_futures

        in_flight = []
        for i in indices:
            future = futures.get(i)
            if future is None or future.cancel():
                finish(i, preempted_result(token))
                self.preempted_runs += 1
            else:
                in_flight.append((i, future))
        if in_flight:
            wait_futures(
                [f for _, f in in_flight], timeout=self.preempt_drain
            )
        abandoned = False
        for i, future in in_flight:
            taken = False
            if future.done():
                try:
                    finish(i, _collect(future.result()))
                    taken = True
                except Exception:
                    pass
            if not taken:
                finish(i, preempted_result(token))
                self.preempted_runs += 1
                abandoned = True
        if abandoned:
            # A worker is still grinding on an abandoned run; drop the
            # pool so close() cannot block on it.
            self._discard_pool()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


def _stamp_attempts(result: RunResult, attempts: int) -> RunResult:
    """Record how many launches an (environment-hit) spec consumed."""
    assert result.failure is not None
    if result.failure.attempts >= attempts:
        return result
    return dataclasses.replace(
        result,
        failure=dataclasses.replace(result.failure, attempts=attempts),
    )


def default_executor(
    jobs: Optional[int] = None,
    run_timeout: Optional[float] = None,
    retries: int = 2,
) -> Executor:
    """Serial for ``jobs in (None, 0, 1)``, parallel otherwise."""
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ParallelExecutor(jobs=jobs, run_timeout=run_timeout, retries=retries)
