"""Chaos harness for the service tier: kill the server, keep the promise.

Extends :mod:`repro.testing.chaos` from campaigns to the job server.
The contract under attack: **an accepted job survives anything short of
losing the state directory.**  A SIGKILLed server loses no accepted
job (its ``jobs.jsonl`` record is fsync'd before the 202 leaves) and no
completed run (the shared campaign journal is fsync'd per record); the
next incarnation re-admits the unfinished jobs and replays the journal,
so every RunSpec still executes exactly once and results stay
byte-identical — :func:`repro.testing.chaos.assert_exactly_once` is the
final judge, same as for CLI campaigns.

:class:`ServerProcess` supervises one ``repro serve`` subprocess:
start, find its endpoint, signal it, and locate its *worker* processes
(the campaign pool children) so tests can SIGKILL a worker mid-campaign
without touching the server — the pool-rebuild path under real load —
and check that no worker outlives the server.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Union

from repro.service.client import ServiceClient, read_endpoint
from repro.testing.chaos import (  # re-exported for service tests
    ChaosPlan,
    KillPoint,
    assert_exactly_once,
    default_repo_env,
)

__all__ = [
    "ChaosPlan",
    "KillPoint",
    "ServerProcess",
    "assert_exactly_once",
    "default_repo_env",
    "journal_results",
    "pid_alive",
    "wait_until",
]


def wait_until(predicate, timeout: float = 30.0, interval: float = 0.05,
               message: str = "condition") -> None:
    """Poll ``predicate`` until true; raise ``TimeoutError`` otherwise."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise TimeoutError(f"timed out waiting for {message}")


def journal_results(journal: Union[str, Path]) -> int:
    """Parseable ``result`` records currently in a campaign journal."""
    try:
        raw = Path(journal).read_bytes()
    except FileNotFoundError:
        return 0
    return sum(1 for line in raw.splitlines() if b'"type": "result"' in line)


class ServerProcess:
    """One supervised ``repro serve`` subprocess."""

    def __init__(
        self,
        state_dir: Union[str, Path],
        capacity: int = 32,
        workers: int = 2,
        campaign_jobs: int = 2,
        per_client: Optional[int] = None,
        extra_args: Optional[List[str]] = None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.args = [
            sys.executable, "-m", "repro", "serve",
            "--state", str(self.state_dir),
            "--host", "127.0.0.1", "--port", "0",
            "--capacity", str(capacity),
            "--workers", str(workers),
            "--campaign-jobs", str(campaign_jobs),
        ]
        if per_client is not None:
            self.args += ["--per-client", str(per_client)]
        self.args += extra_args or []
        self.proc: Optional[subprocess.Popen] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, timeout: float = 30.0) -> "ServerProcess":
        endpoint = self.state_dir / "endpoint"
        # A stale endpoint from a killed predecessor must not win the
        # race against the new server's write.
        try:
            endpoint.unlink()
        except FileNotFoundError:
            pass
        self.proc = subprocess.Popen(
            self.args,
            env=default_repo_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        wait_until(
            lambda: endpoint.exists() or self.proc.poll() is not None,
            timeout=timeout, message="server endpoint",
        )
        if self.proc.poll() is not None:
            _, err = self.proc.communicate()
            raise RuntimeError(
                f"server died on startup (exit {self.proc.returncode}): "
                f"{err.decode(errors='replace')[-2000:]}"
            )
        return self

    @property
    def client(self) -> ServiceClient:
        host, port = read_endpoint(self.state_dir)
        return ServiceClient(host=host, port=port)

    def sigkill(self) -> None:
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)

    def sigterm(self, timeout: float = 60.0) -> int:
        """Request graceful drain; returns the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=timeout)
        return self.proc.returncode

    def stop(self) -> None:
        """Best-effort teardown for test cleanup (idempotent)."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)

    # ------------------------------------------------------------------
    # Worker discovery (the campaign pool's child processes)
    # ------------------------------------------------------------------
    def descendant_pids(self) -> List[int]:
        """Live descendant pids of the server, via /proc.

        Pool workers, plus the resource tracker the spawn start method
        runs beside them.
        """
        if self.proc is None or self.proc.poll() is not None:
            return []
        return _descendants(self.proc.pid)

    def worker_pids(self) -> List[int]:
        """Live pool-worker pids of the server (spawned processes)."""
        return [
            pid for pid in self.descendant_pids()
            if b"spawn_main" in _cmdline(pid)
        ]

    def kill_one_worker(self, timeout: float = 30.0) -> int:
        """SIGKILL one pool worker; returns its pid.

        Waits for a worker to exist first — each service worker thread
        starts its pool on its first pool job (and keeps it until
        shutdown), so right after a submit there may be none yet.
        """
        found: List[int] = []

        def _grab() -> bool:
            found[:] = self.worker_pids()
            return bool(found)

        wait_until(_grab, timeout=timeout, message="a pool worker")
        victim = found[0]
        os.kill(victim, signal.SIGKILL)
        return victim


def pid_alive(pid: int) -> bool:
    """True while ``pid`` runs (an exited, unreaped zombie is dead)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return "\nState:\tZ" not in status


def _cmdline(pid: int) -> bytes:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return b""


def _descendants(pid: int) -> List[int]:
    """All live descendant pids of ``pid`` (Linux /proc, depth-first)."""
    result: List[int] = []
    stack = [pid]
    while stack:
        parent = stack.pop()
        children: List[int] = []
        task_dir = Path(f"/proc/{parent}/task")
        try:
            for tid in task_dir.iterdir():
                text = (tid / "children").read_text().split()
                children.extend(int(c) for c in text)
        except OSError:
            continue
        result.extend(children)
        stack.extend(children)
    return result
