"""Durable campaign journal: crash-safe progress, exact resume.

A :class:`CampaignJournal` is an append-only JSONL file recording a
campaign's progress as it happens: a ``campaign`` header per
:func:`~repro.campaign.api.run_campaign` call (label, content digest of
the spec batch, batch size), one ``result`` record per completed
:class:`~repro.campaign.spec.RunSpec` (keyed by the spec's digest, the
same content hash the :class:`~repro.campaign.cache.ResultCache` uses),
periodic ``checkpoint`` markers, and arbitrary consumer checkpoints
(the delay-bounded explorer snapshots its decision frontier here).

Durability model:

* **Append-only, fsync'd.**  Every record is one JSON line, flushed and
  ``fsync``'d before :meth:`append` returns (tunable via
  ``fsync_every``), so a ``SIGKILL`` at any instant loses at most the
  record currently being written.
* **Torn tails are expected, not fatal.**  A kill mid-write leaves a
  truncated final line; :meth:`load` skips unparseable lines (counting
  them in ``torn_records``) instead of refusing the journal, so a
  crashed campaign is always resumable.
* **Results are recorded at most once per digest.**  :meth:`record`
  is idempotent — a digest already present (from this process or a
  previous incarnation replayed at open) is never appended again.
  Because a spec's digest determines its result exactly, this is what
  gives resumed campaigns exactly-once semantics: every spec's result
  appears in the journal exactly once, byte-identical to what an
  uninterrupted campaign would have produced.
* **Appending to a torn tail never corrupts the successor.**  A journal
  opened over a file whose final line is torn (the previous owner may
  have died mid-write, or may even still be flushing) starts its own
  appends on a fresh line, so the torn fragment stays confined to one
  unparseable line instead of fusing with the first new record.
* **Results are indexed, not held.**  Only each result record's byte
  offset stays in memory; a lookup reads the line back and decodes it,
  so a long-lived journal (the service's) grows by a digest per run,
  not by a decoded result per run.
* **Writes are thread-safe.**  The service tier runs several campaigns
  against one shared journal from concurrent worker threads; every
  mutating method takes the journal's lock, so records never interleave
  mid-line and the idempotence check is atomic with the append.

Only results that are pure functions of their spec are worth
journaling; environment-dependent failures (wall-clock timeouts, lost
workers, preemption) are filtered by the campaign layer so a resume
re-attempts them, mirroring the :class:`ResultCache` policy.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import threading
import time
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from repro.campaign.spec import RunResult
from repro.obs import METRICS

#: Bucket bounds for journal I/O latencies: 10µs to ~0.6s.
_IO_BUCKETS = tuple(1e-5 * 4 ** i for i in range(9))


class JournalError(Exception):
    """A journal cannot be used as requested (identity mismatch, ...)."""


#: Journal format version, stamped on every ``campaign`` record.
JOURNAL_VERSION = 1


def campaign_digest(digests: Iterable[str]) -> str:
    """A content hash of a whole spec batch (by digest), order-sensitive."""
    joined = "\x1d".join(digests)
    return hashlib.sha256(joined.encode()).hexdigest()


def _encode_result(result: RunResult) -> str:
    return base64.b64encode(pickle.dumps(result)).decode("ascii")


def _decode_result(blob: str) -> RunResult:
    result = pickle.loads(base64.b64decode(blob.encode("ascii")))
    if not isinstance(result, RunResult):
        raise JournalError(f"journal result decodes to {type(result).__name__}")
    return result


class _ResultIndex(Mapping):
    """Digest -> :class:`RunResult`, read back from the journal file.

    Holds only each result record's byte offset; ``index[digest]``
    re-reads that line and decodes it.  Offsets are added only after
    their record was written and flushed, so a lookup always finds it.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.offsets: Dict[str, int] = {}

    def __getitem__(self, digest: str) -> RunResult:
        offset = self.offsets[digest]
        with self.path.open("rb") as handle:
            handle.seek(offset)
            record = json.loads(handle.readline())
        if record.get("digest") != digest:
            raise JournalError(
                f"journal {self.path} changed under its index at {offset}"
            )
        return _decode_result(record["result"])

    def __contains__(self, digest: object) -> bool:
        return digest in self.offsets

    def __iter__(self) -> Iterator[str]:
        return iter(self.offsets)

    def __len__(self) -> int:
        return len(self.offsets)


class CampaignJournal:
    """An append-only, fsync'd JSONL record of campaign progress.

    Opening a path that already holds a journal *replays* it: every
    previously recorded result becomes available in :attr:`replayed`
    (digest -> :class:`RunResult`), and subsequent appends continue the
    same file.  The campaign layer consults :attr:`replayed` before the
    result cache, which is what makes ``--resume`` skip completed work.

    ``fsync_every=1`` (the default) makes every record durable before
    the run that produced it can be considered complete; larger values
    trade a bounded window of re-executable work for fewer syncs.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fsync_every: int = 1,
        checkpoint_interval: int = 64,
    ) -> None:
        self.path = Path(path)
        self.fsync_every = max(1, fsync_every)
        self.checkpoint_interval = max(1, checkpoint_interval)
        #: Digest -> result for every result record on disk (a
        #: read-only mapping that decodes on lookup).
        self.replayed = _ResultIndex(self.path)
        #: Most recent consumer checkpoint per kind (last one wins).
        self._checkpoints: Dict[str, dict] = {}
        #: ``campaign`` header records seen on load, in file order.
        self.campaigns: List[dict] = []
        #: Unparseable lines tolerated on load (torn tails from kills).
        self.torn_records = 0
        #: Records appended by this instance.
        self.appended = 0
        self._unsynced = 0
        self._since_checkpoint = 0
        self._lock = threading.RLock()
        #: True when the existing file ends mid-line (torn tail from a
        #: killed — or still-flushing — previous owner); the first
        #: append then starts on a fresh line so the new record cannot
        #: fuse with the fragment.
        self._tail_open = False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._load()
        self._handle = self.path.open("ab")

    # ------------------------------------------------------------------
    # Reading (replay)
    # ------------------------------------------------------------------
    def _load(self) -> None:
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return
        self._tail_open = bool(raw) and not raw.endswith(b"\n")
        offset = 0
        for line in raw.split(b"\n"):
            start, offset = offset, offset + len(line) + 1
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
                kind = record["type"]
                if kind == "result":
                    # Decoded once to vet the blob, then only indexed.
                    _decode_result(record["result"])
                    self.replayed.offsets[record["digest"]] = start
                elif kind == "campaign":
                    self.campaigns.append(record)
                elif kind == "checkpoint":
                    if record.get("kind"):
                        self._checkpoints[record["kind"]] = record
            except Exception:
                # A kill mid-append tears at most the line being
                # written; anything unparseable is dropped, never
                # trusted, and never blocks the resume.
                self.torn_records += 1

    def last_checkpoint(self, kind: str) -> Optional[dict]:
        """The most recent checkpoint record of ``kind`` (or None)."""
        return self._checkpoints.get(kind)

    def __contains__(self, digest: str) -> bool:
        return digest in self.replayed

    def __len__(self) -> int:
        return len(self.replayed)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _append(self, record: dict) -> int:
        """Write one record; returns its byte offset in the file."""
        if self._handle is None:
            raise JournalError(f"journal {self.path} is closed")
        started = time.perf_counter() if METRICS.enabled else 0.0
        if self._tail_open:
            # Seal the torn fragment off on its own line before the
            # first new record; the fragment stays one unparseable
            # (tolerated) line instead of swallowing this append.
            self._handle.write(b"\n")
            self._tail_open = False
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        self._handle.write(line)
        self._handle.flush()
        # Append mode leaves the position at the end of what was just
        # written, even when another process appended in between.
        offset = self._handle.tell() - len(line)
        self.appended += 1
        self._unsynced += 1
        if METRICS.enabled:
            METRICS.inc("repro_journal_appends_total",
                        help="Journal records appended")
            METRICS.observe(
                "repro_journal_append_seconds",
                time.perf_counter() - started,
                help="Journal append (write+flush) latency",
                buckets=_IO_BUCKETS,
            )
        if self._unsynced >= self.fsync_every:
            self.sync()
        return offset

    def begin_campaign(self, label: str, digest: str, total: int) -> None:
        """Stamp a campaign header: what batch this journal is serving."""
        with self._lock:
            self._append(
                {
                    "type": "campaign",
                    "version": JOURNAL_VERSION,
                    "label": label,
                    "digest": digest,
                    "total": total,
                    "already_completed": len(self.replayed),
                }
            )

    def record(self, digest: str, result: RunResult) -> bool:
        """Append one completed run; idempotent per digest.

        Returns True when the record was appended, False when the digest
        was already journaled (replayed or recorded earlier).  The
        membership check and the append happen under the journal lock,
        so concurrent campaigns sharing one journal (the service tier)
        still record each digest at most once.
        """
        with self._lock:
            if digest in self.replayed:
                return False
            self.replayed.offsets[digest] = self._append(
                {
                    "type": "result",
                    "digest": digest,
                    "result": _encode_result(result),
                }
            )
            self._since_checkpoint += 1
            if self._since_checkpoint >= self.checkpoint_interval:
                self._append(
                    {"type": "checkpoint", "kind": "",
                     "completed": len(self.replayed)}
                )
                self._since_checkpoint = 0
            return True

    def checkpoint(self, kind: str, payload: Dict[str, Any]) -> None:
        """Append a consumer checkpoint (e.g. an explorer frontier)."""
        record = {
            "type": "checkpoint",
            "kind": kind,
            "completed": len(self.replayed),
            "payload": payload,
        }
        with self._lock:
            self._append(record)
            self._checkpoints[kind] = record

    def sync(self) -> None:
        """Flush and fsync pending appends to disk."""
        with self._lock:
            if self._handle is None or self._unsynced == 0:
                return
            started = time.perf_counter() if METRICS.enabled else 0.0
            self._handle.flush()
            try:
                os.fsync(self._handle.fileno())
            except OSError:  # pragma: no cover - exotic filesystems
                pass
            self._unsynced = 0
        if METRICS.enabled:
            METRICS.inc("repro_journal_fsyncs_total",
                        help="Journal fsync group commits")
            METRICS.observe(
                "repro_journal_fsync_seconds",
                time.perf_counter() - started,
                help="Journal fsync latency",
                buckets=_IO_BUCKETS,
            )

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self.sync()
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_journal(
    journal: Union["CampaignJournal", str, Path, None],
    resume: bool = False,
) -> Optional[CampaignJournal]:
    """Coerce a journal argument (object, path, or None) to a journal.

    With ``resume=True`` the path must already exist — resuming from a
    journal that was never written is almost certainly a typo, and
    silently starting fresh would turn "continue my campaign" into
    "redo everything".
    """
    if journal is None or isinstance(journal, CampaignJournal):
        return journal
    path = Path(journal)
    if resume and not path.exists():
        raise JournalError(f"cannot resume: journal {path} does not exist")
    return CampaignJournal(path)
