"""Trace invariants every correct memory system must keep.

These are the sanity properties *below* any consistency model — they
hold for RELAXED hardware as much as for SC, so violating one means the
simulator (or a protocol change) is broken, not merely weak:

* **no out-of-thin-air values** — every read returns the initial value
  or the value of some write to the same location;
* **per-location write order** — same-processor writes to one location
  commit in program order (coherence's CoWW);
* **per-location read order** — same-processor reads of one location
  never observe values "going backwards" against the location's write
  serialization (CoRR, and CoWR after a read-modify-write), checkable
  because conditions 2/3 of Section 5.1 make commit order the write
  serialization on the cache-coherent machines;
* **rmw atomicity** — a read-modify-write's read component returns the
  value its own write overwrote in the location's serialization.

:func:`check_trace` runs them all over a hardware run's commit-ordered
trace and returns human-readable violation strings (empty = clean).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Mapping, Optional

from repro.axiomatic.relations import reads_from_by_value
from repro.core.execution import Execution
from repro.core.operation import Location, MemoryOp, OpKind, Value


def check_no_thin_air(
    execution: Execution, initial_memory: Optional[Mapping[Location, Value]] = None
) -> List[str]:
    """Every read value must come from a write (or the initial state)."""
    initial_memory = initial_memory or {}
    written: Dict[Location, set] = defaultdict(set)
    for op in execution.ops:
        if op.writes_memory and op.value_written is not None:
            written[op.location].add(op.value_written)
    violations = []
    for op in execution.ops:
        if not op.reads_memory or op.value_read is None:
            continue
        legal = written[op.location] | {initial_memory.get(op.location, 0)}
        if op.value_read not in legal:
            violations.append(
                f"thin-air read: {op!r} returned {op.value_read}, never "
                f"written to {op.location!r}"
            )
    return violations


def check_per_location_write_order(execution: Execution) -> List[str]:
    """Same-processor writes to one location commit in program order."""
    last: Dict[tuple, MemoryOp] = {}
    violations = []
    for op in execution.ops:  # trace order = commit order
        if not op.writes_memory:
            continue
        key = (op.proc, op.location)
        prev = last.get(key)
        if prev is not None and (prev.thread_pos, prev.occurrence) > (
            op.thread_pos,
            op.occurrence,
        ):
            violations.append(
                f"CoWW violation on {op.location!r}: {prev!r} committed "
                f"before {op!r} against program order"
            )
        last[key] = op
    return violations


def check_per_location_read_order(
    execution: Execution, initial_memory: Optional[Mapping[Location, Value]] = None
) -> List[str]:
    """Reads of a location never observe the write serialization backwards.

    The location's serialization is its commit-ordered write sequence;
    each processor's successive reads of the location must return values
    at non-decreasing positions of that sequence.  A read's position is
    its source write's, as
    :func:`~repro.axiomatic.relations.reads_from_by_value` infers it (the
    initial value precedes every write); thin-air reads are left to
    :func:`check_no_thin_air`.  A read-modify-write has also observed its
    own write, so its processor's later reads may not return anything
    older (CoWR).
    """
    rf, _ = reads_from_by_value(execution.ops, initial_memory)
    trace_pos = {op: pos for pos, op in enumerate(execution.ops)}
    last_pos: Dict[tuple, int] = {}
    violations = []
    for op in execution.ops:
        if op not in rf:
            continue
        source = rf[op]
        pos = -1 if source is None else trace_pos[source]
        key = (op.proc, op.location)
        prev = last_pos.get(key)
        if prev is not None and pos < prev:
            violations.append(
                f"CoRR violation on {op.location!r}: P{op.proc} read "
                f"{op.value_read} after already observing a newer write"
            )
        if op.writes_memory:
            pos = max(pos, trace_pos[op])
        last_pos[key] = max(pos, prev) if prev is not None else pos
    return violations


def check_rmw_atomicity(execution: Execution) -> List[str]:
    """A committed RMW's read value must immediately precede its write in
    the location's commit-ordered write/value stream."""
    by_location: Dict[Location, List[MemoryOp]] = defaultdict(list)
    for op in execution.ops:
        if op.writes_memory:
            by_location[op.location].append(op)
    violations = []
    for loc, writes in by_location.items():
        for idx, op in enumerate(writes):
            if op.kind is not OpKind.SYNC_RMW or op.value_read is None:
                continue
            prev_value = writes[idx - 1].value_written if idx > 0 else None
            if idx > 0 and op.value_read != prev_value:
                violations.append(
                    f"RMW atomicity violation on {loc!r}: {op!r} read "
                    f"{op.value_read} but the preceding committed write "
                    f"wrote {prev_value}"
                )
    return violations


def check_trace(
    execution: Execution,
    initial_memory: Optional[Mapping[Location, Value]] = None,
) -> List[str]:
    """All invariants over one commit-ordered hardware trace."""
    violations: List[str] = []
    violations += check_no_thin_air(execution, initial_memory)
    violations += check_per_location_write_order(execution)
    violations += check_per_location_read_order(execution, initial_memory)
    violations += check_rmw_atomicity(execution)
    return violations
