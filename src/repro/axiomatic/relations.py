"""The relational vocabulary of axiomatic memory models: po, rf, co, fr.

The operational half of the library produces *executions* — totally
ordered traces out of a simulator.  Axiomatic models (herd-style) speak
about *candidate executions* instead: a set of memory operations plus a
handful of relations over them —

* ``po``  — program order (same processor, earlier-to-later pairs),
* ``rf``  — reads-from (each read names the write it observed, or the
  initial memory value),
* ``co``  — coherence order (a total order over the writes to each
  location),
* ``fr``  — from-reads, the derived relation ``rf⁻¹ ; co`` (a read is
  ordered before every write that coherence-follows the one it read).

:class:`Relations` packages exactly that, together with the
``fenced`` po-pairs (pairs separated by a :class:`~repro.core.
instructions.Fence`, which every core drains on regardless of policy).
It can be *derived* from an operational execution
(:func:`relations_from_execution`, which infers ``rf`` with
:func:`reads_from_by_value`) or *chosen* freely by the candidate
enumerator (:mod:`repro.axiomatic.candidates`); the axioms in
:mod:`repro.axiomatic.model` consume either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.execution import Execution
from repro.core.instructions import Fence
from repro.core.operation import INITIAL_VALUE, Location, MemoryOp, Value
from repro.core.program import Program

#: An ordered pair of operations — one edge of a relation.
Edge = Tuple[MemoryOp, MemoryOp]


def find_cycle(edges: Iterable[Edge]) -> Optional[List[MemoryOp]]:
    """A cycle of the directed graph formed by ``edges``, or ``None``.

    The cycle is returned as its nodes in edge order: ``[a, b, c]``
    witnesses ``a -> b -> c -> a``.  Iterative depth-first search; the
    op graphs here are a handful of nodes, so no cleverness is
    warranted.
    """
    adjacency: Dict[MemoryOp, List[MemoryOp]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
    #: True while a node is on the current path, False once finished.
    on_path: Dict[MemoryOp, bool] = {}
    for root in adjacency:
        if root in on_path:
            continue
        on_path[root] = True
        path = [root]
        children = [iter(adjacency[root])]
        while children:
            for child in children[-1]:
                state = on_path.get(child)
                if state is None:
                    on_path[child] = True
                    path.append(child)
                    children.append(iter(adjacency.get(child, ())))
                    break
                if state:
                    return path[path.index(child):]
            else:
                on_path[path.pop()] = False
                children.pop()
    return None


def acyclic(edges: Iterable[Edge]) -> bool:
    """Whether the directed graph formed by ``edges`` has no cycle."""
    return find_cycle(edges) is None


@dataclass
class Relations:
    """A candidate execution: operations plus the relations over them.

    ``rf`` maps every read(-component) op to the write it reads from, or
    ``None`` for the initial memory value.  ``co`` gives, per location,
    the coherence order of that location's writes (initial write
    implicit, coherence-first).  ``po`` and ``fenced`` are *transitive*
    pair sets — more edges than the covering relation, identical cycles.

    ``drf0``/``drf0_r`` record whether the originating *program* obeys
    DRF0 / DRF0-R (``None`` when not computed); the conditional
    Definition-2 models consult them.
    """

    ops: Tuple[MemoryOp, ...]
    po: FrozenSet[Edge]
    fenced: FrozenSet[Edge]
    rf: Mapping[MemoryOp, Optional[MemoryOp]]
    co: Mapping[Location, Tuple[MemoryOp, ...]]
    drf0: Optional[bool] = None
    drf0_r: Optional[bool] = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- derived edge sets ------------------------------------------------
    def rf_edges(self) -> FrozenSet[Edge]:
        """Write-to-read edges (initial-value reads contribute none)."""
        return self._derived(
            "rf",
            lambda: frozenset(
                (writer, read)
                for read, writer in self.rf.items()
                if writer is not None
            ),
        )

    def rfe_edges(self) -> FrozenSet[Edge]:
        """External reads-from: the writer is on another processor."""
        return self._derived(
            "rfe",
            lambda: frozenset(
                (w, r) for w, r in self.rf_edges() if w.proc != r.proc
            ),
        )

    def co_edges(self) -> FrozenSet[Edge]:
        """All earlier-to-later pairs of each location's coherence order."""

        def build() -> FrozenSet[Edge]:
            edges: Set[Edge] = set()
            for order in self.co.values():
                for i, earlier in enumerate(order):
                    for later in order[i + 1:]:
                        edges.add((earlier, later))
            return frozenset(edges)

        return self._derived("co", build)

    def fr_edges(self) -> FrozenSet[Edge]:
        """From-reads: read -> every write coherence-after its source."""

        def build() -> FrozenSet[Edge]:
            edges: Set[Edge] = set()
            for read, writer in self.rf.items():
                order = self.co.get(read.location, ())
                start = 0 if writer is None else order.index(writer) + 1
                for later in order[start:]:
                    if later is not read:
                        edges.add((read, later))
            return frozenset(edges)

        return self._derived("fr", build)

    def po_loc_edges(self) -> FrozenSet[Edge]:
        """Program-order pairs over the same location."""
        return self._derived(
            "po_loc",
            lambda: frozenset(
                (a, b) for a, b in self.po if a.location == b.location
            ),
        )

    def reads(self) -> Tuple[MemoryOp, ...]:
        return tuple(op for op in self.ops if op.reads_memory)

    def writes(self) -> Tuple[MemoryOp, ...]:
        return tuple(op for op in self.ops if op.writes_memory)

    def _derived(self, key: str, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]


def program_order_pairs(
    ops_by_proc: Mapping[int, Sequence[MemoryOp]]
) -> FrozenSet[Edge]:
    """All transitive program-order pairs of per-processor op sequences."""
    edges: Set[Edge] = set()
    for ops in ops_by_proc.values():
        for i, earlier in enumerate(ops):
            for later in ops[i + 1:]:
                edges.add((earlier, later))
    return frozenset(edges)


def fence_separated_pairs(
    program: Program, ops_by_proc: Mapping[int, Sequence[MemoryOp]]
) -> FrozenSet[Edge]:
    """Po-pairs with a ``Fence`` instruction strictly between them.

    Positions come from ``thread_pos``, so the program handed in must be
    the one the operations were generated from (for litmus tests, the
    *executable* program — warm-up loads shift every position).
    """
    fence_positions: List[Tuple[int, ...]] = [
        tuple(
            pos
            for pos, instr in enumerate(thread.instructions)
            if isinstance(instr, Fence)
        )
        for thread in program.threads
    ]
    edges: Set[Edge] = set()
    for proc, ops in ops_by_proc.items():
        fences = fence_positions[proc] if 0 <= proc < len(fence_positions) else ()
        if not fences:
            continue
        for i, earlier in enumerate(ops):
            for later in ops[i + 1:]:
                if any(
                    earlier.thread_pos < pos < later.thread_pos
                    for pos in fences
                ):
                    edges.add((earlier, later))
    return frozenset(edges)


class UnexplainedReads(ValueError):
    """Reads that returned a value no write, nor the initial state, explains."""

    def __init__(self, reads: Sequence[MemoryOp]) -> None:
        self.reads = list(reads)
        super().__init__(
            "reads return values never written: "
            + ", ".join(repr(op) for op in self.reads)
        )


def reads_from_by_value(
    ops: Sequence[MemoryOp],
    initial_memory: Optional[Mapping[Location, Value]] = None,
) -> Tuple[Dict[MemoryOp, Optional[MemoryOp]], List[MemoryOp]]:
    """Infer which write each read of a trace observed, from its value.

    A read's source is the latest same-location write (in trace order)
    that wrote the value the read returned and had committed no later
    than the read; when either commit time is unknown, the write must
    come before the read in trace order.  With no such write the read
    saw the initial value if it returned that value (``None`` in the
    map); otherwise it is *unexplained* and left out of the map.

    Duplicate written values make the source ambiguous, and the latest
    candidate is only a guess; with distinct written values, the
    convention every catalog test follows, the inference is exact.
    Returns the map and the unexplained reads.
    """
    initial_memory = initial_memory or {}
    writes: Dict[Location, List[Tuple[int, MemoryOp]]] = {}
    for pos, op in enumerate(ops):
        if op.writes_memory and op.value_written is not None:
            writes.setdefault(op.location, []).append((pos, op))
    rf: Dict[MemoryOp, Optional[MemoryOp]] = {}
    unexplained: List[MemoryOp] = []
    for pos, read in enumerate(ops):
        if not read.reads_memory:
            continue
        source: Optional[MemoryOp] = None
        for write_pos, write in writes.get(read.location, ()):
            if write is read or write.value_written != read.value_read:
                continue
            if write.commit_time is None or read.commit_time is None:
                later = write_pos > pos
            else:
                later = write.commit_time > read.commit_time
            if not later:
                source = write
        initial = initial_memory.get(read.location, INITIAL_VALUE)
        if source is not None or read.value_read == initial:
            rf[read] = source
        else:
            unexplained.append(read)
    return rf, unexplained


def relations_from_execution(
    execution: Execution,
    program: Optional[Program] = None,
    drf0: Optional[bool] = None,
    drf0_r: Optional[bool] = None,
    initial_memory: Optional[Mapping[Location, Value]] = None,
) -> Relations:
    """Derive the candidate relations an operational execution witnesses.

    ``rf`` is inferred by value (:func:`reads_from_by_value`), not by
    trace order: on hardware a read may commit after a write whose value
    it never saw.  ``co`` is the trace order of each location's writes,
    which is their commit order on hardware.  ``po`` is issue order where
    every op of a processor records one, else trace order.  ``fenced``
    pairs need the program the trace came from; without one they are
    empty.  ``initial_memory`` defaults to all-zero memory.

    Raises :class:`UnexplainedReads` when some read has no source.
    """
    real_ops = tuple(op for op in execution.ops if not op.is_hypothetical)
    by_proc: Dict[int, List[MemoryOp]] = {}
    for op in real_ops:
        by_proc.setdefault(op.proc, []).append(op)
    for proc, ops in by_proc.items():
        if all(op.issue_index is not None for op in ops):
            ops.sort(key=lambda op: op.issue_index)

    rf, unexplained = reads_from_by_value(real_ops, initial_memory)
    if unexplained:
        raise UnexplainedReads(unexplained)
    co: Dict[Location, List[MemoryOp]] = {}
    for op in real_ops:
        if op.writes_memory:
            co.setdefault(op.location, []).append(op)

    fenced: FrozenSet[Edge] = frozenset()
    if program is not None:
        fenced = fence_separated_pairs(program, by_proc)

    return Relations(
        ops=real_ops,
        po=program_order_pairs(by_proc),
        fenced=fenced,
        rf=rf,
        co={loc: tuple(order) for loc, order in co.items()},
        drf0=drf0,
        drf0_r=drf0_r,
    )
