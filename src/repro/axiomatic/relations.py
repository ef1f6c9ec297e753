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

Relations live on op indices.  What does not depend on the candidate —
the ops, each processor's program order, the fenced pairs and each
model's preserved program order — sits in one :class:`Frame`, built
once per program (or per trace) and shared by all of its candidates.
A candidate adds only its reads-from (one source index per read) and
its coherence (one index order per location).  The axioms are judged
on covering edges: each location's co chain, and one fr edge per read.
The ``MemoryOp`` pair sets (``rf_edges()`` and the like) are views
derived on demand, for callers and for witness cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
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


#: An ordered pair of op indices (positions in ``Frame.ops``).
IndexEdge = Tuple[int, int]


class Frame:
    """What every candidate execution of one program shares.

    Built once per compiled program (:mod:`repro.axiomatic.candidates`)
    or once per trace (:func:`relations_from_execution`), and shared by
    every :class:`Relations` over it.  Operations are named by their
    index in ``ops``; ``chains`` lists each processor's op indices in
    program order, and ``fenced`` holds the fence-separated po-pairs as
    index pairs.

    Judging reads ``po_loc_cover`` and the ``ppo`` memo, which each
    model fills with its preserved program order the first time it
    judges a candidate of this frame (see
    :meth:`repro.axiomatic.model.AxiomaticModel.allows`).  The
    transitive ``po`` and ``po_loc`` pair sets are built on first use,
    by witnesses and the ``MemoryOp`` views.
    """

    def __init__(
        self,
        ops: Sequence[MemoryOp],
        chains: Iterable[Sequence[int]],
        fenced: FrozenSet[IndexEdge] = frozenset(),
    ) -> None:
        self.ops: Tuple[MemoryOp, ...] = tuple(ops)
        self.chains: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(chain) for chain in chains
        )
        self.fenced = fenced
        self.procs: Tuple[int, ...] = tuple(op.proc for op in self.ops)
        self.locations: Tuple[Location, ...] = tuple(
            op.location for op in self.ops
        )
        self.reads: Tuple[int, ...] = tuple(
            i for i, op in enumerate(self.ops) if op.reads_memory
        )
        #: ppo rule -> that rule's preserved order over this frame.
        self.ppo: Dict[object, object] = {}

    @cached_property
    def rank(self) -> Dict[MemoryOp, int]:
        """Op -> its index."""
        return {op: i for i, op in enumerate(self.ops)}

    @cached_property
    def po(self) -> FrozenSet[IndexEdge]:
        """All transitive program-order pairs."""
        return frozenset(
            (earlier, later)
            for chain in self.chains
            for k, earlier in enumerate(chain)
            for later in chain[k + 1:]
        )

    @cached_property
    def po_loc(self) -> FrozenSet[IndexEdge]:
        """All transitive program-order pairs over one location."""
        locations = self.locations
        return frozenset(
            (a, b) for a, b in self.po if locations[a] == locations[b]
        )

    @cached_property
    def po_loc_cover(self) -> Tuple[IndexEdge, ...]:
        """Each op to the next op of its processor on its location."""
        edges: List[IndexEdge] = []
        for chain in self.chains:
            last: Dict[Location, int] = {}
            for i in chain:
                location = self.locations[i]
                if location in last:
                    edges.append((last[location], i))
                last[location] = i
        return tuple(edges)

    def cover(self, keep: Callable[[int, int], bool]) -> Tuple[IndexEdge, ...]:
        """Covering edges of the po-pairs ``keep`` accepts.

        Their transitive closure is that of the accepted pairs, so they
        close exactly the same cycles.  ``keep`` is offered a pair only
        when the edges kept so far do not already imply it; for full po
        that is just each op's successor.
        """
        edges: List[IndexEdge] = []
        for chain in self.chains:
            #: Per chain position: the later positions it reaches.
            reach = [0] * len(chain)
            for k in range(len(chain) - 1, -1, -1):
                earlier = chain[k]
                reached = 0
                for m in range(k + 1, len(chain)):
                    if not reached >> m & 1 and keep(earlier, chain[m]):
                        edges.append((earlier, chain[m]))
                        reached |= 1 << m | reach[m]
                reach[k] = reached
        return tuple(edges)


@dataclass
class Relations:
    """A candidate execution: operations plus the relations over them.

    Stored on op indices.  ``frame`` is the program's shared
    :class:`Frame` (ops, po, fenced pairs, ppo memo).  ``rf_index`` gives
    per op the index of the write it reads from, or ``None`` for the
    initial memory value (``None`` too for ops that do not read).
    ``co_index`` gives, per location, the coherence order of that
    location's writes as indices (initial write implicit,
    coherence-first).

    The judge reads :meth:`covering`: rf, co as each location's chain,
    and fr as each read's edge to the first write after its source.
    The ``MemoryOp``-keyed ``rf``, ``co``, ``po``, ``fenced`` and
    ``*_edges()`` are views over the full (transitive) pair sets
    (:meth:`index_edges`), built on first use: more edges than the
    covering ones, identical cycles.

    ``drf0``/``drf0_r`` record whether the originating *program* obeys
    DRF0 / DRF0-R (``None`` when not computed); the conditional
    Definition-2 models consult them.
    """

    frame: Frame
    rf_index: Sequence[Optional[int]]
    co_index: Mapping[Location, Tuple[int, ...]]
    drf0: Optional[bool] = None
    drf0_r: Optional[bool] = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def ops(self) -> Tuple[MemoryOp, ...]:
        return self.frame.ops

    # -- index relations ----------------------------------------------------
    def covering(
        self,
    ) -> Tuple[
        List[IndexEdge], List[IndexEdge], List[IndexEdge], List[IndexEdge]
    ]:
        """``(rf, rfe, co, fr)`` as index edges, co and fr covering only.

        co is each location's chain of successive writes.  fr takes each
        read to the first write coherence-after its source (or the
        location's first write for an initial-value read), skipping the
        read itself when it is an RMW; later writes follow on the co
        chain.  Both close the same cycles as the transitive sets.
        """
        cached = self._cache.get("covering")
        if cached is not None:
            return cached
        frame = self.frame
        procs, locations = frame.procs, frame.locations
        rf_index, co_index = self.rf_index, self.co_index
        rf: List[IndexEdge] = []
        rfe: List[IndexEdge] = []
        co: List[IndexEdge] = []
        fr: List[IndexEdge] = []
        for order in co_index.values():
            co.extend(zip(order, order[1:]))
        for read in frame.reads:
            source = rf_index[read]
            order = co_index.get(locations[read], ())
            if source is None:
                after = 0
            else:
                rf.append((source, read))
                if procs[source] != procs[read]:
                    rfe.append((source, read))
                after = order.index(source) + 1
            if after < len(order) and order[after] == read:
                after += 1
            if after < len(order):
                fr.append((read, order[after]))
        cached = self._cache["covering"] = (rf, rfe, co, fr)
        return cached

    def index_edges(self, name: str) -> FrozenSet[IndexEdge]:
        """The full relation ``name`` as index pairs.

        ``name`` is one of ``po``, ``po_loc``, ``fenced``, ``rf``,
        ``rfe``, ``co`` (all earlier-to-later pairs of each location's
        order) or ``fr`` (each read to every write coherence-after its
        source, never the read itself).
        """
        if name in ("po", "po_loc", "fenced"):
            return getattr(self.frame, name)
        key = "index_" + name
        if key not in self._cache:
            if name in ("rf", "rfe"):
                rf, rfe, _, _ = self.covering()
                pairs: Iterable[IndexEdge] = rf if name == "rf" else rfe
            elif name == "co":
                pairs = (
                    (earlier, later)
                    for order in self.co_index.values()
                    for k, earlier in enumerate(order)
                    for later in order[k + 1:]
                )
            elif name == "fr":
                pairs = self._fr_pairs()
            else:
                raise ValueError(f"unknown relation {name!r}")
            self._cache[key] = frozenset(pairs)
        return self._cache[key]

    def _fr_pairs(self) -> Iterator[IndexEdge]:
        locations = self.frame.locations
        for read in self.frame.reads:
            source = self.rf_index[read]
            order = self.co_index.get(locations[read], ())
            start = 0 if source is None else order.index(source) + 1
            for later in order[start:]:
                if later != read:
                    yield read, later

    # -- MemoryOp views -----------------------------------------------------
    @property
    def rf(self) -> Dict[MemoryOp, Optional[MemoryOp]]:
        """Read -> the write it reads from, ``None`` for the initial value."""
        if "rf" not in self._cache:
            ops = self.ops
            rf_index = self.rf_index
            self._cache["rf"] = {
                ops[read]: None if rf_index[read] is None else ops[rf_index[read]]
                for read in self.frame.reads
            }
        return self._cache["rf"]

    @property
    def co(self) -> Dict[Location, Tuple[MemoryOp, ...]]:
        """Location -> its writes in coherence order."""
        if "co" not in self._cache:
            ops = self.ops
            self._cache["co"] = {
                location: tuple(ops[w] for w in order)
                for location, order in self.co_index.items()
            }
        return self._cache["co"]

    @property
    def po(self) -> FrozenSet[Edge]:
        """All transitive program-order pairs."""
        return self.edges("po")

    @property
    def fenced(self) -> FrozenSet[Edge]:
        """The po-pairs separated by a fence."""
        return self.edges("fenced")

    def edges(self, name: str) -> FrozenSet[Edge]:
        """The full relation ``name`` (see :meth:`index_edges`) over ops."""
        key = "edges_" + name
        if key not in self._cache:
            ops = self.ops
            self._cache[key] = frozenset(
                (ops[a], ops[b]) for a, b in self.index_edges(name)
            )
        return self._cache[key]

    def rf_edges(self) -> FrozenSet[Edge]:
        """Write-to-read edges (initial-value reads contribute none)."""
        return self.edges("rf")

    def rfe_edges(self) -> FrozenSet[Edge]:
        """External reads-from: the writer is on another processor."""
        return self.edges("rfe")

    def co_edges(self) -> FrozenSet[Edge]:
        """All earlier-to-later pairs of each location's coherence order."""
        return self.edges("co")

    def fr_edges(self) -> FrozenSet[Edge]:
        """From-reads: read -> every write coherence-after its source."""
        return self.edges("fr")

    def po_loc_edges(self) -> FrozenSet[Edge]:
        """Program-order pairs over the same location."""
        return self.edges("po_loc")

    def reads(self) -> Tuple[MemoryOp, ...]:
        return tuple(op for op in self.ops if op.reads_memory)

    def writes(self) -> Tuple[MemoryOp, ...]:
        return tuple(op for op in self.ops if op.writes_memory)


def fence_separated_pairs(
    program: Program, ops: Sequence[MemoryOp], chains: Iterable[Sequence[int]]
) -> FrozenSet[IndexEdge]:
    """Po-pairs, as index pairs, with a ``Fence`` strictly between them.

    ``chains`` lists each processor's indices into ``ops`` in program
    order.  Positions come from ``thread_pos``, so the program handed in
    must be the one the operations were generated from (for litmus
    tests, the *executable* program — warm-up loads shift every
    position).
    """
    fence_positions: List[Tuple[int, ...]] = [
        tuple(
            pos
            for pos, instr in enumerate(thread.instructions)
            if isinstance(instr, Fence)
        )
        for thread in program.threads
    ]
    edges: Set[IndexEdge] = set()
    for chain in chains:
        if not chain:
            continue
        proc = ops[chain[0]].proc
        fences = fence_positions[proc] if 0 <= proc < len(fence_positions) else ()
        if not fences:
            continue
        for k, earlier in enumerate(chain):
            for later in chain[k + 1:]:
                if any(
                    ops[earlier].thread_pos < pos < ops[later].thread_pos
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
    #: (location, value) -> the writes that stored it, in trace order.
    writes: Dict[Tuple[Location, Value], List[Tuple[int, MemoryOp]]] = {}
    for pos, op in enumerate(ops):
        if op.writes_memory and op.value_written is not None:
            writes.setdefault((op.location, op.value_written), []).append(
                (pos, op)
            )
    rf: Dict[MemoryOp, Optional[MemoryOp]] = {}
    unexplained: List[MemoryOp] = []
    for pos, read in enumerate(ops):
        if not read.reads_memory:
            continue
        source: Optional[MemoryOp] = None
        for write_pos, write in writes.get((read.location, read.value_read), ()):
            if write is read:
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
    empty.  ``initial_memory`` defaults to all-zero memory.  The trace
    gets a :class:`Frame` of its own, so each model judging it builds
    its ppo cover once.

    Raises :class:`UnexplainedReads` when some read has no source.
    """
    real_ops = tuple(op for op in execution.ops if not op.is_hypothetical)
    chains: Dict[int, List[int]] = {}
    for i, op in enumerate(real_ops):
        chains.setdefault(op.proc, []).append(i)
    for chain in chains.values():
        if all(real_ops[i].issue_index is not None for i in chain):
            chain.sort(key=lambda i: real_ops[i].issue_index)

    rf, unexplained = reads_from_by_value(real_ops, initial_memory)
    if unexplained:
        raise UnexplainedReads(unexplained)
    fenced: FrozenSet[IndexEdge] = frozenset()
    if program is not None:
        fenced = fence_separated_pairs(program, real_ops, chains.values())
    frame = Frame(real_ops, chains.values(), fenced)

    rank = frame.rank
    rf_index: List[Optional[int]] = [None] * len(real_ops)
    for read, source in rf.items():
        rf_index[rank[read]] = None if source is None else rank[source]
    co: Dict[Location, List[int]] = {}
    for i, op in enumerate(real_ops):
        if op.writes_memory:
            co.setdefault(op.location, []).append(i)

    return Relations(
        frame=frame,
        rf_index=tuple(rf_index),
        co_index={loc: tuple(order) for loc, order in co.items()},
        drf0=drf0,
        drf0_r=drf0_r,
    )
