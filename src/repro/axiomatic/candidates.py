"""Enumerating the candidate executions of a straight-line program.

A herd-style checker does not interleave anything: it generates every
*candidate* execution — a free choice of reads-from and coherence order
— resolves the values that choice implies, and lets the model's axioms
reject the inconsistent ones.  This module produces the candidates; the
axioms live in :mod:`repro.axiomatic.model`.

The enumerator handles **straight-line** programs only (no ``Branch`` /
``Jump``): with control flow fixed, each thread contributes one static
sequence of operations and the candidate space is finite.  Spinning
litmus tests are out of scope and reported as skipped by the
cross-checker rather than silently mis-modelled.

Each call compiles the program once (:func:`_compile`).  Operations get
integer indices; reads-from, coherence and values are int lists over
them.  Every write's value, and every final register, becomes a function
of the reads it actually depends on: the thread is replayed once through
the instructions' own semantics on symbolic register values.  The
compiled program's :class:`~repro.axiomatic.relations.Frame` (ops,
program order, fenced pairs, each model's memoized ppo) is shared by
every candidate of the call; a candidate's
:class:`~repro.axiomatic.relations.Relations` adds only its rf index
list and one co index order per location, and its observable outcome is
built only when asked for.

Values are resolved per reads-from choice in one pass, in rf/data-
dependence topological order.  A choice whose dependences form a
genuine cycle (a read feeding, through registers, the write it reads
from) has no such order; it is replayed round by round in program order
from all-zero values, for at most ``len(ops) + 2`` rounds.  A cycle that
settles (for instance on initial values) keeps the values it settled
on; one that never stabilises has no consistent assignment and is
discarded.  Read-modify-writes are kept atomic structurally — the RMW's
write must coherence-follow its reads-from source immediately.

:func:`enumerate_candidates` yields every raw candidate.
:func:`coherent_candidates` yields only those that satisfy
``sc-per-location``, the coherence axiom every model shares: that axiom
relates same-location operations only, so each location's rf/co choices
are filtered on their own before any combination is formed or any value
resolved.

``max_candidates`` bounds the *raw* candidate space, ∏ (1 + writes to
the read's location) over reads × ∏ (writes to a location)! over
locations, and is checked before enumeration starts.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.execution import Observable
from repro.core.instructions import (
    Branch,
    Halt,
    Jump,
    MemInstruction,
    RegInstruction,
)
from repro.core.operation import Location, MemoryOp
from repro.core.program import Program
from repro.axiomatic.relations import (
    Frame,
    Relations,
    fence_separated_pairs,
    find_cycle,
)

#: Default ceiling on the raw candidate space; litmus-sized programs
#: stay in the thousands, so hitting this means the program is out of
#: scope.
DEFAULT_MAX_CANDIDATES = 250_000


class CandidateBudgetExceeded(RuntimeError):
    """The candidate space outgrew the caller's budget."""


class NotStraightLine(ValueError):
    """The program has control flow; candidates cannot be enumerated."""


def is_straightline(program: Program) -> bool:
    """Whether every thread is branch-free (``Halt`` is permitted)."""
    return not any(
        isinstance(instr, (Branch, Jump))
        for thread in program.threads
        for instr in thread.instructions
    )


class Candidate:
    """One candidate execution with its resolved observable outcome.

    The observable is built on first use, so a caller that judges
    candidates pays for it only on the ones it keeps.
    """

    def __init__(
        self,
        compiled: "_Compiled",
        relations: Relations,
        values: Tuple[List[int], List[int]],
    ) -> None:
        self.relations = relations
        self._compiled = compiled
        self._values = values

    @cached_property
    def observable(self) -> Observable:
        return self._compiled.observable(self.relations, self._values)


# -- symbolic replay ---------------------------------------------------------

#: Read values indexed by op index -> int.
ValueFn = Callable[[Sequence[int]], int]


class _Symbolic:
    """A register value as a function of the values reads return.

    Compilation runs each thread through the instructions' own
    ``apply``/``compute_write`` code with these in the register file:
    arithmetic on a ``_Symbolic`` builds the function instead of a
    number, so no instruction's semantics is restated here.  ``deps``
    are the op indices of the reads the value depends on.
    """

    __slots__ = ("fn", "deps")

    def __init__(self, fn: ValueFn, deps: frozenset):
        self.fn = fn
        self.deps = deps


def _parts(value) -> Tuple[ValueFn, frozenset]:
    if isinstance(value, _Symbolic):
        return value.fn, value.deps
    return (lambda values: value), frozenset()


def _combine(op, a, b) -> _Symbolic:
    fa, da = _parts(a)
    fb, db = _parts(b)
    return _Symbolic(lambda values: op(fa(values), fb(values)), da | db)


def _lift(op):
    return (
        lambda self, other: _combine(op, self, other),
        lambda self, other: _combine(op, other, self),
    )


for _name, _op in (
    ("add", operator.add),
    ("sub", operator.sub),
    ("mul", operator.mul),
    ("and", operator.and_),
    ("or", operator.or_),
    ("xor", operator.xor),
):
    _forward, _reverse = _lift(_op)
    setattr(_Symbolic, f"__{_name}__", _forward)
    setattr(_Symbolic, f"__r{_name}__", _reverse)


class _SymbolicRegisters(dict):
    """The register-file protocol instructions use, holding symbols."""

    def read(self, reg):
        return self.get(reg, 0)

    def write(self, reg, value) -> None:
        self[reg] = value


#: A compiled value: a constant, or a function of the read values.
CompiledValue = Union[int, _Symbolic]


def _evaluate(value: CompiledValue, read_values: Sequence[int]) -> int:
    if isinstance(value, _Symbolic):
        return value.fn(read_values)
    return value


# -- compilation -------------------------------------------------------------


class _ValueCycle(Exception):
    """A reads-from choice closed a data-dependence cycle."""


class _Compiled:
    """A straight-line program, indexed for candidate enumeration."""

    def __init__(self, program: Program):
        ops: List[MemoryOp] = []
        chains: Dict[int, List[int]] = {}
        #: Per op: the value its write stores (``None`` if it does not).
        self.stores: List[Optional[CompiledValue]] = []
        #: Per thread: its final registers.
        self.registers: List[Dict[str, CompiledValue]] = []
        for proc, thread in enumerate(program.threads):
            regs = _SymbolicRegisters()
            steps = 0
            for pos, instr in enumerate(thread.instructions):
                if isinstance(instr, Halt):
                    break
                if isinstance(instr, MemInstruction):
                    index = len(ops)
                    op = MemoryOp(
                        proc=proc,
                        kind=instr.kind,
                        location=instr.location,
                        thread_pos=pos,
                        issue_index=steps,
                    )
                    ops.append(op)
                    chains.setdefault(proc, []).append(index)
                    old = 0
                    if op.reads_memory:
                        old = _Symbolic(
                            operator.itemgetter(index), frozenset((index,))
                        )
                        if instr.dest is not None:
                            regs.write(instr.dest, old)
                    self.stores.append(
                        instr.compute_write(regs, old)
                        if op.writes_memory else None
                    )
                elif isinstance(instr, RegInstruction):
                    instr.apply(regs)
                steps += 1
            self.registers.append(dict(regs))

        self.frame = Frame(
            ops,
            chains.values(),
            fence_separated_pairs(program, ops, chains.values()),
        )
        self.ops: Tuple[MemoryOp, ...] = self.frame.ops
        self.reads: Tuple[int, ...] = self.frame.reads
        self.rmws = frozenset(
            i for i in self.reads if ops[i].writes_memory
        )
        self.symbolic_writes: Tuple[int, ...] = tuple(
            i for i, store in enumerate(self.stores)
            if isinstance(store, _Symbolic)
        )
        self.initial: List[int] = [
            program.initial_value(op.location) for op in ops
        ]
        #: Location -> write op indices, in op order (first write first).
        self.writes_by_loc: Dict[Location, Tuple[int, ...]] = {}
        for i, op in enumerate(ops):
            if op.writes_memory:
                self.writes_by_loc[op.location] = (
                    self.writes_by_loc.get(op.location, ()) + (i,)
                )
        self.initial_memory: Tuple[Tuple[Location, int], ...] = tuple(
            (loc, program.initial_value(loc)) for loc in program.locations()
        )

    def space(self) -> int:
        """Size of the raw candidate space (rf choices × co orders)."""
        size = 1
        for r in self.reads:
            size *= 1 + len(self.writes_by_loc.get(self.ops[r].location, ()))
        for writes in self.writes_by_loc.values():
            size *= math.factorial(len(writes))
        return size

    # -- values -----------------------------------------------------------
    def resolve(
        self, rf: Sequence[Optional[int]]
    ) -> Optional[Tuple[List[int], List[int]]]:
        """``(read_values, write_values)`` for one reads-from choice.

        ``rf`` maps each read's op index to its source write's index, or
        ``None`` for the initial value.  Returns ``None`` when the
        choice admits no stable value assignment.
        """
        stores, initial = self.stores, self.initial
        read_values: List[Optional[int]] = [None] * len(stores)
        write_values: List[Optional[int]] = [
            None if isinstance(store, _Symbolic) else store
            for store in stores
        ]
        active = set()

        def read(r: int) -> None:
            source = rf[r]
            if source is None:
                read_values[r] = initial[r]
            else:
                read_values[r] = write(source)

        def write(w: int) -> int:
            value = write_values[w]
            if value is None:
                if w in active:
                    raise _ValueCycle
                active.add(w)
                for r in stores[w].deps:
                    if read_values[r] is None:
                        read(r)
                value = write_values[w] = stores[w].fn(read_values)
            return value

        try:
            for r in self.reads:
                if read_values[r] is None:
                    read(r)
        except _ValueCycle:
            return self._replay(rf)
        for w in self.symbolic_writes:
            if write_values[w] is None:
                write_values[w] = stores[w].fn(read_values)
        return read_values, write_values

    def _replay(
        self, rf: Sequence[Optional[int]]
    ) -> Optional[Tuple[List[int], List[int]]]:
        """Round-by-round program-order replay, for value cycles only.

        Each round recomputes every read and write in program order from
        the latest values; ``len(ops) + 2`` rounds bound any acyclic
        propagation, so a choice still changing after that has a value
        cycle that never stabilises.
        """
        n = len(self.ops)
        read_values = [0] * n
        write_values = [0] * n
        for _ in range(n + 2):
            changed = False
            for i, (op, store) in enumerate(zip(self.ops, self.stores)):
                if op.reads_memory:
                    source = rf[i]
                    value = (
                        self.initial[i] if source is None
                        else write_values[source]
                    )
                    if read_values[i] != value:
                        read_values[i] = value
                        changed = True
                if store is not None:
                    value = _evaluate(store, read_values)
                    if write_values[i] != value:
                        write_values[i] = value
                        changed = True
            if not changed:
                return read_values, write_values
        return None

    # -- candidates -------------------------------------------------------
    def rmw_atomic(self, rf: Sequence[Optional[int]], order: Sequence[int]) -> bool:
        """No write between each RMW of ``order``'s location and its source."""
        for position, w in enumerate(order):
            if w in self.rmws:
                source = rf[w]
                if source is None:
                    if position != 0:
                        return False
                elif position == 0 or order[position - 1] != source:
                    return False
        return True

    def observable(
        self, relations: Relations, values: Tuple[List[int], List[int]]
    ) -> Observable:
        """The final registers and memory of a candidate with ``values``."""
        read_values, write_values = values
        co = relations.co_index
        registers = [
            {reg: _evaluate(value, read_values) for reg, value in regs.items()}
            for regs in self.registers
        ]
        memory = {
            loc: write_values[co[loc][-1]] if loc in co else initial
            for loc, initial in self.initial_memory
        }
        return Observable.create(registers, memory)

    def coherent_choices(
        self, location: Location
    ) -> Dict[Tuple[Tuple[int, Optional[int]], ...], List[Tuple[int, ...]]]:
        """One location's sc-per-location-consistent rf/co choices.

        Keyed by the location's ``(read, source)`` pairs, each with the
        coherence orders that keep ``po_loc ∪ rf ∪ co ∪ fr`` over the
        location acyclic and its RMWs atomic.
        """
        reads = [r for r in self.reads if self.ops[r].location == location]
        writes = self.writes_by_loc.get(location, ())
        local = [
            i for i, op in enumerate(self.ops) if op.location == location
        ]
        po_loc = [
            (a, b) for a, b in zip(local, local[1:])
            if self.ops[a].proc == self.ops[b].proc
        ]
        rf: List[Optional[int]] = [None] * len(self.ops)
        choices: Dict[
            Tuple[Tuple[int, Optional[int]], ...], List[Tuple[int, ...]]
        ] = {}
        for sources in itertools.product(
            (None,) + writes, repeat=len(reads)
        ):
            for r, source in zip(reads, sources):
                rf[r] = source
            for order in itertools.permutations(writes):
                if not self.rmw_atomic(rf, order):
                    continue
                edges = po_loc + list(zip(order, order[1:]))
                for r, source in zip(reads, sources):
                    start = 0
                    if source is not None:
                        edges.append((source, r))
                        start = order.index(source) + 1
                    edges.extend((r, w) for w in order[start:] if w != r)
                if find_cycle(edges) is None:
                    choices.setdefault(
                        tuple(zip(reads, sources)), []
                    ).append(order)
        return choices


def _compile(program: Program, max_candidates: int) -> _Compiled:
    if not is_straightline(program):
        raise NotStraightLine(
            f"program {program.name!r} has branches; candidate enumeration "
            f"handles straight-line programs only"
        )
    compiled = _Compiled(program)
    if compiled.space() > max_candidates:
        raise CandidateBudgetExceeded(
            f"program {program.name!r} exceeds "
            f"{max_candidates} candidate executions"
        )
    return compiled


def enumerate_candidates(
    program: Program,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    drf0: Optional[bool] = None,
    drf0_r: Optional[bool] = None,
) -> Iterator[Candidate]:
    """Yield every value-consistent candidate execution of ``program``.

    The yielded candidates are *raw*: no memory-model axiom has been
    applied yet (beyond value consistency and RMW atomicity, which are
    architectural).  ``drf0``/``drf0_r`` are threaded into every
    candidate's :class:`Relations` for the conditional models.

    Raises :class:`NotStraightLine` on programs with control flow and
    :class:`CandidateBudgetExceeded` when the raw candidate space
    exceeds ``max_candidates``.
    """
    compiled = _compile(program, max_candidates)
    ops, reads = compiled.ops, compiled.reads
    rf_choices = [
        (None,) + compiled.writes_by_loc.get(ops[r].location, ())
        for r in reads
    ]
    locations = list(compiled.writes_by_loc)
    co_orders = [
        list(itertools.permutations(compiled.writes_by_loc[loc]))
        for loc in locations
    ]
    rf: List[Optional[int]] = [None] * len(ops)
    for rf_pick in itertools.product(*rf_choices):
        for r, source in zip(reads, rf_pick):
            rf[r] = source
        values = compiled.resolve(rf)
        if values is None:
            continue
        rf_index = tuple(rf)
        for co_pick in itertools.product(*co_orders):
            if all(compiled.rmw_atomic(rf, order) for order in co_pick):
                relations = Relations(
                    compiled.frame, rf_index, dict(zip(locations, co_pick)),
                    drf0, drf0_r,
                )
                yield Candidate(compiled, relations, values)


def coherent_candidates(
    program: Program,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    drf0: Optional[bool] = None,
    drf0_r: Optional[bool] = None,
) -> Iterator[Candidate]:
    """Yield the candidates of ``program`` that satisfy sc-per-location.

    Exactly the :func:`enumerate_candidates` candidates whose
    ``po_loc ∪ rf ∪ co ∪ fr`` is acyclic — the coherence axiom every
    model shares — found without generating the others: incoherent
    per-location rf/co choices are dropped before they are combined or
    their values resolved.  Raises like :func:`enumerate_candidates`.
    """
    compiled = _compile(program, max_candidates)
    ops = compiled.ops
    locations = list(dict.fromkeys(
        [*compiled.writes_by_loc, *(ops[r].location for r in compiled.reads)]
    ))
    per_location = [compiled.coherent_choices(loc) for loc in locations]
    rf: List[Optional[int]] = [None] * len(ops)
    for picks in itertools.product(
        *(list(choices.items()) for choices in per_location)
    ):
        for sources, _ in picks:
            for r, source in sources:
                rf[r] = source
        values = compiled.resolve(rf)
        if values is None:
            continue
        rf_index = tuple(rf)
        for orders in itertools.product(*(orders for _, orders in picks)):
            co = {loc: order for loc, order in zip(locations, orders) if order}
            relations = Relations(compiled.frame, rf_index, co, drf0, drf0_r)
            yield Candidate(compiled, relations, values)
