"""Direct sequential-consistency checking of hardware traces.

The result-set oracle (:mod:`repro.sc.verifier`) decides "appears SC" by
enumerating every idealized execution — exact, but exponential in
program size.  This module implements the classic alternative used by
trace checkers (TSOtool-style): judge the one candidate execution a
hardware trace witnesses against the ``SC`` model of
:mod:`repro.axiomatic`.  The relations come from
:func:`~repro.axiomatic.relations.relations_from_execution`:

* ``po`` — per-processor program (issue) order,
* ``co`` — per-location write serialization, taken as commit order,
* ``rf`` — each read to the write whose value it returned, inferred by
  value,
* ``fr`` — a read precedes every write ``co``-after its source,

and the trace is SC-explainable iff ``po ∪ rf ∪ co ∪ fr`` is acyclic
(the SC model's ``sc-per-location`` and ``ghb`` axioms together say
exactly that): any total order extending it is a legal SC execution
producing these reads.

**Precondition: commit order is the write serialization.**  Conditions
2-3 of Section 5.1 make it so on the cache-coherent machines, where the
check is exact for traces whose writes to a location store distinct
values (otherwise the reads-from inference has to guess).  On the cacheless
machines it does not hold: commit time is not the order in which memory
applied the writes, so a trace can be flagged non-SC although its
outcome is SC — ``critical_section`` under the SC policy on
``net_nocache`` and ``bus_nocache`` is flagged at seeds 0-3, yet its
observable is in the SC result set.  Judge those machines by result-set
membership instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional

from repro.axiomatic.model import model_by_name
from repro.axiomatic.relations import UnexplainedReads, relations_from_execution
from repro.core.execution import Execution
from repro.core.operation import Location, MemoryOp, Value


@dataclass
class TraceCheckResult:
    """Outcome of the acyclicity check."""

    is_sc: bool
    #: Ops on the offending cycle (empty when ``is_sc``).
    cycle: List[MemoryOp] = field(default_factory=list)
    #: Reads whose source write could not be inferred (thin air).
    unexplained_reads: List[MemoryOp] = field(default_factory=list)

    def describe(self) -> str:
        if self.is_sc:
            return "trace is explainable by a sequentially consistent order"
        if self.unexplained_reads:
            reads = ", ".join(repr(op) for op in self.unexplained_reads)
            return f"trace reads values never written: {reads}"
        cycle = " -> ".join(repr(op) for op in self.cycle)
        return f"no SC order exists: constraint cycle {cycle}"


def check_trace_sc(
    execution: Execution,
    initial_memory: Optional[Mapping[Location, Value]] = None,
) -> TraceCheckResult:
    """Decide whether the trace admits a sequentially consistent order."""
    try:
        relations = relations_from_execution(
            execution, initial_memory=initial_memory
        )
    except UnexplainedReads as error:
        return TraceCheckResult(is_sc=False, unexplained_reads=error.reads)
    violation = model_by_name("SC").violation(relations)
    if violation is None:
        return TraceCheckResult(is_sc=True)
    return TraceCheckResult(
        is_sc=False, cycle=[source for source, _, _ in violation.cycle]
    )
