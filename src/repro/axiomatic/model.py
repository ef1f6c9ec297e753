"""The memory models, stated declaratively as acyclicity axioms.

Every model here shares two herd-style axioms over a candidate's
relations (:class:`~repro.axiomatic.relations.Relations`):

* ``sc-per-location`` — ``acyclic(po_loc ∪ rf ∪ co ∪ fr)``: cache
  coherence, which even the RELAXED hardware provides.
* ``ghb`` — ``acyclic(ppo ∪ rfe ∪ co ∪ fr)``: the global
  happens-before, parameterised by the model's *preserved program
  order* (ppo).

Models differ only in which po-pairs survive into ppo.  Fence-separated
pairs always survive — every core drains on a ``Fence`` regardless of
policy.  The strong models keep progressively more:

* ``SC`` keeps all of po;
* ``TSO`` drops write-to-read pairs (the store buffer);
* ``PSO`` additionally drops write-to-write pairs;
* ``WO`` (weak ordering, the *old* definition) keeps exactly the pairs
  with a synchronization endpoint;
* ``WO-DRF0`` / ``WO-DRF0R`` are **conditional** — they are
  Definition 2 itself: to a program that obeys the synchronization
  model they promise SC; to a racy program they promise nothing beyond
  coherence and fences.  This is deliberately looser than what DEF2
  hardware does for racy code (the paper makes no promise there, so
  neither do we);
* ``RELAXED`` keeps only fenced pairs.

Both axioms are judged on op indices and covering edges: the frame's
memoized ppo cover (per program and rule), each location's co chain, and
one fr edge per read, whose transitive closures are those of the full
relations.  A candidate a model forbids explains itself:
:meth:`AxiomaticModel.violation` names the violated axiom together with
a witness cycle, such as ``po;fr;po;fr`` for SB under SC, rendered from
the full relations.

Each operational policy maps to the axiomatic model that *soundly*
describes it via :func:`model_for_policy`; the cross-checker
(:mod:`repro.axiomatic.crosscheck`) holds the two accountable to each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.operation import MemoryOp
from repro.axiomatic.relations import (
    Edge,
    Frame,
    IndexEdge,
    Relations,
    find_cycle,
)

#: ppo predicate: whether the po-pair ``(a, b)`` is preserved.  The
#: third argument says whether the pair is fence-separated.
PpoRule = Callable[[MemoryOp, MemoryOp, bool], bool]


def _keep_all(a: MemoryOp, b: MemoryOp, fenced: bool) -> bool:
    return True


def _keep_tso(a: MemoryOp, b: MemoryOp, fenced: bool) -> bool:
    # The store buffer lets reads pass earlier writes; atomics fence.
    if fenced or a.is_sync or b.is_sync:
        return True
    return not (a.writes_memory and b.reads_memory)


def _keep_pso(a: MemoryOp, b: MemoryOp, fenced: bool) -> bool:
    # Additionally relax write-to-write: nothing waits for a plain write.
    if fenced or a.is_sync or b.is_sync:
        return True
    return not a.writes_memory


def _keep_sync_endpoint(a: MemoryOp, b: MemoryOp, fenced: bool) -> bool:
    # The old definition: order is enforced exactly around syncs.
    return fenced or a.is_sync or b.is_sync


def _keep_fenced(a: MemoryOp, b: MemoryOp, fenced: bool) -> bool:
    return fenced


#: An axiom's relations, each named for witness rendering.
LabelledRelations = Tuple[Tuple[str, FrozenSet[Edge]], ...]

#: Each axiom with the relations whose union it says is acyclic, as
#: (witness label, relation name) pairs; ``ppo`` is the model's own.
_AXIOMS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sc-per-location": (
        ("po", "po_loc"), ("rf", "rf"), ("co", "co"), ("fr", "fr"),
    ),
    "ghb": (("po", "ppo"), ("rf", "rfe"), ("co", "co"), ("fr", "fr")),
}


@dataclass(frozen=True)
class Violation:
    """A violated axiom and the cycle that witnesses it.

    ``cycle`` lists the cycle's edges in order as ``(source, relation,
    target)``; the last target is the first source.  Forbidden SB under
    SC, for instance, is the ``ghb`` cycle ``po;fr;po;fr``.
    """

    axiom: str
    cycle: Tuple[Tuple[MemoryOp, str, MemoryOp], ...]

    @property
    def labels(self) -> str:
        """The cycle's relation names, e.g. ``"po;fr;po;fr"``."""
        return ";".join(relation for _, relation, _ in self.cycle)

    def describe(self) -> str:
        steps = [repr(self.cycle[0][0])]
        for _, relation, target in self.cycle:
            steps.append(f"-{relation}-> {target!r}")
        return f"{self.axiom} cycle {self.labels}: " + " ".join(steps)


class _Ppo:
    """One ppo rule over one frame: covering edges, and the full pairs."""

    def __init__(self, frame: Frame, rule: PpoRule) -> None:
        self.rule = rule
        self.cover = frame.cover(lambda a, b: self.keeps(frame, a, b))
        self._pairs: Optional[FrozenSet[IndexEdge]] = None

    def keeps(self, frame: Frame, a: int, b: int) -> bool:
        """Whether the po-pair of ops ``a``, ``b`` is preserved."""
        return self.rule(frame.ops[a], frame.ops[b], (a, b) in frame.fenced)

    def pairs(self, frame: Frame) -> FrozenSet[IndexEdge]:
        if self._pairs is None:
            self._pairs = frozenset(
                (a, b) for a, b in frame.po if self.keeps(frame, a, b)
            )
        return self._pairs


def _acyclic(count: int, *relations: Sequence[IndexEdge]) -> bool:
    """Whether the union of index-edge ``relations`` over ``count`` ops
    has no cycle (Kahn's algorithm: peel ops with no predecessor)."""
    successors: List[List[int]] = [[] for _ in range(count)]
    predecessors = [0] * count
    for edges in relations:
        for a, b in edges:
            successors[a].append(b)
            predecessors[b] += 1
    ready = [i for i in range(count) if not predecessors[i]]
    peeled = 0
    while ready:
        peeled += 1
        for b in successors[ready.pop()]:
            predecessors[b] -= 1
            if not predecessors[b]:
                ready.append(b)
    return peeled == count


@dataclass(frozen=True)
class AxiomaticModel:
    """One memory model as a ppo rule (plus the two shared axioms).

    ``condition`` names the Relations field gating a conditional model:
    when that field is True the model promises SC (ppo = po); when it is
    False or unknown, only ``ppo_rule`` survives.
    """

    name: str
    summary: str
    ppo_rule: PpoRule
    condition: Optional[str] = None

    def _ppo(self, relations: Relations) -> _Ppo:
        """This model's ppo over the candidate's frame, memoized there.

        The memo is keyed by the rule in force, so models that share a
        rule (and a conditional model whose program obeys its condition,
        which keeps all of po) share one entry.
        """
        rule = self.ppo_rule
        if self.condition is not None and getattr(relations, self.condition):
            rule = _keep_all
        frame = relations.frame
        ppo = frame.ppo.get(rule)
        if ppo is None:
            ppo = frame.ppo[rule] = _Ppo(frame, rule)
        return ppo

    def ppo(self, relations: Relations) -> FrozenSet[Edge]:
        """The preserved program-order pairs of a candidate."""
        ops = relations.ops
        return frozenset(
            (ops[a], ops[b])
            for a, b in self._ppo(relations).pairs(relations.frame)
        )

    @staticmethod
    def _parts(axiom: str, edges, ppo):
        """``axiom``'s labelled relations: ``edges`` maps a relation name
        to its pair set, and ``ppo()`` gives the model's ppo pairs."""
        return tuple(
            (label, ppo() if relation == "ppo" else edges(relation))
            for label, relation in _AXIOMS[axiom]
        )

    def axioms(
        self, relations: Relations
    ) -> Iterator[Tuple[str, LabelledRelations]]:
        """Each axiom's name and the relations whose union must be acyclic.

        The full (transitive) relations over ops, lazily, so a later
        axiom's relations are built only once the earlier ones are asked
        for.  Judging does not use them: see :meth:`violated_axiom`.
        """
        for axiom in _AXIOMS:
            yield axiom, self._parts(
                axiom, relations.edges, lambda: self.ppo(relations)
            )

    def violated_axiom(self, relations: Relations) -> Optional[str]:
        """The name of the first violated axiom, or None if consistent.

        Judged on op indices and covering edges: the frame's per-location
        po chains and this model's memoized ppo cover, rf (rfe for
        ``ghb``), each location's co chain, and each read's one fr edge
        (:meth:`Relations.covering`).  Their closures are those of the
        full relations, so they close exactly the same cycles.
        """
        count = len(relations.frame.ops)
        rf, rfe, co, fr = relations.covering()
        if not _acyclic(count, relations.frame.po_loc_cover, rf, co, fr):
            return "sc-per-location"
        if not _acyclic(count, self._ppo(relations).cover, rfe, co, fr):
            return "ghb"
        return None

    def violation(self, relations: Relations) -> Optional[Violation]:
        """The first violated axiom with its witness cycle, or None.

        :meth:`violated_axiom` decides on covering edges.  Only once it
        finds a cycle is the witness rendered, from the axiom's full
        (transitive) relations: their edges are searched in
        ``relations.ops`` order, as pairs of op indices, and the cycle is
        rotated to start at its earliest op, so the witness does not
        depend on set iteration order or on the covering edges.
        """
        axiom = self.violated_axiom(relations)
        if axiom is None:
            return None
        parts = self._parts(
            axiom,
            relations.index_edges,
            lambda: self._ppo(relations).pairs(relations.frame),
        )
        found = find_cycle(sorted({edge for _, part in parts for edge in part}))
        start = found.index(min(found))
        cycle = found[start:] + found[:start]
        ops = relations.ops
        return Violation(
            axiom=axiom,
            cycle=tuple(
                (
                    ops[src],
                    next(name for name, part in parts if (src, dst) in part),
                    ops[dst],
                )
                for src, dst in zip(cycle, cycle[1:] + cycle[:1])
            ),
        )

    def allows(self, relations: Relations) -> bool:
        """Whether the candidate is consistent under this model."""
        return self.violated_axiom(relations) is None


_MODELS: Tuple[AxiomaticModel, ...] = (
    AxiomaticModel(
        name="SC",
        summary="acyclic(po ∪ rfe ∪ co ∪ fr): sequential consistency",
        ppo_rule=_keep_all,
    ),
    AxiomaticModel(
        name="TSO",
        summary="po minus write-to-read: total store order",
        ppo_rule=_keep_tso,
    ),
    AxiomaticModel(
        name="PSO",
        summary="po minus write-to-read and write-to-write: partial "
        "store order",
        ppo_rule=_keep_pso,
    ),
    AxiomaticModel(
        name="WO",
        summary="po-pairs with a sync endpoint: weak ordering by the "
        "old definition",
        ppo_rule=_keep_sync_endpoint,
    ),
    AxiomaticModel(
        name="WO-DRF0",
        summary="Definition 2 w.r.t. DRF0: SC for DRF0 programs, "
        "coherence+fences otherwise",
        ppo_rule=_keep_fenced,
        condition="drf0",
    ),
    AxiomaticModel(
        name="WO-DRF0R",
        summary="Definition 2 w.r.t. DRF0-R: SC for DRF0-R programs, "
        "coherence+fences otherwise",
        ppo_rule=_keep_fenced,
        condition="drf0_r",
    ),
    AxiomaticModel(
        name="RELAXED",
        summary="fenced pairs only: coherence is the whole contract",
        ppo_rule=_keep_fenced,
    ),
)

#: Model name -> model.
AXIOMATIC_MODELS: Dict[str, AxiomaticModel] = {m.name: m for m in _MODELS}

#: Operational policy name -> the axiomatic model that soundly bounds
#: it (axiomatic-allowed ⊇ operationally-observable, on any machine
#: configuration the policy supports).
_POLICY_TO_MODEL: Dict[str, str] = {
    "SC": "SC",
    "TSO": "TSO",
    "PSO": "PSO",
    "DEF1": "WO",
    "ALL-SYNC": "WO",
    "DEF2": "WO-DRF0",
    "DEF2-R": "WO-DRF0R",
    "RELAXED": "RELAXED",
    "RP3-FENCE": "RELAXED",
}


def axiomatic_model_names() -> Tuple[str, ...]:
    """Sorted names of every declared axiomatic model."""
    return tuple(sorted(AXIOMATIC_MODELS))


def model_by_name(name: str) -> AxiomaticModel:
    """Look an axiomatic model up by name (case-insensitive)."""
    key = name.upper().replace("_", "-")
    try:
        return AXIOMATIC_MODELS[key]
    except KeyError:
        raise ValueError(
            f"unknown axiomatic model {name!r}; "
            f"known: {sorted(AXIOMATIC_MODELS)}"
        )


def model_for_policy(policy_name: str) -> AxiomaticModel:
    """The axiomatic model that soundly describes an operational policy.

    Policies without a declared mapping get ``RELAXED`` — the weakest
    model, hence always sound.
    """
    key = policy_name.upper().replace("_", "-")
    return AXIOMATIC_MODELS[_POLICY_TO_MODEL.get(key, "RELAXED")]
