"""The index judge against the transitive-set judge it replaced.

``AxiomaticModel.allows``/``violation`` judge op indices and covering
co/fr edges.  The reference below is the construction they replaced,
restated: each axiom's union of full (transitive) ``MemoryOp`` edge sets
from ``model.axioms`` must be acyclic, and a violation's witness is the
rank-sorted ``find_cycle`` over that union, rotated to its earliest op.
Both must agree with it candidate by candidate: on every raw candidate
of the straight-line catalog, on random racy programs, and on hardware
traces of the whole catalog.
"""

from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axiomatic import (
    Violation,
    axiomatic_model_names,
    enumerate_candidates,
    find_cycle,
    is_straightline,
    model_by_name,
    relations_from_execution,
)
from repro.drf.drf0 import check_program
from repro.drf.models import DRF0, DRF0_R
from repro.litmus.catalog import standard_catalog
from repro.litmus.runner import LitmusRunner
from repro.memsys.config import NET_CACHE
from repro.memsys.system import run_program
from repro.models.policies import RelaxedPolicy, SCPolicy
from repro.workloads.random_programs import random_racy_program

MODELS = tuple(model_by_name(name) for name in axiomatic_model_names())

CATALOG = standard_catalog()
STRAIGHT_LINE = [test for test in CATALOG if is_straightline(test.program)]


def _full_relations(relations):
    """The full edge sets of both axioms, from the primitive views alone.

    Returns ``(sc-per-location parts, ghb parts without po)``; the ghb
    ``po`` is the model's ppo (:func:`_ppo`).
    """
    rf = relations.rf
    co_pairs = {
        (earlier, later)
        for order in relations.co.values()
        for k, earlier in enumerate(order)
        for later in order[k + 1:]
    }
    fr_pairs = set()
    for read, source in rf.items():
        order = relations.co.get(read.location, ())
        start = 0 if source is None else order.index(source) + 1
        fr_pairs.update((read, w) for w in order[start:] if w is not read)
    rf_pairs = {(w, r) for r, w in rf.items() if w is not None}
    po_loc = {(a, b) for a, b in relations.po if a.location == b.location}
    return (
        {"po": po_loc, "rf": rf_pairs, "co": co_pairs, "fr": fr_pairs},
        {
            "rf": {(w, r) for w, r in rf_pairs if w.proc != r.proc},
            "co": co_pairs,
            "fr": fr_pairs,
        },
    )


def _ppo(model, relations, memo):
    """The model's preserved po-pairs; ``memo`` holds them per program."""
    full = model.condition is not None and getattr(relations, model.condition)
    key = (model.name, full, relations.po)
    if key not in memo:
        memo[key] = set(relations.po) if full else {
            (a, b) for a, b in relations.po
            if model.ppo_rule(a, b, (a, b) in relations.fenced)
        }
    return memo[key]


def _reference(model, relations, full, memo):
    """The first violated axiom with its witness, by transitive sets."""
    ops = relations.ops
    rank = {op: i for i, op in enumerate(ops)}
    sc_per_location, ghb = full
    expected = {
        "sc-per-location": sc_per_location,
        "ghb": {"po": _ppo(model, relations, memo), **ghb},
    }
    for axiom, parts in model.axioms(relations):
        assert dict(parts) == expected[axiom]
        if find_cycle(chain.from_iterable(edges for _, edges in parts)) is None:
            continue
        edges = sorted({(rank[a], rank[b]) for _, part in parts for a, b in part})
        found = find_cycle(edges)
        start = found.index(min(found))
        cycle = [ops[i] for i in found[start:] + found[:start]]
        return Violation(
            axiom=axiom,
            cycle=tuple(
                (src, next(n for n, part in parts if (src, dst) in part), dst)
                for src, dst in zip(cycle, cycle[1:] + cycle[:1])
            ),
        )
    return None


def _assert_agrees(relations, models, verdicts, memo):
    full = _full_relations(relations)
    for model in models:
        expected = _reference(model, relations, full, memo)
        assert model.allows(relations) == (expected is None)
        assert model.violated_axiom(relations) == (
            None if expected is None else expected.axiom
        )
        violation = model.violation(relations)
        assert violation == expected
        if expected is not None:
            assert violation.describe() == expected.describe()
        verdicts.add(None if expected is None else expected.axiom)


def _drf_flags(program):
    return (
        check_program(program, DRF0, max_executions=5_000).obeys,
        check_program(program, DRF0_R, max_executions=5_000).obeys,
    )


@pytest.fixture(scope="module")
def runner():
    return LitmusRunner()


@pytest.mark.parametrize("test", STRAIGHT_LINE, ids=lambda t: t.name)
def test_every_raw_catalog_candidate(test, runner):
    program = runner.executable(test)
    drf0, drf0_r = _drf_flags(test.program)
    verdicts, memo = set(), {}
    for candidate in enumerate_candidates(program, drf0=drf0, drf0_r=drf0_r):
        _assert_agrees(candidate.relations, MODELS, verdicts, memo)
    assert None in verdicts


def test_the_catalog_exercises_both_axioms(runner):
    verdicts, memo = set(), {}
    for test in STRAIGHT_LINE[:12]:
        for candidate in enumerate_candidates(runner.executable(test)):
            _assert_agrees(
                candidate.relations, [model_by_name("SC")], verdicts, memo
            )
    assert verdicts == {None, "sc-per-location", "ghb"}


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_procs=st.integers(2, 3),
    ops_per_proc=st.integers(1, 3),
    drf0=st.booleans(),
)
def test_random_racy_candidates(seed, num_procs, ops_per_proc, drf0):
    program = random_racy_program(
        seed, num_procs=num_procs, ops_per_proc=ops_per_proc
    )
    verdicts, memo = set(), {}
    for candidate in enumerate_candidates(program, drf0=drf0, drf0_r=drf0):
        _assert_agrees(candidate.relations, MODELS, verdicts, memo)


@pytest.mark.parametrize(
    "policy, verdict", [(SCPolicy, None), (RelaxedPolicy, "ghb")],
    ids=["SC", "RELAXED"],
)
def test_hardware_traces(policy, verdict):
    """Every model judges the catalog's traces on ``net_cache``; some
    RELAXED traces break ``ghb`` under the stronger models."""
    verdicts, memo = set(), {}
    traces = 0
    for test in CATALOG:
        program = test.executable_program()
        drf0, drf0_r = _drf_flags(test.program)
        for seed in range(4):
            run = run_program(program, policy(), NET_CACHE, seed=seed)
            if not run.completed:
                continue
            relations = relations_from_execution(
                run.execution, program=program, drf0=drf0, drf0_r=drf0_r
            )
            traces += 1
            _assert_agrees(relations, MODELS, verdicts, memo)
    assert traces >= 4 * len(CATALOG) - 4
    assert {None, verdict} <= verdicts
