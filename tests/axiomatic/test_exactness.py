"""The pruned kernel against the generate-and-filter oracle.

``allowed_outcomes`` judges only coherent candidates; the oracle judges
every raw candidate ``enumerate_candidates`` yields.  Both must give the
same set on every straight-line catalog test under every model, and on
random racy programs.  Value-cycle programs pin the resolver's verdicts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axiomatic import (
    axiomatic_model_names,
    coherent_candidates,
    enumerate_candidates,
    is_straightline,
    model_by_name,
)
from repro.axiomatic.crosscheck import allowed_outcomes
from repro.core.execution import Observable
from repro.core.instructions import BinOp
from repro.core.program import Program, ThreadBuilder
from repro.drf.drf0 import check_program
from repro.drf.models import DRF0, DRF0_R
from repro.litmus.catalog import standard_catalog
from repro.litmus.runner import LitmusRunner
from repro.workloads.random_programs import random_racy_program

MODELS = tuple(model_by_name(name) for name in axiomatic_model_names())

STRAIGHT_LINE = [
    test for test in standard_catalog() if is_straightline(test.program)
]


def _oracle(candidates, model):
    return frozenset(
        c.observable for c in candidates if model.allows(c.relations)
    )


@pytest.fixture(scope="module")
def runner():
    return LitmusRunner()


def test_catalog_size():
    assert len(STRAIGHT_LINE) == 19
    assert len(MODELS) == 7


@pytest.mark.parametrize("test", STRAIGHT_LINE, ids=lambda t: t.name)
def test_catalog_matches_oracle(test, runner):
    program = runner.executable(test)
    drf0 = check_program(test.program, DRF0, max_executions=5_000).obeys
    drf0_r = check_program(test.program, DRF0_R, max_executions=5_000).obeys
    raw = list(enumerate_candidates(program, drf0=drf0, drf0_r=drf0_r))
    for model in MODELS:
        assert allowed_outcomes(
            program, model, drf0=drf0, drf0_r=drf0_r
        ) == _oracle(raw, model), f"{test.name} under {model.name}"


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_procs=st.integers(2, 3),
    ops_per_proc=st.integers(1, 3),
    drf0=st.booleans(),
)
def test_random_racy_programs_match_oracle(seed, num_procs, ops_per_proc, drf0):
    program = random_racy_program(
        seed, num_procs=num_procs, ops_per_proc=ops_per_proc
    )
    raw = list(enumerate_candidates(program, drf0=drf0, drf0_r=drf0))
    coherent = list(coherent_candidates(program, drf0=drf0, drf0_r=drf0))
    sc_per_location = [
        c for c in raw
        if model_by_name("RELAXED").violated_axiom(c.relations)
        != "sc-per-location"
    ]
    assert len(coherent) == len(sc_per_location)
    for model in MODELS:
        assert allowed_outcomes(
            program, model, drf0=drf0, drf0_r=drf0
        ) == _oracle(raw, model)


# -- value cycles --------------------------------------------------------


def _load_buffering(*p0_arith):
    """``r1=x; <p0_arith on r1>; y=r1 || r2=y; x=r2``."""
    t0 = ThreadBuilder("P0").load("r1", "x")
    for op, operand in p0_arith:
        t0.arith(op, "r1", "r1", operand)
    t0.store("y", "r1")
    t1 = ThreadBuilder("P1").load("r2", "y").store("x", "r2")
    return Program([t0.build(), t1.build()], name="lb_data")


def _outcome(r1=0, r2=0, x=0, y=0):
    return Observable.create([{"r1": r1}, {"r2": r2}], {"x": x, "y": y})


def _relaxed(program):
    return allowed_outcomes(program, model_by_name("RELAXED"))


def test_cycle_settling_on_initial_values_is_kept():
    assert _relaxed(_load_buffering()) == {_outcome()}


def test_cycle_that_never_stabilises_is_dropped():
    program = _load_buffering((BinOp.ADD, 1))
    assert _relaxed(program) == {
        _outcome(r1=1, r2=1, x=1, y=1),
        _outcome(r1=1, y=1),
    }


def test_cycle_settling_after_rounds_keeps_its_values():
    # r1 = (2*r1 + 1) & 7 around the cycle: 0, 1, 3, 7, 7.
    program = _load_buffering(
        (BinOp.MUL, 2), (BinOp.ADD, 1), (BinOp.AND, 7)
    )
    assert _relaxed(program) == {
        _outcome(r1=1, r2=1, x=1, y=1),
        _outcome(r1=1, y=1),
        _outcome(r1=7, r2=7, x=7, y=7),
    }


def test_cycle_outlasting_the_round_bound_is_dropped():
    # Settling on 255 takes 8 rounds; 4 ops allow len(ops) + 2 = 6.
    program = _load_buffering(
        (BinOp.MUL, 2), (BinOp.ADD, 1), (BinOp.AND, 255)
    )
    assert _outcome(r1=255, r2=255, x=255, y=255) not in _relaxed(program)
