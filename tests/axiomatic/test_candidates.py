"""Candidate enumeration: exactness against exhaustive interleaving."""

import pytest

from repro.axiomatic import (
    CandidateBudgetExceeded,
    NotStraightLine,
    enumerate_candidates,
    is_straightline,
    model_by_name,
)
from repro.axiomatic.crosscheck import allowed_outcomes
from repro.core.program import Program, ThreadBuilder
from repro.litmus.catalog import (
    critical_section,
    fig1_dekker,
    iriw,
    write_to_read_causality,
)
from repro.litmus.runner import LitmusRunner


def _single_thread_program():
    t = ThreadBuilder("P0")
    t.store("x", 1)
    t.load("r1", "x")
    t.store("y", 2)
    t.load("r2", "y")
    return Program([t.build()], name="single_thread")


class TestStraightLine:
    def test_catalog_straightline(self):
        assert is_straightline(fig1_dekker().program)

    def test_spin_loop_is_not(self):
        assert not is_straightline(critical_section().program)

    def test_enumerate_rejects_control_flow(self):
        with pytest.raises(NotStraightLine):
            list(enumerate_candidates(critical_section().program))


class TestEnumeration:
    def test_single_thread_every_model_is_sequential(self):
        """One thread: every model collapses to sequential semantics."""
        program = _single_thread_program()
        runner = LitmusRunner()
        sc_set = frozenset(runner.verifier.sc_result_set(program))
        for name in ("SC", "TSO", "PSO", "WO", "RELAXED"):
            assert allowed_outcomes(program, model_by_name(name)) == sc_set

    def test_budget_is_enforced(self):
        program = LitmusRunner().executable(fig1_dekker())
        with pytest.raises(CandidateBudgetExceeded):
            list(enumerate_candidates(program, max_candidates=2))

    def test_budget_bounds_the_raw_space_before_enumerating(self):
        """4096 raw candidates, 324 coherent: the budget counts the 4096."""
        program = LitmusRunner().executable(iriw(warm=True))
        relaxed = model_by_name("RELAXED")
        with pytest.raises(CandidateBudgetExceeded):
            next(enumerate_candidates(program, max_candidates=4095))
        with pytest.raises(CandidateBudgetExceeded):
            allowed_outcomes(program, relaxed, max_candidates=4095)
        assert len(allowed_outcomes(program, relaxed, max_candidates=4096)) == 324

    @pytest.mark.parametrize(
        "make_test", [fig1_dekker, write_to_read_causality],
        ids=["dekker", "wrc"],
    )
    def test_sc_axioms_are_exact(self, make_test):
        """The acceptance bar: axiomatic SC == exhaustive interleaving.

        Equality (not just mutual containment of a sample): the SC
        axioms must neither forbid a reachable outcome nor invent an
        unreachable one.  ``wrc`` adds register-valued stores, so value
        resolution is on the hook too.
        """
        runner = LitmusRunner()
        program = runner.executable(make_test())
        sc_set = frozenset(runner.verifier.sc_result_set(program))
        assert allowed_outcomes(program, model_by_name("SC")) == sc_set

    def test_weak_models_nest(self):
        """SC <= TSO <= PSO and SC <= WO <= RELAXED on the SB shape."""
        program = LitmusRunner().executable(fig1_dekker())
        sets = {
            name: allowed_outcomes(program, model_by_name(name))
            for name in ("SC", "TSO", "PSO", "WO", "RELAXED")
        }
        assert sets["SC"] < sets["TSO"] <= sets["PSO"] <= sets["RELAXED"]
        assert sets["SC"] < sets["WO"] <= sets["RELAXED"]
