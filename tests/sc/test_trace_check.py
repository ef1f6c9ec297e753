"""Tests for the direct (constraint-graph) SC trace checker."""

import pytest

from repro.core.execution import Execution
from repro.core.operation import MemoryOp, OpKind
from repro.litmus.catalog import catalog_by_name, fig1_dekker, message_passing
from repro.memsys.config import (
    BUS_CACHE,
    BUS_CACHE_SNOOP,
    NET_CACHE,
    NET_CACHE_VC,
)
from repro.memsys.system import run_program
from repro.models.policies import Def2Policy, RelaxedPolicy, SCPolicy
from repro.sc.trace_check import check_trace_sc
from repro.sc.verifier import SCVerifier
from repro.workloads.random_programs import random_racy_program


def op(kind, loc, proc, pos=0, read=None, written=None, commit=None):
    o = MemoryOp(
        proc=proc, kind=kind, location=loc, thread_pos=pos,
        value_read=read, value_written=written,
    )
    o.commit_time = commit
    return o


class TestManualTraces:
    def test_empty_trace_is_sc(self):
        assert check_trace_sc(Execution()).is_sc

    def test_simple_handoff_is_sc(self):
        trace = Execution(
            ops=[
                op(OpKind.WRITE, "x", 0, written=1, commit=1),
                op(OpKind.READ, "x", 1, read=1, commit=2),
            ]
        )
        assert check_trace_sc(trace).is_sc

    def test_dekker_violation_has_cycle(self):
        """Both reads returning 0 with both writes present: the classic
        po+fr cycle."""
        trace = Execution(
            ops=[
                op(OpKind.WRITE, "x", 0, pos=0, written=1, commit=1),
                op(OpKind.WRITE, "y", 1, pos=0, written=1, commit=2),
                op(OpKind.READ, "y", 0, pos=1, read=0, commit=3),
                op(OpKind.READ, "x", 1, pos=1, read=0, commit=4),
            ]
        )
        result = check_trace_sc(trace)
        assert not result.is_sc
        assert result.cycle

    def test_mp_stale_read_has_cycle(self):
        trace = Execution(
            ops=[
                op(OpKind.WRITE, "x", 0, pos=0, written=42, commit=1),
                op(OpKind.WRITE, "f", 0, pos=1, written=1, commit=2),
                op(OpKind.READ, "f", 1, pos=0, read=1, commit=3),
                op(OpKind.READ, "x", 1, pos=1, read=0, commit=4),
            ]
        )
        assert not check_trace_sc(trace).is_sc

    def test_thin_air_read_reported(self):
        trace = Execution(
            ops=[op(OpKind.READ, "x", 0, read=9, commit=1)]
        )
        result = check_trace_sc(trace)
        assert not result.is_sc
        assert result.unexplained_reads

    def test_initial_value_read_before_write_is_sc(self):
        trace = Execution(
            ops=[
                op(OpKind.READ, "x", 1, read=0, commit=1),
                op(OpKind.WRITE, "x", 0, written=1, commit=2),
            ]
        )
        assert check_trace_sc(trace).is_sc

    def test_rmw_chain_is_sc(self):
        trace = Execution(
            ops=[
                op(OpKind.SYNC_RMW, "l", 0, read=0, written=1, commit=1),
                op(OpKind.SYNC_RMW, "l", 1, read=1, written=2, commit=2),
            ]
        )
        assert check_trace_sc(trace).is_sc

    def test_describe(self):
        good = check_trace_sc(Execution())
        assert "sequentially consistent" in good.describe()


class TestAgainstHardwareRuns:
    def test_sc_policy_traces_always_pass(self):
        for seed in range(10):
            program = random_racy_program(seed, num_procs=2, ops_per_proc=4)
            run = run_program(program, SCPolicy(), NET_CACHE, seed=seed)
            assert run.completed
            result = check_trace_sc(run.execution, dict(program.initial_memory))
            assert result.is_sc, result.describe()

    def test_sc_policy_catalog_traces_pass_on_coherent_machines(self):
        """Commit order is the write serialization on the cache-coherent
        machines, so every SC-policy trace there must be explainable."""
        for test in catalog_by_name().values():
            program = test.executable_program()
            for config in (BUS_CACHE, NET_CACHE, NET_CACHE_VC, BUS_CACHE_SNOOP):
                for seed in range(4):
                    run = run_program(program, SCPolicy(), config, seed=seed)
                    assert run.completed, (test.name, config.name, seed)
                    result = check_trace_sc(
                        run.execution, dict(program.initial_memory)
                    )
                    assert result.is_sc, (
                        test.name, config.name, seed, result.describe(),
                    )

    def test_relaxed_violations_fail(self):
        """Where the result-set oracle says non-SC, the trace checker
        must find a cycle (distinct written values -> exact)."""
        verifier = SCVerifier()
        test = fig1_dekker(warm=True)
        program = test.executable_program()
        sc_set = verifier.sc_result_set(program)
        checked = 0
        for seed in range(60):
            run = run_program(program, RelaxedPolicy(), NET_CACHE, seed=seed)
            if not run.completed:
                continue
            expected = run.observable in sc_set
            result = check_trace_sc(run.execution, dict(program.initial_memory))
            assert result.is_sc == expected, (seed, result.describe())
            checked += 1
        assert checked >= 50

    def test_agreement_with_oracle_on_mp(self):
        verifier = SCVerifier()
        test = message_passing(warm=True)
        program = test.executable_program()
        sc_set = verifier.sc_result_set(program)
        for seed in range(40):
            run = run_program(program, RelaxedPolicy(), NET_CACHE, seed=seed)
            if not run.completed:
                continue
            result = check_trace_sc(run.execution, dict(program.initial_memory))
            assert result.is_sc == (run.observable in sc_set), seed

    def test_def2_drf0_traces_pass(self):
        from repro.workloads.random_programs import random_drf0_program

        for seed in range(6):
            program = random_drf0_program(seed)
            run = run_program(program, Def2Policy(), NET_CACHE, seed=seed)
            assert run.completed
            result = check_trace_sc(run.execution, dict(program.initial_memory))
            assert result.is_sc, result.describe()
