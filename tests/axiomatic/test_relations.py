"""Relation derivation: po/rf/co/fr over candidates and executions."""

import pytest

from repro.axiomatic import (
    UnexplainedReads,
    acyclic,
    enumerate_candidates,
    find_cycle,
    model_by_name,
    reads_from_by_value,
    relations_from_execution,
)
from repro.core.execution import Execution
from repro.core.operation import MemoryOp, OpKind
from repro.litmus.catalog import fig1_dekker, message_passing
from repro.litmus.runner import LitmusRunner
from repro.memsys.config import NET_CACHE
from repro.memsys.system import run_program
from repro.models.policies import RelaxedPolicy
from repro.sc.interleaving import enumerate_executions


class TestAcyclic:
    def test_empty_and_chain(self):
        assert acyclic([])
        assert acyclic([(1, 2), (2, 3), (1, 3)])

    def test_self_loop_and_cycle(self):
        assert not acyclic([(1, 1)])
        assert not acyclic([(1, 2), (2, 3), (3, 1)])

    def test_disconnected_cycle_is_found(self):
        assert not acyclic([(1, 2), (10, 11), (11, 10)])

    def test_find_cycle_returns_the_witness(self):
        assert find_cycle([(1, 2), (2, 3), (1, 3)]) is None
        assert find_cycle([(1, 1)]) == [1]
        assert find_cycle([(0, 1), (1, 2), (2, 3), (3, 1)]) == [1, 2, 3]


@pytest.fixture(scope="module")
def dekker_candidates():
    program = LitmusRunner().executable(fig1_dekker())
    return list(enumerate_candidates(program))


class TestCandidateRelations:
    def test_reads_and_writes_partition_ops(self, dekker_candidates):
        for candidate in dekker_candidates:
            rel = candidate.relations
            assert set(rel.reads()) | set(rel.writes()) <= set(rel.ops)
            assert not set(rel.reads()) & set(rel.writes())

    def test_po_is_intra_thread_and_acyclic(self, dekker_candidates):
        rel = dekker_candidates[0].relations
        assert rel.po
        for a, b in rel.po:
            assert a.proc == b.proc
            assert a.issue_index < b.issue_index
        assert acyclic(rel.po)

    def test_rf_sources_write_the_read_location(self, dekker_candidates):
        for candidate in dekker_candidates:
            # rf edges point write -> read.
            for write, read in candidate.relations.rf_edges():
                assert write.writes_memory
                assert read.reads_memory
                assert write.location == read.location

    def test_co_is_a_per_location_total_order(self, dekker_candidates):
        rel = dekker_candidates[0].relations
        writes = [op for op in rel.writes()]
        by_loc = {}
        for w in writes:
            by_loc.setdefault(w.location, []).append(w)
        co = rel.co_edges()
        for loc, ws in by_loc.items():
            # n writes to a location -> n*(n-1)/2 ordered pairs.
            pairs = [(a, b) for a, b in co if a.location == loc]
            assert len(pairs) == len(ws) * (len(ws) - 1) // 2
        assert acyclic(co)

    def test_fr_follows_rf_through_co(self, dekker_candidates):
        for candidate in dekker_candidates:
            rel = candidate.relations
            rf = {read: write for write, read in rel.rf_edges()}
            for read, write in rel.fr_edges():
                assert write.writes_memory
                assert write.location == read.location
                source = rf.get(read)
                assert source is not write
                if source is not None:
                    assert (source, write) in set(rel.co_edges())


class TestRelationsFromExecution:
    """Relations derived from idealized and hardware executions."""

    def test_sc_executions_pass_sc_axioms(self):
        test = message_passing()
        program = LitmusRunner().executable(test)
        sc = model_by_name("SC")
        checked = 0
        for execution in enumerate_executions(program):
            rel = relations_from_execution(execution, program=program)
            assert sc.violated_axiom(rel) is None, (
                f"SC execution flagged by {sc.name} axioms"
            )
            checked += 1
            if checked >= 200:
                break
        assert checked > 0

    @pytest.mark.parametrize(
        "test", [fig1_dekker(warm=True), message_passing()], ids=lambda t: t.name
    )
    def test_hardware_reads_map_to_the_write_they_returned(self, test):
        """On hardware a read may commit after a write it never saw, so
        rf must come from values, not from trace order."""
        program = test.executable_program()
        for seed in range(40):
            run = run_program(program, RelaxedPolicy(), NET_CACHE, seed=seed)
            if not run.completed:
                continue
            rf = relations_from_execution(run.execution).rf
            for read, source in rf.items():
                if source is None:
                    assert read.value_read == 0, (seed, read)
                else:
                    assert source.value_written == read.value_read, (
                        seed, read, source,
                    )


def _op(kind, loc, proc, read=None, written=None, commit=None):
    op = MemoryOp(
        proc=proc, kind=kind, location=loc, value_read=read,
        value_written=written,
    )
    op.commit_time = commit
    return op


class TestReadsFromByValue:
    def test_latest_write_committed_by_the_read(self):
        w1 = _op(OpKind.WRITE, "x", 0, written=1, commit=1)
        w1_again = _op(OpKind.WRITE, "x", 1, written=1, commit=2)
        read = _op(OpKind.READ, "x", 2, read=1, commit=3)
        w1_late = _op(OpKind.WRITE, "x", 0, written=1, commit=4)
        rf, unexplained = reads_from_by_value([w1, w1_again, read, w1_late])
        assert rf == {read: w1_again} and unexplained == []

    def test_without_commit_times_trace_order_decides(self):
        read = _op(OpKind.READ, "x", 1, read=1)
        write = _op(OpKind.WRITE, "x", 0, written=1)
        rf, unexplained = reads_from_by_value([read, write])
        assert rf == {} and unexplained == [read]

    def test_initial_value_read(self):
        read = _op(OpKind.READ, "x", 0, read=7, commit=1)
        assert reads_from_by_value([read], {"x": 7}) == ({read: None}, [])

    def test_rmw_never_reads_from_itself(self):
        write = _op(OpKind.WRITE, "l", 0, written=1, commit=1)
        rmw = _op(OpKind.SYNC_RMW, "l", 1, read=1, written=1, commit=2)
        rf, _ = reads_from_by_value([write, rmw])
        assert rf == {rmw: write}

    def test_relations_refuse_an_unexplained_read(self):
        read = _op(OpKind.READ, "x", 0, read=9, commit=1)
        with pytest.raises(UnexplainedReads) as info:
            relations_from_execution(Execution(ops=[read]))
        assert info.value.reads == [read]
