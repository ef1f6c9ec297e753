"""Unit tests for the trace-invariant checker."""

from repro.analysis.invariants import (
    check_no_thin_air,
    check_per_location_read_order,
    check_per_location_write_order,
    check_rmw_atomicity,
    check_trace,
)
from repro.core.execution import Execution
from repro.core.operation import MemoryOp, OpKind


def op(kind, loc, proc, pos=0, occ=0, read=None, written=None):
    return MemoryOp(
        proc=proc, kind=kind, location=loc, thread_pos=pos, occurrence=occ,
        value_read=read, value_written=written,
    )


class TestNoThinAir:
    def test_clean(self):
        trace = Execution(
            ops=[op(OpKind.WRITE, "x", 0, written=1),
                 op(OpKind.READ, "x", 1, read=1)]
        )
        assert check_no_thin_air(trace) == []

    def test_initial_value_legal(self):
        trace = Execution(ops=[op(OpKind.READ, "x", 0, read=5)])
        assert check_no_thin_air(trace, {"x": 5}) == []
        assert check_no_thin_air(trace) != []

    def test_invented_value_flagged(self):
        trace = Execution(
            ops=[op(OpKind.WRITE, "x", 0, written=1),
                 op(OpKind.READ, "x", 1, read=9)]
        )
        violations = check_no_thin_air(trace)
        assert len(violations) == 1 and "thin-air" in violations[0]


class TestWriteOrder:
    def test_program_ordered_writes_clean(self):
        trace = Execution(
            ops=[op(OpKind.WRITE, "x", 0, pos=0, written=1),
                 op(OpKind.WRITE, "x", 0, pos=1, written=2)]
        )
        assert check_per_location_write_order(trace) == []

    def test_reordered_writes_flagged(self):
        trace = Execution(
            ops=[op(OpKind.WRITE, "x", 0, pos=1, written=2),
                 op(OpKind.WRITE, "x", 0, pos=0, written=1)]
        )
        violations = check_per_location_write_order(trace)
        assert len(violations) == 1 and "CoWW" in violations[0]

    def test_cross_processor_interleaving_fine(self):
        trace = Execution(
            ops=[op(OpKind.WRITE, "x", 0, pos=0, written=1),
                 op(OpKind.WRITE, "x", 1, pos=0, written=2),
                 op(OpKind.WRITE, "x", 0, pos=1, written=3)]
        )
        assert check_per_location_write_order(trace) == []


class TestReadOrder:
    def test_forward_reads_clean(self):
        trace = Execution(
            ops=[op(OpKind.WRITE, "x", 0, written=1),
                 op(OpKind.READ, "x", 1, pos=0, read=1),
                 op(OpKind.WRITE, "x", 0, pos=1, written=2),
                 op(OpKind.READ, "x", 1, pos=1, read=2)]
        )
        assert check_per_location_read_order(trace) == []

    def test_backward_read_flagged(self):
        trace = Execution(
            ops=[op(OpKind.WRITE, "x", 0, pos=0, written=1),
                 op(OpKind.WRITE, "x", 0, pos=1, written=2),
                 op(OpKind.READ, "x", 1, pos=0, read=2),
                 op(OpKind.READ, "x", 1, pos=1, read=1)]
        )
        violations = check_per_location_read_order(trace)
        assert len(violations) == 1 and "CoRR" in violations[0]

    def test_stale_then_fresh_is_fine(self):
        trace = Execution(
            ops=[op(OpKind.WRITE, "x", 0, pos=0, written=1),
                 op(OpKind.READ, "x", 1, pos=0, read=0),
                 op(OpKind.READ, "x", 1, pos=1, read=1)]
        )
        assert check_per_location_read_order(trace) == []

    def test_read_older_than_own_rmw_write_flagged(self):
        # After its RMW, P1 has observed its own write of 3 and may not
        # read the older 2 again.
        trace = Execution(
            ops=[op(OpKind.WRITE, "l", 0, pos=0, written=2),
                 op(OpKind.SYNC_RMW, "l", 1, pos=0, read=2, written=3),
                 op(OpKind.READ, "l", 1, pos=1, read=2)]
        )
        violations = check_per_location_read_order(trace)
        assert len(violations) == 1 and "P1 read 2" in violations[0]


class TestRMWAtomicity:
    def test_chained_rmws_clean(self):
        trace = Execution(
            ops=[op(OpKind.SYNC_RMW, "c", 0, read=0, written=1),
                 op(OpKind.SYNC_RMW, "c", 1, read=1, written=2)]
        )
        assert check_rmw_atomicity(trace) == []

    def test_lost_update_flagged(self):
        trace = Execution(
            ops=[op(OpKind.SYNC_RMW, "c", 0, read=0, written=1),
                 op(OpKind.SYNC_RMW, "c", 1, read=0, written=1)]
        )
        violations = check_rmw_atomicity(trace)
        assert len(violations) == 1 and "atomicity" in violations[0]

    def test_intervening_plain_write_respected(self):
        trace = Execution(
            ops=[op(OpKind.WRITE, "c", 0, written=5),
                 op(OpKind.SYNC_RMW, "c", 1, read=5, written=6)]
        )
        assert check_rmw_atomicity(trace) == []


class TestCheckTrace:
    def test_aggregates_all(self):
        trace = Execution(
            ops=[op(OpKind.WRITE, "x", 0, written=1),
                 op(OpKind.READ, "x", 1, read=9)]
        )
        assert len(check_trace(trace)) == 1

    def test_clean_trace(self):
        trace = Execution(
            ops=[op(OpKind.WRITE, "x", 0, written=1),
                 op(OpKind.READ, "x", 1, read=1)]
        )
        assert check_trace(trace) == []
