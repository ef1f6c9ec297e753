"""Unit tests for the processor model, against a scripted memory port."""

from typing import List

import pytest

import repro.cpu
from repro.core.operation import OpKind
from repro.core.program import ThreadBuilder
from repro.cpu.access import MemoryAccess
from repro.cpu.processor import SimpleCore
from repro.models.base import OrderingPolicy
from repro.models.policies import RelaxedPolicy, SCPolicy
from repro.sim.engine import Simulator
from repro.sim.stats import StallReason, Stats


class ScriptedPort:
    """A memory port that resolves accesses after a fixed delay."""

    def __init__(self, sim: Simulator, latency: int = 5, memory=None):
        self.sim = sim
        self.latency = latency
        self.memory = dict(memory or {})
        self.submitted: List[MemoryAccess] = []

    def submit(self, access: MemoryAccess) -> None:
        self.submitted.append(access)

        def resolve():
            old = self.memory.get(access.location, 0)
            if access.kind.reads_memory:
                access.deliver_value(old, self.sim.now)
            if access.kind.writes_memory:
                new = access.compute_write(old)
                self.memory[access.location] = new
                access.value_written = new
            access.mark_committed(self.sim.now)
            access.mark_globally_performed(self.sim.now)

        self.sim.schedule(self.latency, resolve)


def run_thread(builder: ThreadBuilder, policy: OrderingPolicy = None, latency=5,
               memory=None):
    sim = Simulator()
    stats = Stats()
    port = ScriptedPort(sim, latency=latency, memory=memory)
    processor = SimpleCore(
        sim, 0, builder.build(), policy or RelaxedPolicy(), port, stats
    )
    processor.start()
    sim.run()
    return processor, port, sim, stats


class TestBasicExecution:
    def test_runs_to_halt(self):
        processor, port, sim, _ = run_thread(
            ThreadBuilder("P0").store("x", 1).load("r", "x")
        )
        assert processor.halted
        assert processor.regs.read("r") == 1
        assert port.memory["x"] == 1

    def test_local_instructions_cost_cycles(self):
        processor, _, sim, _ = run_thread(ThreadBuilder("P0").nop(5))
        assert processor.halt_time >= 5

    def test_branch_loop(self):
        builder = (
            ThreadBuilder("P0")
            .mov("i", 0)
            .label("loop")
            .add("i", "i", 1)
            .blt("i", 4, "loop")
        )
        processor, _, _, _ = run_thread(builder)
        assert processor.regs.read("i") == 4

    def test_jump(self):
        builder = ThreadBuilder("P0").jump("end").store("x", 1).label("end")
        processor, port, _, _ = run_thread(builder)
        assert "x" not in port.memory

    def test_halt_instruction_stops_early(self):
        builder = ThreadBuilder("P0").halt().store("x", 1)
        processor, port, _, _ = run_thread(builder)
        assert processor.halted
        assert "x" not in port.memory

    def test_trace_records_committed_ops(self):
        processor, _, _, _ = run_thread(
            ThreadBuilder("P0").store("x", 2).load("r", "x")
        )
        assert len(processor.trace) == 2
        write, read = processor.trace
        assert write.kind is OpKind.WRITE and write.value_written == 2
        assert read.kind is OpKind.READ and read.value_read == 2
        assert write.commit_time <= read.commit_time

    def test_trace_occurrences_in_spin(self):
        builder = (
            ThreadBuilder("P0")
            .mov("i", 0)
            .label("loop")
            .load("r", "x")
            .add("i", "i", 1)
            .blt("i", 3, "loop")
        )
        processor, _, _, _ = run_thread(builder)
        occs = [op.occurrence for op in processor.trace]
        assert occs == [0, 1, 2]


class TestDependencies:
    def test_read_blocks_until_value(self):
        """An instruction consuming a loaded register sees the value."""
        builder = (
            ThreadBuilder("P0").load("a", "x").add("b", "a", 1).store("y", "b")
        )
        processor, port, _, _ = run_thread(builder, memory={"x": 10})
        assert port.memory["y"] == 11

    def test_write_value_computed_at_issue(self):
        builder = (
            ThreadBuilder("P0").mov("v", 5).store("x", "v").mov("v", 9)
        )
        processor, port, _, _ = run_thread(builder)
        assert port.memory["x"] == 5

    def test_rmw_result_lands_in_register(self):
        builder = ThreadBuilder("P0").test_and_set("old", "lock")
        processor, port, _, _ = run_thread(builder, memory={"lock": 0})
        assert processor.regs.read("old") == 0
        assert port.memory["lock"] == 1

    def test_same_location_accesses_serialized(self):
        builder = ThreadBuilder("P0").store("x", 1).store("x", 2)
        processor, port, _, _ = run_thread(builder)
        assert port.memory["x"] == 2


class TestPolicyInteraction:
    def test_relaxed_overlaps_writes(self):
        """Two independent writes issue without waiting for each other."""
        builder = ThreadBuilder("P0").store("x", 1).store("y", 1)
        processor, port, sim, _ = run_thread(builder, latency=50)
        # Both were submitted well before either resolved (< 50 cycles).
        assert len(port.submitted) == 2
        assert processor.halt_time < 50

    def test_sc_serializes_accesses(self):
        builder = ThreadBuilder("P0").store("x", 1).store("y", 1)
        processor, port, sim, stats = run_thread(
            builder, policy=SCPolicy(), latency=50
        )
        # The second store may not issue until the first is globally
        # performed, so the whole run spans two full latencies.
        assert sim.now >= 100
        # ~one latency of gate stall, minus issue-cycle bookkeeping.
        assert stats.stall_cycles(reason=StallReason.SC_PREVIOUS_GP) >= 45

    def test_stall_accounting_for_read_value(self):
        builder = ThreadBuilder("P0").load("r", "x")
        _, _, _, stats = run_thread(builder, latency=30)
        assert stats.stall_cycles(reason=StallReason.READ_VALUE) >= 29


class TestDeprecatedAlias:
    def test_processor_alias_is_gone(self):
        with pytest.raises(AttributeError):
            repro.cpu.Processor
        with pytest.raises(AttributeError):
            repro.cpu.processor.Processor
