"""Tests for the out-of-order core model."""

from repro.memsys.hierarchy import build_hierarchy
from repro.params import CoreParams, SystemParams
from repro.sim.cpu import Cpu
from repro.sim.trace import LOAD, OTHER, Trace


def make_cpu(width=4, rob=256):
    hierarchy = build_hierarchy(SystemParams())
    return Cpu(hierarchy, CoreParams(width=width, rob_size=rob))


def core_state(cpu):
    """Everything a resumed run or step depends on, plus MPKI samples."""
    return (cpu.cycle, cpu.retired, list(cpu._rob),
            cpu._dispatched_this_cycle, cpu._inorder_completion,
            cpu._last_load_completion, cpu.hierarchy.instructions,
            [cache.mpki for cache in cpu.hierarchy.caches])


class TestWidthLimit:
    def test_alu_only_ipc_equals_width(self):
        cpu = make_cpu(width=4)
        records = [(OTHER, 0x400, 0, 0)] * 4_000
        result = cpu.run(records)
        assert 3.5 <= result.ipc <= 4.0

    def test_narrow_core_is_slower(self):
        wide = make_cpu(width=4).run([(OTHER, 0x400, 0, 0)] * 2_000)
        narrow = make_cpu(width=1).run([(OTHER, 0x400, 0, 0)] * 2_000)
        assert narrow.ipc < wide.ipc
        assert narrow.ipc <= 1.0


class TestMemoryBehaviour:
    def test_independent_misses_overlap(self):
        # 64 independent missing loads should cost far less than
        # 64 serialised DRAM latencies.
        cpu = make_cpu()
        records = [(LOAD, 0x400, 0x100_0000 + i * 4096, 0) for i in range(64)]
        result = cpu.run(records)
        assert result.cycles < 64 * 150

    def test_dependent_misses_serialise(self):
        independent = make_cpu().run(
            [(LOAD, 0x400, 0x100_0000 + i * 4096, 0) for i in range(64)]
        )
        dependent = make_cpu().run(
            [(LOAD, 0x400, 0x100_0000 + i * 4096, 1) for i in range(64)]
        )
        assert dependent.cycles > 3 * independent.cycles

    def test_l1_hits_are_fast(self):
        cpu = make_cpu()
        warm = [(LOAD, 0x400, 0x1000, 0)] * 2_000
        result = cpu.run(warm)
        assert result.ipc > 1.0

    def test_rob_limits_runahead(self):
        # With a tiny ROB, a single miss stalls dispatch quickly.
        small = make_cpu(rob=8).run(
            [(LOAD, 0x400, 0x100_0000 + i * 4096, 0) for i in range(64)]
        )
        big = make_cpu(rob=256).run(
            [(LOAD, 0x400, 0x100_0000 + i * 4096, 0) for i in range(64)]
        )
        assert small.cycles > big.cycles


class TestBookkeeping:
    def test_run_respects_budget(self):
        cpu = make_cpu()
        result = cpu.run(iter([(OTHER, 0x400, 0, 0)] * 100), max_instructions=10)
        assert result.instructions == 10

    def test_mark_tracks_progress(self):
        cpu = make_cpu()
        cpu.run([(OTHER, 0x400, 0, 0)] * 100)
        instructions, cycles = cpu.mark()
        assert instructions == 100
        assert cycles >= 25

    def test_finish_drains_rob(self):
        cpu = make_cpu()
        cpu.step((LOAD, 0x400, 0x100_0000, 0))
        cpu.finish()
        assert cpu.cycle >= 150  # DRAM latency was paid

    def test_resumable_across_run_calls(self):
        cpu = make_cpu()
        first = cpu.run([(OTHER, 0x400, 0, 0)] * 100)
        second = cpu.run([(OTHER, 0x400, 0, 0)] * 100)
        assert cpu.retired == 200
        assert second.instructions == 100

    def test_instruction_counter_reaches_hierarchy(self):
        cpu = make_cpu()
        cpu.run([(OTHER, 0x400, 0, 0)] * 50)
        assert cpu.hierarchy.instructions == 50

    def test_runs_plain_trace_objects(self):
        cpu = make_cpu()
        trace = Trace([(OTHER, 0x400, 0, 0)] * 10)
        result = cpu.run(trace)
        assert result.instructions == 10


class TestRunStepEquivalence:
    """`run` inlines `step` with hoisted locals; the two must stay in
    lockstep — any divergence breaks multicore (step) vs single-core
    (run) comparability and the runner's determinism guarantees."""

    def test_run_matches_stepping_on_mixed_trace(self):
        from repro.workloads import spec_trace

        trace = spec_trace("wrf_like", 0.05)
        fast = make_cpu()
        fast.run(trace)

        slow = make_cpu()
        for record in trace:
            slow.step(record)
        slow.finish()

        assert (fast.retired, fast.cycle) == (slow.retired, slow.cycle)
        assert fast._inorder_completion == slow._inorder_completion
        assert fast._last_load_completion == slow._last_load_completion
        assert fast.hierarchy.dram.reads == slow.hierarchy.dram.reads
        assert fast.hierarchy.l1d.stats.demand_misses == \
            slow.hierarchy.l1d.stats.demand_misses

    def test_run_matches_stepping_under_tiny_rob_and_width(self):
        from repro.workloads import spec_trace

        trace = spec_trace("omnetpp_like", 0.05)
        fast = make_cpu(width=1, rob=8)
        fast.run(trace)

        slow = make_cpu(width=1, rob=8)
        for record in trace:
            slow.step(record)
        slow.finish()

        assert (fast.retired, fast.cycle) == (slow.retired, slow.cycle)

    def test_undrained_quanta_match_stepping_after_every_quantum(self):
        # The multicore scheduler runs each core in 64-record quanta
        # through run(drain=False); between quanta the core must be in
        # exactly the state per-record step() calls leave it in.
        from itertools import islice

        from repro.core import IpcpL1, IpcpL2
        from repro.workloads import spec_trace

        def ipcp_cpu():
            return Cpu(build_hierarchy(SystemParams(), l1_prefetcher=IpcpL1(),
                                       l2_prefetcher=IpcpL2()))

        trace = spec_trace("omnetpp_like", 0.05)
        fast, slow = ipcp_cpu(), ipcp_cpu()
        fast_records, slow_records = iter(trace), iter(trace)
        quanta = len(trace) // 64
        assert quanta > 16
        for _ in range(quanta):
            fast.run(fast_records, 64, drain=False)
            for record in islice(slow_records, 64):
                slow.step(record)
            assert core_state(fast) == core_state(slow)
        assert fast._rob  # quanta really left instructions in flight
        assert fast.hierarchy.l1d.mpki > 0  # the sampler really ran
