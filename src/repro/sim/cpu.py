"""Simplified out-of-order core model.

The model captures the two effects that determine how much a prefetcher
helps: *memory-level parallelism* (independent loads overlap within the
ROB window) and *retire-width limits* (a 4-wide core retires at most 4
instructions per cycle).  Mechanics:

* up to ``width`` instructions dispatch per cycle;
* a non-memory instruction completes one cycle after dispatch;
* a load completes when the hierarchy says its data is ready;
* the ROB holds ``rob_size`` in-flight instructions; when it is full,
  time jumps to the in-order completion of the oldest entry (in-order
  retire is enforced by storing the running prefix-max of completion
  times, so entry *i* can never retire before entry *i-1*).

Stores complete immediately (store buffer) but still consume cache
bandwidth, MSHRs and DRAM traffic through the hierarchy.

This per-record loop is the *reference* core model: the batched
columnar engine (:mod:`repro.sim.batched`) re-implements the same
retire/dispatch/ROB semantics with closed-form run-length arithmetic
and must stay bit-identical to it — change timing behaviour here and
the batched engine's gap kernels must change in lockstep.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.memsys.hierarchy import Hierarchy
from repro.params import CoreParams
from repro.sim.branch import GsharePredictor
from repro.sim.trace import BRANCH, LOAD, STORE, TraceRecord


@dataclass
class CpuResult:
    """Outcome of one (partial) core run."""

    instructions: int
    cycles: int

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0


class Cpu:
    """A resumable core: call :meth:`run` repeatedly on record chunks."""

    def __init__(
        self,
        hierarchy: Hierarchy,
        params: CoreParams | None = None,
        branch_predictor: GsharePredictor | None = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.params = params or CoreParams()
        self.branch_predictor = (
            branch_predictor if branch_predictor is not None
            else GsharePredictor()
        )
        self.cycle = 0
        self.retired = 0
        self._rob: deque[int] = deque()
        self._dispatched_this_cycle = 0
        self._inorder_completion = 0
        self._last_load_completion = 0

    def step(self, record: TraceRecord) -> None:
        """Dispatch (and eventually retire) one instruction."""
        kind, ip, addr, dep = record
        params = self.params

        if self._dispatched_this_cycle >= params.width:
            self.cycle += 1
            self._dispatched_this_cycle = 0
            self._drain_rob()

        if len(self._rob) >= params.rob_size:
            # Oldest entry's in-order completion bounds progress.
            self.cycle = max(self.cycle, self._rob[0])
            self._dispatched_this_cycle = 0
            self._drain_rob()

        # A dependent instruction cannot execute before the most recent
        # load's data returns (pointer chasing serialises here).
        issue = self.cycle
        if dep and self._last_load_completion > issue:
            issue = self._last_load_completion

        if kind == LOAD:
            completion = self.hierarchy.load(addr, ip, issue)
            self._last_load_completion = completion
        elif kind == STORE:
            self.hierarchy.store(addr, ip, issue)
            completion = issue + 1
        elif kind == BRANCH:
            completion = issue + 1
            # BRANCH records carry the outcome in addr (1 = taken); a
            # misprediction flushes the front-end: dispatch resumes only
            # after the penalty (bounding runahead past the branch).
            if self.branch_predictor.update(ip, bool(addr & 1)):
                self.cycle = max(
                    self.cycle,
                    issue + self.branch_predictor.misprediction_penalty,
                )
                self._dispatched_this_cycle = 0
        else:
            completion = issue + 1

        self._inorder_completion = max(self._inorder_completion, completion)
        self._rob.append(self._inorder_completion)
        self._dispatched_this_cycle += 1
        self.retired += 1
        self.hierarchy.tick_instruction()

    def _drain_rob(self) -> None:
        rob = self._rob
        cycle = self.cycle
        while rob and rob[0] <= cycle:
            rob.popleft()

    def run(self, records, max_instructions: int | None = None,
            drain: bool = True) -> CpuResult:
        """Run records (any iterable) until exhausted or the budget is hit.

        The budget is checked *before* pulling from the iterator, so a
        partially-consumed iterator can be resumed by a later call
        without losing records (the multicore scheduler relies on
        this).  With ``drain`` (the default) the call ends with
        :meth:`finish`; the multicore scheduler passes False so its
        quanta leave the ROB in flight, exactly as a run of
        :meth:`step` calls would.

        The loop body is :meth:`step` inlined with every loop-invariant
        attribute hoisted into locals; the two MUST stay semantically in
        lockstep (``test_cpu.py`` pins run-vs-step equivalence).  In pure
        Python the per-record attribute traffic dominates, so this is
        the simulator's single hottest optimization site.  Instead of
        :meth:`step`'s per-record ``tick_instruction`` call, the loop
        writes the hierarchy's instruction counter just before each load
        or store (the only points a cache samples it) and once at the
        end, so every reader sees the value ticking would give.
        """
        start_retired = self.retired
        start_cycle = self.cycle
        budget = max_instructions if max_instructions is not None else float("inf")
        iterator = iter(records)
        executed = 0

        params = self.params
        width = params.width
        rob_size = params.rob_size
        rob = self._rob
        rob_append = rob.append
        rob_popleft = rob.popleft
        hierarchy = self.hierarchy
        hier_load = hierarchy.load
        hier_store = hierarchy.store
        counter = hierarchy.instruction_counter
        counted = counter.value
        predictor_update = self.branch_predictor.update
        penalty = self.branch_predictor.misprediction_penalty
        cycle = self.cycle
        dispatched = self._dispatched_this_cycle
        inorder = self._inorder_completion
        last_load = self._last_load_completion

        while executed < budget:
            record = next(iterator, None)
            if record is None:
                break
            kind, ip, addr, dep = record

            if dispatched >= width:
                cycle += 1
                dispatched = 0
                while rob and rob[0] <= cycle:
                    rob_popleft()

            if len(rob) >= rob_size:
                head = rob[0]
                if head > cycle:
                    cycle = head
                dispatched = 0
                while rob and rob[0] <= cycle:
                    rob_popleft()

            issue = cycle
            if dep and last_load > issue:
                issue = last_load

            if kind == LOAD:
                counter.value = counted + executed
                completion = hier_load(addr, ip, issue)
                last_load = completion
            elif kind == STORE:
                counter.value = counted + executed
                hier_store(addr, ip, issue)
                completion = issue + 1
            elif kind == BRANCH:
                completion = issue + 1
                if predictor_update(ip, bool(addr & 1)):
                    stall = issue + penalty
                    if stall > cycle:
                        cycle = stall
                    dispatched = 0
            else:
                completion = issue + 1

            if completion > inorder:
                inorder = completion
            rob_append(inorder)
            dispatched += 1
            executed += 1

        counter.value = counted + executed
        self.cycle = cycle
        self.retired = start_retired + executed
        self._dispatched_this_cycle = dispatched
        self._inorder_completion = inorder
        self._last_load_completion = last_load

        if drain:
            self.finish()
        return CpuResult(
            instructions=self.retired - start_retired,
            cycles=self.cycle - start_cycle,
        )

    def finish(self) -> None:
        """Advance time until every in-flight instruction has retired."""
        if self._rob:
            self.cycle = max(self.cycle, self._rob[-1])
            self._rob.clear()

    def mark(self) -> tuple[int, int]:
        """Snapshot (instructions, cycles) — used to split warm-up from ROI."""
        return self.retired, self.cycle
