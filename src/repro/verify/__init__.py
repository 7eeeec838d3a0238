"""Differential verification tooling for the IPCP reproduction.

Three independent safety nets, each catching a different failure mode
of future refactors and performance work:

* :mod:`repro.verify.oracles` + :mod:`repro.verify.lockstep` — small,
  deliberately naive executable models of the paper's mechanisms
  (CS/CPLX/GS classifiers, RR filter, per-class throttles), stepped in
  lockstep with the production :class:`repro.core.ipcp_l1.IpcpL1` and
  diffed per access.  Catches semantic drift in the hot-path code even
  when it barely moves aggregate statistics.
* :mod:`repro.verify.invariants` — a wrapper asserting runtime
  invariants (page containment, RR capacity, metadata width, Table I
  storage budgets, throttle ranges) on every prefetch any
  :class:`~repro.prefetchers.base.Prefetcher` issues; the frontend
  registry gets its own sweep with ITLB capacity audits
  (:func:`~repro.verify.invariants.run_frontend_invariant_sweep`).
* :mod:`repro.verify.frontend_oracle` — the instruction-side twin of
  the oracles: a naive IPCP-I model
  (:class:`~repro.verify.frontend_oracle.OracleIpcpI`) stepped in
  lockstep with :class:`repro.frontend.ipcp_i.IpcpIPrefetcher` in
  ``tests/test_frontend.py``.
* :mod:`repro.verify.golden` — the result pins: key metrics and a
  whole-result digest for every registered prefetcher over a fixed
  workload grid, plus non-LRU runs, a mix and every generator's trace
  signature, in one committed JSON baseline that fails on drift.
* :mod:`repro.verify.cross_engine` — scalar-vs-batched engine
  equivalence: both engines must produce bit-identical
  :class:`~repro.sim.engine.SimResult` values over the golden grid
  plus warm-up/budget edge cases (see docs/engine.md).

``python -m repro verify`` runs all of them; see docs/verification.md.
"""

from repro.verify.cross_engine import (
    CrossEngineReport,
    EngineCell,
    run_cross_engine,
)
from repro.verify.golden import (
    GOLDEN_WORKLOADS,
    collect_golden_stats,
    compare_to_baseline,
    golden_prefetchers,
    load_baseline,
    save_baseline,
)
from repro.verify.frontend_oracle import OracleIpcpI
from repro.verify.invariants import (
    InvariantError,
    InvariantChecker,
    InvariantViolation,
    check_frontend_invariants,
    run_frontend_invariant_sweep,
)
from repro.verify.lockstep import Divergence, LockstepDiffer, LockstepReport
from repro.verify.oracles import OracleDecision, OracleIpcpL1

__all__ = [
    "CrossEngineReport",
    "Divergence",
    "EngineCell",
    "GOLDEN_WORKLOADS",
    "InvariantChecker",
    "InvariantError",
    "InvariantViolation",
    "LockstepDiffer",
    "LockstepReport",
    "OracleDecision",
    "OracleIpcpI",
    "OracleIpcpL1",
    "check_frontend_invariants",
    "collect_golden_stats",
    "compare_to_baseline",
    "golden_prefetchers",
    "load_baseline",
    "run_cross_engine",
    "run_frontend_invariant_sweep",
    "save_baseline",
]
