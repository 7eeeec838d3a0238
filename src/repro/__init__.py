"""repro: a reproduction of "Bouquet of Instruction Pointers" (ISCA 2020).

Public API tour:

* :mod:`repro.core` — IPCP itself (:class:`~repro.core.IpcpL1`,
  :class:`~repro.core.IpcpL2`).
* :mod:`repro.prefetchers` — the baselines the paper compares against,
  plus the table of named configurations (``make_prefetcher("bingo")``).
* :mod:`repro.sim` — trace format, core model,
  :func:`~repro.sim.simulate` and :func:`~repro.sim.simulate_mix`.
* :mod:`repro.memsys` — caches, DRAM, virtual memory.
* :mod:`repro.workloads` — synthetic SPEC-2017-like trace generators.
* :mod:`repro.stats` — metrics (coverage, accuracy, MPKI, speedups).
* :mod:`repro.runner` — parallel job runner and persistent
  content-addressed result cache behind every experiment grid.
"""

from repro.core import IpcpConfig, IpcpL1, IpcpL2
from repro.sim import Trace, simulate, simulate_mix

__version__ = "1.0.0"

__all__ = [
    "IpcpConfig",
    "IpcpL1",
    "IpcpL2",
    "Trace",
    "simulate",
    "simulate_mix",
    "__version__",
]
