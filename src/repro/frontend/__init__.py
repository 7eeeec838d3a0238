"""Instruction-side (frontend) prefetching: L1-I + ITLB model and bouquet.

The paper's bouquet targets the L1-D, but four of the five related
papers in PAPERS.md are instruction-prefetching work (MANA, Jamet et
al.'s cache+TLB frontend management, ...).  This package retargets the
classifier idea at the fetch stream:

* :mod:`repro.frontend.model` — a fetch-directed L1-I cache and an
  ITLB built on the existing :mod:`repro.memsys.tlb` hierarchy, with
  prefetch-triggered translation support.
* :mod:`repro.frontend.ipcp_i` — **IPCP-I**, the bouquet over fetch
  blocks: GS-I (dense code regions), CS-I (repeating fetch-block
  deltas, i.e. call/return discontinuities), CPLX-I (delta-signature
  chains for dispatch loops) and an MPKI-gated next-line class.
* :mod:`repro.frontend.baselines` — next-line-I and **MANA-lite**, a
  record-and-replay baseline in the spirit of Ansari et al.
* :mod:`repro.frontend.engine` — the scalar fetch-driven simulation
  loop producing :class:`~repro.frontend.engine.FrontendResult`.
* :mod:`repro.frontend.registry` — the named frontend prefetcher
  configurations (``ipcp_i``, ``ipcp_i_tlb_blind``, ``mana_lite``,
  ``next_line_i``, ``none``).

See ``docs/frontend.md`` for the design narrative and the deltas
versus the data-side IPCP.
"""

from repro.frontend.baselines import ManaLitePrefetcher, NextLineIPrefetcher
from repro.frontend.engine import FrontendResult, simulate_frontend
from repro.frontend.ipcp_i import (
    FE_CLASS_NAMES,
    FE_CPLX,
    FE_CS,
    FE_GS,
    FE_NL,
    FE_NONE,
    IpcpIConfig,
    IpcpIPrefetcher,
)
from repro.frontend.model import FrontendParams, InstructionCache, Itlb, L1iStats
from repro.frontend.registry import (
    available_frontend_prefetchers,
    make_frontend_prefetcher,
    register_frontend_prefetcher,
)

__all__ = [
    "FE_CLASS_NAMES",
    "FE_CPLX",
    "FE_CS",
    "FE_GS",
    "FE_NL",
    "FE_NONE",
    "FrontendParams",
    "FrontendResult",
    "InstructionCache",
    "IpcpIConfig",
    "IpcpIPrefetcher",
    "Itlb",
    "L1iStats",
    "ManaLitePrefetcher",
    "NextLineIPrefetcher",
    "available_frontend_prefetchers",
    "make_frontend_prefetcher",
    "register_frontend_prefetcher",
    "simulate_frontend",
]
