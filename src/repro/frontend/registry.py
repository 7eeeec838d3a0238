"""Named frontend prefetcher configurations.

A dedicated registry, deliberately separate from
:mod:`repro.prefetchers.registry`: the data-side registry feeds the
golden grid, the cross-engine equivalence suite and the data-side
invariant sweep, all of which iterate *every* registered name over
*data* traces — instruction prefetchers trained on the fetch stream
would only add noise there.  The frontend names instead feed
:func:`repro.frontend.engine.simulate_frontend`, the frontend claim
cell and :func:`repro.verify.invariants.run_frontend_invariant_sweep`.

Each factory builds a fresh prefetcher; ``None`` from a factory means
"no prefetching" (the baseline).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ConfigurationError
from repro.frontend.baselines import ManaLitePrefetcher, NextLineIPrefetcher
from repro.frontend.ipcp_i import IpcpIConfig, IpcpIPrefetcher
from repro.prefetchers.base import Prefetcher

_REGISTRY: dict[str, Callable[[], Prefetcher | None]] = {
    # No instruction prefetching (the comparison baseline).
    "none": lambda: None,
    # Degree-2 sequential next-block fetcher.
    "next_line_i": lambda: NextLineIPrefetcher(degree=2),
    # Record-and-replay over L1-I miss streams (MANA-lite).
    "mana_lite": ManaLitePrefetcher,
    # The full IPCP-I bouquet, TLB-aware page policy.
    "ipcp_i": lambda: IpcpIPrefetcher(IpcpIConfig(page_policy="aware")),
    # IPCP-I with the data-side spatial contract: never cross a page.
    "ipcp_i_tlb_blind": lambda: IpcpIPrefetcher(
        IpcpIConfig(page_policy="blind"), name="ipcp_i_tlb_blind"),
}


def available_frontend_prefetchers() -> list[str]:
    """Sorted names of every registered frontend configuration."""
    return sorted(_REGISTRY)


def make_frontend_prefetcher(name: str) -> Prefetcher | None:
    """Instantiate a registered configuration (fresh state every call)."""
    factory = _REGISTRY.get(name.lower())
    if factory is None:
        known = ", ".join(available_frontend_prefetchers())
        raise ConfigurationError(
            f"unknown frontend prefetcher {name!r} (known: {known})"
        )
    return factory()
