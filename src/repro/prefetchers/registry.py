"""The table of named prefetcher configurations.

Benchmarks and examples refer to prefetchers by the names the paper
uses.  Each name maps to a *configuration*: a dict with optional
``l1``, ``l2`` and ``llc`` factories, each producing a fresh
prefetcher instance (fresh instances matter for multicore runs, where
every core needs private state).  A new configuration is one more row
of :func:`_configurations`.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Callable

from repro.errors import ConfigurationError
from repro.prefetchers.base import Prefetcher

PrefetcherFactory = Callable[[], Prefetcher]
LevelConfig = dict[str, PrefetcherFactory]


@cache
def _configurations() -> dict[str, LevelConfig]:
    """Every named configuration, one row each, built on first use.

    The imports are deferred to here: ``repro.core.ipcp_l1`` imports
    ``repro.prefetchers.base``, so importing IPCP at package-init time
    would cycle.
    """
    from repro.core.ipcp_l1 import IpcpConfig, IpcpL1, PfClass
    from repro.core.ipcp_l2 import IpcpL2
    from repro.prefetchers.asp import AspPrefetcher
    from repro.prefetchers.bingo import BingoPrefetcher
    from repro.prefetchers.bop import BopPrefetcher
    from repro.prefetchers.composite import spp_ppf_dspatch
    from repro.prefetchers.dol import DolPrefetcher
    from repro.prefetchers.domino import DominoPrefetcher
    from repro.prefetchers.dspatch import DspatchPrefetcher
    from repro.prefetchers.ip_stride import IpStridePrefetcher
    from repro.prefetchers.isb import IsbPrefetcher
    from repro.prefetchers.mlop import MlopPrefetcher
    from repro.prefetchers.next_line import (
        NextLinePrefetcher,
        ThrottledNextLinePrefetcher,
    )
    from repro.prefetchers.sandbox import SandboxPrefetcher
    from repro.prefetchers.sms import SmsPrefetcher
    from repro.prefetchers.spp import SppPrefetcher
    from repro.prefetchers.stream import StreamPrefetcher
    from repro.prefetchers.triage import TriagePrefetcher
    from repro.prefetchers.tskid import TskidPrefetcher
    from repro.prefetchers.vldp import VldpPrefetcher

    def l1(**overrides) -> PrefetcherFactory:
        """An IPCP L1 built with ``IpcpConfig(**overrides)``."""
        return partial(IpcpL1, IpcpConfig(**overrides))

    def ipcp(**overrides) -> LevelConfig:
        """IPCP(L1 + L2) with ``IpcpConfig(**overrides)`` at the L1."""
        return {"l1": l1(**overrides), "l2": IpcpL2}

    nl = partial(NextLinePrefetcher, degree=1)
    bingo_48kb = partial(BingoPrefetcher, pht_entries=6144)

    return {
        # Fig. 7: single prefetchers at the L1 ("none" is the baseline).
        "none": {},
        "next_line": {"l1": nl},
        "ip_stride": {"l1": IpStridePrefetcher},
        "stream": {"l1": StreamPrefetcher},
        "bop": {"l1": BopPrefetcher},
        "sandbox": {"l1": SandboxPrefetcher},
        "mlop_l1": {"l1": MlopPrefetcher},
        "vldp": {"l1": VldpPrefetcher},
        "spp_l1": {"l1": SppPrefetcher},
        "dspatch_l1": {"l1": DspatchPrefetcher},
        "sms_l1": {"l1": SmsPrefetcher},
        "bingo_l1": {"l1": bingo_48kb},
        "bingo_l1_119kb": {"l1": partial(BingoPrefetcher, pht_entries=16384)},
        "tskid_l1": {"l1": TskidPrefetcher},
        "dol_l1": {"l1": DolPrefetcher},
        "ipcp_l1": {"l1": IpcpL1},
        # Aggregate Stride Prefetcher (Jain's thesis; MLOP's ancestor).
        "asp": {"l1": AspPrefetcher},
        # Temporal baselines at the L2: ISB, Domino, on-chip Triage.
        "isb": {"l2": IsbPrefetcher},
        "domino": {"l2": DominoPrefetcher},
        "triage": {"l2": TriagePrefetcher},
        # Table III multi-level combinations; IPCP(L1 + L2) is
        # 740 B + 155 B = 895 B.
        "ipcp": ipcp(),
        "spp_ppf_dspatch": {"l1": ThrottledNextLinePrefetcher,
                            "l2": spp_ppf_dspatch, "llc": nl},
        "mlop": {"l1": MlopPrefetcher, "l2": nl, "llc": nl},
        "bingo": {"l1": bingo_48kb, "l2": nl, "llc": nl},
        "tskid": {"l1": TskidPrefetcher, "l2": SppPrefetcher},
        "dol": {"l1": DolPrefetcher, "l2": DolPrefetcher},
        # Section VII: IPCP plus the future-work temporal class.
        "ipcp_temporal": ipcp(enable_temporal=True),
        # Fig. 1: the same prefetcher placed at the L2 (training on the
        # L1-filtered stream) instead of the L1.
        "ip_stride_l2": {"l2": IpStridePrefetcher},
        "mlop_l2": {"l2": MlopPrefetcher},
        "bingo_l2": {"l2": BingoPrefetcher},
        # Fig. 13a: the L1->L2 metadata channel off, and L1-only class
        # subsets (tentative NL rides along unless disabled).
        "ipcp_no_metadata": ipcp(send_metadata=False),
        "ipcp_cs_only": {"l1": l1(enable_cplx=False, enable_gs=False,
                                  enable_nl=False)},
        "ipcp_cplx_only": {"l1": l1(enable_cs=False, enable_gs=False,
                                    enable_nl=False)},
        "ipcp_gs_only": {"l1": l1(enable_cs=False, enable_cplx=False,
                                  enable_nl=False)},
        "ipcp_cs_cplx": {"l1": l1(enable_gs=False, enable_nl=False)},
        "ipcp_cs_cplx_nl": {"l1": l1(enable_gs=False)},
        # Fig. 13b: class priority orders (the default "ipcp" is GS-first).
        "ipcp_cs_first": ipcp(priority=(
            PfClass.CS, PfClass.GS, PfClass.CPLX, PfClass.NL)),
        "ipcp_cplx_first": ipcp(priority=(
            PfClass.CPLX, PfClass.CS, PfClass.GS, PfClass.NL)),
        "ipcp_nl_first": ipcp(priority=(
            PfClass.NL, PfClass.CPLX, PfClass.CS, PfClass.GS)),
        # Ablations: throttling, RR filter, NL gate, degrees, table sizes.
        "ipcp_no_throttle": ipcp(throttling=False),
        "ipcp_rr8": ipcp(rr_entries=8),
        "ipcp_rr128": ipcp(rr_entries=128),
        "ipcp_nl_off": ipcp(nl_mpki_threshold=0.0),
        "ipcp_nl_always": ipcp(nl_mpki_threshold=1000.0),
        "ipcp_cplx_deg1": ipcp(cplx_degree=1),
        "ipcp_cplx_deg2": ipcp(cplx_degree=2),
        "ipcp_cplx_deg4": ipcp(cplx_degree=4),
        "ipcp_cplx_deg6": ipcp(cplx_degree=6),
        "ipcp_gs_deg2": ipcp(gs_degree=2),
        "ipcp_gs_deg4": ipcp(gs_degree=4),
        "ipcp_gs_deg8": ipcp(gs_degree=8),
        "ipcp_tables_2x": ipcp(ip_table_entries=128, cspt_entries=256,
                               rst_entries=16),
        "ipcp_tables_8x": ipcp(ip_table_entries=512, cspt_entries=1024,
                               rst_entries=64),
        # Section VI-B1: generic L2 prefetchers under a full IPCP L1.
        "ipcp_l1_spp_l2": {"l1": IpcpL1, "l2": spp_ppf_dspatch},
        "ipcp_l1_bop_l2": {"l1": IpcpL1, "l2": BopPrefetcher},
        "ipcp_l1_vldp_l2": {"l1": IpcpL1, "l2": VldpPrefetcher},
        "ipcp_l1_mlop_l2": {"l1": IpcpL1, "l2": MlopPrefetcher},
        "ipcp_l1_ipstride_l2": {"l1": IpcpL1, "l2": IpStridePrefetcher},
        "ipcp_l1_bingo_l2": {"l1": IpcpL1, "l2": BingoPrefetcher},
        # Section V: a metadata decoder at the LLC on top of IPCP L1+L2.
        "ipcp_llc": {**ipcp(), "llc": IpcpL2},
    }


def make_prefetcher(name: str) -> LevelConfig:
    """A fresh copy of the level->factory row named ``name`` (any case);
    an unknown name raises :class:`ConfigurationError` listing the
    known ones."""
    table = _configurations()
    try:
        return dict(table[name.lower()])
    except KeyError:
        raise ConfigurationError(
            f"unknown prefetcher {name!r}; known: {sorted(table)}"
        ) from None


def build_levels(
    name: str,
) -> tuple[Prefetcher | None, Prefetcher | None, Prefetcher | None]:
    """Fresh ``(l1, l2, llc)`` prefetchers of the configuration ``name``,
    with None for a level its row omits."""
    levels = make_prefetcher(name)
    return tuple(levels[level]() if level in levels else None
                 for level in ("l1", "l2", "llc"))


def storage_kb(name: str) -> float:
    """Storage of the configuration ``name`` in KB: the state bits of
    every level's prefetcher (Tables I and III)."""
    bits = sum(pf.storage_bits for pf in build_levels(name) if pf is not None)
    return bits / 8 / 1024


def available_prefetchers() -> list[str]:
    """Sorted names of every configuration in the table."""
    return sorted(_configurations())
