"""IPCP at the L1-D: the bouquet of class prefetchers (Sections IV-V).

Every demand access trains all classifiers concurrently (they share one
IP-table entry), then the bouquet walks its priority order
GS > CS > CPLX > NL and issues prefetches for the first class the IP
belongs to.  When the winning class is running below the low accuracy
watermark, the walk continues so lower-priority classes can contribute
(the paper's coordinated throttling).  All prefetches stay within the
4 KB page, pass through the 32-entry RR filter instead of probing the
L1, and carry the 9-bit class metadata for the L2 IPCP.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.core.cspt import Cspt, update_signature
from repro.core.ip_table import IpEntry, IpTable
from repro.core.metadata import MetaClass, encode_metadata
from repro.core.rr_filter import RrFilter
from repro.core.rst import Rst
from repro.core.storage import ipcp_storage_report
from repro.core.temporal import TemporalTable
from repro.core.throttle import ClassThrottle, HIGH_WATERMARK
from repro.errors import ConfigurationError
from repro.params import LINES_PER_PAGE, LINES_PER_REGION
from repro.prefetchers.base import (
    AccessContext,
    AccessType,
    Prefetcher,
    PrefetchRequest,
)

# Table I: IP table (36 b x 64) + CSPT (9 b x 128) + RST (53 b x 8)
# + 2 class bits x 768 L1 lines + RR filter (12 b x 32) = 5800 bits,
# plus 113 bits of counters/registers.
L1_STORAGE_BITS = 5913


class PfClass(IntEnum):
    """IPCP prefetch classes (used to tag requests for attribution)."""

    NONE = 0
    CS = 1
    CPLX = 2
    GS = 3
    NL = 4
    TS = 5  # optional temporal class (the paper's future-work extension)


_META_OF_CLASS = {
    PfClass.CS: MetaClass.CS,
    PfClass.GS: MetaClass.GS,
    PfClass.NL: MetaClass.NL,
    PfClass.CPLX: MetaClass.NONE,  # CPLX is never replayed at the L2
}


@dataclass(frozen=True)
class IpcpConfig:
    """Tunable knobs; defaults are the paper's L1 configuration."""

    cs_degree: int = 3
    cplx_degree: int = 3
    gs_degree: int = 6
    nl_mpki_threshold: float = 50.0
    ip_table_entries: int = 64
    cspt_entries: int = 128
    rst_entries: int = 8
    rr_entries: int = 32
    enable_cs: bool = True
    enable_cplx: bool = True
    enable_gs: bool = True
    enable_nl: bool = True
    # Paper future work (Section VII): temporal class for irregular but
    # recurring access orders.  Off by default (keeps the 895 B design).
    enable_temporal: bool = False
    temporal_entries: int = 16384
    temporal_degree: int = 2
    send_metadata: bool = True
    priority: tuple[PfClass, ...] = (
        PfClass.GS, PfClass.CS, PfClass.CPLX, PfClass.NL
    )
    throttling: bool = True

    def __post_init__(self) -> None:
        if min(self.cs_degree, self.cplx_degree, self.gs_degree) < 1:
            raise ConfigurationError("prefetch degrees must be >= 1")
        if set(self.priority) - {PfClass.GS, PfClass.CS, PfClass.CPLX, PfClass.NL}:
            raise ConfigurationError("priority may only contain GS/CS/CPLX/NL")
        if len(set(self.priority)) != len(self.priority):
            raise ConfigurationError("priority order contains duplicates")


class IpcpL1(Prefetcher):
    """The L1-D bouquet: CS + CPLX + GS + tentative NL."""

    def __init__(self, config: IpcpConfig | None = None) -> None:
        cfg = config or IpcpConfig()
        # Declared storage follows the configured geometry (Table I
        # recomputation), so resized-table variants stay honest under
        # the verify-phase storage_budget invariant.
        report = ipcp_storage_report(
            ip_table_entries=cfg.ip_table_entries,
            cspt_entries=cfg.cspt_entries,
            rst_entries=cfg.rst_entries,
            rr_entries=cfg.rr_entries,
        )
        super().__init__(name="ipcp", storage_bits=report.l1_bits)
        self.config = cfg
        self.ip_table = IpTable(entries=cfg.ip_table_entries)
        self.cspt = Cspt(entries=cfg.cspt_entries)
        self.rst = Rst(entries=cfg.rst_entries)
        self.rr_filter = RrFilter(entries=cfg.rr_entries)
        self.throttles: dict[PfClass, ClassThrottle] = {
            PfClass.CS: ClassThrottle(cfg.cs_degree),
            PfClass.CPLX: ClassThrottle(cfg.cplx_degree),
            PfClass.GS: ClassThrottle(cfg.gs_degree),
            PfClass.NL: ClassThrottle(1),
        }
        self.temporal: TemporalTable | None = None
        if cfg.enable_temporal:
            self.temporal = TemporalTable(
                entries=cfg.temporal_entries, degree=cfg.temporal_degree
            )
            self.throttles[PfClass.TS] = ClassThrottle(cfg.temporal_degree)
            self.storage_bits += self.temporal.storage_bits

    def batch_state(self) -> dict | None:
        """Live state handles for the batched engine (base-class hook).

        Exposes the IP table, CSPT, RST, RR filter and per-class
        throttles as direct references so
        :mod:`repro.sim.batched` can step them in place, leaving the
        bouquet in exactly the state a scalar run would.  Returns None
        — forcing the scalar fallback — when the temporal extension is
        enabled, which the fused kernel does not replicate.
        """
        if self.temporal is not None:
            return None
        return {
            "config": self.config,
            "ip_table": self.ip_table,
            "cspt": self.cspt,
            "rst": self.rst,
            "rr_filter": self.rr_filter,
            "throttles": self.throttles,
        }

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #

    def on_access(self, ctx: AccessContext) -> list[PrefetchRequest]:
        """Classify the IP, train all classes, emit bouquet prefetches.

        Runs the full L1 pipeline on one demand access: IP-table
        hysteresis, CS/CPLX/GS training, class arbitration by the
        configured priority, per-class throttled degree, RR-filter
        dedup, and metadata tagging for the L2 replayer.
        """
        if ctx.kind == AccessType.PREFETCH:
            return []
        line = ctx.addr >> 6
        self.rr_filter.insert(line)

        entry = self.ip_table.access(ctx.ip)
        rst_entry = self._train_gs(entry, line)
        stride = self._train_strides(entry, ctx.addr)
        if self.temporal is not None and entry is not None and entry.last_line:
            self.temporal.train(entry.last_line, line)

        if entry is not None:
            if rst_entry is not None and (rst_entry.trained or rst_entry.tentative):
                entry.stream_valid = True
                entry.direction = rst_entry.direction
            else:
                entry.stream_valid = False
            self.ip_table.record_access(entry, ctx.addr)

        return self._classify_and_issue(entry, line, stride, ctx.mpki)

    def _train_gs(self, entry: IpEntry | None, line: int):
        if not self.config.enable_gs:
            return None
        region = line // LINES_PER_REGION
        offset = line % LINES_PER_REGION
        previous_region = None
        if entry is not None and entry.last_line:
            previous_region = entry.last_line // LINES_PER_REGION
        return self.rst.observe(region, offset, previous_region)

    def _train_strides(self, entry: IpEntry | None, vaddr: int) -> int:
        """Train CS confidence and the CPLX signature; return the stride."""
        if entry is None or not entry.last_line:
            return 0
        stride = self.ip_table.compute_stride(entry, vaddr)
        if stride == 0:
            return 0
        # CS: 2-bit confidence on the constant stride.
        if stride == entry.stride:
            entry.confidence = min(3, entry.confidence + 1)
        else:
            entry.confidence = max(0, entry.confidence - 1)
            if entry.confidence == 0:
                entry.stride = stride
        # CPLX: train the CSPT under the old signature, then roll it.
        if self.config.enable_cplx:
            self.cspt.train(entry.signature, stride)
            entry.signature = update_signature(entry.signature, stride)
        return stride

    # ------------------------------------------------------------------ #
    # Classification + issue
    # ------------------------------------------------------------------ #

    def _classify_and_issue(
        self,
        entry: IpEntry | None,
        line: int,
        stride: int,
        mpki: float,
    ) -> list[PrefetchRequest]:
        cfg = self.config
        eligible: dict[PfClass, bool] = {
            PfClass.GS: (
                cfg.enable_gs and entry is not None and entry.stream_valid
            ),
            PfClass.CS: (
                cfg.enable_cs
                and entry is not None
                and entry.confidence >= 2
                and entry.stride != 0
            ),
            PfClass.CPLX: cfg.enable_cplx and entry is not None,
            # Tentative NL: only for *tracked* IPs that fit no class (an
            # IP losing the hysteresis duel issues nothing), and only
            # while the L1 MPKI is low enough to afford speculation.
            PfClass.NL: (
                cfg.enable_nl
                and entry is not None
                and mpki < cfg.nl_mpki_threshold
            ),
        }

        requests: list[PrefetchRequest] = []
        claimed = False
        for pf_class in cfg.priority:
            if not eligible.get(pf_class, False):
                continue
            deltas, meta_stride = self._deltas_for_class(pf_class, entry)
            if pf_class is PfClass.CPLX and not deltas:
                continue  # CSPT confidence too low: fall through to NL
            requests.extend(self._emit(pf_class, line, deltas, meta_stride))
            claimed = True
            if cfg.throttling and self.throttles[pf_class].low_accuracy:
                continue  # low accuracy: let lower-priority classes explore
            break
        if self.temporal is not None and not claimed:
            # Future-work temporal class: cover irregular-but-recurring
            # orders that no spatial class claimed.
            chain = self.temporal.predict_chain(line)
            metadata = self._metadata_for(PfClass.NL, 0)
            for successor in chain:
                if self.rr_filter.check_and_insert(successor):
                    continue
                requests.append(PrefetchRequest(
                    addr=successor << 6,
                    metadata=metadata,
                    pf_class=int(PfClass.TS),
                ))
        return requests

    def _deltas_for_class(
        self, pf_class: PfClass, entry: IpEntry | None
    ) -> tuple[list[int], int]:
        """Line deltas this class wants to prefetch, plus its metadata stride."""
        degree = (
            self.throttles[pf_class].degree
            if self.config.throttling
            else self.throttles[pf_class].default_degree
        )
        if pf_class is PfClass.CS:
            return [entry.stride * k for k in range(1, degree + 1)], entry.stride
        if pf_class is PfClass.GS:
            return [entry.direction * k for k in range(1, degree + 1)], entry.direction
        if pf_class is PfClass.CPLX:
            return self.cspt.predict_chain(entry.signature, degree), 0
        return [1], 0  # NL

    def _emit(
        self, pf_class: PfClass, line: int, deltas: list[int], meta_stride: int
    ) -> list[PrefetchRequest]:
        page = line // LINES_PER_PAGE
        metadata = self._metadata_for(pf_class, meta_stride)
        requests = []
        for delta in deltas:
            target = line + delta
            if target // LINES_PER_PAGE != page or target < 0:
                continue  # spatial prefetcher: never cross the page
            if self.rr_filter.check_and_insert(target):
                self.bump("rr_filter_drops")
                continue
            requests.append(
                PrefetchRequest(
                    addr=target << 6,
                    metadata=metadata,
                    pf_class=int(pf_class),
                )
            )
        return requests

    def _metadata_for(self, pf_class: PfClass, stride: int) -> int:
        if not self.config.send_metadata:
            return 0
        meta_class = _META_OF_CLASS[pf_class]
        # Strides ride to the L2 only when the class accuracy is > 75%
        # so the L2 never replays a low-accuracy pattern.
        if self.throttles[pf_class].accuracy < HIGH_WATERMARK:
            stride = 0
        return encode_metadata(meta_class, stride)

    # ------------------------------------------------------------------ #
    # Feedback from the cache (drives the throttler)
    # ------------------------------------------------------------------ #

    def on_prefetch_fill(self, addr: int, pf_class: int) -> None:
        """Count a filled prefetch toward its class's throttle epoch."""
        throttle = self.throttles.get(PfClass(pf_class))
        if throttle is not None:
            throttle.on_fill()

    def on_prefetch_hit(self, addr: int, pf_class: int) -> None:
        """Credit a useful prefetch to its class's accuracy counter."""
        throttle = self.throttles.get(PfClass(pf_class))
        if throttle is not None:
            throttle.on_hit()
