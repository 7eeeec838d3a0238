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

from repro.core.cspt import Cspt
from repro.core.ip_table import (
    SIGNATURE_MASK,
    STRIDE_MAX,
    STRIDE_MIN,
    IpEntry,
    IpTable,
)
from repro.core.metadata import MetaClass
from repro.core.rr_filter import RrFilter
from repro.core.rst import (
    DIRECTION_MAX,
    DIRECTION_MID,
    GS_TRAIN_THRESHOLD,
    Rst,
    RstEntry,
)
from repro.core.storage import ipcp_storage_report
from repro.core.temporal import TemporalTable
from repro.core.throttle import (
    EPOCH_FILLS,
    HIGH_WATERMARK,
    LOW_WATERMARK,
    ClassThrottle,
)
from repro.errors import ConfigurationError
from repro.params import LINES_PER_PAGE
from repro.prefetchers.base import (
    AccessContext,
    AccessType,
    Prefetcher,
    PrefetchRequest,
)


class PfClass(IntEnum):
    """IPCP prefetch classes (used to tag requests for attribution)."""

    NONE = 0
    CS = 1
    CPLX = 2
    GS = 3
    NL = 4
    TS = 5  # optional temporal class (the paper's future-work extension)


# The metadata's 2-bit class field, shifted into place, indexed by
# PfClass value.  CPLX is never replayed at the L2, and temporal
# prefetches carry NL's field.
_META_CLASS_BITS = tuple(int(meta) << 7 for meta in (
    MetaClass.NONE, MetaClass.CS, MetaClass.NONE, MetaClass.GS, MetaClass.NL,
))
_PREFETCH = AccessType.PREFETCH
_CS, _CPLX, _GS, _NL, _TS = (
    int(c) for c in (PfClass.CS, PfClass.CPLX, PfClass.GS, PfClass.NL,
                     PfClass.TS)
)
_NL_DELTAS = (1,)
# ``_new_request(PrefetchRequest, fields)`` builds the named tuple
# without its Python-level ``__new__`` (one frame less per request).
_new_request = tuple.__new__


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
        # The IP table and the CSPT are direct-mapped and index with
        # ``entries - 1`` as a mask, so any other size strands entries.
        for field_name in ("ip_table_entries", "cspt_entries"):
            entries = getattr(self, field_name)
            if entries < 1 or entries & (entries - 1):
                raise ConfigurationError(
                    f"{field_name} must be a power of two, got {entries}")


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
        self._priority = tuple(int(c) for c in cfg.priority)
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
    # The per-access pipeline
    # ------------------------------------------------------------------ #

    def on_access(self, ctx: AccessContext) -> list[PrefetchRequest]:
        """Classify the IP, train all classes, emit bouquet prefetches.

        Runs the whole L1 pipeline on one demand access in one frame,
        and is the one production statement of the IP-table, RST and
        RR-filter rules: ``ip_table``, ``rst`` and ``rr_filter`` only
        hold the state it updates, and the CSPT and the temporal table
        are the only sub-structures it calls.  In order:

        1. the demand line's partial tag enters the RR-filter FIFO;
        2. the IP table resolves the IP under hysteresis: the owner
           re-validates its slot, a challenger only clears a set valid
           bit, and takes a slot whose bit is already clear;
        3. the RST records the access: a new region evicts the LRU one
           and starts tentative when the IP's previous region trained,
           24 touched lines train it dense, and a saturating counter
           sets its direction;
        4. for a tracked IP, the line stride from its last access (a
           +-1 page move adds or subtracts 64 lines, a longer jump gives
           0; saturated to +-63) trains the CS confidence;
        5. the CSPT trains under the IP's old signature (a call to
           :meth:`repro.core.cspt.Cspt.train`), then the signature rolls
           as :func:`repro.core.cspt.update_signature` does;
        6. the temporal table trains, when enabled;
        7. the entry takes its GS state and the last-access fields;
        8. the priority walk issues each eligible class's prefetches at
           its throttled degree, page-bounded, dropped when their tag
           is already in the RR FIFO (else recorded there) and tagged
           with the class's metadata for the L2.

        :class:`repro.verify.oracles.OracleIpcpL1` states the same
        rules independently; the lockstep differ
        (:mod:`repro.verify.lockstep`) diffs the two per access.
        """
        ip, addr, _, kind, _, _, mpki = ctx
        if kind == _PREFETCH:
            return []
        cfg = self.config
        line = addr >> 6
        rr_filter = self.rr_filter
        fifo = rr_filter._fifo
        rr_mask = rr_filter._tag_mask
        fifo.append((line ^ (line >> 12)) & rr_mask)

        ip_table = self.ip_table
        slots = ip_table._table
        index = ip & ip_table._index_mask
        tag = (ip >> ip_table._tag_shift) & ip_table._tag_mask
        entry = slots[index]
        if entry.seen_once and entry.tag == tag:
            entry.valid = True
            last_line = entry.last_line
        elif entry.valid:
            entry.valid = False  # hysteresis: incumbent survives one challenge
            entry = None
            last_line = 0
        else:
            entry = slots[index] = IpEntry(tag=tag, valid=True, seen_once=True)
            last_line = 0

        region_entry = None
        if cfg.enable_gs:
            rst = self.rst
            regions = rst._table
            region = line >> 5  # 2 KB regions of 32 lines
            offset = line & 31
            region_entry = regions.pop(region, None)
            if region_entry is None:
                tentative = False
                if last_line and last_line >> 5 != region:
                    previous = regions.get(last_line >> 5)
                    tentative = previous is not None and previous.trained
                if len(regions) >= rst.entries:
                    del regions[next(iter(regions))]
                region_entry = RstEntry(region=region, tentative=tentative)
                region_entry.last_line_offset = offset
            regions[region] = region_entry  # most recently used
            bit = 1 << offset
            vector = region_entry.bit_vector
            if not vector & bit:
                vector |= bit
                region_entry.bit_vector = vector
                if vector.bit_count() >= GS_TRAIN_THRESHOLD:
                    region_entry.trained = True
                    region_entry.dense = True
            count = region_entry.pos_neg_count
            if offset > region_entry.last_line_offset:
                if count < DIRECTION_MAX:
                    count += 1
                    region_entry.pos_neg_count = count
            elif offset < region_entry.last_line_offset and count > 0:
                count -= 1
                region_entry.pos_neg_count = count
            region_entry.direction = 1 if count >= DIRECTION_MID else -1
            region_entry.last_line_offset = offset

        requests = []
        claimed = False
        if entry is not None:
            offset_in_page = line & 63
            vpage = (addr >> 12) & 0x3  # 2 LSBs of the virtual page
            if last_line:
                stride = offset_in_page - entry.last_line_offset
                if vpage != entry.last_vpage:
                    moved = (vpage - entry.last_vpage) & 0x3
                    if moved == 1:  # next page
                        stride += LINES_PER_PAGE
                    elif moved == 3:  # previous page
                        stride -= LINES_PER_PAGE
                    else:
                        stride = 0  # jumped pages: no meaningful stride
                if stride > STRIDE_MAX:
                    stride = STRIDE_MAX
                elif stride < STRIDE_MIN:
                    stride = STRIDE_MIN
                if stride:
                    # CS: 2-bit confidence on the constant stride.
                    if stride == entry.stride:
                        if entry.confidence < 3:
                            entry.confidence += 1
                    else:
                        confidence = entry.confidence
                        if confidence > 0:
                            confidence -= 1
                            entry.confidence = confidence
                        if confidence == 0:
                            entry.stride = stride
                    # CPLX: train the CSPT under the old signature, then
                    # roll it.
                    if cfg.enable_cplx:
                        signature = entry.signature
                        self.cspt.train(signature, stride)
                        entry.signature = (
                            (signature << 1) ^ (stride & SIGNATURE_MASK)
                        ) & SIGNATURE_MASK
                if self.temporal is not None:
                    self.temporal.train(last_line, line)
            if region_entry is not None and (
                    region_entry.trained or region_entry.tentative):
                entry.stream_valid = True
                entry.direction = region_entry.direction
            else:
                entry.stream_valid = False
            entry.last_vpage = vpage
            entry.last_line_offset = offset_in_page
            entry.last_line = line

            # The priority walk, for tracked IPs only: an IP that lost
            # the hysteresis duel issues nothing.  Tentative NL serves
            # tracked IPs that fit no class, and only while the L1 MPKI
            # is low enough to afford speculation.
            throttles = self.throttles
            throttling = cfg.throttling
            page = line >> 6
            drops = 0
            for pf_class in self._priority:
                # ``step`` is the CS stride or GS direction, and also the
                # stride the metadata carries (0 for CPLX and NL).
                if pf_class == _GS:
                    if not (cfg.enable_gs and entry.stream_valid):
                        continue
                    step = entry.direction
                elif pf_class == _CS:
                    if not (cfg.enable_cs and entry.confidence >= 2
                            and entry.stride != 0):
                        continue
                    step = entry.stride
                elif pf_class == _CPLX:
                    if not cfg.enable_cplx:
                        continue
                    step = 0
                elif cfg.enable_nl and mpki < cfg.nl_mpki_threshold:
                    step = 0
                else:
                    continue
                throttle = throttles[pf_class]
                degree = throttle.degree if throttling \
                    else throttle.default_degree
                if step:
                    deltas = range(step, step * (degree + 1), step)
                elif pf_class == _CPLX:
                    deltas = self.cspt.predict_chain(entry.signature, degree)
                    if not deltas:
                        continue  # CSPT confidence too low: fall through
                else:
                    deltas = _NL_DELTAS
                # Strides ride to the L2 only when the class accuracy is
                # > 75%, so the L2 never replays a low-accuracy pattern.
                if not cfg.send_metadata:
                    metadata = 0
                elif throttle.accuracy < HIGH_WATERMARK:
                    metadata = _META_CLASS_BITS[pf_class]
                else:
                    metadata = _META_CLASS_BITS[pf_class] \
                        | (step & SIGNATURE_MASK)
                for delta in deltas:
                    target = line + delta
                    if target >> 6 != page or target < 0:
                        continue  # spatial prefetcher: never cross the page
                    rr_tag = (target ^ (target >> 12)) & rr_mask
                    if rr_tag in fifo:
                        drops += 1
                        continue
                    fifo.append(rr_tag)
                    requests.append(_new_request(
                        PrefetchRequest,
                        (target << 6, True, metadata, pf_class)))
                claimed = True
                if throttling and throttle.accuracy < LOW_WATERMARK:
                    continue  # low accuracy: let lower-priority classes explore
                break
            if drops:
                stats = self.stats
                stats["rr_filter_drops"] = \
                    stats.get("rr_filter_drops", 0) + drops

        if self.temporal is not None and not claimed:
            # Future-work temporal class: cover irregular-but-recurring
            # orders that no spatial class claimed.
            metadata = _META_CLASS_BITS[_NL] if cfg.send_metadata else 0
            for successor in self.temporal.predict_chain(line):
                rr_tag = (successor ^ (successor >> 12)) & rr_mask
                if rr_tag in fifo:
                    continue
                fifo.append(rr_tag)
                requests.append(_new_request(
                    PrefetchRequest, (successor << 6, True, metadata, _TS)))
        return requests

    # ------------------------------------------------------------------ #
    # Feedback from the cache (drives the throttler)
    # ------------------------------------------------------------------ #

    def on_prefetch_fill(self, addr: int, pf_class: int) -> None:
        """Count a filled prefetch toward its class's throttle epoch.

        Counts as :meth:`repro.core.throttle.ClassThrottle.on_fill`
        does, inline.
        """
        throttle = self.throttles.get(pf_class)
        if throttle is not None:
            fills = throttle.epoch_fills + 1
            throttle.epoch_fills = fills
            if fills >= EPOCH_FILLS:
                throttle._close_epoch()

    def on_prefetch_hit(self, addr: int, pf_class: int) -> None:
        """Credit a useful prefetch to its class's accuracy counter.

        Counts as :meth:`repro.core.throttle.ClassThrottle.on_hit` does,
        inline.
        """
        throttle = self.throttles.get(pf_class)
        if throttle is not None:
            throttle.epoch_hits += 1
