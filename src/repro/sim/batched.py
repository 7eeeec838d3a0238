"""Batched columnar simulation engine (the ``engine="batched"`` path).

:func:`simulate_batched` replays the exact semantics of the scalar
stack — :meth:`repro.sim.cpu.Cpu.run`, :class:`repro.memsys.cache.Cache`
with LRU replacement, :class:`repro.core.ipcp_l1.IpcpL1` and
:class:`repro.core.ipcp_l2.IpcpL2` — as one fused loop over the
columnar trace decode (:meth:`repro.sim.trace.Trace.columns`), instead
of dispatching a dozen Python method calls per record.  The design has
three layers:

1. **Columnar precompute.**  The trace is decoded once into NumPy
   arrays; non-OTHER records ("events") are gathered into side arrays,
   and one linear pass through the real :class:`VirtualMemory`,
   :class:`TlbHierarchy` and :class:`GsharePredictor` precomputes each
   event's physical address, TLB delay and branch-mispredict flag.
   Those models are timing-independent (they depend only on the access
   *order*), so the pass is exact and memoized on the trace.
2. **Run-length core model.**  OTHER records between events are retired
   in bursts: when no in-flight load can stall dispatch, whole gaps
   collapse into closed-form cycle arithmetic (the common case on
   real traces, where >80% of records are non-memory instructions).
3. **Fused event path.**  Loads/stores/branches run through flattened
   cache state (:class:`_Level`) and an inlined IPCP pipeline that
   mutates the *live* prefetcher tables exposed by
   :meth:`repro.prefetchers.base.Prefetcher.batch_state`, so the
   end-of-run prefetcher state matches a scalar run bit for bit.

Configurations the fused loop does not model (custom hierarchies,
non-LRU replacement, non-IPCP prefetchers, the temporal extension, a
trace whose fields do not fit the columnar decode) transparently fall
back to the scalar engine — :func:`support_reason` alone makes that
decision and names the reason.  Nothing but
:func:`repro.sim.engine.simulate` (``engine="batched"``) and direct
calls of :func:`simulate_batched` runs this engine.
The scalar engine stays the differential oracle: results must be
bit-identical (``SimResult.__eq__``) for every supported configuration,
which ``repro verify`` checks via :mod:`repro.verify.cross_engine`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.rst import RstEntry
from repro.core.throttle import EPOCH_FILLS
from repro.errors import ConfigurationError, TraceError
from repro.memsys.cache import Cache, CacheStats
from repro.memsys.dram import Dram
from repro.memsys.tlb import TlbHierarchy
from repro.memsys.vmem import VirtualMemory
from repro.params import SystemParams
from repro.prefetchers.base import NullPrefetcher, Prefetcher
from repro.sim.branch import GsharePredictor
from repro.sim.engine import SimResult, simulate, warmup_length
from repro.sim.trace import BRANCH, LOAD, STORE, Trace

#: Default number of records gathered per columnar window.
DEFAULT_CHUNK_RECORDS = 8192

_MPKI_WINDOW = Cache.MPKI_WINDOW

#: ``PfClass`` value -> 2-bit ``MetaClass`` wire field (L1 metadata).
_META_OF_CLASS = {1: 1, 3: 2, 4: 3, 2: 0}  # CS, GS, NL, CPLX


def _inert(prefetcher) -> bool:
    """True when a prefetcher slot can never issue a prefetch."""
    return (prefetcher is None or type(prefetcher) is Prefetcher
            or type(prefetcher) is NullPrefetcher)


def support_reason(
    trace: Trace,
    l1_prefetcher: Prefetcher | None,
    l2_prefetcher: Prefetcher | None,
    llc_prefetcher: Prefetcher | None,
    params: SystemParams,
    hierarchy,
    _unused=None,  # ignored; benchmarks/perf/harness.py passes seven args
) -> str | None:
    """Why this configuration needs the scalar engine (None = fused OK).

    The fused loop replicates the default single-core stack: built-in
    hierarchy, LRU replacement everywhere, IPCP (or nothing) at
    L1/L2, no LLC prefetcher, and a trace that decodes into columns.
    Everything else returns a human-readable reason and the caller
    falls back to :func:`repro.sim.engine.simulate` for the whole run
    — engines are never mixed within one simulation.  The columnar
    decode is memoized on the trace, so checking it here costs the
    fused run nothing extra.
    """
    # Deferred import: ipcp modules import prefetchers.base, which this
    # module also imports; binding lazily keeps the import graph simple.
    from repro.core.ipcp_l1 import IpcpL1
    from repro.core.ipcp_l2 import IpcpL2

    if hierarchy is not None:
        return "caller-supplied hierarchy"
    for name in ("l1d", "l2", "llc"):
        if getattr(params, name).replacement != "lru":
            return f"{name} replacement policy is not lru"
    if not _inert(llc_prefetcher):
        return "llc prefetcher not supported"
    if not _inert(l1_prefetcher):
        if type(l1_prefetcher) is not IpcpL1:
            return f"l1 prefetcher {l1_prefetcher.name!r} has no batch kernel"
        if l1_prefetcher.batch_state() is None:
            return "l1 ipcp declined batch stepping (temporal)"
    if not _inert(l2_prefetcher):
        if type(l2_prefetcher) is not IpcpL2:
            return f"l2 prefetcher {l2_prefetcher.name!r} has no batch kernel"
    try:
        trace.columns()
    except TraceError as error:
        return f"columnar decode failed: {error}"
    return None


def _access_columns(trace: Trace, model_tlb: bool):
    """Per-event physical line / TLB delay / mispredict columns.

    Runs the real :class:`VirtualMemory`, :class:`TlbHierarchy` and
    :class:`GsharePredictor` over the event stream once.  All three are
    functions of the access *order* only — never of cycle time — so the
    result is exact for any warm-up split or instruction budget, and is
    memoized on the trace (keyed by ``model_tlb``) alongside the
    columnar decode.  Returns ``(line, delay, mispredict, penalty)``
    with ``line`` the translated physical *line* address (the fused
    loop never needs the byte address).
    """
    memo = trace.__dict__.setdefault("_batched_aux", {})
    key = bool(model_tlb)
    cached = memo.get(key)
    if cached is not None:
        return cached
    ev = trace.columns().event_columns()
    kinds = ev["kind"].tolist()
    ips = ev["ip"].tolist()
    addrs = ev["addr"].tolist()
    translate = VirtualMemory(seed=1, asid=0).translate
    tlb_access = TlbHierarchy().access if model_tlb else None
    predictor = GsharePredictor()
    update = predictor.update
    lines: list[int] = []
    delay: list[int] = []
    mis: list[bool] = []
    pa, da, ma = lines.append, delay.append, mis.append
    for kind, ip, addr in zip(kinds, ips, addrs):
        if kind == BRANCH:
            pa(0)
            da(0)
            ma(update(ip, bool(addr & 1)))
        else:
            da(tlb_access(addr >> 12) if tlb_access is not None else 0)
            pa(translate(addr) >> 6)
            ma(False)
    cached = (lines, delay, mis, predictor.misprediction_penalty)
    memo[key] = cached
    return cached


class _Level:
    """Flattened mutable state for one cache level of the fused loop.

    Mirrors :class:`repro.memsys.cache.Cache` plus its LRU policy (line
    map, way arrays, LRU stamps, MSHR dict, prefetch queue, counters)
    as plain slots the module-level helpers below poke directly.  The
    layout is the scalar cache's: flat lists of ``sets * ways`` slots
    and ``map``, one dict from *line address* to slot; it keeps tags
    and a ``valid`` array where the cache keeps each slot's line (-1
    while empty).  ``thr`` carries the L1 IPCP per-class throttles
    (int class -> live :class:`~repro.core.throttle.ClassThrottle`) and
    ``l2pf`` the L2 IPCP batch state; both stay None on levels without
    that prefetcher.
    """

    __slots__ = (
        "latency", "ways", "set_mask", "set_bits", "pq_entries",
        "mshr_entries", "map", "tag", "valid", "dirty", "pf", "pfc",
        "fc", "stamp", "clock", "mshr", "pq", "pq_last", "next", "dram",
        "da", "dh", "dm", "la", "lm", "um", "mg", "st",
        "pf_req", "pf_iss", "pf_fill", "pf_use", "pf_late",
        "dr_pq", "dr_mshr", "dr_cache", "dr_flight", "pf_evict", "wb",
        "by_iss", "by_use", "mpki", "mark_i", "mark_m",
        "thr", "l2pf", "l2_decoded",
    )

    def __init__(self, cp, next_level, dram) -> None:
        sets, ways = cp.sets, cp.ways
        self.latency = cp.latency
        self.ways = ways
        self.set_mask = sets - 1
        self.set_bits = sets.bit_length() - 1
        self.pq_entries = cp.pq_entries
        self.mshr_entries = cp.mshr_entries
        size = sets * ways
        self.map = {}
        self.tag = [0] * size
        self.valid = [0] * size
        self.dirty = [0] * size
        self.pf = [0] * size
        self.pfc = [0] * size
        self.fc = [0] * size
        self.stamp = [0] * size
        self.clock = 0
        self.mshr = {}
        self.pq = deque()
        self.pq_last = 0
        self.next = next_level
        self.dram = dram
        self.thr = None
        self.l2pf = None
        self.l2_decoded = None
        self.mpki = 0.0
        self.reset_stats(0)

    def reset_stats(self, instr: int) -> None:
        """Zero the counters (mirrors ``Cache.reset_stats``).

        The running ``mpki`` *value* deliberately survives, exactly as
        the scalar cache keeps ``_mpki`` across the warm-up reset.
        """
        self.da = self.dh = self.dm = self.la = self.lm = self.um = 0
        self.mg = self.st = 0
        self.pf_req = self.pf_iss = self.pf_fill = 0
        self.pf_use = self.pf_late = 0
        self.dr_pq = self.dr_mshr = self.dr_cache = self.dr_flight = 0
        self.pf_evict = self.wb = 0
        self.by_iss = {}
        self.by_use = {}
        self.mark_i = instr
        self.mark_m = 0

    def stats(self) -> CacheStats:
        """Freeze the counters into a scalar-identical ``CacheStats``."""
        return CacheStats(
            demand_accesses=self.da, demand_hits=self.dh,
            demand_misses=self.dm, load_accesses=self.la,
            load_misses=self.lm, uncovered_misses=self.um,
            mshr_merges=self.mg, mshr_full_stalls=self.st,
            pf_requested=self.pf_req, pf_issued=self.pf_iss,
            pf_filled=self.pf_fill, pf_useful=self.pf_use,
            pf_late=self.pf_late, pf_dropped_pq=self.dr_pq,
            pf_dropped_mshr=self.dr_mshr,
            pf_dropped_in_cache=self.dr_cache,
            pf_dropped_in_flight=self.dr_flight,
            pf_unused_evicted=self.pf_evict, writebacks=self.wb,
            pf_issued_by_class=dict(self.by_iss),
            pf_useful_by_class=dict(self.by_use),
        )


def _purge(lvl: _Level, cycle: int) -> None:
    """Drop completed MSHR entries (as ``Cache._expire_mshr`` does)."""
    mshr = lvl.mshr
    done = [line for line, entry in mshr.items() if entry[0] <= cycle]
    for line in done:
        del mshr[line]


def _install(lvl: _Level, line: int, ready: int,
             is_pf: bool, cls: int, dirty: bool) -> None:
    """Install a line, evicting (and writing back) as needed.

    Transcribes ``Cache._install`` (eviction included) for the LRU
    policy: first invalid way, else the minimum-stamp way; dirty
    victims ride down as writebacks stamped with their fill cycle.
    """
    ways = lvl.ways
    base = (line & lvl.set_mask) * ways
    valid = lvl.valid
    seg = valid[base:base + ways]
    if 0 in seg:
        slot = base + seg.index(0)
    else:
        seg = lvl.stamp[base:base + ways]
        slot = base + seg.index(min(seg))
        vline = (lvl.tag[slot] << lvl.set_bits) | (line & lvl.set_mask)
        del lvl.map[vline]
        if lvl.pf[slot]:
            lvl.pf_evict += 1
        if lvl.dirty[slot]:
            lvl.wb += 1
            fcv = lvl.fc[slot]
            if lvl.next is not None:
                _writeback(lvl.next, vline, fcv)
            else:
                lvl.dram.write(vline << 6, fcv)
    lvl.map[line] = slot
    lvl.tag[slot] = line >> lvl.set_bits
    valid[slot] = 1
    lvl.dirty[slot] = 1 if dirty else 0
    lvl.pf[slot] = 1 if is_pf else 0
    lvl.pfc[slot] = cls
    lvl.fc[slot] = ready
    ck = lvl.clock + 1
    lvl.clock = ck
    lvl.stamp[slot] = ck


def _writeback(lvl: _Level, line: int, cycle: int) -> None:
    """Absorb a writeback from the level above (``Cache.writeback``)."""
    slot = lvl.map.get(line)
    if slot is not None:
        lvl.dirty[slot] = 1
        return
    _install(lvl, line, cycle, False, 0, True)


def _demand(lvl: _Level, line: int, cycle: int, is_store: bool,
            ip: int, instr: int) -> int:
    """Demand access at L2/LLC (``Cache.demand`` + L2 replay).

    ``instr`` is the hierarchy instruction count *before* this record's
    tick, matching when the scalar MPKI sampler reads it.
    """
    lvl.da += 1
    if not is_store:
        lvl.la += 1
    slot = lvl.map.get(line)
    if slot is not None:
        lvl.dh += 1
        ck = lvl.clock + 1
        lvl.clock = ck
        lvl.stamp[slot] = ck
        ready = cycle + lvl.latency
        was_pf = lvl.pf[slot]
        if was_pf:
            lvl.pf_use += 1
            cls = lvl.pfc[slot]
            lvl.by_use[cls] = lvl.by_use.get(cls, 0) + 1
            lvl.pf[slot] = 0
        fill = lvl.fc[slot]
        if fill > ready:
            if was_pf:
                lvl.pf_late += 1
            ready = fill
        if is_store:
            lvl.dirty[slot] = 1
    else:
        lvl.dm += 1
        if not is_store:
            lvl.lm += 1
        entry = lvl.mshr.get(line)
        if entry is not None:
            lvl.mg += 1
            if entry[1]:
                lvl.pf_use += 1
                cls = entry[2]
                lvl.by_use[cls] = lvl.by_use.get(cls, 0) + 1
                entry[1] = False
                w2 = lvl.map.get(line)
                if w2 is not None:
                    lvl.pf[w2] = 0
                lvl.pf_late += 1
            v = cycle + lvl.latency
            ready = entry[0] if entry[0] > v else v
        else:
            lvl.um += 1
            eff = cycle
            if len(lvl.mshr) >= lvl.mshr_entries:
                _purge(lvl, cycle)
                if len(lvl.mshr) >= lvl.mshr_entries:
                    earliest = min(e[0] for e in lvl.mshr.values())
                    lvl.st += 1
                    _purge(lvl, earliest)
                    eff = earliest
            nxt = lvl.next
            if nxt is not None:
                ready = _demand(nxt, line, eff + lvl.latency,
                                is_store, ip, instr)
            else:
                ready = lvl.dram.read(line << 6, eff + lvl.latency)
            _install(lvl, line, ready, False, 0, is_store)
            lvl.mshr[line] = [ready, False, 0]
    el = instr - lvl.mark_i
    if el >= _MPKI_WINDOW:
        lvl.mpki = (lvl.dm - lvl.mark_m) * 1000.0 / el
        lvl.mark_i = instr
        lvl.mark_m = lvl.dm
    if lvl.l2pf is not None:
        _l2_demand_replay(lvl, ip, line, cycle)
    return ready


def _pf_arrival(lvl: _Level, line: int, cycle: int, ip: int,
                metadata: int, cls: int):
    """A prefetch from the level above lands here (``Cache.prefetch_arrival``).

    Returns the data-ready cycle, or None when the prefetch was dropped
    for MSHR exhaustion — in which case the L2 metadata replay is
    skipped, exactly as the scalar cache short-circuits before running
    its prefetcher.
    """
    slot = lvl.map.get(line)
    if slot is not None:
        ck = lvl.clock + 1
        lvl.clock = ck
        lvl.stamp[slot] = ck
        ready = cycle + lvl.latency
    else:
        entry = lvl.mshr.get(line)
        if entry is not None:
            v = cycle + lvl.latency
            ready = entry[0] if entry[0] > v else v
        else:
            if len(lvl.mshr) >= lvl.mshr_entries:
                _purge(lvl, cycle)
                if len(lvl.mshr) >= lvl.mshr_entries:
                    lvl.dr_mshr += 1
                    return None
            nxt = lvl.next
            if nxt is not None:
                down = _pf_arrival(nxt, line, cycle + lvl.latency,
                                   ip, metadata, cls)
            else:
                down = lvl.dram.read(line << 6, cycle + lvl.latency)
            if down is None:
                return None
            _install(lvl, line, down, True, cls, False)
            lvl.pf_fill += 1
            lvl.mshr[line] = [down, True, cls]
            ready = down
    if lvl.l2pf is not None:
        _l2_meta_replay(lvl, ip, line, metadata, cycle)
    return ready


def _issue_pf(lvl: _Level, line: int, cycle: int, ip: int,
              metadata: int, cls: int) -> None:
    """Issue one prefetch from this level (``Cache.issue_prefetch``).

    ``line`` is already physical (the L1 caller applies the
    page-preserving translation before calling).  All IPCP requests
    fill this level, so the ``fill_this_level=False`` branch of the
    scalar path is not replicated.
    """
    lvl.pf_req += 1
    if line in lvl.map:
        lvl.dr_cache += 1
        return
    if line in lvl.mshr:
        lvl.dr_flight += 1
        return
    pq = lvl.pq
    while pq and pq[0] <= cycle:
        pq.popleft()
    if len(pq) >= lvl.pq_entries:
        lvl.dr_pq += 1
        return
    if len(lvl.mshr) >= lvl.mshr_entries:
        _purge(lvl, cycle)
        if len(lvl.mshr) >= lvl.mshr_entries:
            lvl.dr_mshr += 1
            return
    li = lvl.pq_last + 1
    if cycle > li:
        li = cycle
    lvl.pq_last = li
    nxt = lvl.next
    if nxt is not None:
        down = _pf_arrival(nxt, line, cycle + lvl.latency, ip, metadata, cls)
    else:
        down = lvl.dram.read(line << 6, cycle + lvl.latency)
    if down is None:
        lvl.dr_mshr += 1
        return
    lvl.pf_iss += 1
    lvl.by_iss[cls] = lvl.by_iss.get(cls, 0) + 1
    pq.append(li)
    _install(lvl, line, down, True, cls, False)
    lvl.pf_fill += 1
    lvl.mshr[line] = [down, True, cls]
    thr = lvl.thr
    if thr is not None:
        throttle = thr[cls]
        if throttle is not None:
            # ClassThrottle.on_fill, inlined (hot path).
            throttle.epoch_fills += 1
            if throttle.epoch_fills >= EPOCH_FILLS:
                throttle._close_epoch()


def _l2_demand_replay(lvl: _Level, ip: int, line: int, cycle: int) -> None:
    """Replay the recorded class on an L2 demand (``IpcpL2.on_access``)."""
    st = lvl.l2pf
    entry = st["table"][ip & st["index_mask"]]
    if entry.valid and entry.tag == (ip >> st["tag_shift"]) & st["tag_mask"]:
        stride = entry.stride
        mc = entry.meta_class
        if mc == 1 and stride != 0:  # MetaClass.CS
            _emit_l2(lvl, line, stride, st["cs_degree"], 1, cycle, ip)
            return
        if mc == 2 and stride != 0:  # MetaClass.GS
            _emit_l2(lvl, line, 1 if stride > 0 else -1,
                     st["gs_degree"], 3, cycle, ip)
            return
    if lvl.mpki < st["nl_mpki_threshold"]:
        _emit_l2(lvl, line, 1, 1, 4, cycle, ip)


def _l2_meta_replay(lvl: _Level, ip: int, line: int,
                    metadata: int, cycle: int) -> None:
    """Decode L1 metadata at the L2 (``IpcpL2.on_access``, on arrival)."""
    st = lvl.l2pf
    mcv = (metadata >> 7) & 0x3
    raw = metadata & 0x7F
    stride = raw - 128 if raw >= 64 else raw
    entry = st["table"][ip & st["index_mask"]]
    entry.tag = (ip >> st["tag_shift"]) & st["tag_mask"]
    entry.valid = True
    entry.meta_class = st["meta_classes"][mcv]
    entry.stride = stride
    lvl.l2_decoded[mcv] += 1
    if mcv == 1 and stride != 0:
        _emit_l2(lvl, line, stride, st["cs_degree"], 1, cycle, ip)
    elif mcv == 2 and stride != 0:
        _emit_l2(lvl, line, 1 if stride > 0 else -1,
                 st["gs_degree"], 3, cycle, ip)
    elif mcv == 3 and lvl.mpki < st["nl_mpki_threshold"]:
        _emit_l2(lvl, line, 1, 1, 4, cycle, ip)


def _emit_l2(lvl: _Level, line: int, step: int, degree: int,
             cls: int, cycle: int, ip: int) -> None:
    """Issue an L2 replay burst, page-bounded (as ``IpcpL2.on_access``)."""
    page = line >> 6
    for k in range(1, degree + 1):
        target = line + step * k
        if target >> 6 != page or target < 0:
            continue
        _issue_pf(lvl, target, cycle, ip, 0, cls)


def simulate_batched(
    trace: Trace,
    l1_prefetcher: Prefetcher | None = None,
    l2_prefetcher: Prefetcher | None = None,
    llc_prefetcher: Prefetcher | None = None,
    params: SystemParams | None = None,
    warmup: int | None = None,
    max_instructions: int | None = None,
    hierarchy=None,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> SimResult:
    """Run one trace through the fused columnar engine.

    Accepts exactly the :func:`repro.sim.engine.simulate` signature
    (plus ``chunk_records``, the columnar gather window) and returns a
    bit-identical :class:`SimResult`; unsupported configurations fall
    back to the scalar engine transparently (see :func:`support_reason`,
    which also tells a caller whether the fused loop ran).  Live prefetcher
    objects are mutated in place through their ``batch_state()``
    handles, so their post-run state also matches a scalar run.
    """
    from repro.core.ipcp_l1 import IpcpL1
    from repro.core.ipcp_l2 import IpcpL2
    from repro.core.metadata import MetaClass
    from repro.core.throttle import HIGH_WATERMARK, LOW_WATERMARK

    if chunk_records < 1:
        raise ConfigurationError("chunk_records must be >= 1")
    params = params or SystemParams()
    if support_reason(trace, l1_prefetcher, l2_prefetcher, llc_prefetcher,
                      params, hierarchy) is not None:
        return simulate(trace, l1_prefetcher, l2_prefetcher, llc_prefetcher,
                        params=params, warmup=warmup,
                        max_instructions=max_instructions,
                        hierarchy=hierarchy)
    cols = trace.columns()

    n = len(trace)
    warmup = warmup_length(trace, warmup)

    dram = Dram(params.dram)
    llc = _Level(params.llc, None, dram)
    lvl2 = _Level(params.l2, llc, dram)
    lvl1 = _Level(params.l1d, lvl2, dram)

    l1bs = (l1_prefetcher.batch_state()
            if type(l1_prefetcher) is IpcpL1 else None)
    if type(l2_prefetcher) is IpcpL2:
        l2bs = dict(l2_prefetcher.batch_state())
        l2bs["meta_classes"] = (MetaClass.NONE, MetaClass.CS,
                                MetaClass.GS, MetaClass.NL)
        lvl2.l2pf = l2bs
        lvl2.l2_decoded = [0, 0, 0, 0]

    # -- L1 IPCP state, flattened into locals --------------------------
    thr1: list = []
    if l1bs is not None:
        cfg = l1bs["config"]
        ip_tab = l1bs["ip_table"]
        it_table = ip_tab._table
        it_imask = ip_tab._index_mask
        it_tshift = ip_tab.entries.bit_length() - 1
        it_tmask = ip_tab._tag_mask
        cspt = l1bs["cspt"]
        cspt_table = cspt._table
        cspt_mask = cspt._mask
        rst = l1bs["rst"]
        rst_table = rst._table
        rst_n = rst.entries
        # RST entries as plain lists [bit_vector, last_line_offset,
        # pos_neg_count, trained, tentative, direction, dense]; the
        # epilogue rebuilds the live RstEntry dict in LRU order.
        rsf: dict = {}
        for _rg, _e in rst_table.items():
            rsf[_rg] = [_e.bit_vector, _e.last_line_offset,
                        _e.pos_neg_count, 1 if _e.trained else 0,
                        1 if _e.tentative else 0, _e.direction,
                        1 if _e.dense else 0]
        rr = l1bs["rr_filter"]
        rr_fifo = rr._fifo
        rr_append = rr_fifo.append
        rr_mask = rr._tag_mask
        rr_maxlen = rr.entries
        # Multiset mirror of the FIFO contents: membership probes are
        # O(1) dict lookups instead of O(entries) deque scans, which
        # matters because the priority walk probes every candidate.
        rr_count: dict = {}
        for _t in rr_fifo:
            rr_count[_t] = rr_count.get(_t, 0) + 1
        thr1 = [None] * 5
        for _k, _v in l1bs["throttles"].items():
            thr1[int(_k)] = _v
        en_cs, en_cplx = cfg.enable_cs, cfg.enable_cplx
        en_gs, en_nl = cfg.enable_gs, cfg.enable_nl
        nl_thr1 = cfg.nl_mpki_threshold
        send_meta = cfg.send_metadata
        throttling = cfg.throttling
        prio = tuple(int(c) for c in cfg.priority)
        lvl1.thr = thr1
        # IP table and CSPT as parallel field lists: the fused loop
        # reads/writes plain list slots and the post-run epilogue
        # writes the values back into the live entry objects, so the
        # prefetcher's end state still matches a scalar run.
        e_tag = [e.tag for e in it_table]
        e_valid = [1 if e.valid else 0 for e in it_table]
        e_lvp = [e.last_vpage for e in it_table]
        e_llo = [e.last_line_offset for e in it_table]
        e_stride = [e.stride for e in it_table]
        e_conf = [e.confidence for e in it_table]
        e_sv = [1 if e.stream_valid else 0 for e in it_table]
        e_dir = [e.direction for e in it_table]
        e_sig = [e.signature for e in it_table]
        e_lline = [e.last_line for e in it_table]
        e_seen = [1 if e.seen_once else 0 for e in it_table]
        cs_stride = [c.stride for c in cspt_table]
        cs_conf = [c.confidence for c in cspt_table]
    rr_drops = 0

    # -- columnar event stream -----------------------------------------
    ev = cols.event_columns()
    ev_index = ev["index"]
    n_ev = len(ev_index)
    ev_kind_all = ev["kind"]
    ev_ip_all = ev["ip"]
    ev_addr_all = ev["addr"]
    pa, dl, mispred, penalty = _access_columns(trace, params.model_tlb)
    dep_b = cols.dep_bytes

    # -- core-model and L1 hot-path locals -----------------------------
    width = params.core.width
    rob_size = params.core.rob_size
    # The ROB run-length encoded: completion values are non-decreasing,
    # and the bulk engines append whole runs of one value, so entries
    # are ``[value, count]`` pairs with the total in ``rob_len``.  Pops
    # stay all-or-nothing per run (a run is uniform), keeping retire
    # cost O(runs) instead of O(instructions).
    rob: deque[list] = deque()
    rob_append = rob.append
    rob_popleft = rob.popleft
    rob_len = 0
    cycle = instr = dispatched = inorder = last_load = 0

    lat1 = lvl1.latency
    map1, stamp1 = lvl1.map, lvl1.stamp
    dirty1, pfl1, pfc1, fc1 = lvl1.dirty, lvl1.pf, lvl1.pfc, lvl1.fc
    mshr1, mshrn1 = lvl1.mshr, lvl1.mshr_entries
    da1 = dh1 = dm1 = la1 = lm1 = um1 = mg1 = st1 = pu1 = pl1 = 0
    by_u1: dict = {}
    mpki1 = 0.0
    mk_i1 = mk_m1 = 0
    MW = _MPKI_WINDOW

    # Columnar gather window [g_lo, g_hi) over the event arrays.
    g_lo = g_hi = 0
    w_idx = w_kind = w_ip = ()
    w_vline = w_rrt = w_iidx = w_etag = w_cvp = w_voff = ()
    w_page = w_reg = w_roff = ()
    p = 0
    roi_i0 = roi_c0 = 0

    legs = ((0, warmup, None), (warmup, n, max_instructions))
    for leg_index, (i, leg_end, budget) in enumerate(legs):
        # Every record in the leg executes exactly once, so an
        # instruction budget is just a tighter leg end.
        if budget is not None and i + budget < leg_end:
            leg_end = i + budget
        while i < leg_end:
            if p < n_ev:
                if p >= g_hi:
                    g_lo = p
                    rec0 = int(ev_index[p])
                    rec_end = rec0 - rec0 % chunk_records + chunk_records
                    g_hi = int(np.searchsorted(ev_index, rec_end))
                    w_idx = ev_index[g_lo:g_hi].tolist()
                    w_kind = ev_kind_all[g_lo:g_hi].tolist()
                    w_ip = ev_ip_all[g_lo:g_hi].tolist()
                    if l1bs is not None:
                        # Address-geometry columns for the IPCP
                        # pipeline, derived vectorized per window.
                        a64 = ev_addr_all[g_lo:g_hi]
                        vl = a64 >> 6
                        ip64 = ev_ip_all[g_lo:g_hi]
                        w_vline = vl.tolist()
                        w_rrt = ((vl ^ (vl >> 12)) & rr_mask).tolist()
                        w_iidx = (ip64 & it_imask).tolist()
                        w_etag = ((ip64 >> it_tshift) & it_tmask).tolist()
                        w_cvp = ((a64 >> 12) & 3).tolist()
                        w_voff = (vl & 63).tolist()
                        w_page = (vl >> 6).tolist()
                        w_reg = (vl >> 5).tolist()
                        w_roff = (vl & 31).tolist()
                nxt = w_idx[p - g_lo]
            else:
                nxt = n

            if nxt > i:
                # ---- run of OTHER records [i, gap_end) ----------------
                gap_end = nxt if nxt < leg_end else leg_end
                start = i
                while i < gap_end:
                    # Dep bits are transparent except in one window: a
                    # dep record only differs from a plain one while
                    # ``inorder == last_load`` and ``cycle <
                    # last_load`` (a load just dispatched and nothing
                    # overtook it), and then it merely lifts ``inorder``
                    # to ``last_load + 1`` — after which every later
                    # dep completion is already covered by the running
                    # prefix-max.  So scan for at most one dep record
                    # per run and feed everything else to the bulk
                    # no-dep engine below.
                    if inorder == last_load and cycle < last_load:
                        d = dep_b.find(1, i, gap_end)
                    else:
                        d = -1
                    seg_end = gap_end if d < 0 else d
                    while i < seg_end:
                        if (inorder <= cycle + 1
                                and (not rob or rob[-1][0] <= cycle + 1)
                                and rob_len + width < rob_size):
                            # Steady state: no stall source can fire
                            # inside the run, so retire it closed-form.
                            m = seg_end - i
                            incs = (dispatched + m - 1) // width
                            if incs:
                                cycle += incs
                                dispatched = dispatched + m - incs * width
                                rob.clear()
                                rob_len = dispatched
                                if dispatched:
                                    rob_append([cycle + 1, dispatched])
                            else:
                                dispatched += m
                                rob_len += m
                                if rob and rob[-1][0] == cycle + 1:
                                    rob[-1][1] += m
                                else:
                                    rob_append([cycle + 1, m])
                            inorder = cycle + 1
                            i = seg_end
                            break
                        m = seg_end - i
                        if inorder > cycle + 1:
                            # In-order completion is ahead of the clock
                            # (typical right after a load): while the
                            # clock catches up, every dispatch appends
                            # ``inorder``, rolls are pure arithmetic,
                            # and intermediate head pops collapse into
                            # one pop at the final cycle.  Consume at
                            # most the catch-up prefix; the steady-state
                            # branch above takes the remainder.
                            m_run = (inorder - cycle) * width - dispatched
                            if m_run > m:
                                m_run = m
                            if rob_len + m_run < rob_size:
                                incs = (dispatched + m_run - 1) // width
                                cycle += incs
                                dispatched = (dispatched + m_run
                                              - incs * width)
                                if rob and rob[-1][0] == inorder:
                                    rob[-1][1] += m_run
                                else:
                                    rob_append([inorder, m_run])
                                rob_len += m_run
                                if incs:
                                    while rob and rob[0][0] <= cycle:
                                        rob_len -= rob_popleft()[1]
                                i += m_run
                                continue
                        if dispatched >= width:
                            cycle += 1
                            dispatched = 0
                            while rob and rob[0][0] <= cycle:
                                rob_len -= rob_popleft()[1]
                            continue
                        if rob_len >= rob_size:
                            head = rob[0][0]
                            if head > cycle:
                                cycle = head
                            dispatched = 0
                            while rob and rob[0][0] <= cycle:
                                rob_len -= rob_popleft()[1]
                        burst = width - dispatched
                        rem = seg_end - i
                        if burst > rem:
                            burst = rem
                        room_r = rob_size - rob_len
                        if burst > room_r:
                            burst = room_r
                        v = cycle + 1
                        if inorder > v:
                            v = inorder
                        if rob and rob[-1][0] == v:
                            rob[-1][1] += burst
                        else:
                            rob_append([v, burst])
                        rob_len += burst
                        inorder = v
                        dispatched += burst
                        i += burst
                    if d >= 0 and i == d:
                        # The one dep record that can matter, stepped
                        # with full per-record semantics.
                        if dispatched >= width:
                            cycle += 1
                            dispatched = 0
                            while rob and rob[0][0] <= cycle:
                                rob_len -= rob_popleft()[1]
                        if rob_len >= rob_size:
                            head = rob[0][0]
                            if head > cycle:
                                cycle = head
                            dispatched = 0
                            while rob and rob[0][0] <= cycle:
                                rob_len -= rob_popleft()[1]
                        completion = (last_load if last_load > cycle
                                      else cycle) + 1
                        if completion > inorder:
                            inorder = completion
                        if rob and rob[-1][0] == inorder:
                            rob[-1][1] += 1
                        else:
                            rob_append([inorder, 1])
                        rob_len += 1
                        dispatched += 1
                        i += 1
                instr += i - start
                continue

            # ---- event record (load/store/branch) at i == nxt --------
            wi = p - g_lo
            kind = w_kind[wi]
            ip = w_ip[wi]
            if dispatched >= width:
                cycle += 1
                dispatched = 0
                while rob and rob[0][0] <= cycle:
                    rob_len -= rob_popleft()[1]
            if rob_len >= rob_size:
                head = rob[0][0]
                if head > cycle:
                    cycle = head
                dispatched = 0
                while rob and rob[0][0] <= cycle:
                    rob_len -= rob_popleft()[1]
            issue = cycle
            if dep_b[i] and last_load > issue:
                issue = last_load

            if kind == BRANCH:
                completion = issue + 1
                if mispred[p]:
                    stall = issue + penalty
                    if stall > cycle:
                        cycle = stall
                    dispatched = 0
            else:
                is_store = kind == STORE
                acc = issue + dl[p]

                # -- fused L1 demand access ------------------------------
                line_p = pa[p]
                slot = map1.get(line_p)
                da1 += 1
                if not is_store:
                    la1 += 1
                if slot is not None:
                    dh1 += 1
                    ck = lvl1.clock + 1
                    lvl1.clock = ck
                    stamp1[slot] = ck
                    ready = acc + lat1
                    was_pf = pfl1[slot]
                    if was_pf:
                        pu1 += 1
                        cls = pfc1[slot]
                        by_u1[cls] = by_u1.get(cls, 0) + 1
                        pfl1[slot] = 0
                        throttle = thr1[cls]
                        if throttle is not None:
                            throttle.epoch_hits += 1
                    fill = fc1[slot]
                    if fill > ready:
                        if was_pf:
                            pl1 += 1
                        ready = fill
                    if is_store:
                        dirty1[slot] = 1
                else:
                    dm1 += 1
                    if not is_store:
                        lm1 += 1
                    entry = mshr1.get(line_p)
                    if entry is not None:
                        mg1 += 1
                        if entry[1]:
                            pu1 += 1
                            cls = entry[2]
                            by_u1[cls] = by_u1.get(cls, 0) + 1
                            entry[1] = False
                            w2 = map1.get(line_p)
                            if w2 is not None:
                                pfl1[w2] = 0
                            throttle = thr1[cls]
                            if throttle is not None:
                                throttle.epoch_hits += 1
                            pl1 += 1
                        v = acc + lat1
                        ready = entry[0] if entry[0] > v else v
                    else:
                        um1 += 1
                        eff = acc
                        if len(mshr1) >= mshrn1:
                            done_l = [ln for ln, e in mshr1.items()
                                      if e[0] <= acc]
                            for ln in done_l:
                                del mshr1[ln]
                            if len(mshr1) >= mshrn1:
                                earliest = min(
                                    e[0] for e in mshr1.values())
                                st1 += 1
                                done_l = [ln for ln, e in mshr1.items()
                                          if e[0] <= earliest]
                                for ln in done_l:
                                    del mshr1[ln]
                                eff = earliest
                        ready = _demand(lvl2, line_p, eff + lat1,
                                        is_store, ip, instr)
                        _install(lvl1, line_p, ready, False, 0, is_store)
                        mshr1[line_p] = [ready, False, 0]
                el = instr - mk_i1
                if el >= MW:
                    mpki1 = (dm1 - mk_m1) * 1000.0 / el
                    mk_i1 = instr
                    mk_m1 = dm1

                # -- fused IPCP L1 pipeline ------------------------------
                if l1bs is not None:
                    vline = w_vline[wi]
                    rrt = w_rrt[wi]
                    if len(rr_fifo) == rr_maxlen:
                        old = rr_fifo[0]
                        c = rr_count[old] - 1
                        if c:
                            rr_count[old] = c
                        else:
                            del rr_count[old]
                    rr_append(rrt)
                    rr_count[rrt] = rr_count.get(rrt, 0) + 1
                    idx = w_iidx[wi]
                    if e_seen[idx] and e_tag[idx] == w_etag[wi]:
                        e_valid[idx] = 1
                        have = True
                    elif e_valid[idx]:
                        e_valid[idx] = 0
                        have = False
                    else:
                        # Hysteresis takeover: reset the slot to a
                        # fresh entry owned by this IP.
                        e_tag[idx] = w_etag[wi]
                        e_valid[idx] = 1
                        e_seen[idx] = 1
                        e_lvp[idx] = 0
                        e_llo[idx] = 0
                        e_stride[idx] = 0
                        e_conf[idx] = 0
                        e_sv[idx] = 0
                        e_dir[idx] = 1
                        e_sig[idx] = 0
                        e_lline[idx] = 0
                        have = True

                    rst_e = None
                    if en_gs:
                        region = w_reg[wi]
                        roff = w_roff[wi]
                        rst_e = rsf.get(region)
                        if rst_e is not None:
                            del rsf[region]
                            rsf[region] = rst_e
                        else:
                            tentative = 0
                            if have and e_lline[idx]:
                                prev_region = e_lline[idx] >> 5
                                if prev_region != region:
                                    pe = rsf.get(prev_region)
                                    if pe is not None and pe[3]:
                                        tentative = 1
                            if len(rsf) >= rst_n:
                                del rsf[next(iter(rsf))]
                            rst_e = [0, roff, 32, 0, tentative, 1, 0]
                            rsf[region] = rst_e
                        bit = 1 << roff
                        bv = rst_e[0]
                        if not bv & bit:
                            bv |= bit
                            rst_e[0] = bv
                            if bv.bit_count() >= 24:
                                rst_e[3] = 1
                                rst_e[6] = 1
                        llo = rst_e[1]
                        if roff > llo:
                            pnc = rst_e[2] + 1
                            if pnc < 64:
                                rst_e[2] = pnc
                        elif roff < llo:
                            pnc = rst_e[2]
                            if pnc > 0:
                                rst_e[2] = pnc - 1
                        rst_e[5] = 1 if rst_e[2] >= 32 else -1
                        rst_e[1] = roff

                    if have and e_lline[idx]:
                        cur_vp = w_cvp[wi]
                        s = w_voff[wi] - e_llo[idx]
                        if cur_vp != e_lvp[idx]:
                            d = (cur_vp - e_lvp[idx]) & 3
                            if d == 1:
                                s += 64
                            elif d == 3:
                                s -= 64
                            else:
                                s = 0
                        if s > 63:
                            s = 63
                        elif s < -63:
                            s = -63
                        if s != 0:
                            if s == e_stride[idx]:
                                if e_conf[idx] < 3:
                                    e_conf[idx] += 1
                            else:
                                c = e_conf[idx] - 1
                                if c < 0:
                                    c = 0
                                e_conf[idx] = c
                                if c == 0:
                                    e_stride[idx] = s
                            if en_cplx:
                                sig = e_sig[idx]
                                ci = sig & cspt_mask
                                if cs_stride[ci] == s:
                                    if cs_conf[ci] < 3:
                                        cs_conf[ci] += 1
                                else:
                                    cc = cs_conf[ci] - 1
                                    if cc < 0:
                                        cc = 0
                                    cs_conf[ci] = cc
                                    if cc == 0:
                                        cs_stride[ci] = s
                                e_sig[idx] = ((sig << 1) ^ (s & 127)) & 127

                    if have:
                        if rst_e is not None and (rst_e[3] or rst_e[4]):
                            e_sv[idx] = 1
                            e_dir[idx] = rst_e[5]
                        else:
                            e_sv[idx] = 0
                        e_lvp[idx] = w_cvp[wi]
                        e_llo[idx] = w_voff[wi]
                        e_lline[idx] = vline

                        # Priority walk.  Requests are collected first
                        # and issued after the walk completes — issuing
                        # can close a throttle epoch, which must not
                        # affect later classes' decisions this access.
                        reqs = None
                        for cls_i in prio:
                            if cls_i == 3:  # GS
                                if not (en_gs and e_sv[idx]):
                                    continue
                                throttle = thr1[3]
                                deg = (throttle.degree if throttling
                                       else throttle.default_degree)
                                step = e_dir[idx]
                                deltas = range(step, step * (deg + 1), step)
                                ms = step
                            elif cls_i == 1:  # CS
                                if not (en_cs and e_conf[idx] >= 2
                                        and e_stride[idx] != 0):
                                    continue
                                throttle = thr1[1]
                                deg = (throttle.degree if throttling
                                       else throttle.default_degree)
                                step = e_stride[idx]
                                deltas = [step * k
                                          for k in range(1, deg + 1)]
                                ms = step
                            elif cls_i == 2:  # CPLX
                                if not en_cplx:
                                    continue
                                throttle = thr1[2]
                                deg = (throttle.degree if throttling
                                       else throttle.default_degree)
                                deltas = []
                                sig = e_sig[idx]
                                off = 0
                                for _ in range(deg):
                                    ci = sig & cspt_mask
                                    cstride = cs_stride[ci]
                                    if cs_conf[ci] < 1 or cstride == 0:
                                        break
                                    off += cstride
                                    deltas.append(off)
                                    sig = ((sig << 1)
                                           ^ (cstride & 127)) & 127
                                if not deltas:
                                    continue
                                ms = 0
                            else:  # NL
                                if not (en_nl and mpki1 < nl_thr1):
                                    continue
                                throttle = thr1[4]
                                deltas = (1,)
                                ms = 0
                            if send_meta:
                                if throttle.accuracy < HIGH_WATERMARK:
                                    ms = 0
                                meta = ((_META_OF_CLASS[cls_i] << 7)
                                        | (ms & 127))
                            else:
                                meta = 0
                            page = w_page[wi]
                            for dlt in deltas:
                                tgt = vline + dlt
                                if tgt >> 6 != page or tgt < 0:
                                    continue
                                rtag = (tgt ^ (tgt >> 12)) & rr_mask
                                if rtag in rr_count:
                                    rr_drops += 1
                                    continue
                                if len(rr_fifo) == rr_maxlen:
                                    old = rr_fifo[0]
                                    c = rr_count[old] - 1
                                    if c:
                                        rr_count[old] = c
                                    else:
                                        del rr_count[old]
                                rr_append(rtag)
                                rr_count[rtag] = rr_count.get(rtag, 0) + 1
                                if reqs is None:
                                    reqs = []
                                reqs.append(
                                    ((line_p & ~63) | (tgt & 63),
                                     meta, cls_i))
                            if (throttling
                                    and throttle.accuracy < LOW_WATERMARK):
                                continue
                            break
                        if reqs is not None:
                            for pf_line, meta, cls_i in reqs:
                                _issue_pf(lvl1, pf_line, acc, ip,
                                          meta, cls_i)

                if is_store:
                    completion = issue + 1
                else:
                    completion = ready
                    last_load = ready

            if completion > inorder:
                inorder = completion
            if rob and rob[-1][0] == inorder:
                rob[-1][1] += 1
            else:
                rob_append([inorder, 1])
            rob_len += 1
            dispatched += 1
            instr += 1
            i += 1
            p += 1

        # Leg boundary: drain the ROB (Cpu.finish).
        if rob:
            last = rob[-1][0]
            if last > cycle:
                cycle = last
            rob.clear()
            rob_len = 0
        if leg_index == 0:
            # End of warm-up: zero every counter, keep running MPKI and
            # all training state (Hierarchy.reset_stats semantics).
            da1 = dh1 = dm1 = la1 = lm1 = um1 = mg1 = st1 = 0
            pu1 = pl1 = 0
            by_u1 = {}
            mk_i1 = instr
            mk_m1 = 0
            lvl1.reset_stats(instr)
            lvl2.reset_stats(instr)
            llc.reset_stats(instr)
            dram.reset_stats()
            roi_i0 = instr
            roi_c0 = cycle

    # -- flush L1 locals and prefetcher counters ------------------------
    lvl1.da, lvl1.dh, lvl1.dm = da1, dh1, dm1
    lvl1.la, lvl1.lm, lvl1.um = la1, lm1, um1
    lvl1.mg, lvl1.st = mg1, st1
    lvl1.pf_use, lvl1.pf_late = pu1, pl1
    lvl1.by_use = by_u1
    if l1bs is not None:
        # Write the flattened IP-table/CSPT working state back into the
        # live entry objects so the prefetcher's end state matches a
        # scalar run exactly.
        for j, e in enumerate(it_table):
            e.tag = e_tag[j]
            e.valid = bool(e_valid[j])
            e.last_vpage = e_lvp[j]
            e.last_line_offset = e_llo[j]
            e.stride = e_stride[j]
            e.confidence = e_conf[j]
            e.stream_valid = bool(e_sv[j])
            e.direction = e_dir[j]
            e.signature = e_sig[j]
            e.last_line = e_lline[j]
            e.seen_once = bool(e_seen[j])
        for j, c in enumerate(cspt_table):
            c.stride = cs_stride[j]
            c.confidence = cs_conf[j]
        rst_table.clear()
        for _rg, v in rsf.items():
            rst_table[_rg] = RstEntry(
                region=_rg, bit_vector=v[0], last_line_offset=v[1],
                pos_neg_count=v[2], dense=bool(v[6]), trained=bool(v[3]),
                tentative=bool(v[4]), direction=v[5])
        if rr_drops:
            stats = l1_prefetcher.stats
            stats["rr_filter_drops"] = (
                stats.get("rr_filter_drops", 0) + rr_drops)
    if lvl2.l2_decoded is not None:
        stats = l2_prefetcher.stats
        for name, delta in zip(("decoded_none", "decoded_cs",
                                "decoded_gs", "decoded_nl"),
                               lvl2.l2_decoded):
            if delta:
                stats[name] = stats.get(name, 0) + delta

    return SimResult.of_run(
        trace, l1_prefetcher, l2_prefetcher, instr - roi_i0, cycle - roi_c0,
        lvl1.stats(), lvl2.stats(), llc.stats(), dram,
    )
