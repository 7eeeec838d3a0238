"""IPCP-I: the classifier bouquet retargeted at the instruction stream.

The data-side bouquet classifies *load IPs*; the fetch stream has no
per-IP locality to exploit — its structure lives in the sequence of
*fetch blocks* (64-byte lines of code).  IPCP-I therefore keeps the
bouquet shape (prioritised classes, per-class accuracy throttling, an
RR filter, a page-crossing policy) but swaps the classifiers:

* **GS-I** — dense 2 KB code regions (straight-line function bodies)
  stream forward, like the data side's GS over data regions; code is
  fetched overwhelmingly in the +1 direction, so GS-I streams ahead
  without the data side's direction bit.
* **CS-I** — a direct-mapped table keyed by fetch block remembers, with
  2-bit hysteresis, the block delta that followed last time.  On a
  confident entry the predictor *chains*: it walks the table along the
  learned deltas up to ``degree`` hops, following the recorded control
  flow through bodies and call/return discontinuities (the analogue of
  per-IP constant stride, with the fetch block standing in for the IP).
* **CPLX-I** — a global signature of recent block deltas indexes a
  CSPT-style table and chains through it, covering repeating
  multi-delta patterns such as interpreter dispatch loops.
* **NL-I** — next fetch block, gated on the running fetch MPKI like the
  data side's NL class.

Priority GS-I > CS-I > CPLX-I > NL-I with the data-side rule that a
low-accuracy winner does not silence lower classes.

The one genuinely new knob is ``page_policy``: ``"blind"`` keeps the
data-side spatial contract (never cross the trigger's 4 KB page);
``"aware"`` lets prefetches cross pages, and the frontend engine then
performs the prefetch-triggered ITLB translation (Jamet et al.).  The
TLB-aware-vs-blind ablation in EXPERIMENTS.md flips exactly this knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.rr_filter import RrFilter
from repro.core.throttle import ClassThrottle
from repro.errors import ConfigurationError
from repro.prefetchers.base import AccessContext, Prefetcher, PrefetchRequest

# Frontend prefetch classes (disjoint from the data-side class codes on
# purpose: the two hierarchies never exchange metadata).
FE_NONE = 0
FE_GS = 1
FE_CS = 2
FE_CPLX = 3
FE_NL = 4

FE_CLASS_NAMES = {
    FE_NONE: "none",
    FE_GS: "gs_i",
    FE_CS: "cs_i",
    FE_CPLX: "cplx_i",
    FE_NL: "nl_i",
}

# Fetch-block geometry: blocks are 64-byte lines, code regions are 2 KB
# (32 blocks), pages are 4 KB (64 blocks) — same constants as the data
# side (repro.params), expressed in block space.
BLOCKS_PER_REGION = 32
BLOCKS_PER_PAGE = 64

# Signature roll for CPLX-I: two bits of shift, six bits of delta.
SIG_MASK = 0x7F
SIG_SHIFT = 2
SIG_DELTA_MASK = 0x3F

CONF_MAX = 3
CONF_THRESHOLD = 2


@dataclass(frozen=True)
class IpcpIConfig:
    """Table sizes, degrees and policies for one IPCP-I instance."""

    bt_entries: int = 2048      # CS-I block table (direct-mapped)
    bt_tag_bits: int = 9
    cspt_entries: int = 128     # CPLX-I signature table
    rst_entries: int = 8        # GS-I region stream table
    region_train_threshold: int = 12  # touched blocks before a region trains
    gs_degree: int = 5
    cs_degree: int = 4
    cplx_degree: int = 3
    nl_degree: int = 2
    nl_mpki_gate: float = 50.0  # NL-I only below this fetch MPKI (paper's gate)
    rr_entries: int = 32
    rr_tag_bits: int = 12
    page_policy: str = "aware"  # "aware" crosses pages, "blind" drops

    def __post_init__(self) -> None:
        if self.page_policy not in ("aware", "blind"):
            raise ConfigurationError(
                f"page_policy must be 'aware' or 'blind', got "
                f"{self.page_policy!r}"
            )
        for name in ("bt_entries", "cspt_entries", "rst_entries",
                     "rr_entries"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        if self.bt_entries & (self.bt_entries - 1):
            raise ConfigurationError("bt_entries must be a power of two")
        if self.cspt_entries & (self.cspt_entries - 1):
            raise ConfigurationError("cspt_entries must be a power of two")
        for name in ("gs_degree", "cs_degree", "cplx_degree", "nl_degree"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if not 1 <= self.region_train_threshold <= BLOCKS_PER_REGION:
            raise ConfigurationError(
                "region_train_threshold must be in [1, 32]"
            )

    @property
    def storage_bits(self) -> int:
        """Hardware budget (Table-I style accounting).

        Block table: tag + 16-bit delta + 2-bit confidence per entry.
        CSPT: 16-bit delta + 2-bit confidence.  RST: 20-bit region tag,
        32-bit touch bitmap, trained bit.  RR filter: partial tags.
        Signature register: 7 bits.
        """
        bt = self.bt_entries * (self.bt_tag_bits + 16 + 2)
        cspt = self.cspt_entries * (16 + 2)
        rst = self.rst_entries * (20 + BLOCKS_PER_REGION + 1)
        rr = self.rr_entries * self.rr_tag_bits
        return bt + cspt + rst + rr + 7


class _RegionEntry:
    """One GS-I region: touch bitmap and trained flag."""

    __slots__ = ("region", "touched", "trained")

    def __init__(self, region: int, offset: int) -> None:
        self.region = region
        self.touched = {offset}
        self.trained = False


class IpcpIPrefetcher(Prefetcher):
    """The instruction-stream bouquet (see module docstring).

    Driven once per fetch-block transition: the frontend engine calls
    :meth:`on_access` with ``ctx.addr`` (== ``ctx.ip``) at the first
    byte fetched in the new block, ``ctx.cache_hit`` from the L1-I
    lookup and ``ctx.mpki`` the running fetch MPKI for the NL gate.
    """

    def __init__(self, config: IpcpIConfig | None = None,
                 name: str = "ipcp_i") -> None:
        self.config = config or IpcpIConfig()
        super().__init__(name=name, storage_bits=self.config.storage_bits)
        cfg = self.config
        self.rr_filter = RrFilter(cfg.rr_entries, cfg.rr_tag_bits)
        self._bt_index_bits = (cfg.bt_entries - 1).bit_length()
        self._bt_tag_mask = (1 << cfg.bt_tag_bits) - 1
        # CS-I block table: index -> [tag, delta, confidence].
        self._bt: list[list[int] | None] = [None] * cfg.bt_entries
        # CPLX-I signature table: sig -> [delta, confidence].
        self._cspt: list[list[int] | None] = [None] * cfg.cspt_entries
        self._sig = 0
        # GS-I region stream table, LRU over _RegionEntry.
        self._rst: dict[int, _RegionEntry] = {}
        self._last_block: int | None = None
        self.throttles = {
            FE_GS: ClassThrottle(cfg.gs_degree),
            FE_CS: ClassThrottle(cfg.cs_degree),
            FE_CPLX: ClassThrottle(cfg.cplx_degree),
            FE_NL: ClassThrottle(cfg.nl_degree),
        }

    # ---------------------------------------------------------- training

    def _bt_slot(self, block: int) -> tuple[int, int]:
        """Direct-mapped (index, tag) of a fetch block in the CS-I table."""
        index = block & (self.config.bt_entries - 1)
        tag = (block >> self._bt_index_bits) & self._bt_tag_mask
        return index, tag

    def _train_bt(self, block: int, delta: int) -> None:
        """2-bit hysteresis update of the CS-I entry for ``block``."""
        index, tag = self._bt_slot(block)
        entry = self._bt[index]
        if entry is None or entry[0] != tag:
            if entry is None or entry[2] == 0:
                self._bt[index] = [tag, delta, 1]
            else:
                entry[2] -= 1
            return
        if entry[1] == delta:
            entry[2] = min(CONF_MAX, entry[2] + 1)
        else:
            entry[2] -= 1
            if entry[2] <= 0:
                entry[1] = delta
                entry[2] = 1

    def _train_cspt(self, delta: int) -> None:
        """Hysteresis update of CSPT[sig], then roll the signature."""
        entry = self._cspt[self._sig]
        if entry is None:
            self._cspt[self._sig] = [delta, 1]
        elif entry[0] == delta:
            entry[1] = min(CONF_MAX, entry[1] + 1)
        else:
            entry[1] -= 1
            if entry[1] <= 0:
                entry[0] = delta
                entry[1] = 1
        self._sig = ((self._sig << SIG_SHIFT)
                     ^ (delta & SIG_DELTA_MASK)) & SIG_MASK

    def _train_rst(self, block: int) -> None:
        """Track region density and direction for GS-I."""
        region = block // BLOCKS_PER_REGION
        offset = block % BLOCKS_PER_REGION
        entry = self._rst.get(region)
        if entry is None:
            if len(self._rst) >= self.config.rst_entries:
                oldest = next(iter(self._rst))
                del self._rst[oldest]
            self._rst[region] = _RegionEntry(region, offset)
            return
        # LRU refresh: re-insert at the back.
        del self._rst[region]
        self._rst[region] = entry
        entry.touched.add(offset)
        if len(entry.touched) >= self.config.region_train_threshold:
            entry.trained = True

    # ------------------------------------------------------ classification

    def _gs_candidates(self, block: int) -> list[int]:
        entry = self._rst.get(block // BLOCKS_PER_REGION)
        if entry is None or not entry.trained:
            return []
        degree = self.throttles[FE_GS].degree
        return [block + k for k in range(1, degree + 1)]

    def _cs_candidates(self, block: int) -> list[int]:
        degree = self.throttles[FE_CS].degree
        current = block
        out: list[int] = []
        for _ in range(degree):
            index, tag = self._bt_slot(current)
            entry = self._bt[index]
            if (entry is None or entry[0] != tag
                    or entry[2] < CONF_THRESHOLD or entry[1] == 0):
                break
            current += entry[1]
            out.append(current)
        return out

    def _cplx_candidates(self, block: int) -> list[int]:
        degree = self.throttles[FE_CPLX].degree
        sig = self._sig
        target = block
        out: list[int] = []
        for _ in range(degree):
            entry = self._cspt[sig]
            if entry is None or entry[1] < CONF_THRESHOLD or entry[0] == 0:
                break
            target += entry[0]
            out.append(target)
            sig = ((sig << SIG_SHIFT) ^ (entry[0] & SIG_DELTA_MASK)) & SIG_MASK
        return out

    def _nl_candidates(self, block: int, mpki: float) -> list[int]:
        if mpki >= self.config.nl_mpki_gate:
            return []
        degree = self.throttles[FE_NL].degree
        return [block + k for k in range(1, degree + 1)]

    # ------------------------------------------------------------ emission

    def _emit(self, targets: list[int], pf_class: int, block: int,
              out: list[PrefetchRequest]) -> None:
        """Page-policy check + RR filter, then append requests."""
        blind = self.config.page_policy == "blind"
        page = block // BLOCKS_PER_PAGE
        throttle = self.throttles[pf_class]
        if throttle.degree < throttle.default_degree:
            self.bump("throttle_truncations")
        for target in targets:
            if target < 0:
                continue
            if blind and target // BLOCKS_PER_PAGE != page:
                self.bump("page_drops")
                continue
            if self.rr_filter.check_and_insert(target):
                self.bump("rr_filter_drops")
                continue
            out.append(PrefetchRequest(addr=target << 6, pf_class=pf_class))

    def on_access(self, ctx: AccessContext) -> list[PrefetchRequest]:
        """Observe one fetch-block transition; return prefetches."""
        block = ctx.addr >> 6
        self.rr_filter.insert(block)
        if self._last_block is not None and block != self._last_block:
            delta = block - self._last_block
            self._train_bt(self._last_block, delta)
            self._train_cspt(delta)
        self._train_rst(block)
        self._last_block = block

        candidates = {
            FE_GS: self._gs_candidates(block),
            FE_CS: self._cs_candidates(block),
            FE_CPLX: self._cplx_candidates(block),
            FE_NL: self._nl_candidates(block, ctx.mpki),
        }
        out: list[PrefetchRequest] = []
        claimed = False
        for pf_class in (FE_GS, FE_CS, FE_CPLX, FE_NL):
            targets = candidates[pf_class]
            if not targets or claimed:
                continue
            self._emit(targets, pf_class, block, out)
            # A low-accuracy winner lets the next class try as well.
            if not self.throttles[pf_class].low_accuracy:
                claimed = True
        return out

    # ------------------------------------------------------------ feedback

    def on_prefetch_fill(self, addr: int, pf_class: int) -> None:
        """Count a filled prefetch toward its class's accuracy epoch."""
        throttle = self.throttles.get(pf_class)
        if throttle is not None:
            throttle.on_fill()
        self.bump("pf_fills")

    def on_prefetch_hit(self, addr: int, pf_class: int) -> None:
        """Credit a demand hit on a prefetched block to its class."""
        throttle = self.throttles.get(pf_class)
        if throttle is not None:
            throttle.on_hit()
        self.bump("pf_hits")
