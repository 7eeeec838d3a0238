"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.cspt import update_signature
from repro.core.ip_table import SIGNATURE_MASK, clamp_stride
from repro.core.ipcp_l1 import IpcpL1, PfClass
from repro.core.metadata import MetaClass, decode_metadata, encode_metadata
from repro.core.rst import DIRECTION_MID, GS_TRAIN_THRESHOLD
from repro.core.throttle import ClassThrottle
from repro.memsys.cache import Cache
from repro.memsys.dram import Dram
from repro.memsys.hierarchy import DramPort
from repro.memsys.vmem import VirtualMemory
from repro.params import CacheParams, PAGE_SIZE
from repro.prefetchers.base import AccessContext, AccessType
from repro.sim.trace import LOAD, OTHER, Trace, normalize_record

lines = st.integers(min_value=0, max_value=(1 << 40) - 1)
strides = st.integers(min_value=-200, max_value=200)


def _demand(pf, ip, line, mpki=80.0):
    """One demand load through the production L1 pipeline."""
    return pf.on_access(AccessContext(ip=ip, addr=line << 6, cache_hit=False,
                                      kind=AccessType.LOAD, cycle=0,
                                      mpki=mpki))


class TestMetadataProperties:
    @given(
        meta_class=st.sampled_from(list(MetaClass)),
        stride=st.integers(min_value=-63, max_value=63),
    )
    def test_encode_decode_roundtrip(self, meta_class, stride):
        decoded_class, decoded_stride = decode_metadata(
            encode_metadata(meta_class, stride)
        )
        assert decoded_class is meta_class
        assert decoded_stride == stride

    @given(meta_class=st.sampled_from(list(MetaClass)), stride=strides)
    def test_packet_always_nine_bits(self, meta_class, stride):
        assert 0 <= encode_metadata(meta_class, stride) < 512


class TestStrideProperties:
    @given(stride=strides)
    def test_clamp_is_idempotent_and_bounded(self, stride):
        clamped = clamp_stride(stride)
        assert -63 <= clamped <= 63
        assert clamp_stride(clamped) == clamped

    @given(signature=st.integers(min_value=0, max_value=SIGNATURE_MASK),
           stride=strides)
    def test_signature_stays_seven_bits(self, signature, stride):
        assert 0 <= update_signature(signature, stride) <= SIGNATURE_MASK


class TestVmemProperties:
    @given(addrs=st.lists(st.integers(min_value=0, max_value=(1 << 44) - 1),
                          min_size=1, max_size=200))
    def test_translation_is_a_function(self, addrs):
        vmem = VirtualMemory(seed=3)
        first = [vmem.translate(a) for a in addrs]
        second = [vmem.translate(a) for a in addrs]
        assert first == second

    @given(addr=st.integers(min_value=0, max_value=(1 << 44) - 1))
    def test_page_offset_preserved(self, addr):
        vmem = VirtualMemory(seed=3)
        assert vmem.translate(addr) % PAGE_SIZE == addr % PAGE_SIZE

    @given(vpages=st.lists(st.integers(min_value=0, max_value=1 << 30),
                           min_size=2, max_size=100, unique=True))
    def test_distinct_pages_get_distinct_frames(self, vpages):
        vmem = VirtualMemory(seed=3)
        frames = [vmem.translate(v * PAGE_SIZE) >> 12 for v in vpages]
        assert len(set(frames)) == len(frames)


class TestRrFilterProperties:
    @given(values=st.lists(lines, min_size=1, max_size=200))
    def test_capacity_never_exceeded(self, values):
        pf = IpcpL1()
        for value in values:
            _demand(pf, 0x400, value, mpki=10.0)
            assert len(pf.rr_filter._fifo) <= 32

    @given(value=lines)
    def test_insert_then_contains(self, value):
        pf = IpcpL1()
        _demand(pf, 0x400, value)
        assert pf.rr_filter._tag(value) in pf.rr_filter._fifo


class TestThrottleProperties:
    @given(outcomes=st.lists(st.booleans(), min_size=1, max_size=2000))
    def test_degree_stays_in_range(self, outcomes):
        # The L1's feedback hooks count epochs inline; IPCP-I calls
        # the throttle's own methods.  Both must stay in range and agree.
        pf = IpcpL1()
        inline = pf.throttles[PfClass.GS]
        throttle = ClassThrottle(6)
        for useful in outcomes:
            if useful:
                pf.on_prefetch_hit(0, int(PfClass.GS))
                throttle.on_hit()
            pf.on_prefetch_fill(0, int(PfClass.GS))
            throttle.on_fill()
            assert 1 <= inline.degree <= 6
            assert inline == throttle


class TestRstProperties:
    @given(observations=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5),
                  st.integers(min_value=0, max_value=31)),
        min_size=1, max_size=500))
    def test_counters_and_capacity_invariants(self, observations):
        pf = IpcpL1()
        for region, offset in observations:
            _demand(pf, 0x400, (0x1000 + region) * 32 + offset)
            assert len(pf.rst._table) <= 8
            for entry in pf.rst._table.values():
                touched = entry.bit_vector.bit_count()
                assert 0 <= entry.pos_neg_count <= 63
                assert touched <= 32
                assert entry.trained == (touched >= GS_TRAIN_THRESHOLD)
                assert entry.dense == entry.trained
                assert entry.direction == (
                    1 if entry.pos_neg_count >= DIRECTION_MID else -1)


class TestCacheProperties:
    @settings(deadline=None, max_examples=30)
    @given(accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=255),
                  st.booleans()),
        min_size=1, max_size=300))
    def test_accounting_identities(self, accesses):
        params = CacheParams("T", 8 * 2 * 64, 2, 1, 4, 4)
        cache = Cache(params, DramPort(Dram()))
        cycle = 0
        for line, is_store in accesses:
            cycle += 30
            cache.demand(line * 64, cycle, not is_store, 0)
        stats = cache.stats
        assert stats.demand_hits + stats.demand_misses == stats.demand_accesses
        assert stats.uncovered_misses <= stats.demand_misses
        assert 0.0 <= stats.miss_ratio <= 1.0

    @settings(deadline=None, max_examples=30)
    @given(seq=st.lists(st.integers(min_value=0, max_value=63),
                        min_size=1, max_size=200))
    def test_monotone_ready_times_per_line(self, seq):
        params = CacheParams("T", 4 * 2 * 64, 2, 1, 4, 4)
        cache = Cache(params, DramPort(Dram()))
        cycle = 0
        for line in seq:
            cycle += 10
            ready = cache.demand(line * 64, cycle, True, 0)
            assert ready >= cycle  # data can never be ready in the past


class TestIpTableProperties:
    @given(ips=st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1),
                        min_size=1, max_size=300))
    def test_hysteresis_tracks_at_most_one_ip_per_slot(self, ips):
        pf = IpcpL1()
        slots = pf.ip_table._table
        for line, ip in enumerate(ips, start=1):
            index, tag = ip & 63, (ip >> 6) & 0x1FF
            before = slots[index]
            challenged = (before.valid
                          and not (before.seen_once and before.tag == tag))
            _demand(pf, ip, line)
            after = slots[index]
            if challenged:
                # The incumbent survives the challenge, invalidated.
                assert after is before and not after.valid
            else:
                # The IP owns (or takes) its slot, valid.
                assert after.seen_once and after.tag == tag and after.valid


class TestTraceProperties:
    @given(records=st.lists(
        st.tuples(st.sampled_from([LOAD, OTHER]),
                  st.integers(min_value=1, max_value=1 << 30),
                  st.integers(min_value=64, max_value=1 << 30),
                  st.integers(min_value=0, max_value=1)),
        min_size=1, max_size=100))
    def test_normalisation_is_idempotent(self, records):
        once = [normalize_record(r) for r in records]
        twice = [normalize_record(r) for r in once]
        assert once == twice

    @given(records=st.lists(
        st.tuples(st.sampled_from([LOAD, OTHER]),
                  st.integers(min_value=1, max_value=1 << 30),
                  st.integers(min_value=64, max_value=1 << 30),
                  st.integers(min_value=0, max_value=1)),
        min_size=1, max_size=50))
    def test_serialisation_roundtrip(self, records, tmp_path_factory):
        from repro.ingest import ingest_binary, write_binary
        trace = Trace(records)
        path = str(tmp_path_factory.mktemp("traces") / "t.rib")
        write_binary(trace, path)
        assert list(ingest_binary(path)) == list(trace)


# --------------------------------------------------------------------- #
# Metamorphic properties: transforms the mechanisms must be blind to
# --------------------------------------------------------------------- #

# A synthetic access is (ip index into a small pool, page 0..3, line
# offset 0..63).  Pages 0..3 have distinct 2-LSB virtual page numbers,
# which is all the CS stride logic is allowed to observe.
_accesses = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=63)),
    min_size=10, max_size=150,
)
_IPS = (0x400_1b0, 0x400_5c4, 0x401_088)
_BASE_PAGE = 0x100  # keep line numbers nonzero (0 is the unseen sentinel)


def _addr(page: int, offset: int) -> int:
    return (_BASE_PAGE + page) * PAGE_SIZE + offset * 64


def _oracle_relative_stream(pairs, mpki: float = 20.0):
    """Relative bouquet decisions: (class, delta, meta) per access.

    Uses the oracle with an *exact-tag* RR filter: the production
    12-bit partial tag is the one deliberately address-dependent piece
    of IPCP (aliasing changes under translation), and the lockstep
    differ already pins it.  With exact tags, "recently requested" is a
    pure property of line equality, which translation preserves.
    """
    from repro.verify.oracles import OracleIpcpL1, OracleRrFilter

    oracle = OracleIpcpL1()
    oracle.rr = OracleRrFilter(entries=32, tag_bits=64)
    stream = []
    for ip, addr in pairs:
        line = addr >> 6
        decision = oracle.step(ip, addr, mpki)
        stream.append(tuple(
            (pf_class, target - line, meta_class, meta_stride)
            for target, pf_class, meta_class, meta_stride in decision.requests
        ))
    return stream


def _cs_nl_stream(pairs):
    """Per-access CS classifier state + NL gate, from the partial view.

    The hardware CS path observes only (line offset within page, 2 LSBs
    of the virtual page); NL observes only the offset.  This helper
    replays exactly that observable state so renaming transforms that
    preserve it must leave the stream unchanged.
    """
    from repro.verify.oracles import OracleCsClassifier, OracleIpTable

    table = OracleIpTable()
    stream = []
    for ip, addr in pairs:
        state = table.access(ip)
        cs_decision = None
        if state is not None and state.last_line:
            stride = OracleCsClassifier.observe_stride(state, addr)
            if stride != 0:
                OracleCsClassifier.train(state, stride)
            cs_decision = (
                OracleCsClassifier.eligible(state), state.stride,
                state.confidence,
            )
        if state is not None:
            state.last_vpage2 = (addr >> 12) % 4
            state.last_offset = (addr >> 6) % 64
            state.last_line = addr >> 6
        nl_issues = (addr >> 6) % 64 < 63  # next line stays in the page
        stream.append((cs_decision, nl_issues))
    return stream


class TestMetamorphicProperties:
    @given(accesses=_accesses,
           k=st.integers(min_value=1, max_value=1 << 20))
    def test_uniform_offset_leaves_decisions_unchanged(self, accesses, k):
        """Shifting every address by k * 4 pages relabels lines but
        preserves offsets, 2-LSB page adjacency and region structure,
        so the whole bouquet's relative decision stream is unchanged."""
        pairs = [(_IPS[i], _addr(page, off)) for i, page, off in accesses]
        shift = k * 4 * PAGE_SIZE
        moved = [(ip, addr + shift) for ip, addr in pairs]
        assert _oracle_relative_stream(pairs) == _oracle_relative_stream(moved)

    @given(accesses=_accesses,
           renames=st.tuples(*[st.integers(min_value=0, max_value=255)] * 4))
    def test_page_renaming_leaves_cs_nl_streams_unchanged(
            self, accesses, renames):
        """Renaming page p -> p + 4 * renames[p] preserves everything CS
        and NL observe (in-page offsets, 2-LSB page numbers), so their
        decision streams must be identical on the renamed trace."""
        pairs = [(_IPS[i], _addr(page, off)) for i, page, off in accesses]
        renamed = [
            (_IPS[i], _addr(page + 4 * renames[page], off))
            for i, page, off in accesses
        ]
        assert _cs_nl_stream(pairs) == _cs_nl_stream(renamed)

    @given(accesses=_accesses, k=st.integers(min_value=0, max_value=160))
    def test_trace_slicing_matches_record_list_suffix(self, accesses, k):
        """trace[k:] is the same trace as slicing the record list, and
        its summary stats agree with stats recomputed on the suffix."""
        records = [(LOAD, _IPS[i], _addr(page, off), 0)
                   for i, page, off in accesses]
        trace = Trace(records, name="sliced")
        suffix = trace[k:]
        assert list(suffix) == list(trace)[k:]
        assert suffix.name == trace.name
        tail = records[k:]
        assert suffix.load_records == sum(
            1 for kind, _, _, _ in tail if kind == LOAD
        )
        assert suffix.memory_records == len(tail)
        assert suffix.footprint_lines() == len(
            {addr >> 6 for _, _, addr, _ in tail}
        )
