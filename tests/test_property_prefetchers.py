"""Property-based fuzzing of prefetcher contracts.

Hypothesis generates arbitrary access sequences; every registered
prefetcher must keep its request contract (no crashes, legal addresses,
9-bit metadata, bounded bursts) no matter what it observes — the
:func:`repro.verify.invariants.check_invariants` audit that
``repro verify`` runs, driven by random inputs.
"""

from hypothesis import given, settings, strategies as st

from repro.prefetchers import make_prefetcher
from repro.sim.trace import LOAD, STORE, Trace
from repro.verify.invariants import CROSS_PAGE_PREFETCHERS, check_invariants

# Keep a fast, representative subset for fuzzing (the full registry is
# covered deterministically in test_validate.py).
FUZZED = ["ipcp", "spp_l1", "bop", "mlop_l1", "bingo_l1", "vldp",
          "sandbox", "tskid_l1", "dol_l1"]

records = st.lists(
    st.tuples(
        st.sampled_from([LOAD, STORE]),
        st.integers(min_value=0x400, max_value=0x400 + 4096),
        st.integers(min_value=64, max_value=(1 << 34) - 1),
        st.just(0),
    ),
    min_size=1,
    max_size=120,
)


@settings(deadline=None, max_examples=15)
@given(data=records)
def test_fuzzed_access_streams_keep_the_contract(data):
    trace = Trace(data, name="fuzz")
    for name in FUZZED:
        config = make_prefetcher(name)
        for level, factory in config.items():
            report = check_invariants(
                factory(), trace,
                allow_cross_page=name in CROSS_PAGE_PREFETCHERS,
                with_feedback=False,
            )
            assert report.ok, (name, level, report.describe())


@settings(deadline=None, max_examples=15)
@given(data=records)
def test_fuzzed_ipcp_internal_state_stays_bounded(data):
    from repro.core import IpcpConfig, IpcpL1
    from repro.prefetchers.base import AccessContext, AccessType

    pf = IpcpL1(IpcpConfig(enable_temporal=True))
    for i, (kind, ip, addr, _) in enumerate(data):
        ctx = AccessContext(
            ip=ip, addr=addr, cache_hit=False,
            kind=AccessType.LOAD if kind == LOAD else AccessType.STORE,
            cycle=i * 7, mpki=25.0,
        )
        pf.on_access(ctx)
    # Hardware-bounded structures never grow past their geometry.
    assert len(pf.rst._table) <= pf.config.rst_entries
    assert len(pf.rr_filter) <= pf.config.rr_entries
    assert len(pf.temporal) <= pf.config.temporal_entries
    for throttle in pf.throttles.values():
        assert 1 <= throttle.degree <= max(
            throttle.default_degree, 1
        )


@settings(deadline=None, max_examples=10)
@given(
    data=records,
    hits=st.lists(st.booleans(), min_size=1, max_size=120),
)
def test_fuzzed_feedback_never_crashes(data, hits):
    from repro.prefetchers.composite import spp_ppf_dspatch

    pf = spp_ppf_dspatch()
    for (kind, ip, addr, _), hit in zip(data, hits):
        pf.on_prefetch_fill(addr, 0)
        if hit:
            pf.on_prefetch_hit(addr, 0)
        pf.on_fill(addr, was_prefetch=hit, metadata=0, evicted_addr=None)
