"""Pin the results of every configuration built on the hot prefetchers.

The IPCP L1 bouquet, the IPCP L2 replayer, MLOP and next-line apply
their rules inline for speed.  Golden stats check every cell only in
CI; this digest pins, in tier-1, every registered configuration that
builds one of those four prefetchers.  A change to a prefetcher's
behaviour or to the timing model moves it; a refactor must not.
"""

import hashlib

from repro.analysis.experiments import run_levels
from repro.prefetchers import make_prefetcher
from repro.sim.multicore import simulate_mix
from repro.workloads import spec_trace

# Listed by name, so that a new variant does not move the pin.
PINNED_CONFIGS = (
    "bingo", "ipcp", "ipcp_cplx_deg1", "ipcp_cplx_deg2", "ipcp_cplx_deg4",
    "ipcp_cplx_deg6", "ipcp_cplx_first", "ipcp_cplx_only", "ipcp_cs_cplx",
    "ipcp_cs_cplx_nl", "ipcp_cs_first", "ipcp_cs_only", "ipcp_gs_deg2",
    "ipcp_gs_deg4", "ipcp_gs_deg8", "ipcp_gs_only", "ipcp_l1",
    "ipcp_l1_bingo_l2", "ipcp_l1_bop_l2", "ipcp_l1_ipstride_l2",
    "ipcp_l1_mlop_l2", "ipcp_l1_spp_l2", "ipcp_l1_vldp_l2", "ipcp_llc",
    "ipcp_nl_always", "ipcp_nl_first", "ipcp_nl_off", "ipcp_no_metadata",
    "ipcp_no_throttle", "ipcp_rr128", "ipcp_rr8", "ipcp_tables_2x",
    "ipcp_tables_8x", "ipcp_temporal", "mlop", "mlop_l1", "mlop_l2",
    "next_line", "spp_ppf_dspatch",
)
PINNED_TRACES = ("lbm_like", "gcc_like", "mcf_i_like", "omnetpp_like")

# One digest over the SimResult reprs of every (trace, configuration)
# run, in the order above, then one 2-core IPCP mix.
PREFETCHER_DIGEST = "e35fa99e1567d1f632223528751cd125"


def test_digest_over_pinned_configurations():
    digest = hashlib.blake2b(digest_size=16)
    traces = [spec_trace(name, 0.1) for name in PINNED_TRACES]
    for trace in traces:
        for config in PINNED_CONFIGS:
            digest.update(repr(run_levels(trace, config)).encode())
    ipcp = make_prefetcher("ipcp")
    mix = simulate_mix(traces[:2], ipcp["l1"], ipcp["l2"],
                       warmup=1_000, roi=3_000)
    digest.update(repr(mix).encode())
    assert digest.hexdigest() == PREFETCHER_DIGEST
