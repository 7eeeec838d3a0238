"""Batched columnar engine: fallback contract, equivalence, reach."""

from __future__ import annotations

import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.analysis import sweep_system
from repro.memsys.hierarchy import build_hierarchy
from repro.params import SystemParams
from repro.prefetchers import build_levels
from repro.sim.batched import (
    DEFAULT_CHUNK_RECORDS,
    simulate_batched,
    support_reason,
)
from repro.sim.engine import simulate
from repro.sim.trace import BRANCH, LOAD, OTHER, STORE, Trace
from repro.workloads import spec_trace


@pytest.fixture(scope="module")
def small_trace() -> Trace:
    return spec_trace("lbm_like", 0.05)


class TestEngineSelector:
    def test_simulate_dispatches_on_engine(self, small_trace):
        assert support_reason(
            small_trace, *build_levels("ipcp"), SystemParams(), None,
        ) is None
        scalar = simulate(small_trace, *build_levels("ipcp"))
        batched = simulate(small_trace, *build_levels("ipcp"),
                           engine="batched")
        assert scalar == batched

    def test_simulate_rejects_unknown_engine(self, small_trace):
        with pytest.raises(ConfigurationError):
            simulate(small_trace, engine="turbo")

    def test_only_simulate_loads_the_batched_engine(self):
        # The runner, the CLI and the claim registry always simulate
        # scalar, so none of them may import the batched engine.
        code = (
            "import sys\n"
            "import repro, repro.cli, repro.paperclaims, repro.runner\n"
            "from repro.runner import SimulationRunner, levels_job\n"
            "from repro.workloads import spec_trace\n"
            "spec = levels_job(spec_trace('lbm_like', 0.02), 'ipcp')\n"
            "[result] = SimulationRunner().run([spec])\n"
            "assert result.instructions > 0\n"
            "assert 'repro.sim.batched' not in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestFallbackContract:
    def test_supported_config_has_no_reason(self, small_trace):
        assert support_reason(
            small_trace, *build_levels("ipcp"), SystemParams(), None,
        ) is None

    def test_custom_hierarchy_forces_fallback(self, small_trace):
        params = SystemParams()
        hierarchy = build_hierarchy(params)
        assert support_reason(
            small_trace, None, None, None, params, hierarchy,
        ) == "caller-supplied hierarchy"
        result = simulate_batched(small_trace, params=params,
                                  hierarchy=hierarchy)
        assert result == simulate(small_trace,
                                  hierarchy=build_hierarchy(params))

    def test_non_lru_replacement_forces_fallback(self, small_trace):
        params = sweep_system(replacement="srrip")
        assert support_reason(
            small_trace, *build_levels("ipcp"), params, None,
        ) == "llc replacement policy is not lru"
        result = simulate_batched(small_trace, *build_levels("ipcp"),
                                  params=params)
        assert result == simulate(small_trace, *build_levels("ipcp"),
                                  params=params)

    def test_foreign_prefetcher_forces_fallback(self, small_trace):
        l1, l2, llc = build_levels("mlop")
        reason = support_reason(
            small_trace, l1, l2, llc, SystemParams(), None,
        )
        assert reason is not None

    def test_fallback_still_matches_scalar(self, small_trace):
        assert support_reason(
            small_trace, *build_levels("mlop"), SystemParams(), None,
        ) is not None
        scalar = simulate(small_trace, *build_levels("mlop"))
        batched = simulate_batched(small_trace, *build_levels("mlop"))
        assert scalar == batched

    def test_undecodable_trace_forces_fallback(self):
        # An address past uint64 cannot enter the columnar decode; the
        # scalar loop's Python ints still simulate it.
        trace = Trace([(LOAD, 0x400, 1 << 64, 0), (OTHER, 0x404, 0, 0)])
        reason = support_reason(
            trace, *build_levels("ipcp"), SystemParams(), None,
        )
        assert reason.startswith("columnar decode failed")
        batched = simulate_batched(trace, *build_levels("ipcp"))
        assert batched == simulate(trace, *build_levels("ipcp"))

    def test_chunk_records_validated(self, small_trace):
        with pytest.raises(ConfigurationError):
            simulate_batched(small_trace, chunk_records=0)


class TestEquivalence:
    @pytest.mark.parametrize(
        "config", ["none", "ipcp", "ipcp_l1", "ipcp_nl_off"])
    def test_default_parameters(self, small_trace, config):
        scalar = simulate(small_trace, *build_levels(config))
        batched = simulate_batched(small_trace, *build_levels(config))
        assert scalar == batched

    @pytest.mark.parametrize("warmup", [0, 1, 17, 10**9])
    def test_warmup_boundaries(self, small_trace, warmup):
        scalar = simulate(small_trace, *build_levels("ipcp"), warmup=warmup)
        batched = simulate_batched(small_trace, *build_levels("ipcp"),
                                   warmup=warmup)
        assert scalar == batched

    @pytest.mark.parametrize("budget", [0, 1, 777])
    def test_instruction_budget(self, small_trace, budget):
        scalar = simulate(small_trace, *build_levels("ipcp"),
                          max_instructions=budget)
        batched = simulate_batched(small_trace, *build_levels("ipcp"),
                                   max_instructions=budget)
        assert scalar == batched

    @pytest.mark.parametrize("chunk", [1, 7, 64, DEFAULT_CHUNK_RECORDS])
    def test_chunk_sizes(self, small_trace, chunk):
        reference = simulate(small_trace, *build_levels("ipcp"))
        batched = simulate_batched(small_trace, *build_levels("ipcp"),
                                   chunk_records=chunk)
        assert reference == batched

    def test_end_state_matches_scalar(self, small_trace):
        s_l1, s_l2, s_llc = build_levels("ipcp")
        b_l1, b_l2, b_llc = build_levels("ipcp")
        simulate(small_trace, s_l1, s_l2, s_llc)
        simulate_batched(small_trace, b_l1, b_l2, b_llc)
        assert s_l1.stats == b_l1.stats
        assert s_l2.stats == b_l2.stats
        assert vars(s_l1.rr_filter) == vars(b_l1.rr_filter)
        assert [vars(e) for e in s_l1.ip_table._table] == \
               [vars(e) for e in b_l1.ip_table._table]
        assert [vars(e) for e in s_l1.cspt._table] == \
               [vars(e) for e in b_l1.cspt._table]
        assert ([(r, vars(e)) for r, e in s_l1.rst._table.items()]
                == [(r, vars(e)) for r, e in b_l1.rst._table.items()])
        assert [vars(e) for e in s_l2._table] == \
               [vars(e) for e in b_l2._table]

    def test_empty_trace(self):
        trace = Trace([], name="empty")
        assert simulate(trace, *build_levels("ipcp")) == \
            simulate_batched(trace, *build_levels("ipcp"))


class TestColumnsMemoization:
    def test_columns_memoized(self, small_trace):
        assert small_trace.columns() is small_trace.columns()

    def test_slice_rebuilds_columns(self, small_trace):
        head = small_trace[: len(small_trace) // 2]
        parent = small_trace.columns()
        child = head.columns()
        assert child is not parent
        assert len(child) == len(head)


# --------------------------------------------------------------------- #
# Property-based equivalence on randomized short traces
# --------------------------------------------------------------------- #

_IPS = [0x400_100 + 4 * k for k in range(6)]


@st.composite
def random_traces(draw) -> Trace:
    """Short traces mixing strided loads, stores, branches and ALU runs.

    A handful of IPs iterate private strided streams (so the CS/GS
    classifiers actually train), interleaved with dependent-ALU runs
    (exercising the ROB/dependency gap kernels) and branches
    (exercising the mispredict path).
    """
    cursors = {ip: 0x1000_0000 + 0x10_000 * k for k, ip in enumerate(_IPS)}
    strides = {
        ip: draw(st.integers(min_value=-3, max_value=8), label=f"stride{k}")
        for k, ip in enumerate(_IPS)
    }
    records = []
    for _ in range(draw(st.integers(min_value=1, max_value=60))):
        choice = draw(st.integers(min_value=0, max_value=9))
        if choice < 5:
            ip = _IPS[draw(st.integers(0, len(_IPS) - 1))]
            kind = STORE if choice == 4 else LOAD
            records.append((kind, ip, cursors[ip] or 64, 0))
            cursors[ip] += strides[ip] * 64
            if cursors[ip] <= 0:
                cursors[ip] = 0x2000_0000
        elif choice < 7:
            records.append((BRANCH, 0x400_200 + 8 * choice, 0, 0))
        else:
            dep = draw(st.integers(0, 1))
            for j in range(draw(st.integers(1, 12))):
                records.append((OTHER, 0x400_300, 0, dep if j == 0 else 0))
    return Trace(records, name="hyp")


class TestPropertyEquivalence:
    @given(trace=random_traces(),
           config=st.sampled_from(["none", "ipcp"]),
           warmup=st.one_of(st.none(), st.integers(0, 80)),
           budget=st.one_of(st.none(), st.integers(0, 200)),
           chunk=st.sampled_from([3, 64, DEFAULT_CHUNK_RECORDS]))
    @settings(max_examples=40, deadline=None)
    def test_random_traces_bit_identical(self, trace, config, warmup,
                                         budget, chunk):
        scalar = simulate(trace, *build_levels(config),
                          warmup=warmup, max_instructions=budget)
        assert support_reason(
            trace, *build_levels(config), SystemParams(), None,
        ) is None
        batched = simulate_batched(trace, *build_levels(config),
                                   warmup=warmup, max_instructions=budget,
                                   chunk_records=chunk)
        assert scalar == batched

    def test_throttle_epochs_covered(self):
        # A trace long enough that at least one per-class accuracy
        # epoch (EPOCH_FILLS prefetch fills) rolls over; the epoch
        # boundary must land on the same record under both engines.
        trace = spec_trace("lbm_like", 0.5)
        s_l1, s_l2, s_llc = build_levels("ipcp")
        b_l1, b_l2, b_llc = build_levels("ipcp")
        rolls = []
        for throttle in s_l1.throttles.values():
            def counted(close=throttle._close_epoch):
                rolls.append(1)
                close()
            throttle._close_epoch = counted
        assert support_reason(
            trace, b_l1, b_l2, b_llc, SystemParams(), None,
        ) is None
        scalar = simulate(trace, s_l1, s_l2, s_llc)
        batched = simulate_batched(trace, b_l1, b_l2, b_llc)
        assert rolls, "trace too short to roll a single throttle epoch"
        assert scalar == batched
        for pf_class, throttle in s_l1.throttles.items():
            twin = b_l1.throttles[pf_class]
            for field in ("degree", "epoch_fills", "epoch_hits",
                          "accuracy"):
                assert getattr(throttle, field) == getattr(twin, field)
