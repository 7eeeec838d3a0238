"""Tests for the synthetic workload generators."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.trace import LOAD, OTHER, STORE
from repro.workloads import (
    GAP_BENCHMARKS,
    SPEC_BENCHMARKS,
    STREAM_BENCHMARKS,
    cloudsuite_suite,
    full_suite,
    gap_trace,
    heterogeneous_mixes,
    homogeneous_mix,
    memory_intensive_suite,
    mix_trace,
    neural_suite,
    spec_trace,
    stream_trace,
)
from repro.workloads import cloudsuite, neural, spec
from repro.workloads.cloudsuite import CLOUDSUITE_BENCHMARKS, cloudsuite_trace
from repro.workloads.neural import NEURAL_BENCHMARKS, neural_trace
from repro.workloads.patterns import (
    MAX_RING,
    WorkloadBuilder,
    complex_stride_pattern,
    dense_region_burst,
    pointer_chase,
    ring_prefix,
    shuffle,
    stream_pattern,
    strided_pattern,
)
from repro.workloads.spec import EXTENSION_BENCHMARKS, builder_loads


class TestWorkloadBuilder:
    def test_ips_are_stable_per_role(self):
        builder = WorkloadBuilder("t")
        assert builder.ip("a") == builder.ip("a")
        assert builder.ip("a") != builder.ip("b")

    def test_load_adds_alu_padding(self):
        builder = WorkloadBuilder("t", alu_per_load=3)
        builder.load("x", 0x1000)
        assert len(builder.records) == 4

    def test_first_alu_depends_on_load(self):
        builder = WorkloadBuilder("t", alu_per_load=2)
        builder.load("x", 0x1000)
        deps = [r[3] for r in builder.records]
        assert deps == [0, 1, 0]

    def test_build_produces_named_trace(self):
        builder = WorkloadBuilder("myname")
        builder.load("x", 0x1000)
        assert builder.build().name == "myname"

    def test_rejects_negative_alu(self):
        with pytest.raises(ConfigurationError):
            WorkloadBuilder("t", alu_per_load=-1)


class TestPatterns:
    def test_stream_is_sequential(self):
        builder = WorkloadBuilder("t", alu_per_load=0)
        stream_pattern(builder, "s", 0x1000, 16)
        addrs = [r[2] for r in builder.records]
        assert addrs == [0x1000 + 8 * i for i in range(16)]

    def test_strided_pattern_line_stride(self):
        builder = WorkloadBuilder("t", alu_per_load=0)
        strided_pattern(builder, "s", 0x1000, 4, stride_lines=3,
                        loads_per_stop=1)
        lines = [r[2] >> 6 for r in builder.records]
        assert lines == [64, 67, 70, 73]

    def test_complex_stride_sequence(self):
        builder = WorkloadBuilder("t", alu_per_load=0)
        complex_stride_pattern(builder, "s", 0x1000, 6, (1, 2),
                               loads_per_stop=1)
        lines = [r[2] >> 6 for r in builder.records]
        deltas = [b - a for a, b in zip(lines, lines[1:])]
        assert deltas == [1, 2, 1, 2, 1]

    def test_pointer_chase_is_dependent(self):
        builder = WorkloadBuilder("t", alu_per_load=0)
        pointer_chase(builder, "p", 0x10_0000, 64, 32)
        assert all(r[3] == 1 for r in builder.records if r[0] == LOAD)

    def test_dense_burst_touches_every_region_line(self):
        builder = WorkloadBuilder("t", alu_per_load=0)
        dense_region_burst(builder, ["a", "b"], 0x10_0000, regions=1,
                           loads_per_line=1)
        lines = {r[2] >> 6 for r in builder.records}
        assert len(lines) == 32  # all lines of the 2 KB region

    def test_empty_stride_sequence_rejected(self):
        builder = WorkloadBuilder("t")
        with pytest.raises(ConfigurationError):
            complex_stride_pattern(builder, "s", 0x1000, 4, ())


class TestSpecSuite:
    def test_all_benchmarks_build(self):
        for name in SPEC_BENCHMARKS:
            trace = spec_trace(name, scale=0.05)
            assert len(trace) > 0
            trace.validate()

    def test_deterministic_given_seed(self):
        a = spec_trace("lbm_like", 0.05, seed=3)
        b = spec_trace("lbm_like", 0.05, seed=3)
        assert list(a) == list(b)

    def test_scale_controls_length(self):
        # Generators emit whole episodes, so compare scales far enough
        # apart to guarantee extra episodes.
        small = spec_trace("gcc_like", 0.1)
        big = spec_trace("gcc_like", 0.5)
        assert len(big) > len(small)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            spec_trace("not_a_benchmark")

    def test_memory_intensive_subset(self):
        intensive = memory_intensive_suite(scale=0.02)
        everything = full_suite(scale=0.02)
        assert 0 < len(intensive) < len(everything)
        names = {t.name for t in intensive}
        assert "xalancbmk_like" not in names  # the paper's outlier

    def test_lbm_contains_stores(self):
        trace = spec_trace("lbm_like", 0.05)
        assert any(kind == STORE for kind, _, _, _ in trace)

    def test_omnetpp_loads_are_dependent(self):
        trace = spec_trace("omnetpp_like", 0.05)
        chase_loads = [r for r in trace if r[0] == LOAD and r[3] == 1]
        assert len(chase_loads) > len(trace) // 20

    def test_cactu_has_many_distinct_ips(self):
        trace = spec_trace("cactu_like", 0.3)
        ips = {ip for kind, ip, _, _ in trace if kind == LOAD}
        assert len(ips) > 256  # defeats a 64-entry IP table


class TestCloudAndNeural:
    def test_cloudsuite_builds_five_traces(self):
        suite = cloudsuite_suite(scale=0.02)
        assert len(suite) == len(CLOUDSUITE_BENCHMARKS) == 5

    def test_cloudsuite_has_large_code_footprint(self):
        trace = cloudsuite_trace("cassandra_like", 0.2)
        ips = {ip for kind, ip, _, _ in trace if kind == LOAD}
        assert len(ips) > 128

    def test_neural_builds_seven_traces(self):
        suite = neural_suite(scale=0.02)
        assert len(suite) == len(NEURAL_BENCHMARKS) == 7

    def test_neural_traces_are_streaming(self):
        trace = neural_trace("vgg19_like", 0.1)
        loads = [addr for kind, _, addr, _ in trace if kind == LOAD]
        lines = {a >> 6 for a in loads}
        # Streaming: lines touched ~ loads / (loads per line), i.e. low reuse.
        assert len(lines) > len(loads) // 20


class TestGapAndStream:
    def test_all_gap_benchmarks_build(self):
        for name in GAP_BENCHMARKS:
            trace = gap_trace(name, scale=0.05)
            assert len(trace) > 0
            trace.validate()

    def test_all_stream_benchmarks_build(self):
        for name in STREAM_BENCHMARKS:
            trace = stream_trace(name, scale=0.05)
            assert len(trace) > 0
            trace.validate()

    def test_gap_traversals_have_dependent_loads(self):
        trace = gap_trace("bfs_like", 0.05)
        dependent = [r for r in trace if r[0] == LOAD and r[3] == 1]
        assert len(dependent) > len(trace) // 20

    def test_stream_kernels_are_sequential(self):
        trace = stream_trace("stream_copy", 0.05)
        loads = [addr for kind, _, addr, _ in trace if kind == LOAD]
        lines = {a >> 6 for a in loads}
        # Streaming: nearly one new line per 8 loads, low reuse.
        assert len(lines) > len(loads) // 20

    def test_stream_kernels_write_results(self):
        for name in ("stream_copy", "stream_triad"):
            trace = stream_trace(name, 0.05)
            assert any(kind == STORE for kind, _, _, _ in trace)

    def test_deterministic_given_seed(self):
        assert list(gap_trace("sssp_like", 0.05, seed=3)) == \
               list(gap_trace("sssp_like", 0.05, seed=3))
        assert list(stream_trace("stream_add", 0.05, seed=3)) == \
               list(stream_trace("stream_add", 0.05, seed=3))

    def test_unknown_names_raise(self):
        with pytest.raises(ConfigurationError):
            gap_trace("pagerank_like")
        with pytest.raises(ConfigurationError):
            stream_trace("stream_reverse")

    def test_mix_trace_resolves_all_registries(self):
        assert mix_trace("lbm_like", 0.02).name == "lbm_like"
        assert mix_trace("bfs_like", 0.02).name == "bfs_like"
        assert mix_trace("stream_scale", 0.02).name == "stream_scale"
        with pytest.raises(ConfigurationError):
            mix_trace("not_a_benchmark", 0.02)


class TestMixes:
    def test_homogeneous_mix_replicates_trace(self):
        mix = homogeneous_mix("lbm_like", 4, scale=0.02)
        assert len(mix) == 4
        assert len({t.name for t in mix}) == 1

    def test_heterogeneous_mixes_are_seeded(self):
        a = heterogeneous_mixes(3, 2, scale=0.02, seed=5)
        b = heterogeneous_mixes(3, 2, scale=0.02, seed=5)
        assert [[t.name for t in mix] for mix in a] == \
               [[t.name for t in mix] for mix in b]

    def test_memory_intensive_pool_restriction(self):
        mixes = heterogeneous_mixes(
            8, 2, memory_intensive_only=True, scale=0.02
        )
        intensive = {
            name for name, (_, flag, _) in SPEC_BENCHMARKS.items() if flag
        }
        for mix in mixes:
            assert all(t.name in intensive for t in mix)

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigurationError):
            homogeneous_mix("lbm_like", 0)


def _assert_shuffle_matches_stdlib(n: int, seed: int) -> None:
    expected, reference = list(range(n)), random.Random(seed)
    reference.shuffle(expected)
    items, rng = list(range(n)), random.Random(seed)
    shuffle(rng, items)
    assert items == expected, (n, seed)
    assert rng.getstate() == reference.getstate(), (n, seed)


class TestShuffle:
    """The helper draws exactly what ``random.Random.shuffle`` draws."""

    @pytest.mark.parametrize("seed", range(4))
    def test_every_small_length(self, seed):
        for n in range(71):
            _assert_shuffle_matches_stdlib(n, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_power_of_two_band_edges(self, seed):
        for k in range(18):
            for n in (2**k - 1, 2**k, 2**k + 1):
                _assert_shuffle_matches_stdlib(n, seed)

    @pytest.mark.parametrize("n", [12_288, 49_152, 65_536, 98_304, 131_072])
    def test_generator_pool_sizes(self, n):
        for seed in range(4):
            _assert_shuffle_matches_stdlib(n, seed)

    @given(n=st.integers(0, 5000), seed=st.integers(0, 2**32 - 1))
    def test_matches_stdlib_property(self, n, seed):
        _assert_shuffle_matches_stdlib(n, seed)


def _assert_ring_prefix_matches_shuffle(n: int, counts, seed: int) -> None:
    expected, reference = list(range(n)), random.Random(seed)
    shuffle(reference, expected)
    for count in counts:
        rng = random.Random(seed)
        assert ring_prefix(rng, n, count) == expected[:count], (n, count, seed)
        assert rng.getstate() == reference.getstate(), (n, count, seed)


@st.composite
def _ring_and_count(draw):
    n = draw(st.integers(0, 20_000))
    return n, draw(st.integers(0, n + 5))


class _CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``getrandbits`` calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


class TestRingPrefix:
    """``ring_prefix`` returns a prefix of ``shuffle``'s ring and leaves
    the rng where ``shuffle`` leaves it."""

    @pytest.mark.parametrize("seed", range(3))
    def test_every_small_length(self, seed):
        for n in range(71):
            counts = {0, 1, 3, max(n - 1, 0), n, n + 5}
            _assert_ring_prefix_matches_shuffle(n, counts, seed)

    @pytest.mark.parametrize("seed", range(2))
    def test_power_of_two_band_edges(self, seed):
        for k in range(18):
            for n in (2**k - 1, 2**k, 2**k + 1):
                counts = {0, 1, 3, 64, max(n - 1, 0), n}
                _assert_ring_prefix_matches_shuffle(n, counts, seed)

    @pytest.mark.parametrize("n", [12_288, 49_152, 65_536, 98_304, 131_072])
    def test_generator_pool_sizes(self, n):
        _assert_ring_prefix_matches_shuffle(
            n, (64, 128, 160, 192, 256, 384), seed=7)

    @given(ring=_ring_and_count(), seed=st.integers(0, 2**32 - 1))
    def test_matches_shuffle_property(self, ring, seed):
        n, count = ring
        _assert_ring_prefix_matches_shuffle(n, (count,), seed)

    def test_draws_words_in_bulk(self):
        bulk, reference = _CountingRandom(7), _CountingRandom(7)
        ring_prefix(bulk, 131_072, 384)
        shuffle(reference, list(range(131_072)))
        assert reference.calls > 131_072
        assert bulk.calls * 50 <= reference.calls
        assert bulk.getstate() == reference.getstate()

    @pytest.mark.parametrize("n, count", [(-1, 0), (MAX_RING + 1, 0),
                                          (5, -1)])
    def test_rejects_sizes_out_of_range(self, n, count):
        with pytest.raises(ConfigurationError):
            ring_prefix(random.Random(0), n, count)

    @pytest.mark.parametrize("pool, count", [(1000, 64), (64, 200)])
    def test_pointer_chase_walks_the_shuffled_ring(self, pool, count):
        builder = WorkloadBuilder("t", seed=3, alu_per_load=0)
        pointer_chase(builder, "p", 0x10_0000, pool, count)
        ring = list(range(pool))
        shuffle(random.Random(3), ring)
        assert [record[2] for record in builder.records] == [
            0x10_0000 + ring[i % pool] * 64 for i in range(count)]


def _builder_generators(scale: float = 0.05):
    """One (generator, alu_per_load, loads) param per builder generator."""
    loads = max(1, int(spec.DEFAULT_LOADS * scale))
    for registry in (SPEC_BENCHMARKS, GAP_BENCHMARKS, STREAM_BENCHMARKS,
                     EXTENSION_BENCHMARKS):
        for name, (generator, _, alu) in registry.items():
            yield pytest.param(generator, alu, loads, id=name)
    for registry, alu, default in (
        (CLOUDSUITE_BENCHMARKS, 5, cloudsuite.DEFAULT_LOADS),
        (NEURAL_BENCHMARKS, 10, neural.DEFAULT_LOADS),
    ):
        for name, generator in registry.items():
            yield pytest.param(generator, alu, max(1, int(default * scale)),
                               id=name)


class TestGenerationCost:
    @pytest.mark.parametrize("generator, alu, loads", _builder_generators())
    def test_load_counter_matches_load_records(self, generator, alu, loads):
        builder = WorkloadBuilder("t", seed=7, alu_per_load=alu)
        generator(builder, loads)
        emitted = sum(1 for record in builder.records if record[0] == LOAD)
        assert builder.loads == builder_loads(builder) == emitted

    @pytest.mark.parametrize("generator, alu, loads", _builder_generators())
    def test_built_records_are_canonical(self, generator, alu, loads):
        # build() skips Trace's normalisation, so every emitted record
        # must already be a 4-tuple with an int dep of 0 or 1.
        builder = WorkloadBuilder("t", seed=7, alu_per_load=alu)
        generator(builder, loads)
        trace = builder.build()
        assert len(trace) == len(builder.records)
        assert [record for record in trace
                if type(record) is not tuple or len(record) != 4
                or type(record[3]) is not int or record[3] not in (0, 1)
                ] == []

    def test_padding_records_are_shared_per_role(self):
        trace = spec_trace("lbm_like", 0.1)
        alu = SPEC_BENCHMARKS["lbm_like"][2]
        load_roles = {ip for kind, ip, _, _ in trace if kind == LOAD}
        padding = {id(record) for record in trace if record[0] == OTHER}
        assert len(padding) <= len(load_roles) * alu


class TestTraceContentPin:
    def test_digest_over_every_generator(self, pin_drift):
        # The ``traces`` pins: every generator's trace_signature at scale
        # 0.05, seeds 7 and 8.  A generator edit that moves any record,
        # IP or rng draw moves its entries; a change to how records are
        # assembled must not.
        assert pin_drift("traces") == []
