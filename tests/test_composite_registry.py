"""Tests for composite prefetchers and the configuration table."""

import pytest

from repro.errors import ConfigurationError
from repro.prefetchers import (
    available_prefetchers,
    build_levels,
    make_prefetcher,
    storage_kb,
)
from repro.prefetchers.base import AccessContext, AccessType, Prefetcher, \
    PrefetchRequest
from repro.prefetchers.composite import CompositePrefetcher

BASE = 1 << 18


class FixedPrefetcher(Prefetcher):
    """Always proposes the same deltas (test double)."""

    def __init__(self, deltas, name="fixed"):
        super().__init__(name=name, storage_bits=100)
        self.deltas = deltas
        self.hook_calls = []

    def on_access(self, ctx):
        line = ctx.addr >> 6
        return [PrefetchRequest(addr=(line + d) << 6) for d in self.deltas]

    def on_prefetch_fill(self, addr, pf_class):
        self.hook_calls.append(("fill", addr))

    def on_prefetch_hit(self, addr, pf_class):
        self.hook_calls.append(("hit", addr))


def ctx():
    return AccessContext(ip=0x400, addr=BASE << 6, cache_hit=False,
                         kind=AccessType.LOAD, cycle=0)


class TestComposite:
    def test_merges_children_proposals(self):
        composite = CompositePrefetcher(
            [FixedPrefetcher([1, 2]), FixedPrefetcher([3])]
        )
        deltas = sorted((r.addr >> 6) - BASE for r in composite.on_access(ctx()))
        assert deltas == [1, 2, 3]

    def test_deduplicates_overlapping_proposals(self):
        composite = CompositePrefetcher(
            [FixedPrefetcher([1, 2]), FixedPrefetcher([2, 3])]
        )
        deltas = sorted((r.addr >> 6) - BASE for r in composite.on_access(ctx()))
        assert deltas == [1, 2, 3]

    def test_first_child_wins_duplicates(self):
        a = FixedPrefetcher([1], name="a")
        b = FixedPrefetcher([1], name="b")
        composite = CompositePrefetcher([a, b])
        requests = composite.on_access(ctx())
        assert len(requests) == 1

    def test_storage_and_name_compose(self):
        composite = CompositePrefetcher(
            [FixedPrefetcher([1], name="a"), FixedPrefetcher([2], name="b")]
        )
        assert composite.name == "a+b"
        assert composite.storage_bits == 200

    def test_feedback_hooks_broadcast(self):
        a = FixedPrefetcher([1], name="a")
        b = FixedPrefetcher([2], name="b")
        composite = CompositePrefetcher([a, b])
        composite.on_prefetch_fill(0x1000, 0)
        composite.on_prefetch_hit(0x1000, 0)
        assert a.hook_calls == b.hook_calls == [
            ("fill", 0x1000), ("hit", 0x1000)
        ]


class TestRegistry:
    def test_all_paper_configurations_registered(self):
        names = available_prefetchers()
        for expected in ["ipcp", "spp_ppf_dspatch", "mlop", "bingo",
                         "tskid", "dol", "next_line", "ip_stride", "bop",
                         "vldp", "spp_l1", "sms_l1", "bingo_l1", "none"]:
            assert expected in names

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(ConfigurationError, match="known: .*'ipcp_llc'"):
            make_prefetcher("spp2")

    def test_factories_return_fresh_instances(self):
        config = make_prefetcher("ipcp")
        first = config["l1"]()
        second = config["l1"]()
        assert first is not second

    def test_table3_levels(self):
        assert set(make_prefetcher("ipcp")) == {"l1", "l2"}
        assert set(make_prefetcher("spp_ppf_dspatch")) == {"l1", "l2", "llc"}
        assert set(make_prefetcher("mlop")) == {"l1", "l2", "llc"}
        assert set(make_prefetcher("tskid")) == {"l1", "l2"}
        assert make_prefetcher("none") == {}

    def test_build_levels_builds_each_row_fresh(self):
        for name in available_prefetchers():
            row = make_prefetcher(name)
            first, second = build_levels(name), build_levels(name)
            for level, built, again in zip(("l1", "l2", "llc"), first,
                                           second):
                if level not in row:
                    assert built is None and again is None, (name, level)
                    continue
                assert type(built) is type(row[level]()), (name, level)
                assert built is not again, (name, level)

    def test_storage_kb_pins_table3(self):
        assert storage_kb("ipcp") * 1024 == 893.75 < 895
        assert storage_kb("bingo") == 48.15625

    def test_names_are_case_insensitive(self):
        assert set(make_prefetcher("Spp_PPF_DSPatch")) == {"l1", "l2", "llc"}

    def test_each_call_returns_a_fresh_dict(self):
        first = make_prefetcher("ipcp")
        first["llc"] = first.pop("l2")
        assert set(make_prefetcher("ipcp")) == {"l1", "l2"}

    def test_ipcp_storage_budget_is_tiny(self):
        config = make_prefetcher("ipcp")
        total_bits = sum(factory().storage_bits
                         for factory in config.values())
        assert total_bits <= 895 * 8
        bingo_bits = make_prefetcher("bingo")["l1"]().storage_bits
        assert bingo_bits / total_bits > 30  # the paper's 30-50x claim
