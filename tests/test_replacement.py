"""Tests for cache replacement policies."""

import pytest

from repro.errors import ConfigurationError
from repro.memsys.hierarchy import build_hierarchy
from repro.memsys.replacement import (
    DrripPolicy,
    LruPolicy,
    RandomPolicy,
    ShipPolicy,
    SrripPolicy,
    make_replacement_policy,
)
from repro.sim.engine import simulate
from repro.verify.golden import (
    NON_LRU_POLICIES,
    NON_LRU_TRACES,
    PIN_SCALE,
    non_lru_system,
)
from repro.workloads import spec_trace


class TestFactory:
    @pytest.mark.parametrize("name", ["lru", "srrip", "drrip", "ship", "random"])
    def test_known_names(self, name):
        policy = make_replacement_policy(name, 16, 4)
        assert policy.sets == 16 and policy.ways == 4

    def test_case_insensitive(self):
        assert isinstance(make_replacement_policy("LRU", 4, 2), LruPolicy)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            make_replacement_policy("belady", 4, 2)

    def test_rejects_zero_ways(self):
        with pytest.raises(ConfigurationError):
            LruPolicy(4, 0)


class TestLru:
    def test_victim_is_least_recently_used(self):
        lru = LruPolicy(1, 4)
        for way in range(4):
            lru.on_fill(0, way, False, 0)
        lru.on_hit(0, 0, False, 0)  # way 0 becomes MRU
        assert lru.victim(0) == 1

    def test_fill_refreshes_recency(self):
        lru = LruPolicy(1, 2)
        lru.on_fill(0, 0, False, 0)
        lru.on_fill(0, 1, False, 0)
        lru.on_fill(0, 0, False, 0)
        assert lru.victim(0) == 1

    def test_sets_are_independent(self):
        lru = LruPolicy(2, 2)
        lru.on_fill(0, 0, False, 0)
        lru.on_fill(0, 1, False, 0)
        lru.on_fill(1, 1, False, 0)
        lru.on_fill(1, 0, False, 0)
        assert lru.victim(0) == 0
        assert lru.victim(1) == 1


class TestSrrip:
    def test_insert_is_long_rereference(self):
        srrip = SrripPolicy(1, 2)
        srrip.on_fill(0, 0, False, 0)
        assert srrip._rrpv[0][0] == SrripPolicy.MAX_RRPV - 1

    def test_hit_promotes_to_zero(self):
        srrip = SrripPolicy(1, 2)
        srrip.on_fill(0, 0, False, 0)
        srrip.on_hit(0, 0, False, 0)
        assert srrip._rrpv[0][0] == 0

    def test_victim_prefers_max_rrpv(self):
        srrip = SrripPolicy(1, 2)
        srrip.on_fill(0, 0, False, 0)
        srrip.on_fill(0, 1, False, 0)
        srrip.on_hit(0, 0, False, 0)
        assert srrip.victim(0) == 1

    def test_victim_ages_until_found(self):
        srrip = SrripPolicy(1, 2)
        srrip.on_fill(0, 0, False, 0)
        srrip.on_fill(0, 1, False, 0)
        srrip.on_hit(0, 0, False, 0)
        srrip.on_hit(0, 1, False, 0)
        victim = srrip.victim(0)  # both at 0: aging loop must terminate
        assert victim in (0, 1)


class TestDrrip:
    def test_has_disjoint_leader_sets(self):
        drrip = DrripPolicy(1024, 16)
        assert not (drrip._srrip_leaders & drrip._brrip_leaders)
        assert drrip._srrip_leaders and drrip._brrip_leaders

    def test_psel_moves_on_leader_misses(self):
        drrip = DrripPolicy(1024, 16)
        start = drrip._psel
        leader = next(iter(drrip._srrip_leaders))
        drrip.record_miss(leader)
        assert drrip._psel == start + 1

    def test_brrip_insertion_mostly_distant(self):
        drrip = DrripPolicy(1024, 16)
        leader = next(iter(drrip._brrip_leaders))
        inserts = [drrip.insert_rrpv(leader) for _ in range(64)]
        distant = sum(1 for r in inserts if r == DrripPolicy.MAX_RRPV)
        assert distant > len(inserts) // 2


class TestShip:
    def test_reused_signature_inserts_near(self):
        ship = ShipPolicy(1, 2)
        ip = 0x400
        ship.on_fill(0, 0, False, ip)
        ship.on_hit(0, 0, False, ip)  # trains reuse for this signature
        ship.on_fill(0, 1, False, ip)
        assert ship._rrpv[0][1] == ShipPolicy.MAX_RRPV - 1

    def test_dead_signature_inserts_distant(self):
        ship = ShipPolicy(1, 2)
        ip = 0x800
        # Fill + evict without reuse repeatedly to drive the counter to 0.
        for _ in range(4):
            ship.on_fill(0, 0, False, ip)
            ship.on_evict(0, 0, False, ip)
        ship.on_fill(0, 0, False, ip)
        assert ship._rrpv[0][0] == ShipPolicy.MAX_RRPV


class TestRandom:
    def test_victims_are_in_range_and_deterministic(self):
        a = RandomPolicy(1, 4, seed=42)
        b = RandomPolicy(1, 4, seed=42)
        seq_a = [a.victim(0) for _ in range(32)]
        seq_b = [b.victim(0) for _ in range(32)]
        assert seq_a == seq_b
        assert all(0 <= v < 4 for v in seq_a)

    def test_spreads_over_ways(self):
        policy = RandomPolicy(1, 4, seed=7)
        seen = {policy.victim(0) for _ in range(64)}
        assert len(seen) == 4


class TestNonLruPin:
    """The ``non_lru`` pins: every policy's hook path, end to end.

    The cache updates LRU state inline and drives every other policy
    through its hooks; the golden cells, the cross-engine gate and the
    benchmark all run LRU, so this section pins the hook path.
    """

    def test_digest_over_non_lru_runs(self, pin_drift):
        assert pin_drift("non_lru") == []

    @pytest.mark.parametrize("policy", NON_LRU_POLICIES)
    def test_every_level_evicts_through_its_policy(self, policy,
                                                   monkeypatch):
        asked = set()
        for cls in (SrripPolicy, RandomPolicy):
            def victim(instance, set_idx, _original=cls.victim):
                asked.add(instance)
                return _original(instance, set_idx)
            monkeypatch.setattr(cls, "victim", victim)

        params = non_lru_system(policy)
        for name in NON_LRU_TRACES:
            hierarchy = build_hierarchy(params)
            asked.clear()
            simulate(spec_trace(name, PIN_SCALE), params=params,
                     hierarchy=hierarchy)
            assert asked == {c.policy for c in hierarchy.caches}
