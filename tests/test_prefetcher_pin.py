"""Pin the whole result of every registered configuration.

The ``cells`` section of tests/data/golden_stats.json holds a digest of
every registered configuration's ``SimResult`` on the golden workloads,
and ``mixes`` one of a 2-core IPCP mix.  A change to a prefetcher's
behaviour or to the timing model moves them, and ``repro verify
--update-baseline`` rewrites them; a refactor must not.
"""


def test_digest_over_pinned_configurations(pin_drift):
    assert pin_drift("cells", "mixes") == []
