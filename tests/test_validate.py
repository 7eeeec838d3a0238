"""The prefetcher request contract, audited over whole traces by
:func:`repro.verify.invariants.check_invariants` — including every
registered prefetcher as a library-wide check.

``with_feedback=False`` drives the prefetcher with demand accesses
only, as a cache level would before any fill arrives.
"""

import pytest

from repro.prefetchers import available_prefetchers, make_prefetcher
from repro.prefetchers.base import Prefetcher, PrefetchRequest
from repro.verify.invariants import CROSS_PAGE_PREFETCHERS, check_invariants
from repro.workloads import spec_trace


def audit(prefetcher, trace, allow_cross_page=False):
    return check_invariants(prefetcher, trace,
                            allow_cross_page=allow_cross_page,
                            with_feedback=False)


class TestHarness:
    def test_clean_prefetcher_passes(self):
        config = make_prefetcher("ipcp")
        report = audit(config["l1"](), spec_trace("lbm_like", 0.1))
        assert report.ok, report.describe()
        assert report.accesses > 0

    def test_page_crossing_detected(self):
        class Crosser(Prefetcher):
            def __init__(self):
                super().__init__(name="crosser")

            def on_access(self, ctx):
                return [PrefetchRequest(addr=ctx.addr + 8192)]

        report = audit(Crosser(), spec_trace("lbm_like", 0.05))
        assert not report.ok
        assert any(v.invariant == "page_containment"
                   for v in report.violations)

    def test_cross_page_can_be_allowed(self):
        class Crosser(Prefetcher):
            def __init__(self):
                super().__init__(name="crosser")

            def on_access(self, ctx):
                return [PrefetchRequest(addr=ctx.addr + 8192)]

        report = audit(Crosser(), spec_trace("lbm_like", 0.05),
                       allow_cross_page=True)
        assert report.ok

    def test_bad_metadata_detected(self):
        class WideMeta(Prefetcher):
            def __init__(self):
                super().__init__(name="wide")

            def on_access(self, ctx):
                return [PrefetchRequest(addr=ctx.addr + 64, metadata=4096)]

        report = audit(WideMeta(), spec_trace("lbm_like", 0.05))
        assert any(v.invariant == "metadata_width"
                   for v in report.violations)


@pytest.mark.parametrize("name", [
    n for n in available_prefetchers() if n != "none"
])
def test_every_registered_prefetcher_honours_the_contract(name):
    """Library-wide audit: all shipped prefetchers obey the rules."""
    config = make_prefetcher(name)
    trace = spec_trace("roms_like", 0.1)
    allow = name in CROSS_PAGE_PREFETCHERS
    for level, factory in config.items():
        report = audit(factory(), trace, allow_cross_page=allow)
        assert report.ok, (name, level, report.describe())
