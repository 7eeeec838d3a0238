"""Offline trace analysis: the paper's Section III motivation, as code.

Section III argues that (i) each IP has a *unique and persistent*
access behaviour — constant stride (bwaves' ``C0,C3,C6,C9``), complex
stride (mcf's ``1,2,1,2``), or membership in a global stream — and
(ii) those behaviours can be classified cheaply.  This module measures
exactly that on any trace, independent of the simulator:

* per-IP stride histograms and a behavioural label
  (``constant_stride`` / ``complex_stride`` / ``irregular`` /
  ``singleton``);
* the fraction of loads attributable to each behaviour;
* 2 KB-region density (how much of the trace is global-stream
  coverable).

The ``abl-motivation`` claim uses it to show the synthetic suite has
the same pattern mix the paper attributes to SPEC CPU 2017.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.params import LINES_PER_REGION, REGION_BITS
from repro.sim.trace import LOAD, STORE, Trace

CONSTANT_SHARE = 0.7   # dominant single stride above this => constant
COMPLEX_SHARE = 0.7    # top-2/3 strides above this => complex
DENSE_THRESHOLD = 0.75  # the GS class's 75% region density


@dataclass
class IpProfile:
    """Observed behaviour of one instruction pointer."""

    ip: int
    accesses: int = 0
    strides: Counter = field(default_factory=Counter)
    _last_line: int | None = None

    def observe(self, line: int) -> None:
        """Feed one line-granularity access."""
        self.accesses += 1
        if self._last_line is not None:
            stride = line - self._last_line
            if stride != 0:
                self.strides[stride] += 1
        self._last_line = line

    @property
    def classification(self) -> str:
        """Behavioural label per the paper's taxonomy."""
        total = sum(self.strides.values())
        if total < 3:
            return "singleton"
        top = self.strides.most_common(3)
        if top[0][1] / total >= CONSTANT_SHARE:
            return "constant_stride"
        covered = sum(count for _, count in top)
        if covered / total >= COMPLEX_SHARE and all(
            abs(stride) <= 63 for stride, _ in top
        ):
            return "complex_stride"
        return "irregular"

    @property
    def dominant_stride(self) -> int | None:
        """Most frequent stride, if any stride was observed."""
        if not self.strides:
            return None
        return self.strides.most_common(1)[0][0]


@dataclass
class TraceProfile:
    """Whole-trace behavioural summary."""

    trace_name: str
    loads: int
    distinct_ips: int
    by_class_accesses: dict[str, int]
    dense_region_fraction: float
    ip_profiles: dict[int, IpProfile]

    def class_shares(self) -> dict[str, float]:
        """Fraction of memory accesses per behavioural class."""
        total = sum(self.by_class_accesses.values())
        if not total:
            return {}
        return {
            label: count / total
            for label, count in sorted(self.by_class_accesses.items())
        }

    def dominant_class(self) -> str:
        """The behaviour carrying the most accesses."""
        if not self.by_class_accesses:
            return "none"
        return max(self.by_class_accesses, key=self.by_class_accesses.get)


def analyze_trace(trace: Trace) -> TraceProfile:
    """Profile every IP in ``trace`` and summarise the pattern mix."""
    profiles: dict[int, IpProfile] = {}
    region_lines: dict[int, set] = defaultdict(set)
    loads = 0

    for kind, ip, addr, _ in trace:
        if kind not in (LOAD, STORE):
            continue
        loads += 1
        line = addr >> 6
        profile = profiles.get(ip)
        if profile is None:
            profile = profiles[ip] = IpProfile(ip=ip)
        profile.observe(line)
        region_lines[addr >> REGION_BITS].add(line % LINES_PER_REGION)

    by_class: dict[str, int] = defaultdict(int)
    for profile in profiles.values():
        by_class[profile.classification] += profile.accesses

    dense = sum(
        1 for lines in region_lines.values()
        if len(lines) >= DENSE_THRESHOLD * LINES_PER_REGION
    )
    dense_fraction = dense / len(region_lines) if region_lines else 0.0

    return TraceProfile(
        trace_name=trace.name,
        loads=loads,
        distinct_ips=len(profiles),
        by_class_accesses=dict(by_class),
        dense_region_fraction=dense_fraction,
        ip_profiles=profiles,
    )
