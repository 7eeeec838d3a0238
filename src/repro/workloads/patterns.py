"""Access-pattern building blocks for synthetic traces.

Each function appends records for one pattern *episode* to a
:class:`WorkloadBuilder`.  The patterns map one-to-one onto the classes
the paper motivates in Section III:

* :func:`stream_pattern` — unit-stride sweeps (lbm/gcc): GS territory;
* :func:`strided_pattern` — constant line strides (bwaves): CS;
* :func:`complex_stride_pattern` — repeating stride sequences such as
  1,2,1,2 or 3,3,4 (mcf, layout-induced): CPLX;
* :func:`dense_region_burst` — several IPs touching a 2 KB region in
  jumbled order (the paper's IP_C/IP_D/IP_E example): GS;
* :func:`pointer_chase` — dependent random accesses (mcf/omnetpp):
  irregular, largely unprefetchable by spatial prefetchers;
* :func:`hot_set` — cache-resident reuse (non-memory-intensive codes).

All sizes are in 8-byte elements unless noted; every builder interleaves
``alu_per_load`` non-memory instructions after each load (the first one
consuming the load's value) so compute density and dependent-use
behaviour resemble real code.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.errors import ConfigurationError
from repro.params import LINE_SIZE, REGION_SIZE
from repro.sim.trace import BRANCH, LOAD, OTHER, STORE, Trace

ELEMENT = 8  # bytes per loaded element


class WorkloadBuilder:
    """Accumulates records; hands out stable synthetic IPs per role.

    ``loads`` counts the LOAD records, which only :meth:`load` emits.
    ``records`` holds canonical ``(kind, ip, addr, dep)`` tuples: add
    to it through the emitters, which :meth:`build` relies on.
    """

    def __init__(self, name: str, seed: int = 1, alu_per_load: int = 4) -> None:
        if alu_per_load < 0:
            raise ConfigurationError("alu_per_load must be >= 0")
        self.name = name
        self.rng = random.Random(seed)
        self.alu_per_load = alu_per_load
        self.records: list[tuple[int, int, int, int]] = []
        self.loads = 0
        self._next_ip = 0x400000
        self._ips: dict[str, int] = {}
        # role -> (load IP, its ALU padding records), built on first load
        self._load_roles: dict[str, tuple[int, tuple]] = {}

    def ip(self, role: str) -> int:
        """A stable fake instruction pointer for a named code location.

        Spacing is irregular (3-9 bytes, like variable-length x86
        instructions) so direct-mapped IP-table indexes spread over all
        slots instead of aliasing on aligned low bits.
        """
        if role not in self._ips:
            self._ips[role] = self._next_ip
            self._next_ip += 3 + self.rng.randrange(7)
        return self._ips[role]

    def load(self, role: str, addr: int, dep: bool = False) -> None:
        """One load plus its ALU consumer padding.

        The padding records are the same for every load of a role, so
        they are built once, on the role's first load (drawing the load
        IP, then each ``.alu{j}`` IP in order), and shared afterwards.
        """
        try:
            ip, padding = self._load_roles[role]
        except KeyError:
            ip = self.ip(role)
            padding = tuple(
                (OTHER, self.ip(f"{role}.alu{j}"), 0, 1 if j == 0 else 0)
                for j in range(self.alu_per_load)
            )
            self._load_roles[role] = (ip, padding)
        self.records.append((LOAD, ip, addr, 1 if dep else 0))
        self.records.extend(padding)
        self.loads += 1

    def store(self, role: str, addr: int) -> None:
        """One store (never blocks retirement)."""
        self.records.append((STORE, self.ip(role), addr, 0))

    def branch(self, role: str, taken: bool = True) -> None:
        """A branch record; the outcome rides in the addr field."""
        self.records.append((BRANCH, self.ip(role), 1 if taken else 0, 0))

    def alu(self, count: int = 1) -> None:
        """Standalone non-memory instructions."""
        for _ in range(count):
            self.records.append((OTHER, self.ip("filler"), 0, 0))

    def build(self) -> Trace:
        """Freeze the accumulated records into a named trace.

        Every emitter appends tuples with an int ``dep`` of 0 or 1, so
        the records skip :class:`Trace`'s per-record normalisation; the
        one tuple built here is the trace's, shared by every job spec.
        """
        return Trace._from_records(tuple(self.records), self.name)

    def __len__(self) -> int:
        return len(self.records)


def shuffle(rng: random.Random, items: list) -> None:
    """Shuffle ``items`` in place, drawing exactly what
    :meth:`random.Random.shuffle` draws.

    For ``i`` from ``len(items) - 1`` down to 1, draw ``r =
    getrandbits(k)`` with ``k = (i + 1).bit_length()`` until ``r <= i``,
    then swap items ``i`` and ``r``: the same words in the same order as
    CPython's shuffle, so traces stay byte-identical and the rng ends in
    the same state.  ``k`` is fixed over each power-of-two band of
    ``i``, which saves the per-element ``_randbelow`` call.
    """
    getrandbits = rng.getrandbits
    top = len(items) - 1
    while top > 0:
        k = (top + 1).bit_length()
        bottom = (1 << (k - 1)) - 1
        for i in range(top, bottom - 1, -1):
            r = getrandbits(k)
            while r > i:
                r = getrandbits(k)
            items[i], items[r] = items[r], items[i]
        top = bottom - 1


#: :func:`ring_prefix` keeps steps, draws and word offsets in int32.
MAX_RING = 2**31 - 1


def _words(getrandbits, count: int) -> np.ndarray:
    """The next ``count`` 32-bit words of the generator, in draw order.

    ``getrandbits(32 * count)`` draws ``count`` words and puts the first
    one in the least significant bits, so its little-endian bytes list
    them in order.  A call ``getrandbits(k)`` with ``k <= 32`` takes one
    word and shifts it right by ``32 - k``.
    """
    value = getrandbits(32 * count)
    return np.frombuffer(value.to_bytes(4 * count, "little"), dtype="<u4")


def _shuffle_draws(rng: random.Random, n: int) -> np.ndarray:
    """``draws[i]``: the position step ``i`` of :func:`shuffle` swaps
    with, for ``i`` from 1 to ``n - 1``, drawing exactly its words.

    Steps sharing one bit count ``k`` form a band, from ``top`` down to
    ``bottom = 2**(k-1) - 1``.  Within a band, word ``t`` (``x[t]`` once
    shifted) comes while step ``top - t + rej(t)`` waits, ``rej(t)``
    being the words rejected before it, so it is rejected exactly when
    ``rej(t) < d[t] = x[t] + t - top``.  That system is triangular:
    iterating ``rejected = exclusive_cumsum(rejected) < d`` settles at
    least one more leading word per pass, and a stable vector is its
    one solution.  The band's draws are the first ``top - bottom + 1``
    accepted words.

    Every remaining step takes at least one word, so holding no more
    unconsumed words than steps left never draws past where ``shuffle``
    stops; words left over after a band start the next one.
    """
    draws = np.zeros(n, dtype=np.int32)
    getrandbits = rng.getrandbits
    words = np.empty(0, dtype="<u4")
    top = n - 1
    while top > 0:
        k = (top + 1).bit_length()
        bottom = (1 << (k - 1)) - 1
        while top >= bottom:
            # Expected words for steps top..bottom, plus a few standard
            # deviations of the rejections, so a band rarely draws twice.
            expected = (1 << k) * math.log((top + 1.5) / (bottom + 0.5))
            rejections = max(expected - (top - bottom + 1), 0.0)
            want = min(top, int(expected + 3 * math.sqrt(rejections)) + 8)
            if len(words) < want:
                words = np.concatenate(
                    (words, _words(getrandbits, want - len(words))))
            x = (words >> (32 - k)).astype(np.int32)
            d = x - top
            d += np.arange(len(x), dtype=np.int32)
            rejected = d > 0
            before = np.zeros(len(x), dtype=np.int32)
            while True:
                np.cumsum(rejected[:-1], dtype=np.int32, out=before[1:])
                settled = before < d
                if np.array_equal(settled, rejected):
                    break
                rejected = settled
            accepted = np.flatnonzero(~rejected)[:top - bottom + 1]
            if len(accepted) == top - bottom + 1:
                words = words[accepted[-1] + 1:]
            else:
                words = words[len(x):]
            draws[top - len(accepted) + 1:top + 1] = x[accepted[::-1]]
            top -= len(accepted)
    return draws


def ring_prefix(rng: random.Random, n: int, count: int) -> list[int]:
    """``ring[:count]`` of ``ring = list(range(n)); shuffle(rng, ring)``.

    ``rng`` ends in exactly the state :func:`shuffle` leaves, so the
    result and every later draw match the full shuffle.  The
    per-element work runs in numpy: :func:`_shuffle_draws` resolves
    every step's swap target from bulk words, and only the steps that
    reach ``[0, count)`` are composed.
    After step ``i``, position ``i`` never changes again.  A position
    ``q >= count`` is written before its own step only by later steps
    ``j`` with ``draws[j] == q``; the last to run is the smallest such
    ``j``, so ``q`` then holds what position ``j`` held before step
    ``j``.  Following those links from each position below ``count``
    gives the prefix as the early steps leave it, and the last
    ``count`` steps replay in Python.

    ``rng`` must be a :class:`random.Random` whose ``getrandbits`` is
    the stdlib's (the word layout :func:`_words` relies on).
    """
    if not 0 <= n <= MAX_RING:
        raise ConfigurationError(f"ring size {n} outside [0, {MAX_RING}]")
    if count < 0:
        raise ConfigurationError(f"ring prefix count {count} is negative")
    count = min(count, n)
    draws = _shuffle_draws(rng, n)
    steps = np.arange(count, n, dtype=np.int32)
    moved = draws[count:] < steps
    writer = np.full(n, n, dtype=np.int32)
    np.minimum.at(writer, draws[count:][moved], steps[moved])
    position = np.arange(count, dtype=np.int32)
    while True:
        later = writer[position]
        linked = later < n
        if not linked.any():
            break
        position[linked] = later[linked]
    ring = position.tolist()
    targets = draws[:count].tolist()
    for i in range(count - 1, 0, -1):
        r = targets[i]
        ring[i], ring[r] = ring[r], ring[i]
    return ring


def stream_pattern(
    builder: WorkloadBuilder,
    role: str,
    base: int,
    elements: int,
    direction: int = 1,
    element_bytes: int = ELEMENT,
) -> None:
    """Sequential sweep: ``elements`` touches moving one element at a time."""
    addr = base
    for _ in range(elements):
        builder.load(role, addr)
        addr += direction * element_bytes
    if addr < 0:
        raise ConfigurationError("stream walked below address 0")


def strided_pattern(
    builder: WorkloadBuilder,
    role: str,
    base: int,
    count: int,
    stride_lines: int,
    loads_per_stop: int = 6,
) -> None:
    """Constant cache-line stride (the CS class's bread and butter).

    ``count`` is the number of line *stops*; at each stop the code reads
    ``loads_per_stop`` consecutive elements of the line before jumping
    ``stride_lines`` lines — the way a strided array-of-structs walk
    touches several fields per record.  Only the stop-advancing load
    carries the pattern IP, so the classifier sees a clean line stride.
    """
    addr = base
    for _ in range(count):
        builder.load(role, addr)
        for k in range(1, loads_per_stop):
            builder.load(f"{role}.field{k}", addr + k * ELEMENT)
        addr += stride_lines * LINE_SIZE


def complex_stride_pattern(
    builder: WorkloadBuilder,
    role: str,
    base: int,
    count: int,
    stride_sequence: tuple[int, ...],
    loads_per_stop: int = 6,
) -> None:
    """Repeating line-stride sequence, e.g. (1, 2) or (3, 3, 4)."""
    if not stride_sequence:
        raise ConfigurationError("stride_sequence must be non-empty")
    addr = base
    for i in range(count):
        builder.load(role, addr)
        for k in range(1, loads_per_stop):
            builder.load(f"{role}.field{k}", addr + k * ELEMENT)
        addr += stride_sequence[i % len(stride_sequence)] * LINE_SIZE


def dense_region_burst(
    builder: WorkloadBuilder,
    roles: list[str],
    base: int,
    regions: int,
    shuffle_window: int = 4,
    loads_per_line: int = 6,
) -> None:
    """Near-contiguous sweep through 2 KB regions by several IPs.

    Addresses advance line by line but are locally shuffled inside a
    small window and attributed round-robin to ``roles``, reproducing
    the paper's "global stream with jumbled program order" example.
    No single IP sees a stable stride, yet each region goes dense —
    only the GS class covers this.
    """
    lines = regions * (REGION_SIZE // LINE_SIZE)
    order = list(range(lines))
    for start in range(0, lines, shuffle_window):
        window = order[start:start + shuffle_window]
        shuffle(builder.rng, window)
        order[start:start + shuffle_window] = window
    for i, line_index in enumerate(order):
        role = roles[i % len(roles)]
        line_base = base + line_index * LINE_SIZE
        builder.load(role, line_base)
        for k in range(1, loads_per_line):
            builder.load(f"{role}.elem{k}", line_base + k * ELEMENT)


def pointer_chase(
    builder: WorkloadBuilder,
    role: str,
    base: int,
    pool_lines: int,
    count: int,
) -> None:
    """Dependent loads over a shuffled ring of ``pool_lines`` lines.

    Each load's address "comes from" the previous load (dep=1), so the
    misses serialise — the mcf/omnetpp behaviour spatial prefetchers
    cannot cover.  The ring is a full :func:`shuffle` of the pool, but
    :func:`ring_prefix` builds only the ``count`` lines the walk reads.
    """
    ring = ring_prefix(builder.rng, pool_lines, count)
    for position in range(count):
        builder.load(role, base + ring[position % pool_lines] * LINE_SIZE,
                     dep=True)


def hot_set(
    builder: WorkloadBuilder,
    role: str,
    base: int,
    lines: int,
    count: int,
) -> None:
    """Random reuse inside a small, cache-resident footprint."""
    for _ in range(count):
        offset = builder.rng.randrange(lines)
        builder.load(role, base + offset * LINE_SIZE)


def warm_footprint(
    builder: WorkloadBuilder,
    role: str,
    base: int,
    lines: int,
) -> None:
    """Touch every line of a footprint once (placed early, this pushes
    the compulsory misses into the simulator's warm-up region so the
    ROI measures steady-state reuse, like a long-running program)."""
    for offset in range(lines):
        builder.load(role, base + offset * LINE_SIZE)
