"""Fetch-directed, frontend-bound instruction traces.

The data-side suites stress the *address* stream; these four stress the
*instruction-pointer* stream the way frontend-bound server code does
(the motivation of MANA and the other instruction-prefetching papers in
PAPERS.md): code footprints several times the 32 KB L1-I, deep static
call chains, interpreter-style indirect dispatch, and cold branch
targets that are fetched a handful of times in a whole run.

Each generator lays out a synthetic *code image* first — function base
addresses, body lengths, a static call graph — with all randomness
drawn from one seeded :class:`random.Random`, then walks it request by
request.  Layout and walk share the generator, so a (name, scale, seed)
triple reproduces the identical trace in any process, which
``tests/test_frontend.py`` verifies across interpreter invocations.

Records are normal :mod:`repro.sim.trace` 4-tuples: mostly ``OTHER``
(straight-line code) with a ``BRANCH`` at every control transfer and a
``LOAD`` sprinkled in so the traces stay valid for the data-side
simulator too; the frontend engine only reads the ``ip`` column.
"""

from __future__ import annotations

import random
import zlib

from repro.errors import ConfigurationError, ReproError
from repro.sim.trace import BRANCH, LOAD, OTHER, Trace
from repro.workloads.patterns import shuffle

DEFAULT_FRONTEND_INSTRUCTIONS = 60_000

_CODE_BASE = 0x0040_0000
_COLD_BASE = 0x00A0_0000  # rarely-taken error paths live far away
_DATA_ARENA = 0x2000_0000
_INSTR_BYTES = 4


def _load_addr(ip: int) -> int:
    """Deterministic per-site data address (keeps loads valid, cheap)."""
    return _DATA_ARENA + (((ip * 2654435761) >> 4) & 0xFFFF) * 64


def _emit_body(records: list, base: int, length: int,
               ends_in_branch: bool = True) -> None:
    """Append one straight-line function body starting at ``base``."""
    last = length - 1
    for k in range(length):
        ip = base + k * _INSTR_BYTES
        if k == last and ends_in_branch:
            records.append((BRANCH, ip, 1, 0))
        elif k % 7 == 6:
            records.append((LOAD, ip, _load_addr(ip), 0))
        else:
            records.append((OTHER, ip, 0, 0))


def _emit_cold_path(records: list, rng: random.Random, index: int) -> None:
    """A rarely-taken error path: a short body at a far, cold address."""
    base = _COLD_BASE + index * 0x400
    _emit_body(records, base, 8 + rng.randrange(8))


def _layout(rng: random.Random, count: int, min_len: int, max_len: int,
            min_gap: int, max_gap: int, base: int = _CODE_BASE):
    """Allocate ``count`` function (base, length) pairs with gaps."""
    functions = []
    ip = base
    for _ in range(count):
        length = rng.randrange(min_len, max_len)
        functions.append((ip, length))
        ip += length * _INSTR_BYTES + rng.randrange(min_gap, max_gap)
    return functions


def _microservice_like(rng: random.Random, n_records: int) -> list:
    """Deep static call chains under a zipf-popular handler dispatch.

    320 helper functions spread over ~430 KB of address space (~105
    code pages against the 64-entry ITLB), 64 request handlers, each a
    fixed chain of 4-8 helpers; per request a handler is drawn with
    zipf-ish popularity and its chain runs tail-call style.  The call
    chains are static, so the cross-page call deltas are learnable —
    the case the TLB-aware page policy exists for.  Cold error paths
    fire at ~0.25% per function.
    """
    functions = _layout(rng, 320, 20, 72, 256, 2048)
    dispatcher_base, dispatcher_len = _layout(
        rng, 1, 24, 32, 64, 65, base=_CODE_BASE - 0x1000)[0]
    chains = []
    for _ in range(64):
        depth = rng.randrange(4, 9)
        chains.append([rng.randrange(len(functions)) for _ in range(depth)])
    weights = [1.0 / (rank + 1) for rank in range(len(chains))]
    records: list = []
    cold_index = 0
    while len(records) < n_records:
        handler = rng.choices(range(len(chains)), weights)[0]
        _emit_body(records, dispatcher_base, dispatcher_len)
        for func in chains[handler]:
            base, length = functions[func]
            _emit_body(records, base, length)
            if rng.random() < 0.0025:
                _emit_cold_path(records, rng, cold_index % 64)
                cold_index += 1
    return records[:n_records]


def _fanout_rpc_like(rng: random.Random, n_records: int) -> list:
    """Uniform fan-out over page-aligned stubs (ITLB-hostile).

    A 24-instruction dispatcher calls one of 360 stubs per request,
    with zipf-ish popularity — each stub sits on its own 4 KB page, and
    each stub then calls one *fixed* helper from a pool of 120 (also
    page-aligned), so the hot code spans ~480 pages against a 64-entry
    ITLB.  The dispatcher's fan-out is unpredictable, but every
    stub→helper call is a learnable cross-page discontinuity.
    """
    helpers = []
    for j in range(120):
        base = _CODE_BASE + 0x200000 + 0x1000 * j
        helpers.append((base, 24 + rng.randrange(25)))
    stubs = []
    for i in range(360):
        base = _CODE_BASE + 0x1000 * (i + 1)
        stubs.append((base, 28 + rng.randrange(37), rng.randrange(len(helpers))))
    weights = [1.0 / (rank + 1) for rank in range(len(stubs))]
    records: list = []
    while len(records) < n_records:
        _emit_body(records, _CODE_BASE, 24)
        base, length, helper = stubs[rng.choices(range(len(stubs)), weights)[0]]
        _emit_body(records, base, length)
        helper_base, helper_len = helpers[helper]
        _emit_body(records, helper_base, helper_len)
    return records[:n_records]


def _interpreter_like(rng: random.Random, n_records: int) -> list:
    """Bytecode dispatch: a hot loop jumping through 128 opcode handlers.

    The opcode *program* (length 512) is drawn once and replayed, so
    the block-delta sequence repeats exactly — the pattern CPLX-I's
    delta signatures and MANA's miss streams can both learn, and pure
    next-line cannot.
    """
    dispatch_base, dispatch_len = _CODE_BASE, 12
    handlers = []
    for i in range(128):
        base = _CODE_BASE + 0x2000 + i * 1024
        handlers.append((base, 12 + rng.randrange(29)))
    program = [rng.randrange(len(handlers)) for _ in range(512)]
    records: list = []
    position = 0
    while len(records) < n_records:
        _emit_body(records, dispatch_base, dispatch_len)
        base, length = handlers[program[position % len(program)]]
        _emit_body(records, base, length)
        position += 1
    return records[:n_records]


def _coldstart_like(rng: random.Random, n_records: int) -> list:
    """A cold init sweep over ~140 KB of code, then a hot steady loop.

    Phase A (40% of the trace) walks 640 compactly laid-out functions
    in address order — every block cold, the case record-and-replay
    cannot help with but sequential streaming can.  Phase B loops over
    a 48-function working set in a fixed shuffled order.
    """
    functions = _layout(rng, 640, 24, 56, 32, 128)
    steady = list(range(100, 148))
    shuffle(rng, steady)
    records: list = []
    cold_budget = (n_records * 2) // 5
    index = 0
    while len(records) < cold_budget:
        base, length = functions[index % len(functions)]
        _emit_body(records, base, length)
        index += 1
    position = 0
    while len(records) < n_records:
        base, length = functions[steady[position % len(steady)]]
        _emit_body(records, base, length)
        position += 1
    return records[:n_records]


FRONTEND_BENCHMARKS = {
    "microservice_like": _microservice_like,
    "fanout_rpc_like": _fanout_rpc_like,
    "interpreter_like": _interpreter_like,
    "coldstart_like": _coldstart_like,
}


def frontend_trace(name: str, scale: float = 1.0, seed: int = 17) -> Trace:
    """Build one frontend-bound trace by name.

    ``scale`` multiplies the 60 k-instruction default length; ``seed``
    feeds the single :class:`random.Random` behind both code layout and
    the request walk, so equal arguments give byte-identical traces in
    any process.
    """
    if name not in FRONTEND_BENCHMARKS:
        raise ConfigurationError(
            f"unknown frontend workload {name!r}; "
            f"known: {sorted(FRONTEND_BENCHMARKS)}")
    if scale <= 0:
        raise ReproError(f"scale must be positive, got {scale}")
    n_records = max(1000, int(DEFAULT_FRONTEND_INSTRUCTIONS * scale))
    # Salt with the name (crc32, not hash(): stable across processes).
    rng = random.Random(seed ^ zlib.crc32(name.encode()))
    records = FRONTEND_BENCHMARKS[name](rng, n_records)
    return Trace(records, name=name)


def frontend_suite(scale: float = 1.0, seed: int = 17) -> list[Trace]:
    """All four frontend-bound traces, in registry order."""
    return [frontend_trace(name, scale, seed) for name in FRONTEND_BENCHMARKS]
