"""Machine-checked paper claims: EXPERIMENTS.md as a build artifact.

Every row of EXPERIMENTS.md is a typed :class:`~repro.paperclaims.
claims.Claim` — band, leader, ratio, spread or monotonicity predicates
over the values its own cells measured.  A cell is a function that
draws its simulations through the cached parallel runner.  ``repro
paper`` evaluates the registry, regenerates EXPERIMENTS.md and
BENCH_10.json, and ``--check`` exits nonzero on any claim flip or doc
drift; ``--mutate`` proves the harness catches a seeded one-line core
regression.
"""

from repro.paperclaims.bench import bench_payload, write_bench
from repro.paperclaims.cells import (
    CellContext,
    ClaimEngine,
    EngineReport,
)
from repro.paperclaims.claims import (
    Band,
    Best,
    Claim,
    ClaimVerdict,
    DeltaBand,
    Leader,
    Monotonic,
    Predicate,
    RatioBand,
    ScaledLeader,
    Spread,
)
from repro.paperclaims.mutations import (
    MUTATIONS,
    apply_mutation,
    expected_flips,
    mutation_names,
)
from repro.paperclaims.registry import CLAIMS
from repro.paperclaims.render import (
    render_experiments,
    render_verdict_report,
)

__all__ = [
    "Band",
    "Best",
    "CLAIMS",
    "CellContext",
    "Claim",
    "ClaimEngine",
    "ClaimVerdict",
    "DeltaBand",
    "EngineReport",
    "Leader",
    "MUTATIONS",
    "Monotonic",
    "Predicate",
    "RatioBand",
    "ScaledLeader",
    "Spread",
    "apply_mutation",
    "bench_payload",
    "expected_flips",
    "mutation_names",
    "render_experiments",
    "render_verdict_report",
    "write_bench",
]
