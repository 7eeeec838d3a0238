"""Synthetic workload generators.

SPEC CPU 2017 sim-point traces are proprietary and 200 M instructions
long; this package substitutes seeded generators that reproduce the
*access-pattern taxonomy* the paper builds IPCP around — constant
strides, complex strides, global streams, dense regions, pointer
chasing, large code footprints — at a scale a pure-Python simulator can
run.  See DESIGN.md §3 for the substitution rationale.
"""

from repro.workloads.cloudsuite import (
    CLOUDSUITE_BENCHMARKS,
    cloudsuite_suite,
    cloudsuite_trace,
)
from repro.workloads.frontend import (
    FRONTEND_BENCHMARKS,
    frontend_suite,
    frontend_trace,
)
from repro.workloads.gap import GAP_BENCHMARKS, gap_trace
from repro.workloads.mixes import (
    GRADED_MIXES,
    graded_mix,
    graded_suite,
    heterogeneous_mixes,
    homogeneous_mix,
    mix_trace,
)
from repro.workloads.neural import (
    NEURAL_BENCHMARKS,
    neural_suite,
    neural_trace,
)
from repro.workloads.stream import STREAM_BENCHMARKS, stream_trace
from repro.workloads.patterns import (
    WorkloadBuilder,
    complex_stride_pattern,
    dense_region_burst,
    pointer_chase,
    stream_pattern,
    strided_pattern,
)
from repro.workloads.spec import (
    EXTENSION_BENCHMARKS,
    compute_dense_trace,
    extension_trace,
    full_suite,
    memory_intensive_suite,
    spec_trace,
    SPEC_BENCHMARKS,
)

#: Every workload registry, in listing order, as ``(family, registry,
#: builder)``.  ``builder(name, scale)`` builds one trace of the
#: registry with the family's own default seed (cloudsuite 11, neural
#: 13, frontend 17, the others 7); ``builder(name, scale, seed)`` picks
#: the seed.  The CLI's ``--workload`` names, ``repro list-workloads``
#: and the ``traces`` pins of :mod:`repro.verify.golden` all read it.
WORKLOAD_FAMILIES = (
    ("spec", SPEC_BENCHMARKS, spec_trace),
    ("gap", GAP_BENCHMARKS, gap_trace),
    ("stream", STREAM_BENCHMARKS, stream_trace),
    ("cloudsuite", CLOUDSUITE_BENCHMARKS, cloudsuite_trace),
    ("neural", NEURAL_BENCHMARKS, neural_trace),
    ("extension", EXTENSION_BENCHMARKS, extension_trace),
    ("frontend", FRONTEND_BENCHMARKS, frontend_trace),
)

__all__ = [
    "CLOUDSUITE_BENCHMARKS",
    "EXTENSION_BENCHMARKS",
    "FRONTEND_BENCHMARKS",
    "GAP_BENCHMARKS",
    "GRADED_MIXES",
    "SPEC_BENCHMARKS",
    "NEURAL_BENCHMARKS",
    "STREAM_BENCHMARKS",
    "WORKLOAD_FAMILIES",
    "WorkloadBuilder",
    "cloudsuite_suite",
    "cloudsuite_trace",
    "frontend_suite",
    "frontend_trace",
    "complex_stride_pattern",
    "compute_dense_trace",
    "dense_region_burst",
    "extension_trace",
    "full_suite",
    "gap_trace",
    "graded_mix",
    "graded_suite",
    "heterogeneous_mixes",
    "homogeneous_mix",
    "memory_intensive_suite",
    "mix_trace",
    "neural_suite",
    "neural_trace",
    "pointer_chase",
    "spec_trace",
    "stream_pattern",
    "stream_trace",
    "strided_pattern",
]
