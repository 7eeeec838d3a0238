"""CNN/RNN-like workloads (Fig. 14b).

The paper notes IPCP wins on neural-network kernels "primarily because
these applications are mostly streaming in nature".  The generators
model inference kernels as dense streaming over weight matrices
(unit-stride row sweeps) mixed with strided column walks (im2col /
tiling) and a small hot activation buffer — heavy GS and CS fodder with
little irregularity.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sim.trace import Trace
from repro.workloads.patterns import (
    WorkloadBuilder,
    hot_set,
    stream_pattern,
    strided_pattern,
)
from repro.workloads.spec import _arena, builder_loads

DEFAULT_LOADS = 8_000


def _dense_layers(builder: WorkloadBuilder, loads: int, tile: int,
                  col_stride: int) -> None:
    offset = 0
    while builder_loads(builder) < loads:
        stream_pattern(builder, "weights_row", _arena(0) + offset, tile)
        strided_pattern(builder, "weights_col", _arena(1) + offset,
                        tile // 4, col_stride)
        hot_set(builder, "activations", _arena(2), 128, tile // 8)
        offset += tile * 8


def _cifar10_like(builder: WorkloadBuilder, loads: int) -> None:
    _dense_layers(builder, loads, tile=96, col_stride=2)


def _lstm_like(builder: WorkloadBuilder, loads: int) -> None:
    # Recurrent cells: four gate matrices streamed per step.
    offset = 0
    while builder_loads(builder) < loads:
        for gate in range(4):
            stream_pattern(builder, f"gate_{gate}", _arena(gate) + offset, 64)
        hot_set(builder, "hidden_state", _arena(5), 64, 32)
        offset += 64 * 8


def _nin_like(builder: WorkloadBuilder, loads: int) -> None:
    _dense_layers(builder, loads, tile=128, col_stride=3)


def _resnet50_like(builder: WorkloadBuilder, loads: int) -> None:
    _dense_layers(builder, loads, tile=192, col_stride=4)


def _squeezenet_like(builder: WorkloadBuilder, loads: int) -> None:
    _dense_layers(builder, loads, tile=64, col_stride=2)


def _vgg19_like(builder: WorkloadBuilder, loads: int) -> None:
    _dense_layers(builder, loads, tile=256, col_stride=3)


def _vggm_like(builder: WorkloadBuilder, loads: int) -> None:
    _dense_layers(builder, loads, tile=160, col_stride=2)


NEURAL_BENCHMARKS = {
    "cifar10_like": _cifar10_like,
    "lstm_like": _lstm_like,
    "nin_like": _nin_like,
    "resnet50_like": _resnet50_like,
    "squeezenet_like": _squeezenet_like,
    "vgg19_like": _vgg19_like,
    "vggm_like": _vggm_like,
}


def neural_trace(name: str, scale: float = 1.0, seed: int = 13) -> Trace:
    """Build one CNN/RNN-like trace."""
    try:
        generator = NEURAL_BENCHMARKS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown neural benchmark {name!r}; "
            f"known: {sorted(NEURAL_BENCHMARKS)}"
        ) from None
    # Convolution/GEMM kernels do tens of MACs per loaded element,
    # so NN traces are far more compute-dense than SPEC loops.
    builder = WorkloadBuilder(name, seed=seed, alu_per_load=10)
    generator(builder, max(1, int(DEFAULT_LOADS * scale)))
    return builder.build()


def neural_suite(scale: float = 1.0, seed: int = 13) -> list[Trace]:
    """All seven CNN/RNN-like traces (Fig. 14b's x-axis)."""
    return [neural_trace(name, scale, seed) for name in NEURAL_BENCHMARKS]
