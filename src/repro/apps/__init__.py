"""The Table-1 benchmark suite on the simulated GPU.

Seven applications, each exposing the approximation sites the paper
decorates, a Quantity of Interest, and the error metric of §4 (MAPE for
all, MCR for K-Means).
"""

from repro.apps.binomial import BinomialOptions
from repro.apps.blackscholes import Blackscholes
from repro.apps.common import (
    AppResult,
    Benchmark,
    SiteInfo,
    generate_option_stream,
    make_params,
    option_matrix,
    smooth_stream,
    tile_template,
)
from repro.apps.kmeans import KMeans
from repro.apps.lavamd import LavaMD
from repro.apps.leukocyte import Leukocyte
from repro.apps.lulesh import Lulesh
from repro.apps.minife import MiniFE
from repro.errors import UnknownBenchmarkError

#: Registry of all benchmarks by name (Table 1).
BENCHMARKS: dict[str, type[Benchmark]] = {
    cls.name: cls
    for cls in (
        Lulesh,
        Leukocyte,
        BinomialOptions,
        MiniFE,
        Blackscholes,
        LavaMD,
        KMeans,
    )
}


def get_benchmark(name: str, problem: dict | None = None) -> Benchmark:
    """Instantiate a benchmark by its Table-1 name."""
    try:
        cls = BENCHMARKS[name.lower()]
    except KeyError:
        raise UnknownBenchmarkError(
            f"unknown benchmark {name!r}; known: {sorted(BENCHMARKS)}"
        ) from None
    return cls(problem=problem)


__all__ = [
    "AppResult",
    "BENCHMARKS",
    "Benchmark",
    "BinomialOptions",
    "Blackscholes",
    "KMeans",
    "LavaMD",
    "Leukocyte",
    "Lulesh",
    "MiniFE",
    "SiteInfo",
    "generate_option_stream",
    "get_benchmark",
    "make_params",
    "option_matrix",
    "smooth_stream",
    "tile_template",
]
