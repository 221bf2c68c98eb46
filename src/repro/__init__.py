"""HPAC-Offload reproduction: portable approximate computing for
GPU-offloaded HPC applications, on a simulated SIMT substrate.

Reproduces Fink, Parasyris, Georgakoudis & Menon, *HPAC-Offload:
Accelerating HPC Applications with Portable Approximate Computing on the
GPU* (SC 2023).  See DESIGN.md for the system inventory and the
substitution argument for the simulated GPUs.

Quick tour
----------
>>> from repro import compile_pragma, get_benchmark
>>> spec = compile_pragma("memo(out:3:5:1.5f) out(o[i])", name="price")
>>> app = get_benchmark("blackscholes")
>>> accurate = app.run("v100_small")
>>> approx = app.run("v100_small",
...                  app.build_regions("taf", hsize=3, psize=5, threshold=1.5))
>>> accurate.kernel_seconds > 0
True

Subpackages
-----------
* :mod:`repro.gpusim` — the SIMT GPU simulator (devices, timing, memory);
* :mod:`repro.openmp` — OpenMP-offload-style frontend (target/teams/map);
* :mod:`repro.pragma` — the ``#pragma approx`` clause compiler;
* :mod:`repro.approx` — the HPAC-Offload runtime (TAF, iACT, perforation,
  hierarchical decisions);
* :mod:`repro.apps` — the seven Table-1 benchmarks;
* :mod:`repro.harness` — DSE sweeps, metrics, and figure reproductions;
* :mod:`repro.analysis` — static checks: ``repro lint`` diagnostics with
  stable ``HPAC0xx`` codes, and the sweep preflight built on them.
"""

from repro.approx import (
    ApproxRuntime,
    HierarchyLevel,
    IACTParams,
    PerfoParams,
    PerforationKind,
    RegionSpec,
    TAFParams,
    Technique,
)
from repro.apps import BENCHMARKS, get_benchmark
from repro.errors import (
    ConfigurationError,
    PragmaSemanticError,
    PragmaSyntaxError,
    ReproError,
    SharedMemoryError,
    SimulatedDeadlockError,
    UnknownBenchmarkError,
    UnsupportedApproximationError,
)
from repro.gpusim import (
    DeviceSpec,
    GridContext,
    amd_mi250x,
    get_device,
    launch,
    nvidia_v100,
)
from repro.harness import (
    BatchEngine,
    ExperimentRunner,
    ResultsDB,
    SweepConfig,
    mape,
    mcr,
    speedup,
)
from repro.openmp import OffloadProgram
from repro.pragma import compile_pragma, compile_pragmas
from repro import api

__version__ = "1.0.0"

__all__ = [
    "ApproxRuntime",
    "api",
    "BENCHMARKS",
    "BatchEngine",
    "ConfigurationError",
    "DeviceSpec",
    "ExperimentRunner",
    "GridContext",
    "HierarchyLevel",
    "IACTParams",
    "OffloadProgram",
    "PerfoParams",
    "PerforationKind",
    "PragmaSemanticError",
    "PragmaSyntaxError",
    "RegionSpec",
    "ReproError",
    "ResultsDB",
    "SharedMemoryError",
    "SimulatedDeadlockError",
    "SweepConfig",
    "TAFParams",
    "Technique",
    "UnknownBenchmarkError",
    "UnsupportedApproximationError",
    "__version__",
    "amd_mi250x",
    "compile_pragma",
    "compile_pragmas",
    "get_benchmark",
    "get_device",
    "launch",
    "mape",
    "mcr",
    "nvidia_v100",
    "speedup",
]
