"""Shared infrastructure for the benchmark applications (Table 1).

Every benchmark follows the paper's evaluation protocol (§4):

* it exposes one or more *approximation sites* — the longest-running offload
  kernels' code regions, annotated in the original work with ``#pragma
  approx``;
* it runs end-to-end on an :class:`~repro.openmp.OffloadProgram` (transfers
  included) for a given device, ``num_threads``, and *items per thread*
  (the ``num_teams`` knob);
* it returns its Quantity of Interest so the harness can compute MAPE/MCR
  against the accurate run.

Concrete apps subclass :class:`Benchmark` and implement
:meth:`Benchmark._execute`; region construction from a technique name +
parameters is shared here so the DSE harness can treat all apps uniformly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.approx.base import (
    HierarchyLevel,
    IACTParams,
    NoiseParams,
    PerfoParams,
    PerforationKind,
    RegionSpec,
    TAFParams,
    Technique,
    ThresholdWindow,
)
from repro.approx.runtime import ApproxRuntime
from repro.errors import ConfigurationError, UnsupportedApproximationError
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.timing import ProgramTiming
from repro.openmp.runtime import OffloadProgram


@dataclass
class SiteInfo:
    """Static description of one approximation site in a benchmark."""

    name: str
    #: Scalars captured per thread as inputs (0 ⇒ iACT unsupported here).
    in_width: int
    #: Scalars produced per thread as outputs.
    out_width: int
    #: Techniques this site supports ("taf", "iact", "perfo").
    techniques: tuple[str, ...] = ("taf", "iact", "perfo")
    #: Hierarchy levels that are *safe* at this site (Binomial Options must
    #: use team-level decisions because its region contains barriers, §4.1).
    levels: tuple[str, ...] = ("thread", "warp", "team")
    #: TAF activation metric for this site's outputs: "components" (scalar
    #: TAF per component) or "norm" (RSD of output L2 norms, for force-like
    #: vectors with sign-oscillating components).
    rsd_mode: str = "components"
    #: The site's ``#pragma approx`` data contract — the ``in(...)``/
    #: ``out(...)`` clauses naming the device buffers (in kernel-parameter
    #: namespace) this region may read and write, e.g.
    #: ``"in(dopts[i*5:5]) out(dprices[i])"``.  ApproxSan cross-checks the
    #: kernel's observed accesses against it; ``None`` means unchecked.
    contract: str | None = None


@dataclass
class AppResult:
    """Outcome of one benchmark execution."""

    qoi: np.ndarray
    timing: ProgramTiming
    region_stats: dict[str, dict]
    extra: dict[str, Any] = field(default_factory=dict)
    #: Thresholds and items per thread that reproduce this run exactly
    #: (see :class:`~repro.approx.base.ThresholdWindow`).
    threshold_window: ThresholdWindow | None = None

    @property
    def seconds(self) -> float:
        return self.timing.seconds

    @property
    def kernel_seconds(self) -> float:
        return self.timing.kernel_seconds


def make_params(technique: str, **kw):
    """Build technique parameters from flat keyword arguments.

    Accepts the Table-2 vocabulary: ``hsize``/``psize``/``threshold`` for
    TAF, ``tsize``/``threshold``/``tperwarp`` for iACT, ``kind``/``skip`` or
    ``skip_percent``/``herded`` for perforation.
    """
    t = technique.lower()
    if t == "taf":
        return TAFParams(
            history_size=int(kw["hsize"]),
            prediction_size=int(kw["psize"]),
            rsd_threshold=float(kw["threshold"]),
        )
    if t == "iact":
        tpw = kw.get("tperwarp")
        return IACTParams(
            table_size=int(kw["tsize"]),
            threshold=float(kw["threshold"]),
            tables_per_warp=None if tpw in (None, "none") else int(tpw),
        )
    if t == "perfo":
        kind = PerforationKind(kw.get("kind", "small"))
        if kind in (PerforationKind.SMALL, PerforationKind.LARGE):
            parameter: float = int(kw["skip"])
        else:
            parameter = float(kw["skip_percent"])
        return PerfoParams(kind, parameter, herded=bool(kw.get("herded", False)))
    if t == "noise":
        return NoiseParams(
            rel_sigma=float(kw["rel_sigma"]), seed=int(kw.get("seed", 0))
        )
    if t == "none":
        return None
    raise ConfigurationError(f"unknown technique {technique!r}")


class Benchmark(abc.ABC):
    """Base class for the seven Table-1 benchmarks."""

    #: Benchmark identifier, e.g. ``"lulesh"``.
    name: str = ""
    #: Human description of the Quantity of Interest (Table 1).
    qoi_description: str = ""
    #: Error metric: ``"mape"`` for all apps, ``"mcr"`` for K-Means (§4).
    error_metric: str = "mape"
    #: Report kernel-only speedups (Blackscholes: 99% of end-to-end time is
    #: host allocation/transfers, §4.1).
    kernel_only: bool = False
    #: num_threads that performs best on the unapproximated benchmark
    #: (footnote 4 of the paper: held fixed while num_teams varies).
    default_num_threads: int = 128
    #: items_per_thread of the best *accurate* configuration — the paper's
    #: baseline is the original application at its best configuration.
    baseline_items_per_thread: int = 1
    #: Per-app multipliers for the Table-2 threshold axes: region outputs
    #: live on different numeric scales (DESIGN.md §4), so the grids are
    #: scaled the way a user would tune the pragma per region.
    taf_threshold_scale: float = 1.0
    iact_threshold_scale: float = 1.0
    #: Static launch plan for the contract-dataflow verifier
    #: (:mod:`repro.analysis.rules.dataflow`): tuple of steps, each either a
    #: launch ``{"launch": "<kernel>", "regions": (<site names>, ...),
    #: "nowait": bool}`` or an explicit join ``{"sync": True}``.  ``None``
    #: opts out — the verifier is then silent for the app.
    launch_plan: tuple | None = None
    #: Buffers the plan treats as produced outside any contracted region
    #: (host maps, accurate kernel-scope code): the availability seed for
    #: the HPAC214 read-before-any-declared-write check.
    plan_inputs: tuple = ()

    def __init__(self, problem: dict | None = None) -> None:
        self.problem = {**self.default_problem(), **(problem or {})}

    @classmethod
    def resolve_items_per_thread(cls, items_per_thread: int | None) -> int:
        """``items_per_thread``, or the baseline's when unspecified."""
        return items_per_thread or cls.baseline_items_per_thread or 1

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def default_problem(self) -> dict:
        """Scaled-down default problem parameters (see DESIGN.md §3)."""

    @abc.abstractmethod
    def sites(self) -> list[SiteInfo]:
        """The approximation sites this benchmark exposes."""

    @abc.abstractmethod
    def _execute(
        self,
        prog: OffloadProgram,
        rt: ApproxRuntime,
        num_threads: int,
    ) -> AppResult:
        """Run the benchmark against a prepared program + runtime.

        Items per thread is ``prog.items_per_thread``; size launches with
        :meth:`~repro.openmp.OffloadProgram.teams_for` rather than reading
        it directly, so the knob reaches the simulation only through the
        launch grids the run records (see
        :class:`~repro.approx.base.ThresholdWindow`)."""

    # ------------------------------------------------------------------
    def site(self, name: str) -> SiteInfo:
        for s in self.sites():
            if s.name == name:
                return s
        raise ConfigurationError(f"{self.name}: unknown site {name!r}")

    def build_regions(
        self,
        technique: str = "none",
        level: str | HierarchyLevel = "thread",
        site: str | None = None,
        **params,
    ) -> list[RegionSpec]:
        """Region specs applying ``technique`` to one site (or all sites).

        Sites not selected (or with ``technique="none"``) get accurate
        specs, so the kernel code can invoke every region unconditionally.
        """
        lvl = HierarchyLevel(level) if isinstance(level, str) else level
        specs: list[RegionSpec] = []
        for s in self.sites():
            if technique != "none" and (site is None or site == s.name):
                # "noise" is an analysis instrument: applicable everywhere.
                if technique != "noise" and technique not in s.techniques:
                    raise UnsupportedApproximationError(
                        f"{self.name}: site {s.name!r} does not support "
                        f"{technique} (supported: {s.techniques})"
                    )
                if lvl.value not in s.levels:
                    raise UnsupportedApproximationError(
                        f"{self.name}: site {s.name!r} requires level in "
                        f"{s.levels}, got {lvl.value!r}"
                    )
                specs.append(
                    RegionSpec(
                        name=s.name,
                        technique=Technique(technique),
                        params=make_params(technique, **params),
                        level=lvl,
                        in_width=s.in_width if technique == "iact" else 0,
                        out_width=s.out_width,
                        meta=(
                            {"rsd_mode": s.rsd_mode, "contract": s.contract}
                            if s.contract
                            else {"rsd_mode": s.rsd_mode}
                        ),
                    )
                )
            else:
                specs.append(RegionSpec.accurate(s.name, out_width=s.out_width))
        return specs

    # ------------------------------------------------------------------
    def run(
        self,
        device: str | DeviceSpec = "v100",
        regions: list[RegionSpec] | None = None,
        *,
        num_threads: int | None = None,
        items_per_thread: int = 1,
        seed: int = 2023,
        sanitize: "bool | object" = False,
    ) -> AppResult:
        """Execute the benchmark and return its result.

        ``regions=None`` runs the accurate baseline.  ``items_per_thread``
        sets ``num_teams`` through
        :meth:`~repro.openmp.OffloadProgram.teams_for`, the paper's central
        parallelism/approximation trade-off knob.

        ``sanitize=True`` attaches an ApproxSan sanitizer that cross-checks
        every mediated access against the sites' pragma contracts; the
        resulting :class:`~repro.analysis.sanitizer.SanitizeReport` lands in
        ``result.extra["approxsan"]``.  Passing a ``Sanitizer`` *instance*
        instead attaches it as-is — no site contracts are auto-registered,
        so contract inference and round-trip verification fully own what is
        checked.  Simulated timings and counters are identical either way —
        the sanitizer only observes.
        """
        dev = get_device(device)
        self.rng = np.random.default_rng(seed)
        sanitizer = None
        if sanitize:
            # Function-level import: repro.analysis pulls in the harness,
            # which imports this module back.
            from repro.analysis.sanitizer import Sanitizer

            if isinstance(sanitize, Sanitizer):
                sanitizer = sanitize
            else:
                sanitizer = Sanitizer()
                for s in self.sites():
                    if s.contract:
                        sanitizer.register_contract(s.name, s.contract)
        prog = OffloadProgram(
            dev, sanitizer=sanitizer, items_per_thread=int(items_per_thread)
        )
        rt = ApproxRuntime(
            regions if regions is not None else self.build_regions(),
            sanitizer=sanitizer,
        )
        nthreads = num_threads or self.default_num_threads
        result = self._execute(prog, rt, nthreads)
        result.region_stats = rt.stats_snapshot()
        result.threshold_window = rt.threshold_window()
        result.threshold_window.grids = tuple(prog.grids)
        if sanitizer is not None:
            result.extra["approxsan"] = sanitizer.finish()
        return result


def smooth_stream(
    rng: np.random.Generator,
    total_rows: int,
    columns: int,
    cycles: float = 3.0,
    harmonics: int = 4,
    noise: float = 0.0,
) -> np.ndarray:
    """Generate a locally smooth data stream in [0, 1] per column.

    Each column is a random mixture of low-frequency sinusoids (at most
    ``cycles`` cycles across the stream), so nearby rows are similar.  This
    is the "redundancy in the dataset which HPAC-Offload can successfully
    exploit" (§4.1, Binomial Options): an approximated item's replayed
    output comes from a *nearby* item in the thread's walk and is therefore
    close — the property behind the paper's ~1% MAPE at >90% approximation.
    """
    i = np.arange(total_rows)[:, None] / max(total_rows, 1)
    data = np.zeros((total_rows, columns))
    for c in range(columns):
        freqs = rng.uniform(0.5, cycles, harmonics)
        phases = rng.uniform(0, 2 * np.pi, harmonics)
        amps = rng.uniform(0.3, 1.0, harmonics)
        data[:, c] = (amps * np.sin(2 * np.pi * freqs * i + phases)).sum(axis=1)
    if noise > 0:
        data += noise * rng.standard_normal(data.shape)
    lo = data.min(axis=0, keepdims=True)
    hi = data.max(axis=0, keepdims=True)
    return (data - lo) / np.maximum(hi - lo, 1e-12)


def tile_template(rng: np.random.Generator, template_rows: int, total_rows: int,
                  columns: int, jitter: float = 0.0) -> np.ndarray:
    """Generate a dataset by tiling a small random template.

    PARSEC-style input scaling: Blackscholes and Binomial Options workloads
    replicate a fixed option template to reach large sizes, which is exactly
    the redundancy the memoization techniques exploit ("an ideal candidate
    for AC that demonstrates redundancy in the dataset", §4.1).  ``jitter``
    adds per-copy noise so redundancy is strong but not exact.
    """
    template = rng.random((template_rows, columns))
    reps = int(np.ceil(total_rows / template_rows))
    data = np.tile(template, (reps, 1))[:total_rows]
    if jitter > 0.0:
        data = data + jitter * rng.standard_normal(data.shape)
    return data


def option_matrix(raw: np.ndarray) -> np.ndarray:
    """Map raw [0,1] columns to option parameters (S, K, r, v, T).

    Strikes stay near the money so prices are bounded away from zero and
    the MAPE denominator (paper eq. 1) stays meaningful.
    """
    opts = np.empty_like(raw)
    opts[:, 0] = 50.0 + 100.0 * raw[:, 0]  # spot
    opts[:, 1] = opts[:, 0] * (0.85 + 0.30 * raw[:, 1])  # strike
    opts[:, 2] = 0.01 + 0.05 * raw[:, 2]  # risk-free rate
    opts[:, 3] = 0.20 + 0.40 * raw[:, 3]  # volatility
    opts[:, 4] = 0.50 + 1.50 * raw[:, 4]  # expiry
    return opts


def generate_option_stream(
    rng: np.random.Generator,
    num_options: int,
    data_mode: str = "smooth",
    template_rows: int = 1000,
    jitter: float = 0.0,
    cycles: float = 3.0,
) -> np.ndarray:
    """Option portfolio generator shared by Blackscholes and Binomial.

    ``data_mode="smooth"`` produces a locally smooth stream (strike chains
    and maturity ladders vary slowly along the portfolio); ``"tiled"``
    replicates a template PARSEC-style.  Both are real redundancy patterns
    the memoization techniques exploit.
    """
    if data_mode == "smooth":
        raw = smooth_stream(rng, num_options, 5, cycles=cycles, noise=jitter)
        raw = np.clip(raw, 0.0, 1.0)
    elif data_mode == "tiled":
        raw = tile_template(rng, template_rows, num_options, 5, jitter=jitter)
        raw = np.clip(raw, 0.01, 0.99)
    else:
        raise ConfigurationError(f"unknown data_mode {data_mode!r}")
    return option_matrix(raw)
