"""Core types of the HPAC-Offload approximation runtime.

The programming model (paper §3.2) attaches an approximation *technique*
with *parameters* and a decision *hierarchy level* to a code region:

.. code-block:: c

    #pragma approx memo(in:2:0.5f:4) level(warp) in(input[i*5:5:N]) out(o[i])
    #pragma approx memo(out:3:5:1.5f) level(thread) out(o2[i])
    #pragma approx perfo(small:4)

This module defines the Python equivalents: :class:`TAFParams`,
:class:`IACTParams`, :class:`PerfoParams`, the :class:`HierarchyLevel`
enum (``thread`` / ``warp`` / ``team``), and :class:`RegionSpec`, the lowered
descriptor the runtime executes.  The pragma front end
(:mod:`repro.pragma`) produces these from clause text; applications may also
construct them directly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.openmp.runtime import teams_needed


class Technique(enum.Enum):
    """Which AC technique a region uses."""

    TAF = "taf"  # memo(out:...) — temporal approximate function memoization
    IACT = "iact"  # memo(in:...) — approximate input memoization
    PERFORATION = "perfo"
    #: Analysis instrument, not an optimization: perturb region outputs to
    #: measure QoI sensitivity (§4.2's sensitivity-analysis integration).
    NOISE = "noise"
    NONE = "none"  # accurate execution (the baseline path)


class HierarchyLevel(enum.Enum):
    """Decision hierarchy of §3.1.2: who decides to approximate together."""

    THREAD = "thread"
    WARP = "warp"
    TEAM = "team"  # a thread block; the pragma keyword is ``team``


class PerforationKind(enum.Enum):
    """Perforation patterns of §2.3 / §3.1.5."""

    SMALL = "small"  # skip one of every M iterations
    LARGE = "large"  # execute one of every M iterations
    INI = "ini"  # drop the first skip_percent% iterations
    FINI = "fini"  # drop the last skip_percent% iterations


@dataclass(frozen=True)
class TAFParams:
    """Temporal Approximate Function memoization (TAF, [51]) parameters.

    ``memo(out:hSize:pSize:threshold)`` — keep a sliding window of the last
    ``history_size`` outputs; when their relative standard deviation drops
    below ``rsd_threshold``, replay the last output for the next
    ``prediction_size`` invocations.
    """

    history_size: int
    prediction_size: int
    rsd_threshold: float

    def __post_init__(self) -> None:
        if self.history_size < 1:
            raise ConfigurationError("TAF history_size must be >= 1")
        if self.prediction_size < 1:
            raise ConfigurationError("TAF prediction_size must be >= 1")
        if not math.isfinite(self.rsd_threshold) or self.rsd_threshold < 0:
            raise ConfigurationError("TAF rsd_threshold must be finite and >= 0")


@dataclass(frozen=True)
class IACTParams:
    """Approximate input memoization (iACT, [35]) parameters.

    ``memo(in:tsize:threshold:tperwarp)`` — cache (input, output) pairs; when
    a new input lies within ``threshold`` euclidean distance of a cached
    input, return the cached output.  ``tables_per_warp`` (the HPAC-Offload
    extension, §3.1.4) controls table sharing: ``warp_size`` tables per warp
    means thread-private tables; 1 means the whole warp shares one table.
    ``None`` defers to the launch warp size (thread-private, the default).
    """

    table_size: int
    threshold: float
    tables_per_warp: int | None = None

    def __post_init__(self) -> None:
        if self.table_size < 1:
            raise ConfigurationError("iACT table_size must be >= 1")
        if not math.isfinite(self.threshold) or self.threshold < 0:
            raise ConfigurationError("iACT threshold must be finite and >= 0")
        if self.tables_per_warp is not None and self.tables_per_warp < 1:
            raise ConfigurationError("iACT tables_per_warp must be >= 1")

    def resolved_tables_per_warp(self, warp_size: int) -> int:
        """Tables per warp after applying the per-thread default."""
        t = warp_size if self.tables_per_warp is None else self.tables_per_warp
        if t > warp_size:
            raise ConfigurationError(
                f"tables_per_warp ({t}) cannot exceed the warp size ({warp_size})"
            )
        if warp_size % t:
            raise ConfigurationError(
                f"tables_per_warp ({t}) must divide the warp size ({warp_size})"
            )
        return t


@dataclass(frozen=True)
class PerfoParams:
    """Loop perforation parameters.

    * ``small``/``large``: ``parameter`` is the skip factor M (Table 2 uses
      2..64).  ``herded=True`` selects the GPU-aware variant of §3.1.5 where
      every thread in the grid skips the same *encounters*, keeping warp
      control flow uniform.
    * ``ini``/``fini``: ``parameter`` is the percentage of iterations dropped
      from the start/end of the loop (Table 2 uses 10..90).
    """

    kind: PerforationKind
    parameter: float
    herded: bool = False

    def __post_init__(self) -> None:
        if self.kind in (PerforationKind.SMALL, PerforationKind.LARGE):
            if int(self.parameter) < 2:
                raise ConfigurationError("perforation skip factor must be >= 2")
        else:
            if not 0 < self.parameter < 100:
                raise ConfigurationError("ini/fini skip percent must be in (0, 100)")
            if self.herded:
                raise ConfigurationError(
                    "herded applies to small/large perforation only; ini/fini "
                    "are bound adjustments and never diverge"
                )

    @property
    def skip_factor(self) -> int:
        return int(self.parameter)

    @property
    def skip_fraction(self) -> float:
        """Fraction of iterations dropped by this pattern."""
        if self.kind is PerforationKind.SMALL:
            return 1.0 / self.parameter
        if self.kind is PerforationKind.LARGE:
            return 1.0 - 1.0 / self.parameter
        return self.parameter / 100.0


@dataclass(frozen=True)
class NoiseParams:
    """Relative-noise injection (sensitivity analysis, §4.2).

    ``rel_sigma`` is the standard deviation of the multiplicative output
    perturbation ``1 + rel_sigma·N(0,1)``; ``seed`` decorrelates analyses.
    """

    rel_sigma: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.rel_sigma) or self.rel_sigma < 0:
            raise ConfigurationError("rel_sigma must be finite and >= 0")


@dataclass
class ThresholdWindow:
    """The thresholds and items per thread under which a run makes exactly
    the same decisions.

    A TAF or iACT threshold enters the simulation at one comparison: TAF
    arms a lane when ``rsd < rsd_threshold``, iACT lets an active lane with
    a table entry approximate when ``nearest_d2 <= threshold**2``.  Every
    comparison evaluated narrows the window to its tightest margins:

    * TAF: ``lo < t <= hi`` on ``t = float(threshold)``; ``lo`` is the
      largest RSD that armed, ``hi`` the smallest that did not;
    * iACT: ``lo <= t**2 < hi``; ``lo`` is the largest squared distance
      that approximated, ``hi`` the smallest that did not.

    NaN compares False under every threshold, so it never narrows.  A
    threshold inside the window leaves every comparison's outcome, and by
    induction the whole run, unchanged.

    Items per thread enters a run only through
    :meth:`~repro.openmp.OffloadProgram.teams_for`, whose calls ``grids``
    records as ``(n, divisor, teams)``.  Another value that resolves every
    call to the same ``teams`` launches the same grids, so it reproduces
    the run too; with no calls, every value does.
    """

    lo: float = -math.inf
    hi: float = math.inf
    grids: tuple[tuple[int, int, int], ...] = ()

    def narrow(self, values, taken, rest) -> None:
        """Fold in one comparison over ``values``: ``taken`` masks the
        lanes where it came out True, ``rest`` the lanes where it came out
        False (NaN lanes there are skipped)."""
        lo = float(np.max(values, where=taken, initial=-np.inf))
        hi = float(np.fmin.reduce(values, where=rest, initial=np.inf))
        if lo > self.lo:
            self.lo = lo
        if hi < self.hi:
            self.hi = hi

    def intersect(self, other: "ThresholdWindow") -> "ThresholdWindow":
        return ThresholdWindow(
            max(self.lo, other.lo), min(self.hi, other.hi), self.grids + other.grids
        )

    def admits(self, technique: str, threshold=None) -> bool:
        """Whether ``threshold`` reproduces the run this window came from.

        The threshold is converted exactly as the simulator converts it
        (``float``, then ``** 2`` for iACT); a value that cannot be (an
        overflowing square, say) is not admitted.  Techniques without a
        threshold admit anything."""
        if technique not in ("taf", "iact"):
            return True
        t = float(threshold)
        if technique == "taf":
            return self.lo < t <= self.hi
        try:
            t2 = t**2
        except OverflowError:
            return False
        return self.lo <= t2 < self.hi

    def admits_items(self, items_per_thread) -> bool:
        """Whether ``items_per_thread`` launches the grids of this run.

        Converted as :meth:`~repro.apps.common.Benchmark.run` converts it
        (``int``); a value ``teams_for`` would reject is not admitted."""
        try:
            ipt = int(items_per_thread)
        except (TypeError, ValueError, OverflowError):
            return False
        return ipt > 0 and all(
            teams_needed(n, divisor, ipt) == teams for n, divisor, teams in self.grids
        )


@dataclass
class RegionStats:
    """Per-region dynamic statistics collected during a launch.

    ``approximated / invocations`` is the "% of calculations approximated"
    colour scale of Fig 8c.  ``window`` holds the TAF/iACT threshold
    margins (:class:`ThresholdWindow`); it is not part of :meth:`snapshot`,
    so records never carry it.
    """

    invocations: int = 0  # lane-level region entries
    approximated: int = 0  # lane-level approximate-path executions
    forced: int = 0  # lanes approximated against their own criterion
    denied: int = 0  # lanes accurate against their own criterion
    skipped: int = 0  # lane-iterations dropped by perforation
    fallback_accurate: int = 0  # group said approximate but lane had no value
    window: ThresholdWindow = field(
        default_factory=ThresholdWindow, compare=False, repr=False
    )

    @property
    def approx_fraction(self) -> float:
        return self.approximated / self.invocations if self.invocations else 0.0

    def snapshot(self) -> dict:
        return {
            "invocations": self.invocations,
            "approximated": self.approximated,
            "forced": self.forced,
            "denied": self.denied,
            "skipped": self.skipped,
            "fallback_accurate": self.fallback_accurate,
            "approx_fraction": self.approx_fraction,
        }


@dataclass
class RegionSpec:
    """A lowered ``#pragma approx`` directive attached to one code region."""

    name: str
    technique: Technique
    params: TAFParams | IACTParams | PerfoParams | NoiseParams | None = None
    level: HierarchyLevel = HierarchyLevel.THREAD
    #: Number of scalars captured per thread as region input (iACT only).
    in_width: int = 0
    #: Number of scalars produced per thread as region output.
    out_width: int = 1
    #: Free-form metadata (source pragma text, app-specific notes).
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.technique is Technique.TAF and not isinstance(self.params, TAFParams):
            raise ConfigurationError("TAF region requires TAFParams")
        if self.technique is Technique.IACT:
            if not isinstance(self.params, IACTParams):
                raise ConfigurationError("iACT region requires IACTParams")
            if self.in_width < 1:
                raise ConfigurationError(
                    "iACT region requires in_width >= 1 (declared region inputs)"
                )
        if self.technique is Technique.PERFORATION and not isinstance(
            self.params, PerfoParams
        ):
            raise ConfigurationError("perforated region requires PerfoParams")
        if self.technique is Technique.NOISE and not isinstance(
            self.params, NoiseParams
        ):
            raise ConfigurationError("noise region requires NoiseParams")
        if self.out_width < 0:
            raise ConfigurationError("out_width must be >= 0")

    @classmethod
    def accurate(cls, name: str, out_width: int = 1) -> "RegionSpec":
        """A no-approximation region (the baseline execution path)."""
        return cls(name=name, technique=Technique.NONE, out_width=out_width)
