"""Exception hierarchy for the HPAC-Offload reproduction.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  The more specific classes mirror failure modes discussed in the
paper:

* :class:`SharedMemoryError` — the AC state did not fit in the shared-memory
  budget configured for the runtime (paper §3.3: the shared memory dedicated
  to approximation state is fixed when building the HPAC-Offload runtime).
* :class:`SimulatedDeadlockError` — a barrier was reached by only a subset of
  a block's threads, the deadlock scenario of §3.1.2 that hierarchical
  decision making is designed to avoid.
* :class:`UnsupportedApproximationError` — the region cannot be approximated
  by the requested technique, e.g. iACT on regions whose input size varies
  per thread (paper §4.1, MiniFE: "HPAC-Offload only supports computations
  with uniform input sizes for all threads").
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """An invalid device, launch, or technique configuration was supplied."""


class LaunchError(ConfigurationError):
    """A kernel launch configuration violates device limits."""


class UnknownBenchmarkError(ConfigurationError, KeyError):
    """No benchmark of the requested name exists.

    Also a :class:`KeyError`, so lookups written against the
    ``BENCHMARKS`` mapping keep catching it."""

    def __str__(self) -> str:
        # KeyError quotes its message; print it as every ReproError does.
        return Exception.__str__(self)


class SharedMemoryError(ReproError):
    """A per-block shared-memory allocation exceeded the device budget."""

    def __init__(self, requested: int, in_use: int, capacity: int) -> None:
        self.requested = int(requested)
        self.in_use = int(in_use)
        self.capacity = int(capacity)
        super().__init__(
            f"shared memory exhausted: requested {requested} B with "
            f"{in_use} B already in use, capacity {capacity} B per block"
        )


class GlobalMemoryError(ReproError):
    """A device global-memory allocation exceeded the device capacity."""

    def __init__(self, requested: int, in_use: int, capacity: int) -> None:
        self.requested = int(requested)
        self.in_use = int(in_use)
        self.capacity = int(capacity)
        super().__init__(
            f"device global memory exhausted: requested {requested} B with "
            f"{in_use} B already in use, capacity {capacity} B"
        )


class SimulatedDeadlockError(ReproError):
    """A block barrier was executed under divergent control flow.

    On real hardware this hangs the kernel; the simulator raises instead so
    that tests can assert the scenario is detected (§3.1.2).
    """


class UnsupportedApproximationError(ReproError):
    """The requested AC technique cannot be applied to this region."""


def _render_span(message: str, text: str, position: int, length: int,
                 hint: str | None = None) -> str:
    """Clang-style rendering: message, source line, caret underline."""
    if position < 0 or not text:
        return message
    underline = " " * position + "^" + "~" * max(length - 1, 0)
    rendered = f"{message}\n  {text}\n  {underline}"
    if hint:
        rendered += f"\n  note: {hint}"
    return rendered


class PragmaSyntaxError(ReproError):
    """The ``#pragma approx`` clause text failed to lex or parse."""

    def __init__(self, message: str, text: str = "", position: int = -1,
                 length: int = 1, hint: str | None = None) -> None:
        self.message = message
        self.text = text
        self.position = position
        self.length = max(int(length), 1)
        self.hint = hint
        super().__init__(_render_span(message, text, position, self.length, hint))


class PragmaSemanticError(ReproError):
    """The clause text parsed but is semantically invalid (bad parameter
    values, missing in/out declarations, conflicting clauses, ...).

    Like :class:`PragmaSyntaxError`, carries a source span (``text``,
    ``position``, ``length``) so sema failures render with the same caret
    diagnostics pointing at the offending clause or argument.
    """

    def __init__(self, message: str, text: str = "", position: int = -1,
                 length: int = 1, hint: str | None = None) -> None:
        self.message = message
        self.text = text
        self.position = position
        self.length = max(int(length), 1)
        self.hint = hint
        super().__init__(_render_span(message, text, position, self.length, hint))


class HarnessError(ReproError):
    """A design-space-exploration run failed in the harness layer."""


class EngineMismatchError(HarnessError, ValueError):
    """A sweep asked for problems or a seed other than its engine's, or
    would resume a checkpoint of another seed, problems, site or sanitize.

    A :class:`~repro.harness.batch.BatchEngine` simulates with the problems
    and seed it was built with, and a checkpoint holds records of one such
    identity, so going on would silently return records for the wrong
    configuration."""
