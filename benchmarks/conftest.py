"""Shared fixtures for the figure benches.

One session-scoped :class:`BatchEngine` evaluates every figure's
simulation grid, so overlapping grids (Fig 6 and Fig 7 share the LULESH
points) evaluate once per session.  Its runner (``engine.runner``) caches
the accurate baselines across figures and the benches' direct
``run_point`` calls, matching how the paper's harness reuses its
non-approximated reference runs.
"""

import pytest

from repro.harness.batch import BatchEngine


@pytest.fixture(scope="session")
def engine():
    eng = BatchEngine()
    yield eng
    eng.close()


@pytest.fixture(scope="session")
def runner(engine):
    return engine.runner


def emit(title: str, body: str) -> None:
    """Print a figure block so `pytest -s` / tee'd runs show paper-style rows."""
    bar = "=" * len(title)
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
