"""Fig 7 — LULESH speedup/error scatter for all three techniques.

Paper: perforation reaches 1.64×/1.67× under 7% MAPE; fini induces less
error than ini; TAF reaches 1.30×/1.45× at 0.67% MAPE; iACT has the lowest
error (0.3%) but the least speedup headroom.
"""

import pytest
from conftest import emit

from repro.harness.figures import fig7_lulesh
from repro.harness.metrics import mape
from repro.harness.reporting import format_records_table


@pytest.fixture(scope="module")
def fig7(engine):
    return fig7_lulesh(engine=engine)


def test_fig7_lulesh_scatter(benchmark, engine):
    result = benchmark.pedantic(lambda: fig7_lulesh(engine=engine),
                                rounds=1, iterations=1)
    for (dkey, tech), recs in result.records.items():
        emit(f"Fig 7 — LULESH {tech} on {dkey}", format_records_table(recs))

    for dkey in ("nvidia", "amd"):
        # Perforation is the speedup leader under the budget.
        perfo = result.best_under(dkey, "perfo")
        taf = result.best_under(dkey, "taf")
        iact = result.best_under(dkey, "iact")
        assert perfo and taf and iact, dkey
        assert perfo.reported_speedup > taf.reported_speedup
        assert perfo.reported_speedup > 1.3

        # Memoization errors are far smaller than perforation's best.
        assert min(taf.error, iact.error) < perfo.error or perfo.error < 0.01


def test_fini_less_error_than_ini(benchmark, engine):
    """Fig 7 / §4.1: 'fini perforation induces less error than ini'."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # register with --benchmark-only
    from repro.harness.batch import BatchJob
    from repro.harness.sweep import SweepPoint

    errs = {}
    for kind in ("ini", "fini"):
        pt = SweepPoint("perfo", {"kind": kind, "skip_percent": 50}, "thread", 8)
        rec = engine.submit([BatchJob("lulesh", "v100_small", pt)]).records()[0]
        errs[kind] = rec.error
    emit("Fig 7 — ini vs fini at 50% skip",
         f"ini error:  {100 * errs['ini']:10.3f}%\n"
         f"fini error: {100 * errs['fini']:10.3f}%")
    assert errs["fini"] < errs["ini"]
