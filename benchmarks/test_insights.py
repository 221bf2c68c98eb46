"""§4.3 — the paper's six insights, asserted directly.

The paper distils its 57,288-configuration study into six insights; this
bench re-derives each one from the reproduction (reusing the session
runner's cached baselines where possible).
"""

import numpy as np
import pytest
from conftest import emit

from repro.harness.figures import (
    AMD,
    NVIDIA,
    _iact,
    _taf,
    candidates,
    fig6_best_speedup,
    fig8_binomial,
)


@pytest.fixture(scope="module")
def fig6(engine):
    return fig6_best_speedup(engine=engine)


def test_insight1_significant_speedups_app_specific_tradeoffs(benchmark, fig6):
    """Insight 1: adapted AC techniques significantly accelerate
    GPU-accelerated HPC applications, with app-specific trade-offs."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # register with --benchmark-only
    best_per_app = {}
    for app in ("lulesh", "binomial", "lavamd", "leukocyte"):
        cells = [fig6.best.get(("nvidia", app, t)) for t in ("perfo", "taf", "iact")]
        cells = [c for c in cells if c]
        best_per_app[app] = max(c.reported_speedup for c in cells)
    emit("Insight 1 — best speedups under 10% error (NVIDIA)",
         "\n".join(f"{a}: {s:.2f}x" for a, s in best_per_app.items()))
    assert all(s > 1.4 for s in best_per_app.values())
    # App-specific: the spread across apps is wide (not one-size-fits-all).
    assert max(best_per_app.values()) / min(best_per_app.values()) > 2.0


def test_insight2_speedup_decreases_with_more_sms(benchmark, runner):
    """Insight 2: 'Speedup for TAF and iACT decreases as the number of SMs
    in the GPU increases' — the same approximate config is worth less on
    the 220-SM AMD device than on the 80-SM NVIDIA device."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # register with --benchmark-only
    rows = {}
    pt = _taf(2, 32, 0.3, "team", 128)
    for dkey, dev in (("nvidia", NVIDIA), ("amd", AMD)):
        rows[dkey] = runner.run_point("binomial", dev, pt).reported_speedup
    emit("Insight 2 — same BO TAF config across platforms",
         f"NVIDIA (8-SM scaled): {rows['nvidia']:.2f}x\n"
         f"AMD   (22-SM scaled): {rows['amd']:.2f}x")
    assert rows["amd"] < rows["nvidia"]


def test_insight3_rsd_behaves_app_specifically(benchmark, runner):
    """Insight 3: the TAF RSD threshold interacts differently with each
    application — the error response to the same threshold sweep is not
    even monotone in the same direction across apps."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # register with --benchmark-only
    apps = {"blackscholes": 1.0, "lavamd": 0.01, "kmeans": 1.0}
    responses = {}
    for app, scale in apps.items():
        errs = []
        for thr in (0.3, 0.9, 3.0):
            pt = _taf(2, 8, thr * scale, "thread",
                      1 if app == "lavamd" else 8)
            errs.append(runner.run_point(app, NVIDIA, pt).error)
        responses[app] = errs
    emit("Insight 3 — error vs threshold per app",
         "\n".join(f"{a}: {[round(100 * e, 3) for e in errs]}%"
                   for a, errs in responses.items()))
    # The normalized response curves differ across apps.
    shapes = {
        a: tuple(np.sign(np.diff(e)).tolist()) for a, e in responses.items()
    }
    assert len(set(shapes.values())) > 1


def test_insight4_taf_faster_than_iact(benchmark, fig6):
    """Insight 4: TAF has higher speedup than iACT (it amortizes its
    decision cost; iACT pays the scan every invocation)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # register with --benchmark-only
    wins, rows = 0, []
    pairs = 0
    for dkey in ("nvidia", "amd"):
        for app in ("leukocyte", "binomial", "blackscholes", "lavamd", "kmeans"):
            taf = fig6.best.get((dkey, app, "taf"))
            iact = fig6.best.get((dkey, app, "iact"))
            if taf and iact:
                pairs += 1
                wins += taf.reported_speedup >= iact.reported_speedup
                rows.append(f"{dkey}/{app}: taf {taf.reported_speedup:.2f}x "
                            f"vs iact {iact.reported_speedup:.2f}x")
    emit("Insight 4 — TAF vs iACT best-under-budget", "\n".join(rows))
    assert wins == pairs  # TAF never loses


def test_insight5_hierarchy_removes_divergence(benchmark, runner):
    """Insight 5: load imbalance from control divergence degrades GPU AC;
    hierarchical decisions remove it (the Fig-11c pairing)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # register with --benchmark-only
    t = runner.run_point("lavamd", AMD, _taf(2, 4, 0.01, "thread", 1))
    w = runner.run_point("lavamd", AMD, _taf(2, 4, 0.01, "warp", 1))
    emit("Insight 5 — LavaMD T=0.01",
         f"thread: {t.reported_speedup:.3f}x\nwarp:   {w.reported_speedup:.3f}x")
    assert w.reported_speedup >= t.reported_speedup


def test_insight6_iact_lower_error(benchmark, fig6, runner):
    """Insight 6: iACT is slower than TAF but introduces less error —
    euclidean input matching is a stricter activation than RSD."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # register with --benchmark-only
    rows, lower = [], 0
    pairs = 0
    for app in ("lavamd", "kmeans", "leukocyte"):
        taf_recs = [r for r in fig6.db.query(app=app, technique="taf",
                                             device="nvidia") if r.approx_fraction > 0.1]
        iact_recs = [r for r in fig6.db.query(app=app, technique="iact",
                                              device="nvidia") if r.approx_fraction > 0.01]
        if not taf_recs or not iact_recs:
            continue
        pairs += 1
        t_err = min(r.error for r in taf_recs)
        i_err = min(r.error for r in iact_recs)
        lower += i_err <= t_err * 1.5
        rows.append(f"{app}: min TAF err {100 * t_err:.3f}% vs "
                    f"min iACT err {100 * i_err:.3f}%")
    emit("Insight 6 — error floors (NVIDIA, active configs)", "\n".join(rows))
    assert pairs >= 2
    assert lower >= pairs - 1
