"""Region sensitivity analysis — the §4.2 automation, implemented.

The paper's limitation section proposes integrating the harness with
sensitivity-analysis tools (ASAC [42], Puppeteer [37], [53]) "to find code
regions amenable to approximation".  This module implements the standard
instrument: perturb one candidate region's outputs with controlled relative
noise (``Technique.NOISE``), measure the application's QoI response, and
rank the regions — low sensitivity ⇒ safe approximation target.

The reported score is the *amplification factor*: QoI error divided by the
injected relative noise.  A region with amplification ≪ 1 damps
perturbations (approximate it!); amplification ≫ 1 means errors are
magnified by downstream computation (MiniFE's SpMV inside CG is the
canonical example — locally small errors propagate through the Krylov
recurrences).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.common import Benchmark
from repro.gpusim.device import DeviceSpec
from repro.harness.metrics import error


@dataclass(frozen=True)
class SiteSensitivity:
    """Sensitivity report for one approximation site."""

    site: str
    #: Injected relative output noise (sigma of the multiplicative term).
    rel_sigma: float
    #: QoI error (app's metric, as a fraction) caused by the injection.
    qoi_error: float

    @property
    def amplification(self) -> float:
        """QoI error per unit of injected relative noise."""
        return self.qoi_error / self.rel_sigma if self.rel_sigma else float("inf")

    @property
    def amenable(self) -> bool:
        """Rule of thumb: a damping region is an approximation target."""
        return self.amplification < 1.0


def analyze_sensitivity(
    app: Benchmark,
    device: str | DeviceSpec = "v100_small",
    rel_sigma: float = 0.05,
    items_per_thread: int | None = None,
    seed: int = 2023,
) -> list[SiteSensitivity]:
    """Rank an application's sites by QoI sensitivity to output noise.

    Runs the accurate baseline once, then one perturbed run per site, and
    returns reports sorted most-amenable (least sensitive) first — the
    order in which a user should spend their approximation budget.
    """
    ipt = app.resolve_items_per_thread(items_per_thread)
    baseline = app.run(device, regions=None, items_per_thread=ipt, seed=seed)
    out: list[SiteSensitivity] = []
    for site in app.sites():
        regions = app.build_regions(
            "noise", site=site.name, rel_sigma=rel_sigma, seed=seed
        )
        res = app.run(device, regions, items_per_thread=ipt, seed=seed)
        qoi_err = error(app.error_metric, baseline.qoi, res.qoi)
        out.append(SiteSensitivity(site.name, rel_sigma, qoi_err))
    out.sort(key=lambda s: s.amplification)
    return out


def format_sensitivity(reports: list[SiteSensitivity]) -> str:
    """Human-readable ranking table."""
    lines = [f"{'site':<24} {'QoI err %':>10} {'amplify':>9}  verdict"]
    for r in reports:
        verdict = "approximate" if r.amenable else "protect"
        lines.append(
            f"{r.site:<24} {100 * r.qoi_error:10.4f} {r.amplification:9.3f}  {verdict}"
        )
    return "\n".join(lines)
