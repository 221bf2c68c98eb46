"""Contract inference: run an accurate execution, emit the pragma text.

ApproxSan v1 *checks* the ``in(...)``/``out(...)`` contracts a programmer
wrote; this module writes them.  One accurate (approximation-off) run under
a recording :class:`~repro.analysis.sanitizer.Sanitizer` collects each
region's per-buffer access sets; :func:`infer_app` collapses them into
minimal array sections and emits ready-to-paste contract text:

* a region whose every event touches a consistent ``w`` elements per lane
  gets the symbolic form ``buf[i*w:w]`` (or ``buf[i]`` for scalars) — the
  shape iACT capture widths require;
* ragged access patterns (e.g. MiniFE's CSR row gather) collapse to the
  minimal literal interval union ``buf[lo:len]``, the envelope ``[min,
  max)`` when the union is too fragmented to be a usable pragma;
* ``seeds=N`` unions the access sets of N accurate runs under distinct
  seeds before collapsing, with per-seed provenance recorded on each
  observed record — the hardening that keeps data-dependent footprints
  (CSR gathers) from producing contracts a different seed violates;
* output sections come from writes observed *inside* the region scope,
  plus one heuristic: apps store a region's returned product from kernel
  scope right after the region returns, so the first post-return
  kernel-scope write is attributed to the region when its per-lane width
  matches the site's ``out_width``.  Attributed sections are marked and
  never *enforced* by the cross-check below.

The static cross-check rule ``HPAC212 contract-narrower-than-observed``
diffs declared contracts against a stored inferred baseline
(``baselines/approxsan/<app>.json``, written by ``python -m repro sanitize
--infer --write``): a declared contract that fails to cover an observed
access set under-reports the region's footprint, which would let an
approximation technique corrupt state the sanitizer believes untouched.
The rule joins :func:`repro.analysis.preflight.preflight_diagnostics`; like
the other HPAC21x checks it reports but never prunes points.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis.contracts import Contract, parse_contract
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.lint import RULES, Severity, register
from repro.errors import PragmaSyntaxError

register("HPAC212", "contract-narrower-than-observed", Severity.ERROR,
         "contract",
         "a declared contract fails to cover the access set an accurate "
         "recorded run observed (stored inferred baseline)")(None)

#: More literal intervals than this collapses to the [min, max) envelope —
#: a 40-section pragma is not a contract anyone will paste.
MAX_INTERVALS = 8


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class RegionInference:
    """Inferred contract for one region, with the evidence behind it."""

    region: str
    declared: str | None
    inferred: str | None
    #: direction -> buffer -> {"width", "intervals", "attributed"}
    observed: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "declared": self.declared,
            "inferred": self.inferred,
            "observed": self.observed,
            "notes": list(self.notes),
        }


@dataclass
class AppInference:
    """All inferred contracts for one app plus round-trip verdicts."""

    app: str
    device: str
    seed: int
    regions: list[RegionInference] = field(default_factory=list)
    #: Every seed whose accurate run fed the union (``[seed]`` for the
    #: classic single-seed inference).
    seeds: list[int] = field(default_factory=list)
    #: HPAC212-style findings: declared narrower than observed.
    narrower: list[Diagnostic] = field(default_factory=list)
    #: Round-trip verification (None until verify_roundtrip runs).
    roundtrip: dict | None = None

    def region(self, name: str) -> RegionInference | None:
        for r in self.regions:
            if r.region == name:
                return r
        return None

    def to_dict(self) -> dict:
        out = {
            "app": self.app,
            "device": self.device,
            "seed": self.seed,
            "seeds": list(self.seeds) or [self.seed],
            "regions": {r.region: r.to_dict() for r in self.regions},
            "narrower": [d.to_json() for d in self.narrower],
        }
        if self.roundtrip is not None:
            out["roundtrip"] = self.roundtrip
        return out


# ----------------------------------------------------------------------
# section emission
# ----------------------------------------------------------------------
def _intervals(flags: np.ndarray) -> list[tuple[int, int]]:
    """Half-open [lo, hi) runs of set flags."""
    hit = np.flatnonzero(flags)
    if not len(hit):
        return []
    breaks = np.flatnonzero(np.diff(hit) > 1)
    starts = np.concatenate(([hit[0]], hit[breaks + 1]))
    ends = np.concatenate((hit[breaks], [hit[-1]])) + 1
    return [(int(lo), int(hi)) for lo, hi in zip(starts, ends)]


def _collapsed_intervals(flags: np.ndarray) -> list[tuple[int, int]]:
    spans = _intervals(flags)
    if len(spans) > MAX_INTERVALS:
        return [(spans[0][0], spans[-1][1])]
    return spans


def _symbolic_section(buffer: str, width: int) -> str:
    return f"{buffer}[i]" if width == 1 else f"{buffer}[i*{width}:{width}]"


def _literal_sections(buffer: str, spans: list[tuple[int, int]]) -> list[str]:
    return [f"{buffer}[{lo}:{hi - lo}]" for lo, hi in spans]


def _emit_direction(recs: list, *, symbolic_only_width: int | None,
                    notes: list[str], clause: str) -> list[str]:
    """Build the section list for one clause from ObservedAccess records.

    ``symbolic_only_width``: when set (iACT capture / out product), the
    clause is only emitted if every record has a consistent per-lane width
    and the widths sum to this value — a literal union would flunk the
    HPAC210 width check, so we omit the clause (legal: contracts may be
    in-only or out-only) and leave a note instead.
    """
    if not recs:
        return []
    recs = sorted(recs, key=lambda r: r.buffer)
    widths = [r.width for r in recs]
    consistent = all(w is not None and w >= 1 for w in widths)
    if consistent and (symbolic_only_width is None
                       or sum(widths) == symbolic_only_width):
        return [_symbolic_section(r.buffer, r.width) for r in recs]
    if symbolic_only_width is not None:
        notes.append(
            f"{clause}(...) omitted: observed per-lane widths "
            f"{widths} do not reconcile with the site width "
            f"{symbolic_only_width}")
        return []
    sections: list[str] = []
    for r in recs:
        spans = _collapsed_intervals(r.elements)
        if not spans:
            continue
        if len(_intervals(r.elements)) > MAX_INTERVALS:
            notes.append(
                f"{clause}({r.buffer}): access set fragmented into more "
                f"than {MAX_INTERVALS} runs; emitted the [min, max) envelope")
        sections.extend(_literal_sections(r.buffer, spans))
    return sections


def _seed_list(seed: int, seeds) -> list[int]:
    """Normalize the ``seeds=`` argument into an explicit seed list."""
    if seeds is None:
        return [int(seed)]
    if isinstance(seeds, int):
        if seeds < 1:
            raise ValueError(f"seeds must be >= 1, got {seeds}")
        return [int(seed) + k for k in range(seeds)]
    out = [int(s) for s in seeds]
    if not out:
        raise ValueError("seeds list must not be empty")
    return out


def _fold_observed(merged: dict, run_obs: dict, seed: int) -> None:
    """Union one seed's recorded access sets into ``merged`` in place.

    ``merged`` maps region -> (buffer, direction) -> ObservedAccess, with
    each record carrying a ``seed_new_elements`` provenance map (elements
    that seed contributed beyond the union so far).  Width survives only
    when every seed agrees (-1 otherwise, same rule as within one run);
    ``attributed`` ANDs — one directly observed sighting in any seed
    proves the access is the region's own, not a heuristic attribution.
    """
    import copy

    for region, per in run_obs.items():
        dst = merged.setdefault(region, {})
        for key, rec in per.items():
            m = dst.get(key)
            if m is None:
                m = copy.deepcopy(rec)
                m.seed_new_elements = {
                    str(seed): int(rec.elements.sum())}
                dst[key] = m
                continue
            before = int(m.elements.sum())
            idx = np.flatnonzero(rec.elements)
            if len(idx):
                top = int(idx.max()) + 1
                if top > len(m._flags):
                    grown = np.zeros(max(len(m._flags) * 2, top), dtype=bool)
                    grown[: m.size] = m._flags[: m.size]
                    m._flags = grown
                m._flags[idx] = True
                m.size = max(m.size, top)
            m.seed_new_elements[str(seed)] = int(m.elements.sum()) - before
            m.events += rec.events
            if rec.width is not None:
                m.width = rec.width if m.width is None else (
                    m.width if m.width == rec.width else -1)
            m.attributed = m.attributed and rec.attributed


def infer_app(app, device: str = "v100_small", *,
              items_per_thread: int | None = None,
              seed: int = 2023, seeds=None) -> AppInference:
    """Record accurate run(s) of ``app`` and infer per-region contracts.

    ``app`` is a benchmark name or instance.  Each run is sanitized but
    contract-free (observation only) and approximation-off, so the access
    sets are the region's true accurate footprint.

    ``seeds`` widens the evidence base: an int ``N`` records ``N`` runs
    under seeds ``seed, seed+1, ..., seed+N-1``; an explicit list records
    those seeds.  The per-region access sets are the *union* over all
    runs, which is what makes data-dependent footprints (MiniFE's CSR row
    gather) robust — a single unlucky seed under-observes the envelope
    and the resulting contract flunks verification under any other seed.
    """
    from repro.analysis.sanitizer import Sanitizer
    from repro.apps import get_benchmark

    bench = get_benchmark(app) if isinstance(app, str) else app
    seed_list = _seed_list(seed, seeds)
    ipt = bench.resolve_items_per_thread(items_per_thread)
    merged: dict = {}
    for s in seed_list:
        san = Sanitizer(record_accesses=True)
        bench.run(device, bench.build_regions(), items_per_thread=ipt,
                  seed=s, sanitize=san)
        _fold_observed(merged, san.observed, s)

    inference = AppInference(app=bench.name, device=device,
                             seed=seed_list[0], seeds=list(seed_list))
    multi = len(seed_list) > 1
    for site in bench.sites():
        obs = merged.get(site.name, {})
        notes: list[str] = []
        in_recs = [r for (_, d), r in obs.items() if d == "in"]
        out_recs = []
        for (_, d), r in obs.items():
            if d != "out":
                continue
            if r.attributed and (r.width is None or r.width != site.out_width):
                notes.append(
                    f"ignored attributed write to {r.buffer!r}: per-lane "
                    f"width {r.width} != out_width {site.out_width} (the "
                    f"write is a derived product, not the region's output)")
                continue
            out_recs.append(r)
        iact_capable = "iact" in site.techniques
        ins = _emit_direction(
            in_recs, notes=notes, clause="in",
            symbolic_only_width=site.in_width if iact_capable else None)
        outs = _emit_direction(
            out_recs, notes=notes, clause="out",
            symbolic_only_width=site.out_width)
        parts = []
        if ins:
            parts.append("in(" + ", ".join(ins) + ")")
        if outs:
            parts.append("out(" + ", ".join(outs) + ")")
        inferred = " ".join(parts) if parts else None
        if not obs:
            notes.append("no mediated or hinted accesses observed for this "
                         "region; nothing to infer")
        observed = {}
        for (buf, d), r in sorted(obs.items()):
            entry = {
                "width": r.width,
                "intervals": [list(s) for s in _collapsed_intervals(r.elements)],
                "attributed": bool(r.attributed),
                "events": r.events,
            }
            if multi:
                prov = dict(getattr(r, "seed_new_elements", {}))
                entry["seed_new_elements"] = prov
                widened = {s: n for s, n in prov.items()
                           if n and s != str(seed_list[0])}
                if widened:
                    grew = ", ".join(f"seed {s}: +{n}"
                                     for s, n in sorted(widened.items()))
                    notes.append(
                        f"{d}({buf}): later seeds widened the first-seed "
                        f"envelope ({grew}) — a single-seed contract would "
                        f"under-cover this data-dependent access set")
            observed.setdefault(d, {})[buf] = entry
        inference.regions.append(RegionInference(
            region=site.name, declared=site.contract or None,
            inferred=inferred, observed=observed, notes=notes,
        ))
    inference.narrower = diff_declared(bench, inference)
    return inference


# ----------------------------------------------------------------------
# declared-vs-observed diff (the HPAC212 core)
# ----------------------------------------------------------------------
def _coverage_gap(contract: Contract, direction: str, buffer: str,
                  intervals: list) -> str | None:
    """Why ``contract`` fails to cover these observed accesses, or None."""
    if direction == "in":
        if not contract.ins:
            return None  # in-less contract: the region owns its loads
        allowed = contract.in_names | contract.out_names
    else:
        if not contract.outs:
            return None
        allowed = contract.out_names
    if buffer not in allowed:
        verb = "reads" if direction == "in" else "writes"
        return (f"observed {verb} of buffer {buffer!r} but no "
                f"{direction}(...) section declares it")
    bounds = contract.allowed_bounds(buffer, direction)
    if bounds is None:
        return None  # symbolic section: whole buffer allowed
    for lo, hi in intervals:
        covered = any(lo >= blo and hi <= bhi for blo, bhi in bounds)
        if not covered:
            declared = ", ".join(f"[{blo}, {bhi})" for blo, bhi in bounds)
            return (f"observed {direction}-access range [{lo}, {hi}) of "
                    f"{buffer!r} exceeds the declared range(s) {declared}")
    return None


def _diff_region(region: str, declared: str, observed: dict,
                 where: str) -> list[Diagnostic]:
    try:
        contract = parse_contract(region, declared)
    except PragmaSyntaxError:
        return []  # HPAC211's problem, not ours
    diags: list[Diagnostic] = []
    for direction in ("in", "out"):
        for buffer, rec in sorted(observed.get(direction, {}).items()):
            if direction == "out" and rec.get("attributed"):
                continue  # heuristic attribution is evidence, not proof
            gap = _coverage_gap(contract, direction, buffer,
                                rec.get("intervals", []))
            if gap is None:
                continue
            pos, length = contract.span(direction)
            diags.append(RULES["HPAC212"].diag(
                f"{where}: declared contract is narrower than the recorded "
                f"accurate run: {gap}",
                text=declared, position=pos, length=length,
                hint="regenerate with `python -m repro sanitize --infer` "
                     "and widen the declared sections to cover the "
                     "observed set",
                region=region, buffer=buffer, direction=direction,
            ))
    return diags


def diff_declared(bench, inference: AppInference) -> list[Diagnostic]:
    """HPAC212 findings for a freshly inferred run (no stored baseline)."""
    diags: list[Diagnostic] = []
    for site in bench.sites():
        if not site.contract:
            continue
        reg = inference.region(site.name)
        if reg is None:
            continue
        diags.extend(_diff_region(
            site.name, site.contract, reg.observed,
            where=f"{bench.name}/{site.name}"))
    return diags


# ----------------------------------------------------------------------
# stored baselines
# ----------------------------------------------------------------------
def baseline_dir() -> Path:
    """Where inferred baselines live; override with HPAC_BASELINE_DIR."""
    env = os.environ.get("HPAC_BASELINE_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "baselines" / "approxsan"


def baseline_path(app: str) -> Path:
    return baseline_dir() / f"{app}.json"


def write_baseline(inference: AppInference) -> Path:
    path = baseline_path(inference.app)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "app": inference.app,
        "device": inference.device,
        "seed": inference.seed,
        "seeds": list(inference.seeds) or [inference.seed],
        "regions": {
            r.region: {
                "declared": r.declared,
                "inferred": r.inferred,
                "observed": r.observed,
            } for r in inference.regions
        },
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(app: str) -> dict | None:
    path = baseline_path(app)
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def lint_baseline(app) -> list[Diagnostic]:
    """Static HPAC212 pass: declared contracts vs the stored baseline.

    Silent when no baseline exists — inference is opt-in per app.
    ``app`` is a Benchmark (duck-typed: ``name`` + ``sites()``).
    """
    baseline = load_baseline(app.name)
    if not baseline:
        return []
    regions = baseline.get("regions", {})
    diags: list[Diagnostic] = []
    for site in app.sites():
        if not site.contract:
            continue
        data = regions.get(site.name)
        if not data:
            continue
        diags.extend(_diff_region(
            site.name, site.contract, data.get("observed", {}),
            where=f"{app.name}/{site.name}"))
    return diags


# ----------------------------------------------------------------------
# round-trip verification
# ----------------------------------------------------------------------
def verify_roundtrip(app, inference: AppInference, *,
                     items_per_thread: int | None = None) -> dict:
    """Prove the inferred contracts are usable: parse, lint, re-run.

    Returns a dict with ``parse_errors`` (region -> message), ``lint``
    (HPAC21x diagnostics against the inferred text), ``seeds`` /
    ``dirty_seeds`` (every evidence seed is re-run sanitized under the
    inferred contracts; acceptance is zero HPAC201/202 on all of them),
    and the aggregated ``violations_by_code``.  Stored on
    ``inference.roundtrip``.
    """
    import dataclasses

    from repro.analysis.contracts import lint_contracts
    from repro.analysis.sanitizer import Sanitizer
    from repro.apps import get_benchmark

    bench = get_benchmark(app) if isinstance(app, str) else app
    contracts: dict[str, str] = {}
    parse_errors: dict[str, str] = {}
    for reg in inference.regions:
        if not reg.inferred:
            continue
        try:
            parse_contract(reg.region, reg.inferred)
        except PragmaSyntaxError as exc:
            parse_errors[reg.region] = exc.message
            continue
        contracts[reg.region] = reg.inferred

    class _Shim:
        name = bench.name

        @staticmethod
        def sites():
            shimmed = []
            for site in bench.sites():
                text = contracts.get(site.name)
                shimmed.append(dataclasses.replace(site, contract=text)
                               if text else site)
            return shimmed

    lint_diags = lint_contracts(_Shim)

    # Re-run under *every* seed that fed the union: a multi-seed contract
    # must hold on each of its evidence runs, and a single-seed contract
    # only has its own run to answer for.
    seeds = list(inference.seeds) or [inference.seed]
    ipt = bench.resolve_items_per_thread(items_per_thread)
    by_code: dict[str, int] = {}
    dirty_seeds: list[int] = []
    for s in seeds:
        san = Sanitizer(contracts=contracts)
        result = bench.run(inference.device, bench.build_regions(),
                           items_per_thread=ipt, seed=s, sanitize=san)
        report = result.extra["approxsan"]
        run_dirty = False
        for d in report.diagnostics:
            by_code[d.code] = by_code.get(d.code, 0) + 1
            if d.code in ("HPAC201", "HPAC202"):
                run_dirty = True
        if run_dirty:
            dirty_seeds.append(s)
    verdict = {
        "parse_errors": parse_errors,
        "lint": [d.to_json() for d in lint_diags],
        "seeds": seeds,
        "dirty_seeds": dirty_seeds,
        "violations_by_code": by_code,
        "clean": (not parse_errors and not lint_diags and not dirty_seeds),
    }
    inference.roundtrip = verdict
    return verdict
