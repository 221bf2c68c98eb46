"""Static contract-dataflow verifier: launch-to-launch ``out(...)`` flow.

The static mirror of the sanitizer's vector-clock engine.  An app may
declare its *launch plan* — the static order in which its kernels launch
and which contracted regions each one runs:

.. code-block:: python

    class MiniFE(Benchmark):
        launch_plan = (
            {"launch": "minife_spmv", "regions": ("spmv_row",)},
            {"launch": "minife_dot"},
            ...
        )
        plan_inputs = ("xvec",)

Each entry is one launch (``"nowait": True`` marks it asynchronous, as in
the OpenMP clause) or an explicit join ``{"sync": True}`` (a taskwait).
``plan_inputs`` names the buffers whose contents are produced *outside*
any contracted region — host maps and accurate kernel-scope code.

:func:`lint_dataflow` walks the plan once, propagating each region's
declared ``out(...)`` sets forward launch-to-launch:

* ``HPAC213 contract-overlap-without-sync`` — two regions in different
  launches declare intersecting write sets and no synchronizing launch,
  taskwait, or map-back joins the first before the second launches (the
  static shadow of the dynamic ``HPAC208``);
* ``HPAC214 read-before-any-declared-write`` — a region declares an
  ``in(...)`` section over a buffer that no earlier launch's ``out(...)``
  produces and that ``plan_inputs`` does not provide.

Both are *pure static* passes joining ``lint --app``, ``sanitize``, and
``preflight_diagnostics``; like every HPAC21x rule they report but never
prune, so the per-point sweep preflight skips them.
Apps without a plan are silent — the plan is opt-in metadata, exactly
like the inferred baselines.  The checks are name-level first (two
symbolic sections over one buffer intersect by definition) and refine to
literal element ranges when both sides declare them.
"""

from __future__ import annotations

from repro.analysis.contracts import Contract, parse_contract
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.lint import RULES, Severity, register
from repro.errors import PragmaSyntaxError

register("HPAC213", "contract-overlap-without-sync", Severity.ERROR,
         "dataflow",
         "two regions in different launches declare intersecting out(...) "
         "write sets with no synchronizing launch between them")(None)
register("HPAC214", "read-before-any-declared-write", Severity.WARNING,
         "dataflow",
         "a region declares an in(...) section over a buffer no earlier "
         "launch's out(...) produces and the plan's inputs do not "
         "provide")(None)


def _write_overlap(a: Contract, b: Contract) -> str | None:
    """First buffer whose declared write sets intersect, or None.

    Name-level first; when both contracts pin literal bounds for the
    common name, the ranges must actually intersect.
    """
    for name in sorted(a.out_names & b.out_names):
        ba = a.allowed_bounds(name, "out")
        bb = b.allowed_bounds(name, "out")
        if ba is None or bb is None:
            return name  # symbolic section: whole buffer declared
        for lo_a, hi_a in ba:
            for lo_b, hi_b in bb:
                if lo_a < hi_b and lo_b < hi_a:
                    return name
    return None


def _plan_of(app) -> tuple | None:
    plan = getattr(app, "launch_plan", None)
    return tuple(plan) if plan else None


def lint_dataflow(app) -> list[Diagnostic]:
    """Walk ``app.launch_plan`` and report HPAC213/HPAC214 findings.

    ``app`` is a :class:`~repro.apps.common.Benchmark` (duck-typed:
    ``name``, ``sites()``, and the optional ``launch_plan`` /
    ``plan_inputs`` attributes).  Silent when no plan is declared.
    """
    plan = _plan_of(app)
    if plan is None:
        return []
    inputs = frozenset(getattr(app, "plan_inputs", ()) or ())
    contracts: dict[str, Contract] = {}
    for site in app.sites():
        text = getattr(site, "contract", None)
        if not text:
            continue
        try:
            contracts[site.name] = parse_contract(site.name, text)
        except PragmaSyntaxError:
            continue  # HPAC211's problem, not ours

    diags: list[Diagnostic] = []
    #: Buffers some earlier launch declared writing (joined or not):
    #: availability for the HPAC214 read check.
    produced: set[str] = set(inputs)
    #: (launch, region, contract) of nowait launches not yet joined.
    pending: list[tuple[str, str, Contract]] = []

    for step in plan:
        if step.get("sync"):
            pending.clear()
            continue
        nowait = bool(step.get("nowait"))
        if not nowait:
            # A synchronous launch waits for all outstanding device work
            # before it starts and completes before the host proceeds.
            pending.clear()
        kernel = step.get("launch", "?")
        step_regions = tuple(step.get("regions", ()))
        for region in step_regions:
            contract = contracts.get(region)
            if contract is None:
                continue
            where = f"{app.name}/{region}"
            for sec in contract.ins:
                if sec.name in produced or sec.name in contract.out_names:
                    continue
                pos, length = contract.section_span(sec.name, "in")
                diags.append(RULES["HPAC214"].diag(
                    f"{where}: launch {kernel!r} declares reading "
                    f"{sec.name!r}, but no earlier launch declares writing "
                    f"it and the plan's inputs do not provide it",
                    text=contract.text, position=pos, length=length,
                    hint="add the producing region to an earlier plan "
                         "step, or name the buffer in plan_inputs if the "
                         "host (or accurate kernel code) provides it",
                    region=region, buffer=sec.name, launch=kernel,
                ))
            for pkernel, pregion, pcontract in pending:
                buffer = _write_overlap(pcontract, contract)
                if buffer is None:
                    continue
                pos, length = contract.section_span(buffer, "out")
                diags.append(RULES["HPAC213"].diag(
                    f"{where}: regions {pregion!r} (launch {pkernel!r}) "
                    f"and {region!r} (launch {kernel!r}) both declare "
                    f"writes to buffer {buffer!r} with no synchronizing "
                    f"launch, taskwait, or map-back between their "
                    f"launches",
                    text=contract.text, position=pos, length=length,
                    hint="drop nowait from one of the launches or join "
                         "them with a taskwait; unordered kernels racing "
                         "on one buffer corrupt it nondeterministically",
                    regions=[pregion, region], buffer=buffer,
                    launches=[pkernel, kernel],
                ))
        # This step's declared products become available downstream.
        for region in step_regions:
            contract = contracts.get(region)
            if contract is None:
                continue
            produced |= contract.out_names
            if nowait:
                pending.append((kernel, region, contract))
    return diags
