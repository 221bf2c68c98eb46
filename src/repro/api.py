"""Stable library facade: typed requests in, typed results out.

The CLI, scripts, and the campaign fabric all speak the same vocabulary:

* Requests — :class:`PointRequest`, :class:`SweepRequest` (also the
  spec of a distributed campaign, :func:`campaign_split`),
  :class:`SearchRequest`, :class:`FiguresRequest` — are frozen
  dataclasses carrying a ``version`` stamp, and the one declaration of
  every field and its default.  Build one, pass it to the matching
  function (``sweep(request=...)``) or to :func:`execute`, which
  dispatches on type; ``sweep(*args, **fields)`` means
  ``sweep(request=SweepRequest(*args, **fields))``, so there is exactly
  one resolution path.
* Results all implement the :class:`ApiResult` protocol —
  ``.exit_code`` (what the CLI exits with), ``.to_payload()`` (a pure-
  JSON document), ``.render_json()`` (stable-key-order dump) — and carry
  the engine-layer object they report on as a named field
  (``PointResult.record``, ``SweepResult.report``, ``SearchResult.result``,
  ...).

Execution **policy** stays out of requests on purpose: a
:class:`~repro.harness.config.SweepConfig` (workers, checkpoint,
preflight, ...) or a persistent :class:`~repro.harness.batch.BatchEngine`
is passed alongside, because the same request must produce byte-identical
records under any policy — the invariant the campaign fabric's
split/merge round-trip is tested against.  Everything imports lazily so
``import repro.api`` stays cheap and cycle-free.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.batch import BatchEngine, BatchReport, EngineStats
    from repro.harness.config import SweepConfig
    from repro.harness.runner import RunRecord
    from repro.harness.sweep import SweepPoint

#: Version stamp carried by every request dataclass in this module.
API_VERSION = 1


def _json_safe(obj):
    """Payload scrubber: sentinel-encode non-finite floats (checkpoint
    convention) so every ``to_payload`` result is strict JSON."""
    from repro.harness.database import _encode

    return _encode(obj)


class ApiResult:
    """Uniform response protocol every facade result implements.

    ``exit_code`` is what the CLI process should exit with (0 unless the
    result itself encodes failure — lint errors, incomplete merges);
    ``to_payload()`` is a pure-JSON document for ``--json`` output;
    ``render_json()`` is its stable-key-order rendering."""

    @property
    def exit_code(self) -> int:
        return 0

    def to_payload(self):
        raise NotImplementedError

    def render_json(self) -> str:
        return json.dumps(
            self.to_payload(), indent=2, sort_keys=True, default=str
        )


# ---------------------------------------------------------------------------
# Request objects.
# ---------------------------------------------------------------------------
class _Request:
    """What every request dataclass checks when built: its version stamp,
    and list-valued fields frozen to tuples (equal requests compare equal)."""

    def __post_init__(self) -> None:
        if self.version != API_VERSION:
            raise ValueError(
                f"{type(self).__name__} version {self.version!r} is not "
                f"supported (this build speaks {API_VERSION})"
            )
        for name, value in list(vars(self).items()):
            if isinstance(value, list):
                object.__setattr__(self, name, tuple(value))


@dataclass(frozen=True)
class PointRequest(_Request):
    """One configuration evaluation (the ``run`` subcommand's input)."""

    app: str
    device: str = "v100_small"
    technique: str | None = None
    params: dict | None = None
    level: str = "thread"
    #: ``None`` runs at the app's baseline items per thread.
    items_per_thread: int | None = None
    site: str | None = None
    problems: dict | None = None
    seed: int = 2023
    sanitize: bool = False
    version: int = API_VERSION

    def resolve_point(self) -> "SweepPoint":
        if self.technique is None:
            raise ValueError("run_point needs point= or technique=")
        from repro.apps import get_benchmark
        from repro.harness.sweep import SweepPoint

        return SweepPoint(
            self.technique,
            dict(self.params or {}),
            self.level,
            get_benchmark(self.app).resolve_items_per_thread(
                self.items_per_thread
            ),
        )


@dataclass(frozen=True)
class SweepRequest(_Request):
    """One DSE sweep for one app/device (the ``sweep`` subcommand's input).

    ``points`` pins the grid explicitly (a tuple of
    :class:`~repro.harness.sweep.SweepPoint`); otherwise the curated
    ``technique`` candidate grid at ``effort`` (quick/full/paper).
    ``sanitize`` runs every point under ApproxSan."""

    app: str
    device: str = "v100_small"
    technique: str | None = None
    points: tuple = ()
    effort: str = "quick"
    site: str | None = None
    problems: dict | None = None
    seed: int = 2023
    sanitize: bool = False
    version: int = API_VERSION

    @classmethod
    def from_dict(cls, data: dict) -> "SweepRequest":
        """Inverse of ``dataclasses.asdict(request)``."""
        from repro.harness.sweep import SweepPoint

        points = tuple(SweepPoint.from_dict(p) for p in data.get("points") or ())
        return cls(**{**data, "points": points})

    def resolve_points(self) -> "list[SweepPoint]":
        if self.points:
            return list(self.points)
        if self.technique is None:
            raise ValueError("sweep needs points= or technique=")
        from repro.harness.figures import candidates

        return candidates(self.app, self.technique, self.effort)


@dataclass(frozen=True)
class SearchRequest(_Request):
    """One budgeted smart search (the ``search`` subcommand's input)."""

    app: str
    device: str = "v100_small"
    technique: str = "taf"
    strategy: str = "random"
    budget: int = 20
    max_error: float = 0.10
    population: int = 3
    threshold_scale: float = 1.0
    space: tuple | None = None
    #: Sampling seed of the search strategy.  Simulation uses the engine's
    #: seed (2023 by default), not this one.
    seed: int = 7
    problems: dict | None = None
    version: int = API_VERSION


@dataclass(frozen=True)
class FiguresRequest(_Request):
    """One figure-regeneration batch (the ``figures`` subcommand's input)."""

    names: tuple = ()
    effort: str = "quick"
    seed: int = 2023
    version: int = API_VERSION


# ---------------------------------------------------------------------------
# Results.
# ---------------------------------------------------------------------------
@dataclass
class PointResult(ApiResult):
    """One evaluated configuration."""

    record: "RunRecord"
    request: PointRequest | None = None

    def to_payload(self) -> dict:
        return _json_safe(self.record.to_dict())


@dataclass
class SweepResult(ApiResult):
    """One finished sweep."""

    report: "BatchReport"
    request: SweepRequest | None = None

    def to_payload(self) -> dict:
        return _json_safe(
            {
                "evaluated": self.report.evaluated,
                "reused": self.report.reused,
                "skipped": self.report.skipped,
                "deduped": self.report.deduped,
                "pruned": self.report.pruned,
                "lattice_pruned": self.report.extra.get("lattice_pruned", 0),
                "variant_hits": self.report.variant_hits,
                "feasible": self.report.feasible,
                "infeasible": self.report.infeasible,
                "elapsed": self.report.elapsed,
                "checkpoint": self.report.checkpoint,
                "records": [r.to_dict() for r in self.report.records],
            }
        )


@dataclass
class SearchResult(ApiResult):
    """One finished search: ``result`` is the engine-layer
    :class:`repro.harness.search.SearchResult` (``best``, ``db``,
    ``evaluations``, ``best_speedup``)."""

    result: object
    request: SearchRequest | None = None

    def to_payload(self) -> dict:
        best = self.result.best
        return _json_safe(
            {
                "evaluations": self.result.evaluations,
                "best": None if best is None else best.to_dict(),
                "records": [r.to_dict() for r in self.result.db],
            }
        )


@dataclass
class FiguresResult(ApiResult):
    """Outcome of one :func:`figures` call."""

    #: name -> that figure's result object (Fig6Result, ScatterResult, ...).
    results: dict
    #: The engine's session counters (pool spawns, cache hits, ...).
    stats: "EngineStats"
    request: FiguresRequest | None = None

    def to_payload(self) -> dict:
        out = {}
        for name, res in self.results.items():
            to_dict = getattr(res, "to_dict", None)
            out[name] = to_dict() if callable(to_dict) else repr(res)
        return _json_safe(out)


# ---------------------------------------------------------------------------
def _build(cls, request, args: tuple, fields: dict):
    """``request`` as given, or ``cls(*args, **fields)`` — the request
    dataclass is the one declaration of every field and its default."""
    if request is None:
        return cls(*args, **fields)
    if args or fields:
        raise TypeError(
            f"pass request= or {cls.__name__} fields, not both "
            f"(got {', '.join(fields) or 'positional arguments'})"
        )
    return request


def run_point(
    *args,
    request: PointRequest | None = None,
    point: "SweepPoint | None" = None,
    config: "SweepConfig | None" = None,
    engine: "BatchEngine | None" = None,
    **fields,
) -> PointResult:
    """Evaluate one configuration; returns a :class:`PointResult`.

    ``run_point(*args, **fields)`` evaluates ``PointRequest(*args,
    **fields)``; or pass a ready ``request``.  A ready
    :class:`~repro.harness.sweep.SweepPoint` in ``point`` replaces the
    request's technique/params/level/items per thread.  The point is a
    one-point :func:`sweep` of the request's other fields, so ``config``
    and ``engine`` mean what they mean there.  The
    :class:`~repro.harness.runner.RunRecord` is ``result.record``."""
    request = _build(PointRequest, request, args, fields)
    report = sweep(
        request.app, request.device,
        points=(point if point is not None else request.resolve_point(),),
        site=request.site, problems=request.problems, seed=request.seed,
        sanitize=request.sanitize, config=config, engine=engine,
    ).report
    return PointResult(record=report.records[0], request=request)


def sweep(
    *args,
    request: SweepRequest | None = None,
    config: "SweepConfig | None" = None,
    engine: "BatchEngine | None" = None,
    **fields,
) -> SweepResult:
    """Run a DSE sweep for one app/device; returns a :class:`SweepResult`.

    The *what* is ``SweepRequest(*args, **fields)`` (or a ready
    ``request``); the *how* — workers, checkpoint, retries, progress,
    preflight — lives in ``config``/``engine`` and never changes the
    records.  ``request.sanitize`` runs the points under ApproxSan.  The
    :class:`~repro.harness.batch.BatchReport` is ``result.report``."""
    from repro.harness.batch import run_sweep_parallel
    from repro.harness.config import SweepConfig

    request = _build(SweepRequest, request, args, fields)
    if request.sanitize:
        config = (config or SweepConfig()).replace(sanitize=True)
    report = run_sweep_parallel(
        request.app,
        request.device,
        request.resolve_points(),
        site=request.site,
        problems=request.problems,
        seed=request.seed,
        config=config,
        engine=engine,
    )
    return SweepResult(report=report, request=request)


def search(
    *args,
    request: SearchRequest | None = None,
    config: "SweepConfig | None" = None,
    engine: "BatchEngine | None" = None,
    **fields,
) -> SearchResult:
    """Budgeted smart search over the Table-2 grid (§4.2) of
    ``SearchRequest(*args, **fields)`` (or a ready ``request``).

    ``strategy`` is ``"random"`` (uniform without replacement) or
    ``"evolutionary"`` (steady-state μ+λ fed as results stream in).
    ``config`` is the evaluation policy, passed to the strategy whole:
    ``workers`` fans evaluations across a process pool, ``checkpoint``
    records every evaluation and resumes them on a rerun; ``engine``
    reuses a persistent one, else one is built for the call and closed on
    return.  Results are identical at any worker count."""
    from repro.harness.batch import BatchEngine
    from repro.harness.search import evolutionary_search, random_search

    request = _build(SearchRequest, request, args, fields)
    owned = engine is None
    if owned:
        engine = BatchEngine(problems=request.problems, config=config)
    else:
        # The engine simulates with its own problems and seed.
        engine.check_matches(request.problems, engine.seed)
    target = (engine, request.app, request.device, request.technique)
    common = dict(
        budget=request.budget, max_error=request.max_error,
        threshold_scale=request.threshold_scale, seed=request.seed,
        space=list(request.space) if request.space else None,
        config=config,
    )
    try:
        if request.strategy == "random":
            inner = random_search(*target, **common)
        elif request.strategy == "evolutionary":
            inner = evolutionary_search(
                *target, population=request.population, **common
            )
        else:
            raise ValueError(f"unknown search strategy {request.strategy!r}")
    finally:
        if owned:
            engine.close()
    return SearchResult(result=inner, request=request)


def figures(
    *args,
    request: FiguresRequest | None = None,
    config: "SweepConfig | None" = None,
    engine: "BatchEngine | None" = None,
    **fields,
) -> FiguresResult:
    """Regenerate the figures of ``FiguresRequest(*args, **fields)`` (or a
    ready ``request``); one engine shared across all of them.

    Overlapping grids (Fig 6 / Fig 7 share the LULESH points) evaluate
    once, and ``config.workers > 1`` fans every figure's simulation grid
    across one persistent process pool — spawned once for the whole call,
    shut down on return (unless a caller-owned ``engine`` was passed
    in)."""
    from repro.harness import figures as F
    from repro.harness.batch import BatchEngine

    request = _build(FiguresRequest, request, args, fields)
    sim_figs = {
        "fig6": F.fig6_best_speedup,
        "fig7": F.fig7_lulesh,
        "fig8": F.fig8_binomial,
        "fig9": F.fig9_leukocyte_minife,
        "fig10": F.fig10_blackscholes,
        "fig11": F.fig11_lavamd,
        "fig12": F.fig12_kmeans,
    }
    wanted = list(request.names or ("fig3", "fig4", "fig6"))
    unknown = [n for n in wanted if n not in sim_figs and n not in ("fig3", "fig4")]
    if unknown:
        raise ValueError(f"unknown figure(s): {', '.join(unknown)}")
    owned = engine is None
    if owned:
        engine = BatchEngine(seed=request.seed, config=config)
    out: dict = {}
    try:
        for name in wanted:
            if name == "fig3":
                out[name] = F.fig3_memory_scaling()
            elif name == "fig4":
                out[name] = F.fig4_taf_variants()
            else:
                out[name] = sim_figs[name](
                    effort=request.effort, engine=engine
                )
    finally:
        if owned:
            engine.close()
    return FiguresResult(results=out, stats=engine.stats, request=request)


def execute(
    request,
    *,
    config: "SweepConfig | None" = None,
    engine: "BatchEngine | None" = None,
):
    """Dispatch one request object to its entry point by type.

    The CLI's subcommands are thin renderers over this: build a request,
    ``execute`` it, print ``render_json()`` or the human rendering, exit
    with ``exit_code``."""
    if isinstance(request, PointRequest):
        return run_point(request=request, config=config, engine=engine)
    if isinstance(request, SweepRequest):
        return sweep(request=request, config=config, engine=engine)
    if isinstance(request, SearchRequest):
        return search(request=request, config=config, engine=engine)
    if isinstance(request, FiguresRequest):
        return figures(request=request, config=config, engine=engine)
    raise TypeError(
        f"execute() takes a request dataclass, not {type(request).__name__} "
        f"(campaigns go through campaign_split/campaign_work/"
        f"campaign_merge, which need a directory)"
    )


# ---------------------------------------------------------------------------
# Distributed campaigns (see repro.harness.campaign).
# ---------------------------------------------------------------------------
@dataclass
class CampaignSplitResult(ApiResult):
    """Outcome of :func:`campaign_split`: the fabric's
    :class:`~repro.harness.campaign.SplitResult`."""

    result: object
    request: SweepRequest | None = None

    def to_payload(self) -> dict:
        return _json_safe(asdict(self.result))


@dataclass
class CampaignWorkResult(ApiResult):
    """Outcome of :func:`campaign_work`: the fabric's
    :class:`~repro.harness.campaign.WorkerReport`."""

    report: object

    def to_payload(self) -> dict:
        return _json_safe(asdict(self.report))


@dataclass
class CampaignMergeResult(ApiResult):
    """Outcome of :func:`campaign_merge`: the fabric's
    :class:`~repro.harness.campaign.MergeResult`."""

    result: object

    @property
    def exit_code(self) -> int:
        """1 for a partial merge (skipped shards / uncovered labels)."""
        return 0 if self.result.complete else 1

    def to_payload(self) -> dict:
        payload = asdict(self.result)
        payload["complete"] = self.result.complete
        return _json_safe(payload)


@dataclass
class CampaignStatusResult(ApiResult):
    """Outcome of :func:`campaign_status`: the fabric's
    :class:`~repro.harness.campaign.CampaignStatus`."""

    status: object

    def to_payload(self) -> dict:
        payload = asdict(self.status)
        payload["complete"] = self.status.complete
        return _json_safe(payload)


def campaign_split(
    directory: str,
    request: SweepRequest | None = None,
    *,
    shards: int = 2,
    **fields,
) -> CampaignSplitResult:
    """Partition the point space of the sweep ``request`` — a ready
    :class:`SweepRequest`, or ``SweepRequest(**fields)`` — into ``shards``
    shard jobs under ``directory``.  See the campaign package docs for the
    lease/heartbeat/merge contract."""
    from repro.harness.campaign import split_campaign

    request = _build(SweepRequest, request, (), fields)
    return CampaignSplitResult(
        result=split_campaign(directory, request, shards=shards),
        request=request,
    )


def campaign_work(
    directory: str,
    owner: str,
    *,
    ttl: float | None = None,
    max_jobs: int | None = None,
    engine: "BatchEngine | None" = None,
) -> CampaignWorkResult:
    """Run one worker loop against a campaign until its queue drains."""
    from repro.harness.campaign import DEFAULT_TTL, run_worker

    report = run_worker(
        directory, owner,
        ttl=DEFAULT_TTL if ttl is None else ttl,
        max_jobs=max_jobs, engine=engine,
    )
    return CampaignWorkResult(report=report)


def campaign_merge(
    directory: str,
    output: str | None = None,
    *,
    strict: bool = True,
) -> CampaignMergeResult:
    """Fold a campaign's shard files into one canonical checkpoint —
    byte-identical to a serial sweep of the same spec (stale fences
    rejected, duplicates deduplicated, conflicts counted)."""
    from repro.harness.campaign import merge_campaign

    return CampaignMergeResult(
        result=merge_campaign(directory, output, strict=strict)
    )


def campaign_status(directory: str) -> CampaignStatusResult:
    """Snapshot a campaign's ledger: shard states, leases, progress."""
    from repro.harness.campaign import campaign_status as _status

    return CampaignStatusResult(status=_status(directory))


# ---------------------------------------------------------------------------
@dataclass
class AppSanitizeReport:
    """ApproxSan outcome for one app."""

    app: str
    device: str
    technique: str
    #: Static HPAC21x contract + dataflow diagnostics, always collected.
    static: list = field(default_factory=list)
    #: The dynamic ApproxSan report; None when the config was infeasible.
    report: object | None = None
    #: ``TypeName: message`` when the configuration could not run at all.
    infeasible: str | None = None

    @property
    def diagnostics(self) -> list:
        dynamic = list(self.report.diagnostics) if self.report is not None else []
        return list(self.static) + dynamic

    @property
    def clean(self) -> bool:
        return not self.diagnostics and self.infeasible is None


@dataclass
class SanitizeResult(ApiResult):
    """Outcome of one :func:`sanitize` call across apps."""

    reports: list[AppSanitizeReport]

    @property
    def exit_code(self) -> int:
        """Worst severity across apps (0 clean/info, 1 warning, 2 error)."""
        from repro.analysis import exit_code

        return max(
            (exit_code(r.diagnostics) for r in self.reports), default=0
        )

    def to_payload(self) -> list[dict]:
        """Pure-JSON document (one entry per app) for ``--json`` output."""
        payload = []
        for r in self.reports:
            entry: dict = {
                "app": r.app,
                "device": r.device,
                "technique": r.technique,
                "static": [d.to_json() for d in r.static],
            }
            if r.infeasible is not None:
                entry["infeasible"] = r.infeasible
            else:
                entry["clean"] = not r.diagnostics
                entry["report"] = r.report.to_dict()
            payload.append(entry)
        return payload


def sanitize(
    app: str = "all",
    device: str = "v100_small",
    *,
    technique: str = "none",
    params: dict | None = None,
    level: str = "thread",
    site: str | None = None,
    items_per_thread: int | None = None,
    seed: int = 2023,
) -> SanitizeResult:
    """Run apps under ApproxSan; returns the per-app violation reports.

    ``app`` is one benchmark name or ``"all"``.  Static contract checks
    (HPAC21x) are collected even when the configuration is infeasible —
    those runs carry the failure note instead of a dynamic report, the
    same way the sweep harness records infeasible rows."""
    from repro.analysis import lint_contracts, lint_dataflow
    from repro.analysis.infer import lint_baseline
    from repro.apps import BENCHMARKS, get_benchmark
    from repro.errors import ReproError

    names = sorted(BENCHMARKS) if app == "all" else [app]
    reports: list[AppSanitizeReport] = []
    for name in names:
        bench = get_benchmark(name)
        entry = AppSanitizeReport(
            app=name, device=device, technique=technique,
            static=lint_contracts(bench) + lint_baseline(bench)
            + lint_dataflow(bench),
        )
        try:
            regions = bench.build_regions(
                technique, level=level, site=site, **(params or {})
            )
            result = bench.run(
                device, regions,
                items_per_thread=bench.resolve_items_per_thread(items_per_thread),
                seed=seed, sanitize=True,
            )
        except ReproError as exc:
            entry.infeasible = f"{type(exc).__name__}: {exc}"
        else:
            entry.report = result.extra["approxsan"]
        reports.append(entry)
    return SanitizeResult(reports=reports)


# ---------------------------------------------------------------------------
@dataclass
class InferResult(ApiResult):
    """Outcome of one :func:`infer_contracts` call across apps."""

    #: AppInference per app (see :mod:`repro.analysis.infer`).
    inferences: list
    #: Baseline files written (``--write`` mode), by app name.
    written: dict[str, str] = field(default_factory=dict)

    @property
    def narrower(self) -> list:
        """All HPAC212 findings: declared contracts under-reporting."""
        return [d for inf in self.inferences for d in inf.narrower]

    @property
    def exit_code(self) -> int:
        """2 when any declared contract is narrower than observed or any
        inferred contract fails its round-trip; 0 otherwise."""
        if self.narrower:
            return 2
        for inf in self.inferences:
            if inf.roundtrip is not None and not inf.roundtrip["clean"]:
                return 2
        return 0

    def to_payload(self) -> list[dict]:
        return [inf.to_dict() for inf in self.inferences]


def infer_contracts(
    app: str = "all",
    device: str = "v100_small",
    *,
    items_per_thread: int | None = None,
    seed: int = 2023,
    seeds: "int | list[int] | None" = None,
    verify: bool = True,
    write: bool = False,
) -> InferResult:
    """Infer per-region memory contracts from accurate recorded run(s).

    For each app: run accurate + sanitized with access recording, collapse
    the observed per-region access sets into ``in(...)``/``out(...)``
    pragma text, and diff the declared contracts against the observation
    (HPAC212 findings when a declared contract is *narrower*).
    ``seeds=N`` (or an explicit seed list) unions N runs' access sets
    before collapsing, with per-seed provenance — the defense against
    data-dependent footprints a single seed under-observes.
    ``verify=True`` round-trips each app: the inferred text must parse,
    lint clean, and a sanitized re-run under the inferred contracts must
    report zero HPAC201/202 for every evidence seed.  ``write=True``
    stores the inferred baselines under ``baselines/approxsan/`` for the
    static HPAC212 preflight rule."""
    from repro.analysis.infer import infer_app, verify_roundtrip, write_baseline
    from repro.apps import BENCHMARKS, get_benchmark

    names = sorted(BENCHMARKS) if app == "all" else [app]
    result = InferResult(inferences=[])
    for name in names:
        bench = get_benchmark(name)
        inference = infer_app(
            bench, device, items_per_thread=items_per_thread, seed=seed,
            seeds=seeds)
        if verify:
            verify_roundtrip(bench, inference,
                             items_per_thread=items_per_thread)
        if write:
            result.written[name] = str(write_baseline(inference))
        result.inferences.append(inference)
    return result


# ---------------------------------------------------------------------------
@dataclass
class LintResult(ApiResult):
    """Outcome of one :func:`lint` call."""

    diagnostics: list

    @property
    def exit_code(self) -> int:
        from repro.analysis import exit_code

        return exit_code(self.diagnostics)

    def to_payload(self) -> list[dict]:
        return [d.to_json() for d in self.diagnostics]


def lint(
    files: Iterable[str] = (),
    *,
    text: str | None = None,
    app: str | None = None,
    device: str = "v100_small",
    technique: str = "none",
    params: dict | None = None,
    level: str = "thread",
    site: str | None = None,
    threads: int | None = None,
) -> LintResult:
    """Static analysis of approx pragmas / region configurations.

    Lints any mix of ``.pragmas`` files, one directive ``text``, and an
    ``app``'s region specs (built with ``technique``/``params`` and vetted
    against ``device``).  Returns the collected diagnostics; render them
    with :func:`repro.analysis.render_all` / ``render_json``."""
    from repro.analysis import RULES, lint_file, lint_regions, lint_text

    diags: list = []
    if text:
        diags.extend(lint_text(text))
    for path in files:
        diags.extend(lint_file(path))
    if app:
        from repro.analysis import lint_contracts, lint_dataflow
        from repro.apps import get_benchmark
        from repro.errors import ReproError
        from repro.gpusim.device import get_device
        from repro.gpusim.kernel import round_up

        bench = get_benchmark(app)
        dev = get_device(device)
        diags.extend(lint_contracts(bench))
        diags.extend(lint_dataflow(bench))
        try:
            regions = bench.build_regions(
                technique, level=level, site=site, **(params or {})
            )
        except ReproError as exc:
            diags.append(RULES["HPAC030"].diag(f"{type(exc).__name__}: {exc}"))
        else:
            tpb = threads or round_up(bench.default_num_threads, dev.warp_size)
            diags.extend(lint_regions(regions, dev, tpb))
    return LintResult(diagnostics=diags)


__all__ = [
    "API_VERSION",
    "ApiResult",
    "AppSanitizeReport",
    "CampaignMergeResult",
    "CampaignSplitResult",
    "CampaignStatusResult",
    "CampaignWorkResult",
    "FiguresRequest",
    "FiguresResult",
    "InferResult",
    "LintResult",
    "PointRequest",
    "PointResult",
    "SanitizeResult",
    "SearchRequest",
    "SearchResult",
    "SweepRequest",
    "SweepResult",
    "campaign_merge",
    "campaign_split",
    "campaign_status",
    "campaign_work",
    "execute",
    "figures",
    "infer_contracts",
    "lint",
    "run_point",
    "sanitize",
    "search",
    "sweep",
]
