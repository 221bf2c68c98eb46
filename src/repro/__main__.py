"""Command-line interface: ``python -m repro <command>``; ``--help`` lists
the commands and their flags.

Thin rendering wrappers over the stable :mod:`repro.api` facade.  Each
subcommand fills the matching frozen request (:class:`repro.api.PointRequest`,
:class:`~repro.api.SweepRequest`, :class:`~repro.api.SearchRequest`,
:class:`~repro.api.FiguresRequest`, :class:`~repro.api.CampaignSpec`) and
its :class:`~repro.harness.config.SweepConfig` by field name from the flags
the user passed — an absent flag leaves the dataclass default in force, so
an invocation and the library call with the same arguments build the same
request — hands them to :func:`repro.api.execute` (or the matching
``repro.api`` call), and renders the typed result: ``--json`` prints
``result.render_json()`` and the process exits ``result.exit_code``.  A
:class:`~repro.errors.ReproError` (a refused checkpoint, a bad
configuration) prints one ``error: <message>`` line to stderr and exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from argparse import SUPPRESS

import numpy as np

from repro.errors import ReproError


def _passed(args, *names: str) -> dict:
    """The flags among ``names`` the user passed.  Flags backed by a
    request or :class:`~repro.harness.config.SweepConfig` field default to
    ``SUPPRESS``, so an absent flag leaves that field's default in force."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _request(cls, args, **extra):
    """Dataclass ``cls`` filled by field name from the passed flags."""
    names = [f.name for f in dataclasses.fields(cls) if f.name not in extra]
    return cls(**_passed(args, *names), **extra)


def _add_technique_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--technique", default="none",
                   choices=["none", "taf", "iact", "perfo", "noise"])
    p.add_argument("--level", default=SUPPRESS,
                   choices=["thread", "warp", "team"])
    p.add_argument("--items-per-thread", type=int, default=SUPPRESS,
                   help="default: the app's baseline")
    # TAF
    p.add_argument("--hsize", type=int, default=2)
    p.add_argument("--psize", type=int, default=8)
    p.add_argument("--threshold", type=float, default=0.3)
    # iACT
    p.add_argument("--tsize", type=int, default=4)
    p.add_argument("--tperwarp", type=int, default=None)
    # perforation
    p.add_argument("--kind", default="small",
                   choices=["small", "large", "ini", "fini"])
    p.add_argument("--skip", type=int, default=4)
    p.add_argument("--skip-percent", type=float, default=50.0)
    p.add_argument("--herded", action="store_true")
    # noise
    p.add_argument("--rel-sigma", type=float, default=0.05)
    p.add_argument("--site", default=SUPPRESS)


def _technique_kwargs(args) -> dict:
    t = args.technique
    if t == "taf":
        return dict(hsize=args.hsize, psize=args.psize, threshold=args.threshold)
    if t == "iact":
        return dict(tsize=args.tsize, threshold=args.threshold,
                    tperwarp=args.tperwarp)
    if t == "perfo":
        if args.kind in ("small", "large"):
            return dict(kind=args.kind, herded=args.herded, skip=args.skip)
        return dict(kind=args.kind, skip_percent=args.skip_percent)
    if t == "noise":
        return dict(rel_sigma=args.rel_sigma)
    return {}


def cmd_run(args) -> int:
    from repro import api
    from repro.harness.batch import BatchEngine

    request = _request(api.PointRequest, args, params=_technique_kwargs(args))
    with BatchEngine(seed=request.seed) as engine:
        app = engine.runner.app(request.app)
        baseline = engine.runner.baseline(request.app, request.device)
        print(f"{request.app} on {request.device}: accurate "
              f"{baseline.seconds * 1e3:.3f} ms end-to-end "
              f"({baseline.kernel_seconds * 1e3:.3f} ms kernels)")
        if request.technique == "none":
            return 0
        res = api.run_point(request=request, engine=engine).record
    if not res.feasible:
        print(f"{request.technique}: infeasible — {res.note}")
        return 1
    label = "kernel" if app.kernel_only else "end-to-end"
    fracs = {n: s["approx_fraction"] for n, s in res.region_stats.items()}
    print(f"{request.technique}: {res.reported_speedup:.3f}x {label} speedup, "
          f"{app.error_metric.upper()} {res.error_percent:.4f}%, "
          f"approximated {fracs}")
    return 0


def cmd_sweep(args) -> int:
    from repro import api
    from repro.harness.config import SweepConfig
    from repro.harness.database import ResultsDB
    from repro.harness.reporting import format_record, format_records_table

    request = _request(api.SweepRequest, args)
    if not request.resolve_points():
        print(f"no candidate grid for {request.app}/{request.technique}",
              file=sys.stderr)
        return 1
    vcache = None
    if args.variant_cache:
        from repro.harness.pruning import VariantCache

        vcache = VariantCache(args.variant_cache)
    config = _request(
        SweepConfig, args,
        # --prune takes the QoI bound from --max-error (the same budget the
        # "best under" selection below uses).
        prune=(float(args.max_error) if args.prune else False),
        variant_cache=vcache,
    )
    report = api.execute(request, config=config).report
    if vcache is not None:
        vcache.save()
    db = ResultsDB()
    db.add(report.records)
    if (config.workers > 1 or config.checkpoint or config.preflight
            or config.prune or vcache is not None):
        lattice = report.extra.get("lattice_pruned", 0)
        print(f"evaluated {report.evaluated} points "
              f"({report.reused} served by sibling reuse; "
              f"{report.skipped} resumed from checkpoint, "
              f"{report.pruned} pruned by preflight, "
              f"{lattice} pruned by the lattice, "
              f"{report.variant_hits} variant-cache hit(s)) "
              f"in {report.elapsed:.2f}s with {config.workers} worker(s)")
    print(format_records_table(
        db.query(feasible=None),
        title=f"{request.app} {request.technique} on {request.device}",
    ))
    best = db.best_speedup(max_error=args.max_error)
    print("\nbest under "
          f"{100 * args.max_error:.0f}% error: "
          + (format_record(best) if best else "none"))
    if args.output:
        db.save(args.output)
        print(f"saved {len(db)} records to {args.output}")
    return 0


def cmd_search(args) -> int:
    from repro import api
    from repro.harness.config import SweepConfig
    from repro.harness.reporting import format_record, format_records_table

    request = _request(api.SearchRequest, args)
    result = api.execute(request, config=_request(SweepConfig, args)).result
    print(format_records_table(
        result.db.query(feasible=None),
        title=(f"{request.strategy} search: {request.app} "
               f"{request.technique} on {request.device} "
               f"({result.evaluations} evaluations)"),
    ))
    print("\nbest under "
          f"{100 * request.max_error:.0f}% error: "
          + (format_record(result.best) if result.best else "none"))
    if args.output:
        result.db.save(args.output)
        print(f"saved {len(result.db)} records to {args.output}")
    return 0


def cmd_lint(args) -> int:
    from repro import api
    from repro.analysis import render_all, render_json

    if not args.text and not args.files and not args.app:
        print("nothing to lint: pass files, --text, or --app", file=sys.stderr)
        return 2
    result = api.lint(
        args.files, text=args.text, app=args.app,
        technique=args.technique, params=_technique_kwargs(args),
        threads=args.threads, **_passed(args, "device", "level", "site"),
    )
    if args.json:
        print(render_json(result.diagnostics))
        return result.exit_code
    out = render_all(result.diagnostics)
    if out:
        print(out)
    else:
        print("no issues found")
    return result.exit_code


def cmd_sanitize(args) -> int:
    """Run apps under ApproxSan and render the violation reports."""
    from repro import api
    from repro.analysis import render_all

    if args.infer:
        return _cmd_sanitize_infer(args)
    result = api.sanitize(
        args.app, technique=args.technique, params=_technique_kwargs(args),
        **_passed(args, "device", "level", "site", "items_per_thread", "seed"),
    )
    if args.json:
        # One pure JSON document with stable key order — pipeable to jq.
        print(result.render_json())
        return result.exit_code
    for r in result.reports:
        print(f"== {r.app} on {r.device} ({r.technique}) ==")
        if r.infeasible is not None:
            # Infeasible configuration (shared-memory overflow, unsupported
            # technique, ...): nothing to sanitize — report and move on, the
            # same way the sweep harness records these as infeasible rows.
            print(f"   infeasible: {r.infeasible}")
            if r.static:
                print(render_all(r.static))
            continue
        c = r.report.counters
        print(f"   {c['launches']} launch(es), "
              f"{c['region_invocations']} region invocation(s), "
              f"{c['reads_checked'] + c['writes_checked']} mediated "
              f"access(es), {c['streamed_hints']} streamed hint(s), "
              f"{c['shadowed_bytes']} shadow byte(s)")
        diags = r.diagnostics
        if diags:
            print(render_all(diags))
        else:
            print("   ApproxSan: no contract violations")
    return result.exit_code


def _cmd_sanitize_infer(args) -> int:
    """`sanitize --infer`: record an accurate run, emit the pragma text."""
    from repro import api
    from repro.analysis import render_all

    result = api.infer_contracts(
        args.app, seeds=args.seeds, write=args.write,
        **_passed(args, "device", "items_per_thread", "seed"),
    )
    if args.json:
        print(result.render_json())
        return result.exit_code
    for inf in result.inferences:
        print(f"== {inf.app} on {inf.device} (accurate, recorded) ==")
        if len(inf.seeds) > 1:
            print(f"   union of {len(inf.seeds)} accurate runs "
                  f"(seeds {inf.seeds})")
        for reg in inf.regions:
            print(f"   region {reg.region!r}:")
            print(f"      declared: {reg.declared or '(none)'}")
            print(f"      inferred: {reg.inferred or '(none)'}")
            for note in reg.notes:
                print(f"      note: {note}")
        if inf.roundtrip is not None:
            rt = inf.roundtrip
            verdict = "clean" if rt["clean"] else "FAILED"
            print(f"   round-trip: {verdict} "
                  f"(parse errors: {len(rt['parse_errors'])}, "
                  f"lint: {len(rt['lint'])}, "
                  f"violations: {rt['violations_by_code'] or '{}'})")
            if rt.get("dirty_seeds"):
                print(f"   dirty under seed(s): {rt['dirty_seeds']}")
        if inf.narrower:
            print(render_all(inf.narrower))
        path = result.written.get(inf.app)
        if path:
            print(f"   baseline written: {path}")
    n = len(result.narrower)
    if n:
        print(f"{n} declared contract(s) narrower than the recorded run "
              f"(HPAC212)")
    return result.exit_code


def cmd_sensitivity(args) -> int:
    from repro.apps import get_benchmark
    from repro.harness.sensitivity import analyze_sensitivity, format_sensitivity

    app = get_benchmark(args.app)
    reports = analyze_sensitivity(app, rel_sigma=args.rel_sigma,
                                  **_passed(args, "device", "seed"))
    print(format_sensitivity(reports))
    return 0


def cmd_figures(args) -> int:
    from repro import api
    from repro.harness import figures as F
    from repro.harness.config import SweepConfig
    from repro.harness.reporting import format_engine_stats, format_fig6

    # One engine across every requested figure: shared baselines, one
    # process pool, and overlapping grids (Fig 6 / Fig 7 share LULESH
    # points) evaluate once.
    out = api.execute(
        _request(api.FiguresRequest, args), config=_request(SweepConfig, args)
    )
    for name, r in out.results.items():
        if name == "fig3":
            print(f"Fig 3: V100 exhausted at 2^{r.exhaust_threads.bit_length() - 1} threads")
        elif name == "fig4":
            print(f"Fig 4: serialized-GPU TAF {r.serialized_slowdown:.0f}x slower "
                  f"than HPAC-Offload TAF")
        elif name == "fig6":
            print(format_fig6(r, F.FIG6_APPS, ["nvidia", "amd"]))
        else:
            print(f"{name}: regenerated (see benchmarks/ for the asserted rows)")
    if out.stats.submitted:
        print(format_engine_stats(out.stats))
    return 0


def cmd_campaign(args) -> int:
    """Distributed campaign fabric: split / work / merge / status."""
    from repro import api

    if args.action == "split":
        out = api.campaign_split(
            args.dir, _request(api.CampaignSpec, args),
            **_passed(args, "shards"),
        )
        result = out.result
        lines = [f"{args.dir}: split {result.points} point(s) into "
                 f"{result.shards} shard job(s) "
                 f"(spec {result.spec_hash[:12]}…)",
                 "run workers with: python -m repro campaign work "
                 f"{args.dir} --owner <name>"]
    elif args.action == "work":
        out = api.campaign_work(
            args.dir, args.owner, ttl=args.ttl, max_jobs=args.max_jobs
        )
        report = out.report
        lines = [f"{args.owner}: completed {report.jobs_done} job(s) — "
                 f"{report.evaluated} point(s) evaluated, "
                 f"{report.reemitted} re-emitted from a dead worker, "
                 f"{report.leases_lost} lease(s) lost"]
    elif args.action == "merge":
        out = api.campaign_merge(
            args.dir, args.output, strict=not args.partial
        )
        result = out.result
        s = result.stats
        lines = [f"{result.output}: merged {result.merged} record(s) from "
                 f"{len(result.shards_merged)} shard(s) "
                 f"({s.identical} identical duplicate(s), "
                 f"{s.conflicts} conflict(s), "
                 f"{result.rejected_stale} stale fenced-out record(s))"]
        if result.shards_skipped:
            lines.append(f"partial merge: {len(result.shards_skipped)} "
                         f"unfinished shard(s) skipped, "
                         f"{len(result.missing)} label(s) uncovered")
    else:
        out = api.campaign_status(args.dir)
        result = out.status
        p = result.progress
        lines = [f"{args.dir} (spec {result.spec_hash[:12]}…): "
                 f"{p['done']} done / {p['leased']} leased / "
                 f"{p['expired']} expired / {p['pending']} pending "
                 f"shard(s); {p['records']}/{p['total_points']} record(s)"]
        for job, entry in sorted(result.shards.items()):
            state = result.lease_table.get(job, {})
            line = (f"  {job}: {state.get('state', '?'):<8} "
                    f"{entry['points']} point(s)")
            if state.get("reclaims"):
                line += f", reclaimed {state['reclaims']}x"
            lease = state.get("lease")
            if lease:
                line += f", held by {lease['owner']} (fence {lease['fence']})"
            lines.append(line)
    print(out.render_json() if args.json else "\n".join(lines))
    return out.exit_code


def cmd_checkpoint(args) -> int:
    """``checkpoint compact``: the one action the parser accepts."""
    from repro.harness.database import compact_checkpoint

    kept, dropped = compact_checkpoint(args.file, output=args.output)
    print(f"{args.output or args.file}: kept {kept} record(s), dropped "
          f"{dropped} stale duplicate(s)")
    return 0


def cmd_devices(args) -> int:
    from repro.gpusim.device import amd_mi250x, nvidia_v100

    for dev in (nvidia_v100(), amd_mi250x(), nvidia_v100(0.1), amd_mi250x(0.1)):
        print(f"{dev.name:<32} {dev.num_sms:4d} SMs × {dev.warp_size}-wide, "
              f"{dev.mem_bandwidth / 1e9:7.0f} GB/s, "
              f"{dev.shared_mem_per_block // 1024} KB shared/block")
    return 0


def _shared(*flags: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser declaring one flag several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="HPAC-Offload reproduction CLI",
    )
    parser.add_argument("--seed", type=int, default=SUPPRESS,
                        help="simulation seed (default 2023); for search, "
                             "the sampling seed (default 7), while "
                             "simulation uses the engine's seed, 2023")
    sub = parser.add_subparsers(dest="command", required=True)
    app = _shared("app")
    device = _shared("--device", default=SUPPRESS)
    grid = _shared("--technique", required=True,
                   choices=["taf", "iact", "perfo"])
    effort = _shared("--effort", default=SUPPRESS,
                     choices=["quick", "full", "paper"])
    workers = _shared("--parallel", dest="workers", type=int, default=SUPPRESS,
                      help="process-pool workers (1 = in-process; records "
                           "are identical at any worker count)")
    as_json = _shared("--json", action="store_true",
                      help="print the result as one JSON document")
    technique = argparse.ArgumentParser(add_help=False)
    _add_technique_args(technique)

    p_run = sub.add_parser("run", parents=[app, device, technique],
                           help="run one benchmark")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[app, device, grid, effort,
                                               workers],
                             help="DSE campaign over a candidate grid")
    p_sweep.add_argument("--max-error", type=float, default=0.10)
    p_sweep.add_argument("--output", default=None)
    p_sweep.add_argument("--checkpoint", default=SUPPRESS,
                         help="JSONL checkpoint to stream records into and "
                              "resume from (skips recorded points)")
    p_sweep.add_argument("--retries", type=int, default=SUPPRESS,
                         help="retries per point on unexpected worker errors")
    p_sweep.add_argument("--progress", action="store_true", default=SUPPRESS,
                         help="print a throughput/ETA line per completed "
                              "chunk (per point in-process)")
    p_sweep.add_argument("--preflight", action="store_true", default=SUPPRESS,
                         help="statically vet points first; provably "
                              "infeasible ones are recorded (with the HPAC "
                              "diagnostic code) without simulating")
    p_sweep.add_argument("--prune", action="store_true",
                         help="subsumption-lattice pruning: once a point's "
                              "error exceeds --max-error, every "
                              "more-aggressive point of its lattice group is "
                              "recorded as a 'pruned' row (naming the "
                              "ancestor) without simulating")
    p_sweep.add_argument("--variant-cache", default=None, metavar="FILE",
                         help="JSONL content-hash record cache shared "
                              "across campaigns; identical configurations "
                              "are served without re-simulating")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_search = sub.add_parser(
        "search", parents=[app, device, grid, workers],
        help="budgeted smart search over the Table-2 grid (§4.2)",
    )
    p_search.add_argument("--strategy", default=SUPPRESS,
                          choices=["random", "evolutionary"],
                          help="random sampling, or steady-state (μ+λ) "
                               "evolution fed as results stream in")
    p_search.add_argument("--budget", type=int, default=SUPPRESS,
                          help="total evaluations")
    p_search.add_argument("--population", type=int, default=SUPPRESS,
                          help="elite size / in-flight evaluations "
                               "(evolutionary)")
    p_search.add_argument("--max-error", type=float, default=SUPPRESS)
    p_search.add_argument("--output", default=None)
    p_search.set_defaults(fn=cmd_search)

    p_lint = sub.add_parser(
        "lint", parents=[device, as_json, technique],
        help="static analysis of approx pragmas (exit 0 clean/info, "
             "1 warnings, 2 errors)",
    )
    p_lint.add_argument("files", nargs="*",
                        help=".pragmas files (one directive per line, "
                             "// comments)")
    p_lint.add_argument("--text", default=None,
                        help="lint one directive string")
    p_lint.add_argument("--app", default=None,
                        help="lint an app's region specs on --device "
                             "(combine with the technique flags)")
    p_lint.add_argument("--threads", type=int, default=None,
                        help="threads per block (default: the app's "
                             "num_threads, warp-rounded)")
    p_lint.set_defaults(fn=cmd_lint)

    p_san = sub.add_parser(
        "sanitize", parents=[device, as_json, technique],
        help="run apps under ApproxSan, cross-checking kernels against "
             "their pragma contracts (exit status: worst severity)",
    )
    p_san.add_argument("--app", default="all",
                       help="benchmark name, or 'all' (default)")
    p_san.add_argument("--infer", action="store_true",
                       help="record one accurate run per app and emit "
                            "ready-to-paste in(...)/out(...) contract text, "
                            "round-trip verified")
    p_san.add_argument("--seeds", type=int, default=None, metavar="N",
                       help="with --infer: union the access sets of N "
                            "accurate runs (seeds --seed .. --seed+N-1) "
                            "before collapsing, hardening data-dependent "
                            "footprints against single-seed luck")
    p_san.add_argument("--write", action="store_true",
                       help="with --infer: store the inferred baselines "
                            "under baselines/approxsan/ (enables the "
                            "static HPAC212 check)")
    p_san.set_defaults(fn=cmd_sanitize)

    p_sens = sub.add_parser("sensitivity", parents=[app, device],
                            help="rank regions by sensitivity")
    p_sens.add_argument("--rel-sigma", type=float, default=0.05)
    p_sens.set_defaults(fn=cmd_sensitivity)

    p_fig = sub.add_parser("figures", parents=[workers],
                           help="regenerate evaluation figures (one batch "
                                "engine shared across all of them)")
    p_fig.add_argument("names", nargs="*",
                       help="fig3 fig4 fig6 fig7 fig8 fig9 fig10 fig11 fig12")
    p_fig.set_defaults(fn=cmd_figures)

    p_camp = sub.add_parser(
        "campaign",
        help="distributed campaign fabric: split a sweep into shard jobs, "
             "work them from any number of machines under leases, merge "
             "the shards back byte-identically",
    )
    camp_sub = p_camp.add_subparsers(dest="action", required=True)

    pc_split = camp_sub.add_parser(
        "split", parents=[device, grid, effort, as_json],
        help="partition a sweep's point space into shard jobs",
    )
    pc_split.add_argument("dir", help="campaign directory (created)")
    pc_split.add_argument("--app", required=True)
    pc_split.add_argument("--shards", type=int, default=SUPPRESS,
                          help="shard jobs to partition the grid into")
    pc_split.add_argument("--site", default=SUPPRESS)
    pc_split.set_defaults(fn=cmd_campaign)

    pc_work = camp_sub.add_parser(
        "work", parents=[as_json],
        help="claim and evaluate shard jobs until the queue drains",
    )
    pc_work.add_argument("dir", help="campaign directory")
    pc_work.add_argument("--owner", required=True,
                         help="worker identity recorded in leases and "
                              "record tags")
    pc_work.add_argument("--ttl", type=float, default=None,
                         help="lease TTL in seconds: how long this "
                              "worker's silence is trusted before its "
                              "shard is reclaimed (default 60)")
    pc_work.add_argument("--max-jobs", type=int, default=None,
                         help="stop after completing N shard jobs")
    pc_work.set_defaults(fn=cmd_campaign)

    pc_merge = camp_sub.add_parser(
        "merge", parents=[as_json],
        help="fold shard files into one canonical checkpoint "
             "(byte-identical to a serial sweep)",
    )
    pc_merge.add_argument("dir", help="campaign directory")
    pc_merge.add_argument("--output", default=None,
                          help="merged JSONL (default: DIR/merged.jsonl)")
    pc_merge.add_argument("--partial", action="store_true",
                          help="merge completed shards even while others "
                               "are unfinished (exit 1 when incomplete)")
    pc_merge.set_defaults(fn=cmd_campaign)

    pc_status = camp_sub.add_parser(
        "status", parents=[as_json],
        help="shard states, leases, and progress from the ledger",
    )
    pc_status.add_argument("dir", help="campaign directory")
    pc_status.set_defaults(fn=cmd_campaign)

    p_ckpt = sub.add_parser("checkpoint", help="checkpoint file maintenance")
    p_ckpt.add_argument("action", choices=["compact"],
                        help="compact: drop stale duplicate labels, keeping "
                             "the latest record per (app, device, point)")
    p_ckpt.add_argument("file", help="JSONL / .jsonl.gz checkpoint")
    p_ckpt.add_argument("--output", default=None,
                        help="write here instead of replacing FILE in place "
                             "(a .gz suffix also converts the compression)")
    p_ckpt.set_defaults(fn=cmd_checkpoint)

    p_dev = sub.add_parser("devices", help="list device presets")
    p_dev.set_defaults(fn=cmd_devices)

    args = parser.parse_args(argv)
    np.set_printoptions(precision=5, suppress=True)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
