"""Command-line interface: run any paper experiment from a shell.

Examples::

    python -m repro table2
    python -m repro fig8 --bottleneck-gbps 0.5 --duration-ms 20
    python -m repro run-all --filter fig7/aq/4vms
    python -m repro run-all --list
    python -m repro share --ccs dctcp cubic udp

There is one sub-command per entry of
:data:`repro.harness.figures.FIGURES`: it runs the figure's grid, prints
the paper-style table and, at the scale of record, checks the paper's
claims. ``run-all`` fans the same grids out over worker processes;
``share`` is for free-form poking.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from collections import Counter
from typing import List, Optional

from .errors import ReproError
from .harness import figures
from .harness.common import APPROACHES, EntitySpec, telemetry_session
from .harness.figures import Scale
from .harness.report import (
    print_experiment,
    render_metrics_summary,
    render_table,
    write_metrics_snapshot,
)
from .harness.scenarios import run_fault_restart, run_fluid_share, run_longlived_share
from .units import format_rate, gbps


def _add_common(parser: argparse.ArgumentParser, scale: Scale) -> None:
    """Register the scale flags ``scale`` sets (its values are the
    defaults; a ``None`` field registers nothing) and the telemetry flags."""
    for flag, kind, default, what in (
        ("--bottleneck-gbps", float, scale.bottleneck_gbps, "bottleneck rate in Gbps"),
        ("--duration-ms", float, scale.duration_ms, "simulated duration in ms"),
        ("--seed", int, scale.seed, "seed of the run's random streams"),
    ):
        if default is not None:
            parser.add_argument(flag, type=kind, default=default,
                                help=f"{what} (default {default:g})")
    _add_telemetry(parser)


def _add_telemetry(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--telemetry", metavar="OUT.JSONL", default=None,
                        help="write a structured event trace (JSONL) and a "
                             "metrics snapshot (<OUT>.metrics.json)")
    parser.add_argument("--metrics-summary", action="store_true",
                        help="print a metrics-registry summary after the run")
    parser.add_argument("--profile", action="store_true",
                        help="profile the sim loop and print hotspots")
    parser.add_argument("--flight-record", metavar="FLIGHTS.JSONL", default=None,
                        help="record per-packet INT flights to a JSONL file "
                             "(inspect with 'repro telemetry flights')")
    parser.add_argument("--flight-max", type=int, default=None, metavar="N",
                        help="bound --flight-record to the N most recent "
                             "flights (ring; evictions are counted)")
    parser.add_argument("--timewin", metavar="WINDOWS.JSONL", default=None,
                        help="attach the fixed-memory time-window recorder "
                             "and dump retained windows to a JSONL file "
                             "(inspect with 'repro telemetry windows')")
    parser.add_argument("--timewin-ms", type=float, default=None, metavar="MS",
                        help="time-window duration in ms (default 1.0)")
    parser.add_argument("--audit", action="store_true",
                        help="attach the conservation-law run auditor; "
                             "exit 1 if any invariant is violated")
    parser.add_argument("--faults", metavar="PLAN.JSON", default=None,
                        help="activate a fault plan (docs/FAULTS.md schema) "
                             "for every network the command builds")


def metrics_path_for(trace_path: str) -> str:
    """The metrics-snapshot path written alongside ``--telemetry`` output."""
    stem = trace_path[:-6] if trace_path.endswith(".jsonl") else trace_path
    return f"{stem}.metrics.json"


def cmd_figure(args) -> int:
    """Run one figure's grid in this process, print its table, and — at
    the scale of record, where the thresholds were calibrated — check the
    paper's claims against it."""
    figure = args.figure
    scale = Scale(**{
        field.name: getattr(args, field.name, None)
        for field in dataclasses.fields(Scale)
    })
    results = figures.run_figure(figure, scale)
    print_experiment(figure.title, figure.render(results, scale))
    if scale != figure.record:
        print("claims not evaluated (thresholds hold at the scale of record only)")
        return 0
    failed = 0
    for _, claim, holds in figures.check_claims([figure], results):
        print(f"  [{'holds' if holds else 'FAILS'}] {claim.text}")
        failed += not holds
    return 1 if failed else 0


def cmd_share(args) -> int:
    """Free-form sharing experiment: N entities with chosen CCs."""
    bottleneck = gbps(args.bottleneck_gbps)
    duration = args.duration_ms * 1e-3
    entities = [
        EntitySpec(name=f"{cc}-{i}", cc=cc, num_flows=args.flows)
        for i, cc in enumerate(args.ccs)
    ]
    if args.fluid:
        if any(cc != "udp" for cc in args.ccs):
            print("--fluid requires all-UDP entities (closed-loop CC needs "
                  "per-packet feedback)", file=sys.stderr)
            return 2
        result = run_fluid_share(
            entities, args.approach,
            bottleneck_bps=bottleneck, duration=duration, seed=args.seed,
            fluid=True,
        )
        rows = [
            [name, format_rate(nbytes * 8 / duration),
             f"{nbytes * 8 / duration / bottleneck * 100:.0f}%"]
            for name, nbytes in result.delivered_total.items()
        ]
        print(render_table(["entity", "goodput", "share"], rows))
        stats = result.fluid
        print(
            f"fluid epochs: {stats.get('epochs', 0)} "
            f"engagements: {stats.get('engagements', 0)} "
            f"exits: {stats.get('exits', {})}"
        )
        if stats.get("static_reason"):
            print(f"fast path ineligible: {stats['static_reason']}")
        return 0
    share = run_longlived_share(
        entities, args.approach,
        bottleneck_bps=bottleneck, duration=duration,
        warmup=duration * 0.4, seed=args.seed,
    ).to_dict()
    rows = [
        [name, format_rate(rate), f"{rate / bottleneck * 100:.0f}%"]
        for name, rate in share["rates_bps"].items()
    ]
    print(render_table(["entity", "throughput", "share"], rows))
    print(f"utilization: {share['utilization'] * 100:.0f}%")
    return 0


def cmd_fault_restart(args) -> int:
    """Guarantee degradation + re-convergence after a switch restart."""
    result = run_fault_restart(
        "aq",
        bottleneck_bps=gbps(args.bottleneck_gbps),
        duration=args.duration_ms * 1e-3,
        restart_at=args.restart_at_ms * 1e-3,
        seed=args.seed,
        tolerance=args.tolerance,
    )
    rows = []
    for name, share in result["share_bps"].items():
        reconv = result["reconvergence_s"][name]
        rows.append([
            name,
            format_rate(share),
            format_rate(result["rates_before_bps"][name]),
            format_rate(result["rates_during_bps"][name]),
            format_rate(result["rates_after_bps"][name]),
            f"{reconv * 1e3:.1f}ms" if reconv >= 0 else "never",
        ])
    print(render_table(
        ["entity", "granted", "before", "during", "after", "reconverge"], rows
    ))
    for window in result["degraded_windows"]:
        end = window["end"]
        closed = f"{(end - window['start']) * 1e3:.2f}ms" if end is not None \
            else "STILL OPEN"
        print(f"degraded: aq={window['aq_id']} entity={window['entity']} "
              f"@{window['switch']}/{window['position']} "
              f"t={window['start'] * 1e3:.1f}ms window={closed}")
    for name, stats in result["restart_stats"].items():
        print(f"restart: {name} x{stats['restarts']}, drained "
              f"{stats['drained_packets']} pkts "
              f"({stats['drained_bytes']:,} bytes)")
    ok = result["recovered"]
    print(f"recovered within {args.tolerance * 100:.0f}%: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


def cmd_share_fabric(args) -> int:
    """Run the sharded fat-tree scenario: k lockstep partitions, one
    digest. Telemetry here is per-partition (each worker owns its ports
    and its slice of the conservation ledger), so this command manages
    its own auditor/recorder flags instead of the global ambient ones."""
    from .harness.fabric import run_share_fabric

    fault_plan = None
    if args.shard_faults is not None:
        from .errors import FaultPlanError
        from .faults import FaultPlan

        try:
            fault_plan = FaultPlan.from_file(args.shard_faults).to_dict()
        except FaultPlanError as exc:
            print(f"invalid fault plan {args.shard_faults!r}: {exc}",
                  file=sys.stderr)
            return 2

    run_dir = args.run_dir
    if run_dir is None and not args.no_run_dir:
        import time as _time

        stamp = _time.strftime("%Y%m%d-%H%M%S")
        run_dir = os.path.join("runs", f"share-fabric-{stamp}")
    flight_dir = None
    if args.flights:
        if run_dir is None:
            print("--flights needs a run directory (drop --no-run-dir or "
                  "pass --run-dir)", file=sys.stderr)
            return 2
        flight_dir = os.path.join(run_dir, "flights")

    timewin_params = None
    if args.timewin_window_ms is not None:
        timewin_params = {"window_s": args.timewin_window_ms * 1e-3}
    traffic_kwargs = {}
    if args.traffic == "mixed":
        traffic_kwargs = {
            "load": args.load,
            "churn": args.churn,
            "num_tenants": args.tenants,
            "cc": args.cc,
            "udp_gbps": args.udp_gbps,
        }
    try:
        report = run_share_fabric(
            args.shards,
            args.duration_ms * 1e-3,
            inline=args.inline,
            audit=args.shard_audit,
            timewin_dir=args.timewin_dir,
            timewin_params=timewin_params,
            fault_plan=fault_plan,
            run_dir=run_dir,
            timewin=False if args.no_timewin else None,
            timewin_budget=args.timewin_budget,
            flight_dir=flight_dir,
            pods=args.pods,
            tors_per_pod=args.tors_per_pod,
            hosts_per_tor=args.hosts_per_tor,
            num_cores=args.num_cores,
            seed=args.seed,
            intra_gbps=args.intra_gbps,
            cross_gbps=args.cross_gbps,
            traffic=args.traffic,
            **traffic_kwargs,
        )
    except ReproError as exc:
        print(f"share-fabric failed: {exc}", file=sys.stderr)
        return 1

    results = report["results"]
    print(render_table(
        ["shards", "epochs", "lookahead", "events", "boundary pkts", "wall"],
        [[
            str(report["shards"]), str(report["epochs"]),
            f"{report['lookahead'] * 1e6:.0f}us", f"{results['events']:,}",
            f"{report['boundary']['exported']:,}",
            f"{report['wall_s']:.2f}s",
        ]],
    ))
    delivered = sum(results["delivered_bytes"].values())
    kind = "udp flows" if args.traffic == "mixed" else "flows"
    print(f"delivered: {delivered:,} bytes across "
          f"{len(results['delivered_bytes'])} {kind} "
          f"({report['mode']} mode)")
    print(f"results digest: {report['digest']}")
    fct = report.get("fct")
    if fct:
        overall = fct["overall"]
        slow = overall.get("slowdown") or {}
        print(f"tcp: {overall['completed']}/{overall['flows']} flows "
              f"completed, overall slowdown "
              f"p50={slow.get('p50', float('nan')):.2f} "
              f"p99={slow.get('p99', float('nan')):.2f}")
        rows = []
        for tenant, stats in sorted(fct["tenants"].items(), key=lambda kv: int(kv[0])):
            tslow = stats.get("slowdown") or {}
            rows.append([
                tenant, f"{stats['completed']}/{stats['flows']}",
                f"{tslow.get('p50', float('nan')):.2f}",
                f"{tslow.get('p99', float('nan')):.2f}",
                f"{stats['retransmissions']}",
                f"{stats['goodput_bytes']:,}",
            ])
        print(render_table(
            ["tenant", "done/flows", "sd p50", "sd p99", "rexmit", "goodput B"],
            rows,
        ))
        jain = fct["fairness"]["jain_goodput"]
        if jain is not None:
            print(f"fairness (jain, goodput): {jain:.4f}")

    status = 0
    if args.shard_audit:
        violations = report["audit"]["violation_count"]
        print(f"audit: {report['audit']['events_seen']:,} events checked "
              f"across {report['shards']} partition ledger(s), "
              f"{violations} violation(s)")
        if violations:
            for verdict in report["audit"]["per_partition"]:
                for violation in (verdict or {}).get("violations", [])[:5]:
                    print(f"  {violation}", file=sys.stderr)
            status = 1
    if report.get("timewin_paths"):
        print(f"per-shard windows: {len(report['timewin_paths'])} dumps")
        if args.timewin_merged is not None:
            from .obs.timewin import stitch_window_dumps

            store = stitch_window_dumps(
                report["timewin_paths"], out_path=args.timewin_merged
            )
            print(f"stitched fabric-wide store: {len(store.ports())} ports "
                  f"-> {args.timewin_merged} "
                  f"(query with: repro telemetry windows "
                  f"{args.timewin_merged} --port PORT)")
        elif report.get("timewin_merged_path"):
            print(f"stitched fabric-wide store: {report['timewin_ports']} "
                  f"ports -> {report['timewin_merged_path']}")
    if report.get("flights_stitched_path"):
        print(f"stitched flights: {report['flights_stitched']} "
              f"-> {report['flights_stitched_path']}")
    if report.get("run_dir"):
        print(f"run ledger: {report['run_dir']} "
              f"({report.get('heartbeat_frames', 0)} heartbeat frames; "
              f"watch with: repro fabric-status {report['run_dir']})")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"full report -> {args.out}")
    return status


def _render_fabric_status(run_dir: str, manifest: dict) -> None:
    from .obs.runledger import read_health_jsonl

    digest = (manifest.get("digests") or {}).get("fabric_digest", "-")
    print(f"{run_dir}: {manifest.get('scenario', '?')} "
          f"[{manifest.get('status', '?')}]  "
          f"shards={manifest.get('shards', '?')} "
          f"mode={manifest.get('mode', '?')} "
          f"digest={digest}")
    if manifest.get("status") == "failed":
        error = manifest.get("error") or {}
        if error:
            print(f"error: {error.get('type', '?')}: "
                  f"{error.get('message', '')}")
        for worker in manifest.get("workers") or []:
            if worker.get("status") == "failed":
                lines = (worker.get("error") or "").strip().splitlines()
                tail = lines[-1] if lines else "failed"
                print(f"  partition {worker.get('partition', '?')}: {tail}")

    frames = read_health_jsonl(os.path.join(run_dir, "health.jsonl"))
    latest: dict = {}
    for frame in frames:
        latest[frame.get("partition")] = frame
    if not latest:
        print("no heartbeat frames yet")
        return
    max_watermark = max(f.get("watermark_s", 0.0) for f in latest.values())
    rows = []
    for partition in sorted(latest):
        f = latest[partition]
        watermark = f.get("watermark_s", 0.0)
        lag = max_watermark - watermark
        rss = f.get("rss_kb")
        rows.append([
            str(partition),
            str(f.get("epoch", "?")),
            f"{watermark * 1e3:.2f}ms",
            f"{lag * 1e6:.0f}us",
            f"{f.get('events_per_s', 0.0):,.0f}",
            str(f.get("backlog_events", 0)),
            f"{f.get('backlog_bytes', 0):,}",
            f"{rss // 1024}MB" if rss else "-",
            f"{f.get('barrier_wait_s', 0.0) * 1e3:.1f}ms",
        ])
    print(render_table(
        ["shard", "epoch", "watermark", "lag", "ev/s", "backlog ev",
         "backlog bytes", "rss", "barrier wait"],
        rows,
    ))
    print(f"{len(frames)} heartbeat frame(s) total")


def cmd_fabric_status(args) -> int:
    """Render the health of a ledgered share-fabric run: manifest status
    plus the latest heartbeat frame per shard. ``--follow`` re-renders
    until the manifest leaves the ``running`` state."""
    import time as _time

    from .obs.runledger import load_manifest

    while True:
        try:
            run_dir, manifest = load_manifest(args.run_dir)
        except ReproError as exc:
            print(f"fabric-status: {exc}", file=sys.stderr)
            return 1
        _render_fabric_status(run_dir, manifest)
        if not args.follow or manifest.get("status") != "running":
            return 0
        _time.sleep(args.interval)
        print()


def cmd_telemetry_stitch(args) -> int:
    """Stitch per-shard window dumps into one fabric-wide store. Inputs
    may be bare JSONL dumps or run directories (resolved through their
    manifest's artifact index)."""
    from .obs.runledger import resolve_inputs
    from .obs.timewin import stitch_window_dumps

    try:
        dumps = resolve_inputs(args.dumps, "windows")
    except ReproError as exc:
        print(f"stitch failed: {exc}", file=sys.stderr)
        return 1
    if not dumps:
        print("warning: no window dumps to stitch (did the run record "
              "time windows?)", file=sys.stderr)
        return 1
    try:
        store = stitch_window_dumps(dumps, out_path=args.out)
    except OSError as exc:
        print(f"cannot read window dump: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"stitch failed: {exc}", file=sys.stderr)
        return 1
    rows = []
    for port in store.ports()[: args.max_rows]:
        views = store.views(port)
        meta = store.port_meta(port)
        rows.append([
            port, str(len(views)),
            str(meta.get("evicted_windows", 0)),
        ])
    print(render_table(["port", "windows", "evicted"], rows))
    print(f"stitched {len(dumps)} dump(s), {len(store.ports())} ports "
          f"-> {args.out}")
    return 0


def cmd_run_all(args) -> int:
    """Fan the registered experiment jobs out over worker processes."""
    from .harness.jobs import default_jobs, filter_jobs
    from .harness.runner import results_digest, run_jobs, write_results_jsonl

    specs = filter_jobs(default_jobs(), args.filters)
    if args.timeout is not None:
        specs = [
            dataclasses.replace(spec, timeout_s=args.timeout) for spec in specs
        ]
    if not specs:
        print("no jobs match the given --filter patterns", file=sys.stderr)
        return 1
    if args.list:
        print(render_table(
            ["job", "target"],
            [[spec.name, spec.target.rsplit(":", 1)[1]] for spec in specs],
        ))
        return 0

    total = len(specs)
    done = [0]

    def progress(result) -> None:
        done[0] += 1
        marker = "ok" if result.ok else result.status.upper()
        print(f"[{done[0]:>{len(str(total))}}/{total}] {result.name:<32} "
              f"{marker:<7} {result.wall_s:6.2f}s", flush=True)

    import time as _time

    t0 = _time.perf_counter()
    results = run_jobs(
        specs, jobs=args.jobs, profile=args.worker_profile,
        audit=args.audit_jobs, flight_dir=args.flight_record_dir,
        timewin_dir=args.timewin_dir, on_result=progress,
    )
    sweep_wall = _time.perf_counter() - t0

    failures = [r for r in results if not r.ok]
    print()
    print(render_table(
        ["job", "status", "wall", "attempts"],
        [[r.name, r.status, f"{r.wall_s:.2f}s", str(r.attempts)] for r in results],
    ))
    print(f"\n{total - len(failures)}/{total} ok in {sweep_wall:.1f}s "
          f"(--jobs {args.jobs}); digest {results_digest(results)[:16]}")

    if args.out:
        write_results_jsonl(results, args.out)
        print(f"results -> {args.out}")

    audit_failed = False
    if args.audit_jobs:
        audited = [r for r in results if r.audit is not None]
        total_events = sum(r.audit["events_seen"] for r in audited)
        total_violations = sum(r.audit["violation_count"] for r in audited)
        print(f"audit: {len(audited)} jobs, {total_events:,} events checked, "
              f"{total_violations} violation(s)")
        if args.flight_record_dir:
            print(f"flight records -> {args.flight_record_dir}/")
        for r in audited:
            if r.audit["violation_count"]:
                audit_failed = True
                print(f"\n--- {r.name}: {r.audit['violation_count']} "
                      f"audit violation(s) ---", file=sys.stderr)
                for v in r.audit["violations"][:5]:
                    print(f"  {v['invariant']} @ t={v['time']:.6f}s "
                          f"{v['subject']}: {v['message']}", file=sys.stderr)
    if args.timewin_dir:
        windowed = [r for r in results if r.timewin is not None]
        total_records = sum(r.timewin["records"] for r in windowed)
        total_retained = sum(r.timewin["retained_windows"] for r in windowed)
        print(f"time windows: {len(windowed)} jobs, {total_records:,} records "
              f"into {total_retained} retained windows -> {args.timewin_dir}/")

    # The paper's claims, checked from the result lines (never written
    # into them, so they cannot move the digest).
    verdicts = list(figures.check_claims(
        figures.FIGURES, {r.name: r.result for r in results if r.ok}
    ))
    broken = [(figure, claim) for figure, claim, holds in verdicts if holds is False]
    skipped = sum(holds is None for _, _, holds in verdicts)
    evaluated = len(verdicts) - skipped
    print(f"claims: {evaluated - len(broken)}/{evaluated} hold"
          + (f" ({skipped} skipped: their cells did not run)" if skipped else ""))
    for figure, claim in broken:
        print(f"claim FAILED: {figure.name}: {claim.text} "
              f"[{', '.join(claim.needs)}]", file=sys.stderr)

    if failures:
        for failure in failures:
            print(f"\n--- {failure.name} ({failure.status}) ---", file=sys.stderr)
            if failure.error:
                print(failure.error, file=sys.stderr)
        return 1
    return 1 if audit_failed or broken else 0


def _summarize_run_dir(ref: str, max_rows: int) -> int:
    """Summarize a ledgered share-fabric run directory: manifest header,
    per-worker table, and the fabric-wide merged metrics snapshot."""
    from .obs.runledger import artifact_paths, load_manifest

    run_dir, manifest = load_manifest(ref)
    digest = (manifest.get("digests") or {}).get("fabric_digest", "-")
    print(f"run: {run_dir} [{manifest.get('status', '?')}]")
    print(f"scenario: {manifest.get('scenario', '?')}  "
          f"shards: {manifest.get('shards', '?')}  "
          f"mode: {manifest.get('mode', '?')}  "
          f"epochs: {manifest.get('epochs', '?')}  "
          f"digest: {digest}")
    obs = manifest.get("observability", {})
    print("observability: "
          + ", ".join(f"{k}={v}" for k, v in sorted(obs.items())
                      if not isinstance(v, dict)))

    workers = manifest.get("workers") or []
    if workers:
        rows = []
        for w in workers[:max_rows]:
            flights = w.get("flights") or {}
            rows.append([
                str(w.get("partition", "?")), str(w.get("status", "?")),
                f"{w.get('wall_s', 0.0):.2f}s",
                f"{w.get('events', 0):,}",
                f"{w.get('exported_packets', 0):,}",
                f"{w.get('imported_packets', 0):,}",
                str(flights.get("total", "-")),
            ])
        print()
        print(render_table(
            ["shard", "status", "wall", "events", "exported", "imported",
             "flights"],
            rows,
        ))

    metrics = artifact_paths(ref, "metrics")
    if metrics:
        with open(metrics[0], "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
        print()
        print(f"fabric-wide metrics (merged from "
              f"{snapshot.get('merged_from', '?')} shard snapshot(s)):")
        print(render_metrics_summary(snapshot, max_rows=max_rows))
    return 0


def cmd_telemetry_summarize(args) -> int:
    """Human summary of a recorded telemetry run.

    Accepts either a JSONL trace or a share-fabric run directory (the
    latter renders the manifest + fabric-wide merged metrics). Tolerant
    of damaged input: truncated/corrupt JSONL lines are skipped with a
    warning, and an empty trace is a valid (zero-event) run. Only an
    unreadable file is an error.
    """
    from .obs.runledger import is_run_reference
    from .obs.tracebus import read_jsonl

    if is_run_reference(args.trace):
        try:
            return _summarize_run_dir(args.trace, args.max_rows)
        except ReproError as exc:
            print(f"summarize failed: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"cannot read run artifacts: {exc}", file=sys.stderr)
            return 1

    counts: Counter = Counter()
    first_time = None
    last_time = None
    skipped = [0]

    def warn_skip(lineno: int, problem: str) -> None:
        skipped[0] += 1
        print(f"warning: {args.trace}:{lineno}: skipping bad line: {problem}",
              file=sys.stderr)

    try:
        for event in read_jsonl(args.trace, strict=False, on_skip=warn_skip):
            counts[event.type] += 1
            if first_time is None:
                first_time = event.time
            last_time = event.time
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 1
    total = sum(counts.values())
    rows = [[etype, str(n)] for etype, n in counts.most_common()]
    rows.append(["total", str(total)])
    print(render_table(["event type", "count"], rows))
    if first_time is not None:
        print(f"trace span: {first_time:.6f}s .. {last_time:.6f}s")
    if skipped[0]:
        print(f"({skipped[0]} bad line(s) skipped)", file=sys.stderr)

    metrics_path = args.metrics or metrics_path_for(args.trace)
    try:
        with open(metrics_path, "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
    except FileNotFoundError:
        if args.metrics is not None:
            print(f"metrics snapshot not found: {metrics_path}", file=sys.stderr)
            return 1
        return 0
    print()
    print(render_metrics_summary(snapshot, max_rows=args.max_rows))
    return 0


def cmd_telemetry_flights(args) -> int:
    """Reconstruct paths, hop latencies, and drop attribution from a
    flight-record JSONL (written by ``--flight-record`` or an audited
    ``run-all`` sweep) — or from a share-fabric run directory, where the
    stitched end-to-end flights are preferred and per-shard segment
    dumps are stitched on the fly."""
    from .obs.flightrec import (
        FlightIndex,
        read_flights_jsonl,
        stitch_flight_dumps,
    )
    from .obs.runledger import artifact_paths, is_run_reference

    index = FlightIndex()
    skipped: List[int] = []

    def read_tolerant(path: str):
        # A killed --flight-record run leaves a torn final line; report
        # what survives (stitching below stays strict: a gap there would
        # silently break correlation chains).
        return read_flights_jsonl(
            path, strict=False, on_skip=lambda lineno, detail: skipped.append(lineno))

    try:
        if is_run_reference(args.flights):
            paths = artifact_paths(args.flights, "flights")
            if not paths:
                print(f"{args.flights}: run recorded no flights "
                      "(re-run share-fabric with --flights)",
                      file=sys.stderr)
                return 1
            if len(paths) == 1:
                flights = read_tolerant(paths[0])
            else:
                flights = stitch_flight_dumps(paths)
        else:
            flights = read_tolerant(args.flights)
        for flight in flights:
            if args.flow is not None and flight.flow_id != args.flow:
                continue
            index.handle_flight(flight)
    except OSError as exc:
        print(f"cannot read flights: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"cannot resolve flights: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError) as exc:
        print(f"invalid flight record in {args.flights}: {exc}", file=sys.stderr)
        return 1
    if skipped:
        print(f"warning: {args.flights}: skipped {len(skipped)} bad line(s) "
              f"(first at line {skipped[0]})", file=sys.stderr)
    print(f"{index.total} flights: {index.delivered} delivered, "
          f"{index.dropped} dropped")

    flow_rows = []
    for flow_id in sorted(index.paths_by_flow)[: args.max_rows]:
        path = index.path_for(flow_id)
        mean = index.mean_latency(flow_id)
        flow_rows.append([
            str(flow_id),
            " -> ".join(path) if path else "-",
            f"{mean * 1e6:.1f}us" if mean is not None else "-",
        ])
    if flow_rows:
        print()
        print(render_table(["flow", "path (most common)", "mean latency"],
                           flow_rows))

    hops = index.hop_latency()
    if hops:
        print()
        print(render_table(
            ["queue", "visits", "mean wait"],
            [[node, str(d["visits"]), f"{d['mean_wait_s'] * 1e6:.1f}us"]
             for node, d in list(hops.items())[: args.max_rows]],
        ))

    attributions = index.drop_attributions(limit=args.max_drops)
    if attributions:
        print(f"\ndrop attribution (showing {len(attributions)} of "
              f"{index.dropped}):")
        for line in attributions:
            print(f"  {line}")
    return 0


def cmd_telemetry_windows(args) -> int:
    """Query a time-window dump: who built each queue, top contributors,
    tenant shares — and optionally cross-validate the fixed-memory
    attribution against a flight-record ground truth. Accepts a bare
    JSONL dump or a run directory (stitched fabric-wide store preferred;
    per-shard dumps are stitched on the fly)."""
    from .obs.runledger import artifact_paths, is_run_reference
    from .obs.timewin import (
        WindowStore,
        crosscheck_with_flights,
        stitch_window_dumps,
    )

    try:
        if is_run_reference(args.windows):
            paths = artifact_paths(args.windows, "windows")
            if not paths:
                print(f"{args.windows}: run recorded no time windows",
                      file=sys.stderr)
                return 1
            if len(paths) == 1:
                store = WindowStore.from_jsonl(paths[0])
            else:
                store = stitch_window_dumps(paths)
        else:
            store = WindowStore.from_jsonl(args.windows)
    except OSError as exc:
        print(f"cannot read windows: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # ConfigurationError/json decode
        print(f"invalid window dump {args.windows}: {exc}", file=sys.stderr)
        return 1

    ports = [args.port] if args.port else store.ports()
    if not ports:
        print("no windows recorded")
        return 0

    summary_rows = []
    for port in ports:
        views = store.views(port)
        meta = store.port_meta(port)
        if views:
            t0, t1 = views[0].t0, views[-1].t1
            span = f"{t0 * 1e3:.1f}..{t1 * 1e3:.1f}ms"
        else:
            span = "-"
        summary_rows.append([
            port, str(len(views)), span,
            str(meta.get("evicted_windows", 0)),
            str(meta.get("collisions", 0)),
        ])
    print(render_table(
        ["port", "windows", "span", "evicted", "collisions"],
        summary_rows[: args.max_rows],
    ))

    if args.port:
        views = store.views(args.port)
        t0 = args.t0_ms * 1e-3 if args.t0_ms is not None else (
            views[0].t0 if views else 0.0
        )
        t1 = args.t1_ms * 1e-3 if args.t1_ms is not None else (
            views[-1].t1 if views else 0.0
        )
        report = store.who_built(args.port, t0, t1)
        print(f"\nwho built {args.port} over "
              f"[{t0 * 1e3:.3f}ms, {t1 * 1e3:.3f}ms) — "
              f"coverage: {report.coverage}"
              + (f" ({report.evicted_windows} window(s) evicted)"
                 if report.evicted_windows else ""))
        if report.coverage == "evicted":
            print("the queried range has wrapped out of the ring; "
                  "re-run with a larger --timewin ring or query recent time")
        contributors = report.top_contributors(args.top)
        if contributors:
            total = max(report.total_bytes + report.collision_bytes, 1)
            print(render_table(
                ["flow", "bytes", "pkts", "share"],
                [[str(flow), f"{b:,}", str(p), f"{b / total * 100:.1f}%"]
                 for flow, b, p in contributors],
            ))
        shares = report.tenant_shares()
        if shares:
            print(render_table(
                ["tenant (AQ id)", "occupancy share"],
                [[str(t), f"{share * 100:.1f}%"] for t, share in shares.items()],
            ))
        print(f"high-water depth: {report.high_water:,.0f} bytes; "
              f"dropped: {report.dropped_bytes:,} bytes")

    if args.validate:
        import json as _json

        from .obs.flightrec import read_flights_jsonl

        try:
            # A ring-bounded flight file (--flight-max) is incomplete
            # ground truth: evicted flights' hops are gone, so an exact
            # per-window cross-check would report spurious mismatches.
            with open(args.validate, "r", encoding="utf-8") as fh:
                first = fh.readline().strip()
            if first:
                head = _json.loads(first)
                if head.get("type") == "ring_meta" and head.get("flights_evicted"):
                    print(
                        f"cannot validate against {args.validate}: it is "
                        f"ring-bounded ({head['flights_evicted']} flights "
                        "evicted); re-record without --flight-max",
                        file=sys.stderr,
                    )
                    return 1
            verdict = crosscheck_with_flights(
                store, read_flights_jsonl(args.validate)
            )
        except (OSError, ValueError, ReproError) as exc:
            print(f"cannot read flights: {exc}", file=sys.stderr)
            return 1
        print(f"\nground-truth crosscheck vs {args.validate}: "
              f"{'OK' if verdict['ok'] else 'MISMATCH'} "
              f"({verdict['windows_checked']} windows checked, "
              f"{verdict['windows_skipped_evicted']} evicted/skipped, "
              f"{verdict['collision_windows']} with slot collisions)")
        if not verdict["ok"]:
            for mismatch in verdict["mismatches"][:10]:
                print(f"  {mismatch['port']} w{mismatch['seq']} "
                      f"{mismatch['field']}: expected {mismatch['expected']} "
                      f"recorded {mismatch['recorded']}", file=sys.stderr)
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Augmented Queue (SIGCOMM 2023) reproduction — "
                    "run the paper's experiments from the command line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for figure in figures.FIGURES:
        p = sub.add_parser(figure.name, help=figure.title)
        _add_common(p, figure.record)
        p.set_defaults(fn=cmd_figure, figure=figure)

    share_scale = Scale(bottleneck_gbps=2.0, duration_ms=60.0, seed=1)
    p = sub.add_parser("share", help="custom entity-sharing experiment")
    _add_common(p, share_scale)
    p.add_argument("--approach", choices=APPROACHES, default="aq")
    p.add_argument("--ccs", nargs="+", default=["cubic", "udp"],
                   help="one entity per CC name (udp allowed)")
    p.add_argument("--flows", type=int, default=4)
    p.add_argument("--fluid", action="store_true",
                   help="hybrid fluid/packet fast path (UDP entities only): "
                        "advance stable backlogged intervals in closed form")
    p.set_defaults(fn=cmd_share)

    p = sub.add_parser(
        "fault-restart",
        help="guarantee degradation + re-convergence after a switch restart",
        description="Run the fault-recovery experiment: a switch restart "
                    "wipes the deployed AQs' register state mid-run; the "
                    "controller redeploys with bounded retry/backoff and "
                    "the per-entity throughput is measured before/during/"
                    "after the fault window. See docs/FAULTS.md.",
    )
    _add_common(p, dataclasses.replace(share_scale, duration_ms=120.0))
    p.add_argument("--restart-at-ms", type=float, default=50.0,
                   help="when the bottleneck switch restarts (default 50)")
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="allowed post-recovery shortfall vs the granted "
                        "rate (default 0.05)")
    p.set_defaults(fn=cmd_fault_restart)

    p = sub.add_parser(
        "share-fabric",
        help="shard one fat-tree fabric across lockstep workers",
        description="Run the share-fabric scenario partitioned into "
                    "--shards conservative-sync workers. Results digests "
                    "are identical at any shard count; see "
                    "docs/SCALING.md.",
    )
    p.add_argument("--shards", type=int, default=1,
                   help="number of partitions/workers (default 1)")
    p.add_argument("--duration-ms", type=float, default=2.0,
                   help="simulated duration (default 2ms)")
    p.add_argument("--pods", type=int, default=4)
    p.add_argument("--tors-per-pod", type=int, default=2)
    p.add_argument("--hosts-per-tor", type=int, default=2)
    p.add_argument("--num-cores", type=int, default=2)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--intra-gbps", type=float, default=2.0,
                   help="per-flow rate of intra-ToR flows (default 2)")
    p.add_argument("--cross-gbps", type=float, default=3.0,
                   help="per-flow rate of cross-pod flows (default 3)")
    p.add_argument("--traffic", choices=("udp", "mixed"), default="udp",
                   help="'udp' = the static CBR matrix; 'mixed' = TCP + "
                        "AQ tenants with Poisson/web-search arrivals and "
                        "a UDP aggressor (per-tenant FCT summaries land "
                        "in the report and run ledger)")
    p.add_argument("--churn", action="store_true",
                   help="mixed traffic only: the last tenant leaves at "
                        "40%% of the run and rejoins at 70%% (AQ grants "
                        "withdrawn and rebalanced mid-run)")
    p.add_argument("--load", type=float, default=0.25,
                   help="mixed traffic only: offered TCP load as a "
                        "fraction of each tenant's host capacity "
                        "(default 0.25)")
    p.add_argument("--tenants", type=int, default=3,
                   help="mixed traffic only: tenant count; hosts round-"
                        "robin across tenants (default 3)")
    p.add_argument("--cc", default="dctcp",
                   help="mixed traffic only: congestion control for the "
                        "TCP flows (default dctcp)")
    p.add_argument("--udp-gbps", type=float, default=4.0,
                   help="mixed traffic only: the tenant-0 aggressor's "
                        "per-host CBR rate (default 4)")
    p.add_argument("--inline", action="store_true",
                   help="drive every partition in this process (no "
                        "worker spawns; same digest)")
    p.add_argument("--audit", action="store_true", dest="shard_audit",
                   help="attach a conservation auditor per partition; "
                        "exit 1 on any violation")
    p.add_argument("--faults", metavar="PLAN.JSON", default=None,
                   dest="shard_faults",
                   help="fault plan, filtered per partition by target "
                        "owner (cut links belong to the sending side)")
    p.add_argument("--run-dir", metavar="DIR", default=None,
                   help="run-ledger directory (default: "
                        "runs/share-fabric-<timestamp>); writes "
                        "manifest.json, health.jsonl, merged metrics, and "
                        "auto-stitched dumps")
    p.add_argument("--no-run-dir", action="store_true",
                   help="skip the run ledger entirely (pre-ledger "
                        "behaviour: no directory, heartbeats and time "
                        "windows off unless asked for)")
    p.add_argument("--no-timewin", action="store_true",
                   help="disable the default-on time-window recorder")
    p.add_argument("--timewin-budget", type=int, metavar="BYTES", default=None,
                   help="fixed per-port memory budget for the recorder; "
                        "ring geometry is solved from it (see "
                        "docs/OBSERVABILITY.md)")
    p.add_argument("--flights", action="store_true",
                   help="record per-shard flight segments and stitch them "
                        "end-to-end into the run ledger")
    p.add_argument("--timewin-dir", metavar="DIR", default=None,
                   help="record per-partition time windows to "
                        "DIR/shard<i>.windows.jsonl (default: "
                        "<run-dir>/windows)")
    p.add_argument("--timewin-window-ms", type=float, default=None,
                   help="window quantum in ms (default: recorder default)")
    p.add_argument("--timewin-merged", metavar="MERGED.JSONL", default=None,
                   help="also stitch the per-shard dumps into one "
                        "fabric-wide store")
    p.add_argument("--out", metavar="REPORT.JSON", default=None,
                   help="write the full JSON report")
    p.set_defaults(fn=cmd_share_fabric)

    p = sub.add_parser(
        "fabric-status",
        help="health view of a share-fabric run ledger",
        description="Render a share-fabric run directory's manifest "
                    "status and the latest heartbeat frame per shard "
                    "(sim-time watermark, events/sec, backlog, memory "
                    "high-water, barrier waits). Works on live and "
                    "completed runs.",
    )
    p.add_argument("run_dir", help="run directory (or its manifest.json)")
    p.add_argument("--follow", action="store_true",
                   help="keep re-rendering until the run completes")
    p.add_argument("--interval", type=float, default=1.0,
                   help="seconds between --follow renders (default 1)")
    p.set_defaults(fn=cmd_fabric_status)

    p = sub.add_parser(
        "run-all",
        help="run registered experiment jobs across worker processes",
        description="Fan the registered experiment jobs (the paper's "
                    "figure/table grids plus the equivalence checks) out "
                    "over isolated worker processes. Results are "
                    "deterministic at any parallelism; see "
                    "docs/PERFORMANCE.md.",
    )
    p.add_argument("--jobs", type=int, default=1,
                   help="number of worker processes (default 1)")
    p.add_argument("--filter", action="append", dest="filters", metavar="SUBSTR",
                   help="run only jobs whose name contains SUBSTR "
                        "(repeatable; any match selects)")
    p.add_argument("--out", metavar="RESULTS.JSONL", default=None,
                   help="write one JSON result line per job")
    p.add_argument("--timeout", type=float, default=None,
                   help="override every job's timeout (seconds)")
    p.add_argument("--profile", action="store_true", dest="worker_profile",
                   help="activate a per-worker sim profiler and keep its "
                        "snapshot in each job's result")
    p.add_argument("--audit", action="store_true", dest="audit_jobs",
                   help="attach a conservation-law auditor in every worker; "
                        "each job's verdict lands in the results JSONL and "
                        "any violation fails the sweep")
    p.add_argument("--flight-record-dir", metavar="DIR", default=None,
                   help="record each job's INT flights to "
                        "DIR/<job>.flights.jsonl")
    p.add_argument("--timewin-dir", metavar="DIR", default=None,
                   help="attach the fixed-memory time-window recorder in "
                        "every worker and dump each job's windows to "
                        "DIR/<job>.windows.jsonl")
    p.add_argument("--list", action="store_true",
                   help="list matching jobs without running them")
    p.set_defaults(fn=cmd_run_all)

    p = sub.add_parser("telemetry", help="telemetry post-processing")
    tsub = p.add_subparsers(dest="telemetry_command", required=True)
    ps = tsub.add_parser("summarize",
                         help="summarize a recorded JSONL trace + metrics")
    ps.add_argument("trace", help="JSONL trace written by --telemetry, or "
                                  "a share-fabric run directory")
    ps.add_argument("--metrics", default=None,
                    help="metrics snapshot path (default: derived from trace)")
    ps.add_argument("--max-rows", type=int, default=40)
    ps.set_defaults(fn=cmd_telemetry_summarize)
    pf = tsub.add_parser("flights",
                         help="reconstruct paths/latency/drop attribution "
                              "from a flight-record JSONL")
    pf.add_argument("flights", help="JSONL written by --flight-record, "
                                    "run-all --flight-record-dir, or a "
                                    "share-fabric run directory")
    pf.add_argument("--flow", type=int, default=None,
                    help="restrict to one flow id")
    pf.add_argument("--max-rows", type=int, default=40)
    pf.add_argument("--max-drops", type=int, default=10,
                    help="attribution lines to print (default 10)")
    pf.set_defaults(fn=cmd_telemetry_flights)
    pw = tsub.add_parser("windows",
                         help="query a time-window dump: who built each "
                              "queue, top contributors, tenant shares")
    pw.add_argument("windows", help="JSONL written by --timewin, run-all "
                                    "--timewin-dir, or a share-fabric run "
                                    "directory")
    pw.add_argument("--port", default=None,
                    help="attribute one port (multi-queue sub-ports merge "
                         "under their parent name)")
    pw.add_argument("--t0-ms", type=float, default=None,
                    help="query start (default: oldest retained window)")
    pw.add_argument("--t1-ms", type=float, default=None,
                    help="query end (default: newest retained window)")
    pw.add_argument("--top", type=int, default=10,
                    help="contributors to list (default 10)")
    pw.add_argument("--validate", metavar="FLIGHTS.JSONL", default=None,
                    help="cross-validate attribution against a flight "
                         "record of the same run; exit 1 on mismatch")
    pw.add_argument("--max-rows", type=int, default=40)
    pw.set_defaults(fn=cmd_telemetry_windows)
    pst = tsub.add_parser("stitch",
                          help="stitch per-shard window dumps into one "
                               "fabric-wide store")
    pst.add_argument("dumps", nargs="+",
                     help="per-shard JSONL dumps (share-fabric "
                          "--timewin-dir) and/or run directories")
    pst.add_argument("--out", required=True, metavar="MERGED.JSONL",
                     help="where to write the merged store")
    pst.add_argument("--max-rows", type=int, default=40)
    pst.set_defaults(fn=cmd_telemetry_stitch)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    faults_path = getattr(args, "faults", None)
    plan_scope: "contextlib.AbstractContextManager" = contextlib.nullcontext()
    if faults_path is not None:
        from .errors import FaultPlanError
        from .faults import FaultPlan, activate_fault_plan

        try:
            plan = FaultPlan.from_file(faults_path)
        except FaultPlanError as exc:
            parser.error(f"invalid fault plan {faults_path!r}: {exc}")
        plan_scope = activate_fault_plan(plan)

    trace_path = getattr(args, "telemetry", None)
    flight_path = getattr(args, "flight_record", None)
    timewin_path = getattr(args, "timewin", None)
    timewin_ms = getattr(args, "timewin_ms", None)
    metrics_summary = getattr(args, "metrics_summary", False)
    with contextlib.ExitStack() as stack:
        try:
            tele = stack.enter_context(telemetry_session(
                jsonl_path=trace_path,
                profile=getattr(args, "profile", False),
                flight_path=flight_path,
                audit=getattr(args, "audit", False),
                flight_max=getattr(args, "flight_max", None),
                timewin_path=timewin_path,
                timewin_window_s=timewin_ms * 1e-3 if timewin_ms is not None else None,
                metrics=metrics_summary,
            ))
        except OSError as exc:
            parser.error(f"cannot open telemetry output {trace_path!r}: {exc}")
        with plan_scope:
            status = args.fn(args)
    if tele is None:
        return status
    verdict = tele.report()
    if trace_path is not None:
        write_metrics_snapshot(verdict["metrics"], metrics_path_for(trace_path))
        print(f"telemetry: {tele.trace.events_published} events -> {trace_path}")
        print(f"metrics snapshot -> {metrics_path_for(trace_path)}")
    if metrics_summary:
        print(render_metrics_summary(verdict["metrics"]))
    if tele.profiler is not None:
        print(tele.profiler.render())
    if "flights" in verdict:
        print(f"flight records: {verdict['flights']['total']} flights "
              f"-> {flight_path}")
    if "timewin" in verdict:
        stats = verdict["timewin"]
        print(f"time windows: {stats['retained_windows']} windows retained "
              f"across {stats['ports']} ports "
              f"({stats['records']} records, {stats['evicted_windows']} "
              f"evicted) -> {timewin_path}")
    if "audit" in verdict:
        audit = verdict["audit"]
        print(f"audit: {audit['events_seen']:,} events checked, "
              f"{audit['violation_count']} violation(s)")
        if audit["violation_count"]:
            for v in audit["violations"][:10]:
                print(f"  {v['invariant']} @ t={v['time']:.6f}s "
                      f"{v['subject']}: {v['message']}", file=sys.stderr)
            return max(status, 1)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
