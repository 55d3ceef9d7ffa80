"""Benchmark driver: end-to-end metrics from untraced children, per-layer
metrics from a separate traced layer pass. See README.md beside this file.

Two ways in:

* **Contract mode** (``--trace 0|1`` given; what ``BENCHMARK.json``'s
  command runs): one workload, repeats for ``--seconds``, last stdout line
  is one JSON object ``{correct, attempted, failed, metrics}``.
* **Suite mode** (no ``--trace``): every workload, interleaved rounds,
  layer pass, tables on stdout, numbers of record into ``RESULTS.json``.
  ``--aa`` and ``--quick`` are suite-mode variants.

Metric names, units, directions and bounds are read from
``BENCHMARK.json`` — they are defined in exactly one place.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
#: Scratch (child run directories, span dumps); git-ignored, inside the checkout.
OUT = SUITE / "out"
RESULTS = SUITE / "RESULTS.json"

sys.path[:0] = [str(SUITE), str(SRC)]
from workloads import FABRIC_VARIANTS, OBS_RUNGS, WORKLOADS, Workload  # noqa: E402

DEFAULT_REPEATS = 7  # supports median/min/max, no tail percentile
MIN_REPEATS = 5
QUICK_SCALE = 0.1
WARMUP_SCALE = 0.1
LADDER_ROUNDS = 3
#: Layers that see every packet: these report ns_per_hop.
PACKET_LAYERS = (
    "sim.engine", "net.link", "net.switch", "net.host", "queues.fifo",
    "core.aq", "transport.tcp", "cc", "transport.udp", "sim.shard",
)
#: ``sim.engine.bare_events_per_s`` may drift this much between two sets
#: before a comparison says the host changed speed under it.
CALIBRATION_DRIFT = 0.10


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- children ------------------------------------------------------------------


def run_child(name: str, seed: int, scale: float = 1.0, variant: Optional[str] = None,
              trace: bool = False) -> dict:
    """One fresh child process = one repeat. Returns the child's outputs
    plus ``wall_s`` (launch stamp -> child exited, artifacts on disk), or
    ``{"error": ...}``. The scratch directory is removed on every path."""
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    cmd = [sys.executable, str(SUITE / "worker.py"), name, "--seed", str(seed),
           "--out-dir", out_dir, "--scale", repr(scale)]
    if variant:
        cmd += ["--variant", variant]
    if trace:
        cmd += ["--trace", str(OUT / f"spans-{name}-seed{seed}.json")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timeout = 5 * workload.expected_wall_s * (2 if trace else 1)
    try:
        t0 = perf_counter()
        proc = subprocess.Popen(
            cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=str(ROOT), start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # The child may have spawned shard workers: stop the whole group.
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
            return child_error(name, f"timeout after {timeout:.0f}s", stderr)
        wall = perf_counter() - t0
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return child_error(name, f"exit code {proc.returncode}, no result line", stderr)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            return child_error(name, "unparseable result line", stderr)
        result["wall_s"] = wall
        result["file_bytes"] = {f: jsonl_bytes(os.path.join(out_dir, f))
                                for f in result.get("files", [])}
        result["dir_bytes"] = sum(
            os.path.getsize(os.path.join(base, f))
            for base, _, files in os.walk(out_dir) for f in files
        )
        return result
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def child_error(name: str, what: str, stderr: str) -> dict:
    tail = "\n".join(stderr.strip().splitlines()[-8:])
    print(f"!! child {name}: {what}\n{tail}", file=sys.stderr)
    return {"error": what}


def jsonl_bytes(path: str) -> int:
    """Size of a JSONL artifact, or 0 when it is missing, empty or does
    not parse. Parses one line in 50 and the last one (a truncated file
    ends mid-record): the full trace is tens of MB per repeat."""
    try:
        with open(path, encoding="utf-8") as handle:
            line = ""
            for index, line in enumerate(handle):
                if index % 50 == 0:
                    json.loads(line)
            json.loads(line)
        return os.path.getsize(path)
    except (OSError, json.JSONDecodeError):
        return 0


def telemetry_off_reference(workload: Workload, seed: int, scale: float = 1.0) -> Optional[dict]:
    """The probes-on workload's traffic with telemetry off: the plane must
    be result-neutral, so its rates are the reference. ``None`` elsewhere."""
    if workload.variant != "all":
        return None
    return run_child(workload.name, seed, scale=scale, variant="off")


def setup_s(result: dict) -> float:
    """Launch stamp -> first entry into the event loop (dumbbells) or
    first heartbeat frame (fabric)."""
    return result["stamps"]["loop_entry"] - result["stamps"]["launch"]


def work_s(result: dict) -> float:
    """The scenario call inside the child: build + run + report."""
    return result["stamps"]["done"] - result["stamps"]["imported"]


# -- checks --------------------------------------------------------------------

#: name -> predicate(result, first repeat, workload, reference). The
#: reference is the telemetry-off run of the same traffic (obs workload).
Check = Callable[[dict, dict, Workload, Optional[dict]], bool]

DUMBBELL_CHECKS: Dict[str, Check] = {
    "events_repeat": lambda r, first, w, ref: r["events"] == first["events"],
    "rates_repeat": lambda r, first, w, ref: r["rates_bps"] == first["rates_bps"],
    "guarantee": lambda r, first, w, ref: r["guarantee_err"] <= w.guarantee_tol,
}
OBS_CHECKS: Dict[str, Check] = {
    "audit_clean": lambda r, first, w, ref: r["audit"]["violations"] == 0,
    "files_parse": lambda r, first, w, ref: (
        len(r["file_bytes"]) == 3 and all(r["file_bytes"].values())),
    "plane_neutral": lambda r, first, w, ref: (
        ref is not None and r["rates_bps"] == ref.get("rates_bps")),
}
FABRIC_CHECKS: Dict[str, Check] = {
    "events_repeat": lambda r, first, w, ref: r["events"] == first["events"],
    "digest_repeat": lambda r, first, w, ref: r["digest"] == first["digest"],
    "manifest_complete": lambda r, first, w, ref: r["manifest_status"] == "complete",
    "fct_completed": lambda r, first, w, ref: r["fct_completed"] > 0,
}


def checks_for(workload: Workload, quick: bool = False) -> Dict[str, Check]:
    if workload.kind == "fabric":
        checks = dict(FABRIC_CHECKS)
    else:
        checks = dict(DUMBBELL_CHECKS)
        if workload.variant == "all":
            checks.update(OBS_CHECKS)
    if quick:  # a tenth of the duration is inside start-up transients
        checks.pop("guarantee", None)
    return checks


class Tally:
    """Checks attempted / failed, per workload; a crashed child fails all
    of its checks."""

    def __init__(self) -> None:
        self.attempted: Dict[str, int] = {}
        self.failed: List[str] = []

    def record(self, name: str, label: str, ok: bool) -> None:
        self.attempted[name] = self.attempted.get(name, 0) + 1
        if not ok:
            self.failed.append(f"{name}.{label}")

    def check_repeats(self, workload: Workload, repeats: List[dict],
                      reference: Optional[dict] = None, quick: bool = False) -> None:
        good = [r for r in repeats if "error" not in r]
        for index, result in enumerate(repeats):
            for label, check in checks_for(workload, quick).items():
                ok = "error" not in result and check(result, good[0], workload, reference)
                self.record(workload.name, f"{label}[{index}]", ok)

    @property
    def total(self) -> int:
        return sum(self.attempted.values())

    def pass_share(self, name: str) -> float:
        failed = sum(label.startswith(name + ".") for label in self.failed)
        return 1.0 - failed / self.attempted[name]


# -- end-to-end metrics --------------------------------------------------------


def guarantee_fit(workload: Workload, result: dict) -> float:
    """How closely achieved shares track granted shares; 1.0 is exact.
    Dumbbells: 1 - max relative guarantee error. Fabric: Jain's index over
    per-tenant goodput (tenants hold equal grants)."""
    if workload.kind == "fabric":
        return result["jain_goodput"]
    return 1.0 - result["guarantee_err"]


def end_to_end(workload: Workload, repeats: List[dict], tally: Tally) -> Dict[str, dict]:
    """Median (with min, max, n) of each end-to-end metric over the
    repeats that produced a result."""
    good = [r for r in repeats if "error" not in r]
    if not good:
        return {}
    run_median = statistics.median(r["wall_s"] - setup_s(r) for r in good)
    series = {
        "wall_s": [r["wall_s"] for r in good],
        "setup_s": [setup_s(r) for r in good],
        "pkt_hops_per_s": [good[0]["pkt_hops"] / run_median],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        "guarantee_fit": [guarantee_fit(workload, r) for r in good],
        "check_pass_share": [tally.pass_share(workload.name)],
    }
    return {
        name: {"value": statistics.median(values), "min": min(values),
               "max": max(values), "n": len(good)}
        for name, values in series.items()
    }


def measure(names: List[str], seed: int, repeats: int, scale: float,
            tally: Tally, quick: bool = False) -> Dict[str, List[dict]]:
    """One discarded warm-up round, then ``repeats`` interleaved rounds
    (``for round: for workload: one child``)."""
    for name in names:
        run_child(name, seed, scale=scale * WARMUP_SCALE)
    results: Dict[str, List[dict]] = {name: [] for name in names}
    for _ in range(repeats):
        for name in names:
            results[name].append(run_child(name, seed, scale=scale))
    for name in names:
        workload = WORKLOADS[name]
        reference = telemetry_off_reference(workload, seed, scale)
        tally.check_repeats(workload, results[name], reference, quick)
    return results


# -- layer pass ----------------------------------------------------------------


def layer_pass(name: str, seed: int, scale: float, contract: dict, tally: Tally,
               bare_events_per_s: float) -> Dict[str, float]:
    """Per-layer metrics of one workload: every name ``BENCHMARK.json``
    lists under ``per_layer``, 0 where the layer does no work here."""
    workload = WORKLOADS[name]
    metrics = {m["name"]: 0.0 for m in contract["per_layer"]}
    metrics["sim.engine.bare_events_per_s"] = bare_events_per_s
    if workload.kind == "fabric":
        base, untraced, traced = fabric_layers(name, seed, scale, metrics, tally)
    elif workload.variant == "all":
        base, untraced, traced = obs_layers(name, seed, scale, metrics, tally)
    else:
        base = run_child(name, seed, scale=scale)
        untraced = [base]
        traced = run_child(name, seed, scale=scale, trace=True)
    ok = all("error" not in r for r in untraced + [traced])
    tally.record(name, "layer_pass_children", ok)
    if not ok:
        return metrics

    trace = traced["trace"]
    hops = trace["counts"]["net.link.pkt_hops"]
    for layer, row in trace["layers"].items():
        metrics[f"{layer}.self_s"] = row["self_s"]
        metrics[f"{layer}.calls"] = row["calls"]
        if layer in PACKET_LAYERS:
            metrics[f"{layer}.ns_per_hop"] = row["self_s"] / hops * 1e9
    for key, value in trace["counts"].items():
        if key in metrics:
            metrics[key] = value
    metrics["sim.engine.events_per_hop"] = trace["counts"]["sim.engine.events"] / hops
    metrics["trace.overhead_ratio"] = traced["wall_s"] / statistics.median(
        r["wall_s"] for r in untraced)

    stamps = base["stamps"]
    metrics["harness.import_s"] = stamps["imported"] - stamps["start"]
    metrics["harness.build_s"] = stamps["loop_entry"] - stamps["imported"]
    metrics["harness.run_s"] = stamps["loop_exit"] - stamps["loop_entry"]
    metrics["harness.report_s"] = stamps["done"] - stamps["loop_exit"]
    metrics["harness.install_sharing_s"] = trace["functions"]["install_sharing"]["total_s"]

    # Self times partition the traced child's wall clock by construction;
    # a gap means a span was lost (an exception path, a missed pop).
    traced_wall = traced["stamps"]["done"] - traced["stamps"]["start"]
    self_sum = sum(row["self_s"] for row in trace["layers"].values())
    tally.record(name, "self_time_sums_to_wall", abs(self_sum - traced_wall) <= 0.05 * traced_wall)
    tally.record(name, "trace_neutral", traced["events"] == untraced[0]["events"])
    return metrics


def obs_layers(name: str, seed: int, scale: float, metrics: Dict[str, float], tally: Tally):
    """The observability ladder: the workload's traffic with one
    ``telemetry_session`` option at a time, interleaved rounds, min-of-N."""
    runs: Dict[str, List[dict]] = {rung: [] for rung in OBS_RUNGS}
    for _ in range(LADDER_ROUNDS):
        for rung in OBS_RUNGS:
            runs[rung].append(run_child(name, seed, scale=scale, variant=rung))
    traced = run_child(name, seed, scale=scale, trace=True)
    flat = [r for rung in runs.values() for r in rung]
    if any("error" in r for r in flat):
        return flat[0], flat, traced
    best = {rung: min(work_s(r) for r in results) for rung, results in runs.items()}
    off, full = runs["off"][0], runs["all"][0]
    hops = off["pkt_hops"]

    def marginal_ns(rung: str) -> float:
        return (best[rung] - best["off"]) / hops * 1e9

    metrics.update({
        "obs.tracebus.emit_ns_per_hop": marginal_ns("summary"),
        "obs.tracebus.jsonl_ns_per_hop": marginal_ns("jsonl"),
        "obs.flightrec.ns_per_hop": marginal_ns("flight"),
        "obs.timewin.ns_per_hop": marginal_ns("timewin"),
        "obs.audit.ns_per_hop": marginal_ns("audit"),
        "obs.full.ratio": best["all"] / best["off"],
        "obs.tracebus.bytes_per_hop": full["file_bytes"]["trace.jsonl"] / hops,
        "obs.flightrec.bytes_per_hop": full["file_bytes"]["flights.jsonl"] / hops,
        "obs.timewin.records": full["timewin_records"],
        "obs.audit.events_checked": full["audit"]["events_checked"],
        "obs.audit.violations": full["audit"]["violations"],
    })
    tally.record(name, "ladder_result_neutral",
                 all(r["rates_bps"] == off["rates_bps"] for r in flat))
    return full, runs["all"], traced


def fabric_layers(name: str, seed: int, scale: float, metrics: Dict[str, float], tally: Tally):
    """Spawn run (heartbeat frames, ledger size), inline 1- and 2-shard
    runs with the plane off and on (the ratios), and the traced inline
    2-shard run (spans around epochs, boundary batches, stitch, ledger)."""
    runs = {variant: run_child(name, seed, scale=scale, variant=variant)
            for variant in FABRIC_VARIANTS}
    traced = run_child(name, seed, scale=scale, variant="inline2_ledger", trace=True)
    spawn, ledgered = runs["spawn2_ledger"], runs["inline2_ledger"]
    if any("error" in r for r in list(runs.values()) + [traced]):
        return spawn, list(runs.values()), traced
    functions, counts = traced["trace"]["functions"], traced["trace"]["counts"]
    batch_pkts = max(counts["sim.shard.batch_pkts"], 1)
    metrics.update({
        "harness.fabric.spec_s": functions["fabric_mixed_spec"]["total_s"],
        "topology.fattree.plan_s": functions["FatTreePlan.__init__"]["total_s"],
        "harness.fabric.build_s": functions["build_fabric_partition"]["total_s"],
        "harness.fabric.merge_s": functions["merge_results"]["total_s"],
        "stats.fct.flows": spawn["fct_flows"],
        "stats.fct.completed": spawn["fct_completed"],
        "sim.shard.epochs": spawn["epochs"],
        "sim.shard.run_epoch_s": functions["ShardRuntime.run_epoch"]["total_s"],
        "sim.shard.apply_inbound_s": functions["ShardRuntime.apply_inbound"]["total_s"],
        "sim.shard.batch_bytes_per_pkt": counts["sim.shard.batch_bytes"] / batch_pkts,
        "sim.shard.batch_pickle_ns_per_pkt": counts["sim.shard.batch_pickle_ns"] / batch_pkts,
        "sim.shard.first_frame_s": spawn["stamps"]["loop_entry"] - spawn["stamps"]["imported"],
        "sim.shard.barrier_wait_s": spawn["barrier_wait_s"],
        "sim.shard.worker_events_per_s": spawn["worker_events_per_s"],
        "sim.shard.lockstep_ratio": work_s(runs["inline2"]) / work_s(runs["inline1"]),
        "sim.shard.parallel_ratio": work_s(ledgered) / work_s(spawn),
        "obs.fabric_plane.ratio": work_s(ledgered) / work_s(runs["inline2"]),
        "obs.timewin.stitch_s": functions["stitch_window_dumps"]["total_s"],
        "obs.metrics.merge_s": functions["merge_metrics_snapshots"]["total_s"],
        "obs.runledger.finalize_s": functions["RunLedger.finalize"]["total_s"],
        "obs.runledger.bytes": spawn["dir_bytes"],
    })
    tally.record(name, "digest_any_shards_any_plane",
                 len({r["digest"] for r in list(runs.values()) + [traced]}) == 1)
    return spawn, [ledgered], traced


# -- host ----------------------------------------------------------------------


def bare_events_per_s(events: int = 200_000) -> float:
    """Host-calibration score: a chain of ``schedule_fire`` events with no
    network attached. Stored beside every result so rows from different
    hosts compare as ratios. Best of three."""
    from repro.sim.engine import Simulator

    best = 0.0
    for _ in range(3):
        sim = Simulator()
        left = [events]

        def tick() -> None:
            left[0] -= 1
            if left[0]:
                sim.schedule_fire(1e-6, tick)

        sim.schedule_fire(1e-6, tick)
        start = perf_counter()
        sim.run()
        best = max(best, events / (perf_counter() - start))
    return best


def fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "sim.engine.bare_events_per_s": bare_events_per_s(),
    }


def fingerprint_mismatch(a: dict, b: dict) -> Optional[str]:
    """Why two result sets must not be compared silently, or ``None``."""
    for key in ("python", "platform", "nproc"):
        if a[key] != b[key]:
            return f"host fingerprints differ on {key}: {a[key]!r} vs {b[key]!r}"
    score = "sim.engine.bare_events_per_s"
    drift = abs(a[score] - b[score]) / a[score]
    if drift > CALIBRATION_DRIFT:
        return (f"host calibration drifted {drift:.0%} between the sets "
                f"({a[score]:.0f} vs {b[score]:.0f} bare events/s)")
    return None


# -- contract mode -------------------------------------------------------------


def contract_run(args, contract: dict) -> int:
    name, seed = args.workload[0], args.seed
    workload = WORKLOADS[name]
    host = fingerprint()
    print(f"host: {json.dumps(host)}")
    tally = Tally()
    if args.trace:
        values = layer_pass(name, seed, 1.0, contract, tally, host["sim.engine.bare_events_per_s"])
        declared = contract["per_layer"]
    else:
        run_child(name, seed, scale=WARMUP_SCALE)  # discarded: fills caches and .pyc
        reference = telemetry_off_reference(workload, seed)
        repeats: List[dict] = []
        started = perf_counter()
        while True:
            repeats.append(run_child(name, seed))
            spent = perf_counter() - started
            if spent + spent / len(repeats) > args.seconds:
                break
        tally.check_repeats(workload, repeats, reference)
        summary = end_to_end(workload, repeats, tally)
        if not summary:
            print(f"every repeat of {name} failed", file=sys.stderr)
            return 1
        values = {key: row["value"] for key, row in summary.items()}
        declared = contract["end_to_end"]
        print(f"{name}: n={len(repeats)} repeats in {spent:.1f}s")
    for label in tally.failed:
        print(f"FAILED check: {label}")
    print(json.dumps({
        "correct": not tally.failed,
        "attempted": tally.total,
        "failed": len(tally.failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


# -- suite mode ----------------------------------------------------------------


def print_end_to_end(contract: dict, summaries: Dict[str, Dict[str, dict]]) -> None:
    print("\nEnd-to-end (untraced; median [min, max] over n repeats)")
    for name, summary in summaries.items():
        print(f"  {name}")
        for metric in contract["end_to_end"]:
            row = summary.get(metric["name"])
            if row is None:
                print(f"    {metric['name']:<18} -- no successful repeat")
                continue
            print(f"    {metric['name']:<18} {row['value']:>14.6g} {metric['unit']:<9}"
                  f" [{row['min']:.6g}, {row['max']:.6g}] n={row['n']}"
                  f"  ({metric['better']} is better, bound {metric['bound']:.1%})")


def print_layers(contract: dict, layers: Dict[str, Dict[str, float]]) -> None:
    print("\nPer-layer (layer pass; traced run + variants; 0 = layer idle on this workload)")
    names = list(layers)
    print(f"  {'metric':<36}{'unit':<10}" + "".join(f"{n[:20]:>22}" for n in names))
    for metric in contract["per_layer"]:
        cells = "".join(f"{layers[n][metric['name']]:>22.6g}" for n in names)
        print(f"  {metric['name']:<36}{metric['unit']:<10}{cells}")


def exact_outputs(results: Dict[str, List[dict]]) -> Dict[str, dict]:
    """The simulated quantities that must repeat bit for bit."""
    exact = {}
    for name, repeats in results.items():
        first = next((r for r in repeats if "error" not in r), {})
        exact[name] = {key: first[key] for key in
                       ("events", "pkt_hops", "guarantee_err", "digest") if key in first}
    return exact


def aa_compare(contract: dict, sets: List[Dict[str, Dict[str, dict]]],
               exact: List[Dict[str, dict]], hosts: List[dict]) -> dict:
    """Same code, two sets of measured rounds: per (workload, metric) both
    medians, their relative difference in the *worse* direction, and
    PASS/FAIL against that metric's bound."""
    mismatch = fingerprint_mismatch(hosts[0], hosts[1])
    if mismatch:
        print(f"\nNOTE: {mismatch}; the verdicts below compare unlike conditions.")
    print("\nA/A: two sets of measured rounds on the same checkout")
    rows, failed = [], 0
    for name in sets[0]:
        for metric in contract["end_to_end"]:
            a = sets[0][name][metric["name"]]["value"]
            b = sets[1][name][metric["name"]]["value"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            ok = abs(worse) <= metric["bound"]
            failed += not ok
            rows.append({"workload": name, "metric": metric["name"], "a": a, "b": b,
                         "rel_diff": worse, "bound": metric["bound"], "pass": ok})
            print(f"  {name:<22}{metric['name']:<18}{a:>14.6g}{b:>14.6g}"
                  f"{worse:>+9.2%}  bound {metric['bound']:.1%}  {'PASS' if ok else 'FAIL'}")
    identical = exact[0] == exact[1]
    print(f"  events / pkt_hops / guarantee_err / digest bit-identical: "
          f"{'PASS' if identical else 'FAIL'}")
    return {"rows": rows, "exact_outputs_identical": identical,
            "failed": failed + (not identical), "fingerprint_note": mismatch}


def quick_validate(contract: dict, summaries, layers) -> List[str]:
    """Schema problems in what a run printed, against ``BENCHMARK.json``."""
    problems = []
    name_re, unit_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$"), re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    declared = contract["end_to_end"] + contract["per_layer"]
    for metric in declared:
        if not name_re.match(metric["name"]) or not unit_re.match(metric["unit"]):
            problems.append(f"bad name or unit: {metric}")
    if len({m["name"] for m in declared}) != len(declared):
        problems.append("metric names are not unique")
    for name, summary in summaries.items():
        if set(summary) != {m["name"] for m in contract["end_to_end"]}:
            problems.append(f"{name}: end-to-end metrics differ from BENCHMARK.json")
    for name, values in layers.items():
        if set(values) != {m["name"] for m in contract["per_layer"]}:
            problems.append(f"{name}: per-layer metrics differ from BENCHMARK.json")
    for metric in contract["per_layer"]:
        if metric["name"].endswith(".calls") and layers and not any(
                values.get(metric["name"]) for values in layers.values()):
            problems.append(f"{metric['name']} is 0 on every workload")
    return problems


def suite_run(args, contract: dict) -> int:
    names = args.workload or list(WORKLOADS)
    repeats = 2 if args.quick else args.repeats
    scale = QUICK_SCALE if args.quick else 1.0
    defaults = (not args.quick and not args.workload and repeats == DEFAULT_REPEATS
                and not args.no_layers and args.seed == 1)
    config = {"seed": args.seed, "repeats": repeats, "workloads": names, "scale": scale,
              "layers": not args.no_layers, "aa": args.aa, "quick": args.quick}
    print(f"config: {json.dumps(config)}")
    if not defaults:
        print("NON-DEFAULT RUN: not the run of record; RESULTS.json is left untouched.")
    if repeats < MIN_REPEATS and not args.quick:
        print(f"NOTE: {repeats} repeats is below the {MIN_REPEATS} a median needs here.")

    tally = Tally()
    hosts, sets, exact = [], [], []
    for _ in range(2 if args.aa else 1):
        hosts.append(fingerprint())
        print(f"host: {json.dumps(hosts[-1])}")
        results = measure(names, args.seed, repeats, scale, tally, args.quick)
        sets.append({n: end_to_end(WORKLOADS[n], results[n], tally) for n in names})
        exact.append(exact_outputs(results))
    print_end_to_end(contract, sets[0])

    layers: Dict[str, Dict[str, float]] = {}
    if not args.no_layers:
        score = hosts[0]["sim.engine.bare_events_per_s"]
        layers = {n: layer_pass(n, args.seed, scale, contract, tally, score) for n in names}
        print_layers(contract, layers)

    exit_code = 0
    aa = None
    if args.aa:
        if any(not s for s in sets[0].values()) or any(not s for s in sets[1].values()):
            print("A/A impossible: a workload has no successful repeat")
            return 1
        aa = aa_compare(contract, sets, exact, hosts)
        exit_code = 1 if aa["failed"] else 0
    if args.quick:
        problems = quick_validate(contract, sets[0], layers)
        for problem in problems:
            print(f"SCHEMA: {problem}")
        exit_code = exit_code or (1 if problems else 0)

    print(f"\nchecks: {tally.total} attempted, {len(tally.failed)} failed"
          f" (fail_share {len(tally.failed) / tally.total:.4f})")
    for label in tally.failed:
        print(f"FAILED check: {label}")
    if defaults:
        record = json.loads(RESULTS.read_text(encoding="utf-8")) if RESULTS.exists() else {}
        if aa is not None:
            record["aa"] = {"host": hosts, "config": config, **aa}
        else:
            record["record"] = {"host": hosts[0], "config": config, "command": contract["command"],
                                "end_to_end": sets[0], "per_layer": layers,
                                "checks": {"attempted": tally.total, "failed": tally.failed}}
        RESULTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {RESULTS.relative_to(ROOT)}")
    return exit_code or (1 if tally.failed else 0)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="contract mode: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--seconds", type=float, default=None,
                        help="contract mode: how long to keep starting repeats")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--no-layers", action="store_true", help="skip the layer pass")
    parser.add_argument("--aa", action="store_true",
                        help="measure twice back to back and compare against the bounds")
    parser.add_argument("--quick", action="store_true",
                        help="1/10 durations, 2 repeats; validates names and schema")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no simulator source at {SRC}: nothing to benchmark", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1 or args.seconds is None:
            parser.error("contract mode needs exactly one --workload and --seconds")
        return contract_run(args, contract)
    return suite_run(args, contract)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
