"""The four benchmark workloads and the code that runs one repeat of each.

Every workload is a fixed-work batch run (closed loop of one: the next
repeat starts when the previous child has exited) through the repo's
public entry points only — ``run_longlived_share`` inside
``telemetry_session`` for the dumbbells, ``run_share_fabric`` for the
fabric. Simulated durations are part of the benchmark definition and are
the same on every commit; ``scale`` exists only for the warm-up child and
``run.py --quick``.

A *variant* re-runs a workload's traffic with a different observability
or execution setting for the layer pass; the default variant is the
workload itself.
"""

from __future__ import annotations

import json
import os
import random
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Optional, Tuple

#: ``telemetry_session`` options per observability-ladder rung. File paths
#: are filled in by :func:`run_dumbbell`.
OBS_RUNGS = {
    "off": {},
    "summary": {"summary": True},
    "jsonl": {"jsonl_path": "trace.jsonl"},
    "flight": {"flight_path": "flights.jsonl"},
    "timewin": {"timewin": True},
    "audit": {"audit": True},
    "all": {"jsonl_path": "trace.jsonl", "flight_path": "flights.jsonl",
            "timewin": True, "timewin_path": "windows.jsonl", "audit": True},
}

#: ``(shards, inline, ledger)`` per fabric variant.
FABRIC_VARIANTS = {
    "spawn2_ledger": (2, False, True),
    "inline1": (1, True, False),
    "inline2": (2, True, False),
    "inline2_ledger": (2, True, True),
}

#: Entity start times are drawn from the seed inside this window, so a
#: change cannot be tuned to one phase alignment of the flows.
START_JITTER_S = 100e-6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "dumbbell" or "fabric"
    variant: str  # the variant that *is* the workload
    duration_s: float  # simulated
    warmup_s: float  # simulated; dumbbells only
    entities: Tuple[Tuple[str, str, float, int], ...]  # (name, cc, weight, flows)
    guarantee_tol: Optional[float]  # max |achieved - granted| / granted allowed
    expected_wall_s: float  # one repeat on the host of record; timeout is 5x


_TCP_MIX = (("A", "cubic", 1.0, 4), ("B", "dctcp", 1.0, 4), ("C", "swift", 1.0, 4))

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "udp_aq_dumbbell",
            "Bare per-packet forwarding with the AQ rate-limit/drop path hot (3x line rate "
            "offered, 2/3 dropped at ingress); no transport logic, no telemetry.",
            "dumbbell", "off", 80e-3, 10e-3,
            (("A", "udp", 1.0, 1), ("B", "udp", 1.0, 1), ("C", "udp", 2.0, 1)),
            0.01, 3.0,
        ),
        Workload(
            "tcp_cc_dumbbell",
            "Table 2/Fig 10 regime: cubic+dctcp+swift flows under AQ, so TCP, CC, ACK path and "
            "RTO churn run and the AQ marks/delays instead of dropping; telemetry off.",
            "dumbbell", "off", 50e-3, 15e-3, _TCP_MIX, 0.08, 2.4,
        ),
        Workload(
            "tcp_cc_obs_full",
            "The same queues, links and AQ with every probe on (trace, flights, windows, audit): "
            "obs.* does most of the work, so a probe change shows here and nowhere else.",
            "dumbbell", "all", 20e-3, 5e-3, _TCP_MIX, 0.20, 5.4,
        ),
        Workload(
            "fabric_mixed_2shard",
            "The share-fabric command end to end: spec, plan, worker spawn, lockstep epochs and "
            "barriers, stitch, ledger on disk; set-up and report phases dominate only here.",
            "fabric", "spawn2_ledger", 8e-3, 0.0, (), None, 3.4,
        ),
    )
}


def guarantee_err(rates: Dict[str, float], shares: Dict[str, float]) -> float:
    """Max over entities of |achieved - granted share| / granted share."""
    return max(abs(rates[name] - shares[name]) / shares[name] for name in shares)


def run_dumbbell(workload: Workload, variant: str, seed: int, scale: float,
                 out_dir: str) -> dict:
    from repro.harness.common import EntitySpec, telemetry_session
    from repro.harness.scenarios import run_longlived_share
    from repro.units import gbps

    rng = random.Random(seed)
    entities = [
        EntitySpec(name, cc=cc, weight=weight, num_flows=flows,
                   start_time=rng.uniform(0.0, START_JITTER_S))
        for name, cc, weight, flows in workload.entities
    ]
    options = {
        key: os.path.join(out_dir, value) if key.endswith("_path") else value
        for key, value in OBS_RUNGS[variant].items()
    }
    with telemetry_session(**options) as tele:
        result = run_longlived_share(
            entities, "aq", gbps(10), duration=workload.duration_s * scale,
            warmup=workload.warmup_s * scale, seed=seed,
        )
    network = result.env.controller.network
    out = {
        "events": network.sim.events_processed,
        "pkt_hops": sum(link.stats.delivered_packets for link in network.links.values()),
        "rates_bps": result.rates_bps,
        "guarantee_err": guarantee_err(result.rates_bps, result.env.share_bps),
        "files": sorted(
            v for k, v in OBS_RUNGS[variant].items() if k.endswith("_path")
        ),
    }
    if tele is not None:
        if tele.auditor is not None:
            verdict = tele.auditor.report()
            out["audit"] = {"violations": verdict["violation_count"],
                            "events_checked": verdict["events_seen"]}
        if tele.timewin is not None:
            out["timewin_records"] = tele.timewin.stats()["records"]
    return out


def run_fabric(workload: Workload, variant: str, seed: int, scale: float,
               out_dir: str, stamps: dict) -> dict:
    from repro.harness.fabric import run_share_fabric

    shards, inline, ledger = FABRIC_VARIANTS[variant]
    frames = []

    def on_heartbeat(frame: dict) -> None:
        now = perf_counter()
        stamps.setdefault("loop_entry", now)
        stamps["loop_exit"] = now
        frames.append(frame)

    run_dir = os.path.join(out_dir, "run") if ledger else None
    report = run_share_fabric(
        shards, workload.duration_s * scale, inline=inline, traffic="mixed",
        churn=True, run_dir=run_dir, on_heartbeat=on_heartbeat if ledger else None,
        seed=seed,
    )
    fct = report["fct"]
    out = {
        "events": report["results"]["events"],
        "epochs": report["epochs"],
        "digest": report["digest"],
        "scenario_wall_s": report["wall_s"],
        "boundary_pkts": report["boundary"]["exported"],
        "fct_flows": fct["overall"]["flows"],
        "fct_completed": fct["overall"]["completed"],
        "jain_goodput": fct["fairness"]["jain_goodput"],
    }
    if ledger:
        with open(report["manifest_path"], encoding="utf-8") as handle:
            out["manifest_status"] = json.load(handle)["status"]
        with open(os.path.join(run_dir, "metrics.json"), encoding="utf-8") as handle:
            counters = json.load(handle)["counters"]
        out["pkt_hops"] = int(sum(
            c["value"] for c in counters if c["name"] == "link_delivered_packets"
        ))
        last = {frame["partition"]: frame for frame in frames}
        out["barrier_wait_s"] = max(f["barrier_wait_s"] for f in last.values())
        out["worker_events_per_s"] = statistics.median(
            [f["events_per_s"] for f in frames if f["events_per_s"] > 0] or [0.0]
        )
    return out


def run(name: str, variant: Optional[str], seed: int, scale: float,
        out_dir: str, stamps: dict) -> dict:
    """One repeat of ``name``; returns the JSON-safe outputs the driver
    checks. ``stamps`` receives ``loop_entry``/``loop_exit`` for the fabric
    (first/last heartbeat frame); the dumbbells get theirs from the
    one-shot ``Simulator.run`` wrapper in ``worker.py``."""
    workload = WORKLOADS[name]
    variant = variant or workload.variant
    if workload.kind == "dumbbell":
        return run_dumbbell(workload, variant, seed, scale, out_dir)
    return run_fabric(workload, variant, seed, scale, out_dir, stamps)
