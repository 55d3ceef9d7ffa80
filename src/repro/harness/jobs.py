"""The job registry behind ``repro run-all``.

Every paper experiment the benchmark suite runs serially is registered
here as independent :class:`~repro.harness.runner.JobSpec`\\ s at the same
scales as ``benchmarks/`` (the scale of record documented in
``EXPERIMENTS.md``), so the whole evaluation fans out across cores.

Each ``job_*`` function is a spawn-importable wrapper around a scenario:
JSON-safe kwargs in, JSON-safe dict out. Results are deterministic for a
given spec — except wall-clock measurements, which wrappers place under
the ``"timing"`` key that :func:`~repro.harness.runner.results_digest`
excludes, so ``--jobs 1`` and ``--jobs 8`` sweeps hash identically.

Job names are paths (``fig6/aq/4vms``) so ``--filter fig6`` or
``--filter /aq/`` select natural slices.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..units import gbps
from .common import EntitySpec, telemetry_session
from .runner import JobSpec

_HERE = __name__  # jobs resolve their targets from this module


def _spec(name: str, func: str, timeout_s: float = 600.0, **kwargs) -> JobSpec:
    tags = (name.split("/", 1)[0],)
    return JobSpec(
        name=name,
        target=f"{_HERE}:{func}",
        kwargs=kwargs,
        tags=tags,
        timeout_s=timeout_s,
    )


def _share_dict(result) -> dict:
    """JSON view of a ShareResult (meters/env are dropped)."""
    return {
        "approach": result.approach,
        "rates_bps": dict(result.rates_bps),
        "utilization": result.utilization,
    }


def _wct_dict(result) -> dict:
    return {
        "approach": result.approach,
        "wct_s": dict(result.wct),
        "completed": dict(result.completed),
        "total_wct_s": result.total_wct,
    }


# -- job targets (spawn-importable, JSON in / JSON out) ------------------------


def job_cc_pair(
    cc_a: str,
    flows_a: int,
    cc_b: str,
    flows_b: int,
    approach: str,
    bottleneck_bps: float,
    duration: float,
    warmup: float,
) -> dict:
    from .scenarios import run_cc_pair

    result = run_cc_pair(
        cc_a, flows_a, cc_b, flows_b, approach,
        bottleneck_bps=bottleneck_bps, duration=duration, warmup=warmup,
    )
    out = _share_dict(result)
    out["ratio"] = result.ratio("A", "B")
    return out


def job_single_entity_wct(
    num_vms: int, approach: str, volume_bytes: int, bottleneck_bps: float
) -> dict:
    from .scenarios import run_single_entity_wct

    wct = run_single_entity_wct(
        num_vms, approach, volume_bytes,
        bottleneck_bps=bottleneck_bps, max_sim_time=10.0,
    )
    return {"approach": approach, "num_vms": num_vms, "wct_s": wct}


def job_two_entity_fairness(
    num_vms_b: int, approach: str, volume_bytes: int, bottleneck_bps: float
) -> dict:
    from .scenarios import run_two_entity_fairness

    result = run_two_entity_fairness(
        num_vms_b, approach, volume_bytes,
        bottleneck_bps=bottleneck_bps, max_sim_time=10.0,
    )
    out = _wct_dict(result)
    out["fairness"] = result.fairness()
    return out


def job_flow_count(
    flows_b: int, weight_b: float, approach: str,
    bottleneck_bps: float, duration: float, warmup: float,
) -> dict:
    from .scenarios import run_longlived_share

    entities = [
        EntitySpec(name="A", cc="cubic", num_flows=1, weight=1.0),
        EntitySpec(name="B", cc="cubic", num_flows=flows_b, weight=weight_b),
    ]
    result = run_longlived_share(
        entities, approach,
        bottleneck_bps=bottleneck_bps, duration=duration, warmup=warmup,
    )
    out = _share_dict(result)
    out["ratio"] = result.ratio("A", "B")
    return out


def job_udp_tcp_timeline(approach: str, bottleneck_bps: float, phase: float) -> dict:
    from .scenarios import run_udp_tcp_timeline

    result = run_udp_tcp_timeline(approach, bottleneck_bps=bottleneck_bps, phase=phase)
    return {
        "approach": approach,
        "rates_in_window": {
            window: dict(rates) for window, rates in result.rates_in_window.items()
        },
    }


def job_cc_pair_wct(
    cc_a: str, cc_b: str, approach: str, volume_bytes: int, bottleneck_bps: float
) -> dict:
    from .scenarios import run_cc_pair_wct

    result = run_cc_pair_wct(
        cc_a, cc_b, approach, volume_bytes,
        num_vms=4, bottleneck_bps=bottleneck_bps, max_sim_time=10.0,
    )
    out = _wct_dict(result)
    out["fairness"] = result.fairness()
    return out


def job_vm_profile(
    approach: str, link_rate_bps: float, profile_rate_bps: float, duration: float
) -> dict:
    from .scenarios import run_vm_profile

    result = run_vm_profile(
        approach,
        link_rate_bps=link_rate_bps,
        profile_rate_bps=profile_rate_bps,
        duration=duration,
    )
    return {
        "approach": result.approach,
        "outbound_range_bps": list(result.outbound_range_bps),
        "inbound_range_bps": list(result.inbound_range_bps),
        "outbound_mean_bps": result.outbound_mean_bps,
        "inbound_mean_bps": result.inbound_mean_bps,
    }


def job_cc_preservation(
    cc: str, use_aq: bool, allocated_bps: float, capacity_bps: float
) -> dict:
    from .scenarios import run_cc_preservation

    result = run_cc_preservation(
        cc, use_aq=use_aq, allocated_bps=allocated_bps, capacity_bps=capacity_bps
    )
    return {
        "label": result.label,
        "throughput_bps": result.throughput_bps,
        "delay_p95_s": result.delay_p95,
    }


def job_fault_restart(
    approach: str, bottleneck_bps: float, duration: float, restart_at: float
) -> dict:
    from .scenarios import run_switch_restart

    result = run_switch_restart(
        approach=approach, bottleneck_bps=bottleneck_bps,
        duration=duration, warmup=duration / 6, restart_at=restart_at,
    )
    return {
        "approach": result.approach,
        "fault_at_s": result.fault_at,
        "share_bps": dict(result.share_bps),
        "rates_before_bps": dict(result.rates_before_bps),
        "rates_during_bps": dict(result.rates_during_bps),
        "rates_after_bps": dict(result.rates_after_bps),
        "reconvergence_s": dict(result.reconvergence_s),
        "degraded_windows": list(result.degraded_windows),
        "restart_stats": dict(result.restart_stats),
        "recovered": result.recovered(),
    }


def job_link_blackout(
    down_at: float, up_at: float, approach: str,
    bottleneck_bps: float, duration: float, warmup: float,
) -> dict:
    from ..faults import activate_fault_plan, link_blackout_plan
    from .scenarios import run_longlived_share

    entities = [
        EntitySpec(name="A", cc="cubic", num_flows=4),
        EntitySpec(name="B", cc="cubic", num_flows=4),
    ]
    plan = link_blackout_plan("s-left->s-right", down_at, up_at)
    with activate_fault_plan(plan):
        result = run_longlived_share(
            entities, approach,
            bottleneck_bps=bottleneck_bps, duration=duration, warmup=warmup,
        )
    out = _share_dict(result)
    out["blackout_s"] = up_at - down_at
    return out


def job_timewin_validate(
    scenario: str,
    bottleneck_bps: float,
    duration: float,
    window_ms: float = 1.0,
) -> dict:
    """Run one small scenario under BOTH recorders and cross-validate.

    The fixed-memory time windows and the per-packet flight recorder
    observe the same run; :func:`~repro.obs.timewin.crosscheck_with_flights`
    then requires the bounded-memory attribution to agree with the
    FlightIndex ground truth per (port, window, flow). The returned
    verdict is deterministic, so these jobs fold into the sweep digest.
    """
    from ..obs.timewin import FlightCollector, crosscheck_with_flights
    from .scenarios import run_cc_pair, run_longlived_share

    collector = FlightCollector()
    with telemetry_session(timewin=True, timewin_window_s=window_ms * 1e-3) as tele:
        # In-memory flights only (no dump file): install before the build.
        tele.enable_flight_recording().attach(collector)
        if scenario == "cc-pair":
            run_cc_pair(
                "cubic", 2, "dctcp", 2, "aq",
                bottleneck_bps=bottleneck_bps,
                duration=duration, warmup=duration / 3,
            )
        elif scenario == "udp-tcp":
            entities = [
                EntitySpec(name="T", cc="cubic", num_flows=2),
                EntitySpec(name="U", cc="udp", num_flows=1),
            ]
            run_longlived_share(
                entities, "pq",
                bottleneck_bps=bottleneck_bps,
                duration=duration, warmup=duration / 3,
            )
        elif scenario == "weighted":
            entities = [
                EntitySpec(name="A", cc="cubic", num_flows=1, weight=1.0),
                EntitySpec(name="B", cc="cubic", num_flows=4, weight=2.0),
            ]
            run_longlived_share(
                entities, "aq",
                bottleneck_bps=bottleneck_bps,
                duration=duration, warmup=duration / 3,
            )
        else:
            raise ValueError(f"unknown timewin scenario {scenario!r}")
    verdict = crosscheck_with_flights(tele.timewin, collector.flights)
    verdict["scenario"] = scenario
    verdict["flights"] = len(collector.flights)
    verdict["recorder"] = tele.report()["timewin"]
    # Bound the payload: the first mismatches are enough to diagnose.
    verdict["mismatches"] = verdict["mismatches"][:5]
    if not verdict["ok"]:
        raise AssertionError(
            f"timewin attribution diverged from flight ground truth: "
            f"{verdict['mismatches']}"
        )
    return verdict


def job_fluid_equiv(
    scenario: str,
    tolerance: float,
    bottleneck_bps: float,
    duration: float,
) -> dict:
    """Run one scenario in packet AND fluid mode; require both audit-clean
    and per-entity delivered bytes within ``tolerance`` of each other.

    The scenarios are policy-pinned: each entity's goodput is determined
    by an explicit mechanism (AQ limit drops, PRL shaper rate, or an
    undersubscribed bottleneck) rather than by enqueue races. Overloaded
    equal-rate CBR through a deterministic drop-tail queue is
    *phase-determined* in packet mode — one flow systematically wins the
    race — which is an artifact the fluid closed form intentionally does
    not reproduce (totals still match; see docs/PERFORMANCE.md).
    ``aq-limit``'s looser tolerance covers exactly that: packet mode
    splits the trunk buffer asymmetrically during the initial A-Gap
    fill, worth about one bottleneck buffer of bytes per entity.
    """
    from .scenarios import run_fluid_share

    if scenario == "udp-basic":
        approach = "pq"
        entities = [
            EntitySpec(name="A", cc="udp", udp_rate_bps=0.45 * bottleneck_bps),
            EntitySpec(name="B", cc="udp", udp_rate_bps=0.40 * bottleneck_bps),
        ]
    elif scenario == "aq-limit":
        approach = "aq"
        entities = [
            EntitySpec(name="A", cc="udp"),
            EntitySpec(name="B", cc="udp"),
        ]
    elif scenario == "prl-shaper":
        approach = "prl"
        entities = [
            EntitySpec(name="A", cc="udp"),
            EntitySpec(name="B", cc="udp"),
        ]
    elif scenario == "staggered":
        approach = "aq"
        entities = [
            EntitySpec(name="A", cc="udp"),
            EntitySpec(
                name="B", cc="udp",
                start_time=duration / 4, stop_time=3 * duration / 4,
            ),
        ]
    else:
        raise ValueError(f"unknown fluid-equiv scenario {scenario!r}")

    out: dict = {
        "scenario": scenario, "approach": approach, "tolerance": tolerance,
    }
    delivered: Dict[str, Dict[str, int]] = {}
    for mode in ("packet", "fluid"):
        with telemetry_session(audit=True) as tele:
            result = run_fluid_share(
                entities, approach, bottleneck_bps=bottleneck_bps,
                duration=duration, fluid=(mode == "fluid"),
            )
        report = tele.report()["audit"]
        out[f"{mode}_violations"] = report["violation_count"]
        if report["violation_count"]:
            raise AssertionError(
                f"{scenario}/{mode}: conservation audit failed: "
                f"{report['violations'][:3]}"
            )
        delivered[mode] = result.delivered_total
        if mode == "fluid":
            out["fluid_epochs"] = result.fluid.get("epochs", 0)
            out["fluid_exits"] = result.fluid.get("exits", {})
    if out["fluid_epochs"] <= 0:
        raise AssertionError(
            f"{scenario}: fluid fast path never engaged "
            f"(exits={out['fluid_exits']})"
        )
    out["delivered"] = delivered
    worst = 0.0
    for name in delivered["packet"]:
        pk = delivered["packet"][name]
        fl = delivered["fluid"][name]
        rel = abs(pk - fl) / max(pk, fl, 1)
        worst = max(worst, rel)
        if rel > tolerance:
            raise AssertionError(
                f"{scenario}/{name}: packet={pk} fluid={fl} "
                f"rel_err={rel:.4f} exceeds tolerance {tolerance}"
            )
    out["worst_rel_err"] = round(worst, 6)
    return out


def job_shard_equiv(
    shards: int,
    duration: float,
    fault_blackout: Optional[Sequence[object]] = None,
    **config_kwargs,
) -> dict:
    """Assert ``--shards 1`` and ``--shards k`` produce bit-identical
    results digests, audit-clean, for one ``share-fabric`` scenario.

    Runs both shard counts through the in-process lockstep driver (a
    daemonic sweep worker may not spawn grandchildren; spawn-mode
    equivalence is covered by ``tests/test_shard.py`` — all three
    drivers share one digest by construction).
    ``fault_blackout`` = ``(link_name, down_at, up_at)`` additionally
    runs the whole comparison under a cut-link blackout plan.
    """
    from .fabric import run_share_fabric

    plan_dict = None
    if fault_blackout is not None:
        from ..faults.plan import link_blackout_plan

        link, down_at, up_at = fault_blackout
        plan_dict = link_blackout_plan(str(link), down_at, up_at).to_dict()

    runs = {}
    for k in (1, shards):
        runs[k] = run_share_fabric(
            k, duration, inline=True, audit=True,
            fault_plan=plan_dict, **config_kwargs,
        )
        if runs[k]["audit"]["violation_count"]:
            raise AssertionError(
                f"shards={k}: conservation audit failed: "
                f"{runs[k]['audit']['per_partition']}"
            )
    if runs[1]["digest"] != runs[shards]["digest"]:
        raise AssertionError(
            f"digest mismatch: shards=1 {runs[1]['digest']} != "
            f"shards={shards} {runs[shards]['digest']}"
        )
    return {
        "shards": shards,
        "digest": runs[shards]["digest"],
        "events": runs[shards]["results"]["events"],
        "epochs": runs[shards]["epochs"],
        "boundary": runs[shards]["boundary"],
        "delivered_bytes_total": sum(
            runs[shards]["results"]["delivered_bytes"].values()
        ),
        "blackout": fault_blackout is not None,
        "timing": {
            "serial_wall_s": runs[1]["wall_s"],
            "sharded_wall_s": runs[shards]["wall_s"],
        },
    }


def job_fabric_obs_neutral(
    shards: int, duration: float, **config_kwargs
) -> dict:
    """Assert the fabric observability plane is digest-neutral AND
    journey-faithful for one ``share-fabric`` scenario.

    Three inline runs: plane fully off at ``shards``, the full plane
    (run ledger + heartbeats + default-on time windows + flight
    recording) at ``shards``, and the full plane serial at 1 shard. All
    three results digests must match, both audits must be clean, and the
    stitched end-to-end flights of the sharded run must equal the serial
    run's flights under :func:`repro.obs.flightrec.journey_key` — the
    cross-cut stitching reproduces exactly what one process would have
    recorded.
    """
    import tempfile

    from ..obs.flightrec import journey_key, read_flights_jsonl
    from .fabric import run_share_fabric

    base = run_share_fabric(
        shards, duration, inline=True, audit=True, **config_kwargs
    )
    with tempfile.TemporaryDirectory() as tmp:
        import os

        full = run_share_fabric(
            shards, duration, inline=True, audit=True,
            run_dir=os.path.join(tmp, "sharded"),
            flight_dir=os.path.join(tmp, "sharded", "flights"),
            **config_kwargs,
        )
        serial = run_share_fabric(
            1, duration, inline=True, audit=True,
            run_dir=os.path.join(tmp, "serial"),
            flight_dir=os.path.join(tmp, "serial", "flights"),
            **config_kwargs,
        )
        journeys = {}
        for name, run in (("sharded", full), ("serial", serial)):
            journeys[name] = sorted(
                journey_key(f)
                for f in read_flights_jsonl(run["flights_stitched_path"])
            )
    for name, run in (("base", base), ("full", full), ("serial", serial)):
        if run["audit"]["violation_count"]:
            raise AssertionError(
                f"{name}: conservation audit failed: "
                f"{run['audit']['per_partition']}"
            )
    digests = {run["digest"] for run in (base, full, serial)}
    if len(digests) != 1:
        raise AssertionError(
            f"observability plane changed the digest: {sorted(digests)}"
        )
    if journeys["sharded"] != journeys["serial"]:
        missing = set(journeys["serial"]) - set(journeys["sharded"])
        extra = set(journeys["sharded"]) - set(journeys["serial"])
        raise AssertionError(
            f"stitched flights diverge from the serial run: "
            f"{len(missing)} missing, {len(extra)} extra "
            f"(e.g. {sorted(missing | extra)[:2]})"
        )
    return {
        "shards": shards,
        "digest": full["digest"],
        "events": full["results"]["events"],
        "epochs": full["epochs"],
        "heartbeat_frames": full["heartbeat_frames"],
        "timewin_ports": full["timewin_ports"],
        "flights_stitched": full["flights_stitched"],
        "flights_serial": serial["flights_stitched"],
        "timing": {
            "base_wall_s": base["wall_s"],
            "full_wall_s": full["wall_s"],
            "serial_wall_s": serial["wall_s"],
        },
    }


def job_fabric_mixed_equiv(
    shard_counts: Sequence[int] = (1, 2),
    duration: float = 2e-3,
    churn: bool = False,
    **config_kwargs,
) -> dict:
    """Assert mixed TCP+AQ fabric traffic digests identically across
    every shard count in ``shard_counts``, audit-clean.

    This is the determinism contract for the dynamic workload: TCP data
    and ACK packets, AQ-limited tenants, Poisson/web-search arrivals,
    and (with ``churn``) mid-run AQ withdraw/rebalance all cross shard
    cuts through the boundary machinery without perturbing the results
    digest. Also asserts the run actually completed TCP flows, so the
    per-tenant FCT summary is non-trivial.
    """
    from .fabric import run_share_fabric

    runs = {}
    for k in shard_counts:
        runs[k] = run_share_fabric(
            k, duration, inline=True, audit=True,
            traffic="mixed", churn=churn, **config_kwargs,
        )
        if runs[k]["audit"]["violation_count"]:
            raise AssertionError(
                f"shards={k}: conservation audit failed: "
                f"{runs[k]['audit']['per_partition']}"
            )
    digests = {k: run["digest"] for k, run in runs.items()}
    if len(set(digests.values())) != 1:
        raise AssertionError(f"digest mismatch across shard counts: {digests}")
    ref = runs[max(shard_counts)]
    fct = ref.get("fct")
    if not fct or not fct["overall"]["completed"]:
        raise AssertionError("mixed run completed no TCP flows")
    return {
        "shard_counts": list(shard_counts),
        "churn": churn,
        "digest": ref["digest"],
        "events": ref["results"]["events"],
        "tcp_flows": fct["overall"]["flows"],
        "tcp_completed": fct["overall"]["completed"],
        "slowdown_p50": fct["overall"]["slowdown"]["p50"],
        "slowdown_p99": fct["overall"]["slowdown"]["p99"],
        "jain_goodput": fct["fairness"]["jain_goodput"],
        "timing": {
            f"wall_s_shards{k}": runs[k]["wall_s"] for k in shard_counts
        },
    }


# -- the registry --------------------------------------------------------------

#: Benchmark-suite scales (keep in sync with benchmarks/bench_*.py).
_BOTTLENECK = gbps(2)
_FIG1_PAIRS = [
    ("cubic", "newreno"), ("cubic", "dctcp"), ("newreno", "dctcp"),
    ("cubic", "swift"), ("dctcp", "swift"), ("newreno", "swift"),
]
_VM_COUNTS = (1, 2, 4, 8)
_APPROACHES = ("pq", "aq", "prl", "drl")
_FIG8_FLOWS = (1, 4, 16, 64)
_FIG10_PAIRS = [("cubic", "dctcp"), ("newreno", "dctcp"), ("cubic", "swift")]
_TABLE2_ROWS = [
    ("cubic", 5, "cubic", 5), ("cubic", 5, "dctcp", 5),
    ("newreno", 5, "dctcp", 5), ("illinois", 5, "dctcp", 5),
    ("cubic", 5, "swift", 5), ("dctcp", 5, "swift", 5),
    ("dctcp", 10, "newreno", 5), ("dctcp", 10, "swift", 5),
]
_TABLE4_CCS = ("cubic", "newreno", "dctcp")


def default_jobs() -> List[JobSpec]:
    """Every registered experiment job, in report order."""
    specs: List[JobSpec] = []

    for cc_a, cc_b in _FIG1_PAIRS:
        specs.append(_spec(
            f"fig1/pq/10{cc_a}+10{cc_b}", "job_cc_pair",
            cc_a=cc_a, flows_a=10, cc_b=cc_b, flows_b=10, approach="pq",
            bottleneck_bps=_BOTTLENECK, duration=60e-3, warmup=25e-3,
        ))

    for approach in _APPROACHES:
        for num_vms in _VM_COUNTS:
            specs.append(_spec(
                f"fig6/{approach}/{num_vms}vms", "job_single_entity_wct",
                num_vms=num_vms, approach=approach,
                volume_bytes=8_000_000, bottleneck_bps=_BOTTLENECK,
            ))

    for approach in _APPROACHES:
        for num_vms in _VM_COUNTS:
            specs.append(_spec(
                f"fig7/{approach}/{num_vms}vms", "job_two_entity_fairness",
                num_vms_b=num_vms, approach=approach,
                volume_bytes=8_000_000, bottleneck_bps=_BOTTLENECK,
            ))

    for flows_b in _FIG8_FLOWS:
        for approach in ("pq", "aq"):
            specs.append(_spec(
                f"fig8/{approach}/{flows_b}flows", "job_flow_count",
                flows_b=flows_b, weight_b=1.0, approach=approach,
                bottleneck_bps=_BOTTLENECK, duration=80e-3, warmup=30e-3,
            ))
    specs.append(_spec(
        "fig8/aq-1to2/16flows", "job_flow_count",
        flows_b=16, weight_b=2.0, approach="aq",
        bottleneck_bps=_BOTTLENECK, duration=80e-3, warmup=30e-3,
    ))

    for approach in ("pq", "aq"):
        specs.append(_spec(
            f"fig9/{approach}/timeline", "job_udp_tcp_timeline",
            approach=approach, bottleneck_bps=_BOTTLENECK, phase=40e-3,
        ))

    for cc_a, cc_b in _FIG10_PAIRS:
        for approach in _APPROACHES:
            specs.append(_spec(
                f"fig10/{approach}/{cc_a}+{cc_b}", "job_cc_pair_wct",
                cc_a=cc_a, cc_b=cc_b, approach=approach,
                volume_bytes=6_000_000, bottleneck_bps=_BOTTLENECK,
            ))

    for cc_a, n_a, cc_b, n_b in _TABLE2_ROWS:
        for approach in ("pq", "aq"):
            specs.append(_spec(
                f"table2/{approach}/{n_a}{cc_a}+{n_b}{cc_b}", "job_cc_pair",
                cc_a=cc_a, flows_a=n_a, cc_b=cc_b, flows_b=n_b,
                approach=approach, bottleneck_bps=_BOTTLENECK,
                duration=70e-3, warmup=25e-3,
            ))

    for approach in ("pq", "prl", "drl", "aq"):
        specs.append(_spec(
            f"table3/{approach}/profile", "job_vm_profile",
            approach=approach, link_rate_bps=gbps(2.5),
            profile_rate_bps=gbps(0.5), duration=0.15,
        ))

    for cc in _TABLE4_CCS:
        for use_aq in (False, True):
            specs.append(_spec(
                f"table4/{'aq' if use_aq else 'pq'}/{cc}", "job_cc_preservation",
                cc=cc, use_aq=use_aq,
                allocated_bps=gbps(2.5), capacity_bps=gbps(10),
            ))

    for approach in ("pq", "aq"):
        specs.append(_spec(
            f"faults/restart/{approach}", "job_fault_restart",
            approach=approach, bottleneck_bps=_BOTTLENECK,
            duration=120e-3, restart_at=50e-3,
        ))
    specs.append(_spec(
        "faults/restart/aq-late", "job_fault_restart",
        approach="aq", bottleneck_bps=_BOTTLENECK,
        duration=150e-3, restart_at=90e-3,
    ))
    for blackout_ms in (5, 15):
        specs.append(_spec(
            f"faults/blackout/{blackout_ms}ms", "job_link_blackout",
            down_at=30e-3, up_at=(30 + blackout_ms) * 1e-3, approach="aq",
            bottleneck_bps=_BOTTLENECK, duration=90e-3, warmup=20e-3,
        ))

    for scenario in ("cc-pair", "udp-tcp", "weighted"):
        specs.append(_spec(
            f"timewin/validate/{scenario}", "job_timewin_validate",
            scenario=scenario, bottleneck_bps=gbps(1), duration=40e-3,
        ))

    # Hybrid fluid/packet equivalence: tight tolerances where the packet
    # mode is itself deterministic per entity; aq-limit is looser because
    # packet mode splits the trunk buffer by enqueue phase (see
    # job_fluid_equiv's docstring).
    for scenario, tolerance in (
        ("udp-basic", 0.01), ("aq-limit", 0.08),
        ("prl-shaper", 0.01), ("staggered", 0.02),
    ):
        specs.append(_spec(
            f"fluid/equiv/{scenario}", "job_fluid_equiv",
            scenario=scenario, tolerance=tolerance,
            bottleneck_bps=_BOTTLENECK, duration=20e-3,
        ))

    # Sharded-fabric equivalence: shards=1 vs shards=k must hash
    # identically under the conservation auditor (docs/SCALING.md).
    specs.append(_spec(
        "shard/equiv/local-2", "job_shard_equiv",
        shards=2, duration=2e-3, pods=2, cross_gbps=0.0,
    ))
    specs.append(_spec(
        "shard/equiv/cross-4", "job_shard_equiv",
        shards=4, duration=2e-3,
    ))
    specs.append(_spec(
        "shard/equiv/blackout-2", "job_shard_equiv",
        shards=2, duration=2e-3,
        fault_blackout=["agg0->core1", 0.4e-3, 1.2e-3],
    ))
    # Observability plane: digest-neutral and journey-faithful
    # (docs/OBSERVABILITY.md "Fabric run ledger").
    specs.append(_spec(
        "shard/obs/neutral-2", "job_fabric_obs_neutral",
        shards=2, duration=2e-3, pods=2,
    ))
    # Mixed TCP+AQ traffic across shard cuts (docs/SCALING.md
    # "Traffic model"): determinism must survive dynamic flows and churn.
    specs.append(_spec(
        "fabric/mixed/equiv-2", "job_fabric_mixed_equiv",
        shard_counts=[1, 2], duration=2e-3,
    ))
    specs.append(_spec(
        "fabric/mixed/churn-4", "job_fabric_mixed_equiv",
        shard_counts=[1, 2, 4], duration=2e-3, churn=True,
    ))

    return specs


def filter_jobs(
    specs: Sequence[JobSpec], patterns: Optional[Sequence[str]]
) -> List[JobSpec]:
    """Keep jobs whose name contains *any* of ``patterns`` (all when empty)."""
    if not patterns:
        return list(specs)
    return [
        spec for spec in specs
        if any(pattern in spec.name for pattern in patterns)
    ]
