"""The job registry behind ``repro run-all``.

:func:`default_jobs` is every cell of the
:data:`~repro.harness.figures.FIGURES` table at its scale of record (the
scale documented in ``EXPERIMENTS.md``) plus the ``faults/`` cells and the
self-asserting check jobs (``timewin/``, ``fluid/``, ``shard/``,
``fabric/``), so the whole evaluation fans out across cores.

A job is ``f(**json_kwargs) -> json_dict`` and its spec targets the
function that runs it: the simulated cells live in
:mod:`~repro.harness.scenarios` and :mod:`~repro.harness.extensions`;
this module holds only what has no scenario behind it — the four analytic
cells and the five checks, which compare *several* runs and raise when
they disagree. Results are deterministic for a given spec — except
wall-clock measurements, which the checks place under the ``"timing"``
key that :func:`~repro.harness.runner.results_digest` excludes, so
``--jobs 1`` and ``--jobs 8`` sweeps hash identically.

Job names are paths (``fig6/aq/4vms``) so ``--filter fig6`` or
``--filter /aq/`` select natural slices.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional, Sequence

from ..units import gbps
from . import figures
from .common import EntitySpec, telemetry_session
from .figures import job_spec
from .runner import JobSpec

# -- analytic cells (no simulator) ---------------------------------------------


def job_discrepancy_peaks() -> dict:
    """Figure 3: the fluid-model control loop under D(t) and under A(t)."""
    from ..core.agap import simulate_discrepancy_control

    strawman = simulate_discrepancy_control(use_agap=False).cycle_peaks()
    agap = simulate_discrepancy_control(use_agap=True).cycle_peaks()
    # A-Gap cycles never escalate, so there are thousands of short ones:
    # keep as many as the strawman has and summarize the rest.
    return {
        "strawman_peaks": strawman,
        "agap_peaks": agap[:len(strawman)],
        "agap_cycles": len(agap),
        "agap_peak_range": [min(agap), max(agap)],
    }


def job_tofino_usage() -> dict:
    from ..core.resources import tofino_usage

    return {"usage": [asdict(usage) for usage in tofino_usage()]}


def job_memory_series(counts: Sequence[int]) -> dict:
    from ..core import resources

    return {
        "record_bytes": resources.AQ_RECORD_BYTES,
        "sram_mb": resources.TOFINO_SRAM_BYTES / (1024 * 1024),
        "max_aqs_in_sram": resources.max_aqs_in_sram(),
        "series": list(resources.memory_series(list(counts)).items()),
    }


def job_perflow_state(counts: Sequence[int]) -> dict:
    from ..core.resources import AQ_RECORD_BYTES
    from ..queues.perflow import PER_QUEUE_STATE_BYTES, state_bytes_per_entity

    return {
        "per_queue_state_bytes": PER_QUEUE_STATE_BYTES,
        "aq_record_bytes": AQ_RECORD_BYTES,
        "state_bytes": [
            [n, state_bytes_per_entity(n, per_flow_queues=True),
             state_bytes_per_entity(n, per_flow_queues=False)]
            for n in counts
        ],
    }


# -- self-asserting checks ----------------------------------------------------


def job_timewin_validate(
    scenario: str,
    approach: str,
    entities: Sequence[dict],
    bottleneck_bps: float,
    duration: float,
    window_ms: float = 1.0,
) -> dict:
    """Run one small sharing scenario (``entities`` are dicts of
    :class:`~repro.harness.common.EntitySpec` fields; ``scenario`` labels
    the verdict) under BOTH recorders and cross-validate.

    The fixed-memory time windows and the per-packet flight recorder
    observe the same run; :func:`~repro.obs.timewin.crosscheck_with_flights`
    then requires the bounded-memory attribution to agree with the
    FlightIndex ground truth per (port, window, flow). The returned
    verdict is deterministic, so these jobs fold into the sweep digest.
    """
    from ..obs.timewin import FlightCollector, crosscheck_with_flights
    from .scenarios import run_longlived_share

    collector = FlightCollector()
    with telemetry_session(timewin=True, timewin_window_s=window_ms * 1e-3) as tele:
        # In-memory flights only (no dump file): install before the build.
        tele.enable_flight_recording().attach(collector)
        run_longlived_share(
            [EntitySpec(**entity) for entity in entities], approach,
            bottleneck_bps=bottleneck_bps,
            duration=duration, warmup=duration / 3,
        )
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
    approach: str,
    entities: Sequence[dict],
    tolerance: float,
    bottleneck_bps: float,
    duration: float,
) -> dict:
    """Run one all-UDP scenario (``entities`` are dicts of
    :class:`~repro.harness.common.EntitySpec` fields; ``scenario`` labels
    the verdict) in packet AND fluid mode; require both audit-clean and
    per-entity delivered bytes within ``tolerance`` of each other.

    The registered scenarios are policy-pinned: each entity's goodput is
    determined by an explicit mechanism (AQ limit drops, PRL shaper rate,
    or an undersubscribed bottleneck) rather than by enqueue races.
    Overloaded equal-rate CBR through a deterministic drop-tail queue is
    *phase-determined* in packet mode — one flow systematically wins the
    race — which is an artifact the fluid closed form intentionally does
    not reproduce (totals still match; see docs/PERFORMANCE.md).
    ``aq-limit``'s looser tolerance covers exactly that: packet mode
    splits the trunk buffer asymmetrically during the initial A-Gap
    fill, worth about one bottleneck buffer of bytes per entity.
    """
    from .scenarios import run_fluid_share

    specs = [EntitySpec(**entity) for entity in entities]
    out: dict = {
        "scenario": scenario, "approach": approach, "tolerance": tolerance,
    }
    delivered: Dict[str, Dict[str, int]] = {}
    for mode in ("packet", "fluid"):
        with telemetry_session(audit=True) as tele:
            result = run_fluid_share(
                specs, approach, bottleneck_bps=bottleneck_bps,
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


def _check(name: str, func: str, **kwargs) -> JobSpec:
    return job_spec(name, f"{__name__}:{func}", **kwargs)


def default_jobs() -> List[JobSpec]:
    """Every registered job, in report order: each figure's cells at its
    scale of record, the fault cells, then the self-asserting checks."""
    specs: List[JobSpec] = [
        cell for figure in figures.FIGURES for cell in figure.cells(figure.record)
    ]
    scenarios = "repro.harness.scenarios"
    bottleneck = gbps(2)

    for name, approach, duration, restart_at in (
        ("pq", "pq", 120e-3, 50e-3),
        ("aq", "aq", 120e-3, 50e-3),
        ("aq-late", "aq", 150e-3, 90e-3),
    ):
        specs.append(job_spec(
            f"faults/restart/{name}", f"{scenarios}:run_fault_restart",
            approach=approach, bottleneck_bps=bottleneck,
            duration=duration, restart_at=restart_at,
        ))
    for blackout_ms in (5, 15):
        specs.append(job_spec(
            f"faults/blackout/{blackout_ms}ms", f"{scenarios}:run_link_blackout",
            down_at=30e-3, up_at=(30 + blackout_ms) * 1e-3, approach="aq",
            bottleneck_bps=bottleneck, duration=90e-3, warmup=20e-3,
        ))

    def flows(name: str, cc: str, num_flows: int, weight: float = 1.0) -> dict:
        return {"name": name, "cc": cc, "num_flows": num_flows, "weight": weight}

    for scenario, approach, entities in (
        ("cc-pair", "aq", [flows("A", "cubic", 2), flows("B", "dctcp", 2)]),
        ("udp-tcp", "pq", [flows("T", "cubic", 2), flows("U", "udp", 1)]),
        ("weighted", "aq", [flows("A", "cubic", 1), flows("B", "cubic", 4, weight=2.0)]),
    ):
        specs.append(_check(
            f"timewin/validate/{scenario}", "job_timewin_validate",
            scenario=scenario, approach=approach, entities=entities,
            bottleneck_bps=gbps(1), duration=40e-3,
        ))

    # Hybrid fluid/packet equivalence: tight tolerances where the packet
    # mode is itself deterministic per entity; aq-limit is looser because
    # packet mode splits the trunk buffer by enqueue phase (see
    # job_fluid_equiv's docstring).
    duration = 20e-3

    def udp(name: str, **fields) -> dict:
        return {"name": name, "cc": "udp", **fields}

    for scenario, approach, tolerance, entities in (
        ("udp-basic", "pq", 0.01, [udp("A", udp_rate_bps=0.45 * bottleneck),
                                   udp("B", udp_rate_bps=0.40 * bottleneck)]),
        ("aq-limit", "aq", 0.08, [udp("A"), udp("B")]),
        ("prl-shaper", "prl", 0.01, [udp("A"), udp("B")]),
        ("staggered", "aq", 0.02, [udp("A"), udp("B", start_time=duration / 4,
                                                 stop_time=3 * duration / 4)]),
    ):
        specs.append(_check(
            f"fluid/equiv/{scenario}", "job_fluid_equiv",
            scenario=scenario, approach=approach, entities=entities,
            tolerance=tolerance, bottleneck_bps=bottleneck, duration=duration,
        ))

    # Sharded-fabric equivalence: shards=1 vs shards=k must hash
    # identically under the conservation auditor (docs/SCALING.md).
    specs.append(_check(
        "shard/equiv/local-2", "job_shard_equiv",
        shards=2, duration=2e-3, pods=2, cross_gbps=0.0,
    ))
    specs.append(_check(
        "shard/equiv/cross-4", "job_shard_equiv",
        shards=4, duration=2e-3,
    ))
    specs.append(_check(
        "shard/equiv/blackout-2", "job_shard_equiv",
        shards=2, duration=2e-3,
        fault_blackout=["agg0->core1", 0.4e-3, 1.2e-3],
    ))
    # Observability plane: digest-neutral and journey-faithful
    # (docs/OBSERVABILITY.md "Fabric run ledger").
    specs.append(_check(
        "shard/obs/neutral-2", "job_fabric_obs_neutral",
        shards=2, duration=2e-3, pods=2,
    ))
    # Mixed TCP+AQ traffic across shard cuts (docs/SCALING.md
    # "Traffic model"): determinism must survive dynamic flows and churn.
    specs.append(_check(
        "fabric/mixed/equiv-2", "job_fabric_mixed_equiv",
        shard_counts=[1, 2], duration=2e-3,
    ))
    specs.append(_check(
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
