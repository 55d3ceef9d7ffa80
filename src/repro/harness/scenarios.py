"""Experiment scenarios: one function per paper experiment family.

Two kinds of function live here, and nothing sits between them and the
:data:`~repro.harness.figures.FIGURES` table:

* **cells** — ``f(**json_kwargs) -> json_dict``. A figure cell or a
  ``faults/*`` job names one of these as its target, so the dict returned
  here *is* the result ``run-all`` records, and a cell's kwargs are the
  whole scenario. Each builds a topology, wires one sharing approach
  (:mod:`repro.harness.common`), runs the workload and measures it.
* **engines** — :func:`run_longlived_share`, :func:`run_fluid_share` and
  :func:`run_switch_restart` take typed inputs
  (:class:`~repro.harness.common.EntitySpec`, a
  :class:`~repro.faults.FaultPlan`) and return a result object holding
  live handles (meters, the :class:`~repro.harness.common.SharingEnv`),
  which the benchmark suite and the telemetry tests read. The two whose
  runs are recorded own that one JSON projection as ``to_dict()``; the
  cells are built on them.

:mod:`repro.harness.extensions` holds the cells whose topologies
:func:`~repro.harness.common.install_sharing` does not cover.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.controller import AqController, AqRequest
from ..faults import (
    FaultPlan,
    activate_fault_plan,
    get_active_fault_plan,
    link_blackout_plan,
    switch_restart_plan,
)
from ..core.feedback import drop_policy, policy_for_cc
from ..errors import ConfigurationError
from ..ratelimit.elasticswitch import ElasticSwitch, VmProfile
from ..ratelimit.token_bucket import TokenBucketShaper
from ..stats.fairness import entity_fairness
from ..stats.meters import CompletionTracker, ThroughputMeter, percentile
from ..topology.base import QueueConfig
from ..topology.dumbbell import Dumbbell, DumbbellConfig
from ..topology.star import Star, StarConfig
from ..transport.tcp import TcpConnection
from ..transport.udp import UdpFlow
from ..units import gbps
from ..workloads.generator import EntityWorkload, FlowSpec
from .common import (
    AQ,
    DRL,
    PQ,
    PRL,
    EntitySpec,
    SharingEnv,
    ecn_threshold_bytes,
    install_sharing,
    pq_queue_ecn_threshold,
    queue_limit_bytes,
)

# ---------------------------------------------------------------------------
# Long-lived sharing experiments (Fig 1, Fig 8, Fig 9, Table 2)
# ---------------------------------------------------------------------------


@dataclass
class ShareResult:
    """Per-entity steady-state throughput of a long-lived sharing run."""

    approach: str
    bottleneck_bps: float
    duration: float
    warmup: float
    rates_bps: Dict[str, float]
    meters: Dict[str, ThroughputMeter]
    env: SharingEnv

    @property
    def utilization(self) -> float:
        return sum(self.rates_bps.values()) / self.bottleneck_bps

    def ratio(self, a: str, b: str) -> float:
        hi = max(self.rates_bps[a], self.rates_bps[b])
        if hi == 0:
            return 1.0
        return min(self.rates_bps[a], self.rates_bps[b]) / hi

    def to_dict(self) -> dict:
        """What ``run-all`` records of a sharing run (the live handles stay
        behind)."""
        return {
            "approach": self.approach,
            "rates_bps": dict(self.rates_bps),
            "utilization": self.utilization,
        }


def _build_dumbbell_for(
    entities: Sequence[EntitySpec],
    approach: str,
    bottleneck_bps: float,
    seed: int,
    collect_delays: bool = False,
) -> Tuple[Dumbbell, Dict[str, List[str]], Dict[str, List[str]]]:
    total_vms = sum(spec.num_vms for spec in entities)
    queue_config = QueueConfig(
        limit_bytes=queue_limit_bytes(),
        ecn_threshold_bytes=pq_queue_ecn_threshold(approach, entities, bottleneck_bps),
        collect_delays=collect_delays,
    )
    dumbbell = Dumbbell(
        DumbbellConfig(
            num_left=total_vms,
            num_right=total_vms,
            bottleneck_rate_bps=bottleneck_bps,
            queue_config=queue_config,
            seed=seed,
        )
    )
    src_hosts: Dict[str, List[str]] = {}
    dst_hosts: Dict[str, List[str]] = {}
    index = 0
    for spec in entities:
        src_hosts[spec.name] = dumbbell.left_hosts[index : index + spec.num_vms]
        dst_hosts[spec.name] = dumbbell.right_hosts[index : index + spec.num_vms]
        index += spec.num_vms
    return dumbbell, src_hosts, dst_hosts


def _attach_longlived_flows(
    network,
    env: SharingEnv,
    entities: Sequence[EntitySpec],
    src_hosts: Dict[str, List[str]],
    dst_hosts: Dict[str, List[str]],
    meter_interval: Optional[float],
) -> Tuple[Dict[str, ThroughputMeter], Dict[str, List[UdpFlow]]]:
    """Start every entity's long-lived flows (round-robin over its VMs,
    tagged with its AQ id); returns ``(meters, udp_flows)`` per entity.

    ``meter_interval=None`` attaches no meters: a periodic meter keeps the
    calendar non-empty, which would cut fluid epochs short. Each entity's
    meter is created right before its flows — construction order is event
    order, and the digests depend on it.
    """
    meters: Dict[str, ThroughputMeter] = {}
    udp_flows: Dict[str, List[UdpFlow]] = {}
    for spec in entities:
        on_deliver = None
        if meter_interval is not None:
            meters[spec.name] = ThroughputMeter(
                network.sim, meter_interval, name=spec.name
            )
            on_deliver = meters[spec.name].add
        srcs = src_hosts[spec.name]
        dsts = dst_hosts[spec.name]
        ingress_id = env.aq_ingress_id(spec.name)
        if spec.is_udp:
            rate = spec.udp_rate_bps or env.bottleneck_bps
            udp_flows[spec.name] = [
                UdpFlow(
                    network,
                    srcs[i % len(srcs)],
                    dsts[i % len(dsts)],
                    rate / spec.num_flows,
                    start_time=spec.start_time,
                    stop_time=spec.stop_time,
                    aq_ingress_id=ingress_id,
                    on_deliver=on_deliver,
                )
                for i in range(spec.num_flows)
            ]
            continue
        for i in range(spec.num_flows):
            conn = TcpConnection(
                network,
                srcs[i % len(srcs)],
                dsts[i % len(dsts)],
                env.make_cc(spec.name),
                size_bytes=None,
                start_time=spec.start_time,
                aq_ingress_id=ingress_id,
                on_deliver=on_deliver,
            )
            if spec.stop_time is not None:
                network.sim.schedule_at(spec.stop_time, conn.sender.stop)
    return meters, udp_flows


def run_longlived_share(
    entities: Sequence[EntitySpec],
    approach: str,
    bottleneck_bps: float = gbps(10),
    duration: float = 60e-3,
    warmup: float = 20e-3,
    seed: int = 1,
    meter_interval: Optional[float] = None,
    aq_limit_bytes: Optional[float] = None,
    enable_reallocation: bool = False,
    reallocation_interval: float = 10e-3,
) -> ShareResult:
    """Entities with long-lived flows share a dumbbell bottleneck.

    This is the engine behind Figure 1 (CC pairs under PQ), Table 2 (CC
    pairs under PQ vs AQ), Figure 8 (flow-count battles), and Figure 9
    (UDP vs TCP timelines, with ``enable_reallocation`` and staggered
    ``start_time``/``stop_time`` in the specs). Example::

        result = run_longlived_share(
            [EntitySpec("tcp", cc="cubic", num_flows=4),
             EntitySpec("udp", cc="udp")],
            approach="aq", bottleneck_bps=gbps(10),
        )
        result.rates_bps   # {"tcp": ~5e9, "udp": ~5e9}
    """
    if warmup >= duration:
        raise ConfigurationError("warmup must be shorter than duration")
    dumbbell, src_hosts, dst_hosts = _build_dumbbell_for(
        entities, approach, bottleneck_bps, seed
    )
    network = dumbbell.network
    env = install_sharing(
        network,
        Dumbbell.LEFT_SWITCH,
        bottleneck_bps,
        entities,
        approach,
        src_hosts,
        dst_hosts,
        aq_limit_bytes=aq_limit_bytes,
        enable_reallocation=enable_reallocation,
        reallocation_interval=reallocation_interval,
    )

    meters, _ = _attach_longlived_flows(
        network, env, entities, src_hosts, dst_hosts,
        meter_interval if meter_interval is not None else duration / 60.0,
    )

    network.run(until=duration)
    for meter in meters.values():
        meter.stop()

    rates = {
        spec.name: meters[spec.name].mean_rate(
            after=max(warmup, spec.start_time + (warmup - 0.0)),
            before=spec.stop_time if spec.stop_time is not None else duration,
        )
        for spec in entities
    }
    return ShareResult(
        approach=approach,
        bottleneck_bps=bottleneck_bps,
        duration=duration,
        warmup=warmup,
        rates_bps=rates,
        meters=meters,
        env=env,
    )


def run_cc_pair(
    cc_a: str,
    flows_a: int,
    cc_b: str,
    flows_b: int,
    approach: str,
    bottleneck_bps: float = gbps(10),
    duration: float = 60e-3,
    warmup: float = 20e-3,
    seed: int = 1,
) -> dict:
    """Two equal-weight entities with different CCs (Fig 1 / Table 2 rows)."""
    entities = [
        EntitySpec(name="A", cc=cc_a, num_flows=flows_a),
        EntitySpec(name="B", cc=cc_b, num_flows=flows_b),
    ]
    share = run_longlived_share(
        entities, approach, bottleneck_bps, duration, warmup, seed
    )
    return {**share.to_dict(), "ratio": share.ratio("A", "B")}


def run_share(
    entities: Sequence[dict],
    approach: str,
    bottleneck_bps: float,
    duration: float,
    warmup: float,
    seed: int = 1,
) -> dict:
    """Any number of long-lived entities, each a dict of
    :class:`~repro.harness.common.EntitySpec` fields (Table 2's
    four-entity row)."""
    return run_longlived_share(
        [EntitySpec(**entity) for entity in entities], approach,
        bottleneck_bps, duration, warmup, seed,
    ).to_dict()


#: Entity start times are drawn from the seed inside this window (the
#: repo benchmark's idiom), so a result cannot hinge on one phase
#: alignment of flows that would otherwise all start at exactly t = 0.
START_JITTER_S = 100e-6


def run_flow_count(
    flows_b: int,
    weight_b: float,
    approach: str,
    bottleneck_bps: float,
    duration: float,
    warmup: float,
    seed: int = 1,
) -> dict:
    """Figure 8: A's lone CUBIC flow against B's ``flows_b``. With every
    flow starting at exactly t = 0, A deterministically loses the
    synchronized slow-start burst of B's 64 and is still recovering inside
    the measurement window — a phase lock, not a sharing result — hence
    the start-time draw."""
    rng = random.Random(seed)
    entities = [
        EntitySpec(name="A", cc="cubic", num_flows=1, weight=1.0,
                   start_time=rng.uniform(0.0, START_JITTER_S)),
        EntitySpec(name="B", cc="cubic", num_flows=flows_b, weight=weight_b,
                   start_time=rng.uniform(0.0, START_JITTER_S)),
    ]
    share = run_longlived_share(
        entities, approach, bottleneck_bps, duration, warmup, seed
    )
    return {**share.to_dict(), "ratio": share.ratio("A", "B")}


# ---------------------------------------------------------------------------
# Workload-completion-time experiments (Fig 6, Fig 7, Fig 10)
# ---------------------------------------------------------------------------


class _VmQueueRunner:
    """Executes one VM's flow queue: FIFO, one at a time, each flow
    starting at the later of its arrival time and the previous flow's
    completion (an M/G/1-style work queue per VM)."""

    def __init__(
        self,
        network,
        cc_factory,
        flows: List[FlowSpec],
        tracker: Optional[CompletionTracker] = None,
        ingress_id: int = 0,
        egress_id_for: Optional[Dict[str, int]] = None,
        on_deliver=None,
    ) -> None:
        self.network = network
        self.cc_factory = cc_factory
        self.flows = list(flows)
        self.tracker = tracker
        self.ingress_id = ingress_id
        self.egress_id_for = egress_id_for or {}
        self.on_deliver = on_deliver
        self._index = 0
        if self.flows:
            network.sim.schedule_at(self.flows[0].start_time, self._start_next)

    def _start_next(self) -> None:
        if self._index >= len(self.flows):
            return
        flow = self.flows[self._index]
        self._index += 1
        TcpConnection(
            self.network,
            flow.src,
            flow.dst,
            self.cc_factory(),
            size_bytes=flow.size_bytes,
            start_time=max(flow.start_time, self.network.sim.now),
            aq_ingress_id=self.ingress_id,
            aq_egress_id=self.egress_id_for.get(flow.dst, 0),
            on_complete=self._on_complete,
            on_deliver=self.on_deliver,
        )

    def _on_complete(self, conn, now: float) -> None:
        if self.tracker is not None:
            self.tracker.on_complete(conn, now)
        self._start_next()


def run_wct(
    entities: Sequence[EntitySpec],
    approach: str,
    volume_bytes: Dict[str, int],
    bottleneck_bps: float = gbps(10),
    max_sim_time: float = 5.0,
    seed: int = 1,
    aq_limit_bytes: Optional[float] = None,
    arrival_window: Optional[float] = None,
) -> dict:
    """Entities run fixed-volume web-search workloads; measure completion.

    Flows arrive over ``arrival_window`` (defaulting to the time the
    entity's fair share needs to drain its volume, so offered load tracks
    the allocation) on random VMs; each VM runs its queue FIFO, one flow
    at a time. The entity's "workload completion time" is when its last
    flow finishes (paper Sections 5.2-5.3); ``wct_s`` maps each entity to
    it (``inf`` if unfinished at ``max_sim_time``).
    """
    dumbbell, src_hosts, dst_hosts = _build_dumbbell_for(
        entities, approach, bottleneck_bps, seed
    )
    network = dumbbell.network
    env = install_sharing(
        network,
        Dumbbell.LEFT_SWITCH,
        bottleneck_bps,
        entities,
        approach,
        src_hosts,
        dst_hosts,
        aq_limit_bytes=aq_limit_bytes,
    )

    trackers: Dict[str, CompletionTracker] = {}
    for spec in entities:
        workload = EntityWorkload(
            name=spec.name,
            sources=src_hosts[spec.name],
            destinations=dst_hosts[spec.name],
        )
        rng = network.rng.stream(f"workload:{spec.name}")
        window = arrival_window
        if window is None:
            # Offered load slightly above the entity's fair share, so the
            # entity stays backlogged and its completion time reflects the
            # bandwidth it actually received (not its workload draw).
            window = 0.85 * volume_bytes[spec.name] * 8.0 / env.share_bps[spec.name]
        queues = workload.vm_job_queues(
            rng,
            volume_bytes[spec.name],
            arrival_window=window,
            start_time=spec.start_time,
        )
        total_flows = sum(len(q) for q in queues.values())
        tracker = CompletionTracker(expected=total_flows)
        trackers[spec.name] = tracker
        ingress_id = env.aq_ingress_id(spec.name)
        for flows in queues.values():
            if flows:
                _VmQueueRunner(
                    network,
                    lambda name=spec.name: env.make_cc(name),
                    flows,
                    tracker=tracker,
                    ingress_id=ingress_id,
                )

    chunk = max_sim_time / 200.0
    while network.sim.now < max_sim_time:
        if all(tracker.all_done for tracker in trackers.values()):
            break
        network.run(until=min(network.sim.now + chunk, max_sim_time))

    wct = {
        name: tracker.workload_completion_time() if tracker.all_done else float("inf")
        for name, tracker in trackers.items()
    }
    return {
        "approach": approach,
        "wct_s": wct,
        "completed": {name: tracker.all_done for name, tracker in trackers.items()},
        "total_wct_s": max(wct.values()),
    }


def _two_entity_wct(
    entities: Sequence[EntitySpec], approach: str, volume_bytes: int, **run
) -> dict:
    """Entities A and B each run ``volume_bytes``: :func:`run_wct` plus
    their entity fairness."""
    out = run_wct(
        entities, approach, {spec.name: volume_bytes for spec in entities}, **run
    )
    out["fairness"] = entity_fairness(out["wct_s"]["A"], out["wct_s"]["B"])
    return out


def run_single_entity_wct(
    num_vms: int,
    approach: str,
    volume_bytes: int,
    bottleneck_bps: float = gbps(10),
    max_sim_time: float = 5.0,
    seed: int = 1,
    cc: str = "cubic",
) -> dict:
    """Figure 6: one entity, ``num_vms`` VMs, normalized elsewhere."""
    spec = EntitySpec(name="A", cc=cc, num_vms=num_vms)
    result = run_wct(
        [spec],
        approach,
        {"A": volume_bytes},
        bottleneck_bps=bottleneck_bps,
        max_sim_time=max_sim_time,
        seed=seed,
    )
    return {"approach": approach, "num_vms": num_vms, "wct_s": result["wct_s"]["A"]}


def run_two_entity_fairness(
    num_vms_b: int,
    approach: str,
    volume_bytes: int,
    bottleneck_bps: float = gbps(10),
    max_sim_time: float = 5.0,
    seed: int = 1,
    cc: str = "cubic",
) -> dict:
    """Figure 7: entity A (1 VM) vs entity B (``num_vms_b`` VMs), equal
    weights, equal workload volumes."""
    entities = [
        EntitySpec(name="A", cc=cc, num_vms=1),
        EntitySpec(name="B", cc=cc, num_vms=num_vms_b),
    ]
    return _two_entity_wct(
        entities, approach, volume_bytes,
        bottleneck_bps=bottleneck_bps, max_sim_time=max_sim_time, seed=seed,
    )


def run_cc_pair_wct(
    cc_a: str,
    cc_b: str,
    approach: str,
    volume_bytes: int,
    num_vms: int = 4,
    bottleneck_bps: float = gbps(10),
    max_sim_time: float = 5.0,
    seed: int = 1,
) -> dict:
    """Figure 10: two 4-VM entities with different CCs, equal volumes."""
    entities = [
        EntitySpec(name="A", cc=cc_a, num_vms=num_vms),
        EntitySpec(name="B", cc=cc_b, num_vms=num_vms),
    ]
    return _two_entity_wct(
        entities, approach, volume_bytes,
        bottleneck_bps=bottleneck_bps, max_sim_time=max_sim_time, seed=seed,
    )


# ---------------------------------------------------------------------------
# VM bi-directional profile experiment (Table 3)
# ---------------------------------------------------------------------------


def run_vm_profile(
    approach: str,
    link_rate_bps: float = gbps(25),
    profile_rate_bps: float = gbps(5),
    duration: float = 0.2,
    warmup_fraction: float = 0.3,
    demand_factor: float = 1.5,
    seed: int = 1,
    cc: str = "cubic",
) -> dict:
    """Table 3: star of 4 VMs; VM A has a 5 Gbps in / 5 Gbps out profile.

    VM A sends web-search traffic to B, C, D, and B, C, D all send to A —
    each pair runs an M/G/1-style job queue offering ``demand_factor`` x
    the profile rate, so A's inbound (and outbound) demand is ~3 x
    ``demand_factor`` x its profile: far more than the profile allows.
    Returns VM A's post-warm-up ``[low, high]`` rate range and mean per
    direction (Table 3's row format).
    """
    star = Star(
        StarConfig(
            num_hosts=4,
            link_rate_bps=link_rate_bps,
            queue_config=QueueConfig(limit_bytes=queue_limit_bytes()),
            seed=seed,
        )
    )
    network = star.network
    vm_a, vm_b, vm_c, vm_d = star.hosts
    others = [vm_b, vm_c, vm_d]
    sim = network.sim

    out_grants: Dict[str, int] = {}
    in_grants: Dict[str, int] = {}
    if approach == AQ:
        controller = AqController(network)
        for vm in star.hosts:
            controller.register_resource(f"up:{vm}", link_rate_bps)
            controller.register_resource(f"down:{vm}", link_rate_bps)
            out_grant = controller.request(
                AqRequest(
                    entity=f"{vm}:out",
                    switch=Star.SWITCH,
                    position="ingress",
                    absolute_rate_bps=profile_rate_bps,
                    share_group=f"up:{vm}",
                    policy=drop_policy(),
                    limit_bytes=queue_limit_bytes(),
                )
            )
            in_grant = controller.request(
                AqRequest(
                    entity=f"{vm}:in",
                    switch=Star.SWITCH,
                    position="egress",
                    absolute_rate_bps=profile_rate_bps,
                    share_group=f"down:{vm}",
                    policy=drop_policy(),
                    limit_bytes=queue_limit_bytes(),
                )
            )
            out_grants[vm] = out_grant.aq_id
            in_grants[vm] = in_grant.aq_id
    elif approach == PRL:
        for vm in star.hosts:
            host = network.hosts[vm]
            host.install_shaper(
                TokenBucketShaper(sim, profile_rate_bps, host.forward_to_nic)
            )
    elif approach == DRL:
        es = ElasticSwitch(network, link_capacity_bps=link_rate_bps)
        for vm in star.hosts:
            es.add_vm(VmProfile(vm, profile_rate_bps, profile_rate_bps))
        es.start()
    elif approach != PQ:
        raise ConfigurationError(f"unknown approach {approach!r}")

    meter_interval = duration / 40.0
    out_meter = ThroughputMeter(sim, meter_interval, name="A:out")
    in_meter = ThroughputMeter(sim, meter_interval, name="A:in")

    from ..cc.registry import make_cc

    def launch(src: str, dst: str, stream: str, meter) -> None:
        """One VM pair's web-search job queue: flows arrive over the whole
        experiment at ``demand_factor`` x the profile rate and execute
        FIFO, so demand is bursty (exercising DRL's adjustment lag) but
        sustained well above the profile."""
        workload = EntityWorkload(name=stream, sources=[src], destinations=[dst])
        rng = network.rng.stream(stream)
        volume = int(demand_factor * profile_rate_bps * duration / 8)
        queues = workload.vm_job_queues(rng, volume, arrival_window=duration)
        _VmQueueRunner(
            network,
            lambda: make_cc(cc),
            queues[src],
            ingress_id=out_grants.get(src, 0),
            egress_id_for={dst: in_grants.get(dst, 0)},
            on_deliver=meter.add,
        )

    # VM A -> B, C, D (outbound demand ~3x its profile)...
    for peer in others:
        launch(vm_a, peer, f"out:{peer}", out_meter)
    # ...and B, C, D -> A (inbound demand ~3x A's profile).
    for peer in others:
        launch(peer, vm_a, f"in:{peer}", in_meter)

    network.run(until=duration)
    out_meter.stop()
    in_meter.stop()

    after = duration * warmup_fraction
    return {
        "approach": approach,
        "outbound_range_bps": list(out_meter.rate_range(after=after)),
        "inbound_range_bps": list(in_meter.rate_range(after=after)),
        "outbound_mean_bps": out_meter.mean_rate(after=after),
        "inbound_mean_bps": in_meter.mean_rate(after=after),
    }


# ---------------------------------------------------------------------------
# CC-behaviour preservation (Table 4)
# ---------------------------------------------------------------------------


def run_cc_preservation(
    cc: str,
    use_aq: bool,
    allocated_bps: float = gbps(2.5),
    capacity_bps: float = gbps(10),
    num_flows: int = 5,
    duration: float = 80e-3,
    warmup: float = 30e-3,
    seed: int = 1,
) -> dict:
    """Table 4: an entity allocated R inside a C-capacity fabric under AQ
    should behave like the same entity on a dedicated R-capacity fabric
    under PQ — same throughput, same (virtual) 95th-percentile queuing
    delay.
    """
    bottleneck = allocated_bps if not use_aq else capacity_bps
    queue_config = QueueConfig(
        limit_bytes=queue_limit_bytes(),
        ecn_threshold_bytes=(
            ecn_threshold_bytes(allocated_bps)
            if (cc.lower() == "dctcp" and not use_aq)
            else None
        ),
        collect_delays=not use_aq,
    )
    dumbbell = Dumbbell(
        DumbbellConfig(
            num_left=1,
            num_right=1,
            bottleneck_rate_bps=bottleneck,
            queue_config=queue_config,
            seed=seed,
        )
    )
    network = dumbbell.network
    aq_id = 0
    aq_obj = None
    if use_aq:
        controller = AqController(network)
        controller.register_resource("bottleneck", capacity_bps)
        grant = controller.request(
            AqRequest(
                entity="E",
                switch=Dumbbell.LEFT_SWITCH,
                position="ingress",
                absolute_rate_bps=allocated_bps,
                share_group="bottleneck",
                policy=policy_for_cc(cc, ecn_threshold_bytes(allocated_bps)),
                limit_bytes=queue_limit_bytes(),
                record_delays=True,
            )
        )
        aq_id = grant.aq_id
        aq_obj = grant.aq

    meter = ThroughputMeter(network.sim, duration / 50.0, name="E")
    from ..cc.registry import make_cc
    from .common import swift_target_delay

    for _ in range(num_flows):
        if cc.lower() == "swift":
            flow_cc = make_cc(
                "swift",
                target_delay=swift_target_delay(allocated_bps),
                use_virtual_delay=use_aq,
            )
        else:
            flow_cc = make_cc(cc)
        TcpConnection(
            network,
            "h-l0",
            "h-r0",
            flow_cc,
            size_bytes=None,
            aq_ingress_id=aq_id,
            on_deliver=meter.add,
        )

    network.run(until=duration)
    meter.stop()

    throughput = meter.mean_rate(after=warmup)
    if use_aq:
        assert aq_obj is not None
        samples = aq_obj.stats.delay_samples
    else:
        samples = dumbbell.bottleneck_port.queue.stats.queuing_delays
    # Skip the slow-start transient: only keep the steady-state tail.
    steady = samples[len(samples) // 3 :] if samples else [0.0]
    return {
        "label": f"{cc}/{'AQ' if use_aq else 'PQ'}",
        "throughput_bps": throughput,
        "delay_p95_s": percentile(steady, 95.0),
    }


# ---------------------------------------------------------------------------
# Fig 9: staggered UDP/TCP entities under weighted AQ reallocation
# ---------------------------------------------------------------------------


def run_udp_tcp_timeline(
    approach: str,
    bottleneck_bps: float = gbps(10),
    phase: float = 40e-3,
    seed: int = 1,
    reallocation_interval: float = 5e-3,
) -> dict:
    """Figure 9: four TCP entities join staggered, then a UDP blaster joins
    and leaves. Under PQ the UDP entity starves everyone; under weighted AQ
    each of the n active entities holds ~1/n of the bottleneck.

    Timeline (in units of ``phase``): TCP entities T1..T4 start at 0, 1x,
    2x, 3x; UDP starts at 4x and stops at 6x; run ends at 7x.
    """
    entities = [
        EntitySpec(name="T1", cc="cubic", num_flows=1, start_time=0.0),
        EntitySpec(name="T2", cc="cubic", num_flows=1, start_time=phase),
        EntitySpec(name="T3", cc="cubic", num_flows=1, start_time=2 * phase),
        EntitySpec(name="T4", cc="cubic", num_flows=1, start_time=3 * phase),
        EntitySpec(
            name="U",
            cc="udp",
            num_flows=1,
            start_time=4 * phase,
            stop_time=6 * phase,
        ),
    ]
    duration = 7 * phase
    result = run_longlived_share(
        entities,
        approach,
        bottleneck_bps=bottleneck_bps,
        duration=duration,
        warmup=phase / 2,
        seed=seed,
        meter_interval=phase / 10.0,
        enable_reallocation=(approach == AQ),
        reallocation_interval=reallocation_interval,
    )
    # Mean rate of each entity during each phase's second half (settled).
    windows = {}
    for k in range(7):
        lo = k * phase + 0.5 * phase
        hi = (k + 1) * phase
        windows[f"phase{k}"] = {
            name: meter.mean_rate(after=lo, before=hi)
            for name, meter in result.meters.items()
        }
    return {"approach": approach, "rates_in_window": windows}


# ---------------------------------------------------------------------------
# Small-flow protection (the Section 1/2 motivation, measured as FCT)
# ---------------------------------------------------------------------------


def run_small_flow_protection(
    approach: str,
    bottleneck_bps: float = gbps(2),
    victim_load_fraction: float = 0.2,
    duration: float = 0.1,
    seed: int = 1,
    cc: str = "cubic",
) -> dict:
    """One latency-sensitive entity sends small web-search flows at a
    light load while an aggressive UDP entity blasts at line rate.

    Under PQ the victim's flows queue behind the blaster (the paper's
    "throughput can vary by an order of magnitude" motivation); with
    weighted AQs the victim's small flows see only its own traffic. The
    FCT slowdown is measured against the victim's allocated share;
    ``starved`` (and no statistics) when no victim flow completed at all.
    """
    entities = [
        EntitySpec(name="victim", cc=cc, weight=1.0),
        EntitySpec(name="blaster", cc="udp", weight=1.0),
    ]
    dumbbell, src_hosts, dst_hosts = _build_dumbbell_for(
        entities, approach, bottleneck_bps, seed
    )
    network = dumbbell.network
    env = install_sharing(
        network,
        Dumbbell.LEFT_SWITCH,
        bottleneck_bps,
        entities,
        approach,
        src_hosts,
        dst_hosts,
    )

    from ..stats.fct import FctCollector
    from ..workloads.websearch import websearch_distribution

    share = env.share_bps["victim"]
    collector = FctCollector(
        reference_rate_bps=share, base_rtt=dumbbell.base_rtt()
    )
    rng = network.rng.stream("victim-flows")
    distribution = websearch_distribution()
    victim_src = src_hosts["victim"][0]
    victim_dst = dst_hosts["victim"][0]
    ingress_id = env.aq_ingress_id("victim")

    # Open-loop Poisson small-flow arrivals at a light load.
    mean_bytes = distribution.mean_bytes(samples=2000)
    arrival_rate = victim_load_fraction * share / (mean_bytes * 8.0)
    t = 0.0
    while True:
        t += rng.expovariate(arrival_rate)
        if t >= duration * 0.8:  # leave time for the tail to finish
            break
        size = distribution.sample_bytes(rng)
        TcpConnection(
            network,
            victim_src,
            victim_dst,
            env.make_cc("victim"),
            size_bytes=size,
            start_time=t,
            aq_ingress_id=ingress_id,
            on_complete=collector.on_complete_hook(size),
        )

    # The blaster: UDP at the bottleneck line rate.
    UdpFlow(
        network,
        src_hosts["blaster"][0],
        dst_hosts["blaster"][0],
        rate_bps=bottleneck_bps,
        aq_ingress_id=env.aq_ingress_id("blaster"),
    )

    network.run(until=duration)
    slowdowns = collector.slowdowns()
    if not slowdowns:
        return {"approach": approach, "starved": True}
    return {
        "approach": approach,
        "starved": False,
        "p50_slowdown": percentile(slowdowns, 50.0),
        "p99_slowdown": percentile(slowdowns, 99.0),
        "mean_slowdown": sum(slowdowns) / len(slowdowns),
        "completed_flows": len(slowdowns),
    }


# ---------------------------------------------------------------------------
# Ablations (Section 6)
# ---------------------------------------------------------------------------


def run_limit_ablation(
    limit_bytes: float,
    cc: str = "cubic",
    allocated_bps: float = gbps(2.5),
    capacity_bps: float = gbps(10),
    duration: float = 60e-3,
    warmup: float = 20e-3,
    seed: int = 1,
) -> dict:
    """Section 6 "AQ limit configurations": one point of the AQ-limit
    sweep, achieved rate vs drops — small limits cause excess drops that
    keep the entity below its allocation."""
    spec = EntitySpec(name="E", cc=cc, num_flows=4)
    dumbbell, src_hosts, dst_hosts = _build_dumbbell_for(
        [spec], AQ, capacity_bps, seed
    )
    network = dumbbell.network
    controller = AqController(network)
    controller.register_resource("bottleneck", capacity_bps)
    grant = controller.request(
        AqRequest(
            entity="E",
            switch=Dumbbell.LEFT_SWITCH,
            position="ingress",
            absolute_rate_bps=allocated_bps,
            share_group="bottleneck",
            policy=drop_policy(),
            limit_bytes=limit_bytes,
        )
    )
    meter = ThroughputMeter(network.sim, duration / 40.0)
    from ..cc.registry import make_cc

    for _ in range(spec.num_flows):
        TcpConnection(
            network,
            src_hosts["E"][0],
            dst_hosts["E"][0],
            make_cc(cc),
            aq_ingress_id=grant.aq_id,
            on_deliver=meter.add,
        )
    network.run(until=duration)
    meter.stop()
    stats = grant.aq.stats
    return {
        "limit_bytes": limit_bytes,
        "rate_bps": meter.mean_rate(after=warmup),
        "drop_fraction": (
            stats.dropped_packets / stats.arrived_packets
            if stats.arrived_packets
            else 0.0
        ),
    }


def run_realloc_interval(interval: float, bottleneck_bps: float, phase: float) -> dict:
    """Ablation C: a 2-flow CUBIC entity joins one ``phase`` after an
    identical early one under weighted reallocation every ``interval``;
    measure the joiner while it settles and the link once it has."""
    entities = [
        EntitySpec(name="early", cc="cubic", num_flows=2, start_time=0.0),
        EntitySpec(name="late", cc="cubic", num_flows=2, start_time=phase),
    ]
    share = run_longlived_share(
        entities, AQ,
        bottleneck_bps=bottleneck_bps, duration=3 * phase, warmup=phase / 2,
        meter_interval=phase / 10,
        enable_reallocation=True, reallocation_interval=interval,
    )
    return {
        "late_bps": share.meters["late"].mean_rate(
            after=phase + 5e-3, before=2 * phase
        ),
        "steady_total_bps": sum(
            meter.mean_rate(after=2 * phase) for meter in share.meters.values()
        ),
    }


# ---------------------------------------------------------------------------
# Fault injection: guarantee degradation + re-convergence (docs/FAULTS.md)
# ---------------------------------------------------------------------------


@dataclass
class FaultRecoveryResult:
    """Guarantee degradation and re-convergence around a fault window.

    The run is split into three measurement windows: *before* the first
    fault (post-warmup steady state), *during* (the fault plus the settle
    interval while transports and the redeployed AQs re-converge), and
    *after* (post-recovery steady state). ``reconvergence_s`` is, per
    entity, the delay from the first fault until the throughput series
    stays within tolerance of the granted share; ``-1.0`` means the
    entity never re-converged within the run.
    """

    approach: str
    bottleneck_bps: float
    duration: float
    fault_at: float
    share_bps: Dict[str, float]
    rates_before_bps: Dict[str, float]
    rates_during_bps: Dict[str, float]
    rates_after_bps: Dict[str, float]
    reconvergence_s: Dict[str, float]
    degraded_windows: List[dict] = field(default_factory=list)
    restart_stats: Dict[str, dict] = field(default_factory=dict)
    faults_applied: List[dict] = field(default_factory=list)
    meters: Dict[str, ThroughputMeter] = field(default_factory=dict)
    env: Optional[SharingEnv] = None
    #: What ``reconvergence_s`` was measured against.
    tolerance: float = 0.05

    def recovered(self, tolerance: Optional[float] = None) -> bool:
        """Did every entity's post-fault rate return to within
        ``tolerance`` (default: the run's own) of its granted (or
        pre-fault, if lower) rate?"""
        if tolerance is None:
            tolerance = self.tolerance
        for name, share in self.share_bps.items():
            target = min(share, self.rates_before_bps.get(name, share))
            if self.rates_after_bps.get(name, 0.0) < (1.0 - tolerance) * target:
                return False
        return True

    @property
    def max_reconvergence_s(self) -> float:
        times = [t for t in self.reconvergence_s.values() if t >= 0]
        if len(times) < len(self.reconvergence_s):
            return -1.0  # someone never came back
        return max(times) if times else 0.0

    def to_dict(self) -> dict:
        """What ``run-all`` records and ``repro fault-restart`` prints."""
        return {
            "approach": self.approach,
            "fault_at_s": self.fault_at,
            "share_bps": dict(self.share_bps),
            "rates_before_bps": dict(self.rates_before_bps),
            "rates_during_bps": dict(self.rates_during_bps),
            "rates_after_bps": dict(self.rates_after_bps),
            "reconvergence_s": dict(self.reconvergence_s),
            "degraded_windows": list(self.degraded_windows),
            "restart_stats": dict(self.restart_stats),
            "recovered": self.recovered(),
        }


def _reconvergence_time(
    meter: ThroughputMeter,
    fault_at: float,
    target_bps: float,
    settle_windows: int = 3,
) -> float:
    """First post-fault instant after which ``settle_windows`` consecutive
    meter windows all meet ``target_bps`` (−1.0 if that never happens)."""
    samples = [(t, bps) for t, bps in meter.samples if t > fault_at]
    if not samples:
        return -1.0
    run = 0
    for i, (t, bps) in enumerate(samples):
        if bps >= target_bps:
            run += 1
            if run == settle_windows:
                return samples[i - settle_windows + 1][0] - fault_at
        else:
            run = 0
    return -1.0


def run_switch_restart(
    entities: Optional[Sequence[EntitySpec]] = None,
    approach: str = AQ,
    bottleneck_bps: float = gbps(2),
    duration: float = 120e-3,
    warmup: float = 20e-3,
    restart_at: float = 50e-3,
    seed: int = 1,
    meter_interval: Optional[float] = None,
    plan: Optional[FaultPlan] = None,
    tolerance: float = 0.05,
    settle: Optional[float] = None,
) -> FaultRecoveryResult:
    """The new fault experiment: guarantee degradation and re-convergence
    after a switch restart wipes every deployed AQ's register state.

    By default the bottleneck switch restarts at ``restart_at``, draining
    its queues and losing the per-AQ A-Gap registers; the controller's
    recovery path redeploys them with bounded retry/backoff and accounts
    the gap as :class:`~repro.core.controller.DegradedWindow`\\ s. A custom
    ``plan`` (or an ambient one activated by the CLI's ``--faults``)
    replaces the default single-restart schedule. Example::

        result = run_switch_restart(duration=120e-3, restart_at=50e-3)
        result.rates_after_bps        # back within 5% of the grant
        result.max_reconvergence_s    # how long recovery took
        result.degraded_windows       # the unenforced intervals
    """
    if not 0 < warmup < restart_at < duration:
        raise ConfigurationError(
            "need 0 < warmup < restart_at < duration, got "
            f"warmup={warmup} restart_at={restart_at} duration={duration}"
        )
    if entities is None:
        entities = [
            EntitySpec(name="A", cc="cubic", num_flows=4, weight=1.0),
            EntitySpec(name="B", cc="cubic", num_flows=4, weight=1.0),
        ]

    ambient = get_active_fault_plan()
    if ambient is not None:
        plan = ambient  # the CLI's --faults wins; don't stack another plan
        plan_scope = contextlib.nullcontext()
    else:
        if plan is None:
            plan = switch_restart_plan(Dumbbell.LEFT_SWITCH, restart_at, seed=seed)
        plan_scope = activate_fault_plan(plan)
    fault_at = min((e.time for e in plan.events), default=restart_at)

    with plan_scope:
        share = run_longlived_share(
            entities, approach, bottleneck_bps, duration, warmup, seed,
            meter_interval=meter_interval,
        )
    meters, env, network = share.meters, share.env, share.env.network

    # The degraded window itself is short (one redeploy backoff step);
    # transports need longer to refill the pipe, so give them half the
    # remaining run (or the caller's ``settle``) before measuring the
    # post-recovery steady state.
    settle_s = settle if settle is not None else (duration - fault_at) / 2.0
    post_start = min(fault_at + settle_s, duration)

    rates_before = {
        spec.name: meters[spec.name].mean_rate(after=warmup, before=fault_at)
        for spec in entities
    }
    rates_during = {
        spec.name: meters[spec.name].mean_rate(after=fault_at, before=post_start)
        for spec in entities
    }
    rates_after = {
        spec.name: meters[spec.name].mean_rate(after=post_start, before=duration)
        for spec in entities
    }
    reconvergence = {
        spec.name: _reconvergence_time(
            meters[spec.name],
            fault_at,
            (1.0 - tolerance)
            * min(env.share_bps[spec.name], rates_before[spec.name] or
                  env.share_bps[spec.name]),
        )
        for spec in entities
    }

    degraded = (
        [w.to_dict() for w in env.controller.degraded_windows]
        if env.controller is not None
        else []
    )
    restart_stats = {
        name: {
            "restarts": sw.stats.restarts,
            "drained_packets": sw.stats.restart_drained_packets,
            "drained_bytes": sw.stats.restart_drained_bytes,
        }
        for name, sw in network.switches.items()
        if sw.stats.restarts
    }
    applied = (
        [e.to_dict() for e in network.fault_injector.applied]
        if network.fault_injector is not None
        else []
    )

    return FaultRecoveryResult(
        approach=approach,
        bottleneck_bps=bottleneck_bps,
        duration=duration,
        fault_at=fault_at,
        share_bps=dict(env.share_bps),
        rates_before_bps=rates_before,
        rates_during_bps=rates_during,
        rates_after_bps=rates_after,
        reconvergence_s=reconvergence,
        degraded_windows=degraded,
        restart_stats=restart_stats,
        faults_applied=applied,
        meters=meters,
        env=env,
        tolerance=tolerance,
    )


def run_fault_restart(
    approach: str,
    bottleneck_bps: float,
    duration: float,
    restart_at: float,
    seed: int = 1,
    tolerance: float = 0.05,
) -> dict:
    """The ``faults/restart/*`` cell and ``repro fault-restart``:
    :func:`run_switch_restart`'s default two-entity drill, warm-up pinned
    at a sixth of the run."""
    return run_switch_restart(
        approach=approach, bottleneck_bps=bottleneck_bps, duration=duration,
        warmup=duration / 6, restart_at=restart_at, seed=seed,
        tolerance=tolerance,
    ).to_dict()


def run_link_blackout(
    down_at: float,
    up_at: float,
    approach: str,
    bottleneck_bps: float,
    duration: float,
    warmup: float,
) -> dict:
    """The ``faults/blackout/*`` cell: two 4-flow CUBIC entities ride out a
    blackout of the bottleneck trunk over ``[down_at, up_at)``."""
    entities = [
        EntitySpec(name="A", cc="cubic", num_flows=4),
        EntitySpec(name="B", cc="cubic", num_flows=4),
    ]
    with activate_fault_plan(link_blackout_plan("s-left->s-right", down_at, up_at)):
        share = run_longlived_share(
            entities, approach,
            bottleneck_bps=bottleneck_bps, duration=duration, warmup=warmup,
        )
    return {**share.to_dict(), "blackout_s": up_at - down_at}


# ---------------------------------------------------------------------------
# Hybrid fluid/packet simulation (docs/PERFORMANCE.md "Fluid fast path")
# ---------------------------------------------------------------------------


@dataclass
class FluidShareResult:
    """Per-flow delivered bytes of one UDP sharing run, in either engine.

    The same scenario runs under the per-packet engine (``mode="packet"``)
    or the hybrid fluid engine (``mode="fluid"``); the equivalence jobs
    compare the two field by field.
    """

    approach: str
    mode: str
    bottleneck_bps: float
    duration: float
    delivered_bytes: Dict[str, Dict[int, int]]  # entity -> flow_id -> bytes
    delivered_total: Dict[str, int]             # entity -> bytes
    fluid: dict                                 # FluidEngine.stats() ({} for packet)
    env: SharingEnv


def run_fluid_share(
    entities: Sequence[EntitySpec],
    approach: str,
    bottleneck_bps: float = gbps(2),
    duration: float = 50e-3,
    seed: int = 1,
    fluid: bool = False,
    aq_limit_bytes: Optional[float] = None,
    min_epoch: float = 1e-6,
    retry_interval: float = 250e-6,
) -> FluidShareResult:
    """UDP entities share a dumbbell bottleneck, optionally fluid-simulated.

    This is the harness for the hybrid fluid/packet fast path
    (:mod:`repro.sim.fluid`): every entity must be UDP (constant-rate
    senders are what the closed form models), and no periodic meters are
    attached — per-flow delivered bytes are read off the sinks, so the
    calendar stays empty and fluid epochs can span the whole run. With
    ``fluid=False`` the identical network runs per-packet, giving the
    equivalence baseline.
    """
    if any(not spec.is_udp for spec in entities):
        raise ConfigurationError(
            "run_fluid_share is UDP-only; the fluid closed form does not "
            "model CC feedback loops"
        )
    dumbbell, src_hosts, dst_hosts = _build_dumbbell_for(
        entities, approach, bottleneck_bps, seed
    )
    network = dumbbell.network
    env = install_sharing(
        network,
        Dumbbell.LEFT_SWITCH,
        bottleneck_bps,
        entities,
        approach,
        src_hosts,
        dst_hosts,
        aq_limit_bytes=aq_limit_bytes,
    )

    _, flows = _attach_longlived_flows(
        network, env, entities, src_hosts, dst_hosts, meter_interval=None
    )

    fluid_stats: dict = {}
    if fluid:
        from ..sim.fluid import FluidEngine

        engine = FluidEngine(
            network, [f for group in flows.values() for f in group],
            min_epoch=min_epoch,
            retry_interval=retry_interval,
        )
        engine.run(until=duration)
        fluid_stats = engine.stats()
    else:
        network.run(until=duration)

    delivered = {
        name: {f.flow_id: f.sink.delivered_bytes for f in entity_flows}
        for name, entity_flows in flows.items()
    }
    return FluidShareResult(
        approach=approach,
        mode="fluid" if fluid else "packet",
        bottleneck_bps=bottleneck_bps,
        duration=duration,
        delivered_bytes=delivered,
        delivered_total={
            name: sum(per_flow.values()) for name, per_flow in delivered.items()
        },
        fluid=fluid_stats,
        env=env,
    )
