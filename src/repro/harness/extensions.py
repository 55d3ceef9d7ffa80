"""Hand-wired extension scenarios: the ablation / extension / related-work
experiments whose topologies :func:`~repro.harness.common.install_sharing`
does not cover (a work-conserving gate, a star with egress AQs, a Clos
fabric, multi-queue and per-flow-queue ports).

Each function builds its own network, runs it, and returns a JSON-safe
dict, so it is directly a ``run-all`` job target (the ``ablation/``,
``ext/`` and ``related/`` cells of :mod:`repro.harness.figures`) and what
``examples/`` call. :mod:`repro.harness.scenarios` does not import this
module.
"""

from __future__ import annotations

from ..cc.registry import make_cc
from ..core.controller import AqController, AqRequest
from ..core.feedback import drop_policy
from ..core.workconserving import WorkConservingGate
from ..queues.multiqueue import MultiQueuePort
from ..queues.perflow import PerFlowQueue, entity_key
from ..stats.meters import ThroughputMeter
from ..topology.dumbbell import Dumbbell, DumbbellConfig
from ..topology.leafspine import LeafSpine, LeafSpineConfig
from ..topology.star import Star, StarConfig
from ..transport.tcp import TcpConnection
from ..transport.udp import UdpFlow
from ..units import MTU_BYTES, gbps
from ..workloads.incast import IncastApplication
from .common import queue_limit_bytes


def run_work_conservation(work_conserving: bool, with_competitor: bool) -> dict:
    """Section 6's bypass-while-queue-empty gate: a 4-flow CUBIC tenant
    allocated 2.5G of a 10G link, strict or gated, on an idle or a busy
    fabric. Returns the tenant's steady-state rate."""
    capacity, allocated, duration, warmup = gbps(10), gbps(2.5), 60e-3, 20e-3
    dumbbell = Dumbbell(
        DumbbellConfig(num_left=2, num_right=2, bottleneck_rate_bps=capacity)
    )
    network = dumbbell.network
    controller = AqController(network)
    controller.register_resource("bottleneck", capacity)
    grant = controller.request(
        AqRequest(
            entity="tenant",
            switch=Dumbbell.LEFT_SWITCH,
            position="ingress",
            absolute_rate_bps=allocated,
            share_group="bottleneck",
            policy=drop_policy(),
            limit_bytes=queue_limit_bytes(),
        )
    )
    if work_conserving:
        WorkConservingGate(
            dumbbell.bottleneck_switch,
            controller.pipeline(Dumbbell.LEFT_SWITCH),
            watched_port=Dumbbell.RIGHT_SWITCH,
        )
    meter = ThroughputMeter(network.sim, duration / 40)
    for _ in range(4):
        TcpConnection(
            network, "h-l0", "h-r0", make_cc("cubic"),
            aq_ingress_id=grant.aq_id, on_deliver=meter.add,
        )
    if with_competitor:
        for _ in range(4):
            TcpConnection(network, "h-l1", "h-r1", make_cc("cubic"))
    network.run(until=duration)
    return {"allocated_bps": allocated, "rate_bps": meter.mean_rate(after=warmup)}


def run_incast(mode: str) -> dict:
    """A 3-worker partition-aggregate fan-in on a 1G star. ``mode`` is
    ``baseline`` (uncontended), ``pq`` (a line-rate UDP blaster shares the
    aggregator's downlink) or ``aq`` (egress AQ pair: incast guaranteed
    0.7, blaster capped at 0.3). Returns the p95 round duration, ``None``
    when the rounds never finish."""
    link = gbps(1)
    star = Star(StarConfig(num_hosts=5, link_rate_bps=link))
    network = star.network
    incast_egress = blaster_egress = 0
    if mode == "aq":
        controller = AqController(network)
        controller.register_resource("agg-down", link)
        incast_egress = controller.request(
            AqRequest(entity="incast", switch=Star.SWITCH, position="egress",
                      absolute_rate_bps=0.7 * link, share_group="agg-down",
                      policy=drop_policy(), limit_bytes=100 * MTU_BYTES)
        ).aq_id
        blaster_egress = controller.request(
            AqRequest(entity="blaster", switch=Star.SWITCH, position="egress",
                      absolute_rate_bps=0.3 * link, share_group="agg-down",
                      policy=drop_policy(), limit_bytes=100 * MTU_BYTES)
        ).aq_id
    app = IncastApplication(
        network, aggregator="vm0", workers=["vm1", "vm2", "vm3"],
        response_bytes=60_000,
        cc_factory=lambda: make_cc("cubic"),
        rounds=8, think_time=1e-3,
        aq_egress_id=incast_egress,
    )
    if mode != "baseline":
        UdpFlow(network, "vm4", "vm0", rate_bps=link,
                aq_egress_id=blaster_egress)
    network.run(until=3.0)
    return {
        "mode": mode,
        "p95_round_s": app.round_duration_percentile(95.0) if app.all_done else None,
    }


def run_leafspine(with_aq: bool) -> dict:
    """A 4-flow TCP entity and a 2-flow UDP entity (one flow per spine, at
    spine line rate) cross a 2-leaf/2-spine ECMP fabric; with ``with_aq``
    one weighted ingress AQ per entity sits at the source leaf."""
    fabric_link, duration, warmup = gbps(1), 60e-3, 25e-3
    fabric = LeafSpine(
        LeafSpineConfig(
            num_leaves=2, num_spines=2, hosts_per_leaf=2,
            host_link_bps=gbps(2), fabric_link_bps=fabric_link,
        )
    )
    network = fabric.network
    tcp_id = udp_id = 0
    if with_aq:
        controller = AqController(network)
        controller.register_resource("fabric", 2 * fabric_link)
        tcp_id = controller.request(
            AqRequest(entity="tcp", switch="leaf0", position="ingress",
                      weight=1.0, share_group="fabric", policy=drop_policy())
        ).aq_id
        udp_id = controller.request(
            AqRequest(entity="udp", switch="leaf0", position="ingress",
                      weight=1.0, share_group="fabric", policy=drop_policy())
        ).aq_id
    tcp_meter = ThroughputMeter(network.sim, duration / 40, name="tcp")
    udp_meter = ThroughputMeter(network.sim, duration / 40, name="udp")
    for _ in range(4):
        TcpConnection(network, "h0-0", "h1-0", make_cc("cubic"),
                      aq_ingress_id=tcp_id, on_deliver=tcp_meter.add)
    for _ in range(2):
        UdpFlow(network, "h0-1", "h1-1", rate_bps=fabric_link,
                aq_ingress_id=udp_id, on_deliver=udp_meter.add)
    network.run(until=duration)
    return {
        "fabric_link_bps": fabric_link,
        "tcp_bps": tcp_meter.mean_rate(after=warmup),
        "udp_bps": udp_meter.mean_rate(after=warmup),
        "spines_used": sum(
            1 for spine in fabric.spines
            if network.switches[spine].stats.forwarded_packets > 0
        ),
    }


def run_multiqueue(mechanism: str) -> dict:
    """Eight UDP entities, each entitled to 1/8 of a 2G link; entity 0
    blasts at line rate, the rest offer exactly their share. ``mechanism``
    is ``multiqueue`` (entities hash onto four physical queues) or ``aq``
    (eight AQs over one physical queue). Returns each entity's rate."""
    bottleneck, entities, queues, duration = gbps(2), 8, 4, 50e-3
    dumbbell = Dumbbell(
        DumbbellConfig(
            num_left=entities, num_right=entities,
            bottleneck_rate_bps=bottleneck,
        )
    )
    network = dumbbell.network
    share = bottleneck / entities
    ids = list(range(1, entities + 1))
    if mechanism == "multiqueue":
        port = dumbbell.bottleneck_port
        port.queue = MultiQueuePort(
            num_queues=queues,
            limit_bytes_per_queue=50 * MTU_BYTES,
            classifier=lambda p: p.aq_ingress_id % queues,
        )
        port.transmitter.queue = port.queue
    elif mechanism == "aq":
        controller = AqController(network)
        controller.register_resource("bn", bottleneck)
        ids = [
            controller.request(
                AqRequest(
                    entity=f"e{i}", switch=Dumbbell.LEFT_SWITCH,
                    position="ingress", weight=1.0, share_group="bn",
                    policy=drop_policy(),
                )
            ).aq_id
            for i in range(entities)
        ]
    meters = []
    for i in range(entities):
        meter = ThroughputMeter(network.sim, duration / 25)
        meters.append(meter)
        UdpFlow(
            network, dumbbell.left_hosts[i], dumbbell.right_hosts[i],
            rate_bps=bottleneck if i == 0 else share,
            aq_ingress_id=ids[i], on_deliver=meter.add,
        )
    network.run(until=duration)
    return {
        "share_bps": share,
        "num_queues": queues,
        "rates_bps": [m.mean_rate(after=duration * 0.4) for m in meters],
    }


def run_perflow_enforcement(mechanism: str) -> dict:
    """One UDP entity offers 2x its 0.5G allocation on an *uncongested*
    2.5G link behind a per-entity DRR queue (``pfq``) or an AQ (``aq``).
    Returns the delivered rate."""
    capacity, allocated, duration = gbps(2.5), gbps(0.5), 50e-3
    dumbbell = Dumbbell(
        DumbbellConfig(num_left=2, num_right=2, bottleneck_rate_bps=capacity)
    )
    network = dumbbell.network
    aq_id = 0
    if mechanism == "aq":
        controller = AqController(network)
        controller.register_resource("bn", capacity)
        aq_id = controller.request(
            AqRequest(
                entity="e", switch=Dumbbell.LEFT_SWITCH, position="ingress",
                absolute_rate_bps=allocated, share_group="bn",
                limit_bytes=100 * MTU_BYTES,
            )
        ).aq_id
    elif mechanism == "pfq":
        port = dumbbell.bottleneck_port
        port.queue = PerFlowQueue(
            limit_bytes_per_queue=100 * MTU_BYTES, key_fn=entity_key
        )
        port.transmitter.queue = port.queue
    flow = UdpFlow(
        network, "h-l0", "h-r0", rate_bps=2 * allocated, aq_ingress_id=aq_id,
    )
    network.run(until=duration)
    return {
        "allocated_bps": allocated,
        "rate_bps": flow.sink.delivered_bytes * 8 / duration,
    }
