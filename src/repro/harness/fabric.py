"""The ``share-fabric`` scenario: one fat-tree, shared by many flows,
shardable across workers.

This module is the glue between three layers:

* :mod:`repro.topology.fattree` — builds one partition of the fabric
  (or all of it) against a :class:`~repro.sim.shard.ShardRuntime`
  boundary context;
* :mod:`repro.sim.shard` — lockstep drivers (in-process and spawn);
* the CLI / job families — which only deal in the JSON-safe dicts
  produced here.

The traffic matrix is enumerated **globally and deterministically**
(:func:`fabric_flows`): every partition iterates the same list in the
same order and instantiates only the endpoints it owns. Flow ids come
from the enumeration index — never from a per-partition allocator — so
ids, ECMP core choices (``flow_id % num_cores``), and RNG stream names
are all independent of the shard count. That property is what makes
``--shards 1`` and ``--shards k`` digest-identical (the ``shard/equiv/*``
jobs assert it).

Two flow kinds per the ISSUE's edge cases:

* *intra-ToR* — ``h{p}-{i}-{j} -> h{p}-{i}-{j+1}``: never crosses a cut;
* *cross-pod* — ``h{p}-{i}-0 -> h{p+1}-{i}-0``: crosses **two** cuts
  (agg->core, then core->agg), exercising re-export of imported packets.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..faults.plan import FaultPlan
from ..sim.shard import ShardRuntime, run_inline, run_sharded
from ..topology.fattree import FatTree, FatTreeConfig, FatTreePlan, build_fattree
from ..transport.udp import UdpSender, UdpSink
from ..units import MTU_BYTES, gbps

#: The worker target handed to :func:`repro.sim.shard.run_sharded`.
BUILDER_TARGET = "repro.harness.fabric:build_fabric_partition"


def fabric_config(
    pods: int = 4,
    tors_per_pod: int = 2,
    hosts_per_tor: int = 2,
    num_cores: int = 2,
    seed: int = 1,
) -> FatTreeConfig:
    """The scenario's topology knobs (a JSON-safe subset of
    :class:`FatTreeConfig`; line rates stay at their defaults)."""
    return FatTreeConfig(
        pods=pods,
        tors_per_pod=tors_per_pod,
        hosts_per_tor=hosts_per_tor,
        num_cores=num_cores,
        seed=seed,
    )


def fabric_flows(
    config: FatTreeConfig,
    intra_gbps: float = 2.0,
    cross_gbps: float = 3.0,
    packet_size: int = MTU_BYTES,
) -> List[dict]:
    """The global traffic matrix, in canonical order with canonical ids.

    Intra-ToR flows first (every host to the next host under its ToR,
    wrapping), then cross-pod flows (the ``j == 0`` host of every ToR to
    its counterpart in the next pod, wrapping). Ids are ``1..N`` in this
    order.
    """
    flows: List[dict] = []

    def add(src: str, dst: str, rate: float) -> None:
        flows.append({
            "flow_id": len(flows) + 1,
            "src": src,
            "dst": dst,
            "rate_bps": rate,
            "packet_size": packet_size,
        })

    if config.hosts_per_tor > 1 and intra_gbps > 0:
        for p in range(config.pods):
            for i in range(config.tors_per_pod):
                for j in range(config.hosts_per_tor):
                    add(
                        config.host_name(p, i, j),
                        config.host_name(p, i, (j + 1) % config.hosts_per_tor),
                        gbps(intra_gbps),
                    )
    if config.pods > 1 and cross_gbps > 0:
        for p in range(config.pods):
            for i in range(config.tors_per_pod):
                add(
                    config.host_name(p, i, 0),
                    config.host_name((p + 1) % config.pods, i, 0),
                    gbps(cross_gbps),
                )
    return flows


#: Cached web-search mean flow size (the distribution estimates it by a
#: fixed-seed Monte Carlo run, so every partition computes the same value;
#: caching just avoids re-sampling per partition build).
_WEBSEARCH_MEAN: Optional[float] = None

#: ECN marking threshold for per-tenant AQ slices (A-Gap bytes).
MIXED_ECN_THRESHOLD_BYTES = 20 * MTU_BYTES
#: A-Gap limit for per-tenant AQ slices (the virtual buffer).
MIXED_AQ_LIMIT_BYTES = 100 * MTU_BYTES


def _tenant_rng(seed: int, tenant: int) -> random.Random:
    """Named-stream RNG for one tenant's arrival process: derived from the
    scenario seed by hashing, never from construction order, so the flow
    list is identical at any shard count."""
    digest = hashlib.sha256(f"{seed}/mixed/tenant{tenant}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def fabric_mixed_spec(
    config: FatTreeConfig,
    arrival_s: float,
    load: float = 0.25,
    churn: bool = False,
    num_tenants: int = 3,
    udp_gbps: float = 4.0,
    aq_share: float = 0.5,
    packet_size: int = MTU_BYTES,
) -> dict:
    """The mixed-traffic scenario spec: tenants, AQ slices, TCP arrivals,
    the UDP aggressor, and the churn schedule — all enumerated globally
    and deterministically (the same determinism contract as
    :func:`fabric_flows`, extended to flow *lifecycle*).

    * Hosts round-robin across ``num_tenants`` tenants by global host
      index, so every tenant owns hosts in several pods (cross-pod TCP
      with ACKs crossing the shard cuts in both directions).
    * Each (ToR, tenant-with-a-host-under-it) pair gets one ingress AQ
      slice deployed on the ToR; data packets are tagged with their
      source ToR's slice id, ACKs stay untagged. Slice rates split
      ``aq_share`` of the ToR uplink evenly among the tenants present.
    * Tenant 0 doubles as the aggressor: a cross-pod CBR UDP flow per
      tenant-0 host at ``udp_gbps``, AQ-tagged like its TCP traffic.
    * Every tenant gets open-loop Poisson/web-search TCP arrivals at
      ``load`` of its aggregate host capacity over ``[0, arrival_s)``.
    * ``churn=True`` makes the last tenant leave at ``0.4 * arrival_s``
      (arrivals stop, AQ grants withdrawn, survivors' slices rebalanced
      up) and rejoin at ``0.7 * arrival_s`` (grants redeployed, rates
      rebalanced back down).

    Flow ids: UDP flows first (``1..U`` in host order), then TCP flows in
    canonical ``(start_time, tenant, src, dst, size)`` order — never from
    a per-partition allocator.
    """
    global _WEBSEARCH_MEAN
    from ..workloads.generator import EntityWorkload

    if num_tenants < 1:
        raise ConfigurationError(f"num_tenants must be >= 1, got {num_tenants}")
    if not 0 < load:
        raise ConfigurationError(f"load must be positive, got {load}")
    if arrival_s <= 0:
        raise ConfigurationError(f"arrival_s must be positive, got {arrival_s}")

    hosts = config.host_names()
    tenant_hosts: Dict[int, List[str]] = {t: [] for t in range(num_tenants)}
    tor_of: Dict[str, int] = {}
    index = 0
    for p in range(config.pods):
        for i in range(config.tors_per_pod):
            tor_index = p * config.tors_per_pod + i
            for j in range(config.hosts_per_tor):
                host = config.host_name(p, i, j)
                tenant_hosts[index % num_tenants].append(host)
                tor_of[host] = tor_index
                index += 1
    for t, members in tenant_hosts.items():
        if len(members) < 2:
            raise ConfigurationError(
                f"tenant {t} has {len(members)} host(s); the mixed workload "
                f"needs >= 2 per tenant (shrink num_tenants or grow the fabric)"
            )

    # AQ slices: one per (ToR, tenant present under it), ids from the
    # global (tor_index, tenant) enumeration so they are topology-pure.
    tenant_of_host = {
        h: t for t, members in tenant_hosts.items() for h in members
    }
    tor_tenants: Dict[int, List[int]] = {}
    for host, tor_index in tor_of.items():
        members = tor_tenants.setdefault(tor_index, [])
        tenant = tenant_of_host[host]
        if tenant not in members:
            members.append(tenant)
    aq_slices: List[dict] = []
    slice_id: Dict[Tuple[int, int], int] = {}
    for tor_index in sorted(tor_tenants):
        present = sorted(tor_tenants[tor_index])
        base_rate = aq_share * config.pod_rate_bps / len(present)
        for tenant in present:
            aq_id = tor_index * num_tenants + tenant + 1
            slice_id[(tor_index, tenant)] = aq_id
            aq_slices.append({
                "aq_id": aq_id,
                "tor_index": tor_index,
                "tenant": tenant,
                "rate_bps": base_rate,
                "limit_bytes": MIXED_AQ_LIMIT_BYTES,
            })

    def ingress_id(host: str) -> int:
        return slice_id[(tor_of[host], tenant_of_host[host])]

    # Tenant 0's aggressor matrix: one cross-pod CBR stream per host.
    udp_flows: List[dict] = []
    if udp_gbps > 0:
        for src in tenant_hosts[0]:
            head = src[1:].split("-")
            p, i, j = int(head[0]), int(head[1]), int(head[2])
            if config.pods > 1:
                dst = config.host_name((p + 1) % config.pods, i, j)
            else:
                dst = config.host_name(p, i, (j + 1) % config.hosts_per_tor)
            if dst == src:
                continue
            udp_flows.append({
                "flow_id": len(udp_flows) + 1,
                "src": src,
                "dst": dst,
                "rate_bps": gbps(udp_gbps),
                "packet_size": packet_size,
                "tenant": 0,
                "aq_ingress_id": ingress_id(src),
            })

    # Churn schedule: the last tenant leaves and rejoins mid-run.
    leaver = num_tenants - 1 if churn and num_tenants >= 2 else None
    leave_t = 0.4 * arrival_s
    rejoin_t = 0.7 * arrival_s
    churn_events: List[dict] = []
    if leaver is not None:
        leaver_ids = sorted(
            aq_id for (tor_index, tenant), aq_id in slice_id.items()
            if tenant == leaver
        )
        down_rates: Dict[str, float] = {}
        up_rates: Dict[str, float] = {}
        for tor_index, present in sorted(tor_tenants.items()):
            if leaver not in present:
                continue
            survivors = [t for t in sorted(present) if t != leaver]
            if not survivors:
                continue
            for tenant in survivors:
                aq_id = slice_id[(tor_index, tenant)]
                down_rates[str(aq_id)] = (
                    aq_share * config.pod_rate_bps / len(survivors)
                )
                up_rates[str(aq_id)] = aq_share * config.pod_rate_bps / len(present)
            up_rates[str(slice_id[(tor_index, leaver)])] = (
                aq_share * config.pod_rate_bps / len(present)
            )
        churn_events = [
            {"time": leave_t, "withdraw": leaver_ids, "deploy": [],
             "rates": down_rates},
            {"time": rejoin_t, "withdraw": [], "deploy": leaver_ids,
             "rates": up_rates},
        ]

    # Open-loop TCP arrivals per tenant (web-search sizes).
    if _WEBSEARCH_MEAN is None:
        from ..workloads.websearch import websearch_distribution

        _WEBSEARCH_MEAN = websearch_distribution().mean_bytes()
    arrivals: List[Tuple[float, int, str, str, int]] = []
    for tenant in range(num_tenants):
        members = tenant_hosts[tenant]
        workload = EntityWorkload(
            name=f"tenant{tenant}", sources=members, destinations=members,
        )
        rng = _tenant_rng(config.seed, tenant)
        flows = workload.poisson_open_loop(
            rng, load * config.host_rate_bps * len(members), arrival_s,
            mean_bytes=_WEBSEARCH_MEAN,
        )
        for flow in flows:
            if tenant == leaver and leave_t <= flow.start_time < rejoin_t:
                continue  # the tenant is gone: no arrivals in the gap
            arrivals.append(
                (flow.start_time, tenant, flow.src, flow.dst, flow.size_bytes)
            )
    arrivals.sort()
    tcp_flows = [
        {
            "flow_id": len(udp_flows) + n + 1,
            "src": src,
            "dst": dst,
            "size_bytes": size,
            "start_time": start,
            "tenant": tenant,
            "aq_ingress_id": ingress_id(src),
        }
        for n, (start, tenant, src, dst, size) in enumerate(arrivals)
    ]

    return {
        "num_tenants": num_tenants,
        "tenant_hosts": {str(t): list(m) for t, m in tenant_hosts.items()},
        "aq_slices": aq_slices,
        "udp_flows": udp_flows,
        "tcp_flows": tcp_flows,
        "churn": churn_events,
    }


def build_fabric_partition(
    partition: int,
    shards: int,
    pods: int = 4,
    tors_per_pod: int = 2,
    hosts_per_tor: int = 2,
    num_cores: int = 2,
    seed: int = 1,
    intra_gbps: float = 2.0,
    cross_gbps: float = 3.0,
    packet_size: int = MTU_BYTES,
    traffic: str = "udp",
    arrival_s: float = 2e-3,
    load: float = 0.25,
    churn: bool = False,
    num_tenants: int = 3,
    udp_gbps: float = 4.0,
    aq_share: float = 0.5,
    cc: str = "dctcp",
    fail_at_s: float = -1.0,
    fail_partition: int = 0,
    fail_hard: bool = False,
) -> Tuple[ShardRuntime, Callable[[], dict]]:
    """Build one partition of the scenario. Worker-target signature:
    every argument is JSON-safe, and the return is ``(runtime,
    finalize)`` where ``finalize()`` yields this partition's slice of the
    results (all slices are disjoint; see :func:`merge_results`).

    ``traffic="udp"`` is the static CBR matrix of :func:`fabric_flows`;
    ``traffic="mixed"`` instantiates the :func:`fabric_mixed_spec`
    scenario — TCP + AQ tenants with Poisson arrivals and optional churn.
    ``fail_at_s >= 0`` arms a crash drill on ``fail_partition``: at that
    sim time the partition raises (or hard-exits with ``fail_hard``),
    exercising the run-ledger failure path.

    Ambient context (telemetry, fault plan) must be activated by the
    caller *around* this call — the runner worker and
    :func:`run_share_fabric` both do.
    """
    if traffic not in ("udp", "mixed"):
        raise ConfigurationError(
            f"traffic must be 'udp' or 'mixed', got {traffic!r}"
        )
    config = fabric_config(pods, tors_per_pod, hosts_per_tor, num_cores, seed)
    plan = FatTreePlan(config, shards)
    runtime = ShardRuntime(partition, plan)
    tree = build_fattree(config, boundary=runtime)
    net = tree.network
    runtime.attach_network(net)

    if fail_at_s >= 0 and partition == fail_partition:
        def _crash_drill() -> None:
            if fail_hard:  # pragma: no cover - exercised via spawn workers
                import os

                os._exit(3)
            raise RuntimeError(
                f"injected partition failure (partition {partition} "
                f"at t={fail_at_s})"
            )

        net.sim.schedule_at(fail_at_s, _crash_drill)

    sinks: Dict[int, UdpSink] = {}
    senders: Dict[int, UdpSender] = {}

    def instantiate_udp(flows: List[dict]) -> None:
        for flow in flows:
            # Sink before sender, mirroring UdpFlow construction order.
            if tree.owns(flow["dst"]):
                sinks[flow["flow_id"]] = UdpSink(
                    net.hosts[flow["dst"]], flow["flow_id"]
                )
            if tree.owns(flow["src"]):
                senders[flow["flow_id"]] = UdpSender(
                    net.sim,
                    net.hosts[flow["src"]],
                    flow["dst"],
                    flow["flow_id"],
                    flow["rate_bps"],
                    packet_size=flow["packet_size"],
                    aq_ingress_id=flow.get("aq_ingress_id", 0),
                )

    tcp_senders: Dict[int, object] = {}
    tcp_receivers: Dict[int, object] = {}
    tcp_meta: Dict[int, dict] = {}
    aq_by_id: Dict[int, object] = {}

    def build_mixed() -> None:
        from ..cc.registry import make_cc
        from ..core.feedback import policy_for_cc
        from ..core.pipeline import INGRESS, AqPipeline
        from ..transport.tcp import TcpReceiver, TcpSender

        spec = fabric_mixed_spec(
            config, arrival_s, load=load, churn=churn,
            num_tenants=num_tenants, udp_gbps=udp_gbps, aq_share=aq_share,
            packet_size=packet_size,
        )
        policy = policy_for_cc(cc, ecn_threshold_bytes=MIXED_ECN_THRESHOLD_BYTES)

        # AQ slices on owned ToRs, in global slice order. Pipelines are
        # created lazily per ToR the first time a slice lands on it.
        from ..core.aq import AugmentedQueue

        pipelines: Dict[str, AqPipeline] = {}
        pipeline_of: Dict[int, AqPipeline] = {}
        for entry in spec["aq_slices"]:
            tor_index = entry["tor_index"]
            tor = config.tor_name(
                tor_index // config.tors_per_pod,
                tor_index % config.tors_per_pod,
            )
            if not tree.owns(tor):
                continue
            pipeline = pipelines.get(tor)
            if pipeline is None:
                pipeline = pipelines[tor] = AqPipeline(net.switches[tor])
            aq = AugmentedQueue(
                entry["aq_id"],
                entry["rate_bps"],
                entry["limit_bytes"],
                policy=policy,
                entity=f"tenant{entry['tenant']}",
                telemetry=net.telemetry,
            )
            aq_by_id[entry["aq_id"]] = aq
            pipeline_of[entry["aq_id"]] = pipeline
            pipeline.deploy(aq, INGRESS)

        # Churn: withdraw/redeploy grants and rebalance survivor rates at
        # identical sim times on every partition (disjoint AQ state, so
        # same-time ordering across partitions cannot matter).
        for event in spec["churn"]:
            when = event["time"]
            for aq_id in event["withdraw"]:
                aq = aq_by_id.get(aq_id)
                if aq is None:
                    continue

                def _withdraw(aq_id=aq_id):
                    pipeline_of[aq_id].withdraw(aq_id, INGRESS)

                net.sim.schedule_at(when, _withdraw)
            for aq_id in event["deploy"]:
                aq = aq_by_id.get(aq_id)
                if aq is None:
                    continue

                def _deploy(aq=aq, aq_id=aq_id):
                    pipeline_of[aq_id].deploy(aq, INGRESS)

                net.sim.schedule_at(when, _deploy)
            for aq_id_str in sorted(event["rates"], key=int):
                aq = aq_by_id.get(int(aq_id_str))
                if aq is None:
                    continue

                def _rebalance(aq=aq, rate=event["rates"][aq_id_str]):
                    aq.set_rate(net.sim.now, rate)

                net.sim.schedule_at(when, _rebalance)

        # The aggressor's CBR flows (AQ-tagged UDP).
        instantiate_udp(spec["udp_flows"])

        # TCP flows, receiver before sender (the receiver must be
        # registered on its host before the first data packet arrives;
        # the sender's first event is its own start_time).
        for flow in spec["tcp_flows"]:
            fid = flow["flow_id"]
            if tree.owns(flow["dst"]):
                tcp_receivers[fid] = TcpReceiver(
                    net.sim, net.hosts[flow["dst"]], flow["src"], fid,
                )
            if tree.owns(flow["src"]):
                tcp_senders[fid] = TcpSender(
                    net.sim,
                    net.hosts[flow["src"]],
                    flow["dst"],
                    fid,
                    make_cc(cc),
                    size_bytes=flow["size_bytes"],
                    start_time=flow["start_time"],
                    aq_ingress_id=flow["aq_ingress_id"],
                )
                tcp_meta[fid] = flow

    if traffic == "udp":
        instantiate_udp(fabric_flows(config, intra_gbps, cross_gbps, packet_size))
    else:
        build_mixed()

    def finalize() -> dict:
        result = {
            "delivered_bytes": {
                str(fid): sink.delivered_bytes for fid, sink in sinks.items()
            },
            "delivered_packets": {
                str(fid): sink.delivered_packets for fid, sink in sinks.items()
            },
            "sent_bytes": {
                str(fid): s.bytes_sent for fid, s in senders.items()
            },
            "switches": {
                name: [
                    sw.stats.forwarded_packets,
                    sw.stats.ingress_dropped_packets,
                    sw.stats.queue_dropped_packets,
                ]
                for name, sw in net.switches.items()
            },
            "cut_links": {
                cut.name: net.links[cut.name].stats.delivered_packets
                for cut in plan.cut_links()
                if cut.src_partition == partition
            },
            "events": net.sim.events_processed,
        }
        if traffic == "mixed":
            result["tcp"] = {
                str(fid): [
                    tcp_meta[fid]["tenant"],
                    tcp_meta[fid]["size_bytes"],
                    1 if sender.completed else 0,
                    sender.stats.completion_time,
                    sender.stats.retransmissions,
                    sender.stats.timeouts,
                    sender.stats.fast_retransmits,
                    sender.stats.segments_sent,
                    sender.stats.bytes_sent,
                ]
                for fid, sender in tcp_senders.items()
            }
            result["tcp_recv"] = {
                str(fid): [
                    receiver.delivered_bytes,
                    receiver.acks_sent,
                    1 if receiver.fin_received else 0,
                ]
                for fid, receiver in tcp_receivers.items()
            }
            result["aq"] = {
                str(aq_id): [
                    aq.stats.arrived_packets,
                    aq.stats.arrived_bytes,
                    aq.stats.dropped_packets,
                    aq.stats.marked_packets,
                ]
                for aq_id, aq in aq_by_id.items()
            }
        return result

    return runtime, finalize


#: Scalar result keys that add across partitions; everything else is a
#: dict whose keys must be disjoint between partitions.
_MERGE_SUM_KEYS = ("events",)


def merge_results(slices: List[dict]) -> dict:
    """Union the disjoint per-partition result slices into the fabric-
    wide result. The merge is data-driven: scalar counters in
    :data:`_MERGE_SUM_KEYS` add, every other key is a dict union whose
    per-partition key sets must be disjoint (each endpoint/switch/AQ is
    owned by exactly one partition)."""
    merged: dict = {"events": 0}
    for part in slices:
        for key, value in part.items():
            if key in _MERGE_SUM_KEYS:
                merged[key] = merged.get(key, 0) + value
                continue
            bucket = merged.setdefault(key, {})
            overlap = bucket.keys() & value.keys()
            if overlap:
                raise ConfigurationError(
                    f"partition result slices overlap on {key}: "
                    f"{sorted(overlap)[:5]}"
                )
            bucket.update(value)
    return {
        key: dict(sorted(value.items())) if isinstance(value, dict) else value
        for key, value in sorted(merged.items())
    }


def fabric_fct_summary(merged: dict, config: FatTreeConfig) -> Optional[dict]:
    """Fabric-wide per-tenant FCT/slowdown and fairness summary.

    Built from the merged ``tcp`` result slice (so it covers every
    partition), using one :class:`~repro.stats.fct.FctCollector` per
    tenant with the host line rate as the reference and the cross-pod
    round trip as the base RTT. Flows still running at end of run carry
    no completion record; they are counted but excluded from slowdowns.
    Returns ``None`` for runs without TCP traffic.
    """
    tcp = merged.get("tcp")
    if not tcp:
        return None
    from ..stats.fairness import jain_index
    from ..stats.fct import FctCollector

    base_rtt = 2 * (
        2 * config.host_prop_delay
        + 2 * config.pod_prop_delay
        + 2 * config.core_prop_delay
    )

    def collector() -> FctCollector:
        return FctCollector(config.host_rate_bps, base_rtt=base_rtt)

    recv = merged.get("tcp_recv") or {}
    overall = collector()
    per_tenant: Dict[int, FctCollector] = {}
    totals: Dict[int, dict] = {}
    for fid in sorted(tcp, key=int):
        tenant, size, completed, fct, retrans, timeouts, fastrtx = tcp[fid][:7]
        bucket = totals.setdefault(tenant, {
            "flows": 0, "completed": 0, "retransmissions": 0,
            "timeouts": 0, "fast_retransmits": 0, "goodput_bytes": 0,
        })
        bucket["flows"] += 1
        bucket["retransmissions"] += retrans
        bucket["timeouts"] += timeouts
        bucket["fast_retransmits"] += fastrtx
        row = recv.get(fid)
        if row:
            bucket["goodput_bytes"] += row[0]
        if completed and fct > 0:
            bucket["completed"] += 1
            per_tenant.setdefault(tenant, collector()).record(size, fct)
            overall.record(size, fct)

    tenants: Dict[str, dict] = {}
    for tenant in sorted(totals):
        entry = dict(totals[tenant])
        coll = per_tenant.get(tenant)
        if coll is not None:
            entry["slowdown"] = coll.overall_summary()
            entry["slowdown_bins"] = coll.summary()
        tenants[str(tenant)] = entry
    goodputs = [totals[t]["goodput_bytes"] for t in sorted(totals)]
    summary: dict = {
        "tenants": tenants,
        "overall": {
            "flows": sum(t["flows"] for t in totals.values()),
            "completed": len(overall),
            "slowdown": overall.overall_summary(),
            "slowdown_bins": overall.summary(),
        },
        "fairness": {
            # Jain's index of an all-idle run is undefined, not 1.0.
            "jain_goodput": jain_index(goodputs) if any(goodputs) else None,
            "goodput_bytes": {str(t): totals[t]["goodput_bytes"]
                              for t in sorted(totals)},
        },
    }
    return summary


def fabric_digest(merged: dict) -> str:
    """Canonical hash of a merged result — the equivalence currency of
    the ``shard/equiv/*`` jobs: identical across shard counts."""
    blob = json.dumps(merged, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def filter_fault_plan(
    plan_dict: dict, plan: FatTreePlan, partition: int
) -> dict:
    """Restrict a fault plan to the events whose target lives in
    ``partition`` (targets with no node, e.g. controller partitions, go
    to partition 0). Filtering preserves order, and the union over all
    partitions is exactly the original plan — so per-partition injectors
    reproduce the single-process schedule."""
    full = FaultPlan.from_dict(plan_dict)
    kept = [
        event
        for event in full.events
        if (plan.owner_of_target(event.target) if event.target is not None else 0)
        == partition
    ]
    return FaultPlan(seed=full.seed, events=kept).to_dict()


def partition_plan_summary(plan: FatTreePlan) -> dict:
    """JSON-safe description of a partition plan for the run manifest."""
    return {
        "shards": plan.shards,
        "lookahead": plan.lookahead,
        "cut_links": [
            {
                "link_id": cut.link_id,
                "src": cut.src,
                "dst": cut.dst,
                "src_partition": cut.src_partition,
                "dst_partition": cut.dst_partition,
            }
            for cut in plan.cut_links()
        ],
    }


#: Worker-report keys indexed in the manifest; the bulky ``result`` slices
#: and ``metrics`` snapshots are merged into report.json / metrics.json.
_MANIFEST_WORKER_KEYS = (
    "partition", "status", "error", "wall_s", "events", "exported_packets",
    "imported_packets", "audit", "timewin", "flights",
)


def _manifest_workers(workers: List[dict]) -> List[dict]:
    return [
        {key: worker[key] for key in _MANIFEST_WORKER_KEYS
         if worker.get(key) is not None}
        for worker in workers
    ]


def run_share_fabric(
    shards: int,
    duration: float,
    inline: bool = False,
    audit: bool = False,
    timewin_dir: Optional[str] = None,
    timewin_params: Optional[dict] = None,
    fault_plan: Optional[dict] = None,
    run_dir: Optional[str] = None,
    timewin: Optional[bool] = None,
    timewin_budget: Optional[int] = None,
    flight_dir: Optional[str] = None,
    heartbeat: Optional[bool] = None,
    on_heartbeat: Optional[Callable[[dict], None]] = None,
    **config_kwargs,
) -> dict:
    """Run the scenario at ``shards`` partitions and return the merged,
    digestable report.

    ``inline=True`` drives every partition in this process via
    :func:`~repro.sim.shard.run_inline` — required inside daemonic
    harness workers (which may not spawn children) and used by the
    equivalence tests; ``inline=False`` spawns one worker process per
    partition via :func:`~repro.sim.shard.run_sharded`. Both build every
    partition as a :class:`~repro.sim.shard.PartitionSession` (telemetry,
    fault-plan slice, report), so digests, worker reports and artifacts
    are identical by construction.

    The observability plane hangs off ``run_dir``: when set, the run
    writes a ledgered directory (:class:`repro.obs.runledger.RunLedger`)
    with a ``fabric-run/1`` manifest, a live ``health.jsonl`` heartbeat
    timeline, the merged ``metrics.json``, and auto-stitched window (and
    flight) dumps. Time windows are then **on by default** (the
    default-on plane of docs/OBSERVABILITY.md) under ``timewin_budget``
    bytes per port; pass ``timewin=False`` to opt out. Every layer is
    digest-neutral: the report's ``digest`` is identical with the plane
    fully on or fully off, at any shard count (the ``shard/obs/*`` jobs
    assert this).
    """
    from ..obs.runledger import RunLedger

    ledger = RunLedger(run_dir) if run_dir is not None else None

    if timewin is None:
        timewin = timewin_dir is not None or ledger is not None
    if timewin and timewin_dir is None:
        if ledger is None:
            raise ConfigurationError(
                "timewin=True needs a timewin_dir or run_dir to dump into"
            )
        timewin_dir = ledger.path("windows")
    if not timewin:
        timewin_dir = None
    params = dict(timewin_params or {})
    if timewin_budget is not None:
        from ..obs.timewin import params_for_budget

        solved = params_for_budget(timewin_budget, window_s=params.get("window_s"))
        solved.update(params)  # explicit params override the solver
        params = solved
    timewin_params = params or None
    if heartbeat is None:
        heartbeat = ledger is not None

    health_sink = ledger.health_writer() if ledger and heartbeat else None

    def handle_frame(frame: dict) -> None:
        if health_sink is not None:
            health_sink(frame)
        if on_heartbeat is not None:
            on_heartbeat(frame)

    if config_kwargs.get("traffic") == "mixed" and not config_kwargs.get("arrival_s"):
        # Arrivals span the whole run unless the caller pins the window.
        config_kwargs = dict(config_kwargs, arrival_s=duration)
    config = fabric_config(**{
        k: config_kwargs[k]
        for k in ("pods", "tors_per_pod", "hosts_per_tor", "num_cores", "seed")
        if k in config_kwargs
    })
    plan = FatTreePlan(config, shards)
    fault_slices: Optional[List[Optional[dict]]] = None
    if fault_plan is not None:
        fault_slices = [
            filter_fault_plan(fault_plan, plan, i) for i in range(shards)
        ]

    report: dict = {
        "scenario": "share-fabric",
        "shards": shards,
        "duration": duration,
        "lookahead": plan.lookahead,
        "mode": "inline" if inline else "spawn",
    }
    manifest: dict = {}
    if ledger is not None:
        manifest = {
            "scenario": "share-fabric",
            "created_unix": time.time(),
            "shards": shards,
            "duration": duration,
            "mode": report["mode"],
            "config": dict(config_kwargs),
            "partition_plan": partition_plan_summary(plan),
            "observability": {
                "audit": audit,
                "heartbeat": heartbeat,
                "timewin": timewin_dir is not None,
                "timewin_params": timewin_params,
                "timewin_budget_bytes": timewin_budget,
                "flights": flight_dir is not None,
            },
        }
        ledger.begin(manifest)
        report["run_dir"] = ledger.run_dir

    t0 = time.perf_counter()
    try:
        run = (run_inline if inline else run_sharded)(
            BUILDER_TARGET,
            config_kwargs,
            shards,
            duration,
            plan.lookahead,
            audit=audit,
            timewin_dir=timewin_dir,
            timewin_params=timewin_params,
            fault_plans=fault_slices,
            heartbeat=heartbeat,
            flight_dir=flight_dir,
            on_heartbeat=handle_frame,
        )
    except BaseException as exc:
        if ledger is not None:
            # Index the failure before flipping the manifest to "failed":
            # the traceback (and, for spawn runs, each worker's partial
            # report incl. its own traceback) must be readable from the
            # ledger — a crashed run must never leave status "running".
            import traceback as _traceback

            manifest["error"] = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": "".join(_traceback.format_exception(
                    type(exc), exc, exc.__traceback__, limit=30
                )),
            }
            worker_reports = getattr(exc, "worker_reports", None)
            if worker_reports:
                manifest["workers"] = _manifest_workers(worker_reports)
            if health_sink is not None:
                ledger.close_health()
            ledger.finalize(manifest, status="failed")
        raise

    report["wall_s"] = time.perf_counter() - t0
    report["epochs"] = run.epochs
    workers = run.workers
    merged = merge_results(run.results())
    report["results"] = merged
    report["digest"] = fabric_digest(merged)
    fct = fabric_fct_summary(merged, config)
    if fct is not None:
        report["fct"] = fct
    report["boundary"] = {
        "exported": sum(w["exported_packets"] for w in workers),
        "imported": sum(w["imported_packets"] for w in workers),
    }
    if audit:
        verdicts = [w["audit"] for w in workers]
        report["audit"] = {
            "violation_count": sum(v["violation_count"] for v in verdicts),
            "events_seen": sum(v["events_seen"] for v in verdicts),
            "per_partition": verdicts,
        }
    if timewin_dir is not None:
        report["timewin_paths"] = [w["timewin_path"] for w in workers]
    if flight_dir is not None:
        report["flight_paths"] = [w["flight_path"] for w in workers]
    if heartbeat:
        report["heartbeat_frames"] = len(run.heartbeats)

    if ledger is not None:
        from ..obs.metrics import merge_metrics_snapshots
        from ..obs.timewin import stitch_window_dumps

        artifacts: dict = {"report": "report.json"}
        if health_sink is not None:
            ledger.close_health()
            artifacts["health"] = "health.jsonl"
        snapshots = [w["metrics"] for w in workers if w.get("metrics")]
        merged_metrics = merge_metrics_snapshots(snapshots)
        if fct is not None:
            merged_metrics["fct"] = fct
        ledger.write_json("metrics.json", merged_metrics)
        artifacts["metrics"] = "metrics.json"
        if report.get("timewin_paths"):
            stitched = stitch_window_dumps(
                report["timewin_paths"],
                out_path=ledger.path("windows.stitched.jsonl"),
            )
            artifacts["windows"] = [
                ledger.relpath(p) for p in report["timewin_paths"]
            ]
            artifacts["windows_stitched"] = "windows.stitched.jsonl"
            report["timewin_merged_path"] = ledger.path("windows.stitched.jsonl")
            report["timewin_ports"] = len(stitched.ports())
        if report.get("flight_paths"):
            from ..obs.flightrec import stitch_flight_dumps

            stitched_flights = stitch_flight_dumps(
                report["flight_paths"],
                out_path=ledger.path("flights.stitched.jsonl"),
            )
            artifacts["flights"] = [
                ledger.relpath(p) for p in report["flight_paths"]
            ]
            artifacts["flights_stitched"] = "flights.stitched.jsonl"
            report["flights_stitched_path"] = ledger.path("flights.stitched.jsonl")
            report["flights_stitched"] = len(stitched_flights)
        ledger.write_json("report.json", report)
        manifest["artifacts"] = artifacts
        manifest["digests"] = {"fabric_digest": report["digest"]}
        manifest["epochs"] = report["epochs"]
        manifest["wall_s"] = report["wall_s"]
        manifest["boundary"] = report["boundary"]
        manifest["lookahead"] = report["lookahead"]
        if audit:
            manifest["audit"] = {
                "violation_count": report["audit"]["violation_count"],
                "events_seen": report["audit"]["events_seen"],
            }
        manifest["workers"] = _manifest_workers(workers)
        manifest["heartbeat_frames"] = len(run.heartbeats)
        report["manifest_path"] = ledger.finalize(manifest)
    return report
