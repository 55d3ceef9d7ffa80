"""Shared experiment plumbing: entity specs and per-approach wiring.

Every evaluation scenario compares the same four approaches (Section 5.1):

* ``pq``  — plain physical queues (the baseline the paper criticizes),
* ``aq``  — Augmented Queues deployed at the bottleneck switch,
* ``prl`` — pre-determined rate limiters at end hosts (HTB-style),
* ``drl`` — dynamic rate limiters at end hosts (ElasticSwitch-style).

:func:`install_sharing` applies one approach to a built dumbbell/star
network for a set of entities and returns a :class:`SharingEnv` the
scenario uses to construct correctly-tagged flows.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from ..cc.base import CongestionControl
from ..cc.registry import make_cc
from ..core.controller import AqController, AqGrant, AqRequest
from ..core.feedback import drop_policy, policy_for_cc
from ..errors import ConfigurationError
from ..obs.telemetry import Telemetry
from ..ratelimit.dynamic import DynamicVmAllocator
from ..ratelimit.token_bucket import TokenBucketShaper
from ..units import MTU_BYTES, gbps, us

PQ = "pq"
AQ = "aq"
PRL = "prl"
DRL = "drl"
APPROACHES = (PQ, AQ, PRL, DRL)

#: The DCTCP marking threshold the paper's era uses at 10 Gbps: 65 packets.
ECN_THRESHOLD_PACKETS_AT_10G = 65
#: Physical queue depth used across experiments (packets).
QUEUE_LIMIT_PACKETS = 200
#: Swift's delay target, floored at 25 packet serialization times so the
#: algorithm has headroom at low allocated rates.
SWIFT_TARGET_FLOOR_PACKETS = 25


@dataclass
class EntitySpec:
    """One entity of an experiment (application / CC aggregate / VM group)."""

    name: str
    cc: str = "cubic"  # a registered CC name, or "udp"
    weight: float = 1.0
    num_vms: int = 1
    num_flows: int = 1
    udp_rate_bps: Optional[float] = None  # defaults to the bottleneck rate
    start_time: float = 0.0
    stop_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigurationError(f"entity {self.name}: weight must be positive")
        if self.num_vms < 1 or self.num_flows < 1:
            raise ConfigurationError(
                f"entity {self.name}: num_vms and num_flows must be >= 1"
            )

    @property
    def is_udp(self) -> bool:
        return self.cc.lower() == "udp"


@contextlib.contextmanager
def telemetry_session(
    jsonl_path: Optional[str] = None,
    profile: bool = False,
    ring_capacity: Optional[int] = None,
    summary: bool = False,
    flight_path: Optional[str] = None,
    audit: bool = False,
    flight_max: Optional[int] = None,
    timewin: bool = False,
    timewin_path: Optional[str] = None,
    timewin_window_s: Optional[float] = None,
    timewin_num_windows: Optional[int] = None,
    timewin_slots_log2: Optional[int] = None,
    metrics: bool = False,
) -> Iterator[Optional[Telemetry]]:
    """Ambiently instrument every simulator built inside the ``with`` body.

    This is the one constructor of an instrumented run: the CLI, the
    ``run-all`` worker, every shard partition
    (:class:`~repro.sim.shard.PartitionSession`) and the self-auditing
    jobs all build their telemetry here and read the verdict off
    :meth:`Telemetry.report() <repro.obs.telemetry.Telemetry.report>`.
    Yields the active :class:`Telemetry` (or ``None`` when every option is
    off, so callers can wrap unconditionally::

        with telemetry_session(jsonl_path=args.telemetry) as tele:
            run_cc_pair(...)

    ``flight_path`` installs the INT flight recorder (streaming completed
    flights to that JSONL file; ``flight_max`` bounds it to a most-recent
    ring); ``audit`` attaches a conservation-law
    :class:`~repro.obs.RunAuditor`; ``timewin``/``timewin_path`` install
    the fixed-memory time-window recorder (dumping retained windows to
    ``timewin_path`` on exit), with ``timewin_window_s`` /
    ``timewin_num_windows`` / ``timewin_slots_log2`` overriding the
    1 ms x 32 windows x 64 slots ring; ``metrics`` asks for the bare
    metrics registry with nothing else attached. Sinks are flushed/closed
    on exit.
    """
    want_timewin = timewin or timewin_path is not None
    if (
        jsonl_path is None and not profile and ring_capacity is None
        and not summary and flight_path is None and not audit
        and not want_timewin and not metrics
    ):
        yield None
        return
    tele = Telemetry(enabled=True, profile=profile)
    if jsonl_path is not None:
        tele.add_jsonl(jsonl_path)
    if ring_capacity is not None:
        tele.add_ring(ring_capacity)
    if summary:
        tele.add_summary()
    if flight_path is not None:
        tele.enable_flight_recording(flight_path, max_flights=flight_max)
    if audit:
        tele.enable_audit()
    if want_timewin:
        tele.enable_time_windows(
            window_s=timewin_window_s, num_windows=timewin_num_windows,
            slots_log2=timewin_slots_log2,
        )
    try:
        with tele.activate():
            yield tele
    finally:
        tele.close()
        if timewin_path is not None:
            tele.timewin.dump_jsonl(timewin_path)


def telemetry_from_env() -> "contextlib.AbstractContextManager[Optional[Telemetry]]":
    """:func:`telemetry_session` configured from the environment — the hook
    benchmarks use so ``REPRO_TELEMETRY=out.jsonl pytest benchmarks/...``
    instruments a run without touching benchmark code. Recognized:
    ``REPRO_TELEMETRY`` (JSONL path), ``REPRO_PROFILE`` (any non-empty
    value attaches the profiler). Example::

        REPRO_PROFILE=1 python -m pytest benchmarks/bench_figures.py \\
            --benchmark-only -k fig9   # hotspots print via the profiler
    """
    return telemetry_session(
        jsonl_path=os.environ.get("REPRO_TELEMETRY") or None,
        profile=bool(os.environ.get("REPRO_PROFILE")),
    )


def ecn_threshold_bytes(rate_bps: float) -> int:
    """Marking threshold proportional to the (line or allocated) rate,
    preserving the ~queueing-delay target of 65 packets at 10 Gbps."""
    scaled = ECN_THRESHOLD_PACKETS_AT_10G * MTU_BYTES * rate_bps / gbps(10)
    return max(int(scaled), 8 * MTU_BYTES)


def swift_target_delay(rate_bps: float) -> float:
    """Swift's target fabric delay, floored for low rates."""
    return max(us(50), SWIFT_TARGET_FLOOR_PACKETS * MTU_BYTES * 8.0 / rate_bps)


def queue_limit_bytes() -> int:
    return QUEUE_LIMIT_PACKETS * MTU_BYTES


class SharingEnv:
    """The result of wiring one approach onto a network for some entities."""

    def __init__(
        self,
        approach: str,
        entities: Sequence[EntitySpec],
        bottleneck_bps: float,
        network=None,
    ) -> None:
        self.approach = approach
        #: The network the approach was installed on.
        self.network = network
        self.entities = {spec.name: spec for spec in entities}
        self.bottleneck_bps = bottleneck_bps
        total_weight = sum(spec.weight for spec in entities)
        #: The weighted fair share each entity is entitled to.
        self.share_bps: Dict[str, float] = {
            spec.name: bottleneck_bps * spec.weight / total_weight
            for spec in entities
        }
        self.controller: Optional[AqController] = None
        self.grants: Dict[str, AqGrant] = {}
        self.allocators: List[DynamicVmAllocator] = []
        self.shapers: List[TokenBucketShaper] = []

    # -- what flows need to know -------------------------------------------------

    def aq_ingress_id(self, entity: str) -> int:
        grant = self.grants.get(entity)
        return grant.aq_id if grant is not None else 0

    def make_cc(self, entity: str) -> CongestionControl:
        """A fresh, correctly-configured CC instance for one flow."""
        spec = self.entities[entity]
        if spec.is_udp:
            raise ConfigurationError(f"entity {entity} is UDP; it has no CC")
        name = spec.cc.lower()
        if name in ("swift", "timely"):
            rate = (
                self.share_bps[entity] if self.approach == AQ else self.bottleneck_bps
            )
            target = swift_target_delay(rate)
            if name == "swift":
                return make_cc(
                    "swift",
                    target_delay=target,
                    use_virtual_delay=(self.approach == AQ),
                )
            return make_cc(
                "timely",
                t_low=target,
                t_high=10 * target,
                use_virtual_delay=(self.approach == AQ),
            )
        return make_cc(name)


def pq_queue_ecn_threshold(
    approach: str, entities: Sequence[EntitySpec], bottleneck_bps: float
) -> Optional[int]:
    """Physical-queue ECN threshold for topology construction.

    Under AQ the physical queue must *not* mark (the AQ generates each
    entity's ECN feedback from its own A-Gap); under the other approaches
    the queue marks whenever any entity runs an ECN-based CC.
    """
    if approach == AQ:
        return None
    if any(not spec.is_udp and spec.cc.lower() == "dctcp" for spec in entities):
        return ecn_threshold_bytes(bottleneck_bps)
    return None


def install_sharing(
    network,
    bottleneck_switch: str,
    bottleneck_bps: float,
    entities: Sequence[EntitySpec],
    approach: str,
    src_hosts: Dict[str, List[str]],
    dst_hosts: Dict[str, List[str]],
    aq_limit_bytes: Optional[float] = None,
    enable_reallocation: bool = False,
    reallocation_interval: float = 10e-3,
) -> SharingEnv:
    """Apply one approach to a built network.

    ``src_hosts``/``dst_hosts`` map each entity to the hosts it sends from
    and to; PRL/DRL install per-host shapers, AQ installs weighted AQs at
    the bottleneck switch's ingress pipeline.
    """
    if approach not in APPROACHES:
        raise ConfigurationError(
            f"approach must be one of {APPROACHES}, got {approach!r}"
        )
    env = SharingEnv(approach, entities, bottleneck_bps, network)
    if approach == PQ:
        return env

    if approach == AQ:
        controller = AqController(network)
        controller.register_resource("bottleneck", bottleneck_bps)
        env.controller = controller
        limit = aq_limit_bytes if aq_limit_bytes is not None else queue_limit_bytes()
        for spec in entities:
            policy = drop_policy() if spec.is_udp else policy_for_cc(
                spec.cc, ecn_threshold_bytes(env.share_bps[spec.name])
            )
            grant = controller.request(
                AqRequest(
                    entity=spec.name,
                    switch=bottleneck_switch,
                    position="ingress",
                    weight=spec.weight,
                    share_group="bottleneck",
                    policy=policy,
                    limit_bytes=limit,
                )
            )
            env.grants[spec.name] = grant
        if enable_reallocation:
            controller.enable_weighted_reallocation(
                "bottleneck", interval=reallocation_interval
            )
        return env

    if approach == PRL:
        for spec in entities:
            hosts = src_hosts[spec.name]
            per_vm = env.share_bps[spec.name] / len(hosts)
            for host_name in hosts:
                host = network.hosts[host_name]
                shaper = TokenBucketShaper(
                    network.sim, per_vm, host.forward_to_nic
                )
                host.install_shaper(shaper)
                env.shapers.append(shaper)
        return env

    # DRL: per-VM limiters re-partitioned across each entity's VMs by
    # measured demand every 15 ms (the ElasticSwitch-style adjustment lag).
    env.allocators = []
    for spec in entities:
        env.allocators.append(
            DynamicVmAllocator(
                network, env.share_bps[spec.name], list(src_hosts[spec.name])
            )
        )
    return env
