"""Output-queued switch with programmable ingress/egress pipelines.

The model mirrors the paper's deployment surface (Section 4.2):

* **ingress pipeline hooks** run when a packet arrives at the switch,
  before it is placed in the output port's physical FIFO queue — this is
  where ingress-position AQs match on ``aq_ingress_id``;
* **egress pipeline hooks** run at dequeue time on the output port's
  transmitter (see :class:`~repro.net.link.Transmitter`) — this is where
  egress-position AQs match on ``aq_egress_id``.

Forwarding is static next-hop routing installed by the topology builder.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ConfigurationError, RoutingError
from ..obs.probe import bind_probe
from ..queues.base import QueueDiscipline
from .link import Link, PipelineHook, Transmitter
from .packet import Packet


class SwitchPort:
    """One output port: a physical queue plus the line's transmitter."""

    def __init__(self, sim, name: str, queue: QueueDiscipline, link: Link) -> None:
        self.name = name
        self.queue = queue
        self.link = link
        self.transmitter = Transmitter(sim, queue, link, name=name)
        #: Packets the queue discipline refused at enqueue (egress drops).
        self.queue_dropped_packets = 0

    def add_egress_hook(self, hook: PipelineHook) -> None:
        self.transmitter.add_egress_hook(hook)


class SwitchStats:
    """Aggregate forwarding counters."""

    __slots__ = (
        "received_packets",
        "forwarded_packets",
        "ingress_dropped_packets",
        "queue_dropped_packets",
        "restarts",
        "restart_drained_packets",
        "restart_drained_bytes",
    )

    def __init__(self) -> None:
        self.received_packets = 0
        self.forwarded_packets = 0
        self.ingress_dropped_packets = 0
        self.queue_dropped_packets = 0
        self.restarts = 0
        self.restart_drained_packets = 0
        self.restart_drained_bytes = 0


class Switch:
    """A store-and-forward switch with per-port FIFO queues."""

    def __init__(self, sim, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: Dict[str, SwitchPort] = {}
        self._routes: Dict[str, SwitchPort] = {}
        self.ingress_hooks: List[PipelineHook] = []
        self.stats = SwitchStats()
        self._probe = bind_probe(sim.telemetry, name)
        if self._probe is not None:
            sim.telemetry.metrics.add_collector(self._collect_metrics)

    def _collect_metrics(self, registry) -> None:
        stats = self.stats
        registry.counter("switch_received_packets", switch=self.name).set(
            stats.received_packets
        )
        registry.counter("switch_forwarded_packets", switch=self.name).set(
            stats.forwarded_packets
        )
        registry.counter("switch_ingress_dropped_packets", switch=self.name).set(
            stats.ingress_dropped_packets
        )
        registry.counter("switch_queue_dropped_packets", switch=self.name).set(
            stats.queue_dropped_packets
        )
        for port in self.ports.values():
            registry.counter("port_queue_dropped_packets", port=port.name).set(
                port.queue_dropped_packets
            )
            registry.gauge("port_backlog_bytes", port=port.name).set(
                port.queue.bytes_queued
            )

    # -- wiring ------------------------------------------------------------------

    def add_port(self, port_name: str, queue: QueueDiscipline, link: Link) -> SwitchPort:
        if port_name in self.ports:
            raise ConfigurationError(f"switch {self.name} already has port {port_name}")
        port = SwitchPort(self.sim, f"{self.name}.{port_name}", queue, link)
        self.ports[port_name] = port
        if self._probe is not None:
            # Pre-register under the port's wire name so idle ports answer
            # window queries as empty rather than unknown. Queues built
            # with their own name register themselves too; an unnamed
            # queue's traffic still lands under that name only if the
            # queue was constructed with it, which the topology builders
            # guarantee.
            self._probe.register_port(port.name)
            queue_name = getattr(queue, "name", "")
            if queue_name:
                self._probe.register_port(queue_name)
        return port

    def add_route(self, dst: str, port_name: str) -> None:
        port = self.ports.get(port_name)
        if port is None:
            raise ConfigurationError(
                f"switch {self.name} has no port {port_name} for route to {dst}"
            )
        self._routes[dst] = port

    def route_for(self, dst: str, packet: Optional[Packet] = None) -> SwitchPort:
        """Next-hop lookup. The packet is passed so multi-path variants
        (ECMP in :mod:`repro.topology.leafspine`) can hash on flow fields;
        the base implementation ignores it."""
        port = self._routes.get(dst)
        if port is None:
            raise RoutingError(f"switch {self.name} has no route to {dst}")
        return port

    def add_ingress_hook(self, hook: PipelineHook) -> None:
        self.ingress_hooks.append(hook)

    # -- fault injection ---------------------------------------------------------

    def restart(self) -> dict:
        """Power-cycle the switch: every port queue's backlog is lost.

        Buffered packets are drained as drops attributed to
        ``"switch_restart"`` (so the conservation auditor charges them to
        the fault window, not to a ledger error). The per-AQ register
        state lives in the controller-owned pipeline hooks; wiping and
        redeploying it is the fault injector's job, since the switch has
        no handle on the control plane.
        """
        now = self.sim.now
        drained_packets = 0
        drained_bytes = 0
        for port in self.ports.values():
            for packet in port.queue.drain(now, "switch_restart"):
                drained_packets += 1
                drained_bytes += packet.size
        stats = self.stats
        stats.restarts += 1
        stats.restart_drained_packets += drained_packets
        stats.restart_drained_bytes += drained_bytes
        return {
            "drained_packets": drained_packets,
            "drained_bytes": drained_bytes,
        }

    # -- data path ------------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Link-delivery handler: ingress pipeline, route, enqueue."""
        self.stats.received_packets += 1
        now = self.sim.now
        for hook in self.ingress_hooks:
            if not hook(packet, now):
                # Ingress discard (an ingress-position AQ limit-drop). The
                # hook recorded *why*; the switch knows *where*, so it seals
                # the flight with its own name as the drop site.
                self.stats.ingress_dropped_packets += 1
                if self._probe is not None:
                    self._probe.sealed(packet, now, "dropped")
                return
        port = self.route_for(packet.dst, packet)
        self.stats.forwarded_packets += 1
        if not port.transmitter.offer(packet):
            # The queue discipline refused the packet: an egress drop. The
            # queue's own stats (and trace events) record the details; the
            # switch keeps the aggregate so drops are visible per device.
            port.queue_dropped_packets += 1
            self.stats.queue_dropped_packets += 1
