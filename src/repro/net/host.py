"""End hosts.

A :class:`Host` owns a NIC (egress queue + transmitter onto its access
link), an optional *shaper chain* in front of the NIC (where the PRL/DRL
baselines live — rate limiting at end hosts, exactly as the paper's
baselines do), and a demux table delivering received packets to transport
endpoints by flow ID.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol

from ..errors import ConfigurationError, RoutingError
from ..obs.probe import bind_probe
from ..queues.fifo import PhysicalFifoQueue
from .link import Link, Transmitter
from .packet import Packet

#: Generous host egress buffer; hosts are not the bottleneck under study.
DEFAULT_NIC_BUFFER_BYTES = 32 * 1024 * 1024


class FlowEndpoint(Protocol):
    """Anything that can consume packets addressed to a flow."""

    def on_packet(self, packet: Packet, now: float) -> None: ...


class Shaper(Protocol):
    """An egress shaper (token bucket, ElasticSwitch pair limiter, ...).

    ``submit`` either forwards the packet immediately, holds it for later
    release, or drops it; releases go to the ``forward`` callable given at
    construction/installation time.
    """

    def submit(self, packet: Packet) -> None: ...


class Host:
    """A server with one access link."""

    def __init__(self, sim, name: str, nic_buffer_bytes: int = DEFAULT_NIC_BUFFER_BYTES):
        self.sim = sim
        self.name = name
        self._endpoints: Dict[int, FlowEndpoint] = {}
        self._default_endpoint: Optional[FlowEndpoint] = None
        self._nic_queue = PhysicalFifoQueue(
            nic_buffer_bytes, name=f"{name}.nic", telemetry=sim.telemetry
        )
        self._probe = bind_probe(sim.telemetry, name)
        #: Packets the NIC queue refused at enqueue (host egress drops).
        self.nic_dropped_packets = 0
        self._transmitter: Optional[Transmitter] = None
        self._shaper: Optional[Shaper] = None
        #: Called for every packet handed to the wire path (after shaping).
        self.on_transmit: Optional[Callable[[Packet], None]] = None
        #: Observers called for every packet delivered to this host.
        self.receive_taps: list = []

    # -- wiring -----------------------------------------------------------------

    def attach_link(self, link: Link) -> None:
        """Connect the NIC to the access link (done by the topology builder)."""
        if self._transmitter is not None:
            raise ConfigurationError(f"host {self.name} already has an access link")
        self._transmitter = Transmitter(
            self.sim, self._nic_queue, link, name=f"{self.name}.nic"
        )

    def install_shaper(self, shaper: Shaper) -> None:
        """Place a shaper in front of the NIC (PRL/DRL baselines)."""
        self._shaper = shaper

    def remove_shaper(self) -> None:
        self._shaper = None

    @property
    def nic_queue(self) -> PhysicalFifoQueue:
        return self._nic_queue

    @property
    def transmitter(self) -> Transmitter:
        if self._transmitter is None:
            raise ConfigurationError(f"host {self.name} has no access link")
        return self._transmitter

    # -- sending -------------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Entry point for transports: shape (if any), then hit the NIC."""
        if self._shaper is not None:
            self._shaper.submit(packet)
        else:
            self.forward_to_nic(packet)

    def forward_to_nic(self, packet: Packet) -> None:
        """Bypass shaping and enqueue directly on the NIC (shaper release path).

        This is the injection point the conservation auditor counts:
        a ``host_send`` event fires here (post-shaper, so shaper discards
        never enter the in-flight ledger) and, with flight recording on,
        the packet is armed with its in-band hop-record header.
        """
        if self.on_transmit is not None:
            self.on_transmit(packet)
        if self._probe is not None:
            self._probe.sent(packet, self.sim.now)
        if not self.transmitter.offer(packet):
            self.nic_dropped_packets += 1

    # -- receiving --------------------------------------------------------------------

    def register_flow(self, flow_id: int, endpoint: FlowEndpoint) -> None:
        if flow_id in self._endpoints:
            raise ConfigurationError(
                f"flow {flow_id} already registered on host {self.name}"
            )
        self._endpoints[flow_id] = endpoint

    def unregister_flow(self, flow_id: int) -> None:
        self._endpoints.pop(flow_id, None)

    def set_default_endpoint(self, endpoint: FlowEndpoint) -> None:
        """Catch-all receiver for flows without a dedicated endpoint."""
        self._default_endpoint = endpoint

    def receive(self, packet: Packet) -> None:
        """Link-delivery handler: demux to the owning endpoint."""
        if packet.dst != self.name:
            raise RoutingError(
                f"packet for {packet.dst} delivered to host {self.name}"
            )
        now = self.sim.now
        probe = self._probe
        if probe is not None:
            probe.delivered(packet, now)
        for tap in self.receive_taps:
            tap(packet, now)
        endpoint = self._endpoints.get(packet.flow_id, self._default_endpoint)
        if endpoint is not None:
            endpoint.on_packet(packet, self.sim.now)
        # Packets for unknown flows are silently dropped, like a real host
        # RST-ing a stale connection; tests assert on endpoint coverage.
        # The flight completes *after* endpoint dispatch so receivers can
        # still read the in-band header (to build the ACK digest echo).
        if probe is not None:
            probe.sealed(packet, now, "delivered")
