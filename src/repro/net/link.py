"""Links and transmitters.

The sending side of every port is a :class:`Transmitter`: it owns a queue
discipline and a :class:`Link`, dequeues whenever the line is idle, runs the
port's *egress pipeline hooks* (where egress-position AQs live, matching
Tofino's ingress → traffic manager → egress layout), serializes the packet
at line rate, and hands it to the link, which applies propagation delay and
delivers to the remote handler.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..errors import ConfigurationError
from ..obs.probe import bind_probe
from .packet import Packet

#: An egress/ingress pipeline hook: ``hook(packet, now) -> bool``.
#: Returning ``False`` drops the packet (it has already left the queue).
PipelineHook = Callable[[Packet, float], bool]


class LinkStats:
    """Delivery counters for one simplex link."""

    __slots__ = (
        "delivered_packets",
        "delivered_bytes",
        "busy_time",
        "dropped_packets",
        "dropped_bytes",
        "corrupted_packets",
    )

    def __init__(self) -> None:
        self.delivered_packets = 0
        self.delivered_bytes = 0
        self.busy_time = 0.0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.corrupted_packets = 0

    def utilization(self, duration: float) -> float:
        """Fraction of ``duration`` the line spent serializing packets."""
        if duration <= 0:
            return 0.0
        return min(1.0, self.busy_time / duration)


class Link:
    """A simplex wire: fixed rate, fixed propagation delay, one receiver."""

    __slots__ = (
        "sim",
        "rate_bps",
        "prop_delay",
        "_handler",
        "name",
        "stats",
        "_faulted",
        "_down",
        "_corrupt_prob",
        "_corrupt_rng",
        "_probe",
    )

    def __init__(
        self,
        sim,
        rate_bps: float,
        prop_delay: float,
        handler: Callable[[Packet], None],
        name: str = "",
    ) -> None:
        if rate_bps <= 0:
            raise ConfigurationError(f"link rate must be positive, got {rate_bps}")
        if prop_delay < 0:
            raise ConfigurationError(f"propagation delay must be >= 0, got {prop_delay}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.prop_delay = prop_delay
        self._handler = handler
        self.name = name
        self.stats = LinkStats()
        # Fault-injection state. ``_faulted`` is the single cached flag the
        # delivery hot path checks; it is True only while the link is down
        # or corrupting, so fault-free runs pay one branch per delivery.
        self._faulted = False
        self._down = False
        self._corrupt_prob = 0.0
        self._corrupt_rng = None
        self._probe = bind_probe(sim.telemetry, name or "link")
        if self._probe is not None and name:
            sim.telemetry.metrics.add_collector(self._collect_metrics)

    def _collect_metrics(self, registry) -> None:
        stats = self.stats
        registry.counter("link_delivered_packets", link=self.name).set(
            stats.delivered_packets
        )
        registry.counter("link_delivered_bytes", link=self.name).set(
            stats.delivered_bytes
        )
        registry.gauge("link_busy_time_s", link=self.name).set(stats.busy_time)
        registry.counter("link_dropped_packets", link=self.name).set(
            stats.dropped_packets
        )

    # -- fault injection -------------------------------------------------------

    @property
    def is_down(self) -> bool:
        return self._down

    def set_down(self) -> None:
        """Take the link down: every delivery attempt is dropped until
        :meth:`set_up`. Packets already handed to the remote handler's
        event are unaffected (they were on the far side of the wire)."""
        self._down = True
        self._faulted = True

    def set_up(self) -> None:
        """Bring the link back; corruption (if configured) stays active."""
        self._down = False
        self._faulted = self._corrupt_rng is not None

    def set_corruption(self, probability: float, rng) -> None:
        """Corrupt (drop) each delivered packet with ``probability``,
        drawing from ``rng`` — the fault plan's seeded generator, so runs
        are reproducible."""
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"corruption probability must be in [0, 1], got {probability}"
            )
        self._corrupt_prob = probability
        self._corrupt_rng = rng if probability > 0.0 else None
        self._faulted = self._down or self._corrupt_rng is not None

    def clear_corruption(self) -> None:
        self._corrupt_prob = 0.0
        self._corrupt_rng = None
        self._faulted = self._down

    def _fault_drop(self, packet: Packet) -> bool:
        """Slow path behind the ``_faulted`` flag: decide and account the
        loss. Returns ``True`` when the packet must not be delivered."""
        if self._down:
            reason = "link_down"
        elif (
            self._corrupt_rng is not None
            and self._corrupt_rng.random() < self._corrupt_prob
        ):
            reason = "corrupt"
        else:
            return False
        stats = self.stats
        stats.dropped_packets += 1
        stats.dropped_bytes += packet.size
        if reason == "corrupt":
            stats.corrupted_packets += 1
        if self._probe is not None:
            self._probe.dropped(packet, self.sim.now, reason)
        return True

    def deliver(self, packet: Packet) -> None:
        """Deliver a fully-serialized packet after propagation delay."""
        if self._faulted and self._fault_drop(packet):
            return
        self.stats.delivered_packets += 1
        self.stats.delivered_bytes += packet.size
        self.sim.schedule_fire(self.prop_delay, self._handler, packet)

    def deliver_now(self, packet: Packet) -> None:
        """Hand ``packet`` to the receiver immediately (the propagation
        delay has already been folded into the caller's event time — the
        transmitter's idle-line fast path)."""
        if self._faulted and self._fault_drop(packet):
            return
        self.stats.delivered_packets += 1
        self.stats.delivered_bytes += packet.size
        self._handler(packet)


#: Per-link simulation modes (the ``LinkMode`` abstraction). ``packet`` is
#: the default discrete-event regime; ``fluid`` parks the transmitter while
#: :class:`repro.sim.fluid.FluidEngine` advances the link analytically.
MODE_PACKET = "packet"
MODE_FLUID = "fluid"


def _boundary_trap(packet: Packet) -> None:  # pragma: no cover - never called
    raise ConfigurationError("BoundaryLink delivers via capture, not a handler")


class BoundaryLink(Link):
    """The egress half of a *cut link* in a sharded run.

    A sharded fabric (:mod:`repro.sim.shard`) splits the topology between
    partitions; links whose endpoints live in different partitions cannot
    deliver in-process. This proxy keeps the sending side's full packet
    regime — queue, transmitter, serialization, fault injection — and
    replaces delivery with a *capture*: the packet plus its computed
    arrival time at the far end is appended to the epoch's outbound
    boundary batch.

    The base link's ``prop_delay`` is forced to zero and the real wire
    delay kept as :attr:`wire_delay`, so the transmitter's idle-line
    combined event fires at *end of serialization* (not arrival). That is
    what makes conservative synchronization sound: a packet serialized
    during epoch ``(T-L, T]`` is captured inside that epoch, and with
    ``wire_delay >= L`` (the lookahead) its arrival ``now + wire_delay``
    lands strictly after the barrier ``T`` — the receiving partition can
    safely run to ``T`` before seeing it.

    Fault injection composes: a ``link_down``/``packet_corruption`` fault
    targeting the cut link drops at capture time in the *owning* shard,
    with the usual drop accounting, so blackouts on cut links behave
    identically at any shard count.
    """

    __slots__ = ("wire_delay", "link_id", "dest_partition", "capture", "exported")

    def __init__(
        self,
        sim,
        rate_bps: float,
        prop_delay: float,
        link_id: int,
        dest_partition: int,
        capture: Callable[["BoundaryLink", float, Packet], None],
        name: str = "",
    ) -> None:
        super().__init__(sim, rate_bps, 0.0, _boundary_trap, name=name)
        if prop_delay <= 0:
            raise ConfigurationError(
                f"cut link {name!r} needs positive propagation delay "
                f"(it bounds the shard lookahead), got {prop_delay}"
            )
        self.wire_delay = prop_delay
        self.link_id = link_id
        self.dest_partition = dest_partition
        self.capture = capture
        #: Per-link departure counter; with the capture time and link id it
        #: forms the partition-count-independent boundary ordering key.
        self.exported = 0

    def deliver(self, packet: Packet) -> None:
        """Capture a fully-serialized packet instead of delivering it."""
        if self._faulted and self._fault_drop(packet):
            return
        self.stats.delivered_packets += 1
        self.stats.delivered_bytes += packet.size
        self.capture(self, self.sim.now + self.wire_delay, packet)

    # The idle-line fast path schedules at ``tx_end + prop_delay`` with
    # ``prop_delay == 0``, so ``deliver_now`` also runs at serialization
    # end — identical capture semantics on both transmitter paths.
    deliver_now = deliver


class Transmitter:
    """Pulls packets from a queue and serializes them onto a link.

    Two scheduling regimes, chosen per packet at serialization start:

    * **Backlogged** — the queue holds more packets, so a ``_finish``
      event fires at end-of-serialization to deliver this packet and
      dequeue the next one (the classic two-events-per-packet path).
    * **Idle line** — the queue is empty, so serialization completion and
      propagation are folded into a *single* combined delivery event at
      ``now + tx + prop``. If another packet is offered mid-serialization,
      a ``_resume`` event is lazily scheduled at the exact
      end-of-serialization instant, so back-to-back timing is preserved
      bit-for-bit while an uncontended link pays one event per packet
      instead of two.

    :meth:`offer` runs once per packet hop, so it decides "start now /
    resume at ``_tx_end`` / already arranged" inline and calls
    ``_start_next`` directly; :meth:`kick` is the same decision for
    out-of-band callers, phrased through the :attr:`busy` property.

    A transmitter also carries a *mode* (:data:`MODE_PACKET` /
    :data:`MODE_FLUID`). In fluid mode the pump is disabled: an in-flight
    packet still delivers (so the fluid engine's drain barrier converges)
    but nothing new is pulled off the queue — the queue contents become
    plain state that the fluid engine accounts for in closed form.
    """

    def __init__(
        self,
        sim,
        queue,
        link: Link,
        egress_hooks: Optional[List[PipelineHook]] = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.queue = queue
        self.link = link
        self.egress_hooks: List[PipelineHook] = list(egress_hooks or [])
        self.name = name
        self._probe = bind_probe(sim.telemetry, name)
        self._busy = False
        #: Absolute sim time when the in-flight packet leaves the line.
        self._tx_end = 0.0
        #: True when an event (``_finish`` or ``_resume``) will run at
        #: ``_tx_end`` to pull the next packet off the queue.
        self._finish_pending = False
        #: :data:`MODE_PACKET` or :data:`MODE_FLUID`; see class docstring.
        self.mode = MODE_PACKET

    @property
    def busy(self) -> bool:
        """The one definition of "line busy". ``_busy`` stays set after an
        idle-line serialization completes with nothing queued behind it,
        so it only counts while an event is due at ``_tx_end`` or the
        clock has not reached it."""
        return self._busy and (self._finish_pending or self.sim.now < self._tx_end)

    def add_egress_hook(self, hook: PipelineHook) -> None:
        self.egress_hooks.append(hook)

    def offer(self, packet: Packet) -> bool:
        """Enqueue ``packet`` and start transmitting if the line is idle.

        Returns ``False`` when the queue discipline dropped the packet.
        """
        sim = self.sim
        now = sim.now
        if not self.queue.enqueue(packet, now):
            return False
        if self._finish_pending or self.mode == MODE_FLUID:
            return True
        if self._busy and now < self._tx_end:
            self._finish_pending = True
            sim.schedule_fire_at(self._tx_end, self._resume)
        else:
            self._start_next(now)
        return True

    def kick(self) -> None:
        """Ensure the queue will drain (used after out-of-band enqueues):
        start now if the line is idle, or arrange the lazily-deferred
        dequeue at end-of-serialization."""
        if self.mode == MODE_FLUID:
            return
        if self.busy:
            if not self._finish_pending:
                self._finish_pending = True
                self.sim.schedule_fire_at(self._tx_end, self._resume)
        else:
            self._start_next(self.sim.now)

    def set_mode(self, mode: str) -> None:
        """Switch between :data:`MODE_PACKET` and :data:`MODE_FLUID`.

        Entering fluid mode disables the pump; any packet currently on the
        line still delivers via its pending event. Leaving fluid mode
        clears serialization state — the caller rebuilds the queue first,
        then calls :meth:`kick` to restart the drain.
        """
        if mode not in (MODE_PACKET, MODE_FLUID):
            raise ValueError(f"unknown transmitter mode: {mode!r}")
        if mode == self.mode:
            return
        self.mode = mode
        if mode == MODE_PACKET:
            self._busy = False
            self._finish_pending = False

    def _start_next(self, now: float) -> None:
        queue = self.queue
        packet = queue.dequeue(now)
        if self.egress_hooks:
            # A hook may drop the packet after dequeue (egress policing);
            # pull the next one immediately.
            while packet is not None and not self._run_egress(packet, now):
                packet = queue.dequeue(now)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        link = self.link
        # ``Link.__init__`` validated the rate, and nothing reassigns it.
        tx_time = packet.size * 8.0 / link.rate_bps
        link.stats.busy_time += tx_time
        self._tx_end = now + tx_time
        if queue.is_empty:
            # Idle-line fast path: one combined event delivers the packet;
            # a concurrent offer() will schedule the resume if needed.
            self._finish_pending = False
            self.sim.schedule_fire_at(
                now + (tx_time + link.prop_delay), link.deliver_now, packet
            )
        else:
            self._finish_pending = True
            self.sim.schedule_fire_at(now + tx_time, self._finish, packet)

    def _run_egress(self, packet: Packet, now: float) -> bool:
        for hook in self.egress_hooks:
            if not hook(packet, now):
                # Egress discard (an egress-position AQ limit-drop): the
                # hook recorded why, the port name says where.
                if self._probe is not None:
                    self._probe.sealed(packet, now, "dropped")
                return False
        return True

    def _finish(self, packet: Packet) -> None:
        self._finish_pending = False
        self.link.deliver(packet)
        if self.mode == MODE_FLUID:
            # Drain barrier: deliver the in-flight packet, then park.
            self._busy = False
            return
        self._start_next(self.sim.now)

    def _resume(self) -> None:
        """Deferred end-of-serialization dequeue for the fast path."""
        self._finish_pending = False
        if self.mode == MODE_FLUID:
            self._busy = False
            return
        self._start_next(self.sim.now)
