"""The physical FIFO queue the paper argues about.

This models the per-port drop-tail queue of a commodity switch:

* a byte limit (drop-tail beyond it),
* an optional instantaneous-queue-length ECN marking threshold
  (the standard single-threshold DCTCP marking scheme),
* statistics: drops, marks, per-packet queuing delay, backlog samples.

The two properties Section 2 of the paper attributes to physical queues fall
out of this model directly: the buffer is shared by everything routed to the
port, and congestion signals appear only once backlog builds.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Optional

from ..errors import ConfigurationError
from ..net.packet import Packet
from .base import QueueDiscipline


class FifoQueueStats:
    """Counters exposed by :class:`PhysicalFifoQueue`."""

    __slots__ = (
        "enqueued_packets",
        "enqueued_bytes",
        "dequeued_packets",
        "dequeued_bytes",
        "dropped_packets",
        "dropped_bytes",
        "dropped_buffer_packets",
        "dropped_red_packets",
        "dropped_fault_packets",
        "ecn_marked_packets",
        "max_bytes_queued",
        "queuing_delays",
    )

    def __init__(self) -> None:
        self.enqueued_packets = 0
        self.enqueued_bytes = 0
        self.dequeued_packets = 0
        self.dequeued_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.dropped_buffer_packets = 0
        self.dropped_red_packets = 0
        self.dropped_fault_packets = 0
        self.ecn_marked_packets = 0
        self.max_bytes_queued = 0
        self.queuing_delays: list = []

    def record_delay(self, delay: float) -> None:
        self.queuing_delays.append(delay)


class PhysicalFifoQueue(QueueDiscipline):
    """Shared drop-tail FIFO with optional ECN marking.

    Drop-tail FIFO dynamics have an exact fluid counterpart (shared
    backlog, proportional-share drain), so this discipline supports the
    bulk accounting the fluid fast path needs (``supports_fluid``); the
    engine still refuses queues with an ECN/RED threshold, whose
    per-packet marking the closed form cannot reproduce.

    Parameters
    ----------
    limit_bytes:
        Buffer size; packets arriving when ``bytes_queued + size`` would
        exceed it are dropped (drop-tail).
    ecn_threshold_bytes:
        If set, ECN-capable packets are CE-marked when the instantaneous
        backlog at enqueue time is at or above this threshold (DCTCP's
        single-threshold marking). Following standard RED-with-ECN switch
        behaviour (and the paper's NS3 setup), packets that are *not*
        ECN-capable are dropped at the same threshold unless
        ``red_drop_non_ect`` is disabled.
    collect_delays:
        Record per-packet queuing delay (off by default; it allocates).
    name / telemetry:
        Identity and telemetry handle for the observability layer. When
        the telemetry is enabled at construction time the queue reports
        accepts, serves, drops and marks to its probe and registers a
        metrics collector; otherwise the data path is untouched (one
        ``is not None`` check).
    """

    supports_fluid = True

    def __init__(
        self,
        limit_bytes: int,
        ecn_threshold_bytes: Optional[int] = None,
        collect_delays: bool = False,
        red_drop_non_ect: bool = True,
        seed: int = 0,
        name: str = "",
        telemetry=None,
    ) -> None:
        super().__init__(name, telemetry)
        if limit_bytes <= 0:
            raise ConfigurationError(f"queue limit must be positive, got {limit_bytes}")
        if ecn_threshold_bytes is not None and ecn_threshold_bytes < 0:
            raise ConfigurationError(
                f"ECN threshold must be non-negative, got {ecn_threshold_bytes}"
            )
        self.limit_bytes = limit_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.red_drop_non_ect = red_drop_non_ect
        self._collect_delays = collect_delays
        self._rng = random.Random(seed)
        self._queue: Deque[Packet] = deque()
        self._bytes = 0
        self.stats = FifoQueueStats()
        if self._probe is not None:
            telemetry.metrics.add_collector(self._collect_metrics)

    def _collect_metrics(self, registry) -> None:
        stats = self.stats
        label = self.name or f"fifo@{id(self):x}"
        registry.counter("queue_enqueued_packets", queue=label).set(
            stats.enqueued_packets
        )
        registry.counter("queue_dequeued_packets", queue=label).set(
            stats.dequeued_packets
        )
        # One series per drop cause; ``value("queue_dropped_packets", ...)``
        # sums them, so the undifferentiated total is still reconstructable.
        registry.counter("queue_dropped_packets", queue=label, reason="buffer").set(
            stats.dropped_buffer_packets
        )
        registry.counter("queue_dropped_packets", queue=label, reason="red").set(
            stats.dropped_red_packets
        )
        registry.counter("queue_dropped_packets", queue=label, reason="fault").set(
            stats.dropped_fault_packets
        )
        registry.counter("queue_ecn_marked_packets", queue=label).set(
            stats.ecn_marked_packets
        )
        registry.gauge("queue_backlog_bytes", queue=label).set(self._bytes)
        registry.gauge("queue_max_backlog_bytes", queue=label).set(
            stats.max_bytes_queued
        )
        if stats.queuing_delays:
            hist = registry.histogram("queue_delay_s", queue=label)
            hist.observe_many(stats.queuing_delays[hist.count :])

    # -- QueueDiscipline -------------------------------------------------------

    def enqueue(self, packet: Packet, now: float) -> bool:
        probe = self._probe
        if self._bytes + packet.size > self.limit_bytes:
            self.stats.dropped_packets += 1
            self.stats.dropped_bytes += packet.size
            self.stats.dropped_buffer_packets += 1
            if probe is not None:
                probe.dropped(packet, now, "buffer", float(self._bytes))
            return False
        if (
            self.ecn_threshold_bytes is not None
            and self._bytes >= self.ecn_threshold_bytes
        ):
            if packet.ect:
                packet.mark_ce()
                self.stats.ecn_marked_packets += 1
                if probe is not None:
                    probe.marked(packet, now, float(self._bytes))
            elif self.red_drop_non_ect:
                # RED-style early drop for non-ECT traffic: probability
                # ramps linearly from 0 at the threshold to 1 at twice the
                # threshold (capped by the hard limit).
                min_th = self.ecn_threshold_bytes
                max_th = min(2 * min_th, self.limit_bytes)
                if max_th <= min_th:
                    drop_probability = 1.0
                else:
                    drop_probability = (self._bytes - min_th) / (max_th - min_th)
                if self._rng.random() < drop_probability:
                    self.stats.dropped_packets += 1
                    self.stats.dropped_bytes += packet.size
                    self.stats.dropped_red_packets += 1
                    if probe is not None:
                        probe.dropped(packet, now, "red", float(self._bytes))
                    return False
        packet.enqueue_time = now
        self._queue.append(packet)
        self._bytes += packet.size
        self.stats.enqueued_packets += 1
        self.stats.enqueued_bytes += packet.size
        if self._bytes > self.stats.max_bytes_queued:
            self.stats.max_bytes_queued = self._bytes
        if probe is not None:
            probe.enqueued(packet, now, float(self._bytes))
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        self.stats.dequeued_packets += 1
        self.stats.dequeued_bytes += packet.size
        if self._collect_delays:
            self.stats.record_delay(now - packet.enqueue_time)
        probe = self._probe
        if probe is not None:
            probe.dequeued(packet, now, float(self._bytes))
        return packet

    def drain(self, now: float, reason: str = "switch_restart") -> list:
        """Discard the whole backlog, attributing each packet to ``reason``.

        Unlike the base-class fallback this emits ``drop`` (not
        ``dequeue``) events, so a restart's losses are charged to the
        fault window rather than looking like forwarded traffic.
        """
        drained = []
        probe = self._probe
        while self._queue:
            packet = self._queue.popleft()
            self._bytes -= packet.size
            self.stats.dropped_packets += 1
            self.stats.dropped_bytes += packet.size
            self.stats.dropped_fault_packets += 1
            if probe is not None:
                probe.dropped(packet, now, reason, float(self._bytes))
            drained.append(packet)
        return drained

    @property
    def bytes_queued(self) -> int:
        return self._bytes

    @property
    def packets_queued(self) -> int:
        return len(self._queue)

    @property
    def is_empty(self) -> bool:
        # Asked once per transmitted packet: answer from the deque rather
        # than through the base class's ``packets_queued == 0``.
        return not self._queue

    # -- fluid fast path (driven by :mod:`repro.sim.fluid`) --------------------

    def fluid_capture(self) -> "dict[int, int]":
        """Hand the buffered packets over to the fluid engine: returns the
        per-flow byte composition and empties the deque (the engine owns
        the backlog as state from here until :meth:`fluid_restore`).
        ``_bytes`` keeps reporting the backlog so gauges stay truthful."""
        composition: "dict[int, int]" = {}
        for packet in self._queue:
            composition[packet.flow_id] = (
                composition.get(packet.flow_id, 0) + packet.size
            )
        self._queue.clear()
        return composition

    def fluid_account(
        self,
        enqueued_packets: int,
        enqueued_bytes: int,
        dequeued_packets: int,
        dequeued_bytes: int,
        dropped_packets: int,
        dropped_bytes: int,
        backlog_bytes: int,
    ) -> None:
        """Book one epoch's aggregate counters and adopt the end backlog.
        The engine emits the matching trace events itself (it controls
        per-flow attribution and ordering); this keeps the stats and the
        live ``_bytes`` gauge in step with them."""
        stats = self.stats
        stats.enqueued_packets += enqueued_packets
        stats.enqueued_bytes += enqueued_bytes
        stats.dequeued_packets += dequeued_packets
        stats.dequeued_bytes += dequeued_bytes
        stats.dropped_packets += dropped_packets
        stats.dropped_bytes += dropped_bytes
        stats.dropped_buffer_packets += dropped_packets
        self._bytes = int(backlog_bytes)
        if self._bytes > stats.max_bytes_queued:
            stats.max_bytes_queued = self._bytes

    def fluid_restore(self, packets, now: float) -> None:
        """Rebuild the packet-mode buffer from synthesized packets on
        epoch exit; ``_bytes`` must already equal their total size."""
        for packet in packets:
            packet.enqueue_time = now
        self._queue = deque(packets)
        total = sum(p.size for p in packets)
        if total != self._bytes:
            raise ConfigurationError(
                f"fluid_restore size mismatch on {self.name or 'fifo'}: "
                f"rebuilt {total}B but accounted {self._bytes}B"
            )
