"""Per-flow (per-entity) queueing with Deficit Round Robin — the
related-work baseline the paper contrasts AQ against (Section 1, 7).

A :class:`PerFlowQueue` keeps one FIFO per classification key (flow ID by
default, or any key function — e.g. the AQ ID header for per-entity
queues) and serves them with weighted DRR [Shreedhar & Varghese 1995].
It provides fair sharing among backlogged keys, but demonstrates the two
limitations the paper leans on:

* **scalability** — the switch must provision a queue (buffer + scheduler
  state) per constituent, while AQ needs 15 bytes
  (:func:`state_bytes_per_entity` quantifies the gap for the comparison
  benchmark);
* **no rate guarantees without congestion** — an idle link produces no
  backlog, so a per-flow queue cannot hold a constituent *down* to an
  allocated rate the way an AQ's limit-drop does (it "can release traffic
  that exceeds the specified VM bandwidth").
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Deque, Optional

from ..errors import ConfigurationError
from ..net.packet import Packet
from .base import QueueDiscipline

#: Classification function: packet -> key.
KeyFn = Callable[[Packet], int]


def flow_key(packet: Packet) -> int:
    """Classify by flow (true per-flow queueing)."""
    return packet.flow_id


def entity_key(packet: Packet) -> int:
    """Classify by the ingress AQ ID header (per-entity queueing)."""
    return packet.aq_ingress_id


#: Rough switch-state cost of one dedicated queue: descriptor + scheduler
#: state + a guaranteed buffer carve-out (conservative 2 KB, far below
#: real per-queue buffer reservations).
PER_QUEUE_STATE_BYTES = 2048


def state_bytes_per_entity(num_entities: int, per_flow_queues: bool) -> int:
    """Switch state to support ``num_entities`` constituents: dedicated
    queues vs AQ records (15 B). Used by the scalability comparison."""
    if num_entities < 0:
        raise ConfigurationError("entity count must be >= 0")
    if per_flow_queues:
        return num_entities * PER_QUEUE_STATE_BYTES
    from ..core.resources import AQ_RECORD_BYTES

    return num_entities * AQ_RECORD_BYTES


class _SubQueue:
    __slots__ = ("packets", "bytes", "deficit", "weight")

    def __init__(self, weight: float) -> None:
        self.packets: Deque[Packet] = deque()
        self.bytes = 0
        self.deficit = 0.0
        self.weight = weight


class PerFlowQueue(QueueDiscipline):
    """Weighted-DRR scheduler over dynamically-created per-key FIFOs."""

    def __init__(
        self,
        limit_bytes_per_queue: int,
        quantum_bytes: int = 1500,
        key_fn: KeyFn = flow_key,
        max_queues: Optional[int] = None,
        weight_fn: Optional[Callable[[int], float]] = None,
        name: str = "",
        telemetry=None,
    ) -> None:
        super().__init__(name, telemetry)
        if limit_bytes_per_queue <= 0:
            raise ConfigurationError("per-queue limit must be positive")
        if quantum_bytes <= 0:
            raise ConfigurationError("quantum must be positive")
        self.limit_bytes_per_queue = limit_bytes_per_queue
        self.quantum_bytes = quantum_bytes
        self.key_fn = key_fn
        self.max_queues = max_queues
        self.weight_fn = weight_fn
        #: Active (backlogged) queues in round-robin order.
        self._queues: "OrderedDict[int, _SubQueue]" = OrderedDict()
        self._bytes = 0
        self.dropped_packets = 0
        self.dropped_buffer_packets = 0
        self.dropped_no_queue_packets = 0
        self.dropped_fault_packets = 0
        self.peak_queue_count = 0
        if self._probe is not None:
            telemetry.metrics.add_collector(self._collect_metrics)

    def _collect_metrics(self, registry) -> None:
        label = self.name or f"perflow@{id(self):x}"
        registry.counter("queue_dropped_packets", queue=label, reason="buffer").set(
            self.dropped_buffer_packets
        )
        registry.counter("queue_dropped_packets", queue=label, reason="no_queue").set(
            self.dropped_no_queue_packets
        )
        registry.counter("queue_dropped_packets", queue=label, reason="fault").set(
            self.dropped_fault_packets
        )
        registry.gauge("queue_backlog_bytes", queue=label).set(self._bytes)
        registry.gauge("perflow_peak_queue_count", queue=label).set(
            self.peak_queue_count
        )

    # -- QueueDiscipline -----------------------------------------------------

    def enqueue(self, packet: Packet, now: float) -> bool:
        key = self.key_fn(packet)
        probe = self._probe
        queue = self._queues.get(key)
        if queue is None:
            if self.max_queues is not None and len(self._queues) >= self.max_queues:
                # No free queue: the fate of the 'not enough queues' regime
                # the paper describes — drop (a real switch would fall back
                # to a shared default queue, same loss of isolation).
                self.dropped_packets += 1
                self.dropped_no_queue_packets += 1
                if probe is not None:
                    probe.dropped(packet, now, "no_queue", float(self._bytes))
                return False
            weight = self.weight_fn(key) if self.weight_fn else 1.0
            queue = _SubQueue(weight)
            self._queues[key] = queue
            if len(self._queues) > self.peak_queue_count:
                self.peak_queue_count = len(self._queues)
        if queue.bytes + packet.size > self.limit_bytes_per_queue:
            self.dropped_packets += 1
            self.dropped_buffer_packets += 1
            if probe is not None:
                probe.dropped(packet, now, "buffer", float(self._bytes))
            return False
        packet.enqueue_time = now
        queue.packets.append(packet)
        queue.bytes += packet.size
        self._bytes += packet.size
        if probe is not None:
            probe.enqueued(packet, now, float(self._bytes))
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        """Weighted DRR: cycle active queues, topping up deficits."""
        if self._bytes == 0:
            return None
        while True:
            key, queue = next(iter(self._queues.items()))
            if queue.packets and queue.deficit >= queue.packets[0].size:
                packet = queue.packets.popleft()
                queue.deficit -= packet.size
                queue.bytes -= packet.size
                self._bytes -= packet.size
                if not queue.packets:
                    # Idle queues leave the schedule (and forfeit deficit).
                    del self._queues[key]
                probe = self._probe
                if probe is not None:
                    probe.dequeued(packet, now, float(self._bytes))
                return packet
            # Move to the back of the round and grant a quantum.
            self._queues.move_to_end(key)
            if queue.packets:
                queue.deficit += self.quantum_bytes * queue.weight
            else:
                del self._queues[key]

    def drain(self, now: float, reason: str = "switch_restart") -> list:
        """Discard every sub-queue's backlog as fault-attributed drops."""
        drained = []
        probe = self._probe
        for queue in self._queues.values():
            while queue.packets:
                packet = queue.packets.popleft()
                queue.bytes -= packet.size
                self._bytes -= packet.size
                self.dropped_packets += 1
                self.dropped_fault_packets += 1
                if probe is not None:
                    probe.dropped(packet, now, reason, float(self._bytes))
                drained.append(packet)
        self._queues.clear()
        return drained

    @property
    def bytes_queued(self) -> int:
        return self._bytes

    @property
    def packets_queued(self) -> int:
        return sum(len(q.packets) for q in self._queues.values())

    @property
    def active_queues(self) -> int:
        return len(self._queues)
