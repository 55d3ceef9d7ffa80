"""Multi-queue switch ports: a small, fixed number of physical queues.

Commodity switches offer a handful of queues per port (typically 8
traffic classes). Section 2 of the paper argues this is fundamentally
insufficient: with far more entities than queues, *some entities must
share a queue*, and within a shared queue all of Section 2's interference
problems reappear. :class:`MultiQueuePort` models exactly that: N
physical FIFOs, a classifier mapping packets to queues (entities hash
onto the limited set), and a scheduler (round-robin or strict priority)
serving them.

Used by the multi-queue interference tests/bench to reproduce the paper's
"even with multiple physical queues ..." argument (Section 2.2).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..errors import ConfigurationError
from ..net.packet import Packet
from .base import QueueDiscipline
from .fifo import PhysicalFifoQueue

#: Classifier: packet -> queue index.
Classifier = Callable[[Packet], int]

ROUND_ROBIN = "rr"
STRICT_PRIORITY = "sp"
SCHEDULERS = (ROUND_ROBIN, STRICT_PRIORITY)


def hash_on_entity(num_queues: int) -> Classifier:
    """The realistic default: entities (AQ ingress IDs, or flows when
    untagged) hash onto the limited queue set — collisions unavoidable
    once entities outnumber queues."""

    def classify(packet: Packet) -> int:
        key = packet.aq_ingress_id or packet.flow_id
        return hash(key) % num_queues

    return classify


class MultiQueuePort(QueueDiscipline):
    """A port with a fixed set of physical FIFO queues and a scheduler."""

    def __init__(
        self,
        num_queues: int,
        limit_bytes_per_queue: int,
        classifier: Optional[Classifier] = None,
        scheduler: str = ROUND_ROBIN,
        ecn_threshold_bytes: Optional[int] = None,
        weights: Optional[Sequence[float]] = None,
        name: str = "",
        telemetry=None,
    ) -> None:
        # Sub-queues attribute flows under "<base>.qN"; the port itself
        # contributes only the summed-backlog depth samples the per-class
        # windows cannot derive (their high-waters never coincide) — and
        # only when named: the unnamed composite has no label to attribute
        # the summed backlog to.
        super().__init__(name, telemetry if name else None)
        if num_queues < 1:
            raise ConfigurationError(f"need at least one queue, got {num_queues}")
        if scheduler not in SCHEDULERS:
            raise ConfigurationError(
                f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}"
            )
        if weights is not None and len(weights) != num_queues:
            raise ConfigurationError("one weight per queue required")
        self.num_queues = num_queues
        self.scheduler = scheduler
        self.classifier = classifier or hash_on_entity(num_queues)
        # Even unnamed ports give their sub-queues distinct names: the run
        # auditor keys per-queue conservation on the node label, and two
        # queues sharing a label would be conflated into one ledger.
        base = name if name else f"mq@{id(self):x}"
        self.queues: List[PhysicalFifoQueue] = [
            PhysicalFifoQueue(
                limit_bytes=limit_bytes_per_queue,
                ecn_threshold_bytes=ecn_threshold_bytes,
                name=f"{base}.q{i}",
                telemetry=telemetry,
            )
            for i in range(num_queues)
        ]
        self.weights = list(weights) if weights is not None else [1.0] * num_queues
        self._rr_index = 0
        self._deficits = [0.0] * num_queues
        self._quantum = 1500.0

    # -- QueueDiscipline -----------------------------------------------------

    def enqueue(self, packet: Packet, now: float) -> bool:
        index = self.classifier(packet)
        if not 0 <= index < self.num_queues:
            raise ConfigurationError(
                f"classifier returned queue {index} of {self.num_queues}"
            )
        accepted = self.queues[index].enqueue(packet, now)
        probe = self._probe
        if probe is not None and accepted:
            probe.depth(float(self.bytes_queued), now)
        return accepted

    def dequeue(self, now: float) -> Optional[Packet]:
        if self.scheduler == STRICT_PRIORITY:
            # Queue 0 is the highest priority.
            for queue in self.queues:
                if not queue.is_empty:
                    return queue.dequeue(now)
            return None
        # Weighted round robin with deficits. Each visit either serves the
        # queue (index unchanged, so back-to-back packets drain while the
        # deficit lasts) or grants a quantum and moves on.
        for _ in range(3 * self.num_queues):
            index = self._rr_index
            queue = self.queues[index]
            if queue.is_empty:
                self._deficits[index] = 0.0
                self._rr_index = (index + 1) % self.num_queues
                continue
            head_size = queue._queue[0].size
            if self._deficits[index] >= head_size:
                self._deficits[index] -= head_size
                return queue.dequeue(now)
            self._deficits[index] += self._quantum * self.weights[index]
            self._rr_index = (index + 1) % self.num_queues
        # All empty (or pathological packet > several quanta; bounded scan).
        return None

    def drain(self, now: float, reason: str = "switch_restart") -> List[Packet]:
        """Discard every sub-queue's backlog as fault-attributed drops."""
        drained: List[Packet] = []
        for index, queue in enumerate(self.queues):
            drained.extend(queue.drain(now, reason))
            self._deficits[index] = 0.0
        self._rr_index = 0
        return drained

    @property
    def bytes_queued(self) -> int:
        return sum(q.bytes_queued for q in self.queues)

    @property
    def packets_queued(self) -> int:
        return sum(q.packets_queued for q in self.queues)

    def queue_of(self, packet: Packet) -> int:
        """Which queue a packet would be classified into (for tests)."""
        return self.classifier(packet)
