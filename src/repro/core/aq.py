"""The Augmented Queue itself: A-Gap state + the traffic-control framework.

One :class:`AugmentedQueue` is the deployed form of one granted AQ request
(the right-hand column of Table 1): an ID, an allocated rate, a limit, the
A-Gap registers, and the CC feedback policy. :meth:`process` implements
Algorithm 2 (``Generate_NFB``) on top of Algorithm 1's streaming A-Gap.
"""

from __future__ import annotations

from typing import Optional

from ..cc.base import DELAY_BASED, ECN_BASED
from ..errors import ConfigurationError
from ..net.packet import Packet
from ..obs.probe import bind_probe
from .agap import AGapTracker
from .feedback import FeedbackPolicy, drop_policy


class AqStats:
    """Per-AQ counters (used by meters and the weighted allocator)."""

    __slots__ = (
        "arrived_packets",
        "arrived_bytes",
        "dropped_packets",
        "dropped_bytes",
        "marked_packets",
        "max_gap",
        "delay_samples",
    )

    def __init__(self) -> None:
        self.arrived_packets = 0
        self.arrived_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.marked_packets = 0
        self.max_gap = 0.0
        #: Per-packet virtual queuing delays, populated when the owning AQ
        #: was created with ``record_delays=True`` (Table 4's comparison).
        self.delay_samples: list = []

    @property
    def accepted_bytes(self) -> int:
        return self.arrived_bytes - self.dropped_bytes


class AugmentedQueue:
    """A deployed AQ (Table 1 configuration + runtime state).

    Parameters
    ----------
    aq_id:
        The unique ID tenants tag into packet headers (4 bytes on the wire).
    rate_bps:
        The allocated rate ``R``.
    limit_bytes:
        Maximum A-Gap; packets pushing the gap beyond it are dropped
        (rate limiting, Section 3.2.2). Plays the role a buffer limit plays
        for a physical queue.
    policy:
        The CC feedback policy (drop / ECN / delay), see
        :mod:`repro.core.feedback`.
    entity / telemetry:
        Observability identity and handle. With enabled telemetry the AQ
        reports every decision (and rate change) to its probe and
        publishes its counters into the metrics registry.
    """

    def __init__(
        self,
        aq_id: int,
        rate_bps: float,
        limit_bytes: float,
        policy: Optional[FeedbackPolicy] = None,
        start_time: float = 0.0,
        record_delays: bool = False,
        entity: str = "",
        telemetry=None,
    ) -> None:
        if aq_id <= 0:
            raise ConfigurationError(f"AQ id must be positive, got {aq_id}")
        if limit_bytes <= 0:
            raise ConfigurationError(f"AQ limit must be positive, got {limit_bytes}")
        self.aq_id = aq_id
        self.limit_bytes = limit_bytes
        self.policy = policy or drop_policy()
        self.tracker = AGapTracker(rate_bps, start_time=start_time)
        self.stats = AqStats()
        self.record_delays = record_delays
        self.entity = entity
        #: Deployment position ("ingress"/"egress"), stamped by
        #: :meth:`repro.core.pipeline.AqPipeline.deploy` for drop attribution.
        self.position = ""
        # The virtual queue is windowed like a port, with the A-Gap
        # standing in for physical backlog.
        self._probe = bind_probe(
            telemetry, entity,
            window=f"aq{aq_id}:{entity}" if entity else f"aq{aq_id}",
        )
        if self._probe is not None:
            telemetry.metrics.add_collector(self._collect_metrics)

    def _collect_metrics(self, registry) -> None:
        stats = self.stats
        labels = {"aq_id": self.aq_id}
        if self.entity:
            labels["entity"] = self.entity
        registry.counter("aq_arrived_packets", **labels).set(stats.arrived_packets)
        registry.counter("aq_arrived_bytes", **labels).set(stats.arrived_bytes)
        registry.counter("aq_dropped_packets", **labels).set(stats.dropped_packets)
        registry.counter("aq_marked_packets", **labels).set(stats.marked_packets)
        registry.gauge("aq_rate_bps", **labels).set(self.rate_bps)
        registry.gauge("aq_gap_bytes", **labels).set(self.gap_bytes)
        registry.gauge("aq_max_gap_bytes", **labels).set(stats.max_gap)
        if stats.delay_samples:
            hist = registry.histogram("aq_virtual_delay_s", **labels)
            hist.observe_many(stats.delay_samples[hist.count :])

    # -- configuration ------------------------------------------------------------

    @property
    def rate_bps(self) -> float:
        return self.tracker.rate_bps

    def set_rate(self, now: float, rate_bps: float) -> None:
        """Weighted-mode rate update from the controller."""
        self.tracker.set_rate(now, rate_bps)
        if self._probe is not None:
            self._probe.aq_rate(now, self.aq_id, rate_bps)

    @property
    def gap_bytes(self) -> float:
        return self.tracker.gap

    def current_gap(self, now: float) -> float:
        return self.tracker.peek(now)

    # -- fluid fast path (driven by :mod:`repro.sim.fluid`) -----------------------

    def fluid_announce_rate(self, now: float) -> None:
        """Emit an ``aq_rate`` event so the auditor's Theorem 3.2 replay
        knows the drain rate in force before the first analytic epoch
        (mirrors the lazy per-packet announce in :meth:`process`)."""
        if self._probe is not None:
            self._probe.aq_rate_if_changed(now, self.aq_id, self.tracker.rate_bps)

    def fluid_advance(
        self,
        now: float,
        gap: float,
        arrived_bytes: int,
        arrived_packets: int,
        dropped_bytes: int = 0,
        dropped_packets: int = 0,
    ) -> None:
        """Adopt a closed-form epoch result: re-anchor the tracker at
        ``(now, gap)`` and book the epoch's aggregate counters. The caller
        (the fluid engine) has already advanced the recurrence analytically
        and emitted the matching trace events."""
        tracker = self.tracker
        tracker.gap = gap
        tracker.last_time = now
        stats = self.stats
        stats.arrived_packets += arrived_packets
        stats.arrived_bytes += arrived_bytes
        stats.dropped_packets += dropped_packets
        stats.dropped_bytes += dropped_bytes
        if gap > stats.max_gap:
            stats.max_gap = gap

    # -- data path (Algorithms 1 + 2) ------------------------------------------------

    def process(self, packet: Packet, now: float) -> bool:
        """Run the packet through this AQ. Returns ``False`` if dropped.

        Mirrors Algorithm 2: update the A-Gap for the arrival; drop beyond
        the limit (removing the packet's contribution); otherwise generate
        the entity's CC feedback.
        """
        stats = self.stats
        stats.arrived_packets += 1
        stats.arrived_bytes += packet.size
        gap = self.tracker.on_arrival(now, packet.size)
        if gap > stats.max_gap:
            stats.max_gap = gap
        probe = self._probe
        if gap > self.limit_bytes:
            self.tracker.undo_arrival(packet.size)
            stats.dropped_packets += 1
            stats.dropped_bytes += packet.size
            if probe is not None:
                probe.aq_decision(self, packet, now, gap, dropped=True, marked=False)
            return False
        if self.record_delays:
            stats.delay_samples.append(self.tracker.virtual_queuing_delay())
        marked = False
        kind = self.policy.kind
        if kind == ECN_BASED:
            threshold = self.policy.ecn_threshold_bytes
            if threshold is not None and gap > threshold and packet.ect:
                packet.mark_ce()
                stats.marked_packets += 1
                marked = True
        elif kind == DELAY_BASED:
            packet.virtual_delay += self.tracker.virtual_queuing_delay()
        if probe is not None:
            probe.aq_decision(self, packet, now, gap, dropped=False, marked=marked)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AQ id={self.aq_id} rate={self.rate_bps:.3g}bps "
            f"gap={self.gap_bytes:.0f}B limit={self.limit_bytes:.0f}B "
            f"policy={self.policy.kind}>"
        )
