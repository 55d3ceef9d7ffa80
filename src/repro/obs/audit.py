"""Conservation-law run auditor: machine-checked invariants over the trace.

:class:`RunAuditor` is a :class:`~repro.obs.tracebus.TraceSink` that
re-derives, event by event, the bookkeeping the data plane claims to be
doing, and raises structured :class:`AuditViolation`\\ s when the two
disagree. It checks:

``flow_conservation``
    Per flow: ``injected = delivered + dropped + in-flight``. Injection
    is the ``host_send`` event (a host handing a packet to its NIC),
    delivery is ``deliver``, and drops are queue ``drop`` events plus AQ
    limit discards (``rate_limit`` events carrying an ``aq_id``; shaper
    ``rate_limit`` events fire *before* injection and are excluded).
    Checked continuously (delivered + dropped may never exceed injected)
    and at :meth:`RunAuditor.finish` (the remainder — bytes still in
    flight — may never be negative).

``queue_conservation``
    Per named queue: the backlog derived from ``enqueue``/``dequeue``
    events must equal the backlog the queue itself reports in each
    event's ``value`` field. A queue that loses, duplicates, or
    mis-sizes a packet diverges here within one event.

``queue_occupancy``
    The derived backlog must stay within ``[0, capacity]``. Capacities
    are optional — register them with
    :meth:`RunAuditor.register_queue_limit`; the lower bound is always
    enforced.

``agap_recurrence``
    Per AQ: replays Theorem 3.2 (via
    :class:`~repro.core.agap.AGapReplay`) from ``agap_update`` arrivals,
    ``rate_limit`` undos, and ``aq_rate`` rate changes, and compares the
    replayed A-Gap against the value the AQ reported.

``gate_work_conservation``
    The work-conserving gate's bypass/enforce decisions (``gate``
    events) must be consistent with the backlog and threshold it
    reports: it may only enforce when the backlog exceeds the threshold.

Violations carry the offending event window (the most recent events seen
before and including the trigger) so a failure is diagnosable without
re-running. In ``strict`` mode the first violation raises
:class:`AuditError`; otherwise violations accumulate for
:meth:`RunAuditor.report`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..core.agap import AGapReplay
from ..errors import ReproError
from .events import (
    EV_AGAP_UPDATE,
    EV_AQ_RATE,
    EV_DELIVER,
    EV_DEQUEUE,
    EV_DROP,
    EV_ENQUEUE,
    EV_FAULT,
    EV_FLUID_EPOCH,
    EV_GATE,
    EV_HOST_SEND,
    EV_RATE_LIMIT,
    TraceEvent,
)
from .tracebus import TraceSink

#: Drop reasons that attribute a loss to an injected fault rather than a
#: data-plane decision. ``switch_restart`` drops are queue drains — the
#: packets were already enqueued, so the derived backlog must shrink with
#: them; the on-wire reasons never touched a queue ledger.
FAULT_DROP_REASONS = ("switch_restart", "link_down", "corrupt")
_POST_ENQUEUE_FAULT_REASONS = ("switch_restart",)

#: Bytes of slack allowed between reported and derived queue backlogs
#: (queue accounting is integer arithmetic, so this only absorbs the
#: float round-trip through the event's ``value`` field).
_BACKLOG_TOL = 0.5


class AuditViolation:
    """One broken invariant, with enough context to diagnose it."""

    __slots__ = ("invariant", "time", "subject", "message", "window")

    def __init__(
        self,
        invariant: str,
        time: float,
        subject: str,
        message: str,
        window: List[dict],
    ) -> None:
        self.invariant = invariant
        self.time = time
        self.subject = subject
        self.message = message
        self.window = window

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "time": self.time,
            "subject": self.subject,
            "message": self.message,
            "window": self.window,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AuditViolation({self.invariant} @ {self.time:.6f}s "
            f"{self.subject}: {self.message})"
        )


class AuditError(ReproError):
    """Raised in strict mode when an invariant is violated."""

    def __init__(self, violation: AuditViolation) -> None:
        super().__init__(
            f"{violation.invariant} violated at t={violation.time:.6f}s "
            f"({violation.subject}): {violation.message}"
        )
        self.violation = violation


class _FlowBook:
    """Per-flow byte/packet ledger."""

    __slots__ = ("injected_bytes", "delivered_bytes", "dropped_bytes",
                 "injected_packets", "delivered_packets", "dropped_packets")

    def __init__(self) -> None:
        self.injected_bytes = 0
        self.delivered_bytes = 0
        self.dropped_bytes = 0
        self.injected_packets = 0
        self.delivered_packets = 0
        self.dropped_packets = 0

    @property
    def in_flight_bytes(self) -> int:
        return self.injected_bytes - self.delivered_bytes - self.dropped_bytes

    def to_dict(self) -> dict:
        return {
            "injected_bytes": self.injected_bytes,
            "delivered_bytes": self.delivered_bytes,
            "dropped_bytes": self.dropped_bytes,
            "in_flight_bytes": self.in_flight_bytes,
            "injected_packets": self.injected_packets,
            "delivered_packets": self.delivered_packets,
            "dropped_packets": self.dropped_packets,
        }


class RunAuditor(TraceSink):
    """Streams the trace through the conservation invariants above.

    Attach before the run (``telemetry.trace.attach(RunAuditor())`` or
    via :meth:`~repro.obs.telemetry.Telemetry.enable_audit`); call
    :meth:`finish` (or :meth:`close`) after it to run the end-of-run
    checks and collect :attr:`violations`.

    The ledgers (flows, queue backlogs, A-Gap replays) describe *one*
    simulation: queue names, flow ids and AQ ids repeat from run to run.
    A session that builds several networks gets one ledger per run —
    every new :class:`~repro.sim.engine.Simulator` bound to the session's
    telemetry calls :meth:`begin_run` — while :attr:`events_seen`,
    :attr:`violations` and the fault counters accumulate across them.
    """

    def __init__(
        self,
        strict: bool = False,
        window: int = 32,
        max_violations: int = 1000,
        queue_limits: Optional[Dict[str, float]] = None,
    ) -> None:
        self.strict = strict
        self.violations: List[AuditViolation] = []
        self.events_seen = 0
        self.max_violations = max_violations
        self._window: Deque[TraceEvent] = deque(maxlen=window)
        self._flows: Dict[int, _FlowBook] = {}
        self._backlog: Dict[str, float] = {}
        self._queue_limits: Dict[str, float] = dict(queue_limits or {})
        self._agap: Dict[int, AGapReplay] = {}
        self._agap_checkable: Dict[int, bool] = {}
        self._finished = False
        #: Injected-fault observations: ``fault`` events by reason, and
        #: the drops the trace attributed to fault reasons (packets/bytes
        #: charged to the fault window, not to a conservation error).
        self.fault_events: Dict[str, int] = {}
        self.fault_dropped_packets: Dict[str, int] = {}
        self.fault_dropped_bytes: Dict[str, int] = {}
        self._handlers = {
            EV_ENQUEUE: self._on_queue_op,
            EV_DEQUEUE: self._on_queue_op,
            EV_DROP: self._on_drop,
            EV_HOST_SEND: self._on_host_send,
            EV_DELIVER: self._on_deliver,
            EV_AGAP_UPDATE: self._on_agap_update,
            EV_RATE_LIMIT: self._on_rate_limit,
            EV_AQ_RATE: self._on_aq_rate,
            EV_GATE: self._on_gate,
            EV_FAULT: self._on_fault,
            EV_FLUID_EPOCH: self._on_fluid_epoch,
        }

    def register_queue_limit(self, node: str, limit_bytes: float) -> None:
        """Declare a queue's capacity so the upper occupancy bound applies."""
        self._queue_limits[node] = limit_bytes

    # -- TraceSink interface ------------------------------------------------

    def handle(self, event: TraceEvent) -> None:
        self.events_seen += 1
        self._window.append(event)
        handler = self._handlers.get(event.type)
        if handler is not None:
            handler(event)

    def close(self) -> None:
        self.finish()

    def begin_run(self) -> None:
        """A new simulation starts under this session: run the end-of-run
        checks on the open ledger, then open a fresh one."""
        self.finish()
        for ledger in (self._window, self._flows, self._backlog,
                       self._agap, self._agap_checkable):
            ledger.clear()
        self._finished = False

    # -- invariant implementations -----------------------------------------

    def _book(self, flow_id: Optional[int]) -> _FlowBook:
        book = self._flows.get(flow_id)
        if book is None:
            book = self._flows[flow_id] = _FlowBook()
        return book

    def _check_flow(self, event: TraceEvent, book: _FlowBook) -> None:
        if book.in_flight_bytes < 0:
            self._violate(
                "flow_conservation",
                event.time,
                f"flow {event.flow_id}",
                f"delivered+dropped bytes "
                f"({book.delivered_bytes}+{book.dropped_bytes}) exceed "
                f"injected bytes ({book.injected_bytes})",
            )

    def _on_host_send(self, event: TraceEvent) -> None:
        book = self._book(event.flow_id)
        book.injected_bytes += event.size or 0
        book.injected_packets += 1

    def _on_deliver(self, event: TraceEvent) -> None:
        book = self._book(event.flow_id)
        book.delivered_bytes += event.size or 0
        book.delivered_packets += 1
        self._check_flow(event, book)

    def _on_queue_op(self, event: TraceEvent) -> None:
        """Move a queue's derived backlog: up on ``enqueue``, down on
        ``dequeue`` and on the restart-drain ``drop`` events."""
        node = event.node
        if not node:
            return  # unnamed queues (micro-benches, ad-hoc tests) are not audited
        delta = event.size or 0
        if event.type != EV_ENQUEUE:
            delta = -delta
        derived = self._backlog.get(node, 0.0) + delta
        self._backlog[node] = derived
        if derived < -_BACKLOG_TOL:
            self._violate(
                "queue_occupancy",
                event.time,
                node,
                f"derived backlog went negative ({derived:.0f}B) — "
                f"more bytes dequeued than enqueued",
            )
            self._backlog[node] = 0.0
            return
        limit = self._queue_limits.get(node)
        if limit is not None and derived > limit + _BACKLOG_TOL:
            self._violate(
                "queue_occupancy",
                event.time,
                node,
                f"derived backlog {derived:.0f}B exceeds capacity {limit:.0f}B",
            )
        reported = event.value
        if reported is not None and abs(reported - derived) > _BACKLOG_TOL:
            self._violate(
                "queue_conservation",
                event.time,
                node,
                f"queue reports backlog {reported:.0f}B but "
                f"enqueue/dequeue history implies {derived:.0f}B",
            )
            self._backlog[node] = reported  # re-anchor: one fault, one violation

    def _on_drop(self, event: TraceEvent) -> None:
        reason = event.reason
        if reason in FAULT_DROP_REASONS:
            self.fault_dropped_packets[reason] = (
                self.fault_dropped_packets.get(reason, 0) + 1
            )
            self.fault_dropped_bytes[reason] = (
                self.fault_dropped_bytes.get(reason, 0) + (event.size or 0)
            )
            if reason in _POST_ENQUEUE_FAULT_REASONS:
                # A restart drain discards packets that were *in* the
                # queue: the derived backlog must shrink with each one,
                # and the queue's reported backlog is re-verified — this
                # is how conservation holds *across* the restart instead
                # of being suspended for it.
                self._on_queue_op(event)
        if event.flow_id is not None:
            book = self._book(event.flow_id)
            book.dropped_bytes += event.size or 0
            book.dropped_packets += 1
            self._check_flow(event, book)

    def _on_fault(self, event: TraceEvent) -> None:
        reason = event.reason or "fault"
        self.fault_events[reason] = self.fault_events.get(reason, 0) + 1
        if reason == "aq_state_lost" and event.aq_id is not None:
            # The switch lost this AQ's registers: the Theorem 3.2 replay
            # restarts from scratch when the controller's redeploy
            # re-announces the rate (a fresh ``aq_rate`` event).
            self._agap.pop(event.aq_id, None)
            self._agap_checkable[event.aq_id] = False

    def _on_agap_update(self, event: TraceEvent) -> None:
        aq_id = event.aq_id
        if aq_id is None or event.value is None:
            return
        replay = self._agap.get(aq_id)
        if replay is None:
            replay = self._agap[aq_id] = AGapReplay()
        if self._agap_checkable.get(aq_id) and event.size is not None:
            expected = replay.expected_on_arrival(event.time, event.size)
            tol = 1e-6 * max(1.0, abs(expected)) + 1e-9
            if abs(expected - event.value) > tol:
                self._violate(
                    "agap_recurrence",
                    event.time,
                    f"aq {aq_id}",
                    f"reported A-Gap {event.value:.3f}B disagrees with "
                    f"Theorem 3.2 replay {expected:.3f}B "
                    f"(size {event.size}B)",
                )
        replay.commit_arrival(event.time, event.value)

    def _on_rate_limit(self, event: TraceEvent) -> None:
        aq_id = event.aq_id
        if aq_id is None:
            return  # shaper discard: pre-injection, not an in-network drop
        replay = self._agap.get(aq_id)
        if replay is not None and event.size is not None and event.reason != "fluid":
            # Fluid epochs book their drops in aggregate; the epoch's
            # ``fluid_epoch`` event re-anchors the replayed gap, so undoing
            # here would double-count what the closed form already excluded.
            replay.on_undo(event.size)
        if event.flow_id is not None:
            book = self._book(event.flow_id)
            book.dropped_bytes += event.size or 0
            book.dropped_packets += 1
            self._check_flow(event, book)

    def _on_fluid_epoch(self, event: TraceEvent) -> None:
        """Check a fluid epoch's end gap against the recurrence bounds.

        Per-packet replay is impossible across an analytic epoch (there
        are no per-packet events), but Theorem 3.2 still brackets the
        reachable gap: with ``S`` bytes admitted over ``Δt`` at drain rate
        ``R``, the end gap must lie in ``[max(0, g₀ + S − R·Δt/8),
        g₀ + S]`` — the lower bound is the no-clamping trajectory (the
        ``max(0, ·)`` clamp can only keep the gap higher), the upper bound
        is zero drain. The replay then re-anchors at the reported value,
        exactly like ``commit_arrival`` on a per-packet update.
        """
        aq_id = event.aq_id
        if aq_id is None or event.value is None:
            return
        replay = self._agap.get(aq_id)
        if replay is None:
            replay = self._agap[aq_id] = AGapReplay()
        if self._agap_checkable.get(aq_id) and event.size is not None:
            admitted = float(event.size)
            dt = event.time - replay.last_time
            drain = (replay.rate_bps / 8.0) * max(0.0, dt)
            upper = replay.gap + admitted
            lower = max(0.0, upper - drain)
            tol = 1e-6 * max(1.0, abs(upper)) + 1.0
            if not (lower - tol <= event.value <= upper + tol):
                self._violate(
                    "agap_recurrence",
                    event.time,
                    f"aq {aq_id}",
                    f"fluid epoch reports end gap {event.value:.3f}B outside "
                    f"the Theorem 3.2 envelope [{lower:.3f}, {upper:.3f}]B "
                    f"(admitted {admitted:.0f}B over {dt:.6f}s)",
                )
        replay.commit_arrival(event.time, event.value)

    def _on_aq_rate(self, event: TraceEvent) -> None:
        aq_id = event.aq_id
        if aq_id is None or event.value is None:
            return
        replay = self._agap.get(aq_id)
        if replay is None:
            replay = self._agap[aq_id] = AGapReplay()
        replay.on_rate(event.time, event.value)
        self._agap_checkable[aq_id] = True

    def _on_gate(self, event: TraceEvent) -> None:
        if event.value is None or event.size is None or event.reason is None:
            return
        backlog, threshold = event.value, event.size
        if event.reason == "enforce" and backlog <= threshold:
            self._violate(
                "gate_work_conservation",
                event.time,
                event.node or "gate",
                f"gate enforced AQs at backlog {backlog:.0f}B although the "
                f"bypass threshold is {threshold:.0f}B",
            )
        elif event.reason == "bypass" and backlog > threshold:
            self._violate(
                "gate_work_conservation",
                event.time,
                event.node or "gate",
                f"gate bypassed AQs at backlog {backlog:.0f}B above the "
                f"threshold {threshold:.0f}B",
            )

    def _violate(
        self, invariant: str, time: float, subject: str, message: str
    ) -> None:
        if len(self.violations) >= self.max_violations:
            return
        violation = AuditViolation(
            invariant, time, subject, message,
            [e.to_dict() for e in self._window],
        )
        self.violations.append(violation)
        if self.strict:
            raise AuditError(violation)

    # -- end-of-run ---------------------------------------------------------

    def finish(self) -> List[AuditViolation]:
        """Run the final conservation checks; idempotent."""
        if self._finished:
            return self.violations
        self._finished = True
        for flow_id, book in sorted(self._flows.items(), key=lambda kv: kv[0] or 0):
            if book.in_flight_bytes < 0:
                self._violate(
                    "flow_conservation",
                    -1.0,
                    f"flow {flow_id}",
                    f"at end of run delivered+dropped bytes "
                    f"({book.delivered_bytes}+{book.dropped_bytes}) exceed "
                    f"injected bytes ({book.injected_bytes})",
                )
        return self.violations

    def report(self) -> dict:
        """JSON-safe summary: violation list plus the per-flow ledgers (of
        the last run, when the session held several)."""
        self.finish()
        out = {
            "events_seen": self.events_seen,
            "violation_count": len(self.violations),
            "violations": [v.to_dict() for v in self.violations],
            "flows": {
                str(fid): book.to_dict()
                for fid, book in sorted(
                    self._flows.items(), key=lambda kv: kv[0] or 0
                )
            },
        }
        if self.fault_events or self.fault_dropped_packets:
            out["faults"] = {
                "events": dict(self.fault_events),
                "attributed_dropped_packets": dict(self.fault_dropped_packets),
                "attributed_dropped_bytes": dict(self.fault_dropped_bytes),
            }
        return out
