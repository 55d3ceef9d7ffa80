"""The packet path's one instrumentation seam.

Every data-path component binds a :class:`Probe` once, at construction,
with :func:`bind_probe` — and gets ``None`` when telemetry is off, so the
disabled path is a single identity check::

    probe = self._probe
    if probe is not None:
        probe.enqueued(packet, now, float(self._bytes))

A probe call names *what happened*; the probe fans it out, in this
order, to the trace bus (and through it the auditor), the flight recorder
and the component's time-window port handle — whichever of the three the
telemetry carries:

=============================  ===============  ========================  ==============
probe call                     trace event      flight                    time window
=============================  ===============  ========================  ==============
``enqueued(p, now, depth)``    ``enqueue``      ``queue`` hop             ``on_enqueue``
``dequeued(p, now, depth)``    ``dequeue``      closes the queue hop      —
``dropped(p, now, why, d)``    ``drop``         ``drop`` hop + seal       ``on_drop``
``marked(p, now, depth)``      ``ecn_mark``     —                         —
``depth(depth, now)``          —                —                         ``on_depth``
``aq_rate(now, id, R)``        ``aq_rate``      —                         —
``aq_decision(aq, p, …)``      ``agap_update``  —                         ``on_enqueue``
… limit-dropped                ``rate_limit``   ``aq`` hop                ``on_drop``
… CE-marked                    ``ecn_mark``     —                         —
``sent(p, now)``               ``host_send``    arms the packet           —
``delivered(p, now)``          ``deliver``      —                         —
``sealed(p, now, status)``     —                seal with ``status``      —
``exported(p, now, link…)``    ``deliver``      ``cut`` hop + seal        —
``imported(p, now, link…)``    ``host_send``    opens a ``cut`` segment   —
=============================  ===============  ========================  ==============

(``aq_decision`` announces a changed drain rate with ``aq_rate`` before
its ``agap_update``; an AQ's window depth is its A-Gap.)

Adding a queue discipline:

1. subclass :class:`~repro.queues.base.QueueDiscipline` and call
   ``super().__init__(name, telemetry)`` — that binds ``self._probe``;
2. after accepting a packet, ``self._probe.enqueued(packet, now, depth)``;
3. after serving one, ``self._probe.dequeued(packet, now, depth)``;
4. on every discard (tail, AQM, ``drain``), ``self._probe.dropped(packet,
   now, reason, depth)`` — ``depth`` is always the backlog *after* the step;
5. guard each call with ``if self._probe is not None``. Nothing else: the
   auditor, flights and windows now cover the discipline.
"""

from __future__ import annotations

from typing import Optional

from .events import (
    EV_AGAP_UPDATE,
    EV_AQ_RATE,
    EV_DELIVER,
    EV_DEQUEUE,
    EV_DROP,
    EV_ECN_MARK,
    EV_ENQUEUE,
    EV_HOST_SEND,
    EV_RATE_LIMIT,
)
from .flightrec import HopRecord


class Probe:
    """Fan-out of one component's packet-path events; see module docstring.

    ``emit_fields`` is called positionally:
    ``(type, time, node, flow_id, aq_id, size, value, reason)``.
    """

    __slots__ = ("node", "_trace", "_fr", "_windows", "_tw", "_rate")

    def __init__(self, telemetry, node: str, window: Optional[str]) -> None:
        self.node = node
        self._trace = telemetry.trace
        self._fr = telemetry.flightrec
        self._windows = telemetry.timewin
        self._tw = (
            self._windows.port_handle(window)
            if self._windows is not None and window is not None
            else None
        )
        #: Last AQ drain rate announced on the trace.
        self._rate: Optional[float] = None

    def register_port(self, name: str) -> None:
        """Pre-create a window port so an idle one answers queries as
        empty rather than unknown."""
        if self._windows is not None:
            self._windows.register_port(name)

    # -- queues ------------------------------------------------------------

    def enqueued(self, packet, now: float, depth: float) -> None:
        """``packet`` was accepted; ``depth`` is the backlog after it —
        the same figure on the trace, the flight hop and the window, so
        window high-waters and flight ground truth agree exactly."""
        node = self.node
        self._trace.emit_fields(
            EV_ENQUEUE, now, node, packet.flow_id, None, packet.size, depth
        )
        fr = self._fr
        if fr is not None and packet.flight is not None:
            fr.queue_hop(packet, node, now, depth)
        tw = self._tw
        if tw is not None:
            tw.on_enqueue(
                packet.flow_id, packet.aq_ingress_id, packet.size, depth, now
            )

    def dequeued(self, packet, now: float, depth: float) -> None:
        node = self.node
        self._trace.emit_fields(
            EV_DEQUEUE, now, node, packet.flow_id, None, packet.size, depth
        )
        fr = self._fr
        if fr is not None and packet.flight is not None:
            fr.queue_exit(packet, node, now)

    def dropped(
        self, packet, now: float, reason: str, depth: Optional[float] = None
    ) -> None:
        """``packet`` was discarded here (queue tail/RED/restart drain, or
        a link fault — which has no backlog to report)."""
        node = self.node
        self._trace.emit_fields(
            EV_DROP, now, node, packet.flow_id, None, packet.size, depth, reason
        )
        fr = self._fr
        if fr is not None and packet.flight is not None:
            fr.drop_hop(packet, node, now, reason, depth=depth)
            fr.complete(packet, now, "dropped", node=node)
        tw = self._tw
        if tw is not None:
            tw.on_drop(packet.flow_id, packet.aq_ingress_id, packet.size, now)

    def marked(self, packet, now: float, depth: float) -> None:
        self._trace.emit_fields(
            EV_ECN_MARK, now, self.node, packet.flow_id, None, packet.size, depth
        )

    def depth(self, depth: float, now: float) -> None:
        """Backlog sample without flow attribution (a multi-queue port's
        summed backlog, which its per-class windows only bound)."""
        tw = self._tw
        if tw is not None:
            tw.on_depth(depth, now)

    # -- Augmented Queues --------------------------------------------------

    def aq_rate(self, now: float, aq_id: int, rate_bps: float) -> None:
        """The AQ's drain rate was set (the auditor replays Theorem 3.2
        with the last announced R)."""
        self._rate = rate_bps
        self._trace.emit_fields(EV_AQ_RATE, now, None, None, aq_id, None, rate_bps)

    def aq_rate_if_changed(self, now: float, aq_id: int, rate_bps: float) -> None:
        """Announce R only if the trace has not seen this value yet."""
        if self._rate != rate_bps:
            self.aq_rate(now, aq_id, rate_bps)

    def aq_decision(
        self, aq, packet, now: float, gap: float, dropped: bool, marked: bool
    ) -> None:
        """One pass of Algorithm 2 over ``packet``: the post-arrival
        ``gap`` and what the AQ decided. Announces R lazily first, so the
        auditor always knows the drain rate in force for the interval."""
        aq_id = aq.aq_id
        flow_id = packet.flow_id
        size = packet.size
        self.aq_rate_if_changed(now, aq_id, aq.tracker.rate_bps)
        emit = self._trace.emit_fields
        emit(EV_AGAP_UPDATE, now, None, flow_id, aq_id, size, gap)
        tw = self._tw
        if dropped:
            emit(EV_RATE_LIMIT, now, None, flow_id, aq_id, size, gap, "rate_limit")
            fr = self._fr
            if fr is not None and packet.flight is not None:
                fr.aq_hop(
                    packet, self.node, now, aq_id, aq.position,
                    agap=gap, limit=aq.limit_bytes, ecn=False, dropped=True,
                )
            if tw is not None:
                tw.on_drop(flow_id, aq_id, size, now)
            return
        if tw is not None:
            # Who is building this *virtual* queue: the accepted packet's
            # flow, with the post-arrival A-Gap as the depth sample.
            tw.on_enqueue(flow_id, aq_id, size, gap, now)
        if marked:
            emit(EV_ECN_MARK, now, None, flow_id, aq_id, size, gap)

    # -- hosts, and the sites that only seal a flight ----------------------

    def sent(self, packet, now: float) -> None:
        """Injection point: the auditor's ledger opens and the packet is
        armed with its in-band hop-record header."""
        self._trace.emit_fields(
            EV_HOST_SEND, now, self.node, packet.flow_id, None, packet.size
        )
        fr = self._fr
        if fr is not None:
            fr.start(packet, now)

    def delivered(self, packet, now: float) -> None:
        self._trace.emit_fields(
            EV_DELIVER, now, self.node, packet.flow_id, None, packet.size
        )

    def sealed(self, packet, now: float, status: str) -> None:
        """The journey ended here: ``"delivered"`` at the receiving host
        (after endpoint dispatch, so the receiver could still read the
        header for its digest echo), ``"dropped"`` where a pipeline hook
        refused the packet — the hook recorded *why*, this component's
        name says *where*."""
        fr = self._fr
        if fr is not None and packet.flight is not None:
            fr.complete(packet, now, status, node=self.node)

    def flight_digest(self, packet) -> Optional[dict]:
        """Receiver-side summary of the in-band header, for the ACK echo."""
        fr = self._fr
        if fr is not None and packet.flight is not None:
            return fr.digest_of(packet)
        return None

    def echoed(self, flow_id: int, digest: dict, now: float) -> None:
        """An ACK carried a receiver's flight digest back to the sender."""
        fr = self._fr
        if fr is not None:
            fr.note_echo(flow_id, digest, now)

    # -- the shard cut -----------------------------------------------------

    def exported(self, packet, now: float, node: str, link_id: int, seq: int) -> None:
        """``packet`` left this partition over cut link ``node``: close the
        local ledger with a synthetic ``deliver`` and seal the segment. The
        trailing ``cut`` hop carries the correlation key — the
        ``(link_id, departure_seq)`` pair already in the boundary batch —
        so ``stitch_flight_dumps`` can chain it to the importer's segment."""
        self._trace.emit_fields(
            EV_DELIVER, now, node, packet.flow_id, None, packet.size
        )
        fr = self._fr
        if fr is not None and packet.flight is not None:
            packet.flight.append(
                HopRecord("cut", node, now, corr=f"{link_id}:{seq}")
            )
            fr.complete(packet, now, "exported", node=node)

    def imported(self, packet, now: float, node: str, link_id: int, seq: int) -> None:
        """Synthetic injection, so the destination ledger opens where the
        source ledger closed (same node name on both events), and the
        continuation segment opens under the exporter's key."""
        self._trace.emit_fields(
            EV_HOST_SEND, now, node, packet.flow_id, None, packet.size
        )
        fr = self._fr
        if fr is not None:
            fr.begin_segment(packet, now, node, f"{link_id}:{seq}")


def bind_probe(
    telemetry, node: str = "", window: Optional[str] = None
) -> Optional[Probe]:
    """The probe for one component, or ``None`` when telemetry is off.

    ``node`` labels the component on trace events and flight hops;
    ``window`` names the time-window port it records under (``None``: the
    component keeps no windows). Bind at construction — the flight and
    window recorders must be installed on ``telemetry`` before then.
    """
    if telemetry is None or not telemetry.enabled:
        return None
    return Probe(telemetry, node, window)
