"""Packet-level TCP with pluggable congestion control.

The model is deliberately classical so CC dynamics — not transport quirks —
dominate the experiments, matching the paper's NS3 setup:

* cumulative ACK per data packet (no delayed ACKs),
* per-packet ECN echo (the receiver mirrors each data packet's CE bit onto
  its ACK, as DCTCP requires),
* triple-duplicate-ACK fast retransmit with NewReno partial-ACK recovery,
* RTO with exponential backoff and go-back-N,
* Karn's rule for RTT sampling, SRTT/RTTVAR per RFC 6298,
* sub-packet windows (Swift) are honoured by pacing one packet per
  ``rtt / cwnd``,
* data packets carry the flow's AQ ID header fields; receivers echo the
  accumulated virtual queuing delay back to the sender for delay-based CC.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..cc.base import AckContext, CongestionControl
from ..errors import TransportError
from ..net.host import Host
from ..net.packet import Packet, make_ack, make_data
from ..obs.events import EV_CWND_CHANGE
from ..obs.probe import bind_probe
from ..units import ACK_BYTES, MSS_BYTES, SECOND, ms

#: RFC 6298 parameters, scaled for data center RTTs. Both RTO bounds go
#: through the units helpers so they are explicitly in seconds.
RTO_ALPHA = 1.0 / 8.0
RTO_BETA = 1.0 / 4.0
DEFAULT_MIN_RTO = ms(1)
MAX_RTO = 1 * SECOND
DUP_ACK_THRESHOLD = 3


class TcpSenderStats:
    """Counters for one sender."""

    __slots__ = (
        "segments_sent",
        "bytes_sent",
        "retransmissions",
        "timeouts",
        "fast_retransmits",
        "start_time",
        "finish_time",
    )

    def __init__(self) -> None:
        self.segments_sent = 0
        self.bytes_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        self.start_time = -1.0
        self.finish_time = -1.0

    @property
    def completion_time(self) -> float:
        if self.finish_time < 0 or self.start_time < 0:
            return -1.0
        return self.finish_time - self.start_time


class _Segment:
    __slots__ = ("size", "sent_time", "retransmitted")

    def __init__(self, size: int, sent_time: float) -> None:
        self.size = size
        self.sent_time = sent_time
        self.retransmitted = False


class TcpSender:
    """The sending half of a TCP connection."""

    def __init__(
        self,
        sim,
        host: Host,
        dst: str,
        flow_id: int,
        cc: CongestionControl,
        size_bytes: Optional[int] = None,
        mss: int = MSS_BYTES,
        start_time: float = 0.0,
        min_rto: float = DEFAULT_MIN_RTO,
        aq_ingress_id: int = 0,
        aq_egress_id: int = 0,
        on_complete: Optional[Callable[["TcpSender", float], None]] = None,
    ) -> None:
        if size_bytes is not None and size_bytes <= 0:
            raise TransportError(f"flow size must be positive, got {size_bytes}")
        self.sim = sim
        self.host = host
        self.dst = dst
        self.flow_id = flow_id
        self.cc = cc
        self.size_bytes = size_bytes
        self.mss = mss
        self.min_rto = min_rto
        self.aq_ingress_id = aq_ingress_id
        self.aq_egress_id = aq_egress_id
        self.on_complete = on_complete
        self.stats = TcpSenderStats()

        self.snd_una = 0
        self.snd_nxt = 0
        self._inflight: Dict[int, _Segment] = {}
        self._inflight_bytes = 0
        self._dup_acks = 0
        self._in_recovery = False
        self._recover_seq = 0

        self._srtt = -1.0
        self._rttvar = 0.0
        self._rto = 10 * min_rto
        self._rto_backed_off = False
        self._max_seq_sent = 0
        self._base_rtt = float("inf")
        self._rto_event = None
        self._pace_event = None
        self._next_send_time = 0.0
        self.completed = False

        tele = sim.telemetry
        self._tele = tele if tele is not None and tele.enabled else None
        self._probe = bind_probe(tele)
        self._last_reported_cwnd = cc.cwnd
        if self._tele is not None:
            self._tele.metrics.add_collector(self._collect_metrics)

        host.register_flow(flow_id, self)
        sim.schedule_at(start_time, self._start)

    def _collect_metrics(self, registry) -> None:
        stats = self.stats
        labels = {"flow_id": self.flow_id, "transport": "tcp"}
        registry.counter("tcp_segments_sent", **labels).set(stats.segments_sent)
        registry.counter("tcp_bytes_sent", **labels).set(stats.bytes_sent)
        registry.counter("tcp_retransmissions", **labels).set(stats.retransmissions)
        registry.counter("tcp_timeouts", **labels).set(stats.timeouts)
        registry.counter("tcp_fast_retransmits", **labels).set(
            stats.fast_retransmits
        )
        registry.gauge("tcp_cwnd_packets", **labels).set(self.cc.cwnd)
        if self._srtt > 0:
            registry.gauge("tcp_srtt_s", **labels).set(self._srtt)

    def _trace_cwnd(self, now: float) -> None:
        """Emit ``cwnd_change`` when a CC callback moved the window."""
        cwnd = self.cc.cwnd
        if cwnd != self._last_reported_cwnd:
            self._last_reported_cwnd = cwnd
            self._tele.trace.emit_fields(
                EV_CWND_CHANGE, now, node="tcp", flow_id=self.flow_id,
                value=float(cwnd),
            )

    # -- lifecycle ------------------------------------------------------------

    def _start(self) -> None:
        self.stats.start_time = self.sim.now
        self._try_send()

    def stop(self) -> None:
        """Tear the sender down (entity leaving the network, Fig 9 style)."""
        if not self.completed:
            self._complete()

    def _complete(self) -> None:
        self.completed = True
        self.stats.finish_time = self.sim.now
        self._cancel_rto()
        if self._pace_event is not None:
            self._pace_event.cancel()
            self._pace_event = None
        if self.on_complete is not None:
            self.on_complete(self, self.sim.now)

    # -- sending -----------------------------------------------------------------

    def _remaining(self) -> Optional[int]:
        if self.size_bytes is None:
            return None
        return self.size_bytes - self.snd_nxt

    def _window_bytes(self) -> float:
        return self.cc.cwnd * self.mss

    def _try_send(self) -> None:
        if self.completed:
            return
        now = self.sim.now
        while True:
            remaining = self._remaining()
            if remaining is not None and remaining <= 0:
                break
            seg_size = self.mss if remaining is None else min(self.mss, remaining)
            window = self._window_bytes()
            if self._inflight_bytes + seg_size > window:
                # Sub-packet windows: pace a single packet per rtt/cwnd when
                # nothing is in flight (Swift may push cwnd below 1).
                if self._inflight_bytes == 0 and self.cc.cwnd > 0:
                    if now >= self._next_send_time:
                        self._send_segment(self.snd_nxt, seg_size)
                        rtt = self._srtt if self._srtt > 0 else self._rto
                        self._next_send_time = now + rtt / self.cc.cwnd
                    else:
                        self._schedule_pace(self._next_send_time)
                break
            self._send_segment(self.snd_nxt, seg_size)

    def _schedule_pace(self, at_time: float) -> None:
        if self._pace_event is not None:
            return
        def fire() -> None:
            self._pace_event = None
            self._try_send()
        self._pace_event = self.sim.schedule_at(at_time, fire)

    def _send_segment(self, seq: int, seg_size: int, retransmission: bool = False) -> None:
        now = self.sim.now
        # Any byte below the high-water mark has been on the wire before:
        # post-RTO go-back-N resends come through _try_send without the
        # retransmission flag, and the stats must still count them.
        rewired = seq < self._max_seq_sent
        is_last = self.size_bytes is not None and seq + seg_size >= self.size_bytes
        packet = make_data(
            self.host.name,
            self.dst,
            self.flow_id,
            seq,
            seg_size,
            ect=self.cc.ecn_capable,
            fin=is_last,
            retransmission=retransmission,
        )
        packet.aq_ingress_id = self.aq_ingress_id
        packet.aq_egress_id = self.aq_egress_id
        packet.sent_time = now
        segment = self._inflight.get(seq)
        if segment is None:
            segment = _Segment(seg_size, now)
            self._inflight[seq] = segment
            self._inflight_bytes += seg_size
            if seq == self.snd_nxt:
                self.snd_nxt = seq + seg_size
        else:
            segment.retransmitted = True
            segment.sent_time = now
        if seq + seg_size > self._max_seq_sent:
            self._max_seq_sent = seq + seg_size
        if retransmission or rewired:
            self.stats.retransmissions += 1
        self.stats.segments_sent += 1
        self.stats.bytes_sent += seg_size
        self.host.send(packet)
        self._arm_rto()

    # -- receiving ACKs ------------------------------------------------------------

    def on_packet(self, packet: Packet, now: float) -> None:
        if not packet.is_ack or self.completed:
            return
        if packet.flight_digest is not None and self._probe is not None:
            # The receiver echoed a flight digest on this ACK (the in-band
            # telemetry round trip); index it for per-flow path queries.
            self._probe.echoed(self.flow_id, packet.flight_digest, now)
        ack = packet.ack
        if ack > self.snd_una:
            self._on_new_ack(packet, ack, now)
        elif ack == self.snd_una and self._inflight:
            self._on_dup_ack(now)

    def _on_new_ack(self, packet: Packet, ack: int, now: float) -> None:
        acked_bytes = 0
        acked_packets = 0
        rtt_sample = -1.0
        for seq in list(self._inflight):
            if seq >= ack:
                break
            segment = self._inflight.pop(seq)
            self._inflight_bytes -= segment.size
            acked_bytes += segment.size
            acked_packets += 1
            if not segment.retransmitted:
                rtt_sample = now - segment.sent_time
        self.snd_una = ack
        self._dup_acks = 0
        if rtt_sample > 0:
            self._update_rtt(rtt_sample)
            # The fresh sample re-derived the RTO from live srtt/rttvar —
            # the RFC 6298 §5.7 backoff collapse. An ACK that covers only
            # flagged retransmissions yields no sample (Karn's rule keeps
            # them out of the estimator), so the backed-off RTO stays in
            # place until the path proves itself with a clean round trip.
            self._rto_backed_off = False

        if self._in_recovery:
            if ack >= self._recover_seq:
                self._in_recovery = False
            else:
                # NewReno partial ACK: retransmit the next hole immediately.
                self._retransmit_hole(ack)

        if acked_packets > 0:
            ctx = AckContext(
                now=now,
                acked_packets=acked_packets,
                acked_bytes=acked_bytes,
                rtt_sample=rtt_sample,
                base_rtt=self._base_rtt if self._base_rtt < float("inf") else 0.0,
                ece=packet.ece,
                virtual_delay=packet.echo_virtual_delay,
                snd_una=self.snd_una,
                flightsize_packets=len(self._inflight),
            )
            self.cc.on_ack(ctx)
            if self._tele is not None:
                self._trace_cwnd(now)

        if self.size_bytes is not None and self.snd_una >= self.size_bytes:
            self._complete()
            return
        if self._inflight:
            self._arm_rto(restart=True)
        else:
            self._cancel_rto()
        self._try_send()

    def _on_dup_ack(self, now: float) -> None:
        self._dup_acks += 1
        if self._dup_acks == DUP_ACK_THRESHOLD and not self._in_recovery:
            self._in_recovery = True
            self._recover_seq = self.snd_nxt
            self.stats.fast_retransmits += 1
            self.cc.on_packet_loss(now)
            if self._tele is not None:
                self._trace_cwnd(now)
            self._retransmit_hole(self.snd_una)

    def _retransmit_hole(self, seq: int) -> None:
        segment = self._inflight.get(seq)
        if segment is None:
            return
        self._send_segment(seq, segment.size, retransmission=True)

    # -- timers -------------------------------------------------------------------

    def _update_rtt(self, sample: float) -> None:
        if sample < self._base_rtt:
            self._base_rtt = sample
        if self._srtt < 0:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = (1 - RTO_BETA) * self._rttvar + RTO_BETA * abs(
                self._srtt - sample
            )
            self._srtt = (1 - RTO_ALPHA) * self._srtt + RTO_ALPHA * sample
        self._rto = min(MAX_RTO, max(self.min_rto, self._srtt + 4 * self._rttvar))

    def _arm_rto(self, restart: bool = False) -> None:
        if self._rto_event is not None:
            if not restart:
                return
            self._rto_event.cancel()
        self._rto_event = self.sim.schedule(self._rto, self._on_rto)

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.completed or not self._inflight:
            return
        self.stats.timeouts += 1
        self.cc.on_rto(self.sim.now)
        if self._tele is not None:
            self._trace_cwnd(self.sim.now)
        # Go-back-N: forget everything in flight and restart from snd_una.
        self._inflight.clear()
        self._inflight_bytes = 0
        self.snd_nxt = self.snd_una
        self._dup_acks = 0
        self._in_recovery = False
        self._rto = min(MAX_RTO, self._rto * 2)
        self._rto_backed_off = True
        self._try_send()

    # -- introspection --------------------------------------------------------------

    @property
    def srtt(self) -> float:
        return self._srtt

    @property
    def base_rtt(self) -> float:
        return self._base_rtt

    @property
    def inflight_bytes(self) -> int:
        return self._inflight_bytes


class TcpReceiver:
    """The receiving half: cumulative ACKs, per-packet ECN/delay echo.

    ``ack_every=1`` (the default) acknowledges each data packet, which is
    what DCTCP-style per-packet ECN echo assumes. ``ack_every>1`` enables
    delayed ACKs: one cumulative ACK per N in-order packets or after
    ``ack_delay``, with immediate ACKs forced for out-of-order arrivals
    (dup-ACK generation), CE-marked packets (timely congestion echo), and
    FINs.
    """

    def __init__(
        self,
        sim,
        host: Host,
        src: str,
        flow_id: int,
        ack_size: int = ACK_BYTES,
        on_deliver: Optional[Callable[[int, float], None]] = None,
        ack_every: int = 1,
        ack_delay: float = 200e-6,
    ) -> None:
        if ack_every < 1:
            raise TransportError(f"ack_every must be >= 1, got {ack_every}")
        self.sim = sim
        self.host = host
        self.src = src
        self.flow_id = flow_id
        self.ack_size = ack_size
        self.on_deliver = on_deliver
        self.ack_every = ack_every
        self.ack_delay = ack_delay
        self.rcv_nxt = 0
        self._out_of_order: Dict[int, int] = {}
        self.delivered_bytes = 0
        self.fin_received = False
        self.acks_sent = 0
        self._unacked = 0
        self._pending_ece = False
        self._pending_virtual_delay = 0.0
        self._ack_timer = None
        self._probe = bind_probe(sim.telemetry)
        self._pending_flight_digest = None
        host.register_flow(flow_id, self)

    def on_packet(self, packet: Packet, now: float) -> None:
        if not packet.is_data:
            return
        advanced = 0
        out_of_order = False
        if packet.seq == self.rcv_nxt:
            self.rcv_nxt += packet.size
            advanced += packet.size
            while self.rcv_nxt in self._out_of_order:
                size = self._out_of_order.pop(self.rcv_nxt)
                self.rcv_nxt += size
                advanced += size
        elif packet.seq > self.rcv_nxt:
            self._out_of_order.setdefault(packet.seq, packet.size)
            out_of_order = True
        # else: duplicate of already-delivered data; still ACK it.
        if packet.fin and packet.seq + packet.size <= self.rcv_nxt:
            self.fin_received = True
        if advanced:
            self.delivered_bytes += advanced
            if self.on_deliver is not None:
                self.on_deliver(advanced, now)

        self._pending_ece = self._pending_ece or packet.ce
        if packet.virtual_delay > self._pending_virtual_delay:
            self._pending_virtual_delay = packet.virtual_delay
        if self._probe is not None:
            # The packet's in-band hop records are still attached here (the
            # host seals the flight after endpoint dispatch); summarize them
            # for the ACK echo, mirroring the ECN/virtual-delay echoes.
            digest = self._probe.flight_digest(packet)
            if digest is not None:
                self._pending_flight_digest = digest
        self._unacked += 1
        must_ack_now = (
            self.ack_every == 1
            or out_of_order
            or packet.ce
            or packet.fin
            or self._unacked >= self.ack_every
        )
        if must_ack_now:
            self._send_ack()
        elif self._ack_timer is None:
            self._ack_timer = self.sim.schedule(self.ack_delay, self._send_ack)

    def _send_ack(self) -> None:
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        if self._unacked == 0:
            return
        ack = make_ack(
            self.host.name,
            self.src,
            self.flow_id,
            ack=self.rcv_nxt,
            size=self.ack_size,
            ece=self._pending_ece,
            echo_virtual_delay=self._pending_virtual_delay,
        )
        if self._pending_flight_digest is not None:
            ack.flight_digest = self._pending_flight_digest
            self._pending_flight_digest = None
        self._unacked = 0
        self._pending_ece = False
        self._pending_virtual_delay = 0.0
        self.acks_sent += 1
        self.host.send(ack)


class TcpConnection:
    """Sender + receiver pair for one flow; the unit workloads schedule."""

    def __init__(
        self,
        network,
        src: str,
        dst: str,
        cc: CongestionControl,
        size_bytes: Optional[int] = None,
        start_time: float = 0.0,
        flow_id: Optional[int] = None,
        aq_ingress_id: int = 0,
        aq_egress_id: int = 0,
        min_rto: float = DEFAULT_MIN_RTO,
        on_complete: Optional[Callable[["TcpConnection", float], None]] = None,
        on_deliver: Optional[Callable[[int, float], None]] = None,
        ack_every: int = 1,
    ) -> None:
        self.network = network
        self.flow_id = network.allocate_flow_id() if flow_id is None else flow_id
        self._user_on_complete = on_complete
        self.receiver = TcpReceiver(
            network.sim,
            network.hosts[dst],
            src,
            self.flow_id,
            on_deliver=on_deliver,
            ack_every=ack_every,
        )
        self.sender = TcpSender(
            network.sim,
            network.hosts[src],
            dst,
            self.flow_id,
            cc,
            size_bytes=size_bytes,
            start_time=start_time,
            min_rto=min_rto,
            aq_ingress_id=aq_ingress_id,
            aq_egress_id=aq_egress_id,
            on_complete=self._sender_complete,
        )

    def _sender_complete(self, sender: TcpSender, now: float) -> None:
        if self._user_on_complete is not None:
            self._user_on_complete(self, now)

    @property
    def completed(self) -> bool:
        return self.sender.completed

    @property
    def completion_time(self) -> float:
        return self.sender.stats.completion_time
