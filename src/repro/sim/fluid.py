"""Hybrid fluid/packet simulation: analytic epochs for backlogged links.

The per-packet engine costs ~3 events per packet on a backlogged link
(docs/PERFORMANCE.md §1.3), which caps throughput around 10⁵ packets/sec.
But a *stable* backlogged period — constant-rate UDP senders, a fixed
contending flow set, no pending fault — is exactly the regime every
component of this simulator has a closed form for:

* the **A-Gap** recurrence of Theorem 3.2 degenerates to a clamped line,
  ``A(t) = max(0, A₀ + (λ − R/8)·t)`` (:func:`repro.core.agap.fluid_gap_after`);
* a **drop-tail FIFO** is a shared backlog with proportional-share drain;
* a **token bucket** is a three-phase piecewise-linear system
  (:meth:`repro.ratelimit.token_bucket.TokenBucketShaper.fluid_phase`).

:class:`FluidEngine` exploits this: it pauses the packet machinery (the
``LinkMode`` switch on :class:`~repro.net.link.Transmitter`), snapshots
queue/gap/bucket state, and advances whole *epochs* in closed form —
per-flow bytes, queue backlogs, A-Gap registers — jumping the clock with
:meth:`~repro.sim.engine.Simulator.advance_to`. Each epoch ends at the
earliest transition:

* **internal** regime changes (a queue fills or empties, an A-Gap
  saturates at its limit, a token bucket runs dry) just start the next
  epoch, still in fluid mode;
* **external** transitions — a calendar event (flow arrival, fault,
  controller tick), a flow finishing, or the run horizon — drop the link
  set back to packet mode with reconstructed queue state, and the engine
  re-engages once per-packet simulation has processed them.

Conservation is maintained *exactly*, in integers: every epoch emits
synthetic ``host_send`` / ``enqueue`` / ``dequeue`` / ``drop`` /
``deliver`` events whose sizes are integer byte counts chained stage to
stage, plus one ``fluid_epoch`` event per Augmented Queue carrying the
analytic end gap — so the conservation-law auditor closes its books over
fluid stretches with the same invariants it applies per packet. What the
fluid model intentionally coarsens is *timing within an epoch* (bytes are
attributed to the epoch end) and FIFO ordering across flows; per-flow
delivered bytes stay within a packet-scale tolerance of packet mode (see
docs/PERFORMANCE.md for the measured bounds).

**Composition.** Fluid mode composes with all telemetry (the synthetic
events above are the mechanism) and with fault plans (a pending fault
is an external transition that ends the epoch). It does **not** compose
with sharding (:mod:`repro.sim.shard`): a fluid epoch advances a link
analytically past the sharded run's barrier times, so a boundary link
could deliver bytes the neighbouring partition's epoch never saw —
breaking both the lookahead guarantee and bit-identical digests.
Enforced: constructing a :class:`FluidEngine` on a network that contains
a :class:`~repro.net.link.BoundaryLink` raises
:class:`~repro.errors.ConfigurationError` naming the link.
The two attack different axes (fluid collapses *time* on one core,
sharding spreads *space* across cores); ``share-fabric`` is therefore
packet-mode only, and ``--fluid`` stays a ``share``-scenario flag.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..cc.base import DROP_BASED
from ..core.agap import fluid_gap_after, fluid_gap_crossing
from ..core.aq import AugmentedQueue
from ..core.pipeline import EGRESS, INGRESS, AqPipeline
from ..errors import ConfigurationError, ReproError
from ..net.host import Host
from ..net.link import MODE_FLUID, MODE_PACKET, BoundaryLink
from ..net.packet import make_udp
from ..net.switch import Switch
from ..obs.events import (
    EV_DELIVER,
    EV_DEQUEUE,
    EV_DROP,
    EV_ENQUEUE,
    EV_FLUID_EPOCH,
    EV_HOST_SEND,
    EV_RATE_LIMIT,
)
from ..ratelimit.token_bucket import TokenBucketShaper
from ..transport.udp import UdpFlow
from ..units import MTU_BYTES, transmission_time

#: Below this many bytes a fluid backlog/gap counts as empty.
_EPS_BYTES = 1e-6
#: Relative slack when comparing an epoch end against a hard bound.
_EPS_TIME = 1e-12


class FluidIneligible(ReproError):
    """The network (or its current state) cannot be advanced in closed form."""


class _FlowState:
    """Per-flow bookkeeping: the sender/sink pair, its stage path, and the
    fractional-packet carry that keeps emission whole-packet exact."""

    __slots__ = ("flow", "sender", "sink", "src", "dst", "shaper_stage",
                 "stages", "carry", "resume_at")

    def __init__(self, flow: UdpFlow, src_host: Host, dst_host: Host) -> None:
        self.flow = flow
        self.sender = flow.sender
        self.sink = flow.sink
        self.src = src_host
        self.dst = dst_host
        self.shaper_stage: Optional[_ShaperStage] = None
        self.stages: List["_QueueStage | _AqStage"] = []
        self.carry = 0.0
        #: The per-packet send time the pause cancelled; restored verbatim
        #: when the engagement closes no epoch, so a fallback costs the
        #: sender nothing. Cleared once an epoch re-models the sender.
        self.resume_at: Optional[float] = None


class _ShaperStage:
    """Closed-form token bucket for exactly one flow (PRL/DRL hosts)."""

    __slots__ = ("shaper", "flow_id", "tokens", "backlog", "carry",
                 "_first_out_Bps", "_boundary")

    def __init__(self, shaper: TokenBucketShaper, flow_id: int) -> None:
        self.shaper = shaper
        self.flow_id = flow_id
        self.tokens = 0.0
        self.backlog = 0.0
        self.carry = 0.0
        self._first_out_Bps = 0.0
        self._boundary: Optional[float] = None

    def capture(self) -> None:
        self.tokens, self.backlog = self.shaper.fluid_pause()
        self.carry = 0.0

    def rates(self, in_Bps: float) -> float:
        out, _drop, _ts, _bs, boundary = self.shaper.fluid_phase(
            self.tokens, self.backlog, in_Bps
        )
        self._first_out_Bps = out
        self._boundary = boundary
        return out

    def breakpoint(self) -> Optional[float]:
        return self._boundary

    def apply(self, dt: float, t_end: float, in_bytes: int,
              packet_size: int, trace) -> int:
        """Advance the bucket piecewise over ``dt``; returns the bytes that
        left the shaper (whole packets, via this stage's carry)."""
        lam = in_bytes / dt if dt > 0 else 0.0
        remaining = dt
        out_f = 0.0
        drop_f = 0.0
        for _ in range(16):
            if remaining <= 0.0:
                break
            out, drop, t_slope, b_slope, boundary = self.shaper.fluid_phase(
                self.tokens, self.backlog, lam
            )
            step = remaining if boundary is None else min(remaining, boundary)
            if step <= 0.0:
                step = remaining
            out_f += out * step
            drop_f += drop * step
            self.tokens = min(
                float(self.shaper.bucket_bytes),
                max(0.0, self.tokens + t_slope * step),
            )
            self.backlog = min(
                float(self.shaper.backlog_limit_bytes),
                max(0.0, self.backlog + b_slope * step),
            )
            remaining -= step
        raw = out_f + self.carry
        n = int(raw // packet_size)
        out_int = n * packet_size
        self.carry = raw - out_int
        drop_int = max(0, min(in_bytes - out_int, int(round(drop_f))))
        drop_pkts = drop_int // packet_size if packet_size else 0
        shaped = max(0, in_bytes - out_int - drop_int) // packet_size
        if drop_int > 0 and trace is not None:
            # Pre-injection discard: no aq_id, so the auditor leaves it out
            # of the in-flight ledger (same shape as Shaper.submit's event).
            trace.emit_fields(
                EV_RATE_LIMIT, t_end, node="shaper", flow_id=self.flow_id,
                size=drop_int, value=self.backlog, reason="shaper",
            )
        self.shaper.fluid_account(in_bytes, shaped, drop_pkts)
        return out_int

    def restore(self, fs: _FlowState, now: float, packet_size: int) -> None:
        """Rebuild the packet-mode deque from the fluid backlog."""
        pkts = []
        backlog = int(round(self.backlog))
        n, rem = divmod(backlog, packet_size)
        for _ in range(n):
            pkts.append(self._mk(fs, packet_size, now))
        if rem > 0:
            pkts.append(self._mk(fs, rem, now))
        self.shaper.fluid_resume(self.tokens, pkts, sum(p.size for p in pkts))

    def _mk(self, fs: _FlowState, size: int, now: float):
        packet = make_udp(fs.src.name, fs.sender.dst, self.flow_id, size)
        packet.aq_ingress_id = fs.sender.aq_ingress_id
        packet.aq_egress_id = fs.sender.aq_egress_id
        packet.sent_time = now
        return packet


class _AqStage:
    """One ingress Augmented Queue shared by an entity's flows: the A-Gap
    advances along the Theorem 3.2 closed form, limit drops in aggregate."""

    __slots__ = ("aq", "flow_ids", "gap", "sat_tol", "_in_Bps", "_sat")

    def __init__(self, aq: AugmentedQueue) -> None:
        self.aq = aq
        self.flow_ids: List[int] = []
        self.gap = 0.0
        # Per-packet admission stops once gap + size > limit, so the
        # sustained-state gap hovers within one packet of the limit.
        # Treating that whole band as saturated matches the packet-mode
        # fixed point and keeps quantized end gaps from re-triggering
        # micro crossing breakpoints every epoch.
        self.sat_tol = float(MTU_BYTES)
        self._in_Bps = 0.0
        self._sat = False

    def capture(self, now: float) -> None:
        self.gap = self.aq.tracker.peek(now)
        self.aq.fluid_announce_rate(now)

    def rates(self, in_Bps: Dict[int, float]) -> None:
        lam = sum(in_Bps.get(fid, 0.0) for fid in self.flow_ids)
        drain = self.aq.rate_bps / 8.0
        self._in_Bps = lam
        limit = self.aq.limit_bytes
        self._sat = self.gap >= limit - self.sat_tol and lam > drain
        if self._sat:
            scale = drain / lam if lam > 0 else 1.0
            for fid in self.flow_ids:
                in_Bps[fid] = in_Bps.get(fid, 0.0) * scale

    def breakpoint(self) -> Optional[float]:
        if self._sat:
            return None
        return fluid_gap_crossing(
            self.gap, self._in_Bps, self.aq.rate_bps / 8.0, self.aq.limit_bytes
        )

    def apply(self, dt: float, t_end: float, in_int: Dict[int, int],
              trace) -> None:
        drain = self.aq.rate_bps / 8.0
        arrived = sum(in_int.get(fid, 0) for fid in self.flow_ids)
        lam = arrived / dt if dt > 0 else 0.0
        limit = self.aq.limit_bytes
        g0 = self.gap
        if lam > drain and g0 < limit - self.sat_tol:
            t_sat = (limit - g0) / (lam - drain)
        elif lam > drain:
            t_sat = 0.0
        else:
            t_sat = math.inf
        if t_sat < dt:
            admitted_total = lam * t_sat + drain * (dt - t_sat)
            gap_end = limit
        else:
            admitted_total = lam * dt
            gap_end = min(limit, fluid_gap_after(g0, lam, drain, dt))
        dropped_total = max(0.0, arrived - admitted_total)
        drop_share = dropped_total / arrived if arrived > 0 else 0.0
        admitted_int = 0
        dropped_int = 0
        dropped_pkts = 0
        for fid in self.flow_ids:
            inb = in_int.get(fid, 0)
            if inb <= 0:
                continue
            drop_f = max(0, min(inb, int(round(inb * drop_share))))
            out_f = inb - drop_f
            in_int[fid] = out_f
            admitted_int += out_f
            dropped_int += drop_f
            if drop_f > 0:
                dropped_pkts += 1
                if trace is not None:
                    trace.emit_fields(
                        EV_RATE_LIMIT, t_end, aq_id=self.aq.aq_id,
                        flow_id=fid, size=drop_f, value=gap_end,
                        reason="fluid",
                    )
        # Re-derive the end gap from the *integer* admitted bytes so the
        # auditor's envelope check sees the same arithmetic it replays.
        gap_end = min(limit, max(0.0, g0 + admitted_int - drain * dt))
        self.gap = gap_end
        if trace is not None:
            trace.emit_fields(
                EV_FLUID_EPOCH, t_end, aq_id=self.aq.aq_id,
                node=self.aq.entity or None, size=admitted_int, value=gap_end,
            )
        arrived_pkts = sum(
            1 for fid in self.flow_ids if in_int.get(fid, 0) > 0
        )
        self.aq.fluid_advance(
            t_end, gap_end, admitted_int + dropped_int,
            arrived_pkts + dropped_pkts, dropped_int, dropped_pkts,
        )


class _QueueStage:
    """One port (queue + transmitter + link): a shared drop-tail backlog
    draining at line rate, per-flow composition tracked in integers."""

    __slots__ = ("queue", "transmitter", "link", "name", "C_Bps", "limit",
                 "flow_ids", "psize", "q_int", "B_int", "drain_debt",
                 "_in_Bps", "_out_Bps")

    def __init__(self, queue, transmitter, link) -> None:
        self.queue = queue
        self.transmitter = transmitter
        self.link = link
        self.name = queue.name
        self.C_Bps = link.rate_bps / 8.0
        self.limit = queue.limit_bytes
        self.flow_ids: List[int] = []
        self.psize: Dict[int, int] = {}
        self.q_int: Dict[int, int] = {}
        self.B_int = 0
        #: Seconds the link sat idle while parked for the drain barrier.
        #: The first epoch after engagement drains that much extra so a
        #: backlogged link loses no capacity to the mode switch.
        self.drain_debt = 0.0
        self._in_Bps: Dict[int, float] = {}
        self._out_Bps: Dict[int, float] = {}

    def capture(self) -> Dict[int, int]:
        comp = self.queue.fluid_capture()
        self.q_int = {fid: comp.get(fid, 0) for fid in self.flow_ids}
        self.B_int = sum(comp.values())
        return comp

    def rates(self, in_Bps: Dict[int, float]) -> None:
        self._in_Bps = {fid: in_Bps.get(fid, 0.0) for fid in self.flow_ids}
        S = sum(self._in_Bps.values())
        C = self.C_Bps
        B = float(self.B_int)
        out: Dict[int, float] = {}
        if B <= _EPS_BYTES and S <= C:
            out = dict(self._in_Bps)
        elif S > 0.0:
            scale = C / S
            out = {fid: lam * scale for fid, lam in self._in_Bps.items()}
        else:
            # Draining a leftover backlog with no input: composition share.
            for fid in self.flow_ids:
                share = self.q_int.get(fid, 0) / B if B > 0 else 0.0
                out[fid] = C * share
        self._out_Bps = out
        for fid, rate in out.items():
            in_Bps[fid] = rate

    def breakpoint(self) -> Optional[float]:
        S = sum(self._in_Bps.values())
        C = self.C_Bps
        B = float(self.B_int)
        if S > C and B < self.limit - _EPS_BYTES:
            return (self.limit - B) / (S - C)
        if S < C and B > _EPS_BYTES:
            return B / (C - S)
        return None

    def apply(self, dt: float, t_end: float, in_int: Dict[int, int],
              trace) -> None:
        C = self.C_Bps
        if self.drain_debt > 0.0 and dt > 0.0:
            # Catch up on capacity the barrier idled: drain as if the
            # link had been transmitting continuously. Harmless when the
            # backlog is small — output is capped by availability.
            C = C * (1.0 + self.drain_debt / dt)
            self.drain_debt = 0.0
        ins = {fid: in_int.get(fid, 0) for fid in self.flow_ids}
        total_in = sum(ins.values())
        S = total_in / dt if dt > 0 else 0.0
        B0 = float(self.B_int)
        # Fluid trajectory of the total backlog, clamped to [0, limit]:
        # drops begin once it pins at the limit.
        if S > C and B0 < self.limit:
            t_full = (self.limit - B0) / (S - C)
        elif S > C:
            t_full = 0.0
        else:
            t_full = math.inf
        if t_full < dt:
            dropped_total = (S - C) * (dt - t_full)
            B_end = float(self.limit)
        else:
            dropped_total = 0.0
            B_end = min(float(self.limit), max(0.0, B0 + (S - C) * dt))
        drop_share = (dropped_total / total_in) if total_in > 0 else 0.0
        # Composition relaxes from the initial backlog mix toward the input
        # mix with time constant ~B/C (exact when the backlog is constant).
        B_ref = max(B0, B_end, _EPS_BYTES)
        mix = 1.0 - math.exp(-C * dt / B_ref) if C > 0 else 1.0
        admitted = {}
        for fid in self.flow_ids:
            inb = ins[fid]
            drop_f = max(0, min(inb, int(round(inb * drop_share)))) if inb else 0
            admitted[fid] = inb - drop_f
        adm_total = sum(admitted.values())
        stats_drop_p = 0
        running = self.B_int
        enq_p = enq_b = deq_p = deq_b = drop_b = 0
        # Emit per-flow drops and enqueues first (auditor sees arrivals
        # before departures), then the dequeues, all stamped t_end.
        for fid in self.flow_ids:
            inb = ins[fid]
            if inb <= 0:
                continue
            drop_f = inb - admitted[fid]
            if drop_f > 0:
                stats_drop_p += 1
                drop_b += drop_f
                if trace is not None:
                    trace.emit_fields(
                        EV_DROP, t_end, node=self.name, flow_id=fid,
                        size=drop_f, value=float(running), reason="buffer",
                    )
            if admitted[fid] > 0:
                running += admitted[fid]
                enq_p += 1
                enq_b += admitted[fid]
                if trace is not None:
                    trace.emit_fields(
                        EV_ENQUEUE, t_end, node=self.name, flow_id=fid,
                        size=admitted[fid], value=float(running),
                    )
        # Per-flow end backlog (floats), then the integer chain.
        avail_after = running  # B0 + admitted
        for fid in self.flow_ids:
            q0 = self.q_int.get(fid, 0)
            avail = q0 + admitted[fid]
            if B_end <= _EPS_BYTES:
                q_new = 0
            else:
                w0 = (q0 / B0) if B0 > _EPS_BYTES else 0.0
                ws = (admitted[fid] / adm_total) if adm_total > 0 else w0
                if B0 <= _EPS_BYTES:
                    w0 = ws
                q_new_f = B_end * ((1.0 - mix) * w0 + mix * ws)
                q_new = max(0, min(avail, int(round(q_new_f))))
            out_f = avail - q_new
            self.q_int[fid] = q_new
            in_int[fid] = out_f
            if out_f > 0:
                avail_after -= out_f
                deq_p += 1
                deq_b += out_f
                if trace is not None:
                    trace.emit_fields(
                        EV_DEQUEUE, t_end, node=self.name, flow_id=fid,
                        size=out_f, value=float(avail_after),
                    )
            else:
                in_int[fid] = 0
        self.B_int = sum(self.q_int.values())
        self.queue.fluid_account(
            enq_p, enq_b, deq_p, deq_b, stats_drop_p, drop_b, self.B_int
        )
        out_total = deq_b
        stats = self.link.stats
        stats.delivered_bytes += out_total
        for fid in self.flow_ids:
            out = in_int.get(fid, 0)
            size = self.psize.get(fid, 0)
            if out > 0 and size > 0:
                stats.delivered_packets += -(-out // size)
        if self.C_Bps > 0:
            stats.busy_time += out_total / self.C_Bps

    def restore(self, flows: Dict[int, _FlowState], now: float) -> None:
        """Synthesize packets matching the integer per-flow backlog and
        hand them back to the packet-mode queue, round-robin across flows
        so the rebuilt FIFO stays fair."""
        per_flow: List[List] = []
        for fid in self.flow_ids:
            q = self.q_int.get(fid, 0)
            if q <= 0:
                continue
            fs = flows[fid]
            size = fs.sender.packet_size
            pkts = []
            n, rem = divmod(q, size)
            for _ in range(n):
                pkts.append(self._mk(fs, size, now))
            if rem > 0:
                pkts.append(self._mk(fs, rem, now))
            per_flow.append(pkts)
        interleaved = []
        while per_flow:
            for pkts in list(per_flow):
                interleaved.append(pkts.pop(0))
                if not pkts:
                    per_flow.remove(pkts)
        self.queue.fluid_restore(interleaved, now)

    def _mk(self, fs: _FlowState, size: int, now: float):
        packet = make_udp(fs.src.name, fs.sender.dst, fs.sender.flow_id, size)
        packet.aq_ingress_id = fs.sender.aq_ingress_id
        packet.aq_egress_id = fs.sender.aq_egress_id
        packet.sent_time = now
        return packet


class FluidEngine:
    """Drives a network in hybrid fluid/packet mode.

    Construct with the built network and every traffic source in it (all
    must be :class:`~repro.transport.udp.UdpFlow`; any unregistered
    source would starve while transmitters sit in fluid mode), then call
    :meth:`run` instead of ``network.run``. The engine alternates between
    closed-form epochs (when the flow set is stable and the topology
    eligible) and ordinary event-driven slices (whenever anything the
    closed form cannot express is pending).
    """

    def __init__(
        self,
        network,
        flows: List[UdpFlow],
        min_epoch: float = 1e-6,
        retry_interval: float = 250e-6,
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.min_epoch = min_epoch
        self.retry_interval = retry_interval
        self.epochs = 0
        self.engagements = 0
        self.rejections: Dict[str, int] = {}
        self.exits: Dict[str, int] = {}
        tele = self.sim.telemetry
        self._tele = tele if tele is not None and tele.enabled else None
        self._flows: Dict[int, _FlowState] = {}
        self._stages: List[_QueueStage | _AqStage] = []
        self._queue_stages: List[_QueueStage] = []
        self._aq_stages: List[_AqStage] = []
        self._shaper_stages: List[_ShaperStage] = []
        self._barrier = 0.0
        self._static_reason: Optional[str] = None
        for link in network.links.values():
            if isinstance(link, BoundaryLink):
                raise ConfigurationError(
                    f"fluid mode does not compose with sharding: {link.name} is "
                    f"a cut link, and an epoch would advance it past the barrier"
                )
        try:
            self._build(flows)
        except FluidIneligible as exc:
            self._static_reason = str(exc)

    # -- public API ----------------------------------------------------------

    @property
    def static_reason(self) -> Optional[str]:
        """Why fluid mode is statically impossible, or ``None`` if it isn't."""
        return self._static_reason

    def stats(self) -> dict:
        return {
            "epochs": self.epochs,
            "engagements": self.engagements,
            "exits": dict(self.exits),
            "rejections": dict(self.rejections),
            "static_reason": self._static_reason,
        }

    def run(self, until: float) -> int:
        """Advance the network to ``until``, fluid where possible.

        Returns the number of analytic epochs closed (also available as
        ``self.epochs``)."""
        sim = self.sim
        if self._static_reason is not None:
            sim.run(until=until)
            return 0
        start_epochs = self.epochs
        while sim.now < until:
            if self._try_engage(until):
                reason = self._run_epochs(until)
                self._disengage()
                self.exits[reason] = self.exits.get(reason, 0) + 1
            if sim.now >= until:
                break
            sim.run(until=min(until, sim.now + self.retry_interval))
        return self.epochs - start_epochs

    # -- stage graph construction --------------------------------------------

    def _build(self, flows: List[UdpFlow]) -> None:
        if not flows:
            raise FluidIneligible("no flows registered")
        if self._tele is not None:
            if self._tele.flightrec is not None:
                raise FluidIneligible("flight recorder needs per-packet hops")
            if self._tele.timewin is not None:
                raise FluidIneligible("time-window recorder needs per-packet records")
        network = self.network
        queue_stage_by_id: Dict[int, _QueueStage] = {}
        aq_stage_by_id: Dict[int, _AqStage] = {}
        shaper_flows: Dict[int, int] = {}
        edges: Dict[int, set] = {}
        for flow in flows:
            if not isinstance(flow, UdpFlow):
                raise FluidIneligible(
                    f"flow {getattr(flow, 'flow_id', '?')} is not a UdpFlow"
                )
            sender = flow.sender
            src = sender.host
            dst_host = network.hosts.get(sender.dst)
            if dst_host is None:
                raise FluidIneligible(f"unknown destination {sender.dst}")
            fs = _FlowState(flow, src, dst_host)
            if src.on_transmit is not None:
                raise FluidIneligible(f"host {src.name} has an on_transmit tap")
            shaper = src._shaper
            if shaper is not None:
                if not isinstance(shaper, TokenBucketShaper):
                    raise FluidIneligible(
                        f"host {src.name} has an unsupported shaper"
                    )
                count = shaper_flows.get(id(shaper), 0) + 1
                shaper_flows[id(shaper)] = count
                if count > 1:
                    raise FluidIneligible(
                        f"shaper on {src.name} is shared by multiple flows"
                    )
                stage = _ShaperStage(shaper, sender.flow_id)
                fs.shaper_stage = stage
                self._shaper_stages.append(stage)
            node = src
            prev_stage = None
            hops = 0
            while True:
                hops += 1
                if hops > 16:
                    raise FluidIneligible("path too long (routing loop?)")
                if isinstance(node, Host):
                    if node.name == sender.dst:
                        break
                    transmitter = node.transmitter
                    queue = node.nic_queue
                    link = transmitter.link
                elif isinstance(node, Switch):
                    for hook in node.ingress_hooks:
                        owner = getattr(hook, "__self__", None)
                        if not isinstance(owner, AqPipeline):
                            raise FluidIneligible(
                                f"switch {node.name} has a non-AQ ingress hook"
                            )
                        aq = owner.lookup(sender.aq_ingress_id, INGRESS)
                        if aq is not None:
                            prev_stage = self._attach_aq(
                                aq, fs, prev_stage, aq_stage_by_id, edges
                            )
                    port = node.route_for(sender.dst)
                    transmitter = port.transmitter
                    queue = port.queue
                    link = port.link
                else:
                    raise FluidIneligible(f"unknown node type {type(node).__name__}")
                for hook in transmitter.egress_hooks:
                    owner = getattr(hook, "__self__", None)
                    if not isinstance(owner, AqPipeline):
                        raise FluidIneligible(
                            f"{transmitter.name} has a non-AQ egress hook"
                        )
                    if owner.lookup(sender.aq_egress_id, EGRESS) is not None:
                        raise FluidIneligible(
                            f"egress AQ on {transmitter.name} is not fluid-capable"
                        )
                if not getattr(queue, "supports_fluid", False):
                    raise FluidIneligible(
                        f"queue {queue.name or type(queue).__name__} lacks "
                        f"bulk fluid accounting"
                    )
                if queue.ecn_threshold_bytes is not None:
                    raise FluidIneligible(
                        f"queue {queue.name} marks ECN per packet"
                    )
                stage = queue_stage_by_id.get(id(queue))
                if stage is None:
                    stage = _QueueStage(queue, transmitter, link)
                    queue_stage_by_id[id(queue)] = stage
                    self._queue_stages.append(stage)
                    edges.setdefault(id(stage), set())
                if sender.flow_id not in stage.flow_ids:
                    stage.flow_ids.append(sender.flow_id)
                    stage.psize[sender.flow_id] = sender.packet_size
                fs.stages.append(stage)
                if prev_stage is not None:
                    edges.setdefault(id(prev_stage), set()).add(id(stage))
                prev_stage = stage
                handler = link._handler
                node = getattr(handler, "__self__", None)
                if node is None:
                    raise FluidIneligible(
                        f"link {link.name} handler is not a network node"
                    )
                barrier = transmission_time(
                    sender.packet_size, link.rate_bps
                ) + link.prop_delay
                if barrier > self._barrier:
                    self._barrier = barrier
            if fs.dst.receive_taps:
                raise FluidIneligible(f"host {fs.dst.name} has receive taps")
            self._flows[sender.flow_id] = fs
        self._stages = self._topo_sort(edges)
        self._barrier *= 2.0

    def _attach_aq(self, aq, fs, prev_stage, aq_stage_by_id, edges):
        if aq.policy.kind != DROP_BASED:
            raise FluidIneligible(
                f"AQ {aq.aq_id} uses a {aq.policy.kind} feedback policy"
            )
        if aq.record_delays:
            raise FluidIneligible(f"AQ {aq.aq_id} records per-packet delays")
        stage = aq_stage_by_id.get(id(aq))
        if stage is None:
            stage = _AqStage(aq)
            aq_stage_by_id[id(aq)] = stage
            self._aq_stages.append(stage)
            edges.setdefault(id(stage), set())
        if fs.sender.flow_id not in stage.flow_ids:
            stage.flow_ids.append(fs.sender.flow_id)
        stage.sat_tol = max(stage.sat_tol, float(fs.sender.packet_size))
        fs.stages.append(stage)
        if prev_stage is not None:
            edges.setdefault(id(prev_stage), set()).add(id(stage))
        return stage

    def _topo_sort(self, edges):
        by_id = {}
        for stage in self._queue_stages:
            by_id[id(stage)] = stage
        for stage in self._aq_stages:
            by_id[id(stage)] = stage
        indeg = {sid: 0 for sid in by_id}
        for src_id, dsts in edges.items():
            for dst_id in dsts:
                indeg[dst_id] = indeg.get(dst_id, 0) + 1
        ready = [sid for sid, d in indeg.items() if d == 0]
        order = []
        while ready:
            sid = ready.pop()
            order.append(by_id[sid])
            for dst_id in edges.get(sid, ()):
                indeg[dst_id] -= 1
                if indeg[dst_id] == 0:
                    ready.append(dst_id)
        if len(order) != len(by_id):
            raise FluidIneligible("stage graph has a cycle")
        return order

    # -- engagement ----------------------------------------------------------

    def _reject(self, reason: str) -> bool:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1
        return False

    def _links_ok(self) -> bool:
        for stage in self._queue_stages:
            if stage.link._faulted:
                return False
        return True

    def _try_engage(self, until: float) -> bool:
        sim = self.sim
        if not self._links_ok():
            return self._reject("link_faulted")
        # Pre-flight: the earliest hard epoch bound must leave room for
        # the barrier plus a worthwhile epoch, otherwise engagement would
        # perturb the run (idle the links for the barrier) only to fall
        # straight back to packet mode. Calendar events are deliberately
        # NOT consulted here: most of them belong to the senders this
        # engagement is about to pause; a genuinely foreign event simply
        # bounds the first epoch ("event" exit) in the real plan.
        t_hard = until
        for fs in self._flows.values():
            sender = fs.sender
            if not sender.is_active(sim.now):
                continue
            if sender.stop_time is not None and sender.stop_time < t_hard:
                t_hard = sender.stop_time
            if sender.total_bytes is not None and sender.rate_bps > 0:
                remaining = sender.total_bytes - sender.bytes_sent
                t_ex = sim.now + max(0.0, remaining * 8.0 / sender.rate_bps)
                if t_ex < t_hard:
                    t_hard = t_ex
        if t_hard <= sim.now + self._barrier + self.min_epoch:
            return self._reject("horizon")
        # Park only the transmitters for the drain barrier: senders and
        # shapers keep running per-packet, so an engagement that aborts
        # (or immediately falls back) costs them no emission time — their
        # packets simply land in the parked queues and are captured as
        # backlog. Whatever is mid-serialization or on the wire lands
        # within one tx+prop as well.
        busy0 = {
            id(stage): stage.link.stats.busy_time
            for stage in self._queue_stages
        }
        t_park = sim.now
        for stage in self._queue_stages:
            stage.transmitter.set_mode(MODE_FLUID)
        sim.run(until=sim.now + self._barrier)
        if not self._links_ok():
            self._unpark()
            return self._reject("fault_during_barrier")
        foreign = None
        for stage in self._queue_stages:
            comp = stage.capture()
            for fid in comp:
                if fid not in self._flows:
                    foreign = fid
        if foreign is not None:
            self._restore_queues()
            self._unpark()
            return self._reject("foreign_flow")
        now = sim.now
        for stage in self._queue_stages:
            busy = stage.link.stats.busy_time - busy0[id(stage)]
            stage.drain_debt = max(0.0, (now - t_park) - busy)
        for fs in self._flows.values():
            fs.resume_at = (
                fs.sender.fluid_pause() if fs.sender.is_active(now) else None
            )
        for stage in self._shaper_stages:
            stage.capture()
        for stage in self._aq_stages:
            stage.capture(now)
        self.engagements += 1
        return True

    def _unpark(self) -> None:
        """Abort an engagement attempt before anything beyond the
        transmitters was touched: back to packet mode, re-arm the pumps."""
        for stage in self._queue_stages:
            stage.transmitter.set_mode(MODE_PACKET)
            stage.transmitter.kick()

    def _restore_queues(self) -> None:
        for stage in self._queue_stages:
            stage.restore(self._flows, self.sim.now)

    # -- the epoch loop ------------------------------------------------------

    def _run_epochs(self, until: float) -> str:
        while True:
            plan = self._plan_epoch(until)
            if plan is None:
                return "fallback"
            t_end, lam, exit_reason = plan
            self._apply_epoch(t_end, lam)
            self.epochs += 1
            if exit_reason is not None:
                return exit_reason
            if self.sim.now >= until:
                return "until"

    def _plan_epoch(
        self, until: float
    ) -> Optional[Tuple[float, Dict[int, float], Optional[str]]]:
        sim = self.sim
        t0 = sim.now
        t_hard = until
        exit_reason = "until"
        nxt = sim.peek_time()
        if nxt is not None and nxt < t_hard:
            t_hard = nxt
            exit_reason = "event"
        lam: Dict[int, float] = {}
        for fid, fs in self._flows.items():
            sender = fs.sender
            # Fluid-modeled only when *we* paused it: a sender that became
            # active during the drain barrier still owns a calendar event,
            # which bounds this epoch via peek_time above.
            if sender._pending is not None or not sender.is_active(t0):
                lam[fid] = 0.0
                continue
            rate = sender.rate_bps / 8.0
            lam[fid] = rate
            if sender.stop_time is not None and sender.stop_time < t_hard:
                t_hard = sender.stop_time
                exit_reason = "flow_finish"
            if sender.total_bytes is not None and rate > 0:
                remaining = sender.total_bytes - sender.bytes_sent - fs.carry
                t_ex = t0 + max(0.0, remaining / rate)
                if t_ex < t_hard:
                    t_hard = t_ex
                    exit_reason = "flow_finish"
        if t_hard <= t0 + self.min_epoch:
            return None
        # Phase 1: propagate rates through the stage graph, collecting the
        # earliest internal regime change.
        rates = dict(lam)
        t_soft = math.inf
        for fs in self._flows.values():
            stage = fs.shaper_stage
            if stage is None:
                continue
            rates[stage.flow_id] = stage.rates(rates[stage.flow_id])
            bp = stage.breakpoint()
            if bp is not None and bp > 0 and t0 + bp < t_soft:
                t_soft = t0 + bp
        for stage in self._stages:
            stage.rates(rates)
            bp = stage.breakpoint()
            if bp is not None and bp > 0 and t0 + bp < t_soft:
                t_soft = t0 + bp
        if t_soft < t_hard * (1.0 - _EPS_TIME):
            # Internal regime change: stay fluid. Never plan an epoch
            # shorter than min_epoch — the apply path integrates across
            # regime changes piecewise (queue fill/empty, A-Gap crossing,
            # shaper phases), so stepping slightly past a breakpoint is
            # safe, whereas bailing out on every sub-min_epoch breakpoint
            # would thrash back to packet mode each time a residual
            # backlog drains in a few hundred nanoseconds.
            t_end = min(t_hard, max(t_soft, t0 + self.min_epoch))
            reason = None if t_end < t_hard * (1.0 - _EPS_TIME) else exit_reason
        else:
            t_end = t_hard
            reason = exit_reason
        if t_end <= t0:
            return None
        return t_end, lam, reason

    def _apply_epoch(self, t_end: float, lam: Dict[int, float]) -> None:
        sim = self.sim
        t0 = sim.now
        dt = t_end - t0
        sim.advance_to(t_end)
        trace = self._tele.trace if self._tele is not None else None
        in_int: Dict[int, int] = {}
        for fid, fs in self._flows.items():
            rate = lam.get(fid, 0.0)
            size = fs.sender.packet_size
            nbytes = 0
            if rate > 0.0:
                # The sender is re-modeled analytically from here on; its
                # pre-pause cadence is no longer meaningful on disengage.
                fs.resume_at = None
                raw = rate * dt + fs.carry
                n = int(raw // size)
                nbytes = n * size
                if fs.sender.total_bytes is not None:
                    budget = fs.sender.total_bytes - fs.sender.bytes_sent
                    if nbytes > budget:
                        n = budget // size
                        nbytes = n * size
                        raw = nbytes + fs.carry
                fs.carry = raw - nbytes
                fs.sender.fluid_emit(nbytes, n)
            injected = nbytes
            if fs.shaper_stage is not None:
                # Always run the shaper: a backlog left behind by a finished
                # or idle sender keeps draining into the network.
                injected = fs.shaper_stage.apply(dt, t_end, nbytes, size, trace)
            in_int[fid] = injected
            if injected > 0 and trace is not None:
                trace.emit_fields(
                    EV_HOST_SEND, t_end, node=fs.src.name,
                    flow_id=fid, size=injected,
                )
        for stage in self._stages:
            stage.apply(dt, t_end, in_int, trace)
        for fid, fs in self._flows.items():
            out = in_int.get(fid, 0)
            if out <= 0:
                continue
            if trace is not None:
                trace.emit_fields(
                    EV_DELIVER, t_end, node=fs.dst.name, flow_id=fid, size=out,
                )
            sink = fs.sink
            sink.delivered_bytes += out
            sink.delivered_packets += -(-out // fs.sender.packet_size)
            if sink.on_deliver is not None:
                sink.on_deliver(out, t_end)

    # -- disengagement -------------------------------------------------------

    def _disengage(self) -> None:
        now = self.sim.now
        self._restore_queues()
        for stage in self._queue_stages:
            stage.drain_debt = 0.0
            stage.transmitter.set_mode(MODE_PACKET)
            stage.transmitter.kick()
        for fs in self._flows.values():
            if fs.shaper_stage is not None:
                fs.shaper_stage.restore(fs, now, fs.sender.packet_size)
            sender = fs.sender
            if sender._pending is None and sender.is_active(now):
                if fs.resume_at is not None and fs.resume_at >= now:
                    # No epoch re-modeled this sender: restore the exact
                    # per-packet cadence the pause cancelled.
                    when = fs.resume_at
                else:
                    rate = sender.rate_bps / 8.0
                    when = now + max(
                        0.0, (sender.packet_size - fs.carry) / rate
                    )
                    fs.carry = 0.0
                sender.fluid_resume(when)
            fs.resume_at = None
