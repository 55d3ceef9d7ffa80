"""INT-style per-packet flight recorder.

The paper's data plane already piggybacks one in-band scalar on every
packet (``virtual_delay``, Section 3.3.2). This module extends that idea
into a full in-band network telemetry (INT) header: when a
:class:`FlightRecorder` is installed on the active
:class:`~repro.obs.telemetry.Telemetry`, every packet a host injects
carries a ``flight`` list and each component on the path appends a
:class:`HopRecord` — queues record enqueue/dequeue times and depth, AQs
record their id, deployment position, the A-Gap value, and the ECN/drop
decision. When the packet leaves the network (delivered at a host, or
discarded anywhere), the accumulated header becomes an immutable
:class:`Flight` and is fanned out to flight sinks; receivers additionally
echo a compact digest back to the sender on ACKs, exactly the way
``echo_virtual_delay`` travels.

:class:`FlightIndex` is the default in-memory sink: it reconstructs
per-flow paths, per-hop latency breakdowns, and human-readable drop
attribution ("dropped at s0.p1 by AQ 7 rate-limit (ingress), A=1.2MB >
limit 1.0MB"). :class:`JsonlFlightSink`/:func:`read_flights_jsonl` are
the file interchange pair behind ``repro telemetry flights``.

Hot-path contract: components never call the recorder themselves — their
:class:`~repro.obs.probe.Probe` captures it (or ``None``) when it is bound
at construction, so the recorder must be installed before the network is
built.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import IO, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError

from .codec import dumps_compact, encode_flight, read_records

_HOP_FIELDS = (
    "kind",       # "queue" | "aq" | "drop" | "cut"
    "node",       # component name
    "t_in",       # enqueue / decision time (s)
    "t_out",      # dequeue time for queue hops (s)
    "depth",      # queue backlog in bytes after the operation
    "aq_id",      # Augmented Queue id for "aq" hops
    "position",   # AQ deployment position: "ingress" | "egress"
    "agap",       # A-Gap value in bytes at the AQ decision
    "limit",      # AQ limit in bytes (None when unlimited)
    "ecn",        # True when the AQ/queue marked CE on this hop
    "reason",     # drop cause label ("buffer", "red", "rate_limit", ...)
    "corr",       # cross-shard correlation key for "cut" hops
)


class HopRecord:
    """One in-band telemetry entry appended to a packet's flight header."""

    __slots__ = _HOP_FIELDS

    def __init__(
        self,
        kind: str,
        node: str,
        t_in: float,
        t_out: Optional[float] = None,
        depth: Optional[float] = None,
        aq_id: Optional[int] = None,
        position: Optional[str] = None,
        agap: Optional[float] = None,
        limit: Optional[float] = None,
        ecn: Optional[bool] = None,
        reason: Optional[str] = None,
        corr: Optional[str] = None,
    ) -> None:
        self.kind = kind
        self.node = node
        self.t_in = t_in
        self.t_out = t_out
        self.depth = depth
        self.aq_id = aq_id
        self.position = position
        self.agap = agap
        self.limit = limit
        self.ecn = ecn
        self.reason = reason
        self.corr = corr

    def to_dict(self) -> dict:
        """Compact dict: ``None`` fields are omitted."""
        out = {}
        for field in _HOP_FIELDS:
            val = getattr(self, field)
            if val is not None:
                out[field] = val
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "HopRecord":
        return cls(**{f: data.get(f) for f in _HOP_FIELDS if f in data})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{f}={getattr(self, f)!r}"
            for f in _HOP_FIELDS
            if getattr(self, f) is not None
        )
        return f"HopRecord({parts})"


class Flight:
    """A completed packet journey: identity, outcome, and its hop records."""

    __slots__ = (
        "packet_id", "flow_id", "src", "dst", "kind", "size",
        "status", "t_start", "t_end", "end_node", "hops", "retransmission",
    )

    def __init__(
        self,
        packet_id: int,
        flow_id: int,
        src: str,
        dst: str,
        kind: int,
        size: int,
        status: str,
        t_start: float,
        t_end: float,
        hops: List[HopRecord],
        end_node: str = "",
        retransmission: bool = False,
    ) -> None:
        self.packet_id = packet_id
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.kind = kind
        self.size = size
        self.status = status
        self.t_start = t_start
        self.t_end = t_end
        self.end_node = end_node
        self.hops = hops
        self.retransmission = retransmission

    @property
    def latency(self) -> float:
        """End-to-end time from injection to completion, in seconds."""
        return self.t_end - self.t_start

    @property
    def path(self) -> Tuple[str, ...]:
        """The sequence of node names the packet visited."""
        return tuple(h.node for h in self.hops)

    @property
    def corr_in(self) -> Optional[str]:
        """Correlation key this segment continues from, if it begins at a cut."""
        if self.hops and self.hops[0].kind == "cut":
            return self.hops[0].corr
        return None

    @property
    def corr_out(self) -> Optional[str]:
        """Correlation key this segment exported under, if it ends at a cut."""
        if self.hops and self.hops[-1].kind == "cut":
            return self.hops[-1].corr
        return None

    @property
    def drop_hop(self) -> Optional[HopRecord]:
        """The hop that discarded the packet, if this flight was dropped."""
        if self.status != "dropped":
            return None
        for hop in reversed(self.hops):
            if hop.kind == "drop" or hop.reason is not None:
                return hop
        return self.hops[-1] if self.hops else None

    def attribution(self) -> str:
        """Human-readable one-line account of where/why the packet ended."""
        ident = f"packet #{self.packet_id} flow {self.flow_id}"
        if self.status == "delivered":
            return (
                f"{ident} delivered {self.src}->{self.dst} "
                f"in {self.latency * 1e3:.3f} ms over {len(self.hops)} hops"
            )
        hop = self.drop_hop
        if hop is None:
            where = f" at {self.end_node}" if self.end_node else ""
            return f"{ident} dropped{where} (no hop records)"
        if hop.aq_id is not None:
            site = self.end_node or hop.node
            where = f"at {site}" if site else "in the pipeline"
            detail = f"by AQ {hop.aq_id} rate-limit"
            if hop.position:
                detail += f" ({hop.position})"
            if hop.agap is not None:
                detail += f", A={_fmt_bytes(hop.agap)}"
                if hop.limit is not None:
                    detail += f" > limit {_fmt_bytes(hop.limit)}"
            return f"{ident} dropped {where} {detail}"
        detail = hop.reason or "drop"
        extra = f", backlog {_fmt_bytes(hop.depth)}" if hop.depth is not None else ""
        return f"{ident} dropped at {hop.node} ({detail}{extra})"

    def to_dict(self) -> dict:
        out = {
            "packet_id": self.packet_id,
            "flow_id": self.flow_id,
            "src": self.src,
            "dst": self.dst,
            "kind": self.kind,
            "size": self.size,
            "status": self.status,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "end_node": self.end_node,
            "hops": [h.to_dict() for h in self.hops],
        }
        if self.retransmission:
            out["retransmission"] = True
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Flight":
        return cls(
            packet_id=data["packet_id"],
            flow_id=data["flow_id"],
            src=data.get("src", ""),
            dst=data.get("dst", ""),
            kind=data.get("kind", 0),
            size=data.get("size", 0),
            status=data["status"],
            t_start=data.get("t_start", 0.0),
            t_end=data.get("t_end", 0.0),
            end_node=data.get("end_node", ""),
            hops=[HopRecord.from_dict(h) for h in data.get("hops", [])],
            retransmission=bool(data.get("retransmission", False)),
        )


def _fmt_bytes(value: float) -> str:
    """Format a byte count the way the paper quotes A-Gap values."""
    if value >= 1e6:
        return f"{value / 1e6:.1f}MB"
    if value >= 1e3:
        return f"{value / 1e3:.1f}KB"
    return f"{value:.0f}B"


class FlightSink:
    """Interface: receives every completed :class:`Flight`."""

    def handle_flight(self, flight: Flight) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; called by ``FlightRecorder.close()``."""


class JsonlFlightSink(FlightSink):
    """Appends each completed flight as one JSON line.

    With ``max_flights`` set, the sink becomes a ring: only the most
    recent ``max_flights`` flights survive to the file (written at
    :meth:`close`), and every overwritten one is tallied in
    ``flights_evicted`` — long ``--flight-record`` runs then degrade to
    "the recent past" with an explicit loss count instead of growing the
    output without bound. Unbounded sinks keep the original streaming
    behaviour (each flight hits the file immediately).
    """

    def __init__(
        self,
        destination: Union[str, IO[str]],
        max_flights: Optional[int] = None,
    ) -> None:
        if max_flights is not None and max_flights < 1:
            raise ValueError(f"max_flights must be positive, got {max_flights}")
        if isinstance(destination, str):
            self._fh: IO[str] = open(destination, "w", encoding="utf-8")
            self._owns_fh = True
        else:
            self._fh = destination
            self._owns_fh = False
        self.max_flights = max_flights
        self._ring: Optional[Deque[Flight]] = (
            deque(maxlen=max_flights) if max_flights is not None else None
        )
        self.flights_written = 0
        self.flights_evicted = 0
        self._closed = False

    def _write(self, flight: Flight) -> None:
        self._fh.write(encode_flight(flight))
        self.flights_written += 1

    def handle_flight(self, flight: Flight) -> None:
        ring = self._ring
        if ring is None:
            self._write(flight)
            return
        if len(ring) == ring.maxlen:
            self.flights_evicted += 1
        ring.append(flight)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._ring is not None:
            if self.flights_evicted:
                # A header line so readers know the file is a suffix of
                # the run, and how much history the ring overwrote.
                self._fh.write(dumps_compact({
                    "type": "ring_meta",
                    "max_flights": self.max_flights,
                    "flights_evicted": self.flights_evicted,
                }) + "\n")
            for flight in self._ring:
                self._write(flight)
            self._ring.clear()
        self._fh.flush()
        if self._owns_fh:
            self._fh.close()


class FlightIndex(FlightSink):
    """In-memory reconstruction of paths, hop latencies, and drops.

    Aggregates are unbounded-safe (counters keyed by flow/node); the raw
    flights kept for inspection are capped (`max_flights` most recent,
    plus up to `max_drops` dropped flights retained separately so drop
    forensics survive long runs).
    """

    def __init__(self, max_flights: int = 10_000, max_drops: int = 10_000) -> None:
        self.flights: Deque[Flight] = deque(maxlen=max_flights)
        self.drops: Deque[Flight] = deque(maxlen=max_drops)
        self.total = 0
        self.delivered = 0
        self.dropped = 0
        self.unfinished = 0
        self.exported = 0
        self.paths_by_flow: Dict[int, Counter] = {}
        self._latency_sum_by_flow: Dict[int, float] = {}
        self._delivered_by_flow: Counter = Counter()
        self._hop_wait_sum: Dict[str, float] = {}
        self._hop_visits: Counter = Counter()
        self.echoes: Dict[int, dict] = {}

    def handle_flight(self, flight: Flight) -> None:
        self.total += 1
        self.flights.append(flight)
        if flight.status == "dropped":
            self.dropped += 1
            self.drops.append(flight)
        elif flight.status == "unfinished":
            # Still in a queue at end of run: its hops count toward the
            # per-node waits below, but not toward delivery latency/paths.
            self.unfinished += 1
        elif flight.status == "exported":
            # Sealed at a shard cut: a partial segment awaiting stitching,
            # not an end-to-end delivery.
            self.exported += 1
        else:
            self.delivered += 1
            flow_id = flight.flow_id
            self._delivered_by_flow[flow_id] += 1
            self._latency_sum_by_flow[flow_id] = (
                self._latency_sum_by_flow.get(flow_id, 0.0) + flight.latency
            )
            paths = self.paths_by_flow.get(flow_id)
            if paths is None:
                paths = self.paths_by_flow[flow_id] = Counter()
            paths[flight.path] += 1
        for hop in flight.hops:
            if hop.kind == "queue" and hop.t_out is not None:
                self._hop_visits[hop.node] += 1
                self._hop_wait_sum[hop.node] = (
                    self._hop_wait_sum.get(hop.node, 0.0) + (hop.t_out - hop.t_in)
                )

    def note_echo(self, flow_id: int, digest: dict, now: float) -> None:
        """Record the latest receiver-echoed digest for a flow."""
        self.echoes[flow_id] = dict(digest, echoed_at=now)

    def path_for(self, flow_id: int) -> Optional[Tuple[str, ...]]:
        """Most common delivered path for a flow, or ``None``."""
        paths = self.paths_by_flow.get(flow_id)
        if not paths:
            return None
        return paths.most_common(1)[0][0]

    def mean_latency(self, flow_id: int) -> Optional[float]:
        """Mean end-to-end latency over delivered flights of a flow."""
        n = self._delivered_by_flow[flow_id]
        if n == 0:
            return None
        return self._latency_sum_by_flow[flow_id] / n

    def hop_latency(self) -> Dict[str, dict]:
        """Per-node queue-wait breakdown: visits and mean wait seconds."""
        out = {}
        for node, visits in sorted(self._hop_visits.items()):
            total = self._hop_wait_sum[node]
            out[node] = {
                "visits": visits,
                "total_wait_s": total,
                "mean_wait_s": total / visits,
            }
        return out

    def drop_attributions(self, limit: Optional[int] = None) -> List[str]:
        """Attribution lines for retained drops, oldest first."""
        drops = list(self.drops)
        if limit is not None:
            drops = drops[:limit]
        return [f.attribution() for f in drops]

    def flights_for(self, flow_id: int) -> List[Flight]:
        """Retained flights of one flow, in completion order."""
        return [f for f in self.flights if f.flow_id == flow_id]


#: Open-flight list length below which sealed packets are never swept.
_SWEEP_FLOOR = 4096


class FlightRecorder:
    """Coordinates in-band hop recording and flight completion fan-out.

    Install via :meth:`repro.obs.telemetry.Telemetry.enable_flight_recording`
    *before* building the network — probes capture the recorder when
    they are bound, at component construction.
    """

    def __init__(self, index: Optional[FlightIndex] = None) -> None:
        self.index = index if index is not None else FlightIndex()
        self._sinks: List[FlightSink] = [self.index]
        self.flights_completed = 0
        # Armed packets whose flights are still open, so :meth:`finalize`
        # can seal in-flight history at end of run instead of dropping it.
        # Compacted in :meth:`_track`, so it tracks the true in-flight set
        # (plus recently sealed stragglers), not every packet ever armed.
        self._open: List = []
        self._compact_at = _SWEEP_FLOOR
        self.compactions = 0

    def attach(self, sink: FlightSink) -> FlightSink:
        self._sinks.append(sink)
        return sink

    def add_jsonl(
        self,
        destination: Union[str, IO[str]],
        max_flights: Optional[int] = None,
    ) -> JsonlFlightSink:
        """Attach a JSONL file sink for completed flights; ``max_flights``
        bounds it to a most-recent ring (see :class:`JsonlFlightSink`)."""
        sink = JsonlFlightSink(destination, max_flights=max_flights)
        self.attach(sink)
        return sink

    # -- data-plane entry points -------------------------------------------

    def start(self, packet, now: float) -> None:
        """Arm a packet with an empty flight header (called at injection)."""
        packet.flight = [HopRecord("host", packet.src, now)]
        self._track(packet)

    def begin_segment(self, packet, now: float, node: str, corr: str) -> None:
        """Re-arm a packet imported across a shard cut.

        The opening hop carries the same correlation key the exporting
        shard sealed its segment with, so :func:`stitch_flight_dumps` can
        chain the two back into one end-to-end flight.
        """
        packet.flight = [HopRecord("cut", node, now, corr=corr)]
        self._track(packet)

    def _track(self, packet) -> None:
        """Remember an armed packet for :meth:`finalize`. Sealed packets
        are swept out only once the list has doubled since the last
        sweep's survivors, so the sweep stays amortized O(1) per packet
        however many are genuinely in flight."""
        open_packets = self._open
        open_packets.append(packet)
        if len(open_packets) > self._compact_at:
            self._open = [p for p in open_packets if p.flight is not None]
            self._compact_at = max(_SWEEP_FLOOR, 2 * len(self._open))
            self.compactions += 1

    def queue_hop(self, packet, node: str, now: float, depth: float) -> HopRecord:
        """Record acceptance into a physical queue; returns the open hop."""
        hop = HopRecord("queue", node, now, None, depth)
        packet.flight.append(hop)
        return hop

    def queue_exit(self, packet, node: str, now: float) -> None:
        """Close the most recent open queue hop for ``node``."""
        for hop in reversed(packet.flight):
            if hop.kind == "queue" and hop.node == node and hop.t_out is None:
                hop.t_out = now
                return

    def aq_hop(
        self,
        packet,
        node: str,
        now: float,
        aq_id: int,
        position: str,
        agap: float,
        limit: Optional[float],
        ecn: bool,
        dropped: bool,
    ) -> HopRecord:
        """Record an Augmented Queue decision (mark/forward/limit-drop)."""
        hop = HopRecord(
            "aq", node, now,
            aq_id=aq_id,
            position=position or None,
            agap=agap,
            limit=limit,
            ecn=ecn or None,
            reason="rate_limit" if dropped else None,
        )
        packet.flight.append(hop)
        return hop

    def drop_hop(
        self,
        packet,
        node: str,
        now: float,
        reason: str,
        depth: Optional[float] = None,
    ) -> None:
        """Record a discard decision at a physical queue or shaper."""
        packet.flight.append(HopRecord("drop", node, now, depth=depth, reason=reason))

    def complete(self, packet, now: float, status: str, node: str = "") -> Optional[Flight]:
        """Seal the packet's flight and fan it out; idempotent per packet.

        ``node`` names the component where the journey ended — the
        receiving host for deliveries, the discard site for drops (the AQ
        hop itself only knows its entity, not which switch port it was
        enforced at).
        """
        hops = packet.flight
        if hops is None:
            return None
        packet.flight = None
        flight = Flight(
            packet.packet_id, packet.flow_id, packet.src, packet.dst,
            packet.kind, packet.size, status,
            hops[0].t_in if hops else now, now, hops, node,
            bool(packet.retransmission),
        )
        self.flights_completed += 1
        for sink in self._sinks:
            sink.handle_flight(flight)
        return flight

    def digest_of(self, packet) -> Optional[dict]:
        """Compact receiver-side summary of a packet's in-band header."""
        hops = packet.flight
        if hops is None:
            return None
        queue_wait = 0.0
        for hop in hops:
            if hop.kind == "queue" and hop.t_out is not None:
                queue_wait += hop.t_out - hop.t_in
        return {"hops": len(hops), "queue_wait_s": queue_wait}

    def note_echo(self, flow_id: int, digest: dict, now: float) -> None:
        """Sender-side hook: an ACK carried back a receiver digest."""
        self.index.note_echo(flow_id, digest, now)

    def finalize(self, status: str = "unfinished") -> int:
        """Seal every still-open flight (packets in queues at end of run).

        Without this, in-flight history is silently lost at close — and a
        ground-truth cross-check against the time-window recorder (which
        counted those packets' enqueues) would come up short. Each flight
        ends at its own last recorded hop time. Returns the number sealed.
        """
        sealed = 0
        for packet in self._open:
            hops = packet.flight
            if hops is None:
                continue
            last = hops[-1]
            t_end = last.t_out if last.t_out is not None else last.t_in
            self.complete(packet, t_end, status)
            sealed += 1
        self._open = []
        self._compact_at = _SWEEP_FLOOR
        return sealed

    def close(self) -> None:
        self.finalize()
        for sink in self._sinks:
            sink.close()


def _parse_flight(data: dict) -> Optional[Flight]:
    if data.get("type") == "ring_meta":
        # Bounded-sink header: the file holds only the newest
        # ``max_flights`` flights; not a flight itself.
        return None
    return Flight.from_dict(data)


def read_flights_jsonl(
    path: str,
    *,
    strict: bool = True,
    on_skip: Optional[Callable[[int, str], None]] = None,
) -> Iterator[Flight]:
    """Stream flights back from a :class:`JsonlFlightSink` file; bad lines
    raise or are skipped exactly as in :func:`~repro.obs.tracebus.read_jsonl`."""
    return read_records(path, _parse_flight, "flights JSONL", strict, on_skip)


def journey_key(flight: Flight) -> tuple:
    """Parallelism-invariant identity of an end-to-end flight.

    Excludes ``packet_id`` (a per-process counter that differs between
    inline and spawn runs) but pins everything the determinism contract
    promises: identity, outcome, full path, and exact timing.
    """
    hop = flight.drop_hop
    return (
        flight.flow_id, flight.src, flight.dst, flight.kind, flight.size,
        flight.status, flight.t_start, flight.t_end, flight.end_node,
        flight.path, hop.reason if hop is not None else None,
        flight.retransmission,
    )


def stitch_flight_dumps(
    paths: Sequence[str],
    out_path: Optional[str] = None,
) -> List[Flight]:
    """Reassemble end-to-end flights from per-shard segment dumps.

    Each shard seals a packet's flight when it exports it at a cut link
    (status ``"exported"``, trailing ``"cut"`` hop carrying a correlation
    key) and opens a fresh segment when it imports one (leading ``"cut"``
    hop with the same key). This function chains segments key-to-key into
    single flights whose path/latency/drop attribution match a serial
    1-shard run exactly.

    Segments whose export was never imported (the packet was still on the
    wire at end of run) stay sealed at the cut — honestly reported as
    ``"exported"`` rather than guessed at. Returns the stitched flights
    sorted deterministically; with ``out_path`` they are also written as
    a standard flights JSONL file.
    """
    if not paths:
        raise ConfigurationError("stitch needs at least one flight dump")
    heads: List[Flight] = []
    continuations: Dict[str, Flight] = {}
    for path in paths:
        for flight in read_flights_jsonl(path):
            key = flight.corr_in
            if key is None:
                heads.append(flight)
            elif key in continuations:
                raise ConfigurationError(
                    f"flight dumps overlap: duplicate correlation key {key!r} "
                    f"(is {path} listed twice?)"
                )
            else:
                continuations[key] = flight
    stitched: List[Flight] = []
    for head in heads:
        hops = list(head.hops)
        tail = head
        while tail.corr_out is not None:
            nxt = continuations.pop(tail.corr_out, None)
            if nxt is None:
                # Exported but never imported (in flight at end of run, or
                # the importing shard's dump is missing): terminal as-is.
                break
            hops.extend(nxt.hops)
            tail = nxt
        stitched.append(Flight(
            packet_id=head.packet_id,
            flow_id=head.flow_id,
            src=head.src,
            dst=head.dst,
            kind=head.kind,
            size=head.size,
            status=tail.status,
            t_start=head.t_start,
            t_end=tail.t_end,
            hops=hops,
            end_node=tail.end_node,
            retransmission=head.retransmission,
        ))
    if continuations:
        # Continuation segments whose head never appeared (e.g. a bounded
        # ring evicted it). Keep them — dropping history silently would
        # make the stitched dump lie about coverage.
        stitched.extend(continuations.values())
    stitched.sort(key=lambda f: (
        f.t_start, f.flow_id, f.src, f.dst, f.t_end, f.status, f.packet_id,
    ))
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(map(encode_flight, stitched))
    return stitched
