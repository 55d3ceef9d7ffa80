"""Conservative-synchronization parallel DES: one fabric, many workers.

The engine (:mod:`repro.sim.engine`) is strictly single-threaded, so a
large fat-tree run is wall-clock-bound by one core even after the fluid
fast path. This module shards **one scenario** across partitions, each
with its own :class:`~repro.sim.engine.Simulator`, advancing in lockstep
epochs of conservative lookahead ``L`` — the minimum propagation delay of
any *cut link* (a link whose endpoints live in different partitions).

Why no null messages are needed
-------------------------------

Cut links are modeled by :class:`~repro.net.link.BoundaryLink`: the
sending side keeps its queue/transmitter/fault machinery, but delivery
becomes a *capture* of ``(arrival_time, link_id, packet)`` into the
epoch's outbound batch, where ``arrival_time = serialization_end +
wire_delay``. A packet serialized during epoch ``(T-L, T]`` therefore
arrives at ``(T, T+L]`` — strictly after the barrier at ``T``. Running
every partition to ``T``, exchanging batches, and scheduling the arrivals
is thus always safe: the classic synchronous/barrier variant of
conservative PDES (Chandy–Misra–Bryant lookahead without per-channel
null messages).

Determinism contract (digest equivalence across shard counts)
-------------------------------------------------------------

A sharded run is **bit-identical** to the single-partition run of the
same scenario — same per-flow byte counts, same drop counts, same event
totals — because every source of ordering is partition-count-invariant:

* the *cut set* is a function of the topology alone (the fat-tree
  builder routes every agg<->core link through boundary machinery even
  when both ends share a partition, including ``shards=1``);
* each partition builds by iterating the *full* scenario spec in a fixed
  global order, skipping non-owned elements, so relative event seq order
  within a partition never depends on what other partitions exist;
* flow ids are assigned from the full spec (never allocated per
  partition), and per-component RNG streams come from
  :class:`~repro.sim.rng.RngRegistry` name derivation, which is
  construction-order independent;
* inbound boundary batches are applied sorted by ``(arrival_time,
  link_id, departure_seq)`` — a total order independent of worker
  completion order *and* of the shard count (link ids are global); and
* barrier-scheduled arrivals always carry larger event seqs than any
  event scheduled during earlier epochs, which matches the order the
  single-partition run would have produced (the import there is also
  scheduled at the barrier).

The conservation auditor stays closed per partition via synthetic
events: a capture emits a ``deliver`` at the cut-link name (the packet
left this partition's ledger) and an import emits a ``host_send`` at the
same name (it entered the destination ledger). Each shard's per-flow
ledger therefore balances independently — audit-clean at any shard
count.

Mode composition
----------------

Sharding composes with the packet engine and all telemetry layers
(audit, time windows, flight recording *within* a partition). It does
**not** compose with the fluid fast path (:mod:`repro.sim.fluid`): a
fluid epoch advances a link analytically past barrier times, which would
break the capture-before-barrier invariant. Enforced: a
:class:`~repro.sim.fluid.FluidEngine` built on a partition's network
raises :class:`~repro.errors.ConfigurationError` naming the first
:class:`~repro.net.link.BoundaryLink` it finds. Probabilistic
``packet_corruption`` faults are deterministic for a *fixed* shard count
but only digest-comparable across counts when at most one target draws
from the plan RNG (with several corrupting links the single-process run
interleaves one RNG stream across them in global arrival order, which a
partitioned run cannot reproduce); blackouts and restarts are exact.

Two drivers share all of the above, and one :class:`PartitionSession`
per partition (telemetry, fault-plan slice, build, worker report), so
they return the same :class:`ShardRunReport`:

* :func:`run_inline` — every partition in one process, stepped by
  :func:`run_lockstep` (tests and the ``shard/equiv/*`` jobs; the
  deterministic-ordering regression calls :func:`run_lockstep` itself to
  permute batch arrival order);
* :func:`run_sharded` — spawn-isolated workers (one process per
  partition) exchanging batches over pipes, reusing the
  :mod:`repro.harness.runner` worker conventions.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ShardError
from ..net.link import BoundaryLink
from ..net.packet import Packet
from ..obs.probe import bind_probe

#: Packet header fields serialized across a cut, in wire order. The
#: transient fields (``enqueue_time``, ``flight``, ``flight_digest``,
#: ``packet_id``) stay behind: the first is queue-local scratch state and
#: flights do not cross cuts (each partition records its own hops);
#: ``packet_id`` is a per-process counter that is invisible to results.
PACKET_COLUMNS = (
    "kind", "src", "dst", "flow_id", "size", "seq", "ack", "fin", "ect",
    "ce", "ece", "aq_ingress_id", "aq_egress_id", "virtual_delay",
    "echo_virtual_delay", "sent_time", "retransmission",
)

_CTOR_SLICE = 9  # columns [0:9] are Packet constructor arguments


class BoundaryBatch:
    """Struct-of-arrays batch of boundary crossings for one destination
    partition within one epoch.

    Parallel primitive-typed lists (not per-packet objects) keep the
    pickled pipe payload compact and the per-partition working set flat —
    a worker never materializes foreign packets until the barrier.
    """

    __slots__ = ("times", "links", "seqs", "cols")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.links: List[int] = []
        self.seqs: List[int] = []
        self.cols: Tuple[List, ...] = tuple([] for _ in PACKET_COLUMNS)

    def append(self, arrival_t: float, link_id: int, seq: int, packet: Packet) -> None:
        self.times.append(arrival_t)
        self.links.append(link_id)
        self.seqs.append(seq)
        cols = self.cols
        for index, name in enumerate(PACKET_COLUMNS):
            cols[index].append(getattr(packet, name))

    def __len__(self) -> int:
        return len(self.times)

    def rows(self) -> List[Tuple[float, int, int, tuple]]:
        """Decode into sortable ``(time, link_id, seq, header_values)`` rows."""
        cols = self.cols
        return [
            (self.times[n], self.links[n], self.seqs[n],
             tuple(col[n] for col in cols))
            for n in range(len(self.times))
        ]

    # Plain __slots__ pickling (protocol 2+) ships the lists as-is.


def packet_from_row(values: tuple) -> Packet:
    """Rebuild a :class:`Packet` from one decoded batch row."""
    packet = Packet(
        *values[:_CTOR_SLICE],
        aq_ingress_id=values[11],
        aq_egress_id=values[12],
        retransmission=values[16],
    )
    packet.ce = values[9]
    packet.ece = values[10]
    packet.virtual_delay = values[13]
    packet.echo_virtual_delay = values[14]
    packet.sent_time = values[15]
    return packet


def barrier_times(duration: float, lookahead: float) -> List[float]:
    """The shared epoch schedule: ``L, 2L, ...`` clamped to ``duration``.

    Every driver — in-process, spawn workers, and the coordinator — must
    derive barriers from this one function so float accumulation is
    bit-identical everywhere.
    """
    if duration <= 0:
        raise ConfigurationError(f"duration must be positive, got {duration}")
    if lookahead <= 0:
        raise ConfigurationError(f"lookahead must be positive, got {lookahead}")
    times: List[float] = []
    t = 0.0
    while t < duration:
        t = min(t + lookahead, duration)
        times.append(t)
    return times


class ShardRuntime:
    """One partition's boundary machinery: the *boundary context* the
    topology builder wires cut links through, plus epoch stepping.

    Life cycle: construct with the partition plan, hand to the builder
    (which calls :meth:`make_egress` / :meth:`register_import` for every
    cut link and then :meth:`attach_network`), then drive with
    :meth:`run_epoch` / :meth:`apply_inbound` — directly, or via
    :func:`run_lockstep` / :func:`run_sharded`.
    """

    def __init__(self, partition_id: int, plan) -> None:
        if not 0 <= partition_id < plan.shards:
            raise ConfigurationError(
                f"partition {partition_id} outside [0, {plan.shards})"
            )
        self.partition_id = partition_id
        self.plan = plan
        self.num_partitions = plan.shards
        self.lookahead = plan.lookahead
        self.sim = None
        self.network = None
        self._probe = None
        self._outbox = [BoundaryBatch() for _ in range(self.num_partitions)]
        self._imports: Dict[int, Callable[[Packet], None]] = {}
        self._import_names: Dict[int, str] = {}
        self.exported_packets = 0
        self.imported_packets = 0

    # -- boundary-context interface (called by the topology builder) -------

    def make_egress(self, sim, cut, rate_bps: float, prop_delay: float) -> BoundaryLink:
        """Create the capture-side proxy for one owned cut link."""
        if prop_delay < self.lookahead:
            raise ConfigurationError(
                f"cut link {cut.name} propagation {prop_delay} below the "
                f"lookahead {self.lookahead}: arrivals could land before "
                f"the next barrier"
            )
        if self.sim is None:
            self.sim = sim
        elif self.sim is not sim:
            raise ConfigurationError(
                "one ShardRuntime cannot span two simulators"
            )
        return BoundaryLink(
            sim, rate_bps, prop_delay, cut.link_id, cut.dst_partition,
            self._capture, name=cut.name,
        )

    def register_import(self, cut, handler: Callable[[Packet], None]) -> None:
        """Bind the receive side of one owned cut link."""
        self._imports[cut.link_id] = handler
        self._import_names[cut.link_id] = cut.name

    def attach_network(self, network) -> None:
        """Adopt the built partition network (sim + probe)."""
        self.network = network
        if self.sim is None:
            self.sim = network.sim
        self._probe = bind_probe(network.sim.telemetry)

    # -- data path ----------------------------------------------------------

    def _capture(self, link: BoundaryLink, arrival_t: float, packet: Packet) -> None:
        """BoundaryLink delivery: book the export (the probe closes the
        local ledger and seals the flight segment at the cut-link name)."""
        self._outbox[link.dest_partition].append(
            arrival_t, link.link_id, link.exported, packet
        )
        link.exported += 1
        self.exported_packets += 1
        if self._probe is not None:
            self._probe.exported(
                packet, self.sim.now, link.name, link.link_id, link.exported - 1
            )

    def _inject(self, link_id: int, seq: int, values: tuple) -> None:
        """Arrival of an imported boundary packet (scheduled at a barrier)."""
        handler = self._imports.get(link_id)
        if handler is None:
            raise ShardError(
                f"partition {self.partition_id} received a packet for "
                f"unregistered cut link id {link_id}"
            )
        packet = packet_from_row(values)
        self.imported_packets += 1
        if self._probe is not None:
            self._probe.imported(
                packet, self.sim.now, self._import_names[link_id], link_id, seq
            )
        handler(packet)

    # -- epoch stepping ------------------------------------------------------

    def run_epoch(self, until: float) -> List[BoundaryBatch]:
        """Advance to the barrier at ``until``; returns the outbound
        batches of this epoch, indexed by destination partition."""
        if self.sim is None:
            raise ConfigurationError("ShardRuntime has no simulator attached")
        self.sim.run(until=until)
        out = self._outbox
        self._outbox = [BoundaryBatch() for _ in range(self.num_partitions)]
        return out

    def apply_inbound(self, batches: Sequence[BoundaryBatch]) -> int:
        """Schedule every inbound crossing, in the canonical total order
        ``(arrival_time, link_id, departure_seq)``.

        Sorting here — never relying on batch arrival order — is what
        keeps digests stable across OS scheduling and shard counts; the
        regression test permutes the batch list to prove it.
        """
        rows: List[Tuple[float, int, int, tuple]] = []
        for batch in batches:
            rows.extend(batch.rows())
        rows.sort(key=lambda row: (row[0], row[1], row[2]))
        sim = self.sim
        now = sim.now
        for arrival_t, link_id, seq, values in rows:
            if arrival_t <= now:
                raise ShardError(
                    f"boundary packet arrival {arrival_t} not after barrier "
                    f"{now}: lookahead contract violated"
                )
            sim.schedule_fire_at(arrival_t, self._inject, link_id, seq, values)
        return len(rows)


# -- live shard health ---------------------------------------------------------


def _rss_kb() -> Optional[int]:
    """Process memory high-water mark in KB (``ru_maxrss``; platform
    units — KB on Linux), or ``None`` where ``resource`` is missing."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def partition_backlog_bytes(runtime: "ShardRuntime") -> int:
    """Bytes sitting in this partition's switch-port queues right now."""
    network = runtime.network
    if network is None:
        return 0
    total = 0
    for switch in getattr(network, "switches", {}).values():
        for port in switch.ports.values():
            total += port.queue.bytes_queued
    return total


class HeartbeatTracker:
    """Builds the per-epoch health frames a shard streams while running.

    One frame per (partition, epoch), emitted *after* the epoch's events
    ran and *before* the barrier exchange — purely observational, so the
    stream is digest-neutral by construction. Fields:

    ``partition``, ``epoch``, ``watermark_s`` (the sim-time barrier this
    shard just reached), ``wall_s`` (since the tracker started),
    ``events`` (cumulative), ``events_per_s`` (over the last epoch),
    ``backlog_events`` (pending event count), ``backlog_bytes`` (queued
    bytes across switch ports), ``rss_kb`` (memory high-water), and
    ``barrier_wait_s`` (cumulative time blocked on earlier barriers —
    the straggler signal: small for the slowest shard, large for the
    ones waiting on it).
    """

    def __init__(self, partition: int) -> None:
        self.partition = partition
        self._t0 = time.perf_counter()
        self._last_wall = 0.0
        self._last_events = 0
        self.barrier_wait_s = 0.0

    def frame(self, runtime: "ShardRuntime", epoch: int, barrier: float) -> dict:
        wall = time.perf_counter() - self._t0
        events = runtime.sim.events_processed
        delta_wall = wall - self._last_wall
        delta_events = events - self._last_events
        self._last_wall = wall
        self._last_events = events
        return {
            "partition": self.partition,
            "epoch": epoch,
            "watermark_s": barrier,
            "wall_s": wall,
            "events": events,
            "events_per_s": (delta_events / delta_wall) if delta_wall > 0 else 0.0,
            "backlog_events": runtime.sim.pending_events(),
            "backlog_bytes": partition_backlog_bytes(runtime),
            "rss_kb": _rss_kb(),
            "barrier_wait_s": self.barrier_wait_s,
        }


# -- in-process driver ---------------------------------------------------------


def run_lockstep(
    runtimes: Sequence[ShardRuntime],
    duration: float,
    permute=None,
    on_epoch: Optional[Callable[[int, float], None]] = None,
) -> int:
    """Drive every partition in this process through the epoch schedule.

    ``permute(order, epoch) -> order`` (optional) reorders the source-
    partition visitation per epoch — the determinism regression hook
    simulating arbitrary worker completion order. ``on_epoch(epoch,
    barrier)`` (optional) fires after each barrier's batches are applied
    — the inline driver's health-frame hook. Returns the number of
    epochs executed.
    """
    if not runtimes:
        raise ConfigurationError("run_lockstep needs at least one runtime")
    lookaheads = {rt.lookahead for rt in runtimes}
    if len(lookaheads) != 1:
        raise ShardError(f"partitions disagree on lookahead: {sorted(lookaheads)}")
    schedule = barrier_times(duration, lookaheads.pop())
    for epoch, barrier in enumerate(schedule):
        outs = [rt.run_epoch(barrier) for rt in runtimes]
        order = list(range(len(runtimes)))
        if permute is not None:
            order = permute(order, epoch)
        for j, rt in enumerate(runtimes):
            inbound = [outs[i][j] for i in order if len(outs[i][j])]
            rt.apply_inbound(inbound)
        if on_epoch is not None:
            on_epoch(epoch, barrier)
    return len(schedule)


# -- one partition, built and reported one way ---------------------------------


def shard_worker_seed(seed_base: str, partition: int) -> int:
    """Stable per-partition seed, mirroring ``JobSpec.worker_seed``."""
    digest = hashlib.sha256(f"{seed_base}/{partition}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def partition_payloads(
    builder: str,
    kwargs: dict,
    shards: int,
    duration: float,
    lookahead: float,
    audit: bool = False,
    timewin_dir: Optional[str] = None,
    timewin_params: Optional[dict] = None,
    fault_plans: Optional[List[Optional[dict]]] = None,
    seed_base: str = "shard",
    heartbeat: bool = False,
    flight_dir: Optional[str] = None,
) -> List[dict]:
    """The picklable description of every partition of one run — what a
    :class:`PartitionSession` is built from, in either driver. Creates the
    artifact directories and names the per-shard ``shard{i}.windows.jsonl``
    / ``shard{i}.flights.jsonl`` files."""
    import os

    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    for directory in (timewin_dir, flight_dir):
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def shard_file(directory: Optional[str], i: int, kind: str) -> Optional[str]:
        if directory is None:
            return None
        return os.path.join(directory, f"shard{i}.{kind}.jsonl")

    return [
        {
            "partition": i,
            "shards": shards,
            "builder": builder,
            "kwargs": dict(kwargs),
            "worker_seed": shard_worker_seed(seed_base, i),
            "duration": duration,
            "lookahead": lookahead,
            "audit": audit,
            "timewin": timewin_params,
            "timewin_path": shard_file(timewin_dir, i, "windows"),
            "flight_path": shard_file(flight_dir, i, "flights"),
            "heartbeat": heartbeat,
            "faults": fault_plans[i] if fault_plans else None,
        }
        for i in range(shards)
    ]


class PartitionSession:
    """One partition of a sharded run: telemetry, fault plan, the built
    :class:`ShardRuntime` and its report — the same object whether the
    partition runs in a spawned worker or inline beside its peers.

    Entering builds the partition (``builder(partition=…, shards=…,
    **kwargs)`` under its own :func:`~repro.harness.common.telemetry_session`
    and, if the payload carries one, its slice of the fault plan) and
    checks the lookahead; :meth:`report` is the worker report both drivers
    ship; leaving closes the telemetry and dumps the windows. Sessions
    nest: inline drivers must leave them in reverse order of entry (a
    :class:`contextlib.ExitStack` does).
    """

    def __init__(self, payload: dict) -> None:
        self.payload = payload
        self.partition: int = payload["partition"]
        self.runtime: Optional[ShardRuntime] = None
        self.telemetry = None
        self._finalize: Optional[Callable[[], dict]] = None
        self._exit: Optional[contextlib.ExitStack] = None
        self._t0 = 0.0

    def __enter__(self) -> "PartitionSession":
        from ..harness.common import telemetry_session
        from ..harness.runner import resolve_target

        payload = self.payload
        with contextlib.ExitStack() as stack:
            self.telemetry = stack.enter_context(telemetry_session(
                audit=bool(payload.get("audit")),
                flight_path=payload.get("flight_path"),
                timewin_path=payload.get("timewin_path"),
                **{f"timewin_{key}": value
                   for key, value in (payload.get("timewin") or {}).items()},
            ))
            fault_scope = contextlib.nullcontext()
            if payload.get("faults"):
                from ..faults.injector import activate_fault_plan
                from ..faults.plan import FaultPlan

                fault_scope = activate_fault_plan(
                    FaultPlan.from_dict(payload["faults"])
                )
            with fault_scope:
                self.runtime, self._finalize = resolve_target(payload["builder"])(
                    partition=self.partition,
                    shards=payload["shards"],
                    **payload["kwargs"],
                )
            if self.runtime.lookahead != payload["lookahead"]:
                raise ShardError(
                    f"worker lookahead {self.runtime.lookahead} disagrees with "
                    f"coordinator {payload['lookahead']}"
                )
            self._exit = stack.pop_all()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._exit.close()

    def report(self) -> dict:
        """This partition's worker report: the result slice, the boundary
        and event counters, ``wall_s`` since the build finished (inline
        partitions interleave in one thread, so theirs overlap), the
        artifact paths, and the :meth:`Telemetry.report` verdict."""
        runtime = self.runtime
        out: dict = {
            "partition": self.partition,
            "status": "ok",
            "result": self._finalize(),
            "wall_s": time.perf_counter() - self._t0,
            "exported_packets": runtime.exported_packets,
            "imported_packets": runtime.imported_packets,
            "events": runtime.sim.events_processed,
        }
        if self.telemetry is not None:
            for key in ("timewin_path", "flight_path"):
                if self.payload.get(key):
                    out[key] = self.payload[key]
            out.update(self.telemetry.report())
        return out


# -- spawn-isolated workers ----------------------------------------------------


def _shard_worker_main(payload: dict, conn) -> None:
    """Worker entry point: one :class:`PartitionSession`, lockstep over
    the pipe.

    Protocol (worker side): per epoch optionally send ``("hb", epoch,
    frame)`` (when the payload enables heartbeats), then send ``("out",
    epoch, [(dest, batch), ...])`` and block for ``("in", epoch,
    [batches])``; after the last barrier send ``("done", report)``. A
    failure at any point sends ``("done", report)`` with
    ``status="failed"`` so the coordinator can abort the round instead of
    deadlocking.
    """
    partition = payload["partition"]
    report: dict = {"partition": partition, "status": "failed"}
    try:
        from ..harness.runner import seed_worker

        seed_worker(payload["worker_seed"])
        with PartitionSession(payload) as session:
            runtime = session.runtime
            tracker = (
                HeartbeatTracker(partition)
                if payload.get("heartbeat") else None
            )
            schedule = barrier_times(payload["duration"], payload["lookahead"])
            for epoch, barrier in enumerate(schedule):
                out = runtime.run_epoch(barrier)
                if tracker is not None:
                    conn.send(("hb", epoch, tracker.frame(runtime, epoch, barrier)))
                conn.send(("out", epoch, [
                    (dest, batch)
                    for dest, batch in enumerate(out)
                    if dest != partition and len(batch)
                ]))
                wait_t0 = time.perf_counter()
                tag, got_epoch, inbound = conn.recv()
                if tracker is not None:
                    tracker.barrier_wait_s += time.perf_counter() - wait_t0
                if tag != "in" or got_epoch != epoch:
                    raise ShardError(
                        f"worker {partition} desynchronized: expected in/"
                        f"{epoch}, got {tag}/{got_epoch}"
                    )
                batches = list(inbound)
                local = out[partition]
                if len(local):
                    batches.append(local)
                runtime.apply_inbound(batches)
            final = session.report()
        report = final  # only once the session closed: the dumps are on disk
    except BaseException:
        report["error"] = traceback.format_exc(limit=20)
    try:
        conn.send(("done", report))
    finally:
        conn.close()


@dataclass
class ShardRunReport:
    """Outcome of one :func:`run_sharded` / :func:`run_inline` round."""

    shards: int
    epochs: int
    wall_s: float
    #: Per-partition worker reports (:meth:`PartitionSession.report`), in
    #: partition order.
    workers: List[dict] = field(default_factory=list)
    #: Health frames streamed by workers, in arrival order (empty unless
    #: ``heartbeat=True``).
    heartbeats: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(w.get("status") == "ok" for w in self.workers)

    def results(self) -> List[dict]:
        return [w.get("result") or {} for w in self.workers]


def run_inline(
    builder: str,
    kwargs: dict,
    shards: int,
    duration: float,
    lookahead: float,
    audit: bool = False,
    timewin_dir: Optional[str] = None,
    timewin_params: Optional[dict] = None,
    fault_plans: Optional[List[Optional[dict]]] = None,
    heartbeat: bool = False,
    flight_dir: Optional[str] = None,
    on_heartbeat: Optional[Callable[[dict], None]] = None,
) -> ShardRunReport:
    """:func:`run_sharded` without the processes: the same
    :class:`PartitionSession` per partition, driven through
    :func:`run_lockstep` in this process — required inside daemonic
    harness workers (which may not spawn children). Same arguments, same
    :class:`ShardRunReport`, same digest; a partition's exception
    propagates as itself."""
    payloads = partition_payloads(
        builder, kwargs, shards, duration, lookahead, audit=audit,
        timewin_dir=timewin_dir, timewin_params=timewin_params,
        fault_plans=fault_plans, heartbeat=heartbeat, flight_dir=flight_dir,
    )
    heartbeats: List[dict] = []
    t0 = time.perf_counter()
    with contextlib.ExitStack() as stack:
        sessions = [
            stack.enter_context(PartitionSession(payload)) for payload in payloads
        ]
        runtimes = [session.runtime for session in sessions]
        on_epoch = None
        if heartbeat:
            trackers = [HeartbeatTracker(i) for i in range(shards)]

            def on_epoch(epoch: int, barrier: float) -> None:
                for tracker, runtime in zip(trackers, runtimes):
                    frame = tracker.frame(runtime, epoch, barrier)
                    heartbeats.append(frame)
                    if on_heartbeat is not None:
                        on_heartbeat(frame)

        epochs = run_lockstep(runtimes, duration, on_epoch=on_epoch)
        workers = [session.report() for session in sessions]
    return ShardRunReport(
        shards=shards,
        epochs=epochs,
        wall_s=time.perf_counter() - t0,
        workers=workers,
        heartbeats=heartbeats,
    )


def run_sharded(
    builder: str,
    kwargs: dict,
    shards: int,
    duration: float,
    lookahead: float,
    audit: bool = False,
    timewin_dir: Optional[str] = None,
    timewin_params: Optional[dict] = None,
    fault_plans: Optional[List[Optional[dict]]] = None,
    seed_base: str = "shard",
    timeout_s: float = 600.0,
    heartbeat: bool = False,
    flight_dir: Optional[str] = None,
    on_heartbeat: Optional[Callable[[dict], None]] = None,
) -> ShardRunReport:
    """Run ``builder`` (a ``"module:function"`` worker target, same
    convention as :class:`~repro.harness.runner.JobSpec`) across
    ``shards`` spawn-isolated workers in lockstep.

    The coordinator is a pure message router: it collects every
    partition's epoch batches (in *any* completion order), regroups them
    by destination, and releases the next epoch only when all workers
    have reached the barrier. Ordering determinism lives entirely in
    :meth:`ShardRuntime.apply_inbound`.

    ``heartbeat=True`` makes each worker stream one health frame per
    epoch (see :class:`HeartbeatTracker`) interleaved with its batches;
    frames are collected on the report and, when ``on_heartbeat`` is
    given, forwarded live as they arrive. ``flight_dir`` enables per-
    shard flight recording to ``shard{i}.flights.jsonl`` files.
    """
    from ..harness.runner import spawn_safe_main

    payloads = partition_payloads(
        builder, kwargs, shards, duration, lookahead, audit=audit,
        timewin_dir=timewin_dir, timewin_params=timewin_params,
        fault_plans=fault_plans, seed_base=seed_base, heartbeat=heartbeat,
        flight_dir=flight_dir,
    )
    ctx = multiprocessing.get_context("spawn")
    conns = []
    procs = []
    schedule = barrier_times(duration, lookahead)
    t0 = time.perf_counter()
    with spawn_safe_main():
        for payload in payloads:
            parent, child = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_shard_worker_main, args=(payload, child), daemon=True
            )
            proc.start()
            child.close()
            conns.append(parent)
            procs.append(proc)

    reports: List[Optional[dict]] = [None] * shards
    heartbeats: List[dict] = []
    conn_index = {id(conn): i for i, conn in enumerate(conns)}

    def fail(message: str) -> None:
        """Raise a :class:`ShardError` carrying the per-worker reports
        gathered so far (including a failed worker's traceback), so the
        run-ledger failure path can index them in the manifest."""
        err = ShardError(message)
        err.worker_reports = [r for r in reports if r is not None]
        raise err

    def recv_from(pending: set, expect_tag: str, epoch: int) -> dict:
        """Collect one message per pending worker; returns index->payload."""
        gathered: Dict[int, list] = {}
        while pending:
            ready = multiprocessing.connection.wait(
                [conns[i] for i in pending], timeout=timeout_s
            )
            if not ready:
                fail(
                    f"shard barrier timed out after {timeout_s}s at epoch "
                    f"{epoch} waiting on partitions {sorted(pending)}"
                )
            for conn in ready:
                i = conn_index[id(conn)]
                try:
                    message = conn.recv()
                except EOFError:
                    reports[i] = reports[i] or {
                        "partition": i, "status": "failed",
                        "error": f"worker process died "
                                 f"(exit code {procs[i].exitcode})",
                    }
                    fail(
                        f"shard worker {i} died at epoch {epoch} "
                        f"(exit code {procs[i].exitcode})"
                    )
                if message[0] == "hb":
                    # Health frame riding ahead of the worker's batches;
                    # record it and keep the worker pending for its "out".
                    heartbeats.append(message[2])
                    if on_heartbeat is not None:
                        on_heartbeat(message[2])
                    continue
                if message[0] == "done":
                    # A failed worker reports early instead of deadlocking
                    # the barrier; surface its traceback here.
                    body = message[1]
                    reports[i] = body
                    if body.get("status") != "ok":
                        fail(
                            f"shard worker {i} failed:\n"
                            f"{body.get('error', '(no traceback)')}"
                        )
                    pending.discard(i)
                    gathered[i] = []
                    continue
                tag, got, body = message
                if tag != expect_tag or got != epoch:
                    fail(
                        f"worker {i} desynchronized: expected "
                        f"{expect_tag}/{epoch}, got {tag}/{got}"
                    )
                gathered[i] = body
                pending.discard(i)
        return gathered

    try:
        for epoch in range(len(schedule)):
            gathered = recv_from(set(range(shards)), "out", epoch)
            inbound: List[List[BoundaryBatch]] = [[] for _ in range(shards)]
            # Visit sources in partition order; apply_inbound re-sorts
            # anyway, so this is cosmetic — the canonical order is the
            # row key, not the batch order.
            for i in sorted(gathered):
                for dest, batch in gathered[i]:
                    inbound[dest].append(batch)
            for j in range(shards):
                conns[j].send(("in", epoch, inbound[j]))
        # Final reports ride the same receive path as one more round (a
        # worker that already sent "done" is recorded and not waited on).
        recv_from(
            {i for i in range(shards) if reports[i] is None}, "done", len(schedule)
        )
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - cleanup of hung worker
                proc.terminate()
                proc.join(timeout=5.0)

    return ShardRunReport(
        shards=shards,
        epochs=len(schedule),
        wall_s=time.perf_counter() - t0,
        workers=reports,  # recv_from left every one present and "ok"
        heartbeats=heartbeats,
    )
