"""Time-window queue forensics: bounded-memory "who built this queue?".

The flight recorder (:mod:`repro.obs.flightrec`) answers attribution
questions with per-packet truth at per-packet cost — unusable as
always-on telemetry once fabrics grow. This module is the PrintQueue-
style (SIGCOMM 2022) alternative: attribute queue depth to flows and
tenants using **fixed memory per switch port**, independent of run
length and flow count.

Data structure, per port:

* a wrap-around ring of ``T`` *time windows*, each covering
  ``window_s`` seconds of simulated time and holding ``2^k`` *slots*;
* each slot records one flow's byte/packet contribution to that
  window (slot index = ``flow_id & (2^k - 1)``; a colliding second
  flow is charged to the window's ``collision`` bucket rather than
  corrupting an existing slot);
* per-window aggregates: high-water queue depth, accepted/dropped
  totals, and per-tenant byte counts (tenant = the AQ ingress ID the
  paper's data plane already carries — cardinality bounded by switch
  memory, unlike flows);
* one *active* window receives writes while the sealed ring serves
  reads — the double-buffer "flipping" that lets a hardware control
  plane read windows the data plane is no longer writing. When the
  ring is full the oldest sealed window's buffers are recycled as the
  new active window (wrap-around), and queries that reach into that
  overwritten history report **evicted**, never silent zeros.

Memory per port is exactly ``(T + 1)`` windows x ``2^k`` slots plus a
small tenant map — the property the flight recorder lacks and the
prerequisite for always-on monitoring of million-entity scenarios.

Three front ends share the query API (:class:`WindowQueryAPI`):

* :class:`TimeWindowRecorder` — the live, in-sim recorder installed
  via :meth:`repro.obs.telemetry.Telemetry.enable_time_windows`;
* :class:`WindowStore` — the offline view loaded from a window JSONL
  dump (``--timewin out.jsonl`` / ``repro telemetry windows``);
* :func:`build_from_trace` — reconstruction from a ``--telemetry``
  event trace (no tenant tags there, so tenants all land on 0).

:func:`crosscheck_with_flights` is the ground-truth validator: replay
the flight recorder's per-packet queue hops into the same windows and
require byte/packet-exact agreement per (port, window, flow) — the
recipe PrintQueue's GroundTruth.py applies to its hardware windows.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError
from .codec import dumps_compact

#: Default window duration in (simulated) seconds.
DEFAULT_WINDOW_S = 1e-3
#: Default ring length T (sealed windows retained per port).
DEFAULT_NUM_WINDOWS = 32
#: Default log2 of slots per window (2^6 = 64 flow slots).
DEFAULT_SLOTS_LOG2 = 6

#: Pseudo-flow key used for collision-bucket contributions in reports.
COLLIDED = "(collided)"

#: Budget model: one slot is four parallel list entries (flow, tenant,
#: bytes, pkts) at pointer width.
SLOT_COST_BYTES = 32
#: Budget model: per-window fixed overhead (object + list headers,
#: scalar aggregates, tenant map).
WINDOW_OVERHEAD_BYTES = 640
#: Floors the budget solver will not shrink below: 4 retained windows
#: of 4 flow slots still yield meaningful (if collision-heavy) answers.
MIN_NUM_WINDOWS = 4
MIN_SLOTS_LOG2 = 2
#: Retention cap: beyond this the ring stops growing with the budget.
MAX_NUM_WINDOWS = 4096


def estimate_port_bytes(num_windows: int, slots_log2: int) -> int:
    """Estimated per-port footprint of a recorder configuration.

    ``num_windows`` sealed buffers plus the active window and the spare
    recycled during flips — the documented ``(T + 1)`` windows model,
    rounded up by one for the spare.
    """
    per_window = WINDOW_OVERHEAD_BYTES + (1 << slots_log2) * SLOT_COST_BYTES
    return (num_windows + 2) * per_window


def params_for_budget(
    budget_bytes: int,
    window_s: Optional[float] = None,
) -> dict:
    """Solve for recorder parameters under a per-port memory budget.

    Spends the budget on history first: keeps the default slot count
    (shrinking it only when even a minimal ring would not fit), then
    retains as many windows as the budget covers, clamped to
    [:data:`MIN_NUM_WINDOWS`, :data:`MAX_NUM_WINDOWS`]. Raises
    :class:`ConfigurationError` when the budget cannot fit even the
    minimal configuration — never silently under-delivers. Returns the
    ``enable_time_windows`` keyword dict (``window_s``, ``num_windows``,
    ``slots_log2``).
    """
    if budget_bytes <= 0:
        raise ConfigurationError(
            f"timewin budget must be positive, got {budget_bytes}"
        )
    slots_log2 = DEFAULT_SLOTS_LOG2
    while (slots_log2 > MIN_SLOTS_LOG2
           and estimate_port_bytes(MIN_NUM_WINDOWS, slots_log2) > budget_bytes):
        slots_log2 -= 1
    floor = estimate_port_bytes(MIN_NUM_WINDOWS, slots_log2)
    if floor > budget_bytes:
        raise ConfigurationError(
            f"timewin budget {budget_bytes}B per port cannot fit even "
            f"{MIN_NUM_WINDOWS} windows of {1 << slots_log2} slots "
            f"({floor}B); raise --timewin-budget or disable with --no-timewin"
        )
    per_window = WINDOW_OVERHEAD_BYTES + (1 << slots_log2) * SLOT_COST_BYTES
    num_windows = min(MAX_NUM_WINDOWS, budget_bytes // per_window - 2)
    return {
        "window_s": DEFAULT_WINDOW_S if window_s is None else window_s,
        "num_windows": int(num_windows),
        "slots_log2": slots_log2,
    }


class _Window:
    """One time window: fixed slot arrays plus scalar aggregates.

    Buffers are allocated once and recycled across flips (``reset``
    clears only touched slots), so steady-state recording allocates
    nothing per window.
    """

    __slots__ = (
        "seq", "slots", "slot_flow", "slot_tenant", "slot_bytes", "slot_pkts",
        "touched", "tenant_bytes", "high_water", "total_bytes", "total_pkts",
        "collision_bytes", "collision_pkts", "dropped_bytes", "dropped_pkts",
    )

    def __init__(self, slots: int, seq: int) -> None:
        self.slots = slots
        self.seq = seq
        self.slot_flow = [-1] * slots
        self.slot_tenant = [0] * slots
        self.slot_bytes = [0] * slots
        self.slot_pkts = [0] * slots
        self.touched: List[int] = []
        self.tenant_bytes: Dict[int, int] = {}
        self.high_water = 0.0
        self.total_bytes = 0
        self.total_pkts = 0
        self.collision_bytes = 0
        self.collision_pkts = 0
        self.dropped_bytes = 0
        self.dropped_pkts = 0

    def reset(self, seq: int) -> None:
        """Recycle this buffer as a fresh window (wrap-around reuse)."""
        for index in self.touched:
            self.slot_flow[index] = -1
            self.slot_tenant[index] = 0
            self.slot_bytes[index] = 0
            self.slot_pkts[index] = 0
        self.touched.clear()
        self.tenant_bytes.clear()
        self.seq = seq
        self.high_water = 0.0
        self.total_bytes = 0
        self.total_pkts = 0
        self.collision_bytes = 0
        self.collision_pkts = 0
        self.dropped_bytes = 0
        self.dropped_pkts = 0

    def flows(self) -> Dict[int, Tuple[int, int]]:
        """Per-flow (bytes, packets) recorded in this window's slots."""
        return {
            self.slot_flow[i]: (self.slot_bytes[i], self.slot_pkts[i])
            for i in self.touched
        }


class WindowView:
    """Immutable query-side view of one window (live or loaded)."""

    __slots__ = (
        "port", "seq", "t0", "t1", "flows", "tenants", "high_water",
        "total_bytes", "total_pkts", "collision_bytes", "collision_pkts",
        "dropped_bytes", "dropped_pkts", "active",
    )

    def __init__(
        self,
        port: str,
        seq: int,
        window_s: float,
        flows: Dict[int, Tuple[int, int]],
        tenants: Dict[int, int],
        high_water: float,
        total_bytes: int,
        total_pkts: int,
        collision_bytes: int = 0,
        collision_pkts: int = 0,
        dropped_bytes: int = 0,
        dropped_pkts: int = 0,
        active: bool = False,
    ) -> None:
        self.port = port
        self.seq = seq
        self.t0 = seq * window_s
        self.t1 = (seq + 1) * window_s
        self.flows = flows
        self.tenants = tenants
        self.high_water = high_water
        self.total_bytes = total_bytes
        self.total_pkts = total_pkts
        self.collision_bytes = collision_bytes
        self.collision_pkts = collision_pkts
        self.dropped_bytes = dropped_bytes
        self.dropped_pkts = dropped_pkts
        self.active = active

    def to_dict(self) -> dict:
        out = {
            "type": "window",
            "port": self.port,
            "seq": self.seq,
            "t0": self.t0,
            "t1": self.t1,
            "high_water": self.high_water,
            "bytes": self.total_bytes,
            "pkts": self.total_pkts,
            "flows": {str(f): list(v) for f, v in sorted(self.flows.items())},
            "tenants": {str(t): b for t, b in sorted(self.tenants.items())},
        }
        if self.collision_pkts:
            out["collision_bytes"] = self.collision_bytes
            out["collision_pkts"] = self.collision_pkts
        if self.dropped_pkts:
            out["dropped_bytes"] = self.dropped_bytes
            out["dropped_pkts"] = self.dropped_pkts
        if self.active:
            out["active"] = True
        return out

    @classmethod
    def from_dict(cls, data: dict, window_s: float) -> "WindowView":
        return cls(
            port=data["port"],
            seq=data["seq"],
            window_s=window_s,
            flows={
                int(f): (v[0], v[1]) for f, v in data.get("flows", {}).items()
            },
            tenants={int(t): b for t, b in data.get("tenants", {}).items()},
            high_water=data.get("high_water", 0.0),
            total_bytes=data.get("bytes", 0),
            total_pkts=data.get("pkts", 0),
            collision_bytes=data.get("collision_bytes", 0),
            collision_pkts=data.get("collision_pkts", 0),
            dropped_bytes=data.get("dropped_bytes", 0),
            dropped_pkts=data.get("dropped_pkts", 0),
            active=data.get("active", False),
        )


#: Coverage labels for :class:`BuildReport`.
COVERAGE_FULL = "full"          # every queried window is retained (or empty)
COVERAGE_PARTIAL = "partial"    # some queried windows wrapped out of the ring
COVERAGE_EVICTED = "evicted"    # the whole query range wrapped out
COVERAGE_OUTSIDE = "outside"    # the range never overlapped recorded history


class BuildReport:
    """Answer to ``who_built(port, t0, t1)``: contributors and caveats."""

    def __init__(
        self,
        port: str,
        t0: float,
        t1: float,
        window_s: float,
        coverage: str,
        windows: List[WindowView],
        evicted_windows: int,
    ) -> None:
        self.port = port
        self.t0 = t0
        self.t1 = t1
        self.window_s = window_s
        self.coverage = coverage
        self.windows = windows
        self.evicted_windows = evicted_windows
        self.flows: Dict[int, Tuple[int, int]] = {}
        self.tenants: Dict[int, int] = {}
        self.high_water = 0.0
        self.total_bytes = 0
        self.total_pkts = 0
        self.collision_bytes = 0
        self.dropped_bytes = 0
        for view in windows:
            for flow, (nbytes, npkts) in view.flows.items():
                prev = self.flows.get(flow, (0, 0))
                self.flows[flow] = (prev[0] + nbytes, prev[1] + npkts)
            for tenant, nbytes in view.tenants.items():
                self.tenants[tenant] = self.tenants.get(tenant, 0) + nbytes
            if view.high_water > self.high_water:
                self.high_water = view.high_water
            self.total_bytes += view.total_bytes
            self.total_pkts += view.total_pkts
            self.collision_bytes += view.collision_bytes
            self.dropped_bytes += view.dropped_bytes

    @property
    def evicted(self) -> bool:
        """True when the *entire* query range has wrapped out of memory."""
        return self.coverage == COVERAGE_EVICTED

    def top_contributors(self, k: int = 10) -> List[Tuple[object, int, int]]:
        """``[(flow_id, bytes, packets)]`` sorted by bytes, descending.

        Collision-bucket bytes (flows whose slot was taken) appear as one
        ``"(collided)"`` entry so totals always reconcile.
        """
        ranked: List[Tuple[object, int, int]] = sorted(
            ((flow, b, p) for flow, (b, p) in self.flows.items()),
            key=lambda item: (-item[1], item[0]),
        )
        if self.collision_bytes:
            ranked.append((COLLIDED, self.collision_bytes, 0))
            ranked.sort(key=lambda item: -item[1])
        return ranked[:k]

    def tenant_shares(self) -> Dict[int, float]:
        """Per-tenant fraction of the accepted bytes in the range."""
        total = sum(self.tenants.values())
        if total <= 0:
            return {}
        return {t: b / total for t, b in sorted(self.tenants.items())}

    def to_dict(self) -> dict:
        return {
            "port": self.port,
            "t0": self.t0,
            "t1": self.t1,
            "window_s": self.window_s,
            "coverage": self.coverage,
            "evicted_windows": self.evicted_windows,
            "windows": len(self.windows),
            "high_water": self.high_water,
            "bytes": self.total_bytes,
            "pkts": self.total_pkts,
            "collision_bytes": self.collision_bytes,
            "dropped_bytes": self.dropped_bytes,
            "flows": {str(f): list(v) for f, v in sorted(self.flows.items())},
            "tenant_shares": {
                str(t): share for t, share in self.tenant_shares().items()
            },
        }


class WindowQueryAPI:
    """Shared query surface of the live recorder and the offline store.

    Subclasses provide :meth:`ports`, :meth:`views` (every retained
    window of a port, ascending seq), :meth:`eviction_horizon` (the
    oldest retained seq, with the count of windows wrapped out before
    it) and :meth:`port_meta`. Everything else — ``who_built``, top-k,
    tenant shares, the JSONL dump — is derived here, so on-line and
    post-mortem answers (and their files) can never drift.
    """

    window_s: float = DEFAULT_WINDOW_S
    num_windows: int = DEFAULT_NUM_WINDOWS
    slots: int = 1 << DEFAULT_SLOTS_LOG2

    def seq_for(self, t: float) -> int:
        """The window sequence number covering simulated time ``t``."""
        return int(t / self.window_s)

    def ports(self) -> List[str]:
        raise NotImplementedError

    def views(self, port: str) -> List[WindowView]:
        raise NotImplementedError

    def eviction_horizon(self, port: str) -> Tuple[Optional[int], int]:
        """(oldest retained seq or None, windows evicted before it)."""
        raise NotImplementedError

    def port_meta(self, port: str) -> dict:
        """The ``"port"`` line a dump carries for ``port`` (empty: none)."""
        raise NotImplementedError

    # -- serialization -----------------------------------------------------

    def dump_jsonl(self, destination) -> int:
        """Write config + per-port metadata + every retained window as
        JSON lines; returns the number of window lines written. A store
        writes what it loaded, so a stitched fabric-wide store round-trips
        through the same CLI tooling (``telemetry windows``) as a
        single-shard recorder dump."""
        owns = isinstance(destination, str)
        fh = open(destination, "w", encoding="utf-8") if owns else destination
        written = 0
        try:
            fh.write(dumps_compact({
                "type": "timewin_config",
                "window_s": self.window_s,
                "num_windows": self.num_windows,
                "slots": self.slots,
            }) + "\n")
            for name in self.ports():
                meta = self.port_meta(name)
                if meta:
                    fh.write(dumps_compact(meta) + "\n")
                for view in self.views(name):
                    fh.write(dumps_compact(view.to_dict()) + "\n")
                    written += 1
        finally:
            if owns:
                fh.close()
        return written

    # -- derived queries ---------------------------------------------------

    def _resolve_views(self, port: str) -> Tuple[List[WindowView], int]:
        """Views for ``port``, merging sub-ports (``port.*``) by window.

        Multi-queue ports expose one physical FIFO per traffic class
        (``s0.p0.q3``); querying the parent merges the classes into one
        port-level answer. Returns the merged views plus the largest
        eviction count among the merged sources.
        """
        exact = self.views(port)
        prefix = port + "."
        subs = [name for name in self.ports() if name.startswith(prefix)]
        if not subs:
            _, evicted = self.eviction_horizon(port)
            return exact, evicted
        merged: Dict[int, List[WindowView]] = {}
        for view in exact:
            merged.setdefault(view.seq, []).append(view)
        evicted = self.eviction_horizon(port)[1]
        for sub in subs:
            evicted = max(evicted, self.eviction_horizon(sub)[1])
            for view in self.views(sub):
                merged.setdefault(view.seq, []).append(view)
        out = []
        for seq in sorted(merged):
            group = merged[seq]
            if len(group) == 1 and group[0].port == port:
                out.append(group[0])
                continue
            flows: Dict[int, Tuple[int, int]] = {}
            tenants: Dict[int, int] = {}
            for view in group:
                for flow, (b, p) in view.flows.items():
                    prev = flows.get(flow, (0, 0))
                    flows[flow] = (prev[0] + b, prev[1] + p)
                for tenant, b in view.tenants.items():
                    tenants[tenant] = tenants.get(tenant, 0) + b
            # A parent-level depth sample (MultiQueuePort records the
            # true summed backlog) beats the per-class upper bound.
            parent = [v for v in group if v.port == port]
            high_water = (
                max(v.high_water for v in parent)
                if parent
                else sum(v.high_water for v in group)
            )
            out.append(WindowView(
                port=port,
                seq=seq,
                window_s=self.window_s,
                flows=flows,
                tenants=tenants,
                high_water=high_water,
                total_bytes=sum(v.total_bytes for v in group),
                total_pkts=sum(v.total_pkts for v in group),
                collision_bytes=sum(v.collision_bytes for v in group),
                collision_pkts=sum(v.collision_pkts for v in group),
                dropped_bytes=sum(v.dropped_bytes for v in group),
                dropped_pkts=sum(v.dropped_pkts for v in group),
                active=any(v.active for v in group),
            ))
        return out, evicted

    def who_built(self, port: str, t0: float, t1: float) -> BuildReport:
        """Attribute the queue at ``port`` over ``[t0, t1)`` to its flows.

        The answer is quantized to whole windows: every window
        overlapping the range contributes fully, so reported bytes can
        exceed the exact in-range bytes by at most one window's traffic
        at each edge — the documented quantization error bound.
        """
        if t1 < t0:
            raise ConfigurationError(f"who_built: t1 {t1} before t0 {t0}")
        views, _ = self._resolve_views(port)
        s0 = self.seq_for(t0)
        # A range ending exactly on a boundary does not enter that window.
        s1 = self.seq_for(t1)
        if t1 > t0 and t1 == s1 * self.window_s:
            s1 -= 1
        horizon, evicted_total = self._merged_horizon(port)
        selected = [v for v in views if s0 <= v.seq <= s1]
        evicted_in_range = 0
        if horizon is not None and evicted_total > 0 and s0 < horizon:
            evicted_in_range = min(s1, horizon - 1) - s0 + 1
        if not views:
            coverage = COVERAGE_OUTSIDE
        elif evicted_in_range and s1 < (horizon or 0):
            coverage = COVERAGE_EVICTED
        elif evicted_in_range:
            coverage = COVERAGE_PARTIAL
        elif not selected and (s1 < views[0].seq or s0 > views[-1].seq):
            coverage = COVERAGE_OUTSIDE
        else:
            coverage = COVERAGE_FULL
        return BuildReport(
            port=port,
            t0=t0,
            t1=t1,
            window_s=self.window_s,
            coverage=coverage,
            windows=selected,
            evicted_windows=evicted_in_range,
        )

    def _merged_horizon(self, port: str) -> Tuple[Optional[int], int]:
        horizon, evicted = self.eviction_horizon(port)
        prefix = port + "."
        for sub in self.ports():
            if not sub.startswith(prefix):
                continue
            sub_h, sub_e = self.eviction_horizon(sub)
            evicted = max(evicted, sub_e)
            if sub_h is not None and (horizon is None or sub_h > horizon):
                horizon = sub_h
        return horizon, evicted

    def top_contributors(
        self, port: str, t0: float, t1: float, k: int = 10
    ) -> List[Tuple[object, int, int]]:
        return self.who_built(port, t0, t1).top_contributors(k)

    def tenant_shares(self, port: str, t0: float, t1: float) -> Dict[int, float]:
        return self.who_built(port, t0, t1).tenant_shares()


class _PortWindows:
    """Live per-port state: the sealed ring plus the active write buffer."""

    __slots__ = (
        "name", "sealed", "active", "spare", "first_seq", "evicted",
        "flips", "collisions",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.sealed: List[_Window] = []
        self.active: Optional[_Window] = None
        self.spare: Optional[_Window] = None
        self.first_seq: Optional[int] = None
        self.evicted = 0
        self.flips = 0
        self.collisions = 0


class PortHandle:
    """Pre-bound fast-path writer for one port.

    Components obtain one via :meth:`TimeWindowRecorder.port_handle` at
    construction and call its hooks without the port name. Binding once
    removes the per-record port lookup, and caching the active window
    with its precomputed end time turns the window check into a single
    float compare (``now >= _t1``) instead of a division plus a ``seq``
    comparison — the record path is what every accepted packet pays, so
    it has to be as close to free as Python allows.

    The cache cannot go stale silently: the active window only changes
    when simulated time crosses a window boundary (which the ``_t1``
    compare catches, time being monotonic) or when
    :meth:`TimeWindowRecorder.flip_all` seals mid-window — and that
    path explicitly invalidates every handle.
    """

    __slots__ = ("_recorder", "_port", "_win", "_t1", "_mask", "records")

    def __init__(self, recorder: "TimeWindowRecorder", port: _PortWindows) -> None:
        self._recorder = recorder
        self._port = port
        self._win: Optional[_Window] = None
        self._t1 = 0.0
        self._mask = recorder._mask
        self.records = 0

    def _refresh(self, now: float) -> _Window:
        """Slow path: re-derive the active window and cache its end time."""
        rec = self._recorder
        seq = int(now / rec.window_s)
        port = self._port
        window = port.active
        if window is None or window.seq != seq:
            window = rec._window_for(port, seq)
        self._win = window
        self._t1 = (seq + 1) * rec.window_s
        return window

    def on_enqueue(
        self, flow_id: int, tenant_id: int, size: int, depth: float, now: float
    ) -> None:
        """Same contract as :meth:`TimeWindowRecorder.on_enqueue`, port-bound."""
        window = self._win
        if window is None or now >= self._t1:
            window = self._refresh(now)
        self.records += 1
        window.total_bytes += size
        window.total_pkts += 1
        if depth > window.high_water:
            window.high_water = depth
        tenants = window.tenant_bytes
        tenants[tenant_id] = tenants.get(tenant_id, 0) + size
        index = flow_id & self._mask
        slot_flow = window.slot_flow[index]
        if slot_flow == flow_id:
            window.slot_bytes[index] += size
            window.slot_pkts[index] += 1
        elif slot_flow == -1:
            window.slot_flow[index] = flow_id
            window.slot_tenant[index] = tenant_id
            window.slot_bytes[index] = size
            window.slot_pkts[index] = 1
            window.touched.append(index)
        else:
            # Hash collision: the slot keeps its first owner; the newcomer
            # is charged to the window's collision bucket so per-window
            # totals still reconcile (and validators know to widen).
            window.collision_bytes += size
            window.collision_pkts += 1
            self._port.collisions += 1

    def on_depth(self, depth: float, now: float) -> None:
        """Same contract as :meth:`TimeWindowRecorder.on_depth`, port-bound."""
        window = self._win
        if window is None or now >= self._t1:
            window = self._refresh(now)
        if depth > window.high_water:
            window.high_water = depth

    def on_drop(self, flow_id: int, tenant_id: int, size: int, now: float) -> None:
        """Same contract as :meth:`TimeWindowRecorder.on_drop`, port-bound."""
        window = self._win
        if window is None or now >= self._t1:
            window = self._refresh(now)
        window.dropped_bytes += size
        window.dropped_pkts += 1


class TimeWindowRecorder(WindowQueryAPI):
    """Always-on, fixed-memory queue-buildup attribution.

    Install via :meth:`repro.obs.telemetry.Telemetry.enable_time_windows`
    *before* building the network — each component's
    :class:`~repro.obs.probe.Probe` binds its :class:`PortHandle` at
    construction, exactly like the flight recorder. Recording perturbs
    nothing: no RNG draws, no packet mutation, so runs are digest-
    neutral with the recorder on or off.
    """

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        num_windows: int = DEFAULT_NUM_WINDOWS,
        slots_log2: int = DEFAULT_SLOTS_LOG2,
    ) -> None:
        if window_s <= 0:
            raise ConfigurationError(f"window_s must be positive, got {window_s}")
        if num_windows < 1:
            raise ConfigurationError(
                f"need at least one window, got {num_windows}"
            )
        if not 0 <= slots_log2 <= 20:
            raise ConfigurationError(
                f"slots_log2 out of range [0, 20]: {slots_log2}"
            )
        self.window_s = window_s
        self.num_windows = num_windows
        self.slots = 1 << slots_log2
        self._mask = self.slots - 1
        self._ports: Dict[str, _PortWindows] = {}
        self._handles: List[PortHandle] = []
        self._by_name: Dict[str, PortHandle] = {}

    # -- wiring ------------------------------------------------------------

    def register_port(self, name: str) -> None:
        """Pre-create a port so idle ports answer queries (as empty)."""
        if name not in self._ports:
            self._ports[name] = _PortWindows(name)

    def port_handle(self, name: str) -> PortHandle:
        """Bind a :class:`PortHandle` to ``name`` (creating the port).

        Multiple handles on the same port are fine — they share the
        port's window state and only cache the lookup.
        """
        self.register_port(name)
        handle = PortHandle(self, self._ports[name])
        self._handles.append(handle)
        return handle

    def _window_for(self, port: _PortWindows, seq: int) -> _Window:
        """Slow path of the active-window lookup (miss, flip, or first write).

        The data-plane hooks inline the common case — ``port.active`` already
        covers ``seq`` — and only call here on a window boundary, so this
        runs once per (port, window), not once per packet.
        """
        active = port.active
        if active is None:
            if port.first_seq is None:
                port.first_seq = seq
            window = _Window(self.slots, seq)
            port.active = window
            return window
        if seq <= active.seq:  # pragma: no cover - sim time is monotonic
            return active
        # Flip: seal the active buffer; writes move to a recycled (or
        # fresh) buffer so readers of sealed windows never race writers.
        port.flips += 1
        port.sealed.append(active)
        if len(port.sealed) > self.num_windows:
            recycled = port.sealed.pop(0)
            port.evicted += 1
            recycled.reset(seq)
            port.active = recycled
        elif port.spare is not None:
            recycled = port.spare
            port.spare = None
            recycled.reset(seq)
            port.active = recycled
        else:
            port.active = _Window(self.slots, seq)
        return port.active

    # -- data-plane hooks, by port name ------------------------------------

    def _handle(self, port_name: str) -> PortHandle:
        """The by-name hooks' cached handle: the record path exists once,
        on :class:`PortHandle`; callers with no component to bind one at
        construction (trace rebuilds, tests) come through here."""
        handle = self._by_name.get(port_name)
        if handle is None:
            handle = self._by_name[port_name] = self.port_handle(port_name)
        return handle

    def on_enqueue(
        self,
        port_name: str,
        flow_id: int,
        tenant_id: int,
        size: int,
        depth: float,
        now: float,
    ) -> None:
        """A packet was accepted into ``port_name``'s queue.

        ``depth`` is the backlog *after* acceptance (what the flight
        recorder's queue hops carry, so ground truth lines up exactly);
        ``tenant_id`` is the AQ ingress ID header (0 = untagged).
        """
        self._handle(port_name).on_enqueue(flow_id, tenant_id, size, depth, now)

    def on_depth(self, port_name: str, depth: float, now: float) -> None:
        """Port-level depth sample without flow attribution.

        Multi-queue ports use this to record the *summed* backlog across
        their traffic classes — the per-class high-waters only bound it.
        """
        self._handle(port_name).on_depth(depth, now)

    def on_drop(
        self, port_name: str, flow_id: int, tenant_id: int, size: int, now: float
    ) -> None:
        """A packet was discarded at ``port_name`` (tail/RED/fault drop)."""
        self._handle(port_name).on_drop(flow_id, tenant_id, size, now)

    # -- WindowQueryAPI ----------------------------------------------------

    def ports(self) -> List[str]:
        return sorted(self._ports)

    def _view(self, port: _PortWindows, window: _Window, active: bool) -> WindowView:
        return WindowView(
            port=port.name,
            seq=window.seq,
            window_s=self.window_s,
            flows=window.flows(),
            tenants=dict(window.tenant_bytes),
            high_water=window.high_water,
            total_bytes=window.total_bytes,
            total_pkts=window.total_pkts,
            collision_bytes=window.collision_bytes,
            collision_pkts=window.collision_pkts,
            dropped_bytes=window.dropped_bytes,
            dropped_pkts=window.dropped_pkts,
            active=active,
        )

    def views(self, port: str) -> List[WindowView]:
        record = self._ports.get(port)
        if record is None:
            return []
        views = [self._view(record, w, False) for w in record.sealed]
        if record.active is not None:
            views.append(self._view(record, record.active, True))
        return views

    def eviction_horizon(self, port: str) -> Tuple[Optional[int], int]:
        record = self._ports.get(port)
        if record is None or record.evicted == 0:
            return None, 0
        oldest = record.sealed[0] if record.sealed else record.active
        return (oldest.seq if oldest is not None else None), record.evicted

    def port_meta(self, port: str) -> dict:
        record = self._ports[port]
        horizon, evicted = self.eviction_horizon(port)
        return {
            "type": "port",
            "port": port,
            "flips": record.flips,
            "collisions": record.collisions,
            "evicted_windows": evicted,
            "first_seq": record.first_seq,
            "oldest_retained_seq": horizon,
        }

    # -- maintenance -------------------------------------------------------

    def flip_all(self, now: float) -> None:
        """Seal every port's active window (end-of-run flush).

        After this, readers see the final partial windows as sealed —
        the simulator's stand-in for the control plane's last flip.
        """
        for record in self._ports.values():
            if record.active is None:
                continue
            record.flips += 1
            record.sealed.append(record.active)
            if len(record.sealed) > self.num_windows:
                evicted = record.sealed.pop(0)
                record.evicted += 1
                record.spare = evicted
            record.active = None
        # Sealing can land mid-window, which the handles' time-based
        # check cannot see — drop their caches so a later write opens a
        # fresh window instead of mutating a sealed one.
        for handle in self._handles:
            handle._win = None

    def stats(self) -> dict:
        """Run-level counters (flips, collisions, evictions, memory)."""
        return {
            "ports": len(self._ports),
            "records": sum(h.records for h in self._handles),
            "flips": sum(p.flips for p in self._ports.values()),
            "collisions": sum(p.collisions for p in self._ports.values()),
            "evicted_windows": sum(p.evicted for p in self._ports.values()),
            "retained_windows": sum(
                len(p.sealed) + (1 if p.active is not None else 0)
                for p in self._ports.values()
            ),
            "window_s": self.window_s,
            "num_windows": self.num_windows,
            "slots": self.slots,
        }

    def collect_metrics(self, registry) -> None:
        """Metrics-registry collector (installed by ``Telemetry``)."""
        stats = self.stats()
        registry.gauge("timewin_ports").set(stats["ports"])
        registry.counter("timewin_records").set(stats["records"])
        registry.counter("timewin_flips").set(stats["flips"])
        registry.counter("timewin_collisions").set(stats["collisions"])
        registry.counter("timewin_evicted_windows").set(
            stats["evicted_windows"]
        )
        registry.gauge("timewin_retained_windows").set(
            stats["retained_windows"]
        )

class WindowStore(WindowQueryAPI):
    """Offline window set loaded from a :meth:`dump_jsonl` file."""

    def __init__(self, window_s: float = DEFAULT_WINDOW_S) -> None:
        self.window_s = window_s
        self._views: Dict[str, List[WindowView]] = {}
        self._meta: Dict[str, dict] = {}

    @classmethod
    def from_jsonl(
        cls,
        path: str,
        strict: bool = True,
        on_skip=None,
    ) -> "WindowStore":
        """Load a dump. ``strict=False`` adopts the
        :func:`repro.obs.tracebus.read_jsonl` skip semantics: corrupt or
        truncated lines are skipped (reported via ``on_skip(lineno, line,
        exc)`` when given) instead of aborting the load — the recovery
        path for dumps cut short by a killed shard worker.
        """
        store = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    kind = data.get("type")
                    if kind == "timewin_config":
                        store.window_s = float(data["window_s"])
                        store.num_windows = int(data["num_windows"])
                        store.slots = int(data["slots"])
                    elif kind == "port":
                        store._meta[data["port"]] = data
                        store._views.setdefault(data["port"], [])
                    elif kind == "window":
                        view = WindowView.from_dict(data, store.window_s)
                        store._views.setdefault(view.port, []).append(view)
                    else:
                        raise KeyError(f"unknown record type {kind!r}")
                except (KeyError, TypeError, ValueError, AttributeError) as exc:
                    if strict:
                        raise ConfigurationError(
                            f"{path}:{lineno}: invalid window record: {exc}"
                        ) from exc
                    if on_skip is not None:
                        on_skip(lineno, line, exc)
        for views in store._views.values():
            views.sort(key=lambda v: v.seq)
        return store

    def ports(self) -> List[str]:
        return sorted(self._views)

    def views(self, port: str) -> List[WindowView]:
        return list(self._views.get(port, []))

    def eviction_horizon(self, port: str) -> Tuple[Optional[int], int]:
        meta = self._meta.get(port)
        if meta is None or not meta.get("evicted_windows"):
            return None, 0
        return meta.get("oldest_retained_seq"), int(meta["evicted_windows"])

    def port_meta(self, port: str) -> dict:
        return dict(self._meta.get(port, {}))


def stitch_window_dumps(
    paths,
    out_path: Optional[str] = None,
    strict: bool = True,
    on_skip=None,
) -> WindowStore:
    """Stitch per-shard window dumps into one fabric-wide store.

    Each shard of a partitioned run (:mod:`repro.sim.shard`) records only
    the queue ports it owns, so the stitch is a disjoint union: concat
    every shard's views, sort per port by window seq, and carry the
    per-port metadata (``evicted_windows``, ``oldest_retained_seq``)
    through verbatim — a port whose ring partially wrapped in its shard
    still answers :meth:`WindowQueryAPI.who_built` with honest
    ``partial``/``evicted`` coverage in the merged store, never silent
    zeros.

    All dumps must share ``window_s`` (the seq axis is only comparable on
    one quantum); overlapping port names mean the inputs were not shards
    of one run — both raise :class:`ConfigurationError` regardless of
    ``strict``, which only governs per-line corruption (see
    :meth:`WindowStore.from_jsonl`). Passing ``out_path`` also writes the
    merged store as one dump file.
    """
    if not paths:
        raise ConfigurationError("stitch needs at least one window dump")
    merged: Optional[WindowStore] = None
    for path in paths:
        store = WindowStore.from_jsonl(path, strict=strict, on_skip=on_skip)
        if merged is None:
            merged = store
            continue
        if store.window_s != merged.window_s:
            raise ConfigurationError(
                f"{path}: window_s {store.window_s} differs from "
                f"{merged.window_s}; shards of one run share one quantum"
            )
        overlap = set(store._views) & set(merged._views)
        if overlap:
            raise ConfigurationError(
                f"{path}: ports {sorted(overlap)} already present — inputs "
                f"are not disjoint shards of one run"
            )
        merged.num_windows = max(merged.num_windows, store.num_windows)
        merged.slots = max(merged.slots, store.slots)
        merged._views.update(store._views)
        merged._meta.update(store._meta)
    for views in merged._views.values():
        views.sort(key=lambda v: v.seq)
    if out_path is not None:
        merged.dump_jsonl(out_path)
    return merged


def build_from_trace(
    events: Iterable,
    window_s: float = DEFAULT_WINDOW_S,
    num_windows: int = DEFAULT_NUM_WINDOWS,
    slots_log2: int = DEFAULT_SLOTS_LOG2,
) -> TimeWindowRecorder:
    """Reconstruct time windows from a ``--telemetry`` event stream.

    Uses ``enqueue``/``drop`` events (node, flow, size, backlog); trace
    events carry no tenant tag, so tenant attribution lands on 0.
    """
    recorder = TimeWindowRecorder(
        window_s=window_s, num_windows=num_windows, slots_log2=slots_log2
    )
    for event in events:
        if event.node is None or event.size is None:
            continue
        if event.type == "enqueue":
            recorder.on_enqueue(
                event.node, event.flow_id or 0, 0, event.size,
                event.value or 0.0, event.time,
            )
        elif event.type == "drop":
            recorder.on_drop(
                event.node, event.flow_id or 0, 0, event.size, event.time
            )
    return recorder


# -- ground-truth validation ---------------------------------------------------


class FlightCollector:
    """A flight sink that retains every completed flight (validation use).

    Unbounded by design — validation runs are small; always-on runs use
    the time windows precisely to avoid this kind of growth.
    """

    def __init__(self) -> None:
        self.flights: List = []

    def handle_flight(self, flight) -> None:
        self.flights.append(flight)

    def close(self) -> None:
        pass


def crosscheck_with_flights(
    windows: WindowQueryAPI,
    flights: Iterable,
    ports: Optional[Iterable[str]] = None,
    max_mismatches: int = 20,
) -> dict:
    """Validate window attribution against flight-recorder ground truth.

    Replays every flight's queue hops (and queue-level drop hops) into
    the same (port, window) buckets the recorder used and requires:

    * per-(port, window, flow) byte/packet counts to match **exactly**
      for windows without slot collisions (collided windows are checked
      at window-total granularity instead);
    * per-window high-water depth to match the max post-enqueue backlog
      any hop observed;
    * per-window dropped bytes to match the drop hops.

    Windows that wrapped out of the ring are *skipped and counted* —
    eviction is bounded memory working as designed, not a mismatch.
    Returns a JSON-safe verdict dict with ``ok``, counts, and the first
    ``max_mismatches`` discrepancies.
    """
    port_filter = set(ports) if ports is not None else None
    expected: Dict[Tuple[str, int], dict] = {}

    def bucket(port: str, seq: int) -> dict:
        entry = expected.get((port, seq))
        if entry is None:
            entry = expected[(port, seq)] = {
                "flows": {}, "high_water": 0.0, "dropped_bytes": 0,
                "bytes": 0, "pkts": 0,
            }
        return entry

    for flight in flights:
        for hop in flight.hops:
            if hop.node is None:
                continue
            if port_filter is not None and hop.node not in port_filter:
                continue
            if hop.kind == "queue":
                entry = bucket(hop.node, windows.seq_for(hop.t_in))
                flows = entry["flows"]
                prev = flows.get(flight.flow_id, (0, 0))
                flows[flight.flow_id] = (prev[0] + flight.size, prev[1] + 1)
                entry["bytes"] += flight.size
                entry["pkts"] += 1
                if hop.depth is not None and hop.depth > entry["high_water"]:
                    entry["high_water"] = hop.depth
            elif hop.kind == "drop":
                entry = bucket(hop.node, windows.seq_for(hop.t_in))
                entry["dropped_bytes"] += flight.size

    mismatches: List[dict] = []
    windows_checked = 0
    windows_skipped_evicted = 0
    collision_windows = 0
    max_error_bytes = 0
    ports_skipped_unknown: List[str] = []

    def note(port: str, seq: int, field: str, want, got) -> None:
        nonlocal max_error_bytes
        if isinstance(want, (int, float)) and isinstance(got, (int, float)):
            max_error_bytes = max(max_error_bytes, int(abs(want - got)))
        if len(mismatches) < max_mismatches:
            mismatches.append({
                "port": port, "seq": seq, "field": field,
                "expected": want, "recorded": got,
            })

    known_ports = set(windows.ports())
    port_names = sorted({port for port, _ in expected})
    for port in port_names:
        if port not in known_ports:
            # Flights also record hops at components the window recorder
            # does not wire (host shapers, faulted links); those are out
            # of attribution scope, not mismatches.
            ports_skipped_unknown.append(port)
            continue
        horizon, _ = windows.eviction_horizon(port)
        recorded = {v.seq: v for v in windows.views(port)}
        for (entry_port, seq), entry in expected.items():
            if entry_port != port:
                continue
            if horizon is not None and seq < horizon:
                windows_skipped_evicted += 1
                continue
            view = recorded.get(seq)
            windows_checked += 1
            if view is None:
                note(port, seq, "window", entry["bytes"], None)
                continue
            if view.collision_pkts:
                collision_windows += 1
                want = entry["bytes"]
                got = view.total_bytes
                if want != got:
                    note(port, seq, "bytes(total,collided)", want, got)
            else:
                if entry["flows"] != view.flows:
                    for flow in set(entry["flows"]) | set(view.flows):
                        want = entry["flows"].get(flow, (0, 0))
                        got = view.flows.get(flow, (0, 0))
                        if want != got:
                            note(port, seq, f"flow{flow}.bytes", want[0], got[0])
            if entry["high_water"] != view.high_water:
                note(port, seq, "high_water", entry["high_water"], view.high_water)
            if entry["dropped_bytes"] != view.dropped_bytes:
                note(
                    port, seq, "dropped_bytes",
                    entry["dropped_bytes"], view.dropped_bytes,
                )

    return {
        "ok": not mismatches,
        "ports_checked": len(port_names) - len(ports_skipped_unknown),
        "ports_skipped_unknown": ports_skipped_unknown,
        "windows_checked": windows_checked,
        "windows_skipped_evicted": windows_skipped_evicted,
        "collision_windows": collision_windows,
        "max_error_bytes": max_error_bytes,
        "mismatches": mismatches,
    }
