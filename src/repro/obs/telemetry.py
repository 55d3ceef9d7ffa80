"""Telemetry facade: one object bundling metrics, tracing, and profiling.

A :class:`Telemetry` instance is what flows through the simulation — the
:class:`~repro.sim.engine.Simulator` holds one, components reach it via
``sim.telemetry`` (or receive it explicitly, e.g. queues built before a
simulator exists). Packet-path components do not call it per packet: they
bind one :class:`~repro.obs.probe.Probe` at construction
(:func:`~repro.obs.probe.bind_probe`) and report *what happened* to it;
the table in :mod:`repro.obs.probe` maps each probe call to the trace
event, flight hop and window hook it becomes, and carries the recipe for
instrumenting a new queue discipline.

Disabled is the default: a fresh simulator gets a disabled, sink-less
``Telemetry``, ``bind_probe`` then returns ``None``, and an instrumented
call site costs one identity check. Enable telemetry — and install the
flight and window recorders — *before* building the network: a component
built under disabled telemetry stays uninstrumented.

For code paths that build their own :class:`Network`/:class:`Simulator`
internally (every harness scenario does), :meth:`Telemetry.activate`
installs the instance as the *ambient* telemetry that new simulators
pick up by default — so the CLI can wrap any experiment without
threading a parameter through every scenario signature.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from .audit import RunAuditor
from .flightrec import FlightRecorder
from .metrics import MetricsRegistry
from .profiler import SimProfiler
from .timewin import TimeWindowRecorder
from .tracebus import JsonlSink, RingBufferSink, SummarySink, TraceBus

#: Module-global ambient telemetry; see :meth:`Telemetry.activate`.
_ACTIVE: Optional["Telemetry"] = None


def get_active_telemetry() -> Optional["Telemetry"]:
    """The ambient telemetry installed by :meth:`Telemetry.activate`, if any."""
    return _ACTIVE


class Telemetry:
    """Bundle of :class:`MetricsRegistry`, :class:`TraceBus`, and profiler."""

    def __init__(self, enabled: bool = False, profile: bool = False) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.trace = TraceBus()
        self.profiler: Optional[SimProfiler] = SimProfiler() if profile else None
        #: In-band flight recorder; install with :meth:`enable_flight_recording`
        #: *before* building the network (probes capture the reference).
        self.flightrec: Optional[FlightRecorder] = None
        #: Conservation-law auditor; install with :meth:`enable_audit`.
        self.auditor: Optional[RunAuditor] = None
        #: Fixed-memory time-window recorder; install with
        #: :meth:`enable_time_windows` *before* building the network.
        self.timewin: Optional[TimeWindowRecorder] = None

    # -- switches --------------------------------------------------------------

    def enable(self) -> "Telemetry":
        self.enabled = True
        return self

    def enable_profiling(self) -> SimProfiler:
        if self.profiler is None:
            self.profiler = SimProfiler()
        return self.profiler

    def enable_flight_recording(
        self,
        jsonl_path: Optional[str] = None,
        max_flights: Optional[int] = None,
    ) -> FlightRecorder:
        """Install (and return) the INT flight recorder; implies ``enable()``.

        Must run before the network is built — a component's probe
        captures ``telemetry.flightrec`` when it is bound. ``jsonl_path`` additionally streams completed flights to a
        file readable by ``repro telemetry flights``; ``max_flights``
        bounds that file to the most recent flights (``--flight-max``).
        """
        self.enabled = True
        if self.flightrec is None:
            self.flightrec = FlightRecorder()
        if jsonl_path is not None:
            self.flightrec.add_jsonl(jsonl_path, max_flights=max_flights)
        return self.flightrec

    def enable_time_windows(
        self,
        window_s: Optional[float] = None,
        num_windows: Optional[int] = None,
        slots_log2: Optional[int] = None,
    ) -> TimeWindowRecorder:
        """Install (and return) the time-window recorder; implies ``enable()``.

        Must run before the network is built — a component's probe binds
        its window port handle when it is bound. Unlike flight recording, the windows keep fixed
        memory per port regardless of run length, so this layer is safe
        to leave always-on. Omitted parameters keep the recorder
        defaults (1 ms windows x 32 retained x 64 flow slots).
        """
        self.enabled = True
        if self.timewin is None:
            kwargs = {}
            if window_s is not None:
                kwargs["window_s"] = window_s
            if num_windows is not None:
                kwargs["num_windows"] = num_windows
            if slots_log2 is not None:
                kwargs["slots_log2"] = slots_log2
            self.timewin = TimeWindowRecorder(**kwargs)
            self.metrics.add_collector(self.timewin.collect_metrics)
        return self.timewin

    def enable_audit(self, strict: bool = False) -> RunAuditor:
        """Attach (and return) a conservation-law auditor; implies ``enable()``."""
        self.enabled = True
        if self.auditor is None:
            self.auditor = RunAuditor(strict=strict)
            self.trace.attach(self.auditor)
        return self.auditor

    # -- sink shorthands -------------------------------------------------------

    def add_ring(self, capacity: int = 10000) -> RingBufferSink:
        return self.trace.attach(RingBufferSink(capacity))

    def add_jsonl(self, destination) -> JsonlSink:
        return self.trace.attach(JsonlSink(destination))

    def add_summary(self) -> SummarySink:
        return self.trace.attach(SummarySink())

    def close(self) -> None:
        """Flush every sink (call after the run; safe to call twice)."""
        self.trace.close()
        if self.flightrec is not None:
            self.flightrec.close()

    def report(self) -> dict:
        """The bounded, JSON-safe end-of-run verdict every driver ships.

        Closes the sinks first (idempotent) — closing seals the flights of
        packets still queued, so the ``flights`` summary is only complete
        afterwards. One key per *installed* recorder: ``audit`` (the flow
        ledgers and deep violation windows stay behind; 20 violations
        diagnose a run), ``timewin`` stats, ``flights`` index summary,
        ``profile`` snapshot; ``metrics`` is always there.
        """
        self.close()
        out: dict = {}
        if self.auditor is not None:
            verdict = self.auditor.report()
            out["audit"] = {
                "events_seen": verdict["events_seen"],
                "violation_count": verdict["violation_count"],
                "violations": verdict["violations"][:20],
            }
        if self.timewin is not None:
            out["timewin"] = self.timewin.stats()
        if self.flightrec is not None:
            index = self.flightrec.index
            out["flights"] = {
                "total": index.total,
                "delivered": index.delivered,
                "dropped": index.dropped,
                "unfinished": index.unfinished,
                "exported": index.exported,
            }
        if self.profiler is not None:
            out["profile"] = self.profiler.snapshot()
        out["metrics"] = self.metrics.snapshot()
        return out

    # -- ambient installation --------------------------------------------------

    @contextlib.contextmanager
    def activate(self) -> Iterator["Telemetry"]:
        """Install as the default telemetry for simulators created inside
        the ``with`` block. Nesting restores the previous ambient value."""
        global _ACTIVE
        previous = _ACTIVE
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = previous
