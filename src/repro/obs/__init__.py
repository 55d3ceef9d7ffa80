"""Unified observability: metrics registry, trace bus, sim-loop profiler.

See DESIGN.md's "Observability" section for the architecture; the short
version: pull-based metrics (collectors run at snapshot time), push-based
typed trace events, and an optional run-loop profiler — all bundled in a
:class:`Telemetry` object carried by the simulator. The packet path
reports through one seam, the construction-bound probe of
:mod:`repro.obs.probe`, which also feeds the heavier opt-in layers: the
INT flight recorder (:mod:`repro.obs.flightrec`) piggybacks per-hop
records on packets, the time windows (:mod:`repro.obs.timewin`) attribute
queue depth in fixed memory, and the conservation-law auditor
(:mod:`repro.obs.audit`) re-derives the data plane's bookkeeping from the
trace stream.
"""

from .audit import AuditError, AuditViolation, RunAuditor
from .events import (
    ALL_EVENT_TYPES,
    AUDIT_EVENT_TYPES,
    CORE_EVENT_TYPES,
    EV_AGAP_UPDATE,
    EV_AQ_RATE,
    EV_CWND_CHANGE,
    EV_DELIVER,
    EV_DEQUEUE,
    EV_DROP,
    EV_ECN_MARK,
    EV_ENQUEUE,
    EV_FAULT,
    EV_FLUID_EPOCH,
    EV_GATE,
    EV_HOST_SEND,
    EV_RATE_LIMIT,
    FAULT_EVENT_TYPES,
    FLUID_EVENT_TYPES,
    TraceEvent,
)
from .flightrec import (
    Flight,
    FlightIndex,
    FlightRecorder,
    FlightSink,
    HopRecord,
    JsonlFlightSink,
    journey_key,
    read_flights_jsonl,
    stitch_flight_dumps,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_metrics_snapshots,
)
from .profiler import SimProfiler
from .runledger import (
    RunLedger,
    artifact_paths,
    is_run_reference,
    load_manifest,
    read_health_jsonl,
    resolve_inputs,
)
from .telemetry import Telemetry, get_active_telemetry
from .timewin import (
    BuildReport,
    FlightCollector,
    TimeWindowRecorder,
    WindowStore,
    WindowView,
    build_from_trace,
    crosscheck_with_flights,
    params_for_budget,
    stitch_window_dumps,
)
from .tracebus import (
    JsonlSink,
    RingBufferSink,
    SummarySink,
    TraceBus,
    TraceSink,
    read_jsonl,
)

__all__ = [
    "ALL_EVENT_TYPES",
    "AUDIT_EVENT_TYPES",
    "CORE_EVENT_TYPES",
    "FAULT_EVENT_TYPES",
    "FLUID_EVENT_TYPES",
    "EV_FAULT",
    "EV_FLUID_EPOCH",
    "EV_AGAP_UPDATE",
    "EV_AQ_RATE",
    "EV_CWND_CHANGE",
    "EV_DELIVER",
    "EV_DEQUEUE",
    "EV_DROP",
    "EV_ECN_MARK",
    "EV_ENQUEUE",
    "EV_GATE",
    "EV_HOST_SEND",
    "EV_RATE_LIMIT",
    "TraceEvent",
    "AuditError",
    "AuditViolation",
    "RunAuditor",
    "Flight",
    "FlightIndex",
    "FlightRecorder",
    "FlightSink",
    "HopRecord",
    "JsonlFlightSink",
    "journey_key",
    "read_flights_jsonl",
    "stitch_flight_dumps",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_metrics_snapshots",
    "SimProfiler",
    "RunLedger",
    "artifact_paths",
    "is_run_reference",
    "load_manifest",
    "read_health_jsonl",
    "resolve_inputs",
    "Telemetry",
    "get_active_telemetry",
    "BuildReport",
    "FlightCollector",
    "TimeWindowRecorder",
    "WindowStore",
    "WindowView",
    "build_from_trace",
    "crosscheck_with_flights",
    "params_for_budget",
    "stitch_window_dumps",
    "JsonlSink",
    "RingBufferSink",
    "SummarySink",
    "TraceBus",
    "TraceSink",
    "read_jsonl",
]
