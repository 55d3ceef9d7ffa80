"""TraceBus: fan-out of typed events to pluggable sinks.

The bus is the *push* half of the observability layer. Emitting is a
plain method call — packet-path components emit through their
:class:`~repro.obs.probe.Probe` (``None`` with telemetry off, so the
disabled path costs one identity check); trace-only sites reach the bus
via ``sim.telemetry.trace`` behind the telemetry ``enabled`` flag.

Three sinks ship with the bus:

* :class:`RingBufferSink` — last-N events in memory, for tests and
  interactive debugging.
* :class:`JsonlSink` — one JSON object per line, the interchange format
  the CLI's ``--telemetry out.jsonl`` writes and ``repro telemetry
  summarize`` reads.
* :class:`SummarySink` — O(1)-space counts by type / node / AQ id; the
  reconstruction tests compare these against component counters.
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from collections import deque
from typing import IO, Callable, Deque, Iterator, List, Optional, Union

from ..errors import ConfigurationError
from .codec import encode_event, read_records
from .events import TraceEvent


class TraceSink:
    """Interface: receives every event published on the bus."""

    def handle(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; called by ``TraceBus.close()``."""


class RingBufferSink(TraceSink):
    """Keeps the most recent ``capacity`` events."""

    def __init__(self, capacity: int = 10000) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.total_seen = 0

    def handle(self, event: TraceEvent) -> None:
        self.events.append(event)
        self.total_seen += 1

    @property
    def dropped(self) -> int:
        """Events that fell off the front of the ring."""
        return self.total_seen - len(self.events)

    def of_type(self, event_type: str) -> List[TraceEvent]:
        return [e for e in self.events if e.type == event_type]


class JsonlSink(TraceSink):
    """Appends each event as a JSON line to a file or file-like object."""

    def __init__(self, destination: Union[str, IO[str]]) -> None:
        if isinstance(destination, str):
            self._fh: IO[str] = open(destination, "w", encoding="utf-8")
            self._owns_fh = True
        else:
            self._fh = destination
            self._owns_fh = False
        self.events_written = 0
        self._closed = False

    def handle(self, event: TraceEvent) -> None:
        self._fh.write(encode_event(event))
        self.events_written += 1

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._fh.flush()
        if self._owns_fh:
            self._fh.close()


class SummarySink(TraceSink):
    """Constant-space tallies of the event stream."""

    def __init__(self) -> None:
        self.by_type: _TallyCounter = _TallyCounter()
        self.by_node: _TallyCounter = _TallyCounter()
        self.by_aq: _TallyCounter = _TallyCounter()
        self.bytes_by_type: _TallyCounter = _TallyCounter()
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None

    def handle(self, event: TraceEvent) -> None:
        self.by_type[event.type] += 1
        if event.node is not None:
            self.by_node[(event.type, event.node)] += 1
        if event.aq_id is not None:
            self.by_aq[(event.type, event.aq_id)] += 1
        if event.size is not None:
            self.bytes_by_type[event.type] += event.size
        if self.first_time is None:
            self.first_time = event.time
        self.last_time = event.time

    def count(self, event_type: str, node: Optional[str] = None,
              aq_id: Optional[int] = None) -> int:
        if node is not None:
            return self.by_node[(event_type, node)]
        if aq_id is not None:
            return self.by_aq[(event_type, aq_id)]
        return self.by_type[event_type]

    def to_dict(self) -> dict:
        return {
            "by_type": dict(self.by_type),
            "bytes_by_type": dict(self.bytes_by_type),
            "by_node": {f"{t}@{n}": c for (t, n), c in self.by_node.items()},
            "by_aq": {f"{t}@aq{a}": c for (t, a), c in self.by_aq.items()},
            "first_time": self.first_time,
            "last_time": self.last_time,
        }


class TraceBus:
    """Publishes :class:`TraceEvent` objects to every attached sink."""

    def __init__(self) -> None:
        self._sinks: List[TraceSink] = []
        self.events_published = 0

    def attach(self, sink: TraceSink) -> TraceSink:
        self._sinks.append(sink)
        return sink

    def detach(self, sink: TraceSink) -> None:
        self._sinks.remove(sink)

    @property
    def has_sinks(self) -> bool:
        return bool(self._sinks)

    def emit(self, event: TraceEvent) -> None:
        self.events_published += 1
        for sink in self._sinks:
            sink.handle(event)

    def emit_fields(
        self,
        type: str,
        time: float,
        node: Optional[str] = None,
        flow_id: Optional[int] = None,
        aq_id: Optional[int] = None,
        size: Optional[int] = None,
        value: Optional[float] = None,
        reason: Optional[str] = None,
    ) -> None:
        """Hot-path entry: call sites stay one line, and a bus with no
        sinks (the fabric's default-on plane) only counts the event."""
        self.events_published += 1
        sinks = self._sinks
        if sinks:
            event = TraceEvent(type, time, node, flow_id, aq_id, size, value, reason)
            for sink in sinks:
                sink.handle(event)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


def read_jsonl(
    path: str,
    *,
    strict: bool = True,
    on_skip: Optional[Callable[[int, str], None]] = None,
) -> Iterator[TraceEvent]:
    """Stream events back from a :class:`JsonlSink` file.

    By default a malformed line raises :class:`ConfigurationError` with
    the offending line number. With ``strict=False`` bad lines (invalid
    JSON — e.g. a truncated final line — or records missing the required
    ``type``/``time`` keys) are skipped instead; ``on_skip(lineno, detail)``
    is called for each so callers can warn. I/O errors (missing or
    unreadable file) always propagate as :class:`OSError`.
    """
    return read_records(path, TraceEvent.from_dict, "JSONL trace", strict, on_skip)
