"""Tests for the unified telemetry subsystem (repro.obs).

Covers the metrics registry, trace events and sinks, the telemetry
facade's ambient activation, the sim-loop profiler, the O(1) pending-
event counter, and — the load-bearing part — *reconstruction*: the
TraceBus event stream must tally to exactly the counts the components'
own authoritative stats report for a real packet-level scenario.
"""

import io
import json

import pytest

from repro.errors import ConfigurationError
from repro.harness.scenarios import run_cc_pair
from repro.obs import (
    ALL_EVENT_TYPES,
    AUDIT_EVENT_TYPES,
    AuditError,
    CORE_EVENT_TYPES,
    EV_CWND_CHANGE,
    EV_DEQUEUE,
    EV_DROP,
    EV_ECN_MARK,
    EV_ENQUEUE,
    JsonlSink,
    MetricsRegistry,
    RingBufferSink,
    RunAuditor,
    SimProfiler,
    SummarySink,
    Telemetry,
    TraceBus,
    TraceEvent,
    get_active_telemetry,
    read_jsonl,
    tracebus,
)
from repro.sim.engine import Simulator
from repro.units import gbps

SHORT = dict(bottleneck_bps=gbps(1), duration=40e-3, warmup=15e-3)


# -- metrics registry --------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        a = reg.counter("pkts", port="p0")
        b = reg.counter("pkts", port="p0")
        c = reg.counter("pkts", port="p1")
        assert a is b
        assert a is not c
        assert len(reg) == 2

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        a = reg.counter("x", aq_id=1, port="p0")
        b = reg.counter("x", port="p0", aq_id=1)
        assert a is b

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("pkts").inc(-1)

    def test_value_sums_matching_series(self):
        reg = MetricsRegistry()
        reg.counter("drops", port="p0").inc(3)
        reg.counter("drops", port="p1").inc(4)
        assert reg.value("drops") == 7
        assert reg.value("drops", port="p1") == 4

    def test_value_unknown_metric_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.value("nope")

    def test_collector_runs_only_at_snapshot(self):
        reg = MetricsRegistry()
        calls = []
        reg.add_collector(lambda r: calls.append(r.counter("c").set(42)))
        assert calls == []
        snap = reg.snapshot()
        assert len(calls) == 1
        assert snap["counters"][0] == {"name": "c", "labels": {}, "value": 42.0}

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        hist = reg.histogram("delay", queue="q0")
        hist.observe_many([1.0, 2.0, 3.0, 4.0])
        s = hist.summary()
        assert s["count"] == 4
        assert s["min"] == 1.0 and s["max"] == 4.0
        assert s["mean"] == pytest.approx(2.5)
        assert s["p50"] == pytest.approx(2.5)

    def test_empty_histogram_summary(self):
        assert MetricsRegistry().histogram("h").summary() == {"count": 0}

    def test_snapshot_round_trips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("n", x=1).inc(5)
        reg.gauge("g").set(2.5)
        reg.histogram("h").observe(1.0)
        restored = json.loads(reg.to_json())
        assert restored == reg.snapshot(run_collectors=False)


# -- trace events & sinks ----------------------------------------------------------


class TestTraceEvent:
    def test_to_dict_omits_none_fields(self):
        event = TraceEvent(EV_DROP, 1.5, node="s0.p0", size=1500)
        assert event.to_dict() == {
            "type": "drop", "time": 1.5, "node": "s0.p0", "size": 1500,
        }

    def test_dict_round_trip(self):
        event = TraceEvent(EV_CWND_CHANGE, 0.25, node="tcp", flow_id=7, value=14600.0)
        clone = TraceEvent.from_dict(event.to_dict())
        assert clone.to_dict() == event.to_dict()

    def test_core_vocabulary_has_seven_types(self):
        assert len(CORE_EVENT_TYPES) == 7
        assert len(set(CORE_EVENT_TYPES)) == 7

    def test_full_vocabulary_is_core_plus_audit_plus_fault_plus_fluid(self):
        from repro.obs import FAULT_EVENT_TYPES, FLUID_EVENT_TYPES

        assert ALL_EVENT_TYPES == (
            CORE_EVENT_TYPES + AUDIT_EVENT_TYPES + FAULT_EVENT_TYPES
            + FLUID_EVENT_TYPES
        )
        assert len(ALL_EVENT_TYPES) == 13
        assert len(set(ALL_EVENT_TYPES)) == 13

    def test_reason_field_round_trips(self):
        event = TraceEvent(EV_DROP, 0.1, node="s0.p0", size=1500, reason="red")
        assert event.to_dict()["reason"] == "red"
        assert TraceEvent.from_dict(event.to_dict()).reason == "red"
        # And absent reasons stay absent, not null.
        assert "reason" not in TraceEvent(EV_DROP, 0.1).to_dict()


class TestSinks:
    def _events(self, n):
        return [TraceEvent(EV_ENQUEUE, i * 1e-3, node="q", size=100) for i in range(n)]

    def test_ring_buffer_truncates_and_counts_dropped(self):
        ring = RingBufferSink(capacity=3)
        for event in self._events(5):
            ring.handle(event)
        assert ring.total_seen == 5
        assert len(ring.events) == 3
        assert ring.dropped == 2
        # The survivors are the most recent three.
        assert [e.time for e in ring.events] == pytest.approx([2e-3, 3e-3, 4e-3])

    def test_ring_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            RingBufferSink(capacity=0)

    def test_ring_of_type_filters(self):
        ring = RingBufferSink()
        ring.handle(TraceEvent(EV_ENQUEUE, 0.0))
        ring.handle(TraceEvent(EV_DROP, 1.0))
        assert [e.type for e in ring.of_type(EV_DROP)] == ["drop"]

    def test_jsonl_round_trip_through_file(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        originals = self._events(4)
        for event in originals:
            sink.handle(event)
        sink.close()
        restored = list(read_jsonl(path))
        assert len(restored) == 4
        assert [e.to_dict() for e in restored] == [e.to_dict() for e in originals]

    def test_jsonl_borrowed_stream_not_closed(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.handle(TraceEvent(EV_DROP, 0.5))
        sink.close()
        assert not buf.closed
        assert json.loads(buf.getvalue()) == {"type": "drop", "time": 0.5}

    def test_read_jsonl_bad_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"drop","time":0}\nnot json\n')
        with pytest.raises(ConfigurationError, match="2"):
            list(read_jsonl(str(path)))

    def test_read_jsonl_tolerant_mode_skips_bad_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"type":"drop","time":0}\n'
            "not json\n"
            '{"time":1}\n'          # missing required field
            '{"type":"drop","time":2}\n'
            '{"type":"drop","time":'  # truncated final line
        )
        skipped = []
        events = list(read_jsonl(
            str(path), strict=False,
            on_skip=lambda lineno, problem: skipped.append(lineno),
        ))
        assert [e.time for e in events] == [0, 2]
        assert skipped == [2, 3, 5]

    def test_read_jsonl_tolerant_mode_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert list(read_jsonl(str(path), strict=False)) == []

    def test_summary_sink_tallies(self):
        summary = SummarySink()
        summary.handle(TraceEvent(EV_DROP, 1.0, node="q0", size=100))
        summary.handle(TraceEvent(EV_DROP, 2.0, node="q1", aq_id=3, size=200))
        summary.handle(TraceEvent(EV_ECN_MARK, 3.0, aq_id=3))
        assert summary.count(EV_DROP) == 2
        assert summary.count(EV_DROP, node="q0") == 1
        assert summary.count(EV_ECN_MARK, aq_id=3) == 1
        assert summary.bytes_by_type[EV_DROP] == 300
        assert summary.first_time == 1.0 and summary.last_time == 3.0

    def test_bus_fans_out_and_detaches(self):
        bus = TraceBus()
        ring = bus.attach(RingBufferSink())
        summary = bus.attach(SummarySink())
        bus.emit_fields(EV_DROP, 0.1, node="q")
        bus.detach(ring)
        bus.emit_fields(EV_DROP, 0.2, node="q")
        assert bus.events_published == 2
        assert len(ring.events) == 1
        assert summary.count(EV_DROP) == 2

    def test_owned_jsonl_sink_closes_twice(self, tmp_path):
        # Telemetry.close() is documented "safe to call twice".
        path = str(tmp_path / "trace.jsonl")
        tele = Telemetry(enabled=True)
        tele.add_jsonl(path)
        tele.trace.emit_fields(EV_DROP, 0.5)
        tele.close()
        tele.close()
        assert [e.type for e in read_jsonl(path)] == ["drop"]


class TestBusDispatch:
    """What ``emit_fields`` promises its sinks, and what it skips without any."""

    def test_sinkless_bus_counts_but_builds_no_event(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            tracebus, "TraceEvent", lambda *fields: built.append(fields) or TraceEvent(*fields)
        )
        bus = TraceBus()
        bus.emit_fields(EV_DROP, 0.1, node="q")
        assert bus.events_published == 1 and built == []
        ring = bus.attach(RingBufferSink())
        bus.emit_fields(EV_DROP, 0.2, node="q", reason="buffer")
        assert bus.events_published == 2 and len(built) == 1
        assert ring.events[0].to_dict() == {
            "type": "drop", "time": 0.2, "node": "q", "reason": "buffer",
        }

    def test_attach_and_detach_apply_from_the_next_emit(self):
        bus = TraceBus()
        bus.emit_fields(EV_DROP, 0.1)
        ring = bus.attach(RingBufferSink())
        bus.emit_fields(EV_DROP, 0.2)
        bus.detach(ring)
        bus.emit_fields(EV_DROP, 0.3)
        assert not bus.has_sinks
        assert [e.time for e in ring.events] == [0.2]
        assert bus.events_published == 3

    def test_sinks_observe_each_event_inside_the_emitting_call(self):
        bus = TraceBus()
        ring = bus.attach(RingBufferSink())
        auditor = bus.attach(RunAuditor(strict=True))
        bus.emit_fields(EV_ENQUEUE, 0.1, node="q", size=100, value=100.0)
        assert ring.total_seen == 1 and auditor.events_seen == 1
        # A strict auditor raises out of the emit that broke the invariant,
        # after the ring (attached first) has already seen the event.
        with pytest.raises(AuditError, match="queue_conservation"):
            bus.emit_fields(EV_ENQUEUE, 0.2, node="q", size=100, value=999.0)
        assert ring.total_seen == 2 and ring.events[-1].value == 999.0


# -- telemetry facade --------------------------------------------------------------


class TestTelemetryFacade:
    def test_disabled_by_default(self):
        tele = Telemetry()
        assert not tele.enabled
        assert tele.profiler is None

    def test_simulator_gets_fresh_disabled_telemetry(self):
        sim = Simulator()
        assert sim.telemetry is not None
        assert not sim.telemetry.enabled

    def test_activate_installs_ambient_telemetry(self):
        tele = Telemetry(enabled=True)
        assert get_active_telemetry() is None
        with tele.activate():
            assert get_active_telemetry() is tele
            sim = Simulator()
            assert sim.telemetry is tele
        assert get_active_telemetry() is None
        # Simulators built outside the block do not share it.
        assert Simulator().telemetry is not tele

    def test_activate_nests(self):
        outer, inner = Telemetry(enabled=True), Telemetry(enabled=True)
        with outer.activate():
            with inner.activate():
                assert get_active_telemetry() is inner
            assert get_active_telemetry() is outer

    def test_explicit_telemetry_wins_over_ambient(self):
        ambient, explicit = Telemetry(enabled=True), Telemetry(enabled=True)
        with ambient.activate():
            assert Simulator(telemetry=explicit).telemetry is explicit

    def test_enable_profiling_is_idempotent(self):
        tele = Telemetry()
        prof = tele.enable_profiling()
        assert tele.enable_profiling() is prof


# -- profiler & engine instrumentation ---------------------------------------------


class TestProfiler:
    def test_profiled_run_records_sites(self):
        tele = Telemetry(enabled=True, profile=True)
        sim = Simulator(telemetry=tele)
        def tick():
            pass
        for i in range(5):
            sim.schedule_at(i * 1e-3, tick)
        sim.run()
        prof = tele.profiler
        assert prof.events_executed == 5
        assert prof.run_calls == 1
        assert prof.wall_time > 0
        sites = dict((site, calls) for site, _, calls in prof.hotspots())
        assert sites.get("TestProfiler.test_profiled_run_records_sites.<locals>.tick") == 5

    def test_snapshot_includes_pending_events(self):
        tele = Telemetry(enabled=True, profile=True)
        sim = Simulator(telemetry=tele)
        sim.schedule_at(1.0, lambda: None)
        snap = tele.profiler.snapshot(sim)
        assert snap["pending_events"] == 1
        assert snap["next_event_time"] == 1.0

    def test_render_mentions_hotspots(self):
        tele = Telemetry(enabled=True, profile=True)
        sim = Simulator(telemetry=tele)
        sim.schedule_at(0.0, lambda: None)
        sim.run()
        text = tele.profiler.render(sim)
        assert "events executed : 1" in text
        assert "pending events  : 0" in text

    def test_site_name_falls_back_to_repr(self):
        class NoQualname:
            __slots__ = ()
            def __call__(self):
                pass
        name = SimProfiler.site_name(NoQualname())
        assert "NoQualname" in name


class TestPendingEventsCounter:
    def test_counts_scheduled_and_executed(self):
        sim = Simulator()
        events = [sim.schedule_at(t * 1e-3, lambda: None) for t in range(4)]
        assert sim.pending_events() == 4
        sim.run(until=1.5e-3)
        assert sim.pending_events() == 2
        del events

    def test_cancel_decrements_once(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        assert sim.pending_events() == 1
        event.cancel()
        assert sim.pending_events() == 0
        event.cancel()  # double-cancel must not go negative
        assert sim.pending_events() == 0

    def test_cancel_after_execution_is_noop(self):
        sim = Simulator()
        event = sim.schedule_at(0.0, lambda: None)
        sim.run()
        assert sim.pending_events() == 0
        event.cancel()
        assert sim.pending_events() == 0

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0
        assert sim.pending_events() == 1


# -- reconstruction: trace stream vs component counters ----------------------------


class TestReconstruction:
    """The event stream must tally to exactly what the components counted.

    The metrics registry mirrors each component's authoritative stats
    object (switch ports, queues, AQs, transports), so agreement between
    SummarySink tallies and registry sums proves the TraceBus saw every
    drop/mark/enqueue the components recorded — no double counting, no
    missed emission sites.
    """

    @pytest.fixture(scope="class")
    def traced_aq_run(self):
        tele = Telemetry(enabled=True)
        summary = tele.add_summary()
        with tele.activate():
            result = run_cc_pair("dctcp", 2, "udp", 1, "aq", **SHORT)
        tele.metrics.collect()
        return tele, summary, result

    def test_enqueue_dequeue_match_queue_counters(self, traced_aq_run):
        tele, summary, _ = traced_aq_run
        assert summary.count(EV_ENQUEUE) == tele.metrics.value("queue_enqueued_packets")
        assert summary.count(EV_DEQUEUE) == tele.metrics.value("queue_dequeued_packets")
        assert summary.count(EV_ENQUEUE) > 1000  # a real run, not a trickle

    def test_agap_updates_match_aq_arrivals(self, traced_aq_run):
        tele, summary, _ = traced_aq_run
        assert summary.count("agap_update") == tele.metrics.value("aq_arrived_packets")

    def test_ecn_marks_match_mark_counters(self, traced_aq_run):
        tele, summary, _ = traced_aq_run
        marks = tele.metrics.value("aq_marked_packets") + tele.metrics.value(
            "queue_ecn_marked_packets"
        )
        assert summary.count(EV_ECN_MARK) == marks
        assert summary.count(EV_ECN_MARK) > 0  # DCTCP under AQ must mark

    def test_rate_limit_events_match_aq_drops(self, traced_aq_run):
        tele, summary, _ = traced_aq_run
        assert summary.count("rate_limit") == tele.metrics.value("aq_dropped_packets")
        assert summary.count("rate_limit") > 0  # UDP overdrives its share

    def test_cwnd_changes_traced_per_flow(self, traced_aq_run):
        _, summary, _ = traced_aq_run
        assert summary.count(EV_CWND_CHANGE) > 0

    def test_trace_respects_run_duration(self, traced_aq_run):
        _, summary, _ = traced_aq_run
        assert summary.first_time >= 0.0
        assert summary.last_time <= SHORT["duration"] + 1e-9

    def test_physical_drops_match_queue_counters_under_pq(self):
        tele = Telemetry(enabled=True)
        summary = tele.add_summary()
        ring = tele.add_ring(200_000)
        with tele.activate():
            run_cc_pair("cubic", 2, "udp", 1, "pq", **SHORT)
        tele.metrics.collect()
        assert summary.count(EV_DROP) == tele.metrics.value("queue_dropped_packets")
        assert summary.count(EV_DROP) > 0  # UDP at line rate overflows the port
        # Satellite: every drop is attributed — a reason label on the event
        # and a matching per-reason metric series that sums to the total.
        drop_reasons = {e.reason for e in ring.of_type(EV_DROP)}
        assert drop_reasons and None not in drop_reasons
        assert drop_reasons <= {"buffer", "red", "no_queue"}
        per_reason = sum(
            tele.metrics.value("queue_dropped_packets", reason=reason)
            for reason in drop_reasons
        )
        assert per_reason == summary.count(EV_DROP)

    def test_disabled_telemetry_emits_nothing(self):
        tele = Telemetry(enabled=False)
        summary = tele.add_summary()
        with tele.activate():
            run_cc_pair("cubic", 1, "udp", 1, "pq", **SHORT)
        assert sum(summary.by_type.values()) == 0
        assert tele.trace.events_published == 0


# -- CLI round trip ----------------------------------------------------------------


class TestCliTelemetry:
    def test_share_writes_trace_and_snapshot_then_summarizes(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "run.jsonl")
        code = main([
            "share", "--ccs", "dctcp", "cubic", "udp",
            "--bottleneck-gbps", "0.5", "--duration-ms", "20", "--flows", "1",
            "--telemetry", trace, "--metrics-summary", "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sim-loop profile" in out
        assert "metric" in out  # the metrics-summary table

        events = list(read_jsonl(trace))
        assert events, "JSONL trace must not be empty"
        seen = {e.type for e in events}
        for expected in CORE_EVENT_TYPES:
            assert expected in seen, f"missing {expected} events in trace"

        metrics_path = tmp_path / "run.metrics.json"
        assert metrics_path.exists()
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"], "metrics snapshot has no counters"

        assert main(["telemetry", "summarize", trace]) == 0
        out = capsys.readouterr().out
        assert "enqueue" in out
        assert "total" in out

    def test_summarize_tolerates_corrupt_and_empty_traces(self, tmp_path, capsys):
        """Satellite: summarize must not crash on truncated or garbage
        JSONL — skip bad lines with a warning; non-zero exit is reserved
        for unreadable files."""
        from repro.cli import main

        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text(
            '{"type":"enqueue","time":0,"size":100}\n'
            "garbage\n"
            '{"type":"dequeue","time":1,"size":100}\n'
            '{"type":"drop","ti'  # truncated mid-write
        )
        assert main(["telemetry", "summarize", str(corrupt)]) == 0
        captured = capsys.readouterr()
        assert "enqueue" in captured.out
        assert "2 bad line(s) skipped" in captured.err
        assert "corrupt.jsonl:2" in captured.err

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["telemetry", "summarize", str(empty)]) == 0
        assert "total" in capsys.readouterr().out  # a valid zero-event run

    def test_summarize_missing_file_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["telemetry", "summarize", str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot read trace" in capsys.readouterr().err
