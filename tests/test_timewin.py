"""Tests for the PrintQueue-style time-window recorder (repro.obs.timewin).

Unit coverage of the slot arrays, the wrap-around ring, and the JSONL
interchange, plus the integration properties the ISSUE pins down:

* wrap-boundary queries: a range straddling the eviction horizon is
  ``partial``; a range that wrapped out entirely reports ``evicted``
  rather than zeros;
* the recorder agrees with FlightIndex ground truth per (port, window)
  on real scenario runs;
* enabling ``--timewin`` is *neutral* — a job's deterministic results
  digest is bit-identical with and without the recorder;
* the metrics Histogram keeps an exact ``n`` under reservoir sampling
  and the flight JSONL sink's ring mode counts evictions.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.harness.runner import JobResult, results_digest
from repro.obs import (
    FlightCollector,
    FlightRecorder,
    Telemetry,
    TimeWindowRecorder,
    WindowStore,
    crosscheck_with_flights,
    read_flights_jsonl,
)
from repro.obs.flightrec import JsonlFlightSink
from repro.obs.metrics import DEFAULT_SAMPLE_CAP, Histogram, MetricsRegistry
from repro.obs.timewin import (
    COLLIDED,
    COVERAGE_EVICTED,
    COVERAGE_FULL,
    COVERAGE_OUTSIDE,
    COVERAGE_PARTIAL,
    build_from_trace,
)
from repro.units import gbps

MS = 1e-3


def small_recorder(num_windows=4, slots_log2=3, window_s=MS):
    return TimeWindowRecorder(
        window_s=window_s, num_windows=num_windows, slots_log2=slots_log2
    )


# -- attribution basics --------------------------------------------------------


class TestAttribution:
    def test_flows_tenants_and_high_water(self):
        rec = small_recorder()
        rec.on_enqueue("p0", flow_id=1, tenant_id=10, size=1500, depth=1500.0,
                       now=0.1 * MS)
        rec.on_enqueue("p0", flow_id=2, tenant_id=20, size=500, depth=2000.0,
                       now=0.2 * MS)
        rec.on_enqueue("p0", flow_id=1, tenant_id=10, size=1500, depth=3500.0,
                       now=0.3 * MS)
        report = rec.who_built("p0", 0.0, 1 * MS)
        assert report.coverage == COVERAGE_FULL
        assert report.flows == {1: (3000, 2), 2: (500, 1)}
        assert report.high_water == 3500.0
        assert report.top_contributors(1) == [(1, 3000, 2)]
        shares = report.tenant_shares()
        assert shares[10] == pytest.approx(3000 / 3500)
        assert shares[20] == pytest.approx(500 / 3500)

    def test_drops_are_charged_to_the_window(self):
        rec = small_recorder()
        rec.on_drop("p0", flow_id=7, tenant_id=0, size=1500, now=0.5 * MS)
        report = rec.who_built("p0", 0.0, 1 * MS)
        assert report.dropped_bytes == 1500
        assert report.total_bytes == 0

    def test_collision_keeps_first_owner_and_reconciles(self):
        rec = small_recorder(slots_log2=1)  # 2 slots: flows 1 and 3 collide
        rec.on_enqueue("p0", 1, 0, 1000, 1000.0, 0.1 * MS)
        rec.on_enqueue("p0", 3, 0, 400, 1400.0, 0.2 * MS)
        report = rec.who_built("p0", 0.0, 1 * MS)
        assert report.flows == {1: (1000, 1)}
        assert report.collision_bytes == 400
        ranked = report.top_contributors(5)
        assert (COLLIDED, 400, 0) in ranked
        attributed = sum(b for _, b, _ in ranked)
        assert attributed == report.total_bytes
        assert rec.stats()["collisions"] == 1

    def test_range_ending_on_boundary_excludes_next_window(self):
        rec = small_recorder()
        rec.on_enqueue("p0", 1, 0, 100, 100.0, 0.5 * MS)   # window 0
        rec.on_enqueue("p0", 2, 0, 200, 200.0, 1.5 * MS)   # window 1
        report = rec.who_built("p0", 0.0, 1 * MS)
        assert report.flows == {1: (100, 1)}

    def test_outside_range_reports_outside(self):
        rec = small_recorder()
        rec.on_enqueue("p0", 1, 0, 100, 100.0, 0.5 * MS)
        assert rec.who_built("p0", 10 * MS, 12 * MS).coverage == COVERAGE_OUTSIDE
        assert rec.who_built("nope", 0.0, 1 * MS).coverage == COVERAGE_OUTSIDE

    def test_reversed_range_raises(self):
        rec = small_recorder()
        with pytest.raises(ConfigurationError):
            rec.who_built("p0", 2 * MS, 1 * MS)


# -- wrap-around ring (satellite: edge cases) ----------------------------------


class TestWrapAround:
    def fill(self, rec, n_windows, port="p0"):
        for w in range(n_windows):
            rec.on_enqueue(port, w % 8, 0, 1000, 1000.0, (w + 0.5) * MS)
        return rec

    def test_memory_stays_fixed_under_wrap(self):
        rec = self.fill(small_recorder(num_windows=4), 50)
        stats = rec.stats()
        # Ring of 4 sealed windows + 1 active buffer, no matter the span.
        assert stats["retained_windows"] <= 5
        assert stats["evicted_windows"] == 50 - stats["retained_windows"]

    def test_fully_evicted_range_reports_evicted_not_zeros(self):
        rec = self.fill(small_recorder(num_windows=4), 50)
        report = rec.who_built("p0", 0.0, 10 * MS)
        assert report.coverage == COVERAGE_EVICTED
        assert report.evicted
        assert report.evicted_windows == 10
        # The report carries no windows -- zeros here would be a lie.
        assert report.windows == []

    def test_query_straddling_horizon_is_partial(self):
        rec = self.fill(small_recorder(num_windows=4), 50)
        horizon, _ = rec.eviction_horizon("p0")
        t0 = (horizon - 2) * MS
        report = rec.who_built("p0", t0, 50 * MS)
        assert report.coverage == COVERAGE_PARTIAL
        assert report.evicted_windows == 2
        assert report.total_bytes > 0

    def test_retained_range_is_full_after_wrap(self):
        rec = self.fill(small_recorder(num_windows=4), 50)
        horizon, _ = rec.eviction_horizon("p0")
        report = rec.who_built("p0", horizon * MS, 50 * MS)
        assert report.coverage == COVERAGE_FULL

    def test_recycled_buffer_is_clean(self):
        rec = small_recorder(num_windows=2, slots_log2=2)
        rec.on_enqueue("p0", 1, 5, 999, 999.0, 0.5 * MS)
        rec.on_drop("p0", 1, 5, 111, 0.6 * MS)
        # Advance far enough that window 0's buffer is recycled.
        for w in range(1, 6):
            rec.on_enqueue("p0", 2, 0, 100, 100.0, (w + 0.5) * MS)
        latest = rec.views("p0")[-1]
        assert latest.flows == {2: (100, 1)}
        assert latest.tenants == {0: 100}
        assert latest.dropped_bytes == 0
        assert latest.high_water == 100.0

    def test_flip_all_seals_active(self):
        rec = small_recorder()
        rec.on_enqueue("p0", 1, 0, 100, 100.0, 0.5 * MS)
        assert rec.views("p0")[-1].active
        rec.flip_all(1 * MS)
        views = rec.views("p0")
        assert views and not views[-1].active


# -- multi-queue prefix aggregation --------------------------------------------


class TestPrefixAggregation:
    def test_subqueues_merge_under_parent(self):
        rec = small_recorder()
        rec.on_enqueue("s0.p0.q0", 1, 0, 1000, 1000.0, 0.5 * MS)
        rec.on_enqueue("s0.p0.q1", 2, 0, 500, 500.0, 0.5 * MS)
        report = rec.who_built("s0.p0", 0.0, 1 * MS)
        assert report.flows == {1: (1000, 1), 2: (500, 1)}
        # No parent-level depth sample: per-class high-waters are summed
        # as the upper bound on the port backlog.
        assert report.high_water == 1500.0

    def test_parent_depth_sample_wins_over_class_sum(self):
        rec = small_recorder()
        rec.on_enqueue("s0.p0.q0", 1, 0, 1000, 1000.0, 0.5 * MS)
        rec.on_enqueue("s0.p0.q1", 2, 0, 500, 500.0, 0.5 * MS)
        rec.on_depth("s0.p0", 1200.0, 0.5 * MS)
        report = rec.who_built("s0.p0", 0.0, 1 * MS)
        assert report.high_water == 1200.0


# -- JSONL dump / offline store ------------------------------------------------


class TestDumpAndStore:
    def _recorded(self):
        rec = small_recorder(num_windows=4)
        for w in range(8):
            rec.on_enqueue("p0", w % 3, w % 2, 1000 + w, 1000.0 + w,
                           (w + 0.5) * MS)
        rec.on_drop("p0", 1, 0, 50, 7.6 * MS)
        return rec

    def test_round_trip_preserves_query_answers(self, tmp_path):
        rec = self._recorded()
        path = str(tmp_path / "w.jsonl")
        written = rec.dump_jsonl(path)
        assert written == rec.stats()["retained_windows"]
        store = WindowStore.from_jsonl(path)
        assert store.window_s == rec.window_s
        assert store.ports() == rec.ports()
        live = rec.who_built("p0", 0.0, 8 * MS)
        loaded = store.who_built("p0", 0.0, 8 * MS)
        assert loaded.to_dict() == live.to_dict()

    def test_store_preserves_eviction_horizon(self, tmp_path):
        rec = self._recorded()
        path = str(tmp_path / "w.jsonl")
        rec.dump_jsonl(path)
        store = WindowStore.from_jsonl(path)
        assert store.eviction_horizon("p0") == rec.eviction_horizon("p0")
        report = store.who_built("p0", 0.0, 2 * MS)
        assert report.coverage == COVERAGE_EVICTED

    def test_bad_record_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"window"}\n', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="bad.jsonl:1"):
            WindowStore.from_jsonl(str(path))

    def test_build_from_trace(self):
        class Ev:
            def __init__(self, type, time, node, flow_id, size, value):
                self.type, self.time = type, time
                self.node, self.flow_id = node, flow_id
                self.size, self.value = size, value

        events = [
            Ev("enqueue", 0.1 * MS, "p0", 1, 1500, 1500.0),
            Ev("dequeue", 0.2 * MS, "p0", 1, 1500, 0.0),
            Ev("drop", 0.3 * MS, "p0", 2, 500, 1500.0),
        ]
        rec = build_from_trace(events)
        report = rec.who_built("p0", 0.0, 1 * MS)
        assert report.flows == {1: (1500, 1)}
        assert report.dropped_bytes == 500


# -- scenario integration ------------------------------------------------------


class TestScenarioIntegration:
    @pytest.fixture(scope="class")
    def recorded_run(self):
        from repro.harness.scenarios import run_cc_pair

        tele = Telemetry(enabled=True)
        recorder = tele.enable_time_windows()
        collector = FlightCollector()
        tele.enable_flight_recording().attach(collector)
        with tele.activate():
            run_cc_pair("cubic", 2, "dctcp", 2, "aq", gbps(1), 40e-3,
                        warmup=15e-3)
        tele.close()
        return recorder, collector.flights

    def test_switch_ports_and_aqs_are_recorded(self, recorded_run):
        recorder, _ = recorded_run
        ports = recorder.ports()
        assert any(p.startswith("s-left.") for p in ports)
        assert any(p.startswith("aq") for p in ports)
        assert recorder.stats()["records"] > 0

    def test_attribution_matches_flight_ground_truth(self, recorded_run):
        recorder, flights = recorded_run
        verdict = crosscheck_with_flights(recorder, flights)
        assert verdict["ok"], verdict["mismatches"]
        assert verdict["windows_checked"] > 0

    def test_windows_survive_dump_and_still_match(self, recorded_run, tmp_path):
        recorder, flights = recorded_run
        path = str(tmp_path / "w.jsonl")
        recorder.dump_jsonl(path)
        store = WindowStore.from_jsonl(path)
        verdict = crosscheck_with_flights(store, flights)
        assert verdict["ok"], verdict["mismatches"]

    def test_timewin_validate_job_passes(self):
        from repro.harness.jobs import job_timewin_validate

        out = job_timewin_validate(
            "udp-tcp", "pq",
            [{"name": "T", "cc": "cubic", "num_flows": 2}, {"name": "U", "cc": "udp"}],
            gbps(1), 30e-3,
        )
        assert out["ok"]
        assert out["windows_checked"] > 0


# -- digest neutrality (satellite) ---------------------------------------------


class TestNeutrality:
    def test_job_digest_identical_with_and_without_timewin(self):
        """The recorder observes; it must never perturb the simulation."""
        from repro.harness._testjobs import job_tiny_scenario

        plain = job_tiny_scenario()

        tele = Telemetry()
        tele.enable_time_windows()
        with tele.activate():
            observed = job_tiny_scenario()
        tele.close()

        wrap = lambda r: [JobResult(name="tiny", status="ok", attempts=1,
                                    wall_s=0.0, result=r)]
        assert results_digest(wrap(plain)) == results_digest(wrap(observed))


# -- histogram reservoir (satellite) -------------------------------------------


class TestHistogramReservoir:
    def test_count_stays_exact_past_the_cap(self):
        hist = Histogram("h", (), sample_cap=100)
        for i in range(1000):
            hist.observe(float(i))
        assert hist.count == 1000
        assert hist.sampled
        summary = hist.summary()
        assert summary["count"] == 1000
        assert summary["sample_size"] == 100
        assert summary["min"] == 0.0 and summary["max"] == 999.0
        assert summary["mean"] == pytest.approx(499.5)

    def test_below_cap_is_exact_and_unsampled(self):
        hist = Histogram("h", (), sample_cap=100)
        hist.observe_many([1.0, 2.0, 3.0])
        assert not hist.sampled
        assert "sample_size" not in hist.summary()
        assert hist.summary()["p50"] == 2.0

    def test_reservoir_is_deterministic_per_name(self):
        a, b = Histogram("h", (), sample_cap=10), Histogram("h", (), sample_cap=10)
        values = [math.sin(i) for i in range(500)]
        a.observe_many(values)
        b.observe_many(values)
        assert a.summary() == b.summary()

    def test_percentiles_stay_plausible_under_sampling(self):
        hist = Histogram("h", (), sample_cap=256)
        for i in range(10_000):
            hist.observe(i / 10_000)
        p50 = hist.summary()["p50"]
        assert 0.3 < p50 < 0.7

    def test_invalid_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", (), sample_cap=0)

    def test_registry_cap_applies_at_creation(self):
        reg = MetricsRegistry()
        hist = reg.histogram("queue_delay_s", sample_cap=7, queue="q")
        assert hist.sample_cap == 7
        assert reg.histogram("queue_delay_s", queue="q") is hist
        assert reg.histogram("other").sample_cap == DEFAULT_SAMPLE_CAP

    def test_incremental_observe_many_pattern(self):
        # fifo's collector appends only the delays the histogram has not
        # seen: hist.observe_many(delays[hist.count:]). Exact `count` is
        # what keeps that pattern correct once sampling kicks in.
        hist = Histogram("h", (), sample_cap=10)
        delays = [float(i) for i in range(50)]
        hist.observe_many(delays[hist.count:])
        delays += [float(i) for i in range(50, 80)]
        hist.observe_many(delays[hist.count:])
        assert hist.count == 80
        assert hist.summary()["max"] == 79.0


# -- flight JSONL ring (satellite) ---------------------------------------------


class TestFlightRing:
    def _run_with_sink(self, sink):
        from repro.harness.scenarios import run_cc_pair

        tele = Telemetry(enabled=True)
        tele.enable_flight_recording().attach(sink)
        with tele.activate():
            run_cc_pair("cubic", 1, "dctcp", 1, "aq", gbps(1), 20e-3,
                        warmup=5e-3)
        tele.close()

    def test_ring_caps_file_and_counts_evictions(self, tmp_path):
        path = str(tmp_path / "f.jsonl")
        sink = JsonlFlightSink(path, max_flights=10)
        self._run_with_sink(sink)
        assert sink.flights_evicted > 0
        flights = list(read_flights_jsonl(path))
        assert len(flights) == 10
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
        assert '"ring_meta"' in first

    def test_unbounded_sink_has_no_meta(self, tmp_path):
        path = str(tmp_path / "f.jsonl")
        sink = JsonlFlightSink(path)
        self._run_with_sink(sink)
        assert sink.flights_evicted == 0
        with open(path, encoding="utf-8") as fh:
            assert '"ring_meta"' not in fh.readline()

    def test_recorder_add_jsonl_passes_cap(self, tmp_path):
        path = str(tmp_path / "f.jsonl")
        rec = FlightRecorder()
        sink = rec.add_jsonl(path, max_flights=5)
        assert sink.max_flights == 5
        rec.close()
        assert list(read_flights_jsonl(path)) == []

    def test_invalid_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlFlightSink(str(tmp_path / "f.jsonl"), max_flights=0)
