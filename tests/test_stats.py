"""Tests for meters, percentiles, and fairness metrics."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.stats.fairness import entity_fairness, jain_index, throughput_ratio
from repro.stats.meters import CompletionTracker, ThroughputMeter, percentile


class TestThroughputMeter:
    def test_windowed_rate(self):
        sim = Simulator()
        meter = ThroughputMeter(sim, interval=0.01)
        # 12500 bytes in the first 10 ms window = 10 Mbps.
        sim.schedule(0.004, meter.add, 12_500)
        sim.run(until=0.025)
        assert meter.samples[0][1] == pytest.approx(10e6)
        assert meter.samples[1][1] == 0.0

    def test_mean_rate_over_interval(self):
        sim = Simulator()
        meter = ThroughputMeter(sim, interval=0.01)
        for k in range(5):
            sim.schedule(k * 0.01 + 0.001, meter.add, 12_500)
        sim.run(until=0.05)
        assert meter.mean_rate() == pytest.approx(10e6)
        assert meter.mean_rate(after=0.02, before=0.04) == pytest.approx(10e6)

    def test_rate_range_percentiles(self):
        sim = Simulator()
        meter = ThroughputMeter(sim, interval=0.01)
        volumes = [1000, 2000, 3000, 4000, 100000]
        for k, volume in enumerate(volumes):
            sim.schedule(k * 0.01 + 0.001, meter.add, volume)
        sim.run(until=0.05)
        low, high = meter.rate_range(low_percentile=0, high_percentile=50)
        assert low == pytest.approx(1000 * 8 / 0.01)
        assert high == pytest.approx(3000 * 8 / 0.01)

    def test_total_bytes_accumulate(self):
        sim = Simulator()
        meter = ThroughputMeter(sim, interval=0.01)
        meter.add(100)
        meter.add(200)
        assert meter.total_bytes == 300

    def test_stop_halts_sampling(self):
        sim = Simulator()
        meter = ThroughputMeter(sim, interval=0.01)
        sim.run(until=0.015)
        meter.stop()
        sim.run(until=0.1)
        assert len(meter.samples) == 1

    def test_invalid_interval(self):
        with pytest.raises(ConfigurationError):
            ThroughputMeter(Simulator(), interval=0.0)

    def test_stop_flushes_final_partial_window(self):
        sim = Simulator()
        meter = ThroughputMeter(sim, interval=0.01)
        # One full window, then 12500 bytes across a 5 ms tail.
        sim.schedule(0.002, meter.add, 12_500)
        sim.schedule(0.014, meter.add, 12_500)
        sim.run(until=0.015)
        meter.stop()
        assert len(meter.samples) == 2
        end, rate = meter.samples[-1]
        assert end == pytest.approx(0.015)
        assert rate == pytest.approx(12_500 * 8 / 0.005)  # 20 Mbps tail

    def test_add_records_explicit_delivery_time(self):
        # on_deliver hooks pass (nbytes, now); stop() must honour a
        # delivery time ahead of the last processed event.
        sim = Simulator()
        meter = ThroughputMeter(sim, interval=1.0)
        meter.add(1000, 0.5)
        meter.stop()
        assert meter.samples == [(0.5, pytest.approx(1000 * 8 / 0.5))]

    def test_stop_discards_sub_percent_tail(self):
        sim = Simulator()
        meter = ThroughputMeter(sim, interval=0.01)
        sim.schedule(0.01 + 1e-6, meter.add, 1000)
        sim.run(until=0.01 + 2e-6)
        meter.stop()
        # The 1-2 us tail would read as gigabits; it must be dropped.
        assert len(meter.samples) == 1

    def test_stop_is_idempotent(self):
        sim = Simulator()
        meter = ThroughputMeter(sim, interval=0.01)
        sim.schedule(0.002, meter.add, 1000)
        sim.run(until=0.005)
        meter.stop()
        meter.stop()
        assert len(meter.samples) == 1


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5, 1, 9, 3]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_single_value(self):
        assert percentile([7.5], 95) == 7.5
        assert percentile([7.5], 0) == 7.5
        assert percentile([7.5], 100) == 7.5

    def test_exact_rank_no_interpolation(self):
        # pct landing exactly on an index must return that element.
        assert percentile([1, 2, 3, 4, 5], 25) == 2

    def test_result_clamped_to_data_range(self):
        # Float round-off in rank arithmetic must never escape [min, max].
        values = [0.1] * 3 + [0.3]
        for pct in (0, 33.333333, 66.666666, 99.999999, 100):
            assert 0.1 <= percentile(values, pct) <= 0.3

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50)
        with pytest.raises(ConfigurationError):
            percentile([1], 101)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
        st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_min_max(self, values, pct):
        result = percentile(values, pct)
        assert min(values) <= result <= max(values)


class TestCompletionTracker:
    def test_tracks_last_completion(self):
        tracker = CompletionTracker(expected=3)
        for t in (0.1, 0.5, 0.3):
            tracker.on_complete(None, t)
        assert tracker.all_done
        assert tracker.workload_completion_time() == 0.3  # last event's time

    def test_incomplete_raises(self):
        tracker = CompletionTracker(expected=2)
        tracker.on_complete(None, 0.1)
        assert not tracker.all_done
        with pytest.raises(ConfigurationError):
            tracker.workload_completion_time()

    def test_invalid_expected(self):
        with pytest.raises(ConfigurationError):
            CompletionTracker(expected=0)


class TestFairness:
    def test_jain_perfect(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_jain_maximally_unfair(self):
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_jain_all_zero(self):
        assert jain_index([0, 0]) == 1.0

    def test_jain_validation(self):
        with pytest.raises(ConfigurationError):
            jain_index([])
        with pytest.raises(ConfigurationError):
            jain_index([-1, 2])

    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=30))
    @example([1.3421009126947246e-158] * 2)  # squares land in the subnormals
    @settings(max_examples=100, deadline=None)
    def test_jain_bounds(self, values):
        index = jain_index(values)
        assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9

    def test_entity_fairness_symmetric(self):
        assert entity_fairness(2.0, 4.0) == entity_fairness(4.0, 2.0) == 0.5

    def test_entity_fairness_equal(self):
        assert entity_fairness(3.0, 3.0) == 1.0

    def test_entity_fairness_validation(self):
        with pytest.raises(ConfigurationError):
            entity_fairness(0.0, 1.0)

    def test_throughput_ratio(self):
        assert throughput_ratio(1e9, 2e9) == 0.5
        assert throughput_ratio(0.0, 0.0) == 1.0
        with pytest.raises(ConfigurationError):
            throughput_ratio(-1.0, 1.0)
