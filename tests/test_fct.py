"""Tests for the FCT statistics collector."""

import pytest

from repro.errors import ConfigurationError
from repro.stats.fct import DEFAULT_BIN_EDGES, FctCollector, FlowRecord
from repro.units import gbps


class TestFlowRecord:
    def test_slowdown(self):
        record = FlowRecord(size_bytes=1000, fct=2e-3, ideal_fct=1e-3)
        assert record.slowdown == 2.0

    def test_zero_ideal_is_infinite(self):
        record = FlowRecord(size_bytes=1000, fct=1e-3, ideal_fct=0.0)
        assert record.slowdown == float("inf")


class TestCollector:
    def _collector(self):
        return FctCollector(reference_rate_bps=gbps(1), base_rtt=60e-6)

    def test_ideal_fct_includes_rtt(self):
        collector = self._collector()
        # 125000 bytes at 1 Gbps = 1 ms, plus 60 us RTT.
        assert collector.ideal_fct(125_000) == pytest.approx(1.06e-3)

    def test_record_and_count(self):
        collector = self._collector()
        collector.record(10_000, 1e-3)
        collector.record(2_000_000, 50e-3)
        assert len(collector) == 2

    def test_binning(self):
        collector = self._collector()
        assert collector._bin_label(50_000) == f"(0, {DEFAULT_BIN_EDGES[0]}]B"
        assert collector._bin_label(500_000).startswith(f"({DEFAULT_BIN_EDGES[0]}")
        assert collector._bin_label(5_000_000).startswith(">")

    def test_summary_percentiles(self):
        collector = self._collector()
        for fct_ms in (1, 2, 3, 4, 100):
            collector.record(10_000, fct_ms * 1e-3)
        summary = collector.summary()
        small_bin = collector.bins()[0]
        assert summary[small_bin]["n"] == 5
        assert summary[small_bin]["p50"] < summary[small_bin]["p99"]

    def test_slowdowns_filter_by_bin(self):
        collector = self._collector()
        collector.record(10_000, 1e-3)
        collector.record(5_000_000, 80e-3)
        small = collector.slowdowns(collector.bins()[0])
        assert len(small) == 1

    def test_overall_summary_pools_every_size(self):
        collector = self._collector()
        assert collector.overall_summary() is None  # nothing finite yet
        collector.record(10_000, 1e-3)
        collector.record(5_000_000, 80e-3)
        overall = collector.overall_summary()
        assert list(overall) == ["p50", "p95", "p99", "mean", "n"]
        assert overall["n"] == 2.0
        assert overall["mean"] == pytest.approx(sum(collector.slowdowns()) / 2)
        # One bin holding everything summarizes identically.
        pooled = FctCollector(gbps(1), base_rtt=60e-6, bin_edges=())
        pooled.records = collector.records
        assert pooled.summary() == {">0B": overall}

    def test_overall_p99(self):
        collector = self._collector()
        for i in range(100):
            collector.record(10_000, (1 + i) * 1e-4)
        assert collector.overall_p99_slowdown() > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FctCollector(reference_rate_bps=0)
        collector = self._collector()
        with pytest.raises(ConfigurationError):
            collector.record(0, 1e-3)
        with pytest.raises(ConfigurationError):
            collector.overall_p99_slowdown()

    def test_on_complete_hook(self):
        collector = self._collector()

        class FakeConn:
            completion_time = 2e-3

        collector.on_complete_hook(10_000)(FakeConn(), 1.0)
        assert len(collector) == 1
        assert collector.records[0].fct == 2e-3


class TestNonFiniteSlowdowns:
    """Regression: one record with a zero ideal FCT (slowdown = inf)
    must not poison a bin's percentiles/mean — it is excluded and
    reported as ``n_nonfinite`` instead."""

    def _collector_with_inf(self):
        collector = FctCollector(reference_rate_bps=gbps(1))
        for fct_ms in (1, 2, 3):
            collector.record(10_000, fct_ms * 1e-3)
        # Bypass record()'s validation the way a degenerate merge would.
        collector.records.append(
            FlowRecord(size_bytes=10_000, fct=1e-3, ideal_fct=0.0)
        )
        return collector

    def test_summary_excludes_nonfinite(self):
        collector = self._collector_with_inf()
        small_bin = collector.bins()[0]
        stats = collector.summary()[small_bin]
        assert stats["n"] == 3
        assert stats["n_nonfinite"] == 1
        for key in ("p50", "p99", "mean"):
            assert stats[key] != float("inf"), key

    def test_summary_omits_counter_when_all_finite(self):
        collector = FctCollector(reference_rate_bps=gbps(1))
        collector.record(10_000, 1e-3)
        stats = collector.summary()[collector.bins()[0]]
        assert "n_nonfinite" not in stats

    def test_all_nonfinite_bin_keeps_counts_only(self):
        collector = FctCollector(reference_rate_bps=gbps(1))
        collector.records.append(
            FlowRecord(size_bytes=10_000, fct=1e-3, ideal_fct=0.0)
        )
        stats = collector.summary()[collector.bins()[0]]
        assert stats == {"n": 0.0, "n_nonfinite": 1.0}

    def test_overall_p99_ignores_nonfinite(self):
        collector = self._collector_with_inf()
        assert collector.overall_p99_slowdown() != float("inf")

    def test_overall_p99_raises_when_none_finite(self):
        collector = FctCollector(reference_rate_bps=gbps(1))
        collector.records.append(
            FlowRecord(size_bytes=10_000, fct=1e-3, ideal_fct=0.0)
        )
        with pytest.raises(ConfigurationError, match="finite"):
            collector.overall_p99_slowdown()

    def test_slowdowns_finite_only_filter(self):
        collector = self._collector_with_inf()
        assert len(collector.slowdowns()) == 4
        assert len(collector.slowdowns(finite_only=True)) == 3
