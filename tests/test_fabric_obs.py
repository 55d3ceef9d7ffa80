"""Tests for the fabric observability plane: the run ledger, live shard
health heartbeats, cross-shard flight stitching, and the default-on
budgeted time-window recorder.

The load-bearing property is digest neutrality: the whole plane — run
directory, heartbeat frames, flight recording, time windows — must not
change ``fabric_digest`` at any shard count. On top of that, stitched
end-to-end flights must match a serial 1-shard run exactly (path,
latency, drop attribution) under :func:`repro.obs.flightrec.journey_key`.
"""

import json
import os

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.harness.fabric import run_share_fabric
from repro.obs.flightrec import (
    journey_key,
    read_flights_jsonl,
    stitch_flight_dumps,
)
from repro.obs.metrics import merge_metrics_snapshots
from repro.obs.runledger import (
    artifact_paths,
    is_run_reference,
    load_manifest,
    read_health_jsonl,
    resolve_inputs,
)
from repro.obs.timewin import (
    MAX_NUM_WINDOWS,
    MIN_NUM_WINDOWS,
    MIN_SLOTS_LOG2,
    WindowStore,
    estimate_port_bytes,
    params_for_budget,
    stitch_window_dumps,
)

DURATION = 1e-3
SMALL = dict(pods=2, tors_per_pod=1, hosts_per_tor=2)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Shared runs: plane off, full plane at 2 shards, full plane serial,
    and a ledgered run with time windows opted out."""
    tmp = tmp_path_factory.mktemp("obsruns")
    base = run_share_fabric(2, DURATION, inline=True, audit=True, **SMALL)
    sharded = run_share_fabric(
        2, DURATION, inline=True, audit=True,
        run_dir=str(tmp / "sharded"),
        flight_dir=str(tmp / "sharded" / "flights"),
        **SMALL,
    )
    serial = run_share_fabric(
        1, DURATION, inline=True, audit=True,
        run_dir=str(tmp / "serial"),
        flight_dir=str(tmp / "serial" / "flights"),
        **SMALL,
    )
    nowin = run_share_fabric(
        1, DURATION, inline=True,
        run_dir=str(tmp / "nowin"), timewin=False, heartbeat=False,
        **SMALL,
    )
    return {"base": base, "sharded": sharded, "serial": serial,
            "nowin": nowin}


class TestDigestNeutrality:
    def test_full_plane_changes_no_digest(self, runs):
        digests = {runs[k]["digest"] for k in ("base", "sharded", "serial")}
        assert len(digests) == 1
        # ... with the default-on window recorder really recording.
        assert runs["sharded"]["timewin_ports"] > 0

    def test_audit_clean_with_plane_on(self, runs):
        for name in ("sharded", "serial"):
            assert runs[name]["audit"]["violation_count"] == 0


class TestRunLedger:
    def test_manifest_is_complete(self, runs):
        run_dir, manifest = load_manifest(runs["sharded"]["run_dir"])
        assert manifest["status"] == "complete"
        assert manifest["schema"] == "fabric-run/1"
        assert manifest["digests"]["fabric_digest"] == runs["sharded"]["digest"]
        assert set(manifest["artifacts"]) >= {
            "windows", "windows_stitched", "flights", "flights_stitched",
            "health", "metrics", "report",
        }
        assert manifest["partition_plan"]["shards"] == 2
        assert manifest["partition_plan"]["cut_links"]
        assert len(manifest["workers"]) == 2
        # Every indexed artifact must actually exist, relative to the dir.
        for value in manifest["artifacts"].values():
            rels = value if isinstance(value, list) else [value]
            for rel in rels:
                assert os.path.isfile(os.path.join(run_dir, rel)), rel

    def test_is_run_reference(self, runs, tmp_path):
        run_dir = runs["sharded"]["run_dir"]
        assert is_run_reference(run_dir)
        assert is_run_reference(os.path.join(run_dir, "manifest.json"))
        assert not is_run_reference(str(tmp_path))
        assert not is_run_reference(str(tmp_path / "missing"))
        bare = tmp_path / "windows.jsonl"
        bare.write_text("", encoding="utf-8")
        assert not is_run_reference(str(bare))

    def test_artifact_resolution_prefers_stitched(self, runs):
        run_dir = runs["sharded"]["run_dir"]
        windows = artifact_paths(run_dir, "windows")
        assert windows == [os.path.join(run_dir, "windows.stitched.jsonl")]
        flights = artifact_paths(run_dir, "flights")
        assert flights == [os.path.join(run_dir, "flights.stitched.jsonl")]
        (health,) = artifact_paths(run_dir, "health")
        assert health.endswith("health.jsonl")
        with pytest.raises(ConfigurationError):
            artifact_paths(run_dir, "bogus")

    def test_artifact_resolution_falls_back_to_per_shard(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "windows").mkdir()
        dump = run_dir / "windows" / "shard0.windows.jsonl"
        dump.write_text("", encoding="utf-8")
        (run_dir / "manifest.json").write_text(json.dumps({
            "schema": "fabric-run/1",
            "status": "complete",
            "artifacts": {
                "windows": ["windows/shard0.windows.jsonl",
                            "windows/shard1.windows.jsonl"],
            },
        }), encoding="utf-8")
        # No stitched file; only the shard-0 dump exists on disk.
        assert artifact_paths(str(run_dir), "windows") == [str(dump)]
        assert artifact_paths(str(run_dir), "flights") == []

    def test_resolve_inputs_mixes_runs_and_bare_paths(self, runs, tmp_path):
        bare = tmp_path / "extra.jsonl"
        bare.write_text("", encoding="utf-8")
        run_dir = runs["sharded"]["run_dir"]
        resolved = resolve_inputs([run_dir, str(bare)], "windows")
        assert resolved == [
            os.path.join(run_dir, "windows.stitched.jsonl"), str(bare),
        ]

    def test_load_manifest_rejects_non_runs(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_manifest(str(tmp_path / "missing"))
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"schema": "other/9"}), encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_manifest(str(bad))

    def test_read_health_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "health.jsonl"
        path.write_text(
            '{"partition":0,"epoch":1}\n{"partition":1,"ep', encoding="utf-8"
        )
        assert read_health_jsonl(str(path)) == [{"partition": 0, "epoch": 1}]
        assert read_health_jsonl(str(tmp_path / "missing.jsonl")) == []


class TestHeartbeats:
    def test_frames_cover_every_shard_epoch_pair(self, runs):
        report = runs["sharded"]
        assert report["heartbeat_frames"] == 2 * report["epochs"]
        frames = read_health_jsonl(
            os.path.join(report["run_dir"], "health.jsonl")
        )
        pairs = {(f["partition"], f["epoch"]) for f in frames}
        assert pairs == {
            (p, e) for p in range(2) for e in range(report["epochs"])
        }

    def test_frame_fields(self, runs):
        frames = read_health_jsonl(
            os.path.join(runs["sharded"]["run_dir"], "health.jsonl")
        )
        frame = frames[-1]
        for field in ("partition", "epoch", "watermark_s", "wall_s",
                      "events", "events_per_s", "backlog_events",
                      "backlog_bytes", "barrier_wait_s"):
            assert field in frame, field
        assert frame["watermark_s"] == pytest.approx(DURATION)
        assert frame["events"] > 0

    def test_spawn_heartbeats_interleave_with_boundary_batches(self, tmp_path):
        """Heartbeat frames ride the same out-pipe as the boundary
        batches; the coordinator must record every frame without
        disturbing the lockstep protocol (same digest as inline)."""
        inline = run_share_fabric(2, DURATION, inline=True, **SMALL)
        spawn = run_share_fabric(
            2, DURATION, inline=False, run_dir=str(tmp_path / "run"),
            **SMALL,
        )
        assert spawn["digest"] == inline["digest"]
        frames = read_health_jsonl(str(tmp_path / "run" / "health.jsonl"))
        pairs = {(f["partition"], f["epoch"]) for f in frames}
        assert pairs == {
            (p, e) for p in range(2) for e in range(spawn["epochs"])
        }


class TestFlightStitching:
    def test_stitched_flights_match_serial_run(self, runs):
        journeys = {}
        for name in ("sharded", "serial"):
            journeys[name] = sorted(
                journey_key(f) for f in read_flights_jsonl(
                    runs[name]["flights_stitched_path"]
                )
            )
        assert journeys["sharded"]
        assert journeys["sharded"] == journeys["serial"]

    def test_two_cut_crossing_flow_reassembles_end_to_end(self, runs):
        """A cross-pod flow crosses two cuts (agg->core up, core->agg
        down): its stitched flight must span both (four cut hops) and
        still end delivered at the destination host's queue."""
        stitched = list(read_flights_jsonl(
            runs["sharded"]["flights_stitched_path"]
        ))
        two_cut = [
            f for f in stitched
            if sum(1 for h in f.hops if h.kind == "cut") == 4
            and f.status == "delivered"
        ]
        assert two_cut
        flight = two_cut[0]
        assert flight.hops[0].kind == "host"
        assert flight.t_end > flight.t_start
        corrs = [h.corr for h in flight.hops if h.kind == "cut"]
        # Export/import hop pairs share their correlation key.
        assert corrs[0] == corrs[1] and corrs[2] == corrs[3]

    def test_stitch_requires_input(self):
        with pytest.raises(ConfigurationError):
            stitch_flight_dumps([])

    def test_stitch_rejects_duplicate_correlation_keys(self, runs):
        paths = runs["sharded"]["flight_paths"]
        with pytest.raises(ConfigurationError, match="overlap"):
            stitch_flight_dumps(list(paths) + list(paths))


class TestTimewinBudget:
    def test_budget_spends_on_history_first(self):
        budget = estimate_port_bytes(64, 6)
        params = params_for_budget(budget)
        assert params["slots_log2"] == 6
        assert params["num_windows"] == 64
        assert estimate_port_bytes(
            params["num_windows"], params["slots_log2"]
        ) <= budget

    def test_budget_shrinks_slots_when_tight(self):
        budget = estimate_port_bytes(MIN_NUM_WINDOWS, MIN_SLOTS_LOG2)
        params = params_for_budget(budget)
        assert params["slots_log2"] == MIN_SLOTS_LOG2
        assert params["num_windows"] == MIN_NUM_WINDOWS

    def test_budget_caps_ring_length(self):
        params = params_for_budget(1 << 30)
        assert params["num_windows"] == MAX_NUM_WINDOWS

    def test_infeasible_budget_raises_actionable_error(self):
        with pytest.raises(ConfigurationError, match="no-timewin"):
            params_for_budget(16)

    def test_budget_flows_through_share_fabric(self, runs, tmp_path):
        budget = estimate_port_bytes(8, 6)
        report = run_share_fabric(
            1, DURATION, inline=True, run_dir=str(tmp_path / "run"),
            timewin_budget=budget, heartbeat=False, **SMALL,
        )
        assert report["digest"] == runs["base"]["digest"]
        _, manifest = load_manifest(report["run_dir"])
        obs = manifest["observability"]
        assert obs["timewin_budget_bytes"] == budget
        assert obs["timewin_params"]["num_windows"] == 8
        assert obs["timewin_params"]["slots_log2"] == 6


class TestTolerantWindowLoading:
    def _corrupt_copy(self, src, dest):
        lines = open(src, "r", encoding="utf-8").read().splitlines()
        assert len(lines) >= 3
        lines.insert(1, "{ not json at all")
        lines.insert(3, json.dumps({"type": "window"}))  # missing fields
        lines.append(lines[-1][: len(lines[-1]) // 2])  # torn tail
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def test_strict_load_raises_on_corruption(self, runs, tmp_path):
        src = runs["sharded"]["timewin_paths"][0]
        bad = str(tmp_path / "bad.windows.jsonl")
        self._corrupt_copy(src, bad)
        with pytest.raises(ConfigurationError, match="invalid window record"):
            WindowStore.from_jsonl(bad)

    def test_lenient_load_skips_and_reports(self, runs, tmp_path):
        src = runs["sharded"]["timewin_paths"][0]
        bad = str(tmp_path / "bad.windows.jsonl")
        self._corrupt_copy(src, bad)
        skipped = []
        store = WindowStore.from_jsonl(
            bad, strict=False,
            on_skip=lambda lineno, line, exc: skipped.append(lineno),
        )
        assert len(skipped) == 3
        clean = WindowStore.from_jsonl(src)
        assert store.ports() == clean.ports()

    def test_stitch_passes_skip_semantics_through(self, runs, tmp_path):
        shard0, shard1 = runs["sharded"]["timewin_paths"]
        bad = str(tmp_path / "bad.windows.jsonl")
        self._corrupt_copy(shard0, bad)
        with pytest.raises(ConfigurationError):
            stitch_window_dumps([bad, shard1])
        store = stitch_window_dumps([bad, shard1], strict=False)
        clean = stitch_window_dumps([shard0, shard1])
        assert store.ports() == clean.ports()

    def test_overlap_raises_regardless_of_strictness(self, runs):
        shard0, _ = runs["sharded"]["timewin_paths"]
        with pytest.raises(ConfigurationError, match="not disjoint"):
            stitch_window_dumps([shard0, shard0], strict=False)


class TestMetricsMerge:
    SNAP_A = {
        "counters": [
            {"name": "pkts", "labels": {"port": "a"}, "value": 3.0},
            {"name": "pkts", "labels": {"port": "b"}, "value": 1.0},
        ],
        "gauges": [{"name": "backlog", "labels": {}, "value": 10.0}],
        "histograms": [{
            "name": "delay", "labels": {},
            "value": {"count": 2, "min": 1.0, "max": 3.0, "mean": 2.0,
                      "p50": 2.0, "p95": 3.0, "p99": 3.0},
        }],
    }
    SNAP_B = {
        "counters": [{"name": "pkts", "labels": {"port": "a"}, "value": 5.0}],
        "gauges": [{"name": "backlog", "labels": {}, "value": 7.0}],
        "histograms": [{
            "name": "delay", "labels": {},
            "value": {"count": 6, "min": 0.5, "max": 2.0, "mean": 1.0,
                      "p50": 1.0, "p95": 2.0, "p99": 2.0},
        }],
    }

    def test_counters_and_gauges_sum(self):
        merged = merge_metrics_snapshots([self.SNAP_A, self.SNAP_B])
        counters = {
            (e["name"], e["labels"].get("port")): e["value"]
            for e in merged["counters"]
        }
        assert counters == {("pkts", "a"): 8.0, ("pkts", "b"): 1.0}
        assert merged["gauges"][0]["value"] == 17.0
        assert merged["merged_from"] == 2

    def test_histograms_merge_honestly(self):
        merged = merge_metrics_snapshots([self.SNAP_A, self.SNAP_B])
        (entry,) = merged["histograms"]
        summary = entry["value"]
        assert summary["count"] == 8
        assert summary["min"] == 0.5
        assert summary["max"] == 3.0
        assert summary["mean"] == pytest.approx((2.0 * 2 + 1.0 * 6) / 8)
        # Percentiles are not mergeable from summaries: omitted, never faked.
        assert "p50" not in summary and "p99" not in summary

    def test_fabric_metrics_json_written(self, runs):
        path = os.path.join(runs["sharded"]["run_dir"], "metrics.json")
        with open(path, "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
        assert snapshot["merged_from"] == 2
        assert snapshot["counters"]


class TestCli:
    def test_stitch_accepts_run_directory(self, runs, tmp_path, capsys):
        out = str(tmp_path / "merged.jsonl")
        code = main([
            "telemetry", "stitch", runs["sharded"]["run_dir"], "--out", out,
        ])
        assert code == 0
        assert os.path.isfile(out)
        assert "stitched 1 dump(s)" in capsys.readouterr().out

    def test_stitch_zero_inputs_fails_gracefully(self, runs, capsys):
        """A run that opted out of time windows resolves to zero dumps:
        warning + exit 1, no traceback."""
        code = main([
            "telemetry", "stitch", runs["nowin"]["run_dir"],
            "--out", "/dev/null",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "warning" in err and "no window dumps" in err

    def test_stitch_overlapping_ports_fails_gracefully(self, runs, capsys):
        shard0, _ = runs["sharded"]["timewin_paths"]
        code = main([
            "telemetry", "stitch", shard0, shard0, "--out", "/dev/null",
        ])
        assert code == 1
        assert "stitch failed" in capsys.readouterr().err

    def test_windows_accepts_run_directory(self, runs, capsys):
        assert main([
            "telemetry", "windows", runs["sharded"]["run_dir"],
        ]) == 0
        assert "windows" in capsys.readouterr().out

    def test_flights_accepts_run_directory(self, runs, capsys):
        assert main([
            "telemetry", "flights", runs["sharded"]["run_dir"],
        ]) == 0
        assert "delivered" in capsys.readouterr().out

    def test_flights_run_without_flights_fails_gracefully(self, runs, capsys):
        code = main(["telemetry", "flights", runs["nowin"]["run_dir"]])
        assert code == 1
        assert "no flights" in capsys.readouterr().err

    def test_summarize_accepts_run_directory(self, runs, capsys):
        assert main([
            "telemetry", "summarize", runs["sharded"]["run_dir"],
        ]) == 0
        out = capsys.readouterr().out
        assert "fabric-wide metrics" in out
        assert "[complete]" in out

    def test_fabric_status_renders_health(self, runs, capsys):
        assert main(["fabric-status", runs["sharded"]["run_dir"]]) == 0
        out = capsys.readouterr().out
        assert "[complete]" in out
        assert "watermark" in out

    def test_fabric_status_tolerates_missing_frames(self, runs, capsys):
        assert main(["fabric-status", runs["nowin"]["run_dir"]]) == 0
        assert "no heartbeat frames yet" in capsys.readouterr().out

    def test_fabric_status_rejects_non_run(self, tmp_path, capsys):
        assert main(["fabric-status", str(tmp_path / "nope")]) == 1
        assert "not a run directory" in capsys.readouterr().err

    def test_share_fabric_flights_needs_run_dir(self, capsys):
        code = main([
            "share-fabric", "--shards", "1", "--duration-ms", "1",
            "--inline", "--no-run-dir", "--flights",
        ])
        assert code == 2
        assert "--flights needs a run directory" in capsys.readouterr().err

    def test_share_fabric_writes_ledger(self, tmp_path, capsys, runs):
        run_dir = str(tmp_path / "cli-run")
        code = main([
            "share-fabric", "--shards", "1", "--duration-ms", "1",
            "--inline", "--pods", "2", "--tors-per-pod", "1",
            "--run-dir", run_dir,
        ])
        assert code == 0
        _, manifest = load_manifest(run_dir)
        assert manifest["status"] == "complete"
        assert "run ledger" in capsys.readouterr().out

    def test_share_fabric_no_run_dir_keeps_old_behaviour(self, capsys):
        code = main([
            "share-fabric", "--shards", "1", "--duration-ms", "1",
            "--inline", "--pods", "2", "--tors-per-pod", "1",
            "--no-run-dir",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "run ledger" not in out
        assert "per-shard windows" not in out
