"""One session per run: every driver builds its telemetry through
``telemetry_session`` and ships ``Telemetry.report()``, and both fabric
drivers run their partitions as ``PartitionSession``s.

What is pinned here is that the drivers cannot drift apart again: an
inline and a spawned fabric run must produce the same digest *and* the
same per-worker reports (key for key, value for value outside wall-clock
fields), in the drivers' ``ShardRunReport`` and in the run ledger's
manifest; a ``run-all`` worker must ship the verdict an in-process
session reports for the same job.
"""

import os

import pytest

from repro.errors import ShardError
from repro.harness import fabric
from repro.harness._testjobs import job_tiny_scenario
from repro.harness.common import telemetry_session
from repro.harness.runner import JobSpec, flight_file_for, run_jobs, window_file_for
from repro.obs import Telemetry, TraceEvent
from repro.obs.events import EV_ENQUEUE
from repro.obs.runledger import load_manifest
from repro.sim.shard import PartitionSession, partition_payloads

TOPO = dict(pods=4, tors_per_pod=1, hosts_per_tor=2, num_cores=2)
TRAFFIC = {
    "udp": dict(TOPO, traffic="udp"),
    "mixed": dict(TOPO, traffic="mixed", num_tenants=2, churn=True),
}
DURATION = 0.5e-3
WALL_CLOCK_KEYS = {"wall_s", "created_unix"}


def comparable(value):
    """``value`` minus wall-clock fields, artifact paths reduced to their
    file names (the two runs write into different directories)."""
    if isinstance(value, dict):
        return {
            key: os.path.basename(item) if key.endswith("_path") else comparable(item)
            for key, item in value.items()
            if key not in WALL_CLOCK_KEYS
        }
    if isinstance(value, list):
        return [comparable(item) for item in value]
    return value


@pytest.fixture(scope="module", params=sorted(TRAFFIC))
def both_drivers(request, tmp_path_factory):
    """The same scenario through ``run_inline`` and ``run_sharded`` with
    audit + windows + flights on; each driver's ``ShardRunReport`` is
    captured on its way into ``run_share_fabric``."""
    tmp = tmp_path_factory.mktemp(f"sessions-{request.param}")
    out = {}
    patch = pytest.MonkeyPatch()
    try:
        for mode, driver in (("inline", "run_inline"), ("spawn", "run_sharded")):
            original = getattr(fabric, driver)
            captured = []

            def recording(*args, _original=original, _captured=captured, **kwargs):
                _captured.append(_original(*args, **kwargs))
                return _captured[-1]

            patch.setattr(fabric, driver, recording)
            run_dir = str(tmp / mode)
            report = fabric.run_share_fabric(
                2, DURATION, inline=(mode == "inline"), audit=True,
                run_dir=run_dir, flight_dir=os.path.join(run_dir, "flights"),
                **TRAFFIC[request.param],
            )
            (run,) = captured
            out[mode] = {
                "report": report,
                "run": run,
                "manifest": load_manifest(run_dir)[1],
            }
    finally:
        patch.undo()
    return out


class TestInlineAndSpawnAgree:
    def test_same_digest_and_clean_audit(self, both_drivers):
        inline, spawn = both_drivers["inline"], both_drivers["spawn"]
        assert inline["report"]["digest"] == spawn["report"]["digest"]
        for side in (inline, spawn):
            assert side["report"]["audit"]["violation_count"] == 0
        assert (inline["report"]["audit"]["events_seen"]
                == spawn["report"]["audit"]["events_seen"] > 0)

    def test_worker_reports_have_the_same_keys(self, both_drivers):
        inline = both_drivers["inline"]["run"].workers
        spawn = both_drivers["spawn"]["run"].workers
        assert [sorted(w) for w in inline] == [sorted(w) for w in spawn]
        # The full plane is on, so every recorder's key must be there.
        assert set(inline[0]) >= {
            "partition", "status", "result", "wall_s", "events",
            "exported_packets", "imported_packets", "audit", "timewin",
            "timewin_path", "flights", "flight_path", "metrics",
        }

    def test_worker_reports_agree_outside_wall_clock(self, both_drivers):
        assert (comparable(both_drivers["inline"]["run"].workers)
                == comparable(both_drivers["spawn"]["run"].workers))

    def test_manifest_worker_index_agrees(self, both_drivers):
        inline = both_drivers["inline"]["manifest"]["workers"]
        spawn = both_drivers["spawn"]["manifest"]["workers"]
        assert [sorted(w) for w in inline] == [sorted(w) for w in spawn]
        assert all("wall_s" in w and w["wall_s"] > 0 for w in inline + spawn)
        assert comparable(inline) == comparable(spawn)

    def test_reports_agree_outside_wall_clock_and_mode(self, both_drivers):
        def strip(report):
            skip = {"mode", "run_dir", "manifest_path", "timewin_paths",
                    "flight_paths", "timewin_merged_path"}
            return comparable({k: v for k, v in report.items() if k not in skip})

        assert (strip(both_drivers["inline"]["report"])
                == strip(both_drivers["spawn"]["report"]))

    def test_every_worker_dumped_its_own_artifacts(self, both_drivers):
        for side in both_drivers.values():
            for worker in side["run"].workers:
                assert os.path.getsize(worker["timewin_path"]) > 0
                assert os.path.getsize(worker["flight_path"]) > 0


class TestPartitionSession:
    def test_plain_session_reports_counters_only(self):
        (payload,) = partition_payloads(
            fabric.BUILDER_TARGET, TRAFFIC["udp"], 1, DURATION,
            fabric.FatTreePlan(fabric.fabric_config(**TOPO), 1).lookahead,
        )
        with PartitionSession(payload) as session:
            assert session.telemetry is None
            session.runtime.run_epoch(DURATION)
            report = session.report()
        assert sorted(report) == [
            "events", "exported_packets", "imported_packets", "partition",
            "result", "status", "wall_s",
        ]
        assert report["events"] > 0

    def test_lookahead_disagreement_is_an_error(self):
        (payload,) = partition_payloads(
            fabric.BUILDER_TARGET, TRAFFIC["udp"], 1, DURATION, lookahead=1.0,
        )
        with pytest.raises(ShardError, match="disagrees with coordinator"):
            PartitionSession(payload).__enter__()

    def test_spawn_hard_exit_leaves_failed_manifest(self, tmp_path):
        run_dir = str(tmp_path / "hard-exit")
        with pytest.raises(ShardError, match="died"):
            fabric.run_share_fabric(
                2, 1e-3, run_dir=run_dir, fail_at_s=0.5e-3, fail_partition=1,
                fail_hard=True, **TOPO,
            )
        manifest = load_manifest(run_dir)[1]
        assert manifest["status"] == "failed"
        assert "Traceback" in manifest["error"]["traceback"]
        failed = [w for w in manifest["workers"] if w["status"] == "failed"]
        assert [w["partition"] for w in failed] == [1]
        assert "worker process died" in failed[0]["error"]


class TestTelemetryReport:
    def test_ships_twenty_of_twenty_five_violations(self):
        tele = Telemetry(enabled=True)
        tele.enable_audit()
        for n in range(25):  # 1000 B enqueued, occupancy reported as 999 B
            tele.trace.emit(TraceEvent(
                EV_ENQUEUE, 1e-3 * n, node=f"q{n}", size=1000, value=999.0,
            ))
        verdict = tele.report()["audit"]
        assert verdict["violation_count"] == 25
        assert len(verdict["violations"]) == 20
        assert verdict["events_seen"] == 25
        assert "flows" not in verdict  # the ledgers stay behind

    def test_keys_only_for_installed_recorders(self):
        assert sorted(Telemetry(enabled=True).report()) == ["metrics"]
        tele = Telemetry(enabled=True, profile=True)
        tele.enable_time_windows()
        assert sorted(tele.report()) == ["metrics", "profile", "timewin"]
        tele = Telemetry(enabled=True)
        tele.enable_flight_recording()
        tele.enable_audit()
        assert sorted(tele.report()) == ["audit", "flights", "metrics"]

    def test_session_accepts_the_ring_geometry(self):
        with telemetry_session(
            timewin=True, timewin_window_s=2e-3, timewin_num_windows=8,
            timewin_slots_log2=4,
        ) as tele:
            pass
        stats = tele.report()["timewin"]
        assert (stats["window_s"], stats["num_windows"], stats["slots"]) == (2e-3, 8, 16)

    def test_metrics_alone_is_a_session(self):
        with telemetry_session() as tele:
            assert tele is None
        with telemetry_session(metrics=True) as tele:
            assert tele.enabled and not tele.trace.has_sinks


class TestRunAllWorkerShipsTheSessionVerdict:
    def test_worker_verdict_equals_in_process_report(self, tmp_path):
        (result,) = run_jobs(
            [JobSpec(name="tiny/session",
                     target="repro.harness._testjobs:job_tiny_scenario")],
            audit=True,
            flight_dir=str(tmp_path / "flights"),
            timewin_dir=str(tmp_path / "windows"),
        )
        assert result.ok, result.error
        with telemetry_session(
            audit=True,
            flight_path=str(tmp_path / "local.flights.jsonl"),
            timewin_path=str(tmp_path / "local.windows.jsonl"),
        ) as tele:
            local = job_tiny_scenario()
        verdict = tele.report()
        assert result.result == local
        assert result.audit == verdict["audit"]
        assert result.audit["events_seen"] > 0
        assert result.timewin == verdict["timewin"]
        # The window dump is the same file, byte for byte (flight files are
        # not comparable: packet ids come from a per-process counter).
        theirs = window_file_for(str(tmp_path / "windows"), "tiny/session")
        with open(tmp_path / "local.windows.jsonl", "rb") as a, open(theirs, "rb") as b:
            assert a.read() == b.read()
        assert os.path.getsize(
            flight_file_for(str(tmp_path / "flights"), "tiny/session")
        ) > 0
