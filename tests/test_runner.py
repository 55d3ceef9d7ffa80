"""Tests for the parallel experiment runner (repro.harness.runner)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.harness.runner import (
    JobResult,
    JobSpec,
    deterministic_result,
    flight_file_for,
    read_results_jsonl,
    resolve_target,
    results_digest,
    run_jobs,
    write_results_jsonl,
)

JOBS = "repro.harness._testjobs"


def spec(name, func, timeout_s=60.0, **kwargs):
    return JobSpec(name=name, target=f"{JOBS}:{func}", kwargs=kwargs, timeout_s=timeout_s)


class TestResolveTarget:
    def test_resolves_module_function(self):
        fn = resolve_target(f"{JOBS}:job_echo")
        assert fn(value=2.0) == {"value": 2.0}

    def test_rejects_malformed_target(self):
        with pytest.raises(ConfigurationError):
            resolve_target("no-colon-here")

    def test_rejects_missing_function(self):
        with pytest.raises(ConfigurationError):
            resolve_target(f"{JOBS}:job_nonexistent")


class TestRunJobs:
    def test_single_job_succeeds(self):
        results = run_jobs([spec("a", "job_echo", value=3.0)])
        assert len(results) == 1
        assert results[0].ok
        assert results[0].result == {"value": 3.0}
        assert results[0].attempts == 1

    def test_results_come_back_in_spec_order(self):
        # Job "slow" is launched first but finishes last.
        specs = [
            spec("slow", "job_sleep", seconds=0.4),
            spec("fast1", "job_echo", value=1.0),
            spec("fast2", "job_echo", value=2.0),
        ]
        results = run_jobs(specs, jobs=3)
        assert [r.name for r in results] == ["slow", "fast1", "fast2"]
        assert all(r.ok for r in results)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            run_jobs([spec("x", "job_echo"), spec("x", "job_echo")])

    def test_zero_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_jobs([spec("x", "job_echo")], jobs=0)

    def test_failure_carries_traceback_and_is_not_retried(self):
        results = run_jobs([spec("bad", "job_fail", message="kaboom")])
        (result,) = results
        assert result.status == "failed"
        assert result.attempts == 1  # deterministic exception: no retry
        assert "kaboom" in result.error
        assert "ValueError" in result.error

    def test_timeout_kills_the_job(self):
        results = run_jobs(
            [spec("hang", "job_sleep", timeout_s=1.0, seconds=60.0)]
        )
        (result,) = results
        assert result.status == "timeout"
        assert "timed out" in result.error

    def test_crash_is_retried_once_and_recovers(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        results = run_jobs([spec("flaky", "job_crash_once", sentinel=sentinel)])
        (result,) = results
        assert result.ok
        assert result.attempts == 2
        assert result.result == {"recovered": True}

    def test_persistent_crash_fails_after_retry(self):
        results = run_jobs([spec("dead", "job_crash_always")])
        (result,) = results
        assert result.status == "failed"
        assert result.attempts == 2
        assert "crashed" in result.error

    def test_failures_do_not_block_other_jobs(self):
        specs = [
            spec("ok1", "job_echo", value=1.0),
            spec("bad", "job_fail"),
            spec("ok2", "job_echo", value=2.0),
        ]
        results = run_jobs(specs, jobs=2)
        by_name = {r.name: r for r in results}
        assert by_name["ok1"].ok and by_name["ok2"].ok
        assert by_name["bad"].status == "failed"

    def test_on_result_sees_every_outcome(self):
        seen = []
        run_jobs(
            [spec("a", "job_echo"), spec("b", "job_fail")],
            jobs=2,
            on_result=seen.append,
        )
        assert sorted(r.name for r in seen) == ["a", "b"]


class TestSpawnSafety:
    def test_run_jobs_works_when_main_is_stdin(self):
        # Spawn workers replay the parent's __main__ by path; a stdin
        # script's path is "<stdin>", which used to crash every worker.
        import os
        import subprocess
        import sys

        script = (
            "from repro.harness.runner import JobSpec, run_jobs\n"
            "spec = JobSpec(name='x', "
            "target='repro.harness._testjobs:job_echo', "
            "kwargs={'value': 7.0})\n"
            "(result,) = run_jobs([spec])\n"
            "assert result.ok and result.result == {'value': 7.0}, result\n"
            "print('STDIN-MAIN-OK')\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-"], input=script, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "STDIN-MAIN-OK" in proc.stdout


class TestDeterminism:
    def test_scenario_results_identical_across_parallelism(self):
        specs = [
            spec("tiny/seed1", "job_tiny_scenario", timeout_s=300.0, seed=1),
            spec("tiny/seed2", "job_tiny_scenario", timeout_s=300.0, seed=2),
        ]
        serial = run_jobs(specs, jobs=1)
        fanned = run_jobs(specs, jobs=2)
        assert all(r.ok for r in serial + fanned)
        for a, b in zip(serial, fanned):
            assert a.result == b.result
        assert results_digest(serial) == results_digest(fanned)

    def test_digest_ignores_timing_but_not_payload(self):
        base = JobResult(name="x", status="ok", attempts=1, wall_s=1.0,
                         result={"metric": 5, "timing": {"wall_s": 1.0}})
        same_slower = JobResult(name="x", status="ok", attempts=2, wall_s=9.0,
                                result={"metric": 5, "timing": {"wall_s": 9.0}})
        different = JobResult(name="x", status="ok", attempts=1, wall_s=1.0,
                              result={"metric": 6, "timing": {"wall_s": 1.0}})
        assert results_digest([base]) == results_digest([same_slower])
        assert results_digest([base]) != results_digest([different])

    def test_deterministic_result_strips_timing_only(self):
        assert deterministic_result({"a": 1, "timing": {"w": 2}}) == {"a": 1}
        assert deterministic_result(None) is None


class TestJsonlRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        results = [
            JobResult(name="a", status="ok", attempts=1, wall_s=0.5,
                      result={"x": 1.5}),
            JobResult(name="b", status="failed", attempts=2, wall_s=0.1,
                      error="Traceback ..."),
            JobResult(name="c", status="ok", attempts=1, wall_s=0.2,
                      result={"y": 2}, profile={"events": 10}),
        ]
        write_results_jsonl(results, path)
        loaded = read_results_jsonl(path)
        assert loaded == results
        assert results_digest(loaded) == results_digest(results)

    def test_lines_are_valid_sorted_json(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        write_results_jsonl(
            [JobResult(name="a", status="ok", attempts=1, wall_s=0.5,
                       result={"b": 1, "a": 2})],
            path,
        )
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        assert len(lines) == 1
        assert lines[0]["name"] == "a"

    def test_round_trip_preserves_audit_verdict(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        results = [JobResult(
            name="a", status="ok", attempts=1, wall_s=0.5, result={"x": 1},
            audit={"events_seen": 42, "violation_count": 0, "violations": []},
        )]
        write_results_jsonl(results, path)
        loaded = read_results_jsonl(path)
        assert loaded == results
        assert loaded[0].audit["events_seen"] == 42


class TestAuditedJobs:
    def test_audited_run_carries_clean_verdict_and_flight_files(self, tmp_path):
        flight_dir = str(tmp_path / "flights")
        specs = [spec("tiny/a-b", "job_tiny_scenario", timeout_s=300.0, seed=1)]
        results = run_jobs(specs, audit=True, flight_dir=flight_dir)
        assert results[0].ok
        verdict = results[0].audit
        assert verdict is not None
        assert verdict["violation_count"] == 0
        assert verdict["violations"] == []
        assert verdict["events_seen"] > 1000
        flight_path = flight_file_for(flight_dir, "tiny/a-b")
        assert flight_path.endswith("tiny_a-b.flights.jsonl")
        with open(flight_path, encoding="utf-8") as fh:
            flights = [json.loads(line) for line in fh]
        assert flights and all("status" in f for f in flights)

    def test_audit_is_digest_neutral(self):
        specs = [spec("tiny", "job_tiny_scenario", timeout_s=300.0, seed=1)]
        plain = run_jobs(specs)
        audited = run_jobs(specs, audit=True)
        assert plain[0].audit is None and audited[0].audit is not None
        assert results_digest(plain) == results_digest(audited)


class TestRegistry:
    def test_default_jobs_unique_and_spawnable(self):
        from repro.harness.jobs import default_jobs

        specs = default_jobs()
        names = [s.name for s in specs]
        assert len(set(names)) == len(names)
        for group in ("fig1/", "fig6/", "fig7/", "fig8/", "fig9/", "fig10/",
                      "table2/", "table3/", "table4/", "fluid/"):
            assert any(name.startswith(group) for name in names)
        for s in specs:
            resolve_target(s.target)  # importable
            json.dumps(dict(s.kwargs))  # JSON-safe kwargs

    def test_filter_jobs_matches_any_pattern(self):
        from repro.harness.jobs import default_jobs, filter_jobs

        specs = default_jobs()
        assert filter_jobs(specs, None) == list(specs)
        fluid = filter_jobs(specs, ["fluid/"])
        assert fluid and all("fluid/" in s.name for s in fluid)
        both = filter_jobs(specs, ["fluid/", "fig9/"])
        assert len(both) == len(fluid) + 2
