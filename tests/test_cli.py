"""Tests for the command-line interface (fast subcommands only)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_every_subcommand_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        commands = set(sub.choices)
        for expected in (
            "fig1", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10",
            "table2", "table3", "table4", "fig11", "fig12", "share",
        ):
            assert expected in commands

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_approach(self):
        with pytest.raises(SystemExit):
            main(["share", "--approach", "magic"])


class TestFastCommands:
    def test_fig3_runs(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "strawman" in out and "A-Gap" in out

    def test_fig11_runs(self, capsys):
        assert main(["fig11"]) == 0
        assert "pipeline stages" in capsys.readouterr().out

    def test_fig12_runs(self, capsys):
        assert main(["fig12"]) == 0
        out = capsys.readouterr().out
        assert "1,000,000" in out

    def test_share_runs_small(self, capsys):
        code = main([
            "share", "--ccs", "cubic", "udp",
            "--bottleneck-gbps", "0.5", "--duration-ms", "20",
            "--flows", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "utilization" in out

    def test_fig8_runs_small(self, capsys):
        """Off the scale of record the command prints the table only: the
        claim thresholds were calibrated at the scale of record."""
        code = main(["fig8", "--bottleneck-gbps", "0.5", "--duration-ms", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PQ" in out and "AQ" in out
        assert "claims not evaluated" in out
        assert "[holds]" not in out and "[FAILS]" not in out


class TestRunAllOverrides:
    def test_timeout_override_keeps_every_other_spec_field(self, monkeypatch):
        """``--timeout`` replaces ``timeout_s`` and leaves every other
        ``JobSpec`` field equal (it used to rebuild each spec field by
        field, silently dropping whatever field was added last)."""
        import dataclasses

        from repro.harness import runner
        from repro.harness.jobs import default_jobs, filter_jobs

        launched = []

        def fake_run_jobs(specs, **kwargs):
            launched.extend(specs)
            return [
                runner.JobResult(name=s.name, status="ok", attempts=1,
                                 wall_s=0.0, result={})
                for s in specs
            ]

        monkeypatch.setattr(runner, "run_jobs", fake_run_jobs)
        # A check family: the faked empty results carry no figure claims.
        assert main(["run-all", "--filter", "faults/blackout", "--timeout", "200"]) == 0
        registered = filter_jobs(default_jobs(), ["faults/blackout"])
        assert [s.name for s in launched] == [s.name for s in registered]
        for spec, original in zip(launched, registered):
            assert original.timeout_s != 200.0
            for f in dataclasses.fields(runner.JobSpec):
                expected = 200.0 if f.name == "timeout_s" else getattr(original, f.name)
                assert getattr(spec, f.name) == expected


class TestTelemetryFlags:
    def test_audit_of_a_multi_run_command_is_clean(self, capsys):
        """Every figure/table command builds several networks under one
        ``--audit`` session; queue names and AQ ids repeat across them,
        which used to read as dozens of false violations (exit 1)."""
        code = main([
            "table2", "--audit", "--duration-ms", "20", "--bottleneck-gbps", "1",
        ])
        assert code == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_metrics_summary_alone_prints_the_registry(self, capsys):
        """``--metrics-summary`` with no other telemetry flag used to die on
        an assertion: nothing asked the session for a live registry."""
        code = main([
            "share", "--ccs", "cubic", "udp", "--bottleneck-gbps", "0.5",
            "--duration-ms", "5", "--flows", "1", "--metrics-summary",
        ])
        assert code == 0
        assert "link_delivered_packets" in capsys.readouterr().out
