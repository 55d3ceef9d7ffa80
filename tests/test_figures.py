"""The FIGURES table and its three consumers (tier-1: no wall clocks).

``tests/data/figure_results.jsonl`` holds the result line (name + result,
as ``repro run-all --out`` writes them) of every figure cell at the scale
of record, so renderers and claims are exercised on JSON-loaded results
without re-simulating 125 cells. ``TestRecordedResults`` re-runs the
cheap figures against it, so a change that moves results shows up here;
regenerate it then (and state the new ``results_digest``)::

    python -m repro run-all --jobs 4 --out /tmp/results.jsonl
    python - <<'EOF'
    import json
    from repro.harness.figures import FIGURES
    lines = {r["name"]: r for r in map(json.loads, open("/tmp/results.jsonl"))}
    with open("tests/data/figure_results.jsonl", "w") as fh:
        for figure in FIGURES:
            for cell in figure.cells(figure.record):
                fh.write(json.dumps({"name": cell.name,
                                     "result": lines[cell.name]["result"]},
                                    sort_keys=True) + "\\n")
    EOF
"""

import argparse
import inspect
import json
import pathlib

import pytest

from repro.cli import build_parser, cmd_figure, main
from repro.harness import figures, runner
from repro.harness.figures import FIGURES, Claim, Figure, Scale, job_spec
from repro.harness.jobs import default_jobs

RECORDED = pathlib.Path(__file__).parent / "data" / "figure_results.jsonl"

#: ``default_jobs()`` at the parent of the PR that introduced the table.
PARENT_JOBS = """
fig1/pq/10cubic+10newreno fig1/pq/10cubic+10dctcp fig1/pq/10newreno+10dctcp
fig1/pq/10cubic+10swift fig1/pq/10dctcp+10swift fig1/pq/10newreno+10swift
fig6/pq/1vms fig6/pq/2vms fig6/pq/4vms fig6/pq/8vms fig6/aq/1vms
fig6/aq/2vms fig6/aq/4vms fig6/aq/8vms fig6/prl/1vms fig6/prl/2vms
fig6/prl/4vms fig6/prl/8vms fig6/drl/1vms fig6/drl/2vms fig6/drl/4vms
fig6/drl/8vms fig7/pq/1vms fig7/pq/2vms fig7/pq/4vms fig7/pq/8vms
fig7/aq/1vms fig7/aq/2vms fig7/aq/4vms fig7/aq/8vms fig7/prl/1vms
fig7/prl/2vms fig7/prl/4vms fig7/prl/8vms fig7/drl/1vms fig7/drl/2vms
fig7/drl/4vms fig7/drl/8vms fig8/pq/1flows fig8/aq/1flows fig8/pq/4flows
fig8/aq/4flows fig8/pq/16flows fig8/aq/16flows fig8/pq/64flows
fig8/aq/64flows fig8/aq-1to2/16flows fig9/pq/timeline fig9/aq/timeline
fig10/pq/cubic+dctcp fig10/aq/cubic+dctcp fig10/prl/cubic+dctcp
fig10/drl/cubic+dctcp fig10/pq/newreno+dctcp fig10/aq/newreno+dctcp
fig10/prl/newreno+dctcp fig10/drl/newreno+dctcp fig10/pq/cubic+swift
fig10/aq/cubic+swift fig10/prl/cubic+swift fig10/drl/cubic+swift
table2/pq/5cubic+5cubic table2/aq/5cubic+5cubic table2/pq/5cubic+5dctcp
table2/aq/5cubic+5dctcp table2/pq/5newreno+5dctcp table2/aq/5newreno+5dctcp
table2/pq/5illinois+5dctcp table2/aq/5illinois+5dctcp
table2/pq/5cubic+5swift table2/aq/5cubic+5swift table2/pq/5dctcp+5swift
table2/aq/5dctcp+5swift table2/pq/10dctcp+5newreno
table2/aq/10dctcp+5newreno table2/pq/10dctcp+5swift table2/aq/10dctcp+5swift
table3/pq/profile table3/prl/profile table3/drl/profile table3/aq/profile
table4/pq/cubic table4/aq/cubic table4/pq/newreno table4/aq/newreno
table4/pq/dctcp table4/aq/dctcp faults/restart/pq faults/restart/aq
faults/restart/aq-late faults/blackout/5ms faults/blackout/15ms
timewin/validate/cc-pair timewin/validate/udp-tcp timewin/validate/weighted
fluid/equiv/udp-basic fluid/equiv/aq-limit fluid/equiv/prl-shaper
fluid/equiv/staggered shard/equiv/local-2 shard/equiv/cross-4
shard/equiv/blackout-2 shard/obs/neutral-2 fabric/mixed/equiv-2
fabric/mixed/churn-4
""".split()

#: The cells that PR added (the same list is in CHANGES.md).
ADDED_JOBS = """
table2/pq/1udp+3x3tcp table2/aq/1udp+3x3tcp fig3 fig11 fig12
ablation/limits/4pkts ablation/limits/8pkts ablation/limits/16pkts
ablation/limits/32pkts ablation/limits/64pkts ablation/limits/128pkts
ablation/limits/200pkts ablation/workconserve/strict-idle
ablation/workconserve/strict-busy ablation/workconserve/gated-idle
ablation/workconserve/gated-busy ablation/realloc/2ms ablation/realloc/5ms
ablation/realloc/10ms ablation/realloc/20ms related/perflow/pfq
related/perflow/aq related/perflow/state ext/leafspine/pq ext/leafspine/aq
ext/fct/pq ext/fct/aq ext/multiqueue/multiqueue ext/multiqueue/aq
ext/cc/pq/5timely+5dctcp ext/cc/aq/5timely+5dctcp ext/cc/pq/5bbr+5dctcp
ext/cc/aq/5bbr+5dctcp ext/cc/pq/5timely+5cubic ext/cc/aq/5timely+5cubic
ext/incast/baseline ext/incast/pq ext/incast/aq
""".split()


def cells_of(figure):
    return figure.cells(figure.record)


def by_id(figure):
    return figure.name


@pytest.fixture(scope="module")
def recorded():
    with open(RECORDED, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    return {line["name"]: line["result"] for line in lines}


class TestTable:
    def test_cells_unique_spawn_importable_json_safe(self):
        names = [cell.name for figure in FIGURES for cell in cells_of(figure)]
        assert len(set(names)) == len(names)
        for figure in FIGURES:
            for cell in cells_of(figure):
                assert cell.name == figure.name or cell.name.startswith(
                    figure.name + "/"
                ), f"{cell.name} is not under {figure.name}"
                runner.resolve_target(cell.target)
                assert json.loads(json.dumps(dict(cell.kwargs))) == dict(cell.kwargs)
        # ...and every registered spec *binds*: a renamed scenario parameter
        # fails here in milliseconds, not inside a spawn worker mid-sweep.
        for spec in default_jobs():
            assert json.loads(json.dumps(dict(spec.kwargs))) == dict(spec.kwargs), spec.name
            target = runner.resolve_target(spec.target)
            try:
                inspect.signature(target).bind(**spec.kwargs)
            except TypeError as exc:
                pytest.fail(f"{spec.name} -> {spec.target}: {exc}")

    def test_cells_target_the_function_that_runs_them(self):
        """No adapter layer: only the analytic cells (no scenario behind
        them) live in the registry module."""
        in_jobs = {
            cell.name for figure in FIGURES for cell in cells_of(figure)
            if cell.target.startswith("repro.harness.jobs:")
        }
        assert in_jobs == {"fig3", "fig11", "fig12", "related/perflow/state"}
        for spec in default_jobs():
            if spec.name.startswith("faults/"):
                assert spec.target.startswith("repro.harness.scenarios:"), spec.name

    @pytest.mark.parametrize("figure", FIGURES, ids=by_id)
    def test_claims_need_only_cells_of_their_figure(self, figure):
        names = {cell.name for cell in cells_of(figure)}
        assert figure.claims
        for claim in figure.claims:
            assert claim.needs and set(claim.needs) <= names, claim.text

    def test_a_claim_sees_only_the_cells_it_declares(self):
        claim = Claim("reads beyond its needs", ["a"], lambda c: c["b"]["x"] > 0)
        with pytest.raises(KeyError):
            claim.verdict({"a": {"x": 1}, "b": {"x": 1}})

    def test_registry_is_the_parent_jobs_plus_the_added_cells(self):
        names = [spec.name for spec in default_jobs()]
        assert len(PARENT_JOBS) == 105 and len(ADDED_JOBS) == 38
        assert sorted(names) == sorted(PARENT_JOBS + ADDED_JOBS)
        figure_cells = [cell.name for figure in FIGURES for cell in cells_of(figure)]
        assert names[:len(figure_cells)] == figure_cells
        assert len(names) - len(figure_cells) == 18  # the self-asserting checks

    def test_duration_scales_every_recorded_time_and_is_exact_at_record(self):
        fig8 = next(figure for figure in FIGURES if figure.name == "fig8")
        (at_record,) = [c for c in cells_of(fig8) if c.name == "fig8/aq/64flows"]
        assert (at_record.kwargs["duration"], at_record.kwargs["warmup"]) == (80e-3, 30e-3)
        halved = fig8.cells(Scale(bottleneck_gbps=0.5, duration_ms=40.0, seed=7))
        (cell,) = [c for c in halved if c.name == "fig8/aq/64flows"]
        assert cell.kwargs["duration"] == pytest.approx(40e-3)
        assert cell.kwargs["warmup"] == pytest.approx(15e-3)
        assert cell.kwargs["bottleneck_bps"] == 0.5e9 and cell.kwargs["seed"] == 7


class TestRecordedResults:
    def test_recording_covers_exactly_the_figure_cells(self, recorded):
        assert list(recorded) == [
            cell.name for figure in FIGURES for cell in cells_of(figure)
        ]

    @pytest.mark.parametrize("figure", FIGURES, ids=by_id)
    def test_render_accepts_json_round_tripped_results(self, figure, recorded):
        results = json.loads(json.dumps(recorded))
        table = figure.render(results, figure.record)
        assert len(table.splitlines()) >= 3  # header, rule, at least one row

    @pytest.mark.parametrize("figure", FIGURES, ids=by_id)
    def test_every_claim_holds_on_the_results_of_record(self, figure, recorded):
        for _, claim, holds in figures.check_claims([figure], recorded):
            assert holds is True, claim.text

    @pytest.mark.parametrize("name", [
        "fig3", "fig11", "fig12",  # analytic
        "related/perflow", "ext/leafspine", "ext/fct", "ext/multiqueue",  # < 1 s
    ])
    def test_cheap_figures_run_fully_and_reproduce_the_recording(
        self, name, recorded
    ):
        figure = next(figure for figure in FIGURES if figure.name == name)
        results = figures.run_figure(figure)
        assert json.loads(json.dumps(results)) == {
            cell.name: recorded[cell.name] for cell in cells_of(figure)
        }
        assert figure.render(results, figure.record)
        verdicts = [holds for _, _, holds in figures.check_claims([figure], results)]
        assert verdicts and all(holds is True for holds in verdicts)


class TestFigure8PhaseLock:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_aq_64_flow_split_holds_at_every_start_phase(self, seed, recorded):
        """With every flow starting at exactly t = 0 this ratio was 0.40 —
        a phase lock on one alignment; drawn start times give 0.88-0.90."""
        fig8 = next(figure for figure in FIGURES if figure.name == "fig8")
        (cell,) = [
            c for c in fig8.cells(Scale(bottleneck_gbps=2.0, duration_ms=80.0, seed=seed))
            if c.name == "fig8/aq/64flows"
        ]
        result = runner.resolve_target(cell.target)(**cell.kwargs)
        assert result["ratio"] > 0.8
        if seed == fig8.record.seed:
            assert result == recorded[cell.name]


def fake_figure():
    echo = "repro.harness._testjobs:job_echo"

    def cells(scale):
        return [job_spec("fake/one", echo, value=1.0),
                job_spec("fake/two", echo, value=2.0)]

    both = ["fake/one", "fake/two"]
    return Figure(
        "fake", "a figure built on job_echo", Scale(), cells,
        lambda results, scale: "\n".join(sorted(results)),
        (
            Claim("one is one", ["fake/one"], lambda c: c["fake/one"]["value"] == 1.0),
            Claim("one is below two", both,
                  lambda c: c["fake/one"]["value"] < c["fake/two"]["value"]),
            Claim("two is below one", both,
                  lambda c: c["fake/two"]["value"] < c["fake/one"]["value"]),
        ),
    )


@pytest.fixture
def only_the_fake_figure(monkeypatch):
    """run-all sees one figure, and runs its cells in this process."""
    monkeypatch.setattr(figures, "FIGURES", (fake_figure(),))

    def run_in_process(specs, on_result=None, **kwargs):
        return [
            runner.JobResult(
                name=spec.name, status="ok", attempts=1, wall_s=0.0,
                result=runner.resolve_target(spec.target)(**spec.kwargs),
            )
            for spec in specs
        ]

    monkeypatch.setattr(runner, "run_jobs", run_in_process)


class TestRunAllClaims:
    def test_failed_claim_exits_1_and_is_named(self, only_the_fake_figure, capsys):
        assert main(["run-all", "--filter", "fake/"]) == 1
        captured = capsys.readouterr()
        assert "claims: 2/3 hold" in captured.out
        assert "claim FAILED: fake: two is below one" in captured.err
        assert "one is below two" not in captured.err

    def test_claim_whose_cells_were_filtered_out_is_skipped(
        self, only_the_fake_figure, capsys
    ):
        assert main(["run-all", "--filter", "fake/one"]) == 0
        captured = capsys.readouterr()
        assert "claims: 1/1 hold (2 skipped" in captured.out
        assert "FAILED" not in captured.err

    def test_claims_are_computed_from_the_lines_not_written_into_them(
        self, only_the_fake_figure, tmp_path
    ):
        out = tmp_path / "results.jsonl"
        main(["run-all", "--filter", "fake/", "--out", str(out)])
        for line in map(json.loads, out.read_text().splitlines()):
            assert line["result"] == {"value": float(line["name"] == "fake/two") + 1.0}
            assert "claim" not in json.dumps(line)


class TestCommand:
    @pytest.mark.parametrize("figure", FIGURES, ids=by_id)
    def test_registers_exactly_the_scale_flags_its_grid_consumes(self, figure):
        (subparsers,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        parser = subparsers.choices[figure.name]
        flags = {s for action in parser._actions for s in action.option_strings}
        for flag, value in (
            ("--bottleneck-gbps", figure.record.bottleneck_gbps),
            ("--duration-ms", figure.record.duration_ms),
            ("--seed", figure.record.seed),
        ):
            assert (flag in flags) == (value is not None), flag
        args = parser.parse_args([])
        defaults = Scale(**{
            field: getattr(args, field, None)
            for field in ("bottleneck_gbps", "duration_ms", "seed")
        })
        assert defaults == figure.record  # bare command = the scale of record

    def test_flag_the_grid_ignores_is_rejected_not_swallowed(self, capsys):
        """`repro fig6 --duration-ms 1` used to run the full grid."""
        with pytest.raises(SystemExit):
            main(["fig6", "--duration-ms", "1"])
        assert "unrecognized arguments: --duration-ms" in capsys.readouterr().err

    def test_exit_code_follows_the_claims(self, capsys):
        assert cmd_figure(argparse.Namespace(figure=fake_figure())) == 1
        out = capsys.readouterr().out
        assert "[holds] one is below two" in out
        assert "[FAILS] two is below one" in out
