"""Public-API hygiene: exports resolve, examples parse, docs exist."""

import ast
import importlib
import pathlib

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestExports:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name}"

    def test_version_present(self):
        assert repro.__version__

    def test_every_export_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, str):  # approach constants
                continue
            assert obj.__doc__, f"{name} has no docstring"

    def test_approaches_constant(self):
        assert set(repro.APPROACHES) == {"pq", "aq", "prl", "drl"}


class TestModuleDocs:
    def test_every_module_has_docstring(self):
        for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
            if path.name == "__main__.py":
                continue
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), f"{path} lacks a module docstring"

    def test_subpackages_importable(self):
        for module in (
            "repro.sim.engine", "repro.net.packet", "repro.net.switch",
            "repro.queues.fifo", "repro.queues.perflow",
            "repro.queues.multiqueue", "repro.transport.tcp",
            "repro.transport.udp", "repro.cc.registry",
            "repro.ratelimit.token_bucket", "repro.ratelimit.elasticswitch",
            "repro.ratelimit.dynamic", "repro.topology.dumbbell",
            "repro.topology.star", "repro.topology.leafspine",
            "repro.workloads.websearch", "repro.workloads.generator",
            "repro.core.agap", "repro.core.aq", "repro.core.controller",
            "repro.core.pipeline", "repro.core.feedback",
            "repro.core.resources", "repro.core.workconserving",
            "repro.stats.meters", "repro.stats.fairness", "repro.stats.fct",
            "repro.harness.common", "repro.harness.scenarios",
            "repro.harness.report", "repro.cli",
        ):
            importlib.import_module(module)


class TestExamples:
    @pytest.mark.parametrize(
        "script",
        sorted(p.name for p in (REPO_ROOT / "examples").glob("*.py")),
    )
    def test_example_parses_and_has_main(self, script):
        source = (REPO_ROOT / "examples" / script).read_text()
        tree = ast.parse(source)
        assert ast.get_docstring(tree), f"{script} lacks a docstring"
        functions = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert "main" in functions, f"{script} has no main()"

    def test_at_least_five_examples(self):
        scripts = list((REPO_ROOT / "examples").glob("*.py"))
        assert len(scripts) >= 5


class TestDocs:
    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_doc_exists_and_substantial(self, doc):
        path = REPO_ROOT / doc
        assert path.exists()
        assert len(path.read_text()) > 2000

    def test_experiments_covers_every_artifact(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for artifact in (
            "Figure 1", "Figure 3", "Figure 6", "Figure 7", "Figure 8",
            "Figure 9", "Figure 10", "Figure 11", "Figure 12",
            "Table 2", "Table 3", "Table 4",
        ):
            assert artifact in text, f"EXPERIMENTS.md missing {artifact}"

    def test_benchmark_per_artifact(self):
        """Every artifact section of EXPERIMENTS.md names its entry of the
        FIGURES table (a ``**Run**: `repro <name>` `` line), and that
        figure carries at least one claim — an artifact nobody asserts
        anything about is how Figure 8 stayed broken for six PRs."""
        import re

        from repro.harness.figures import FIGURES

        by_name = {figure.name: figure for figure in FIGURES}
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        sections = re.split(r"^## ", text, flags=re.MULTILINE)[1:]
        named = {}
        for section in sections:
            heading = section.splitlines()[0]
            match = re.search(r"^\*\*Run\*\*: `repro (\S+)`", section, re.MULTILINE)
            if match:
                named[heading] = match.group(1)
            else:  # the two sections that are not figures
                assert heading.startswith(
                    ("Extension — switch-restart recovery", "Fidelity")
                ), f"EXPERIMENTS.md section {heading!r} names no figure"
        assert sorted(named.values()) == sorted(by_name), (
            "EXPERIMENTS.md sections and the FIGURES table differ"
        )
        for heading, name in named.items():
            assert by_name[name].claims, f"{heading}: figure {name} claims nothing"
