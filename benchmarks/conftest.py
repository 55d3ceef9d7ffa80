"""Shared benchmark configuration.

Every benchmark runs a scaled-down version of a paper experiment
(rates /4 to /10, durations in the tens of milliseconds — see
EXPERIMENTS.md for the scale of record) and prints the same rows/series
the paper reports. ``pytest benchmarks/ --benchmark-only`` regenerates
everything; each scenario is executed once per benchmark round via
``benchmark.pedantic``.
"""

import pytest

from repro.harness.common import telemetry_from_env


@pytest.fixture(autouse=True)
def env_telemetry():
    """Instrument benchmark runs from the environment: set
    ``REPRO_TELEMETRY=out.jsonl`` (and/or ``REPRO_PROFILE=1``) to record a
    trace of whatever benchmark you run, with zero code changes."""
    with telemetry_from_env() as tele:
        yield tele


@pytest.fixture
def once(benchmark):
    """Run ``fn`` exactly once under pytest-benchmark and return its result.

    Packet-level scenario runs are seconds long and deterministic, so one
    round is both sufficient and necessary to keep the suite's wall time
    sane.
    """

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return _run
