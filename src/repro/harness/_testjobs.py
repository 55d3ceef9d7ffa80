"""Tiny job targets used by tests and CI smoke runs.

Kept in the package (not under ``tests/``) so spawn-context workers can
import them by module path regardless of the parent's ``sys.path``.
"""

from __future__ import annotations

import os
import time


def job_echo(value: float = 1.0) -> dict:
    """Trivial success."""
    return {"value": value}


def job_sleep(seconds: float) -> dict:
    """Busy job for timeout tests."""
    time.sleep(seconds)
    return {"slept": seconds}


def job_fail(message: str = "boom") -> dict:
    """Deterministic in-job exception (must NOT be retried)."""
    raise ValueError(message)


def job_crash_once(sentinel: str) -> dict:
    """Hard-crash (no exception, no report) on the first attempt; the
    second attempt finds the sentinel file and succeeds — exercises the
    runner's retry-once-on-crash path."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as fh:
            fh.write("crashed\n")
        os._exit(13)
    return {"recovered": True}


def job_crash_always() -> dict:
    """Hard-crash on every attempt (exhausts the single retry)."""
    os._exit(13)


def job_tiny_scenario(seed: int = 1) -> dict:
    """A real (but small) packet-level scenario for determinism tests."""
    from ..units import gbps
    from .scenarios import run_cc_pair

    result = run_cc_pair(
        "cubic", 2, "dctcp", 2, "aq",
        bottleneck_bps=gbps(1), duration=30e-3, warmup=10e-3, seed=seed,
    )
    return {"rates_bps": result["rates_bps"], "ratio": result["ratio"]}
