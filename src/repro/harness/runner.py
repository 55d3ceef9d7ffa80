"""Parallel experiment runner: fan scenario jobs out over worker processes.

The paper's evaluation (and this repo's benchmark suite) is a sweep of
independent configurations — embarrassingly parallel, yet the pytest
suite runs them strictly serially. This module runs *jobs* (a named,
JSON-kwargs call of an importable function) in isolated worker processes:

* **spawn-safe** — workers are fresh interpreters (``multiprocessing``
  spawn context), so no simulator state, RNG, or telemetry leaks between
  jobs or from the parent;
* **deterministic** — each worker seeds ``random``/NumPy from a stable
  per-job seed before calling the target, and every scenario builds its
  own :class:`~repro.sim.engine.Simulator`; a job's result dict is
  identical whether the sweep ran with ``--jobs 1`` or ``--jobs 8``;
* **supervised** — per-job wall-clock timeout (the job is killed and
  reported, never hangs the sweep) and one automatic retry when a worker
  *crashes* (non-zero exit without reporting a result);
* **observable** — with ``profile=True`` each worker activates its own
  :class:`~repro.obs.Telemetry` profiler and ships the profiler snapshot
  back in its report; with ``audit=True`` each worker attaches a
  :class:`~repro.obs.RunAuditor` and ships its conservation-law verdict;
  with ``flight_dir=...`` each worker records INT flights to
  ``<flight_dir>/<job>.flights.jsonl`` for ``repro telemetry flights``;
* **aggregated** — results stream back over pipes and are written as one
  JSONL line per job (``write_results_jsonl``), with a stable digest over
  the deterministic fields so two sweeps can be compared byte-for-byte.

Use via ``repro run-all`` (see ``docs/PERFORMANCE.md``) or directly::

    from repro.harness.jobs import default_jobs
    from repro.harness.runner import run_jobs

    results = run_jobs([j for j in default_jobs() if "fig6" in j.name], jobs=4)
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..errors import ConfigurationError

#: Job statuses, in report order.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"


@dataclass(frozen=True)
class JobSpec:
    """One unit of parallel work: call ``target(**kwargs)`` in a worker.

    ``target`` is a ``"module.path:function"`` string (not a callable) so
    the spec pickles trivially into a spawn-context worker. ``kwargs``
    must be JSON-safe; the function must return a JSON-safe dict.
    """

    name: str
    target: str
    kwargs: Mapping[str, object] = field(default_factory=dict)
    tags: Sequence[str] = ()
    timeout_s: float = 300.0

    def worker_seed(self) -> int:
        """Stable per-job seed (independent of Python's hash randomization)."""
        digest = hashlib.sha256(self.name.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")


@dataclass
class JobResult:
    """Outcome of one job, aggregation-ready.

    ``result`` carries the target's return dict and is the *deterministic*
    payload — :func:`results_digest` hashes only ``name``/``status``/
    ``result`` so wall-clock jitter never breaks a comparison.
    """

    name: str
    status: str
    attempts: int
    wall_s: float
    result: Optional[dict] = None
    error: Optional[str] = None
    profile: Optional[dict] = None
    #: Conservation-audit verdict (``audit=True`` sweeps). Like ``profile``
    #: it rides *outside* ``result`` so enabling the auditor cannot change
    #: :func:`results_digest` — auditing a run must not perturb it.
    audit: Optional[dict] = None
    #: Time-window recorder stats (``timewin_dir`` sweeps); outside
    #: ``result`` for the same digest-neutrality reason.
    timewin: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def resolve_target(target: str) -> Callable[..., dict]:
    """Import ``"module:function"`` and return the callable."""
    module_name, _, func_name = target.partition(":")
    if not module_name or not func_name:
        raise ConfigurationError(
            f"job target must be 'module:function', got {target!r}"
        )
    module = importlib.import_module(module_name)
    try:
        return getattr(module, func_name)
    except AttributeError as exc:
        raise ConfigurationError(
            f"job target {target!r}: no such function in {module_name}"
        ) from exc


def seed_worker(seed: int) -> None:
    """Seed the process-global RNGs of a fresh worker (run-all and shard
    workers alike) from its stable per-job / per-partition seed."""
    import random

    random.seed(seed)
    try:  # NumPy is a hard dependency, but stay import-error-proof.
        import numpy

        numpy.random.seed(seed % 2**32)
    except Exception:
        pass


def _worker_main(payload: dict, conn) -> None:
    """Worker-process entry point: run one job and send its report back."""
    report: dict = {"name": payload["name"]}
    try:
        seed_worker(payload["worker_seed"])
        fn = resolve_target(payload["target"])
        from .common import telemetry_session

        t0 = time.perf_counter()
        with telemetry_session(
            profile=bool(payload.get("profile")),
            audit=bool(payload.get("audit")),
            flight_path=payload.get("flight_path"),
            timewin_path=payload.get("timewin_path"),
        ) as telemetry:
            result = fn(**payload["kwargs"])
        report["wall_s"] = time.perf_counter() - t0
        report["status"] = STATUS_OK
        report["result"] = result
        if telemetry is not None:
            # Verdicts ride outside ``result`` so that recording cannot
            # perturb the results digest.
            verdict = telemetry.report()
            for key in ("timewin", "profile", "audit"):
                if key in verdict:
                    report[key] = verdict[key]
    except BaseException:
        report["status"] = STATUS_FAILED
        report["error"] = traceback.format_exc(limit=20)
    try:
        conn.send(report)
    finally:
        conn.close()


@contextlib.contextmanager
def _spawn_safe_main():
    """Neutralize a fake ``__main__.__file__`` during worker launches.

    Spawn-context children re-execute the parent's ``__main__`` by path;
    when the parent is a stdin script (``python - <<EOF``) or a REPL, that
    path is ``<stdin>`` and every worker would die on FileNotFoundError
    before reaching the job. Dropping the attribute (it is restored after
    the sweep) makes children skip the main-module replay, which the
    runner never relies on — job targets are resolved by module path.
    """
    main = sys.modules.get("__main__")
    path = getattr(main, "__file__", None)
    if main is None or path is None or os.path.exists(path):
        yield
        return
    try:
        del main.__file__
        yield
    finally:
        main.__file__ = path


#: Public alias: the shard coordinator (:mod:`repro.sim.shard`) launches
#: its own spawn-context workers and needs the same stdin-script guard.
spawn_safe_main = _spawn_safe_main


class _Running:
    __slots__ = ("spec", "attempt", "proc", "conn", "started")

    def __init__(self, spec: JobSpec, attempt: int, proc, conn) -> None:
        self.spec = spec
        self.attempt = attempt
        self.proc = proc
        self.conn = conn
        self.started = time.monotonic()


def flight_file_for(flight_dir: str, job_name: str) -> str:
    """The per-job flight-record path inside an ``audit``/``flight_dir`` sweep."""
    return os.path.join(flight_dir, job_name.replace("/", "_") + ".flights.jsonl")


def window_file_for(timewin_dir: str, job_name: str) -> str:
    """The per-job time-window dump path inside a ``timewin_dir`` sweep."""
    return os.path.join(timewin_dir, job_name.replace("/", "_") + ".windows.jsonl")


def run_jobs(
    specs: Sequence[JobSpec],
    jobs: int = 1,
    profile: bool = False,
    audit: bool = False,
    flight_dir: Optional[str] = None,
    timewin_dir: Optional[str] = None,
    on_result: Optional[Callable[[JobResult], None]] = None,
    poll_interval: float = 0.05,
) -> List[JobResult]:
    """Run ``specs`` across ``jobs`` worker processes; returns results in
    spec order regardless of completion order.

    ``audit=True`` attaches a conservation-law auditor in each worker and
    ships its verdict back as :attr:`JobResult.audit`; ``flight_dir``
    streams each job's completed INT flights to
    ``<flight_dir>/<job>.flights.jsonl``; ``timewin_dir`` attaches the
    fixed-memory time-window recorder and dumps each job's retained
    windows to ``<timewin_dir>/<job>.windows.jsonl``. ``on_result`` (if
    given) is called with each :class:`JobResult` as it lands — the CLI
    uses it for live progress lines.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ConfigurationError("job names must be unique within a sweep")
    if flight_dir is not None:
        os.makedirs(flight_dir, exist_ok=True)
    if timewin_dir is not None:
        os.makedirs(timewin_dir, exist_ok=True)

    ctx = multiprocessing.get_context("spawn")
    queue: List[tuple] = [(spec, 1) for spec in reversed(specs)]
    running: Dict[str, _Running] = {}
    results: Dict[str, JobResult] = {}

    def launch(spec: JobSpec, attempt: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        payload = {
            "name": spec.name,
            "target": spec.target,
            "kwargs": dict(spec.kwargs),
            "worker_seed": spec.worker_seed(),
            "profile": profile,
            "audit": audit,
            "flight_path": (
                flight_file_for(flight_dir, spec.name)
                if flight_dir is not None
                else None
            ),
            "timewin_path": (
                window_file_for(timewin_dir, spec.name)
                if timewin_dir is not None
                else None
            ),
        }
        # Daemonic: the sweep can never leak a child past the parent.
        proc = ctx.Process(
            target=_worker_main, args=(payload, child_conn), daemon=True
        )
        proc.start()
        child_conn.close()
        running[spec.name] = _Running(spec, attempt, proc, parent_conn)

    def settle(entry: _Running, report: Optional[dict], timed_out: bool) -> None:
        """Record one attempt's outcome (or requeue a first crash)."""
        spec = entry.spec
        if report is not None and report.get("status") == STATUS_OK:
            outcome = JobResult(
                name=spec.name,
                status=STATUS_OK,
                attempts=entry.attempt,
                wall_s=float(report.get("wall_s", 0.0)),
                result=report.get("result"),
                profile=report.get("profile"),
                audit=report.get("audit"),
                timewin=report.get("timewin"),
            )
        elif timed_out:
            outcome = JobResult(
                name=spec.name,
                status=STATUS_TIMEOUT,
                attempts=entry.attempt,
                wall_s=time.monotonic() - entry.started,
                error=f"timed out after {spec.timeout_s:.1f}s",
            )
        else:
            # Worker raised (report carries the traceback) or died without
            # reporting (crash). Crashes get one retry; a clean exception
            # is deterministic and is not retried.
            crashed = report is None
            if crashed and entry.attempt == 1:
                queue.append((spec, 2))
                return
            error = (
                report.get("error")
                if report is not None
                else f"worker crashed (exit code {entry.proc.exitcode})"
            )
            outcome = JobResult(
                name=spec.name,
                status=STATUS_FAILED,
                attempts=entry.attempt,
                wall_s=time.monotonic() - entry.started,
                error=error,
            )
        results[spec.name] = outcome
        if on_result is not None:
            on_result(outcome)

    main_guard = _spawn_safe_main()
    main_guard.__enter__()
    try:
        while queue or running:
            while queue and len(running) < jobs:
                spec, attempt = queue.pop()
                launch(spec, attempt)
            progressed = False
            for name in list(running):
                entry = running[name]
                report = None
                has_report = False
                if entry.conn.poll(0):
                    try:
                        report = entry.conn.recv()
                        has_report = True
                    except EOFError:
                        has_report = False
                if has_report:
                    entry.proc.join()
                    entry.conn.close()
                    del running[name]
                    settle(entry, report, timed_out=False)
                    progressed = True
                elif not entry.proc.is_alive():
                    # Died without a report: crash path.
                    entry.conn.close()
                    del running[name]
                    settle(entry, None, timed_out=False)
                    progressed = True
                elif time.monotonic() - entry.started > entry.spec.timeout_s:
                    entry.proc.terminate()
                    entry.proc.join(timeout=5.0)
                    if entry.proc.is_alive():  # pragma: no cover - last resort
                        entry.proc.kill()
                        entry.proc.join(timeout=5.0)
                    entry.conn.close()
                    del running[name]
                    settle(entry, None, timed_out=True)
                    progressed = True
            if not progressed and running:
                # Block until any worker's pipe has data (or poll interval).
                multiprocessing.connection.wait(
                    [entry.conn for entry in running.values()],
                    timeout=poll_interval,
                )
    finally:
        main_guard.__exit__(None, None, None)
        for entry in running.values():  # pragma: no cover - interrupt cleanup
            entry.proc.terminate()

    return [results[name] for name in names]


# -- aggregation ---------------------------------------------------------------


def result_line(result: JobResult) -> dict:
    """The JSONL record for one job (deterministic fields first)."""
    line: dict = {
        "name": result.name,
        "status": result.status,
        "result": result.result,
        "attempts": result.attempts,
        "wall_s": result.wall_s,
    }
    for key in ("error", "profile", "audit", "timewin"):
        if getattr(result, key) is not None:
            line[key] = getattr(result, key)
    return line


def write_results_jsonl(results: Sequence[JobResult], path: str) -> None:
    """One JSON object per line, in sweep order."""
    with open(path, "w", encoding="utf-8") as fh:
        for result in results:
            fh.write(json.dumps(result_line(result), sort_keys=True))
            fh.write("\n")


def read_results_jsonl(path: str) -> List[JobResult]:
    """Inverse of :func:`write_results_jsonl`."""
    results = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            results.append(
                JobResult(
                    name=record["name"],
                    status=record["status"],
                    attempts=record.get("attempts", 1),
                    wall_s=record.get("wall_s", 0.0),
                    result=record.get("result"),
                    error=record.get("error"),
                    profile=record.get("profile"),
                    audit=record.get("audit"),
                    timewin=record.get("timewin"),
                )
            )
    return results


def deterministic_result(result: Optional[dict]) -> Optional[dict]:
    """A job result with its (conventional) wall-clock fields removed:
    job wrappers put timing measurements under the ``"timing"`` key so
    determinism checks can ignore them."""
    if not isinstance(result, dict):
        return result
    return {key: value for key, value in result.items() if key != "timing"}


def results_digest(results: Sequence[JobResult]) -> str:
    """SHA-256 over the deterministic payload (name, status, result minus
    ``"timing"``) of every job, in name order. Two sweeps of the same job
    set at any parallelism produce the same digest; any numeric divergence
    changes it."""
    hasher = hashlib.sha256()
    for result in sorted(results, key=lambda r: r.name):
        hasher.update(
            json.dumps(
                {
                    "name": result.name,
                    "status": result.status,
                    "result": deterministic_result(result.result),
                },
                sort_keys=True,
            ).encode("utf-8")
        )
        hasher.update(b"\n")
    return hasher.hexdigest()
