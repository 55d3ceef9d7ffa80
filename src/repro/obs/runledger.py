"""The fabric run ledger: one directory per ``share-fabric`` run.

Spawned shard workers scatter their artifacts — window dumps, flight
segments, audit verdicts — across per-shard files, which made every
post-mortem start with "which files belong to this run?". The ledger
answers that structurally: each run writes a directory whose
``manifest.json`` (schema ``fabric-run/1``) records the configuration,
the partition plan, digests, audit verdicts, and a relative-path index
of every artifact the run produced. ``repro telemetry`` subcommands and
``repro fabric-status`` accept the run directory (or the manifest file
itself) anywhere they previously took bare JSONL paths and resolve
through the index.

Layout of a completed run directory::

    manifest.json            fabric-run/1 manifest (this module)
    report.json              the full JSON report of run_share_fabric
    health.jsonl             heartbeat frames, one JSON object per line,
                             appended live while the run progresses
    metrics.json             fabric-wide merged metrics snapshot
    windows/shard{i}.windows.jsonl    per-shard time-window dumps
    windows.stitched.jsonl   fabric-wide stitched window store
    flights/shard{i}.flights.jsonl    per-shard flight segments (opt-in)
    flights.stitched.jsonl   end-to-end stitched flights (opt-in)

The manifest is written twice: once at launch with ``status="running"``
(so ``fabric-status`` can watch a live run) and once at completion with
``status="complete"`` and the final digests/verdicts. Writes go through
a temp file + ``os.replace`` so readers never observe a torn manifest.
"""

from __future__ import annotations

import json
import os
from typing import Callable, List, Optional, Tuple

from ..errors import ConfigurationError
from .codec import dumps_compact

MANIFEST_NAME = "manifest.json"
SCHEMA = "fabric-run/1"

#: Artifact kinds resolvable through the manifest index. Values are
#: (stitched_key, per_shard_key) — resolution prefers the stitched
#: fabric-wide file and falls back to the per-shard list.
_ARTIFACT_KINDS = {
    "windows": ("windows_stitched", "windows"),
    "flights": ("flights_stitched", "flights"),
    "health": ("health", None),
    "metrics": ("metrics", None),
    "report": ("report", None),
}


def manifest_path(run_dir: str) -> str:
    return os.path.join(run_dir, MANIFEST_NAME)


def is_run_reference(path: str) -> bool:
    """True when ``path`` names a run directory or a manifest file —
    something :func:`load_manifest` would accept."""
    if os.path.isdir(path):
        return os.path.isfile(manifest_path(path))
    return os.path.basename(path) == MANIFEST_NAME and os.path.isfile(path)


def load_manifest(ref: str) -> Tuple[str, dict]:
    """Load a manifest from a run directory or manifest path; returns
    ``(run_dir, manifest)``. Raises :class:`ConfigurationError` on
    anything that is not a readable ``fabric-run/1`` manifest."""
    if os.path.isdir(ref):
        path = manifest_path(ref)
        run_dir = ref
    else:
        path = ref
        run_dir = os.path.dirname(ref) or "."
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(
            f"{ref}: not a run directory (no {MANIFEST_NAME})"
        ) from None
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"{path}: unreadable manifest: {exc}") from exc
    schema = manifest.get("schema")
    if schema != SCHEMA:
        raise ConfigurationError(
            f"{path}: unsupported manifest schema {schema!r} "
            f"(expected {SCHEMA!r})"
        )
    return run_dir, manifest


def artifact_paths(ref: str, kind: str) -> List[str]:
    """Absolute paths of one artifact kind, resolved via the manifest.

    ``kind`` is one of ``windows`` / ``flights`` / ``health`` /
    ``metrics`` / ``report``. For stitchable kinds the fabric-wide
    stitched file wins when present; otherwise the per-shard files are
    returned in partition order. Missing artifacts yield ``[]`` (the
    caller decides whether that is an error).
    """
    if kind not in _ARTIFACT_KINDS:
        raise ConfigurationError(
            f"unknown artifact kind {kind!r}; expected one of "
            f"{sorted(_ARTIFACT_KINDS)}"
        )
    run_dir, manifest = load_manifest(ref)
    artifacts = manifest.get("artifacts", {})
    stitched_key, per_shard_key = _ARTIFACT_KINDS[kind]
    stitched = artifacts.get(stitched_key)
    if isinstance(stitched, str):
        path = os.path.join(run_dir, stitched)
        if os.path.isfile(path):
            return [path]
    if per_shard_key is not None:
        rels = artifacts.get(per_shard_key) or []
        paths = [os.path.join(run_dir, rel) for rel in rels]
        return [p for p in paths if os.path.isfile(p)]
    return []


def resolve_inputs(refs: List[str], kind: str) -> List[str]:
    """Expand a mixed list of run references and bare files into file
    paths: run directories/manifests resolve through :func:`artifact_paths`,
    anything else passes through unchanged."""
    out: List[str] = []
    for ref in refs:
        if is_run_reference(ref):
            out.extend(artifact_paths(ref, kind))
        else:
            out.append(ref)
    return out


class RunLedger:
    """Incrementally builds one run directory (see the module docstring).

    Construction creates the directory; :meth:`begin` publishes the
    ``status="running"`` manifest; :meth:`health_writer` returns a
    callable that appends heartbeat frames to ``health.jsonl`` with an
    immediate flush (so ``fabric-status --follow`` sees frames live);
    :meth:`finalize` publishes the completed manifest.
    """

    def __init__(self, run_dir: str) -> None:
        self.run_dir = run_dir
        os.makedirs(run_dir, exist_ok=True)
        self._health_fh = None
        self.health_frames = 0

    def path(self, *parts: str) -> str:
        return os.path.join(self.run_dir, *parts)

    def relpath(self, path: str) -> str:
        return os.path.relpath(path, self.run_dir)

    def _write_manifest(self, manifest: dict) -> str:
        target = manifest_path(self.run_dir)
        tmp = target + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, target)
        return target

    def begin(self, manifest: dict) -> str:
        manifest = dict(manifest, schema=SCHEMA, status="running")
        return self._write_manifest(manifest)

    def health_writer(self) -> Callable[[dict], None]:
        if self._health_fh is None:
            self._health_fh = open(
                self.path("health.jsonl"), "w", encoding="utf-8"
            )

        def append(frame: dict) -> None:
            self._health_fh.write(dumps_compact(frame) + "\n")
            self._health_fh.flush()
            self.health_frames += 1

        return append

    def write_json(self, name: str, payload: dict) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def close_health(self) -> Optional[str]:
        if self._health_fh is None:
            return None
        self._health_fh.close()
        self._health_fh = None
        return self.path("health.jsonl")

    def finalize(self, manifest: dict, status: str = "complete") -> str:
        self.close_health()
        manifest = dict(manifest, schema=SCHEMA, status=status)
        return self._write_manifest(manifest)


def read_health_jsonl(path: str) -> List[dict]:
    """Load heartbeat frames, skipping torn trailing lines (a live run
    may be mid-write)."""
    frames: List[dict] = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return frames
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                frames.append(json.loads(line))
            except ValueError:
                continue
    return frames
