#!/usr/bin/env python3
"""Telemetry tour: metrics, trace events, and the sim-loop profiler.

Runs one DCTCP-vs-UDP sharing experiment under AQ with every pillar of
the observability subsystem switched on, then shows what each one saw:

1. **SummarySink** — constant-space tallies of the typed event stream
   (how many drops, ECN marks, A-Gap updates, cwnd changes...).
2. **JsonlSink** — the same stream written as one JSON object per line,
   re-read with ``read_jsonl`` (this is what ``--telemetry out.jsonl``
   writes and ``python -m repro telemetry summarize`` consumes).
3. **MetricsRegistry** — labeled counters/gauges/histograms mirrored
   from every component's stats at snapshot time.
4. **SimProfiler** — where the wall clock went, callback site by
   callback site.

Run:
    python examples/telemetry_tour.py
"""

import os
import tempfile

from repro import Telemetry, read_jsonl, run_cc_pair
from repro.harness.report import render_metrics_summary
from repro.units import gbps


def main() -> None:
    tele = Telemetry(enabled=True, profile=True)
    summary = tele.add_summary()
    trace_path = os.path.join(tempfile.mkdtemp(), "tour.jsonl")
    tele.add_jsonl(trace_path)

    # activate() installs `tele` as the ambient telemetry, so the
    # simulator the scenario builds internally picks it up.
    with tele.activate():
        result = run_cc_pair(
            "dctcp", 2, "udp", 1, "aq",
            bottleneck_bps=gbps(1), duration=40e-3, warmup=15e-3,
        )
    tele.close()  # flush the JSONL sink

    print("--- scenario ---")
    for name, rate in result["rates_bps"].items():
        print(f"  {name}: {rate / 1e9:.2f} Gbps")

    print("\n--- 1. event tallies (SummarySink) ---")
    for event_type, count in sorted(summary.by_type.items()):
        print(f"  {event_type:<12} {count:>8}")

    print("\n--- 2. JSONL trace round trip ---")
    events = list(read_jsonl(trace_path))
    print(f"  {len(events)} events re-read from {trace_path}")
    first_drop = next((e for e in events if e.type == "rate_limit"), None)
    if first_drop is not None:
        print(f"  first rate_limit event: {first_drop!r}")

    print("\n--- 3. metrics snapshot (selected series) ---")
    snapshot = tele.metrics.snapshot()
    print(render_metrics_summary(snapshot, max_rows=15))

    print("\n--- 4. sim-loop profile ---")
    print(tele.profiler.render())


if __name__ == "__main__":
    main()
