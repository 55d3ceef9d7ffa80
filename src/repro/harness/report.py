"""Plain-text table/series rendering for benchmark output.

Benchmarks print the same rows and series the paper's tables and figures
report; these helpers keep the formatting consistent and legible in a
terminal (and in ``bench_output.txt``). The telemetry helpers at the
bottom render/write machine-readable metrics snapshots next to the text
tables.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence

from ..units import format_rate


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Monospace table with column widths fitted to content."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    def line(cells: Sequence[str]) -> str:
        return " | ".join(str(c).ljust(widths[i]) for i, c in enumerate(cells))
    sep = "-+-".join("-" * w for w in widths)
    out: List[str] = [line(headers), sep]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def rate_range_str(range_bps) -> str:
    """Format a (low, high) rate range like Table 3: '4.9Gbps ~ 5.2Gbps'."""
    low, high = range_bps
    return f"{format_rate(low)} ~ {format_rate(high)}"


def banner(title: str) -> str:
    bar = "=" * max(len(title), 8)
    return f"\n{bar}\n{title}\n{bar}"


def print_experiment(title: str, body: str) -> None:
    """Print one experiment block (used by every benchmark)."""
    print(banner(title))
    print(body)


# -- telemetry output ----------------------------------------------------------


def write_metrics_snapshot(snapshot: dict, path: str) -> None:
    """Dump a metrics-registry snapshot (collectors included) as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_metrics_summary(snapshot: dict, max_rows: Optional[int] = 40) -> str:
    """Human-readable table of a metrics snapshot's counters and gauges."""
    rows: List[List[str]] = []
    for kind in ("counters", "gauges"):
        for entry in snapshot.get(kind, []):
            labels = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
            value = entry["value"]
            text = f"{value:g}" if isinstance(value, float) else str(value)
            rows.append([entry["name"], labels, text])
    rows.sort(key=lambda r: (r[0], r[1]))
    total = len(rows)
    if max_rows is not None and total > max_rows:
        rows = rows[:max_rows]
    table = render_table(["metric", "labels", "value"], rows)
    if max_rows is not None and total > max_rows:
        table += f"\n... ({total - max_rows} more series)"
    histograms = snapshot.get("histograms", [])
    if histograms:
        hrows = []
        for entry in histograms:
            labels = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
            s = entry["value"]
            if s.get("count"):
                stat = (
                    f"n={s['count']} mean={s['mean']:.3g} "
                    f"p50={s['p50']:.3g} p99={s['p99']:.3g}"
                )
            else:
                stat = "n=0"
            hrows.append([entry["name"], labels, stat])
        table += "\n" + render_table(["histogram", "labels", "summary"], hrows)
    return table
