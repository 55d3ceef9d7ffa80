"""Flow-completion-time statistics.

FCT — and especially FCT *slowdown* (completion time divided by the
ideal transfer time at line rate) — is the canonical datacenter metric
for how small flows fare under contention. The paper's application-layer
motivation ("unpredictable performance that can vary by an order of
magnitude") is an FCT-variance statement, and AQ's isolation shows up as
small-flow slowdowns staying flat when an aggressive entity shares the
fabric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .meters import percentile


@dataclass(frozen=True)
class FlowRecord:
    """One completed flow.

    ``slowdown`` is ``inf`` when the ideal FCT is zero or negative (a
    zero-size flow, or a collector configured without a meaningful
    reference rate). Summaries must treat such records as unknown rather
    than letting one ``inf`` poison a bin mean — see
    :meth:`FctCollector.summary`.
    """

    size_bytes: int
    fct: float
    ideal_fct: float

    @property
    def slowdown(self) -> float:
        return self.fct / self.ideal_fct if self.ideal_fct > 0 else float("inf")


#: Default size-bin edges in bytes: small / medium / large web-search flows.
DEFAULT_BIN_EDGES = (100 * 1024, 1024 * 1024)


class FctCollector:
    """Collects per-flow completion records and summarizes them."""

    def __init__(
        self,
        reference_rate_bps: float,
        base_rtt: float = 0.0,
        bin_edges: Sequence[int] = DEFAULT_BIN_EDGES,
    ) -> None:
        if reference_rate_bps <= 0:
            raise ConfigurationError("reference rate must be positive")
        self.reference_rate_bps = reference_rate_bps
        self.base_rtt = base_rtt
        self.bin_edges = tuple(bin_edges)
        self.records: List[FlowRecord] = []

    def ideal_fct(self, size_bytes: int) -> float:
        """Transfer time at the reference rate plus one base RTT."""
        return size_bytes * 8.0 / self.reference_rate_bps + self.base_rtt

    def record(self, size_bytes: int, fct: float) -> None:
        if size_bytes <= 0 or fct <= 0:
            raise ConfigurationError("size and FCT must be positive")
        self.records.append(
            FlowRecord(size_bytes, fct, self.ideal_fct(size_bytes))
        )

    def on_complete_hook(self, size_bytes: int):
        """A `(conn, now)` callback factory compatible with
        :class:`~repro.transport.tcp.TcpConnection`'s ``on_complete``."""

        def hook(conn, now: float) -> None:
            self.record(size_bytes, conn.completion_time)

        return hook

    # -- summaries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def _bin_label(self, size_bytes: int) -> str:
        previous = 0
        for edge in self.bin_edges:
            if size_bytes <= edge:
                return f"({previous}, {edge}]B"
            previous = edge
        return f">{previous}B"

    def slowdowns(
        self, bin_label: Optional[str] = None, finite_only: bool = False
    ) -> List[float]:
        values = [
            r.slowdown
            for r in self.records
            if bin_label is None or self._bin_label(r.size_bytes) == bin_label
        ]
        if finite_only:
            values = [v for v in values if math.isfinite(v)]
        return values

    def bins(self) -> List[str]:
        labels = []
        previous = 0
        for edge in self.bin_edges:
            labels.append(f"({previous}, {edge}]B")
            previous = edge
        labels.append(f">{previous}B")
        return labels

    def _stats(
        self, values: List[float], percentiles: Tuple[float, ...]
    ) -> Dict[str, float]:
        finite = [v for v in values if math.isfinite(v)]
        stats: Dict[str, float] = {}
        if finite:
            stats.update(
                {f"p{int(p)}": percentile(finite, p) for p in percentiles}
            )
            stats["mean"] = sum(finite) / len(finite)
        stats["n"] = float(len(finite))
        if len(finite) != len(values):
            stats["n_nonfinite"] = float(len(values) - len(finite))
        return stats

    def summary(
        self, percentiles: Tuple[float, ...] = (50.0, 95.0, 99.0)
    ) -> Dict[str, Dict[str, float]]:
        """Per-bin slowdown percentiles: ``{bin: {"p50": ..., "n": ...}}``.

        Non-finite slowdowns (records with a zero ideal FCT) are excluded
        from every percentile/mean and reported separately per bin as
        ``n_nonfinite`` — one degenerate record must not turn a bin's
        mean into ``inf``.
        """
        out: Dict[str, Dict[str, float]] = {}
        for label in self.bins():
            values = self.slowdowns(label)
            if values:
                out[label] = self._stats(values, percentiles)
        return out

    def overall_summary(
        self, percentiles: Tuple[float, ...] = (50.0, 95.0, 99.0)
    ) -> Optional[Dict[str, float]]:
        """:meth:`summary`'s statistics over every size at once; ``None``
        when no flow has a finite slowdown."""
        stats = self._stats(self.slowdowns(), percentiles)
        return stats if stats["n"] else None

    def overall_p99_slowdown(self) -> float:
        values = self.slowdowns(finite_only=True)
        if not values:
            raise ConfigurationError("no flows with finite slowdowns recorded")
        return percentile(values, 99.0)
