"""Fairness metrics used by the evaluation."""

from __future__ import annotations

import sys
from typing import Sequence

from ..errors import ConfigurationError


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 is perfectly fair, 1/n is maximally unfair."""
    if not values:
        raise ConfigurationError("Jain index of empty sequence")
    if any(v < 0 for v in values):
        raise ConfigurationError("Jain index requires non-negative values")
    total = sum(values)
    squares = sum(v * v for v in values)
    if total == 0 or squares < sys.float_info.min:
        # All zero — or so close that the squares underflow to zero or to
        # subnormals, which no longer carry enough bits to divide by.
        return 1.0
    return total * total / (len(values) * squares)


def entity_fairness(completion_time_a: float, completion_time_b: float) -> float:
    """The paper's entity fairness: shorter completion time over longer.

    1.0 means the two entities finished together (fair share); the paper's
    Figure 7 reports ~0.14 for PQ at 8 VMs (a 7.2x gap).
    """
    if completion_time_a <= 0 or completion_time_b <= 0:
        raise ConfigurationError("completion times must be positive")
    shorter = min(completion_time_a, completion_time_b)
    longer = max(completion_time_a, completion_time_b)
    return shorter / longer


def throughput_ratio(a_bps: float, b_bps: float) -> float:
    """min/max throughput ratio between two entities (Table 2 shape)."""
    if a_bps < 0 or b_bps < 0:
        raise ConfigurationError("throughputs must be non-negative")
    if max(a_bps, b_bps) == 0:
        return 1.0
    return min(a_bps, b_bps) / max(a_bps, b_bps)
