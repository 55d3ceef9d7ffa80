#!/usr/bin/env python3
"""Work conservation extension (paper Section 6).

Strict AQ guarantees are non-work-conserving: a tenant allocated 25% of
the link stays at 25% even when everyone else is idle. The paper sketches
a bypass — skip AQ enforcement while the physical queue is empty — so an
entity can opportunistically exceed its allocation on an idle fabric but
is pinned back the moment contention (queue build-up) appears.

This example deploys one CUBIC entity with a 2.5 Gbps allocation on a
10 Gbps link and compares strict AQ against the work-conserving gate,
with and without a competing entity.

Run:
    python examples/work_conservation.py
"""

from repro.harness.extensions import run_work_conservation
from repro.harness.report import render_table
from repro.units import format_rate


def run(work_conserving: bool, with_competitor: bool) -> float:
    """The tenant's steady-state rate; the scenario itself is the
    ``ablation/workconserve`` figure's (``repro ablation/workconserve``)."""
    return run_work_conservation(work_conserving, with_competitor)["rate_bps"]


def main() -> None:
    rows = []
    for work_conserving in (False, True):
        for with_competitor in (False, True):
            rate = run(work_conserving, with_competitor)
            rows.append(
                [
                    "gated (work-conserving)" if work_conserving else "strict AQ",
                    "busy fabric" if with_competitor else "idle fabric",
                    format_rate(rate),
                ]
            )
    print(render_table(["mode", "fabric", "tenant throughput"], rows))
    print(
        "\nStrict AQ pins the tenant at its 2.5 Gbps allocation even on an"
        "\nidle fabric; the Section 6 gate lets it grab spare bandwidth while"
        "\nstill yielding when the physical queue builds up."
    )


if __name__ == "__main__":
    main()
