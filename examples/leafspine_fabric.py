#!/usr/bin/env python3
"""AQ on a leaf-spine fabric with ECMP (deployment-scale example).

The paper's experiments use a single bottleneck; a real deployment is a
Clos fabric where an entity's flows hash across several spines. This
example builds a 2-leaf/2-spine fabric, deploys one weighted ingress AQ
per entity at the source leaf, and shows that entity-level isolation
holds fabric-wide: a UDP entity saturating both spine paths cannot starve
a TCP entity, and the virtual queuing delay the AQ abstraction exports
accumulates correctly across hops.

Run:
    python examples/leafspine_fabric.py
"""

from repro.harness.extensions import run_leafspine
from repro.harness.report import render_table
from repro.units import format_rate


def run(with_aq: bool) -> dict:
    """TCP / UDP entity rates and the spines that carried traffic; the
    scenario itself is the ``ext/leafspine`` figure's (``repro ext/leafspine``)."""
    return run_leafspine(with_aq)


def main() -> None:
    rows = []
    for with_aq in (False, True):
        result = run(with_aq)
        rows.append(
            [
                "AQ at leaf0" if with_aq else "plain fabric",
                format_rate(result["tcp_bps"]),
                format_rate(result["udp_bps"]),
                str(result["spines_used"]),
            ]
        )
    print(render_table(
        ["mode", "tcp entity", "udp entity", "spines used"], rows
    ))
    print(
        "\nECMP spreads both entities over both spines; without AQ the UDP"
        "\nentity starves TCP on every path, with one ingress AQ per entity"
        "\nat the source leaf the fabric-wide split returns to 50/50."
    )


if __name__ == "__main__":
    main()
