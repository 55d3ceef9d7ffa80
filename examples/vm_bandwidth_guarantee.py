#!/usr/bin/env python3
"""Bi-directional VM bandwidth guarantees (the paper's Table 3 scenario).

Four VMs hang off one ToR switch (Figure 2). VM A buys a traffic profile
of 5 Gbps outbound AND 5 Gbps inbound. Rate limiters at the sender can
cap outbound, but when three VMs all blast at VM A its inbound hits 15
Gbps — the profile is violated. Deploying one AQ at the switch *ingress*
pipeline (A's outbound) and one at the *egress* pipeline (A's inbound)
enforces both directions regardless of the traffic pattern.

Run:
    python examples/vm_bandwidth_guarantee.py
"""

from repro import APPROACHES, run_vm_profile
from repro.harness.report import rate_range_str, render_table
from repro.units import format_rate, gbps

# 1/10 of the paper's testbed (25G links / 5G profile); the ratios to the
# profile are the result and they are scale-free.
LINK = gbps(2.5)
PROFILE = gbps(0.5)


def main() -> None:
    rows = [["ideal", f"{format_rate(PROFILE)}", f"{format_rate(PROFILE)}"]]
    for approach in APPROACHES:
        result = run_vm_profile(
            approach,
            link_rate_bps=LINK,
            profile_rate_bps=PROFILE,
            duration=0.1,
        )
        rows.append(
            [
                approach.upper(),
                rate_range_str(result["outbound_range_bps"]),
                rate_range_str(result["inbound_range_bps"]),
            ]
        )
    print(render_table(["approach", "VM A outbound", "VM A inbound"], rows))
    print(
        "\nPQ lets both directions blow past the profile; PRL holds outbound"
        "\nbut not inbound (3 senders x the profile = 3x); DRL lags demand"
        "\nshifts; AQ pins both directions to ~the profile."
    )


if __name__ == "__main__":
    main()
