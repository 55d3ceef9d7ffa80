"""End-to-end integration tests: the paper's headline behaviours at small
scale (each run is a full packet-level simulation)."""

import pytest

from repro.harness.common import EntitySpec
from repro.harness.scenarios import (
    run_cc_pair,
    run_cc_preservation,
    run_limit_ablation,
    run_longlived_share,
    run_two_entity_fairness,
    run_udp_tcp_timeline,
    run_vm_profile,
)
from repro.units import MTU_BYTES, gbps

BOTTLENECK = gbps(1)
SHORT = dict(bottleneck_bps=BOTTLENECK, duration=40e-3, warmup=15e-3)


class TestApplicationIsolation:
    def test_udp_starves_tcp_under_pq(self):
        result = run_cc_pair("cubic", 2, "udp", 1, "pq", **SHORT)
        assert result["rates_bps"]["B"] > 0.8 * BOTTLENECK
        assert result["rates_bps"]["A"] < 0.1 * BOTTLENECK

    def test_aq_protects_tcp_from_udp(self):
        result = run_cc_pair("cubic", 2, "udp", 1, "aq", **SHORT)
        assert result["rates_bps"]["A"] > 0.35 * BOTTLENECK
        assert result["rates_bps"]["B"] < 0.6 * BOTTLENECK

    def test_aq_weighted_split(self):
        entities = [
            EntitySpec(name="A", cc="cubic", num_flows=2, weight=1.0),
            EntitySpec(name="B", cc="cubic", num_flows=2, weight=3.0),
        ]
        result = run_longlived_share(entities, "aq", **SHORT)
        ratio = result.rates_bps["B"] / result.rates_bps["A"]
        assert 2.2 < ratio < 4.5

    def test_flow_count_does_not_buy_bandwidth_under_aq(self):
        result = run_cc_pair("cubic", 1, "cubic", 8, "aq", **SHORT)
        assert result["ratio"] > 0.7

    def test_aq_full_utilization(self):
        result = run_cc_pair("cubic", 2, "cubic", 2, "aq", **SHORT)
        assert result["utilization"] > 0.85


class TestCcCoexistence:
    def test_dctcp_starves_cubic_under_pq(self):
        result = run_cc_pair("cubic", 3, "dctcp", 3, "pq", **SHORT)
        assert result["rates_bps"]["B"] > 3 * result["rates_bps"]["A"]

    def test_aq_isolates_cubic_from_dctcp(self):
        result = run_cc_pair("cubic", 3, "dctcp", 3, "aq", **SHORT)
        assert result["ratio"] > 0.75

    def test_swift_starved_under_pq(self):
        result = run_cc_pair(
            "cubic", 3, "swift", 3, "pq",
            bottleneck_bps=BOTTLENECK, duration=60e-3, warmup=25e-3,
        )
        assert result["rates_bps"]["B"] < 0.3 * BOTTLENECK

    def test_aq_gives_swift_its_share(self):
        # Swift converges more slowly at low allocated rates; give it time.
        result = run_cc_pair(
            "cubic", 3, "swift", 3, "aq",
            bottleneck_bps=BOTTLENECK, duration=60e-3, warmup=25e-3,
        )
        assert result["ratio"] > 0.7


class TestVmProfiles:
    def test_prl_violates_inbound(self):
        result = run_vm_profile(
            "prl", link_rate_bps=gbps(1), profile_rate_bps=gbps(0.2),
            duration=0.08,
        )
        assert result["inbound_mean_bps"] > 2.2 * gbps(0.2)
        assert result["outbound_mean_bps"] < 1.25 * gbps(0.2)

    def test_aq_enforces_both_directions(self):
        result = run_vm_profile(
            "aq", link_rate_bps=gbps(1), profile_rate_bps=gbps(0.2),
            duration=0.08,
        )
        assert 0.6 * gbps(0.2) < result["inbound_mean_bps"] < 1.35 * gbps(0.2)
        assert 0.6 * gbps(0.2) < result["outbound_mean_bps"] < 1.35 * gbps(0.2)

    def test_pq_ignores_profile(self):
        result = run_vm_profile(
            "pq", link_rate_bps=gbps(1), profile_rate_bps=gbps(0.2),
            duration=0.08,
        )
        assert result["inbound_mean_bps"] > 2 * gbps(0.2)


class TestCompletionTimeFamily:
    def test_aq_entity_fairness_near_one(self):
        result = run_two_entity_fairness(
            2, "aq", volume_bytes=4_000_000, bottleneck_bps=BOTTLENECK,
            max_sim_time=10.0,
        )
        assert result["fairness"] > 0.8

    def test_prl_unfair_with_many_vms(self):
        result = run_two_entity_fairness(
            4, "prl", volume_bytes=4_000_000, bottleneck_bps=BOTTLENECK,
            max_sim_time=10.0,
        )
        # B (4 VMs behind fixed slices) finishes later than A.
        assert result["wct_s"]["B"] > result["wct_s"]["A"]


class TestPreservation:
    def test_cubic_behaviour_preserved(self):
        pq = run_cc_preservation(
            "cubic", use_aq=False, allocated_bps=gbps(0.5),
            capacity_bps=gbps(2), duration=50e-3, warmup=20e-3,
        )
        aq = run_cc_preservation(
            "cubic", use_aq=True, allocated_bps=gbps(0.5),
            capacity_bps=gbps(2), duration=50e-3, warmup=20e-3,
        )
        assert aq["throughput_bps"] == pytest.approx(pq["throughput_bps"], rel=0.1)
        assert aq["delay_p95_s"] == pytest.approx(pq["delay_p95_s"], rel=0.5)


class TestTimeline:
    def test_aq_reallocation_follows_membership(self):
        result = run_udp_tcp_timeline("aq", bottleneck_bps=BOTTLENECK, phase=20e-3)
        solo = result["rates_in_window"]["phase0"]["T1"]
        shared = result["rates_in_window"]["phase3"]["T1"]
        assert solo > 1.5 * shared  # T1 yields as others join
        udp_phase = result["rates_in_window"]["phase4"]
        assert udp_phase["U"] < 0.4 * BOTTLENECK  # UDP held to ~1/5


class TestLimitAblation:
    def test_small_limit_caps_achieved_rate(self):
        small, large = (
            run_limit_ablation(
                packets * MTU_BYTES,
                allocated_bps=gbps(0.5), capacity_bps=gbps(2),
                duration=40e-3, warmup=15e-3,
            )
            for packets in (3, 120)
        )
        assert small["rate_bps"] < large["rate_bps"]
