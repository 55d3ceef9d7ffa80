"""Tests for the hybrid fluid/packet fast path (:mod:`repro.sim.fluid`).

Covers the mode-transition edge cases (faults mid-epoch, flows finishing
exactly on an epoch boundary, zero-length epochs falling straight back to
packet mode), the static eligibility screen, packet-mode equivalence under
the documented tolerances, and audit cleanliness of the synthetic trace.
"""

import pytest

from repro.errors import ConfigurationError
from repro.harness.common import EntitySpec
from repro.harness.scenarios import run_fluid_share
from repro.net.link import MODE_FLUID, MODE_PACKET, LinkStats
from repro.obs.telemetry import Telemetry
from repro.sim.fluid import FluidEngine
from repro.topology.dumbbell import Dumbbell, DumbbellConfig
from repro.transport.udp import UdpFlow
from repro.units import gbps


BOTTLENECK = gbps(2)


def _two_udp(**kwargs_b):
    return [
        EntitySpec(name="A", cc="udp"),
        EntitySpec(name="B", cc="udp", **kwargs_b),
    ]


class TestLinkStatsUtilization:
    def test_zero_duration_returns_zero(self):
        stats = LinkStats()
        stats.busy_time = 1.5
        assert stats.utilization(0.0) == 0.0

    def test_negative_duration_returns_zero(self):
        stats = LinkStats()
        stats.busy_time = 1.5
        assert stats.utilization(-1.0) == 0.0

    def test_positive_duration(self):
        stats = LinkStats()
        stats.busy_time = 0.25
        assert stats.utilization(0.5) == pytest.approx(0.5)


class TestEquivalence:
    def test_undersubscribed_matches_packet_tightly(self):
        ents = [
            EntitySpec(name="A", cc="udp", udp_rate_bps=0.45 * BOTTLENECK),
            EntitySpec(name="B", cc="udp", udp_rate_bps=0.40 * BOTTLENECK),
        ]
        pk = run_fluid_share(ents, "pq", duration=20e-3, fluid=False)
        fl = run_fluid_share(ents, "pq", duration=20e-3, fluid=True)
        assert fl.fluid["epochs"] > 0
        for name in pk.delivered_total:
            p, f = pk.delivered_total[name], fl.delivered_total[name]
            assert f == pytest.approx(p, rel=0.01)

    def test_aq_limit_totals_match(self):
        # Overloaded equal-rate CBR splits the trunk buffer by enqueue
        # phase in packet mode, so per-entity bytes only match loosely;
        # the aggregate must still agree tightly (conservation).
        ents = _two_udp()
        pk = run_fluid_share(ents, "aq", duration=20e-3, fluid=False)
        fl = run_fluid_share(ents, "aq", duration=20e-3, fluid=True)
        assert fl.fluid["epochs"] > 0
        total_pk = sum(pk.delivered_total.values())
        total_fl = sum(fl.delivered_total.values())
        assert total_fl == pytest.approx(total_pk, rel=0.01)
        # The point of the fast path: closed-form epochs, not packets.
        events_pk, events_fl = (
            r.env.controller.network.sim.events_processed for r in (pk, fl)
        )
        assert events_fl * 10 <= events_pk
        for name in pk.delivered_total:
            assert fl.delivered_total[name] == pytest.approx(
                pk.delivered_total[name], rel=0.08
            )

    def test_shaped_entities_match_packet(self):
        ents = _two_udp()
        pk = run_fluid_share(ents, "prl", duration=20e-3, fluid=False)
        fl = run_fluid_share(ents, "prl", duration=20e-3, fluid=True)
        assert fl.fluid["epochs"] > 0
        for name in pk.delivered_total:
            assert fl.delivered_total[name] == pytest.approx(
                pk.delivered_total[name], rel=0.01
            )

    def test_audit_clean_in_both_modes(self):
        ents = _two_udp(start_time=5e-3, stop_time=15e-3)
        for fluid in (False, True):
            tele = Telemetry(enabled=True)
            auditor = tele.enable_audit()
            with tele.activate():
                run_fluid_share(ents, "aq", duration=20e-3, fluid=fluid)
            tele.close()
            report = auditor.report()
            assert report["violation_count"] == 0, report["violations"][:3]


class TestModeTransitions:
    def test_flow_finish_exits_epoch_at_boundary(self):
        # B stops exactly at 15 ms: the epoch must end there (flow_finish
        # exit), and B's goodput must reflect only its active window.
        ents = _two_udp(start_time=5e-3, stop_time=15e-3)
        fl = run_fluid_share(ents, "aq", duration=20e-3, fluid=True)
        assert fl.fluid["exits"].get("flow_finish", 0) >= 1
        pk = run_fluid_share(ents, "aq", duration=20e-3, fluid=False)
        assert fl.delivered_total["B"] == pytest.approx(
            pk.delivered_total["B"], rel=0.02
        )

    def test_zero_length_epoch_falls_back_to_packet(self):
        # min_epoch longer than the run: every candidate epoch collapses
        # to zero length, so the pre-flight check must refuse to engage
        # (no barrier perturbation at all) and the run must complete
        # per-packet with bit-identical results.
        ents = _two_udp()
        fl = run_fluid_share(
            ents, "aq", duration=10e-3, fluid=True, min_epoch=1.0
        )
        assert fl.fluid["epochs"] == 0
        assert fl.fluid["engagements"] == 0
        assert fl.fluid["rejections"].get("horizon", 0) >= 1
        pk = run_fluid_share(ents, "aq", duration=10e-3, fluid=False)
        assert fl.delivered_total == pk.delivered_total

    def test_fault_mid_epoch_returns_to_packet_mode(self):
        # A trunk blackout lands mid-run: its scheduled set_down is a
        # calendar event, so the running epoch ends at it ("event" exit);
        # while the link is down every re-engagement is rejected
        # ("link_faulted") and the blackout runs per-packet.
        dumbbell = Dumbbell(DumbbellConfig(
            num_left=1, num_right=1, bottleneck_rate_bps=BOTTLENECK,
        ))
        network = dumbbell.network
        flow = UdpFlow(network, "h-l0", "h-r0", rate_bps=BOTTLENECK)
        trunk = network.switches[Dumbbell.LEFT_SWITCH].route_for("h-r0").link
        network.sim.schedule_at(5e-3, trunk.set_down)
        network.sim.schedule_at(7e-3, trunk.set_up)
        engine = FluidEngine(network, [flow])
        assert engine.static_reason is None
        engine.run(until=20e-3)
        stats = engine.stats()
        assert stats["epochs"] > 0
        assert stats["exits"].get("event", 0) >= 1
        assert stats["rejections"].get("link_faulted", 0) >= 1
        # ~2 ms of a 20 ms run is dark; goodput must reflect that.
        expected = BOTTLENECK / 8 * (20e-3 - 2e-3)
        assert flow.sink.delivered_bytes == pytest.approx(expected, rel=0.05)
        for stage in engine._queue_stages:
            assert stage.transmitter.mode == MODE_PACKET

    def test_transmitters_restored_after_run(self):
        ents = _two_udp()
        dummy = Dumbbell(DumbbellConfig(
            num_left=1, num_right=1, bottleneck_rate_bps=BOTTLENECK,
        ))
        flow = UdpFlow(dummy.network, "h-l0", "h-r0", rate_bps=BOTTLENECK)
        engine = FluidEngine(dummy.network, [flow])
        engine.run(until=5e-3)
        for stage in engine._queue_stages:
            assert stage.transmitter.mode == MODE_PACKET
        # The run can continue per-packet afterwards.
        dummy.network.run(until=6e-3)
        assert flow.sink.delivered_bytes > 0
        del ents


class TestEligibility:
    def test_non_udp_entities_rejected(self):
        ents = [EntitySpec(name="T", cc="cubic")]
        with pytest.raises(ConfigurationError):
            run_fluid_share(ents, "aq", duration=5e-3, fluid=True)

    def test_timewin_recorder_forces_packet_mode(self):
        dumbbell = Dumbbell(DumbbellConfig(
            num_left=1, num_right=1, bottleneck_rate_bps=BOTTLENECK,
        ))
        tele = Telemetry(enabled=True)
        tele.enable_time_windows()
        with tele.activate():
            network = Dumbbell(DumbbellConfig(
                num_left=1, num_right=1, bottleneck_rate_bps=BOTTLENECK,
            )).network
            flow = UdpFlow(network, "h-l0", "h-r0", rate_bps=BOTTLENECK)
            engine = FluidEngine(network, [flow])
            assert engine.static_reason is not None
            assert "time-window" in engine.static_reason
            engine.run(until=2e-3)
        tele.close()
        assert engine.epochs == 0
        assert flow.sink.delivered_bytes > 0
        del dumbbell

    def test_no_flows_rejected(self):
        dumbbell = Dumbbell(DumbbellConfig(
            num_left=1, num_right=1, bottleneck_rate_bps=BOTTLENECK,
        ))
        engine = FluidEngine(dumbbell.network, [])
        assert engine.static_reason == "no flows registered"

    def test_sharded_partition_is_rejected(self):
        """docs/SCALING.md §7: a fluid epoch would carry a cut link past the
        barrier, so the engine refuses any network holding one — even the
        single partition of a ``shards=1`` run, whose agg<->core links are
        capture/import pairs too."""
        from repro.harness.fabric import build_fabric_partition

        runtime, _ = build_fabric_partition(
            partition=0, shards=1, pods=2, tors_per_pod=1, hosts_per_tor=2,
        )
        with pytest.raises(ConfigurationError, match="agg0->core0 is a cut link"):
            FluidEngine(runtime.network, [])

    def test_mode_constants_exported(self):
        assert MODE_FLUID == "fluid"
        assert MODE_PACKET == "packet"
