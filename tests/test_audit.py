"""Tests for the conservation-law run auditor (repro.obs.audit).

Each invariant gets a synthetic event stream that (a) passes when the
bookkeeping is consistent and (b) trips exactly the right violation when
it is not. The integration half corrupts a real queue on purpose and
checks the auditor names ``queue_conservation``, and audits a clean
packet-level run end to end.
"""

import pytest

from repro.harness.scenarios import run_cc_pair
from repro.net.packet import make_data
from repro.obs import AuditError, RunAuditor, Telemetry, TraceEvent
from repro.obs.events import (
    EV_AGAP_UPDATE,
    EV_AQ_RATE,
    EV_DELIVER,
    EV_DEQUEUE,
    EV_DROP,
    EV_ENQUEUE,
    EV_GATE,
    EV_HOST_SEND,
    EV_RATE_LIMIT,
)
from repro.queues.fifo import PhysicalFifoQueue
from repro.sim.engine import Simulator
from repro.units import gbps

SHORT = dict(bottleneck_bps=gbps(1), duration=40e-3, warmup=15e-3)


def feed(auditor, *events):
    for event in events:
        auditor.handle(event)


def invariants(auditor):
    return [v.invariant for v in auditor.violations]


# -- flow conservation -------------------------------------------------------------


class TestFlowConservation:
    def test_clean_ledger_passes(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_HOST_SEND, 0.0, node="h0", flow_id=1, size=1000),
             TraceEvent(EV_HOST_SEND, 0.1, node="h0", flow_id=1, size=1000),
             TraceEvent(EV_DELIVER, 0.2, node="h1", flow_id=1, size=1000),
             TraceEvent(EV_DROP, 0.3, node="q", flow_id=1, size=1000))
        assert auditor.finish() == []

    def test_delivering_more_than_injected_violates(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_HOST_SEND, 0.0, node="h0", flow_id=1, size=1000),
             TraceEvent(EV_DELIVER, 0.1, node="h1", flow_id=1, size=1000),
             TraceEvent(EV_DELIVER, 0.2, node="h1", flow_id=1, size=1000))
        assert invariants(auditor) == ["flow_conservation"]
        assert "exceed" in auditor.violations[0].message

    def test_aq_rate_limit_drop_counts_against_flow(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_HOST_SEND, 0.0, node="h0", flow_id=2, size=1000),
             TraceEvent(EV_RATE_LIMIT, 0.1, flow_id=2, aq_id=3, size=1000),
             TraceEvent(EV_RATE_LIMIT, 0.2, flow_id=2, aq_id=3, size=1000))
        assert invariants(auditor) == ["flow_conservation"]

    def test_shaper_rate_limit_is_pre_injection_and_excluded(self):
        auditor = RunAuditor()
        # A shaper discard (no aq_id) never entered the network, so it
        # must not count against the flow's in-flight ledger.
        feed(auditor,
             TraceEvent(EV_RATE_LIMIT, 0.1, node="shaper", flow_id=2,
                        size=1000, reason="shaper"))
        assert auditor.finish() == []

    def test_finish_flags_negative_remainder(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_HOST_SEND, 0.0, node="h0", flow_id=1, size=1000),
             TraceEvent(EV_DELIVER, 0.1, node="h1", flow_id=1, size=600),
             TraceEvent(EV_DROP, 0.2, node="q", flow_id=1, size=600))
        assert invariants(auditor) == ["flow_conservation"]
        assert auditor.finish() is auditor.violations  # idempotent


# -- queue conservation & occupancy ------------------------------------------------


class TestQueueInvariants:
    def test_consistent_backlog_passes(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_ENQUEUE, 0.0, node="q0", size=1000, value=1000.0),
             TraceEvent(EV_ENQUEUE, 0.1, node="q0", size=500, value=1500.0),
             TraceEvent(EV_DEQUEUE, 0.2, node="q0", size=1000, value=500.0),
             TraceEvent(EV_DEQUEUE, 0.3, node="q0", size=500, value=0.0))
        assert auditor.finish() == []

    def test_reported_backlog_mismatch_violates_once_then_reanchors(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_ENQUEUE, 0.0, node="q0", size=1000, value=1000.0),
             # The queue claims 2500B but only 2000B were ever enqueued.
             TraceEvent(EV_ENQUEUE, 0.1, node="q0", size=1000, value=2500.0),
             # Consistent with the *reported* anchor from here on.
             TraceEvent(EV_DEQUEUE, 0.2, node="q0", size=1000, value=1500.0))
        assert invariants(auditor) == ["queue_conservation"]

    def test_negative_backlog_violates_occupancy(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_DEQUEUE, 0.0, node="q0", size=1000, value=0.0))
        assert invariants(auditor) == ["queue_occupancy"]
        assert "negative" in auditor.violations[0].message

    def test_capacity_bound_enforced_when_registered(self):
        auditor = RunAuditor()
        auditor.register_queue_limit("q0", 1500)
        feed(auditor,
             TraceEvent(EV_ENQUEUE, 0.0, node="q0", size=1000, value=1000.0),
             TraceEvent(EV_ENQUEUE, 0.1, node="q0", size=1000, value=2000.0))
        assert invariants(auditor) == ["queue_occupancy"]
        assert "capacity" in auditor.violations[0].message

    def test_unnamed_queues_are_not_audited(self):
        auditor = RunAuditor()
        feed(auditor, TraceEvent(EV_DEQUEUE, 0.0, node="", size=1000, value=0.0))
        assert auditor.finish() == []


# -- A-Gap recurrence replay -------------------------------------------------------


class TestAgapRecurrence:
    RATE = 8e6  # bps -> drains 1e6 B/s

    def test_consistent_recurrence_passes(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_AQ_RATE, 0.0, aq_id=1, value=self.RATE),
             # gap: 0 -> +1000
             TraceEvent(EV_AGAP_UPDATE, 1e-3, aq_id=1, size=1000, value=1000.0),
             # drains 1000B in 1ms -> 0, then +1000
             TraceEvent(EV_AGAP_UPDATE, 2e-3, aq_id=1, size=1000, value=1000.0))
        assert auditor.finish() == []

    def test_wrong_reported_gap_violates(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_AQ_RATE, 0.0, aq_id=1, value=self.RATE),
             TraceEvent(EV_AGAP_UPDATE, 1e-3, aq_id=1, size=1000, value=1000.0),
             TraceEvent(EV_AGAP_UPDATE, 2e-3, aq_id=1, size=1000, value=5000.0))
        assert invariants(auditor) == ["agap_recurrence"]
        assert "Theorem 3.2" in auditor.violations[0].message

    def test_replay_adopts_reported_value_one_fault_one_violation(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_AQ_RATE, 0.0, aq_id=1, value=self.RATE),
             TraceEvent(EV_AGAP_UPDATE, 1e-3, aq_id=1, size=1000, value=5000.0),
             # Consistent with the adopted 5000B anchor: 5000 - 1000 + 1000.
             TraceEvent(EV_AGAP_UPDATE, 2e-3, aq_id=1, size=1000, value=5000.0))
        assert invariants(auditor) == ["agap_recurrence"]

    def test_rate_limit_undo_is_replayed(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_AQ_RATE, 0.0, aq_id=1, value=self.RATE),
             TraceEvent(EV_AGAP_UPDATE, 1e-3, aq_id=1, size=1000, value=1000.0),
             # Limit drop: the AQ takes the arrival back out of the gap.
             TraceEvent(EV_RATE_LIMIT, 1e-3, flow_id=1, aq_id=1, size=1000),
             # 0B gap drains to 0, next arrival lands on +1000.
             TraceEvent(EV_AGAP_UPDATE, 2e-3, aq_id=1, size=1000, value=1000.0))
        # Only the flow ledger (no host_send) would complain; filter for agap.
        assert "agap_recurrence" not in invariants(auditor)

    def test_updates_before_any_rate_are_not_checkable(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_AGAP_UPDATE, 1e-3, aq_id=1, size=1000, value=777.0))
        assert auditor.finish() == []


# -- work-conserving gate ----------------------------------------------------------


class TestGateWorkConservation:
    def test_consistent_decisions_pass(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_GATE, 0.0, node="s0.p0.wc-gate", size=1000,
                        value=500.0, reason="bypass"),
             TraceEvent(EV_GATE, 0.1, node="s0.p0.wc-gate", size=1000,
                        value=2000.0, reason="enforce"))
        assert auditor.finish() == []

    def test_enforce_below_threshold_violates(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_GATE, 0.0, node="s0.p0.wc-gate", size=1000,
                        value=500.0, reason="enforce"))
        assert invariants(auditor) == ["gate_work_conservation"]

    def test_bypass_above_threshold_violates(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_GATE, 0.0, node="s0.p0.wc-gate", size=1000,
                        value=2000.0, reason="bypass"))
        assert invariants(auditor) == ["gate_work_conservation"]


# -- fault attribution -------------------------------------------------------------


class TestFaultAttribution:
    def test_restart_drain_shrinks_derived_backlog(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_ENQUEUE, 0.0, node="q0", size=1000, value=1000.0),
             TraceEvent(EV_ENQUEUE, 0.1, node="q0", size=1000, value=2000.0),
             # A restart drains both buffered packets: each drop carries
             # the post-pop backlog, and the ledger must follow it down.
             TraceEvent(EV_DROP, 0.2, node="q0", size=1000, value=1000.0,
                        reason="switch_restart"),
             TraceEvent(EV_DROP, 0.2, node="q0", size=1000, value=0.0,
                        reason="switch_restart"),
             # Post-restart traffic re-verifies against the drained ledger.
             TraceEvent(EV_ENQUEUE, 0.3, node="q0", size=500, value=500.0))
        assert auditor.finish() == []
        assert auditor.fault_dropped_packets == {"switch_restart": 2}
        assert auditor.fault_dropped_bytes == {"switch_restart": 2000}

    def test_restart_drain_with_wrong_reported_backlog_violates(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_ENQUEUE, 0.0, node="q0", size=1000, value=1000.0),
             # The drain claims 700B remain, but history says 0.
             TraceEvent(EV_DROP, 0.1, node="q0", size=1000, value=700.0,
                        reason="switch_restart"))
        assert invariants(auditor) == ["queue_conservation"]

    def test_link_down_drops_are_attributed_but_not_queue_ops(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_HOST_SEND, 0.0, node="h0", flow_id=1, size=1000),
             # A link-down drop never sat in an audited queue: it must be
             # charged to the fault and to the flow, but not to a backlog.
             TraceEvent(EV_DROP, 0.1, node="s0->h1", flow_id=1, size=1000,
                        reason="link_down"))
        assert auditor.finish() == []
        assert auditor.fault_dropped_packets == {"link_down": 1}
        report = auditor.report()
        assert report["faults"]["attributed_dropped_bytes"] == {"link_down": 1000}
        assert report["flows"]["1"]["in_flight_bytes"] == 0

    def test_aq_state_lost_resets_recurrence_replay(self):
        from repro.obs.events import EV_FAULT

        auditor = RunAuditor()
        rate = 8e6  # drains 1e6 B/s
        feed(auditor,
             TraceEvent(EV_AQ_RATE, 0.0, aq_id=1, value=rate),
             TraceEvent(EV_AGAP_UPDATE, 1e-3, aq_id=1, size=1000, value=1000.0),
             # Registers wiped: the next update would be inconsistent with
             # the replay, but the reset makes it uncheckable until the
             # redeploy re-announces a rate.
             TraceEvent(EV_FAULT, 2e-3, aq_id=1, reason="aq_state_lost"),
             TraceEvent(EV_AGAP_UPDATE, 3e-3, aq_id=1, size=1000, value=1000.0),
             # Redeploy: replay restarts from scratch and checks again.
             TraceEvent(EV_AQ_RATE, 4e-3, aq_id=1, value=rate),
             TraceEvent(EV_AGAP_UPDATE, 5e-3, aq_id=1, size=1000, value=1000.0),
             TraceEvent(EV_AGAP_UPDATE, 6e-3, aq_id=1, size=1000, value=1000.0))
        assert auditor.finish() == []
        assert auditor.fault_events == {"aq_state_lost": 1}

    def test_report_omits_faults_section_on_fault_free_runs(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_HOST_SEND, 0.0, node="h0", flow_id=1, size=1000),
             TraceEvent(EV_DELIVER, 0.1, node="h1", flow_id=1, size=1000))
        assert "faults" not in auditor.report()


# -- machinery ---------------------------------------------------------------------


class TestAuditorMachinery:
    def test_strict_mode_raises_on_first_violation(self):
        auditor = RunAuditor(strict=True)
        with pytest.raises(AuditError, match="queue_occupancy"):
            auditor.handle(TraceEvent(EV_DEQUEUE, 0.0, node="q0",
                                      size=1000, value=0.0))

    def test_violation_carries_event_window(self):
        auditor = RunAuditor(window=4)
        for i in range(6):
            auditor.handle(TraceEvent(EV_ENQUEUE, i * 0.1, node="q0",
                                      size=100, value=float((i + 1) * 100)))
        auditor.handle(TraceEvent(EV_DEQUEUE, 0.9, node="q0",
                                  size=100, value=9999.0))
        violation = auditor.violations[0]
        assert violation.invariant == "queue_conservation"
        assert len(violation.window) == 4
        assert violation.window[-1]["value"] == 9999.0
        assert violation.to_dict()["subject"] == "q0"

    def test_max_violations_caps_accumulation(self):
        auditor = RunAuditor(max_violations=3)
        for i in range(10):
            auditor.handle(TraceEvent(EV_DEQUEUE, i * 0.1, node=f"q{i}",
                                      size=100, value=None))
        assert len(auditor.violations) == 3

    def test_report_is_json_safe_summary(self):
        import json

        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_HOST_SEND, 0.0, node="h0", flow_id=1, size=1000),
             TraceEvent(EV_DELIVER, 0.1, node="h1", flow_id=1, size=1000))
        report = auditor.report()
        assert report["events_seen"] == 2
        assert report["violation_count"] == 0
        assert report["flows"]["1"]["in_flight_bytes"] == 0
        json.dumps(report)  # must serialize


# -- one ledger per simulation -----------------------------------------------------


class TestLedgerPerRun:
    """Queue names, flow ids and AQ ids repeat across the runs of one
    session, so each new Simulator bound to the telemetry opens a fresh
    ledger; verdicts accumulate."""

    def test_new_simulator_opens_a_fresh_ledger(self):
        tele = Telemetry()
        auditor = tele.enable_audit()
        Simulator(telemetry=tele)
        feed(auditor,
             TraceEvent(EV_ENQUEUE, 0.0, node="q0", size=1000, value=1000.0),
             TraceEvent(EV_AQ_RATE, 0.0, aq_id=1, value=8e6),
             TraceEvent(EV_AGAP_UPDATE, 0.0, aq_id=1, size=1000, value=1000.0),
             TraceEvent(EV_HOST_SEND, 0.0, node="h0", flow_id=1, size=1000))
        Simulator(telemetry=tele)
        # The same names from t=0 again: a shared ledger would see q0 at
        # 2000B, a gap that never drained, and flow 1 over-delivered.
        feed(auditor,
             TraceEvent(EV_ENQUEUE, 0.0, node="q0", size=1000, value=1000.0),
             TraceEvent(EV_AQ_RATE, 0.0, aq_id=1, value=8e6),
             TraceEvent(EV_AGAP_UPDATE, 0.0, aq_id=1, size=1000, value=1000.0),
             TraceEvent(EV_HOST_SEND, 0.0, node="h0", flow_id=1, size=1000),
             TraceEvent(EV_DELIVER, 0.1, node="h1", flow_id=1, size=1000))
        report = auditor.report()
        assert report["violation_count"] == 0
        assert report["events_seen"] == 9  # accumulates across ledgers
        assert report["flows"]["1"]["in_flight_bytes"] == 0  # the last run's

    def test_break_in_second_run_is_still_reported(self):
        tele = Telemetry()
        auditor = tele.enable_audit()
        with tele.activate():
            run_cc_pair("dctcp", 2, "udp", 1, "aq", **SHORT)
            assert auditor.violations == []
            sim = Simulator()
            queue = _PilferingQueue(limit_bytes=1 << 20, name="s-left.s-right",
                                    telemetry=sim.telemetry)
            for i in range(4):
                queue.enqueue(make_data("h0", "h1", flow_id=1, seq=i * 1000,
                                        size=1000), now=i * 1e-4)
            while queue.dequeue(now=1e-3) is not None:
                pass
            # ... and a third run does not forget the verdict.
            Simulator()
        assert invariants(auditor) == ["queue_conservation"]
        assert auditor.violations[0].subject == "s-left.s-right"

    def test_end_of_run_checks_fire_when_the_next_run_begins(self):
        auditor = RunAuditor()
        feed(auditor,
             TraceEvent(EV_HOST_SEND, 0.0, node="h0", flow_id=1, size=1000))
        auditor._flows[1].delivered_bytes = 2000  # only finish() can notice
        auditor.begin_run()
        assert invariants(auditor) == ["flow_conservation"]
        assert "end of run" in auditor.violations[0].message


# -- integration -------------------------------------------------------------------


class _PilferingQueue(PhysicalFifoQueue):
    """Test-only corruption: silently steals one queued packet — no trace
    event, no stats — so the reported backlog diverges from the
    enqueue/dequeue history by exactly one packet."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._stolen = False

    def dequeue(self, now):
        packet = super().dequeue(now)
        if not self._stolen and self._queue:
            victim = self._queue.popleft()
            self._bytes -= victim.size
            self._stolen = True
        return packet


class TestAuditIntegration:
    def test_corrupted_queue_is_caught_with_correct_invariant(self):
        tele = Telemetry()
        auditor = tele.enable_audit()
        queue = _PilferingQueue(limit_bytes=1 << 20, name="evil.q0",
                                telemetry=tele)
        for i in range(4):
            queue.enqueue(make_data("h0", "h1", flow_id=1, seq=i * 1000,
                                    size=1000), now=i * 1e-4)
        while queue.dequeue(now=1e-3) is not None:
            pass
        assert invariants(auditor) == ["queue_conservation"]
        violation = auditor.violations[0]
        assert violation.subject == "evil.q0"
        assert "enqueue/dequeue history" in violation.message

    def test_clean_aq_run_audits_clean(self):
        tele = Telemetry()
        auditor = tele.enable_audit()
        with tele.activate():
            run_cc_pair("dctcp", 2, "udp", 1, "aq", **SHORT)
        tele.close()
        assert auditor.events_seen > 10_000
        assert auditor.finish() == []

    def test_clean_pq_run_audits_clean(self):
        tele = Telemetry()
        auditor = tele.enable_audit()
        with tele.activate():
            run_cc_pair("cubic", 2, "udp", 1, "pq", **SHORT)
        tele.close()
        assert auditor.finish() == []
