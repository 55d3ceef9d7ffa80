"""Tests for the INT flight recorder (repro.obs.flightrec).

Unit coverage of hop records, flight attribution, and the JSONL
interchange, plus the integration properties the ISSUE pins down:

* an over-limit UDP flow's drop is attributed to the exact AQ, with its
  deployment position and the A-Gap value at the drop decision;
* receivers echo a flight digest back to the sender on ACKs;
* enabling the recorder + auditor is *neutral* — a fig8-style job
  produces a bit-identical results digest with and without them.
"""

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.harness.common import EntitySpec
from repro.harness.runner import JobResult, results_digest
from repro.harness.scenarios import run_longlived_share
from repro.net.packet import make_data
from repro.obs import (
    Flight,
    FlightIndex,
    FlightRecorder,
    Telemetry,
    read_flights_jsonl,
    stitch_flight_dumps,
)
from repro.obs.flightrec import HopRecord, JsonlFlightSink
from repro.units import gbps

SHORT = dict(bottleneck_bps=gbps(1), duration=40e-3, warmup=15e-3)


# -- hop records & flights ---------------------------------------------------------


class TestHopRecord:
    def test_to_dict_omits_none(self):
        hop = HopRecord("queue", "s0.p0", 1.0, depth=3000.0)
        assert hop.to_dict() == {
            "kind": "queue", "node": "s0.p0", "t_in": 1.0, "depth": 3000.0,
        }

    def test_dict_round_trip(self):
        hop = HopRecord(
            "aq", "ent", 0.5, aq_id=7, position="ingress",
            agap=1.2e6, limit=1.0e6, reason="rate_limit",
        )
        clone = HopRecord.from_dict(hop.to_dict())
        assert clone.to_dict() == hop.to_dict()


class TestFlightAttribution:
    def _flight(self, status, hops, end_node=""):
        return Flight(
            packet_id=42, flow_id=3, src="h0", dst="h1", kind=0, size=1500,
            status=status, t_start=0.0, t_end=1e-3, hops=hops,
            end_node=end_node,
        )

    def test_delivered_attribution(self):
        flight = self._flight("delivered", [
            HopRecord("host", "h0", 0.0),
            HopRecord("queue", "s0.p0", 1e-4, t_out=2e-4),
        ])
        line = flight.attribution()
        assert "packet #42 flow 3 delivered h0->h1" in line
        assert "2 hops" in line

    def test_aq_drop_names_aq_position_and_agap(self):
        flight = self._flight("dropped", [
            HopRecord("host", "h0", 0.0),
            HopRecord("aq", "tenant-a", 5e-4, aq_id=7, position="ingress",
                      agap=1.2e6, limit=1.0e6, reason="rate_limit"),
        ], end_node="s0")
        line = flight.attribution()
        assert "dropped at s0 by AQ 7 rate-limit (ingress)" in line
        assert "A=1.2MB > limit 1.0MB" in line

    def test_buffer_drop_names_queue_and_backlog(self):
        flight = self._flight("dropped", [
            HopRecord("host", "h0", 0.0),
            HopRecord("drop", "s0.p1", 5e-4, depth=300_000.0, reason="buffer"),
        ], end_node="s0.p1")
        line = flight.attribution()
        assert "dropped at s0.p1 (buffer, backlog 300.0KB)" in line

    def test_flight_round_trips_through_dict(self):
        flight = self._flight("dropped", [
            HopRecord("drop", "q", 1e-4, reason="red"),
        ], end_node="q")
        clone = Flight.from_dict(flight.to_dict())
        assert clone.to_dict() == flight.to_dict()
        assert clone.drop_hop.reason == "red"


# -- recorder lifecycle ------------------------------------------------------------


class TestFlightRecorder:
    def _packet(self):
        return make_data("h0", "h1", flow_id=5, seq=0, size=1500)

    def test_lifecycle_builds_hops_in_order(self):
        rec = FlightRecorder()
        packet = self._packet()
        rec.start(packet, 0.0)
        rec.queue_hop(packet, "h0.nic", 1e-5, depth=1500.0)
        rec.queue_exit(packet, "h0.nic", 2e-5)
        rec.aq_hop(packet, "ent", 3e-5, aq_id=1, position="ingress",
                   agap=500.0, limit=None, ecn=False, dropped=False)
        flight = rec.complete(packet, 4e-5, "delivered", node="h1")
        assert flight.path == ("h0", "h0.nic", "ent")
        assert flight.hops[1].t_out == pytest.approx(2e-5)
        assert flight.latency == pytest.approx(4e-5)
        assert flight.end_node == "h1"
        assert packet.flight is None

    def test_complete_is_idempotent(self):
        rec = FlightRecorder()
        packet = self._packet()
        rec.start(packet, 0.0)
        assert rec.complete(packet, 1e-5, "delivered") is not None
        assert rec.complete(packet, 2e-5, "delivered") is None
        assert rec.flights_completed == 1

    def test_digest_of_sums_queue_wait(self):
        rec = FlightRecorder()
        packet = self._packet()
        rec.start(packet, 0.0)
        rec.queue_hop(packet, "a", 0.0, depth=0.0)
        rec.queue_exit(packet, "a", 3e-5)
        rec.queue_hop(packet, "b", 4e-5, depth=0.0)
        rec.queue_exit(packet, "b", 6e-5)
        digest = rec.digest_of(packet)
        assert digest["hops"] == 3
        assert digest["queue_wait_s"] == pytest.approx(5e-5)
        assert rec.digest_of(self._packet()) is None  # un-armed packet

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "flights.jsonl")
        rec = FlightRecorder()
        rec.add_jsonl(path)
        for i in range(3):
            packet = make_data("h0", "h1", flow_id=i, seq=0, size=1000)
            rec.start(packet, 0.0)
            rec.complete(packet, 1e-3, "delivered", node="h1")
        rec.close()
        restored = list(read_flights_jsonl(path))
        assert [f.flow_id for f in restored] == [0, 1, 2]
        assert all(f.status == "delivered" for f in restored)

    def test_jsonl_sink_counts(self, tmp_path):
        sink = JsonlFlightSink(str(tmp_path / "f.jsonl"))
        sink.handle_flight(Flight(1, 1, "a", "b", 0, 100, "delivered",
                                  0.0, 1.0, []))
        sink.close()
        assert sink.flights_written == 1

    def test_open_flight_sweep_is_amortized(self):
        # 20k packets that never complete: a fixed sweep threshold would
        # rebuild the open list on every start() past 4096 (quadratic);
        # doubling keeps it to a handful of sweeps.
        rec = FlightRecorder()
        packets = [self._packet() for _ in range(20_000)]
        for packet in packets:
            rec.start(packet, 0.0)
        assert rec.compactions <= 4
        assert rec.finalize() == 20_000
        assert rec.index.unfinished == 20_000
        assert all(p.flight is None for p in packets)

    def test_open_flight_sweep_still_drops_sealed_packets(self):
        rec = FlightRecorder()
        for _ in range(20_000):
            packet = self._packet()
            rec.start(packet, 0.0)
            rec.complete(packet, 1e-5, "delivered")
        assert rec.compactions >= 4
        assert len(rec._open) <= 4097
        assert rec.finalize() == 0


class TestTornFlightDumps:
    """A killed ``--flight-record`` run leaves a truncated final line."""

    @pytest.fixture
    def torn(self, tmp_path):
        path = str(tmp_path / "flights.jsonl")
        rec = FlightRecorder()
        rec.add_jsonl(path)
        for i in range(3):
            packet = make_data("h0", "h1", flow_id=i, seq=0, size=1000)
            rec.start(packet, 0.0)
            rec.complete(packet, 1e-3, "delivered", node="h1")
        rec.close()
        with open(path, "r+", encoding="utf-8") as fh:
            text = fh.read()
            fh.seek(0)
            fh.truncate()
            fh.write(text[:-40])
        return path

    def test_strict_names_path_and_line(self, torn):
        with pytest.raises(ConfigurationError, match=r"flights\.jsonl:3"):
            list(read_flights_jsonl(torn))

    def test_tolerant_skips_and_reports(self, torn):
        skipped = []
        flights = list(read_flights_jsonl(
            torn, strict=False, on_skip=lambda lineno, detail: skipped.append(lineno),
        ))
        assert [f.flow_id for f in flights] == [0, 1]
        assert skipped == [3]

    def test_tolerant_skips_non_flight_records(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text(
            '[1,2]\n'                  # not an object
            '{"flow_id":1}\n'          # missing required keys
            '{"packet_id":1,"flow_id":2,"status":"x","hops":[3]}\n'  # hop not an object
        )
        assert list(read_flights_jsonl(str(path), strict=False)) == []

    def test_stitch_stays_strict(self, torn):
        with pytest.raises(ConfigurationError, match="flights.jsonl:3"):
            stitch_flight_dumps([torn])

    def test_cli_warns_once_with_the_count(self, torn, capsys):
        assert main(["telemetry", "flights", torn]) == 0
        captured = capsys.readouterr()
        assert "2 flights: 2 delivered" in captured.out
        warnings = [ln for ln in captured.err.splitlines() if "warning" in ln]
        assert len(warnings) == 1
        assert "skipped 1 bad line(s)" in warnings[0]


class TestFlightIndex:
    def test_caps_retained_flights(self):
        index = FlightIndex(max_flights=2, max_drops=2)
        for i in range(5):
            index.handle_flight(Flight(i, 1, "a", "b", 0, 100, "dropped",
                                       0.0, 1.0, []))
        assert index.total == 5 and index.dropped == 5
        assert len(index.flights) == 2 and len(index.drops) == 2

    def test_path_and_latency_aggregation(self):
        index = FlightIndex()
        hops = [HopRecord("host", "h0", 0.0),
                HopRecord("queue", "q", 1e-4, t_out=3e-4)]
        index.handle_flight(Flight(1, 9, "h0", "h1", 0, 100, "delivered",
                                   0.0, 1e-3, hops))
        assert index.path_for(9) == ("h0", "q")
        assert index.mean_latency(9) == pytest.approx(1e-3)
        assert index.mean_latency(8) is None
        waits = index.hop_latency()
        assert waits["q"]["visits"] == 1
        assert waits["q"]["mean_wait_s"] == pytest.approx(2e-4)

    def test_note_echo_keeps_latest(self):
        index = FlightIndex()
        index.note_echo(4, {"hops": 3, "queue_wait_s": 1e-4}, now=0.5)
        index.note_echo(4, {"hops": 4, "queue_wait_s": 2e-4}, now=0.7)
        assert index.echoes[4]["hops"] == 4
        assert index.echoes[4]["echoed_at"] == 0.7


# -- integration: real scenarios ---------------------------------------------------


class TestFlightRecordingIntegration:
    @pytest.fixture(scope="class")
    def recorded_run(self):
        tele = Telemetry()
        rec = tele.enable_flight_recording()
        with tele.activate():
            result = run_longlived_share(
                [EntitySpec("tcp", cc="dctcp", num_flows=2),
                 EntitySpec("udp", cc="udp")],
                approach="aq", **SHORT,
            )
        tele.close()
        return rec.index, result

    def test_flights_complete_and_paths_reconstruct(self, recorded_run):
        index, _ = recorded_run
        assert index.delivered > 1000
        # Every delivered data path crosses host -> NIC -> two switch ports.
        for flow_id in index.paths_by_flow:
            path = index.path_for(flow_id)
            assert len(path) >= 3
            assert path[1].endswith(".nic")

    def test_over_limit_udp_drop_names_exact_aq(self, recorded_run):
        """Satellite: drop attribution must name the AQ, its deployment
        position, and the A-Gap value that exceeded the limit."""
        index, result = recorded_run
        udp_aq = result.env.grants["udp"]
        aq_drops = [f for f in index.drops
                    if f.drop_hop is not None
                    and f.drop_hop.aq_id == udp_aq.aq_id]
        assert aq_drops, "over-limit UDP must be rate-limit dropped by its AQ"
        hop = aq_drops[-1].drop_hop
        assert hop.position == "ingress"
        assert hop.reason == "rate_limit"
        assert hop.limit is not None and hop.agap > hop.limit
        line = aq_drops[-1].attribution()
        assert f"AQ {udp_aq.aq_id} rate-limit (ingress)" in line
        assert "A=" in line and "limit" in line

    def test_receiver_echoes_digest_on_acks(self, recorded_run):
        index, _ = recorded_run
        # Both dctcp flows (ids 1 and 2) must have echoed digests back.
        assert index.echoes, "no flight digests were echoed on ACKs"
        for digest in index.echoes.values():
            assert digest["hops"] >= 3
            assert digest["queue_wait_s"] >= 0.0


class TestInstrumentationNeutrality:
    def test_fig8_job_digest_identical_with_and_without_observability(self):
        """Satellite: recorder + auditor must not perturb the simulation.
        The deterministic results digest of a fig8-style job has to be
        bit-identical either way."""
        from repro.harness.scenarios import run_flow_count

        kwargs = dict(flows_b=4, weight_b=1.0, approach="aq",
                      bottleneck_bps=gbps(1), duration=30e-3, warmup=10e-3)

        plain = run_flow_count(**kwargs)

        tele = Telemetry()
        tele.enable_flight_recording()
        auditor = tele.enable_audit()
        with tele.activate():
            observed = run_flow_count(**kwargs)
        tele.close()

        assert not auditor.finish(), "audited fig8 run must be clean"
        wrap = lambda r: [JobResult(name="fig8", status="ok", attempts=1,
                                    wall_s=0.0, result=r)]
        assert results_digest(wrap(plain)) == results_digest(wrap(observed))
