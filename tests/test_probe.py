"""The probe seam: every component reports through one construction-bound
:class:`repro.obs.probe.Probe`, and a discipline that does so is traced,
audited, flight-recorded and windowed with no observability code of its own.
"""

import hashlib
import itertools

import pytest

from repro.harness.common import EntitySpec, telemetry_session
from repro.harness.scenarios import run_longlived_share
from repro.net import packet as packet_module
from repro.net.packet import make_udp
from repro.obs import FlightCollector, Telemetry, crosscheck_with_flights
from repro.obs.probe import bind_probe
from repro.queues.base import QueueDiscipline
from repro.queues.fifo import PhysicalFifoQueue
from repro.queues.multiqueue import MultiQueuePort
from repro.queues.perflow import PerFlowQueue
from repro.units import gbps

SIZE = 1000


class ToyLifo(QueueDiscipline):
    """A discipline written against the base class alone (no obs import)."""

    def __init__(self, limit_packets, name="", telemetry=None):
        super().__init__(name, telemetry)
        self.limit_packets = limit_packets
        self._stack = []

    def enqueue(self, packet, now):
        if len(self._stack) >= self.limit_packets:
            if self._probe is not None:
                self._probe.dropped(packet, now, "buffer", float(self.bytes_queued))
            return False
        self._stack.append(packet)
        if self._probe is not None:
            self._probe.enqueued(packet, now, float(self.bytes_queued))
        return True

    def dequeue(self, now):
        if not self._stack:
            return None
        packet = self._stack.pop()
        if self._probe is not None:
            self._probe.dequeued(packet, now, float(self.bytes_queued))
        return packet

    bytes_queued = property(lambda self: sum(p.size for p in self._stack))
    packets_queued = property(lambda self: len(self._stack))


def full_plane():
    """Telemetry with the trace ring, flights, windows and the auditor on."""
    tele = Telemetry()
    ring = tele.add_ring()
    flights = tele.enable_flight_recording().attach(FlightCollector())
    tele.enable_time_windows(window_s=1e-3)
    tele.enable_audit()
    return tele, ring, flights


DISCIPLINES = {
    "fifo": lambda tele: PhysicalFifoQueue(8 * SIZE, name="p", telemetry=tele),
    "perflow": lambda tele: PerFlowQueue(4 * SIZE, name="p", telemetry=tele),
    "multiqueue": lambda tele: MultiQueuePort(
        2, 4 * SIZE, classifier=lambda p: p.flow_id % 2, name="p", telemetry=tele
    ),
}


PACKETS = 12  # two flows, more than any of the buffers above holds


def offer_and_serve(queue, tele, served):
    """Offer ``PACKETS`` armed packets, then serve ``served`` of them."""
    host = bind_probe(tele, "h0")
    now = 0.0
    for i in range(PACKETS):
        packet = make_udp("h0", "h1", flow_id=1 + i % 2, size=SIZE)
        now += 1e-4
        host.sent(packet, now)
        queue.enqueue(packet, now)
    out = [queue.dequeue(now + 1e-4 * (i + 1)) for i in range(served)]
    assert all(p is not None for p in out)
    return out


def check_plane(tele, ring, collector, served, drained):
    """Zero audit violations, one trace event per queue operation, every
    flight ``host -> queue -> (drop | exit)``, windows equal to flights."""
    tele.close()
    verdict = tele.auditor.report()
    assert verdict["violation_count"] == 0, verdict["violations"]

    assert len(ring.of_type("enqueue")) == served + drained
    assert len(ring.of_type("dequeue")) == served
    restart = [e for e in ring.of_type("drop") if e.reason == "switch_restart"]
    assert len(restart) == drained

    assert len(collector.flights) == PACKETS
    for flight in collector.flights:
        kinds = [hop.kind for hop in flight.hops]
        if kinds == ["host", "drop"]:  # refused at the tail
            assert flight.status == "dropped"
            continue
        assert kinds[:2] == ["host", "queue"], kinds
        if flight.status == "dropped":  # drained by the restart
            assert kinds[2:] == ["drop"] and flight.hops[1].t_out is None
        else:  # served; nothing downstream sealed it, so close() did
            assert kinds[2:] == [] and flight.hops[1].t_out is not None

    check = crosscheck_with_flights(tele.timewin, collector.flights)
    assert check["ok"], check["mismatches"]
    assert check["windows_checked"] >= 2 and not check["ports_skipped_unknown"]


@pytest.mark.parametrize("kind", sorted(DISCIPLINES))
def test_restart_drain_is_audit_clean_on_every_discipline(kind):
    tele, ring, collector = full_plane()
    queue = DISCIPLINES[kind](tele)
    served = offer_and_serve(queue, tele, served=3)
    drained = queue.drain(2e-3)
    assert drained and queue.is_empty
    check_plane(tele, ring, collector, len(served), len(drained))


def test_new_discipline_inherits_the_whole_plane():
    tele, ring, collector = full_plane()
    queue = ToyLifo(8, name="p", telemetry=tele)
    served = offer_and_serve(queue, tele, served=8)
    assert queue.is_empty
    check_plane(tele, ring, collector, len(served), 0)


def test_telemetry_off_binds_no_probe_anywhere():
    result = run_longlived_share(
        [EntitySpec("A", cc="dctcp"), EntitySpec("B", cc="udp")], "aq", gbps(1),
        duration=0.2e-3, warmup=0.1e-3,
    )
    controller = result.env.controller
    network = controller.network
    components = list(network.links.values())
    for host in network.hosts.values():
        components += [host, host.nic_queue, host.transmitter]
    for name, switch in network.switches.items():
        components.append(switch)
        for port in switch.ports.values():
            components += [port.queue, port.transmitter]
        components += list(controller.pipeline(name).deployed())
    kinds = {type(c).__name__ for c in components}
    assert kinds >= {"Link", "Host", "PhysicalFifoQueue", "Transmitter",
                     "Switch", "AugmentedQueue"}
    assert all(c._probe is None for c in components)


#: sha256 of the three artifacts of the run below, computed at the commit
#: before the probe seam existed. They pin the trace, flight and window
#: bytes: a probe that reorders, renames or re-types one field of one
#: event changes a digest.
GOLDEN = {
    "trace.jsonl": "38c7f68c692c3a9e6fb9c23982220093ba3e28648218b76dc7aea56b9f2b7a69",
    "flights.jsonl": "ec166d119303bbbc6d086e9f8673c67fc06d7aa8a710cb2d150818ae2d04d2e2",
    "windows.jsonl": "4beb68239bc14e2aa0304980294853bcec8d9c905c18bb2192ee3730e4d8713b",
}


def test_artifacts_are_byte_stable(tmp_path, monkeypatch):
    # Flights carry packet ids, which count up per process.
    monkeypatch.setattr(packet_module, "_packet_ids", itertools.count(1))
    paths = {name: str(tmp_path / name) for name in GOLDEN}
    entities = [
        EntitySpec("A", cc="cubic"),
        EntitySpec("B", cc="dctcp"),
        EntitySpec("C", cc="udp", udp_rate_bps=gbps(2)),
    ]
    with telemetry_session(
        jsonl_path=paths["trace.jsonl"], flight_path=paths["flights.jsonl"],
        timewin_path=paths["windows.jsonl"], audit=True,
    ) as tele:
        # The tight limit makes the UDP entity's AQ drop, so rate_limit
        # events, aq drop hops and window drops are in the pinned bytes.
        run_longlived_share(
            entities, "aq", gbps(1), duration=2e-3, warmup=0.5e-3, seed=1,
            aq_limit_bytes=15000,
        )
    verdict = tele.auditor.report()
    assert (verdict["violation_count"], verdict["events_seen"]) == (0, 3729)
    for name, path in paths.items():
        with open(path, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == GOLDEN[name], name
