"""The compact-JSONL codec must be indistinguishable from the stock encoder.

``to_dict()`` + ``json.dumps(..., separators=(",", ":"))`` is the
reference; :mod:`repro.obs.codec` is the fast write path. The property
tests hold them byte-equal over hostile field values, and the scenario
test checks a real run's three artifact files line by line and that the
fast path (not its fallback) did the work.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.common import EntitySpec, telemetry_session
from repro.harness.scenarios import run_longlived_share
from repro.obs import Flight, HopRecord, TraceEvent, codec
from repro.obs.timewin import WindowView
from repro.units import gbps


def reference(record) -> str:
    return json.dumps(record.to_dict(), separators=(",", ":"))


class FloatSub(float):
    pass


class IntSub(int):
    pass


class StrSub(str):
    pass


text = st.text(max_size=12) | st.sampled_from(
    ['q"uote', "back\\slash", "ctl\x00\x1f\n\t", "ünï-cödé ☃ \U0001f600", ""]
) | st.builds(StrSub, st.text(max_size=4))
number = (
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 0.0, 2 ** 53 + 1, math.nan, math.inf, -math.inf, True, False])
    | st.builds(FloatSub, st.floats(allow_nan=False, allow_infinity=False))
    | st.builds(IntSub, st.integers())
)
#: Any field may hold any of these: the codec must match the reference on
#: every one, through the fast path or the fallback.
anything = st.none() | text | number

events = st.builds(TraceEvent, *([anything] * 8))
hops = st.builds(HopRecord, *([anything] * 12))
flights = st.builds(
    Flight, *([anything] * 9), st.lists(hops, max_size=3), anything, anything
)


class TestCodecMatchesStockEncoder:
    @settings(max_examples=300, deadline=None)
    @given(events)
    def test_event(self, event):
        assert codec.encode_event(event) == reference(event) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(hops)
    def test_hop(self, hop):
        assert codec.encode_hop(hop) == reference(hop)

    @settings(max_examples=200, deadline=None)
    @given(flights)
    def test_flight(self, flight):
        assert codec.encode_flight(flight) == reference(flight) + "\n"

    def test_typical_records_take_the_fast_path(self, monkeypatch):
        monkeypatch.setattr(codec, "stock", None)  # any fallback would raise
        hop = HopRecord("aq", "s0", 1e-5, aq_id=7, position="ingress",
                        agap=1.5e6, limit=1e6, ecn=True, reason="rate_limit")
        flight = Flight(1, 2, "h0", "h1", 0, 1460, "dropped", 0.0, 1e-5,
                        [HopRecord("host", "h0", 0.0), hop], "s0", True)
        assert json.loads(codec.encode_flight(flight)) == flight.to_dict()
        event = TraceEvent("enqueue", 1e-5, "s0.p0", 1, None, 1460, 2920.0)
        assert json.loads(codec.encode_event(event)) == event.to_dict()

    def test_dumps_compact_is_compact_json_dumps(self):
        obj = {"a": [1, 2.5, None, True], "b": {"c": "dé"}, "n": math.inf}
        assert codec.dumps_compact(obj) == json.dumps(obj, separators=(",", ":"))


def test_scenario_artifacts_round_trip_without_fallback(tmp_path, monkeypatch):
    fallbacks = []
    stock = codec.stock
    monkeypatch.setattr(
        codec, "stock", lambda record: fallbacks.append(record) or stock(record)
    )
    trace, flights_path, windows = (
        str(tmp_path / name) for name in ("trace.jsonl", "flights.jsonl", "windows.jsonl")
    )
    entities = [
        EntitySpec("A", cc="dctcp", num_flows=2),
        EntitySpec("B", cc="cubic", num_flows=2),
        EntitySpec("C", cc="udp"),
    ]
    with telemetry_session(jsonl_path=trace, flight_path=flights_path,
                           timewin_path=windows, audit=True) as tele:
        run_longlived_share(entities, "aq", gbps(1), duration=10e-3, warmup=2e-3)
    assert tele.auditor.report()["violation_count"] == 0
    assert fallbacks == []

    def lines(path):
        with open(path, encoding="utf-8") as fh:
            found = fh.read().splitlines()
        assert found
        return found

    for line in lines(trace):
        assert reference(TraceEvent.from_dict(json.loads(line))) == line
    flight_lines = lines(flights_path)
    for line in flight_lines:
        assert reference(Flight.from_dict(json.loads(line))) == line
    # The run must have exercised the branches the fast path special-cases.
    assert any('"reason":"rate_limit"' in line for line in flight_lines)
    assert any('"retransmission":true' in line for line in flight_lines)
    window_s = None
    for line in lines(windows):
        data = json.loads(line)
        if data["type"] == "timewin_config":
            window_s = data["window_s"]
        if data["type"] == "window":
            data = WindowView.from_dict(data, window_s).to_dict()
        assert json.dumps(data, separators=(",", ":")) == line
