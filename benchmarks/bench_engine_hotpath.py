"""Engine hot-path benchmarks: tombstone compaction, the fire-and-forget
tuple calendar entry, and the idle-link combined serialization event.

Each case asserts that its mechanism actually *engages* (compactions
happen, fire-and-forget events build no Event object, the uncontended
link pays one event per packet) — a refactor that silently disables a
fast path fails here rather than showing up as an unexplained slowdown.
The measured numbers for the whole group are written to
``BENCH_engine.json`` at the repo root, which ``repro run-all --baseline``
and CI use as the wall-clock reference (see docs/PERFORMANCE.md for how
to read it).
"""

import json
from pathlib import Path

from repro.harness.hotpath import (
    ENGINE_BENCHES,
    bench_backlogged_link,
    bench_fabric_mixed,
    bench_fabric_obs_overhead,
    bench_fire_chain,
    bench_fluid_speedup,
    bench_idle_link,
    bench_shard_speedup,
    bench_timer_churn,
    bench_timewin_overhead,
    engine_bench_payload,
)
from repro.harness.report import print_experiment, render_table
from repro.sim.engine import Event

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

_results = {}


def _record(name, result):
    _results[name] = result
    return result


def test_engine_timer_churn(once):
    result = _record("timer_churn", once(bench_timer_churn))
    # 90% of a 200k-event calendar cancelled: compaction must kick in,
    # and the run must only process the surviving 10%.
    assert result["compactions"] >= 1
    assert result["events_processed"] == round(result["n_events"] * 0.1)
    # Compaction keeps tombstones below live events, so the calendar holds
    # at most 2x the survivors when the run starts.
    assert result["calendar_after_cancel"] <= 2 * result["events_processed"]


def test_engine_fire_chain(once, monkeypatch):
    built = []
    init = Event.__init__

    def counting_init(event, *args):
        built.append(event)
        init(event, *args)

    monkeypatch.setattr(Event, "__init__", counting_init)
    result = _record("fire_chain", once(bench_fire_chain))
    assert result["events_processed"] == result["n_events"]
    # Fire-and-forget entries are bare tuples: the whole chain must not
    # construct a single Event handle.
    assert not built


def test_engine_idle_link(once):
    result = _record("idle_link", once(bench_idle_link))
    # The uncontended link folds finish+propagation into ONE event/packet.
    assert result["events_per_packet"] == 1.0


def test_engine_backlogged_link(once):
    result = _record("backlogged_link", once(bench_backlogged_link))
    assert result["delivered"] == result["n_packets"]
    # The classic two-events-per-packet path (plus the offer events driving
    # the benchmark) must still be exact under backlog.
    assert 2.0 <= result["events_per_packet"] <= 3.5


def test_engine_timewin_overhead(once):
    result = _record("timewin_overhead", once(bench_timewin_overhead))
    # Every packet must be attributed, and the window ring must stay at
    # its configured size (sealed ring + active buffer) no matter how
    # many windows the run spanned -- the fixed-memory claim.
    assert result["records"] == result["n_packets"]
    assert result["windows_spanned"] > result["ring_size"]
    assert result["retained_windows"] <= result["ring_size"] + 1
    assert result["evicted_windows"] == (
        result["windows_spanned"] - result["retained_windows"]
    )


def test_engine_fluid_speedup(once):
    result = _record("fluid_speedup", once(bench_fluid_speedup))
    # The analytic fast path must actually engage (closed-form epochs, not
    # a silent fallback to packet mode) and pay off by >=10x wall-clock on
    # the stable backlogged scenario it is designed for, while delivering
    # the same bytes to within the documented equivalence tolerance.
    assert result["fluid_epochs"] > 0
    assert result["speedup_ratio"] >= result["target_speedup"]
    assert result["delivered_rel_err"] <= 0.01


def test_engine_shard_speedup(once):
    result = _record("shard_speedup", once(bench_shard_speedup))
    # Determinism is unconditional: 1-shard and 4-shard runs must hash
    # identically (the bench raises otherwise), with real boundary
    # traffic crossing the cuts.
    assert result["digest_match"] == 1.0
    assert result["boundary_exported"] > 0
    # The >=2.5x wall-clock gate only means something when the host can
    # actually run the workers in parallel; on fewer cores the measured
    # ratio (recorded in BENCH_engine.json next to ``cpus``) documents
    # the overhead instead (docs/SCALING.md).
    if result["cpus"] >= result["shards"]:
        assert result["speedup_ratio"] >= result["target_speedup"]


def test_engine_fabric_obs_overhead(once):
    result = _record("fabric_obs_overhead", once(bench_fabric_obs_overhead))
    # The structural gates are unconditional: the plane must be
    # digest-neutral (the bench raises otherwise) and the heartbeat
    # timeline must cover every (shard, epoch) pair. The <=1.05 wall
    # ratio is recorded as a trend line in BENCH_engine.json, not
    # hard-asserted -- 2ms runs are dominated by noise (same policy as
    # timewin_overhead).
    assert result["digest_match"] == 1.0
    assert result["heartbeat_frames"] == result["shards"] * result["epochs"]
    assert result["timewin_ports"] > 0
    assert result["target_ratio"] == 1.05


def test_engine_fabric_mixed(once):
    result = _record("fabric_mixed", once(bench_fabric_mixed))
    # The dynamic mixed workload (TCP + AQ tenants + churn) must digest
    # identically serial vs sharded (the bench raises otherwise), with
    # real boundary traffic and a non-trivial completed-flow population.
    # Wall clocks are recorded as trend lines, not gated.
    assert result["digest_match"] == 1.0
    assert result["boundary_exported"] > 0
    assert result["tcp_completed"] > 0


def test_engine_write_baseline(once):
    """Runs last (file order): persist the group's measurements."""
    missing = set(ENGINE_BENCHES) - set(_results)
    assert not missing, f"benches did not run before the writer: {missing}"
    once(lambda: None)  # keep this test selected under --benchmark-only
    BENCH_PATH.write_text(
        json.dumps(engine_bench_payload(_results), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    rows = [
        [name, f"{r.get('events_per_sec', r.get('packets_per_sec', 0)):,.0f}/s"]
        for name, r in sorted(_results.items())
    ]
    print_experiment(
        "Engine hot-path benches (full numbers in BENCH_engine.json)",
        render_table(["bench", "throughput"], rows),
    )
