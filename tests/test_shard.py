"""Tests for conservative-sync sharding (repro.sim.shard + harness.fabric).

The load-bearing property is the determinism contract of docs/SCALING.md:
``--shards 1`` and ``--shards k`` produce bit-identical results digests,
audit-clean, regardless of worker completion order — plus the boundary
edge cases (flows crossing two cuts, faults on cut links, partially
evicted window rings surviving the stitch honestly).
"""

import json

import pytest

from repro.errors import ConfigurationError, ShardError
from repro.harness.fabric import (
    fabric_flows,
    filter_fault_plan,
    run_share_fabric,
)
from repro.net.packet import make_udp
from repro.obs.timewin import WindowStore, stitch_window_dumps
from repro.sim.shard import (
    PACKET_COLUMNS,
    BoundaryBatch,
    barrier_times,
    packet_from_row,
)
from repro.topology.fattree import FatTreeConfig, FatTreePlan

DURATION = 1e-3
SMALL = dict(pods=2, tors_per_pod=1, hosts_per_tor=2)


def run(shards, permute=None, **kwargs):
    kwargs.setdefault("duration", DURATION)
    return run_share_fabric(shards, inline=True, audit=True, **kwargs)


class TestPrimitives:
    def test_barrier_times_cover_duration_exactly(self):
        times = barrier_times(1e-3, 0.3e-3)
        assert times[-1] == 1e-3
        assert all(b > a for a, b in zip(times, times[1:]))
        assert len(times) == 4

    def test_barrier_times_reject_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            barrier_times(0.0, 1e-3)
        with pytest.raises(ConfigurationError):
            barrier_times(1e-3, 0.0)

    def test_boundary_batch_round_trips_every_header_field(self):
        packet = make_udp("h0-0-0", "h1-0-0", 7, 1500)
        packet.ce = True
        packet.ece = True
        packet.virtual_delay = 1.5e-6
        packet.sent_time = 2e-6
        batch = BoundaryBatch()
        batch.append(5e-5, 3, 0, packet)
        assert len(batch) == 1
        (t, link_id, seq, values), = batch.rows()
        assert (t, link_id, seq) == (5e-5, 3, 0)
        clone = packet_from_row(values)
        for name in PACKET_COLUMNS:
            assert getattr(clone, name) == getattr(packet, name), name


class TestEquivalence:
    def test_digest_identical_across_shard_counts(self):
        digests = {k: run(k)["digest"] for k in (1, 2, 4)}
        assert len(set(digests.values())) == 1
        events = {k: run(k)["results"]["events"] for k in (1, 4)}
        assert events[1] == events[4]

    def test_audit_clean_at_every_shard_count(self):
        for k in (1, 4):
            assert run(k)["audit"]["violation_count"] == 0

    def test_cross_pod_flows_really_cross_two_cuts(self):
        report = run(4)
        # Cross-pod flows exist and deliver...
        config = FatTreeConfig()
        cross = [
            f for f in fabric_flows(config)
            if f["src"].split("-")[0][1:] != f["dst"].split("-")[0][1:]
        ]
        assert cross
        for flow in cross:
            assert report["results"]["delivered_bytes"][str(flow["flow_id"])] > 0
        # ...and every imported packet was first exported; re-export at the
        # second cut makes exported exceed unique crossings.
        assert report["boundary"]["exported"] > 0
        plan = FatTreePlan(config, 4)
        # With 4 partitions, agg(p) and core(c) owners differ for some
        # (p, c), so a pod->core->pod path spans three partitions.
        spans = {
            (plan.partition_of("agg0"), plan.partition_of("core1"),
             plan.partition_of("agg1"))
        }
        assert len(next(iter(spans))) == 3

    def test_application_order_is_canonical_not_arrival_order(self):
        # Regression: shuffle the per-epoch source visitation (simulating
        # arbitrary worker completion order) — digests must not move.
        from repro.harness.fabric import build_fabric_partition
        from repro.sim.shard import run_lockstep

        def build_all(k):
            runtimes, finalizers = [], []
            for i in range(k):
                runtime, finalize = build_fabric_partition(
                    partition=i, shards=k, **SMALL
                )
                runtimes.append(runtime)
                finalizers.append(finalize)
            return runtimes, finalizers

        def digest_with(permute):
            from repro.harness.fabric import fabric_digest, merge_results

            runtimes, finalizers = build_all(3)
            run_lockstep(runtimes, DURATION, permute=permute)
            return fabric_digest(merge_results([f() for f in finalizers]))

        reference = digest_with(None)
        reversed_order = digest_with(lambda order, epoch: order[::-1])
        rotated = digest_with(
            lambda order, epoch: order[epoch % len(order):]
            + order[:epoch % len(order)]
        )
        assert reference == reversed_order == rotated

    def test_spawn_mode_matches_inline(self):
        inline = run(2, **SMALL)
        spawn = run_share_fabric(
            2, DURATION, inline=False, **SMALL
        )
        assert spawn["digest"] == inline["digest"]
        assert spawn["epochs"] == inline["epochs"]


class TestFaultsOnCutLinks:
    BLACKOUT = ["agg0->core1", 0.2e-3, 0.6e-3]

    def plan_dict(self):
        from repro.faults.plan import link_blackout_plan

        link, down, up = self.BLACKOUT
        return link_blackout_plan(link, down, up).to_dict()

    def test_blackout_on_cut_link_is_deterministic_and_audited(self):
        runs = {
            k: run(k, fault_plan=self.plan_dict()) for k in (1, 2)
        }
        assert runs[1]["digest"] == runs[2]["digest"]
        for k in (1, 2):
            assert runs[k]["audit"]["violation_count"] == 0
        # The blackout actually dropped traffic on the cut.
        clean = run(2)
        assert (
            sum(runs[2]["results"]["delivered_bytes"].values())
            < sum(clean["results"]["delivered_bytes"].values())
        )

    def test_plan_filtering_partitions_the_events(self):
        plan = FatTreePlan(FatTreeConfig(), 2)
        full = self.plan_dict()
        slices = [filter_fault_plan(full, plan, i) for i in range(2)]
        # agg0->core1 is owned by agg0's partition (0).
        assert len(slices[0]["events"]) == 2
        assert len(slices[1]["events"]) == 0
        total = sum(len(s["events"]) for s in slices)
        assert total == len(full["events"])


class TestTimewinStitch:
    def test_stitch_is_disjoint_union_sorted_by_seq(self, tmp_path):
        report = run_share_fabric(
            2, DURATION, inline=True,
            timewin_dir=str(tmp_path), timewin_params={"window_s": 0.25e-3},
        )
        merged = stitch_window_dumps(
            report["timewin_paths"], out_path=str(tmp_path / "merged.jsonl")
        )
        individual = [
            WindowStore.from_jsonl(path) for path in report["timewin_paths"]
        ]
        assert sorted(merged.ports()) == sorted(
            p for store in individual for p in store.ports()
        )
        for port in merged.ports():
            seqs = [v.seq for v in merged.views(port)]
            assert seqs == sorted(seqs)
        # One store answers for ports recorded by different shards.
        owners = set()
        for port in ("agg0.core0", "agg1.core0"):
            owners.update(
                i for i, store in enumerate(individual) if port in store.ports()
            )
            verdict = merged.who_built(port, 0.0, DURATION)
            assert verdict.coverage == "full"
            assert verdict.total_bytes > 0
        assert owners == {0, 1}
        # The merged dump round-trips through the standard loader.
        again = WindowStore.from_jsonl(str(tmp_path / "merged.jsonl"))
        assert again.ports() == merged.ports()
        assert again.window_s == merged.window_s

    def test_partial_eviction_reports_evicted_never_zeros(self, tmp_path):
        # A tiny ring over a long run: early windows wrap out on every
        # shard. The stitched store must answer early-time queries with
        # honest partial/evicted coverage, not silently-zero windows.
        report = run_share_fabric(
            2, 2e-3, inline=True, timewin_dir=str(tmp_path),
            timewin_params={"window_s": 0.05e-3, "num_windows": 8},
        )
        merged = stitch_window_dumps(report["timewin_paths"])
        port = "t0-0.agg0"  # ToR uplink: carries cross-pod flows all run
        assert port in merged.ports()
        _, evicted = merged.eviction_horizon(port)
        assert evicted > 0
        early = merged.who_built(port, 0.0, 0.3e-3)
        assert early.coverage in ("partial", "evicted")
        assert early.evicted_windows > 0
        late = merged.who_built(port, 1.8e-3, 2e-3)
        assert late.coverage == "full"
        assert late.total_bytes > 0

    def test_stitch_rejects_overlap_and_mixed_quantum(self, tmp_path):
        report = run_share_fabric(
            2, DURATION, inline=True,
            timewin_dir=str(tmp_path / "a"),
            timewin_params={"window_s": 0.25e-3},
        )
        paths = report["timewin_paths"]
        with pytest.raises(ConfigurationError, match="not disjoint"):
            stitch_window_dumps([paths[0], paths[0]])
        other = run_share_fabric(
            1, DURATION, inline=True,
            timewin_dir=str(tmp_path / "b"),
            timewin_params={"window_s": 0.5e-3},
        )
        with pytest.raises(ConfigurationError, match="window_s"):
            stitch_window_dumps([paths[0], other["timewin_paths"][0]])
        with pytest.raises(ConfigurationError):
            stitch_window_dumps([])


class TestContractViolations:
    def test_lookahead_below_cut_propagation_is_rejected(self):
        from repro.sim.shard import ShardRuntime
        from repro.topology.fattree import CutLink

        plan = FatTreePlan(FatTreeConfig(), 2)
        runtime = ShardRuntime(0, plan)
        cut = CutLink(0, "agg0", "core0", 0, 0)

        class FakeSim:
            pass

        with pytest.raises(ConfigurationError, match="lookahead"):
            runtime.make_egress(FakeSim(), cut, 1e9, plan.lookahead / 2)

    def test_runtime_rejects_foreign_partition(self):
        from repro.sim.shard import ShardRuntime

        plan = FatTreePlan(FatTreeConfig(), 2)
        with pytest.raises(ConfigurationError):
            ShardRuntime(5, plan)

    def test_lockstep_rejects_mixed_lookahead(self):
        from repro.harness.fabric import build_fabric_partition
        from repro.sim.shard import run_lockstep

        rt_a, _ = build_fabric_partition(partition=0, shards=1, **SMALL)
        rt_b, _ = build_fabric_partition(partition=0, shards=1, **SMALL)
        rt_b.lookahead = rt_a.lookahead * 2
        with pytest.raises(ShardError, match="lookahead"):
            run_lockstep([rt_a, rt_b], DURATION)

    def test_report_is_json_safe(self):
        report = run(2, **SMALL)
        json.dumps(report)
