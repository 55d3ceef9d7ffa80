"""Determinism: identical configurations reproduce identical results.

Every stochastic choice in the simulator draws from a seeded, named RNG
stream, so two runs of the same scenario must agree bit-for-bit — the
property that makes every number in EXPERIMENTS.md reproducible.
"""


from repro.harness.scenarios import run_cc_pair, run_two_entity_fairness
from repro.sim.rng import RngRegistry
from repro.units import gbps


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        registry = RngRegistry(1)
        assert registry.stream("a") is registry.stream("a")

    def test_streams_independent_of_creation_order(self):
        r1 = RngRegistry(7)
        a_first = [r1.stream("a").random() for _ in range(3)]
        r2 = RngRegistry(7)
        r2.stream("b")  # create b first this time
        a_second = [r2.stream("a").random() for _ in range(3)]
        assert a_first == a_second

    def test_different_seeds_differ(self):
        assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream(
            "x"
        ).random()

    def test_fork_is_independent(self):
        parent = RngRegistry(1)
        child = parent.fork("child")
        assert parent.stream("x").random() != child.stream("x").random()


class TestScenarioDeterminism:
    def test_longlived_share_bitwise_reproducible(self):
        results = [
            run_cc_pair(
                "cubic", 2, "dctcp", 2, "aq",
                bottleneck_bps=gbps(1), duration=30e-3, warmup=10e-3, seed=3,
            )["rates_bps"]
            for _ in range(2)
        ]
        assert results[0] == results[1]

    def test_wct_bitwise_reproducible(self):
        results = [
            run_two_entity_fairness(
                2, "pq", volume_bytes=2_000_000,
                bottleneck_bps=gbps(1), max_sim_time=5.0, seed=9,
            )["wct_s"]
            for _ in range(2)
        ]
        assert results[0] == results[1]

    def test_different_seeds_change_workloads(self):
        a = run_two_entity_fairness(
            2, "pq", volume_bytes=2_000_000,
            bottleneck_bps=gbps(1), max_sim_time=5.0, seed=1,
        )["wct_s"]
        b = run_two_entity_fairness(
            2, "pq", volume_bytes=2_000_000,
            bottleneck_bps=gbps(1), max_sim_time=5.0, seed=2,
        )["wct_s"]
        assert a != b
