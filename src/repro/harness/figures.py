"""The ``FIGURES`` table: every experiment of ``EXPERIMENTS.md``, declared once.

A :class:`Figure` names an artifact of the paper's evaluation (or one of
this repo's ablations / extensions) and holds the three things that used
to be spelled separately per consumer:

* ``cells(scale)`` — the grid, one :class:`~repro.harness.runner.JobSpec`
  per table row / figure point;
* ``render(results, scale)`` — the paper-style table(s);
* ``claims`` — what the paper says the artifact shows, each with the
  cells it needs and a predicate over their results.

A cell's ``target`` is the function that runs it — a scenario in
:mod:`~repro.harness.scenarios` / :mod:`~repro.harness.extensions`, or an
analytic cell in :mod:`~repro.harness.jobs` — called as
``target(**kwargs) -> dict``; nothing sits in between. ``render`` and
``claims`` read those JSON-safe result dicts keyed by job name, so the
same code serves all three consumers: ``repro <figure>``
(:func:`repro.cli.cmd_figure`, cells run in-process), ``repro run-all``
(:func:`repro.harness.jobs.default_jobs`, cells fanned out over workers,
claims checked from the result lines) and ``benchmarks/bench_figures.py``
(one parametrized pytest-benchmark test).

Thresholds are calibrated at the scale of record (``Figure.record``), so
claims are evaluated there and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..units import MTU_BYTES, format_rate, format_size, gbps
from .common import APPROACHES
from .report import rate_range_str, render_table
from .runner import JobSpec, resolve_target

Results = Mapping[str, dict]

_JOBS = "repro.harness.jobs"  # analytic cells only
_SCN = "repro.harness.scenarios"
_EXT = "repro.harness.extensions"

PQ_AQ = ("pq", "aq")
VM_COUNTS = (1, 2, 4, 8)
#: The dumbbell bottleneck at the scale of record: what "share of the
#: link" means in a claim.
LINK = gbps(2)


@dataclass(frozen=True)
class Scale:
    """What ``repro <figure>`` lets a user change. A field a figure's
    ``record`` leaves ``None`` is one its grid does not consume: the
    generated command does not register that flag."""

    bottleneck_gbps: Optional[float] = None
    duration_ms: Optional[float] = None
    seed: Optional[int] = None


@dataclass(frozen=True)
class Claim:
    """One sentence the artifact is supposed to show. ``holds`` receives
    the results of exactly the cells in ``needs``, keyed by name — it
    cannot read a cell it did not declare."""

    text: str
    needs: Sequence[str]
    holds: Callable[[Results], bool]

    def verdict(self, results: Results) -> Optional[bool]:
        """``None`` when a needed cell is absent (filtered out or failed)."""
        if any(name not in results for name in self.needs):
            return None
        return bool(self.holds({name: results[name] for name in self.needs}))


@dataclass(frozen=True)
class Figure:
    name: str  # CLI sub-command, job-name prefix, bench id
    title: str
    record: Scale  # the scale EXPERIMENTS.md reports and the claims assume
    cells: Callable[[Scale], List[JobSpec]]
    render: Callable[[Results, Scale], str]
    claims: Tuple[Claim, ...]


def job_spec(name: str, target: str, timeout_s: float = 600.0, **kwargs) -> JobSpec:
    """A registry row; the first path component of ``name`` is its tag."""
    return JobSpec(name=name, target=target, kwargs=kwargs,
                   tags=(name.split("/", 1)[0],), timeout_s=timeout_s)


def run_figure(figure: Figure, scale: Optional[Scale] = None) -> Dict[str, dict]:
    """Run every cell in this process, under whatever telemetry session is
    ambient; returns results keyed by job name."""
    return {spec.name: resolve_target(spec.target)(**spec.kwargs)
            for spec in figure.cells(scale or figure.record)}


def check_claims(
    figures: Iterable[Figure], results: Results
) -> Iterator[Tuple[Figure, Claim, Optional[bool]]]:
    """Every claim of ``figures`` with its verdict over ``results``."""
    for figure in figures:
        for claim in figure.claims:
            yield figure, claim, claim.verdict(results)


def _stretch(scale: Scale, record: Scale) -> float:
    """Factor on a grid's recorded times; exactly 1.0 at the scale of
    record, so recorded durations reach the scenarios bit for bit."""
    return scale.duration_ms / record.duration_ms


def _at(scale: Scale) -> dict:
    """The two kwargs every dumbbell job takes from the scale."""
    return {"bottleneck_bps": gbps(scale.bottleneck_gbps), "seed": scale.seed}


def _rate(result: dict, entity: str) -> str:
    return format_rate(result["rates_bps"][entity])


def _matrix(corner: str, rows, cols, text) -> str:
    """A table of ``text(row_key, col_key)``; rows / cols are (label, key)."""
    return render_table(
        [corner] + [label for label, _ in cols],
        [[label] + [text(row, col) for _, col in cols] for label, row in rows],
    )


def _by_approach():
    return [(approach.upper(), approach) for approach in APPROACHES]


# Long-lived CC pairs (Fig 1, Table 2, the Section 7 extension) share one
# job, one row format and one pair of AQ claims. A row is
# (cc_a, flows_a, cc_b, flows_b); ``name(approach, *row)`` is its job name.

_PAIR_NAME = "/{0}/{2}{1}+{4}{3}"


def _pair_cells(name, rows, approaches, scale: Scale, duration: float, warmup: float):
    return [
        job_spec(name(approach, *row), f"{_SCN}:run_cc_pair", cc_a=row[0], flows_a=row[1],
                 cc_b=row[2], flows_b=row[3], approach=approach,
                 duration=duration, warmup=warmup, **_at(scale))
        for row in rows
        for approach in approaches
    ]


def _split(result: dict) -> str:
    return f"{_rate(result, 'A')} + {_rate(result, 'B')}"


def _pair_rows(results: Results, name, rows) -> List[List[str]]:
    return [
        [f"{row[1]} {row[0]} + {row[3]} {row[2]}", _split(results[name("pq", *row)]),
         _split(aq), f"{aq['ratio']:.2f}"]
        for row in rows
        for aq in [results[name("aq", *row)]]
    ]


def _aq_pair_claims(name, rows, floor: float) -> Tuple[Claim, ...]:
    aq = [name("aq", *row) for row in rows]
    return (
        Claim(f"AQ splits every pairing ~evenly (min/max > {floor})", aq,
              lambda c: all(r["ratio"] > floor for r in c.values())),
        Claim("AQ keeps the link busy for every pairing (utilization > 0.8)", aq,
              lambda c: all(r["utilization"] > 0.8 for r in c.values())),
    )


# -- Sections 2 / 3: motivation and the A-Gap ----------------------------------


def _fig1() -> Figure:
    record = Scale(bottleneck_gbps=2.0, duration_ms=60.0, seed=1)
    rows = [(a, 10, b, 10) for a, b in (
        ("cubic", "newreno"), ("cubic", "dctcp"), ("newreno", "dctcp"),
        ("cubic", "swift"), ("dctcp", "swift"), ("newreno", "swift"),
    )]
    name = ("fig1" + _PAIR_NAME).format

    def cells(scale: Scale) -> List[JobSpec]:
        k = _stretch(scale, record)
        return _pair_cells(name, rows, ("pq",), scale, 60e-3 * k, 25e-3 * k)

    def render(results: Results, scale: Scale) -> str:
        return render_table(
            ["pairing (PQ)", "A", "B", "min/max ratio"],
            [[f"10 {row[0]} + 10 {row[2]}", _rate(r, "A"), _rate(r, "B"), f"{r['ratio']:.2f}"]
             for row in rows for r in [results[name("pq", *row)]]],
        )

    return Figure(
        "fig1", "Figure 1 - CC interference in a shared physical queue", record, cells, render,
        (Claim("mixed-CC pairs cannot share a physical queue fairly (some min/max ratio < 0.25)",
               [name("pq", *row) for row in rows[1:]],  # all but same-family cubic + newreno
               lambda c: min(r["ratio"] for r in c.values()) < 0.25),),
    )


def _fig3() -> Figure:
    def peaks(c: Results, key: str) -> List[float]:
        return c["fig3"][key]

    def render(results: Results, scale: Scale) -> str:
        pairs = zip(peaks(results, "strawman_peaks")[:8], peaks(results, "agap_peaks"))
        return render_table(
            ["cycle peak", "strawman D(t)", "A-Gap A(t)"],
            [[f"r{i}", f"{strawman / 1e9:.3f}G", f"{agap / 1e9:.3f}G"]
             for i, (strawman, agap) in enumerate(pairs)],
        )

    return Figure(
        "fig3", "Figure 3 - rate peaks per congestion cycle, strawman D(t) vs A-Gap "
        "(allocated rate 5G)", Scale(),
        lambda scale: [job_spec("fig3", f"{_JOBS}:job_discrepancy_peaks")], render,
        (
            Claim("with D(t) as the discrepancy the rate peaks escalate (last > 1.2x first)",
                  ["fig3"],
                  lambda c: peaks(c, "strawman_peaks")[-1] > peaks(c, "strawman_peaks")[0] * 1.2),
            Claim("with the A-Gap every peak tops out at the same r0 (within 1%)", ["fig3"],
                  lambda c: max(peaks(c, "agap_peak_range"))
                  <= min(peaks(c, "agap_peak_range")) * 1.01),
        ),
    )


# -- Sections 5.2 / 5.3: entities vs VMs, flows and CCs ------------------------


def _vm_grid(figure: str, target: str, vms_kwarg: str):
    """Fig 6 / Fig 7's grid: approaches x VM counts of an 8 MB workload."""
    name = (figure + "/{}/{}vms").format

    def cells(scale: Scale) -> List[JobSpec]:
        return [
            job_spec(name(approach, vms), f"{_SCN}:{target}", approach=approach, **{vms_kwarg: vms},
                     volume_bytes=8_000_000, max_sim_time=10.0, **_at(scale))
            for approach in APPROACHES
            for vms in VM_COUNTS
        ]

    return name, cells


def _fig6() -> Figure:
    name, cells = _vm_grid("fig6", "run_single_entity_wct", "num_vms")

    def norm(results: Results, approach: str, vms: int) -> float:
        return results[name(approach, vms)]["wct_s"] / results[name("pq", vms)]["wct_s"]

    def render(results: Results, scale: Scale) -> str:
        return _matrix("approach", _by_approach(), [(f"{vms} VMs", vms) for vms in VM_COUNTS],
                       lambda approach, vms: f"{norm(results, approach, vms):.2f}")

    return Figure(
        "fig6", "Figure 6 - workload completion time normalized to PQ, per VM count",
        Scale(bottleneck_gbps=2.0, seed=1), cells, render,
        (
            Claim("AQ tracks PQ at every VM count (normalized WCT < 1.15)",
                  [name(approach, vms) for approach in PQ_AQ for vms in VM_COUNTS],
                  lambda c: all(norm(c, "aq", vms) < 1.15 for vms in VM_COUNTS)),
            Claim("rate-limiting baselines degrade as VMs multiply (PRL at 8 VMs > 1.1x PQ)",
                  [name("prl", 8), name("pq", 8)], lambda c: norm(c, "prl", 8) > 1.1),
        ),
    )


def _fig7() -> Figure:
    name, cells = _vm_grid("fig7", "run_two_entity_fairness", "num_vms_b")

    def render(results: Results, scale: Scale) -> str:
        return _matrix("approach", _by_approach(), [(f"B={vms} VMs", vms) for vms in VM_COUNTS],
                       lambda approach, vms: f"{results[name(approach, vms)]['fairness']:.2f}")

    return Figure(
        "fig7", "Figure 7 - entity fairness (1 VM vs n VMs), equal weights/volumes",
        Scale(bottleneck_gbps=2.0, seed=1), cells, render,
        (
            # AQ isolates the entities, so each one's completion reflects its
            # own (random) workload draw — allow that variance at n=1 while
            # still requiring ~1 fairness where the baselines degrade.
            Claim("AQ keeps entity fairness ~1 at every VM count (> 0.9; > 0.8 at B=1)",
                  [name("aq", vms) for vms in VM_COUNTS],
                  lambda c: all(c[name("aq", vms)]["fairness"] > (0.8 if vms == 1 else 0.9)
                                for vms in VM_COUNTS)),
            Claim("PQ's flow-level share favours the VM-rich entity (fairness < 0.9 at 8 VMs)",
                  [name("pq", 8)], lambda c: c[name("pq", 8)]["fairness"] < 0.9),
            Claim("PRL's per-VM slices lose fairness as B's VMs multiply (< 0.85 at 8 VMs)",
                  [name("prl", 8)], lambda c: c[name("prl", 8)]["fairness"] < 0.85),
        ),
    )


def _fig8() -> Figure:
    record = Scale(bottleneck_gbps=2.0, duration_ms=80.0, seed=1)
    name = "fig8/{}/{}flows".format
    # (job name, scenario label, approach, B's flows, B's weight)
    grid = [(name(approach, flows), f"1 vs {flows} flows", approach, flows, 1.0)
            for flows in (1, 4, 16, 64) for approach in PQ_AQ]
    grid.append((name("aq-1to2", 16), "weights 1:2 (16 flows)", "aq", 16, 2.0))

    def cells(scale: Scale) -> List[JobSpec]:
        k = _stretch(scale, record)
        return [
            job_spec(cell, f"{_SCN}:run_flow_count", flows_b=flows, weight_b=weight,
                     approach=approach, duration=80e-3 * k, warmup=30e-3 * k, **_at(scale))
            for cell, _, approach, flows, weight in grid
        ]

    def render(results: Results, scale: Scale) -> str:
        return render_table(
            ["scenario", "approach", "entity A", "entity B"],
            [[label, approach.upper(), _rate(results[cell], "A"), _rate(results[cell], "B")]
             for cell, label, approach, _, _ in grid],
        )

    pq64, aq64, weighted = name("pq", 64), name("aq", 64), name("aq-1to2", 16)

    def b_over_a(result: dict) -> float:
        return result["rates_bps"]["B"] / result["rates_bps"]["A"]

    return Figure(
        "fig8", "Figure 8 - throughput vs flow count (equal weights unless noted)",
        record, cells, render,
        (
            Claim("under PQ the split tracks the flow count: B's 64 flows starve A "
                  "(< 15% of the link)",
                  [pq64], lambda c: c[pq64]["rates_bps"]["A"] < 0.15 * LINK),
            Claim("under AQ the split stays ~50/50 even at 64 flows (min/max > 0.8)",
                  [aq64], lambda c: c[aq64]["ratio"] > 0.8),
            Claim("AQ honours 1:2 weights regardless of flow count (1.6 < B/A < 2.5)", [weighted],
                  lambda c: 1.6 < b_over_a(c[weighted]) < 2.5),
        ),
    )


def _fig9() -> Figure:
    record = Scale(bottleneck_gbps=2.0, duration_ms=280.0, seed=1)
    name = "fig9/{}/timeline".format
    entities = ("T1", "T2", "T3", "T4", "U")
    tcp = entities[:4]
    #: Entities expected active in each of the seven phases.
    active = [("T1",), ("T1", "T2"), ("T1", "T2", "T3"), tcp, entities, entities, tcp]

    def cells(scale: Scale) -> List[JobSpec]:
        return [
            job_spec(name(approach), f"{_SCN}:run_udp_tcp_timeline", approach=approach,
                     phase=40e-3 * _stretch(scale, record), **_at(scale))
            for approach in PQ_AQ
        ]

    def rates(results: Results, approach: str, phase: int) -> dict:
        return results[name(approach)]["rates_in_window"][f"phase{phase}"]

    def render(results: Results, scale: Scale) -> str:
        link = gbps(scale.bottleneck_gbps)
        return "\n\n".join(
            f"{approach.upper()} - per-entity share of the link per phase\n" + _matrix(
                "phase", [(f"phase {k} ({len(on)} active)", k) for k, on in enumerate(active)],
                [(entity, entity) for entity in entities],
                lambda k, entity: f"{rates(results, approach, k)[entity] / link:.2f}")
            for approach in PQ_AQ
        )

    return Figure(
        "fig9", "Figure 9 - UDP and TCP entities sharing a bottleneck over time",
        record, cells, render,
        (
            Claim("PQ: once the UDP entity joins it takes > 75% of the link", [name("pq")],
                  lambda c: rates(c, "pq", 5)["U"] > 0.75 * LINK),
            Claim("PQ: the four TCP entities together keep < 20% against UDP", [name("pq")],
                  lambda c: sum(rates(c, "pq", 5)[e] for e in tcp) < 0.2 * LINK),
            Claim("AQ: in every phase each of the n active entities holds more than half of "
                  "its 1/n of the link", [name("aq")],
                  lambda c: all(rates(c, "aq", k)[e] > 0.5 * LINK / len(on)
                                for k, on in enumerate(active) for e in on)),
            Claim("AQ: total saturation > 90% after the UDP entity leaves", [name("aq")],
                  lambda c: sum(rates(c, "aq", 6).values()) > 0.9 * LINK),
        ),
    )


def _fig10() -> Figure:
    pairs = ["cubic+dctcp", "newreno+dctcp", "cubic+swift"]
    name = "fig10/{}/{}".format

    def cells(scale: Scale) -> List[JobSpec]:
        return [
            job_spec(name(approach, pair), f"{_SCN}:run_cc_pair_wct",
                     cc_a=pair.split("+")[0], cc_b=pair.split("+")[1], approach=approach,
                     volume_bytes=6_000_000, max_sim_time=10.0, **_at(scale))
            for pair in pairs
            for approach in APPROACHES
        ]

    def render(results: Results, scale: Scale) -> str:
        def table(text) -> str:
            return _matrix("CC pair", [(pair, pair) for pair in pairs], _by_approach(),
                           lambda pair, approach: text(results[name(approach, pair)]))

        return ("(a) entity fairness\n" + table(lambda r: f"{r['fairness']:.2f}")
                + "\n\n(b) total workload completion time\n"
                + table(lambda r: f"{r['total_wct_s'] * 1e3:.1f}ms"))

    both = [name(approach, pair) for approach in PQ_AQ for pair in pairs]
    return Figure(
        "fig10", "Figure 10 - entity fairness and total WCT, two 4-VM entities with different CCs",
        Scale(bottleneck_gbps=2.0, seed=1), cells, render,
        (
            Claim("AQ keeps entity fairness ~1 for every CC pair (> 0.8)",
                  [name("aq", pair) for pair in pairs],
                  lambda c: all(r["fairness"] > 0.8 for r in c.values())),
            Claim("AQ's total completion time stays close to PQ's for every pair "
                  "(< 1.35x: full utilization)", both,
                  lambda c: all(c[name("aq", pair)]["total_wct_s"]
                                < 1.35 * c[name("pq", pair)]["total_wct_s"] for pair in pairs)),
            Claim("PQ is unfair for the strongly mismatched pairs (some fairness < 0.75)",
                  [name("pq", pair) for pair in pairs],
                  lambda c: min(r["fairness"] for r in c.values()) < 0.75),
        ),
    )


# -- Sections 5.3 / 5.4: the tables --------------------------------------------


def _table2() -> Figure:
    record = Scale(bottleneck_gbps=2.0, duration_ms=70.0, seed=1)
    rows = [
        ("cubic", 5, "cubic", 5), ("cubic", 5, "dctcp", 5), ("newreno", 5, "dctcp", 5),
        ("illinois", 5, "dctcp", 5), ("cubic", 5, "swift", 5), ("dctcp", 5, "swift", 5),
        ("dctcp", 10, "newreno", 5), ("dctcp", 10, "swift", 5),
    ]
    name = ("table2" + _PAIR_NAME).format
    four = ("udp", "cubic", "dctcp", "swift")  # the last row: 1 UDP flow + 3 flows per TCP CC
    pq4, aq4 = "table2/pq/1udp+3x3tcp", "table2/aq/1udp+3x3tcp"

    def cells(scale: Scale) -> List[JobSpec]:
        k = _stretch(scale, record)
        return _pair_cells(name, rows, PQ_AQ, scale, 70e-3 * k, 25e-3 * k) + [
            job_spec(cell, f"{_SCN}:run_share", approach=approach,
                     entities=[{"name": cc, "cc": cc, "num_flows": 1 if cc == "udp" else 3}
                               for cc in four],
                     duration=70e-3 * k, warmup=25e-3 * k, **_at(scale))
            for cell, approach in ((pq4, "pq"), (aq4, "aq"))
        ]

    def render(results: Results, scale: Scale) -> str:
        aq4_rates = results[aq4]["rates_bps"].values()
        return render_table(
            ["congestion control", "PQ", "AQ", "AQ min/max"],
            _pair_rows(results, name, rows) + [[
                "1 udp + 3x3 tcp",
                " + ".join(_rate(results[pq4], e) for e in four),
                " + ".join(_rate(results[aq4], e) for e in four),
                f"{min(aq4_rates) / max(aq4_rates):.2f}",
            ]],
        )

    return Figure(
        "table2", "Table 2 - entity throughput under different CC settings",
        record, cells, render,
        _aq_pair_claims(name, rows, 0.8) + (
            Claim("PQ rows with mixed CCs are wildly skewed (some min/max ratio < 0.25)",
                  [name("pq", *row) for row in rows[1:]],
                  lambda c: any(r["ratio"] < 0.25 for r in c.values())),
            Claim("four-entity row, PQ: the UDP entity takes > 70% of the link", [pq4],
                  lambda c: c[pq4]["rates_bps"]["udp"] > 0.7 * LINK),
            Claim("four-entity row, PQ: the three TCP entities total < 30%", [pq4],
                  lambda c: sum(c[pq4]["rates_bps"][e] for e in four[1:]) < 0.3 * LINK),
            Claim("four-entity row, AQ: every entity holds > 15% (~1/4 each)", [aq4],
                  lambda c: min(c[aq4]["rates_bps"].values()) > 0.15 * LINK),
        ),
    )


def _table3() -> Figure:
    record = Scale(duration_ms=150.0, seed=1)
    link, profile = gbps(2.5), gbps(0.5)
    approaches = ("pq", "prl", "drl", "aq")
    name = "table3/{}/profile".format

    def cells(scale: Scale) -> List[JobSpec]:
        return [
            job_spec(name(approach), f"{_SCN}:run_vm_profile", approach=approach,
                     link_rate_bps=link, profile_rate_bps=profile,
                     duration=0.15 * _stretch(scale, record), seed=scale.seed)
            for approach in approaches
        ]

    def render(results: Results, scale: Scale) -> str:
        return render_table(
            ["approach", "VM A outbound", "VM A inbound"],
            [["ideal", format_rate(profile), format_rate(profile)]] + [
                [approach.upper(), rate_range_str(r["outbound_range_bps"]),
                 rate_range_str(r["inbound_range_bps"])]
                for approach in approaches for r in [results[name(approach)]]
            ],
        )

    def claim(text: str, approach: str, holds) -> Claim:
        """``holds(outbound, inbound)``: VM A's mean rates, in units of its profile."""
        cell = name(approach)
        return Claim(text, [cell], lambda c: holds(c[cell]["outbound_mean_bps"] / profile,
                                                   c[cell]["inbound_mean_bps"] / profile))

    return Figure(
        "table3", "Table 3 - VM A outbound/inbound rate ranges "
        f"({format_rate(link)} links, {format_rate(profile)} profile)", record, cells, render,
        (
            claim("PQ: both directions blow far past the profile (means > 2x)", "pq",
                  lambda out, into: out > 2 and into > 2),
            claim("PRL: outbound held to the profile (mean < 1.2x)", "prl",
                  lambda out, into: out < 1.2),
            claim("PRL: three senders violate the inbound profile (mean > 2.4x)", "prl",
                  lambda out, into: into > 2.4),
            claim("AQ: both directions within 25% of the profile", "aq",
                  lambda out, into: 0.75 < out < 1.25 and 0.75 < into < 1.25),
            claim("DRL: enforces the inbound profile approximately (mean < 1.3x)", "drl",
                  lambda out, into: into < 1.3),
        ),
    )


def _table4() -> Figure:
    ccs = ("cubic", "newreno", "dctcp")
    name = "table4/{}/{}".format

    def cells(scale: Scale) -> List[JobSpec]:
        return [
            job_spec(name(approach, cc), f"{_SCN}:run_cc_preservation", cc=cc,
                     use_aq=(approach == "aq"), allocated_bps=gbps(2.5), capacity_bps=gbps(10),
                     seed=scale.seed)
            for cc in ccs
            for approach in PQ_AQ
        ]

    def render(results: Results, scale: Scale) -> str:
        return render_table(
            ["CC", "PQ throughput", "PQ 95p delay", "AQ throughput", "AQ 95p delay"],
            [[cc] + [text for r in (results[name("pq", cc)], results[name("aq", cc)])
                     for text in (format_rate(r["throughput_bps"]),
                                  f"{r['delay_p95_s'] * 1e6:.0f}us")]
             for cc in ccs],
        )

    def aq_over_pq(c: Results, cc: str, key: str) -> float:
        return c[name("aq", cc)][key] / c[name("pq", cc)][key]

    both = [name(approach, cc) for approach in PQ_AQ for cc in ccs]
    return Figure(
        "table4", "Table 4 - CC behaviour preserved: PQ@2.5G link vs AQ 2.5G-of-10G",
        Scale(seed=1), cells, render,
        (
            Claim("every CC gets the same throughput under AQ as on a dedicated link (> 0.93x)",
                  both, lambda c: all(aq_over_pq(c, cc, "throughput_bps") > 0.93 for cc in ccs)),
            Claim("every CC's virtual 95p queuing delay matches the physical one "
                  "(ratio within 0.6-1.6)",
                  both, lambda c: all(0.6 < aq_over_pq(c, cc, "delay_p95_s") < 1.6 for cc in ccs)),
            Claim("DCTCP's delay stays well below the loss-based CCs' under AQ (< 0.4x CUBIC's)",
                  [name("aq", "dctcp"), name("aq", "cubic")],
                  lambda c: c[name("aq", "dctcp")]["delay_p95_s"]
                  < 0.4 * c[name("aq", "cubic")]["delay_p95_s"]),
        ),
    )


# -- Section 5.5: switch resources (analytic) ---------------------------------


def _fig11() -> Figure:
    def render(results: Results, scale: Scale) -> str:
        return render_table(
            ["resource", "used", "consumed by"],
            [[u["resource"], f"{u['used_percent']:.1f}%", u["explanation"]]
             for u in results["fig11"]["usage"]],
        )

    def used(c: Results) -> Dict[str, float]:
        return {u["resource"]: u["used_percent"] for u in c["fig11"]["usage"]}

    return Figure(
        "fig11", "Figure 11 - switch data-plane resource usage (analytic model)", Scale(),
        lambda scale: [job_spec("fig11", f"{_JOBS}:job_tofino_usage")], render,
        (
            Claim("pipeline stages 16.8%, MAUs 12.5%, PHV size 7.5%", ["fig11"],
                  lambda c: (used(c)["pipeline stages"], used(c)["MAUs"], used(c)["PHV size"])
                  == (16.8, 12.5, 7.5)),
            Claim("every resource class stays well under 20%", ["fig11"],
                  lambda c: max(used(c).values()) < 20.0),
        ),
    )


def _fig12() -> Figure:
    counts = [10_000, 100_000, 500_000, 1_000_000, 2_000_000, 5_000_000]

    def render(results: Results, scale: Scale) -> str:
        return render_table(
            ["AQs (traffic constituents)", "memory"],
            [[f"{count:,}", f"{mb:.2f} MB"] for count, mb in results["fig12"]["series"]],
        )

    return Figure(
        "fig12", "Figure 12 - switch memory vs number of concurrent AQs", Scale(),
        lambda scale: [job_spec("fig12", f"{_JOBS}:job_memory_series", counts=counts)], render,
        (
            Claim("each AQ requires 15 bytes", ["fig12"],
                  lambda c: c["fig12"]["record_bytes"] == 15),
            Claim("one million AQs fit inside a single switch's SRAM", ["fig12"],
                  lambda c: dict(c["fig12"]["series"])[1_000_000] < c["fig12"]["sram_mb"]),
            Claim("a switch's SRAM holds more than a million AQs", ["fig12"],
                  lambda c: c["fig12"]["max_aqs_in_sram"] > 1_000_000),
        ),
    )


# -- Section 6 ablations, related work, extensions -----------------------------
# No scale flags: these grids were never user-scalable and their
# thresholds hold at one scale.


def _ablation_limits() -> Figure:
    allocated = gbps(2.5)
    limits = (4, 8, 16, 32, 64, 128, 200)  # packets
    name = "ablation/limits/{}pkts".format
    small, large = name(limits[0]), name(limits[-1])

    def cells(scale: Scale) -> List[JobSpec]:
        return [job_spec(name(packets), f"{_SCN}:run_limit_ablation",
                         limit_bytes=packets * MTU_BYTES, allocated_bps=allocated,
                         capacity_bps=gbps(10))
                for packets in limits]

    def render(results: Results, scale: Scale) -> str:
        return render_table(
            ["AQ limit", "achieved rate", "of allocation", "drops"],
            [[f"{packets} pkts", format_rate(r["rate_bps"]),
              f"{r['rate_bps'] / allocated * 100:.0f}%", f"{r['drop_fraction'] * 100:.2f}%"]
             for packets in limits for r in [results[name(packets)]]],
        )

    return Figure(
        "ablation/limits", "Ablation A - AQ limit sweep (allocation 2.5G of 10G, CUBIC x4)",
        Scale(), cells, render,
        (
            Claim("a too-small limit over-drops and strands the entity below its allocation "
                  "(< 90%)", [small], lambda c: c[small]["rate_bps"] < 0.9 * allocated),
            Claim("a large limit reaches the allocation (> 90%)", [large],
                  lambda c: c[large]["rate_bps"] > 0.9 * allocated),
            Claim("achieved rate grows with the limit (largest > 1.15x smallest)", [large, small],
                  lambda c: c[large]["rate_bps"] > 1.15 * c[small]["rate_bps"]),
        ),
    )


def _allocation_claim(text: str, cell: str, holds) -> Claim:
    """``holds(x)``: the cell's delivered rate in units of its allocation."""
    return Claim(text, [cell], lambda c: holds(c[cell]["rate_bps"] / c[cell]["allocated_bps"]))


def _allocation_rows(results: Results, labelled_cells) -> List[List[str]]:
    return [
        list(labels) + [format_rate(r["rate_bps"]),
                        f"{r['rate_bps'] / r['allocated_bps']:.2f}x allocation"]
        for labels, cell in labelled_cells for r in [results[cell]]
    ]


def _ablation_workconserve() -> Figure:
    name = "ablation/workconserve/{}-{}".format
    grid = [(("gated" if gated else "strict", "busy" if busy else "idle"), gated, busy)
            for gated in (False, True) for busy in (False, True)]

    def cells(scale: Scale) -> List[JobSpec]:
        return [job_spec(name(*labels), f"{_EXT}:run_work_conservation",
                         work_conserving=gated, with_competitor=busy)
                for labels, gated, busy in grid]

    def render(results: Results, scale: Scale) -> str:
        return render_table(
            ["mode", "fabric", "tenant rate", "vs allocation"],
            _allocation_rows(results, [(labels, name(*labels)) for labels, _, _ in grid]),
        )

    return Figure(
        "ablation/workconserve", "Ablation B - Section 6 work-conservation gate (2.5G of 10G)",
        Scale(), cells, render,
        (
            _allocation_claim("strict AQ stays pinned on an idle fabric (< 1.15x allocation)",
                              name("strict", "idle"), lambda x: x < 1.15),
            _allocation_claim("the gate exploits an idle fabric (> 1.8x allocation)",
                              name("gated", "idle"), lambda x: x > 1.8),
            _allocation_claim("contention re-engages the AQ (< 2.2x allocation)",
                              name("gated", "busy"), lambda x: x < 2.2),
        ),
    )


def _ablation_realloc() -> Figure:
    intervals_ms = (2, 5, 10, 20)
    name = "ablation/realloc/{}ms".format
    names = [name(ms) for ms in intervals_ms]

    def cells(scale: Scale) -> List[JobSpec]:
        return [job_spec(name(ms), f"{_SCN}:run_realloc_interval",
                         interval=ms * 1e-3, bottleneck_bps=LINK, phase=30e-3)
                for ms in intervals_ms]

    def render(results: Results, scale: Scale) -> str:
        return render_table(
            ["interval", "late joiner (settling)", "of fair share", "steady saturation"],
            [[f"{ms}ms", format_rate(r["late_bps"]), f"{r['late_bps'] / (LINK / 2) * 100:.0f}%",
              f"{r['steady_total_bps'] / LINK * 100:.0f}%"]
             for ms in intervals_ms for r in [results[name(ms)]]],
        )

    return Figure(
        "ablation/realloc", "Ablation C - weighted reallocation interval vs late-joiner ramp",
        Scale(), cells, render,
        (
            Claim("faster reallocation gets a late joiner closer to its share while settling "
                  "(2 ms beats 20 ms)", [names[0], names[-1]],
                  lambda c: c[names[0]]["late_bps"] > c[names[-1]]["late_bps"]),
            Claim("steady-state saturation stays > 85% at every interval", names,
                  lambda c: all(r["steady_total_bps"] > 0.85 * LINK for r in c.values())),
        ),
    )


def _related_perflow() -> Figure:
    pfq, aq, state = (f"related/perflow/{cell}" for cell in ("pfq", "aq", "state"))

    def cells(scale: Scale) -> List[JobSpec]:
        return [
            job_spec(pfq, f"{_EXT}:run_perflow_enforcement", mechanism="pfq"),
            job_spec(aq, f"{_EXT}:run_perflow_enforcement", mechanism="aq"),
            job_spec(state, f"{_JOBS}:job_perflow_state", counts=[1_000, 100_000, 1_000_000]),
        ]

    def render(results: Results, scale: Scale) -> str:
        r = results[state]
        return (
            "enforcing 0.5G on an uncongested 2.5G link\n" + render_table(
                ["mechanism", "delivered", "vs allocation"],
                _allocation_rows(results, [(["per-entity DRR queue"], pfq),
                                           (["AQ (limit-drop)"], aq)]))
            + f"\n\nswitch state to support N constituents (queue ~= "
            f"{r['per_queue_state_bytes']} B vs AQ record = {r['aq_record_bytes']} B)\n"
            + render_table(
                ["constituents", "per-entity queues", "AQ", "ratio"],
                [[f"{n:,}", format_size(queues), format_size(records), f"{queues / records:.0f}x"]
                 for n, queues, records in r["state_bytes"]])
        )

    return Figure(
        "related/perflow", "Related work - per-entity queues vs AQ (paper Sections 1 and 7)",
        Scale(), cells, render,
        (
            _allocation_claim("a per-entity queue releases traffic beyond the allocation when "
                              "the link is uncongested (> 1.7x)", pfq, lambda x: x > 1.7),
            _allocation_claim("the AQ pins the entity at its allocation (< 1.1x)", aq,
                              lambda x: x < 1.1),
            Claim("dedicated queues cost > 100x the switch state of AQ records at every scale",
                  [state], lambda c: all(queues / records > 100
                                         for _, queues, records in c[state]["state_bytes"])),
        ),
    )


def _ext_leafspine() -> Figure:
    pq, aq = "ext/leafspine/pq", "ext/leafspine/aq"

    def render(results: Results, scale: Scale) -> str:
        return render_table(
            ["mode", "tcp entity", "udp entity"],
            [[mode, format_rate(results[cell]["tcp_bps"]), format_rate(results[cell]["udp_bps"])]
             for mode, cell in (("PQ", pq), ("AQ", aq))],
        )

    return Figure(
        "ext/leafspine", "Extension - entity isolation across a 2-leaf/2-spine ECMP fabric "
        "(2 x 1G spine capacity)", Scale(),
        lambda scale: [job_spec(pq, f"{_EXT}:run_leafspine", with_aq=False),
                       job_spec(aq, f"{_EXT}:run_leafspine", with_aq=True)], render,
        (
            Claim("PQ: the UDP entity dominates the fabric paths it shares (> 2.5x the TCP "
                  "entity)", [pq], lambda c: c[pq]["udp_bps"] > 2.5 * c[pq]["tcp_bps"]),
            Claim("AQ at the source leaf restores the TCP entity's share (> 0.6 of a spine "
                  "link)", [aq], lambda c: c[aq]["tcp_bps"] > 0.6 * c[aq]["fabric_link_bps"]),
            Claim("AQ at the source leaf caps the UDP entity fabric-wide (< 1.4 of a spine "
                  "link)", [aq], lambda c: c[aq]["udp_bps"] < 1.4 * c[aq]["fabric_link_bps"]),
        ),
    )


def _ext_fct() -> Figure:
    pq, aq = "ext/fct/pq", "ext/fct/aq"

    def cells(scale: Scale) -> List[JobSpec]:
        return [job_spec(cell, f"{_SCN}:run_small_flow_protection", approach=approach,
                         bottleneck_bps=LINK, duration=0.1)
                for cell, approach in ((pq, "pq"), (aq, "aq"))]

    def render(results: Results, scale: Scale) -> str:
        return render_table(
            ["approach", "flows done", "p50 slowdown", "p99 slowdown", "mean"],
            [[label, "-", "starved", "starved", "0"] if r["starved"] else
             [label, str(r["completed_flows"]), f"{r['p50_slowdown']:.1f}x",
              f"{r['p99_slowdown']:.1f}x", f"{r['mean_slowdown']:.1f}x"]
             for label, r in (("PQ", results[pq]), ("AQ", results[aq]))],
        )

    return Figure(
        "ext/fct", "Extension - small-flow FCT slowdown vs a line-rate UDP blaster",
        Scale(), cells, render,
        (
            Claim("AQ: the victim's small flows complete (> 10 of them)", [aq],
                  lambda c: not c[aq]["starved"] and c[aq]["completed_flows"] > 10),
            Claim("AQ keeps small-flow FCTs near ideal (p50 slowdown < 4)", [aq],
                  lambda c: not c[aq]["starved"] and c[aq]["p50_slowdown"] < 4.0),
            Claim("PQ starves the victim outright, halves its completed flows, or inflates its "
                  "tail > 4x relative to AQ", [pq, aq],
                  lambda c: c[pq]["starved"]
                  or c[pq]["completed_flows"] < c[aq]["completed_flows"] // 2
                  or c[pq]["p99_slowdown"] > 4 * c[aq]["p99_slowdown"]),
        ),
    )


def _ext_multiqueue() -> Figure:
    mq, aq = "ext/multiqueue/multiqueue", "ext/multiqueue/aq"

    def victims(result: dict, colliding: bool) -> List[float]:
        """Victims (entities 1..) that do / do not hash into the blaster's
        queue: AQ ids are 1-based, the blaster's id 1 lands in queue 1."""
        return [rate for i, rate in enumerate(result["rates_bps"])
                if i > 0 and ((i + 1) % result["num_queues"] == 1) == colliding]

    def render(results: Results, scale: Scale) -> str:
        return render_table(
            ["mechanism", "blaster", "worst colliding victim", "worst non-colliding"],
            [[mechanism, format_rate(r["rates_bps"][0]), format_rate(min(victims(r, True))),
              format_rate(min(victims(r, False)))]
             for mechanism, r in (("multiqueue", results[mq]), ("aq", results[aq]))],
        )

    return Figure(
        "ext/multiqueue",
        "Extension (Sec 2.2) - 8 entities on 4 physical queues vs AQ on one queue", Scale(),
        lambda scale: [job_spec(mq, f"{_EXT}:run_multiqueue", mechanism="multiqueue"),
                       job_spec(aq, f"{_EXT}:run_multiqueue", mechanism="aq")], render,
        (
            Claim("multi-queue: the blaster's queue-mates are starved (< 0.6 of their share)",
                  [mq], lambda c: min(victims(c[mq], True)) < 0.6 * c[mq]["share_bps"]),
            Claim("AQ: every victim keeps its share (> 0.8)", [aq],
                  lambda c: min(c[aq]["rates_bps"][1:]) > 0.8 * c[aq]["share_bps"]),
            Claim("AQ: the blaster is capped (< 1.5 of its share)", [aq],
                  lambda c: c[aq]["rates_bps"][0] < 1.5 * c[aq]["share_bps"]),
        ),
    )


def _ext_cc() -> Figure:
    rows = [("timely", 5, "dctcp", 5), ("bbr", 5, "dctcp", 5), ("timely", 5, "cubic", 5)]
    name = ("ext/cc" + _PAIR_NAME).format
    fixed = Scale(bottleneck_gbps=2.0, seed=1)  # not flags: the record stays Scale()

    def render(results: Results, scale: Scale) -> str:
        return render_table(["pairing", "PQ", "AQ", "AQ min/max"],
                            _pair_rows(results, name, rows))

    return Figure(
        "ext/cc", "Extension (paper Sec 7) - TIMELY/BBR accommodate the AQ abstraction", Scale(),
        lambda scale: _pair_cells(name, rows, PQ_AQ, fixed, 70e-3, 30e-3), render,
        _aq_pair_claims(name, rows, 0.7),
    )


def _ext_incast() -> Figure:
    modes = ("baseline", "pq", "aq")
    name = "ext/incast/{}".format

    def p95(c: Results, mode: str) -> float:
        seconds = c[name(mode)]["p95_round_s"]
        return float("inf") if seconds is None else seconds  # None: the rounds stalled

    def render(results: Results, scale: Scale) -> str:
        return render_table(
            ["configuration", "p95 round duration"],
            [[mode, "stalled" if p95(results, mode) == float("inf")
              else f"{p95(results, mode) * 1e3:.2f}ms"] for mode in modes],
        )

    return Figure(
        "ext/incast", "Extension - incast (3-worker fan-in) p95 round latency vs a UDP blaster "
        "on the aggregator's downlink", Scale(),
        lambda scale: [job_spec(name(mode), f"{_EXT}:run_incast", mode=mode) for mode in modes],
        render,
        (
            Claim("PQ: the blaster inflates rounds > 5x (or stalls them outright)",
                  [name("pq"), name("baseline")],
                  lambda c: p95(c, "pq") > 5 * p95(c, "baseline")),
            Claim("AQ restores round latency to within 3x of the uncontended baseline (the "
                  "incast entity holds 0.7 of the downlink)", [name("aq"), name("baseline")],
                  lambda c: p95(c, "aq") < 3 * p95(c, "baseline")),
            Claim("AQ at least halves PQ's round latency", [name("aq"), name("pq")],
                  lambda c: p95(c, "aq") < p95(c, "pq") / 2),
        ),
    )


#: Every artifact of EXPERIMENTS.md, in its order.
FIGURES: Tuple[Figure, ...] = (
    _fig1(), _fig3(), _fig6(), _fig7(), _fig8(), _fig9(), _fig10(),
    _table2(), _table3(), _table4(), _fig11(), _fig12(),
    _ablation_limits(), _ablation_workconserve(), _ablation_realloc(), _related_perflow(),
    _ext_leafspine(), _ext_fct(), _ext_multiqueue(), _ext_cc(), _ext_incast(),
)
