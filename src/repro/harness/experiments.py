"""One experiment per paper table/figure.

Each function takes a shared :class:`~repro.harness.session.
ExperimentSession` (the parameter keeps its historical name, ``runner``)
and returns an :class:`ExperimentResult` with per-application rows, a
summary, and the paper's reference numbers for side-by-side reporting.
The ``checks`` list holds (description, bool) shape assertions — the
criteria DESIGN.md §4 commits to.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from ..analysis import analyze_functions, collect_stats
from ..arch.simstats import ratio
from ..security import (attacker_visible_gadgets, can_build_payload,
                        scan_gadgets, survey_gadgets)
from ..workloads import build_image
from . import paper
from .session import ExperimentSession
from .spec import RunSpec


@dataclass
class ExperimentResult:
    """Result of reproducing one table/figure."""

    exp_id: str
    title: str
    headers: Sequence[str]
    rows: List[Tuple] = field(default_factory=list)
    summary: str = ""
    paper_summary: str = ""
    checks: List[Tuple[str, bool]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for _desc, ok in self.checks)

    def check(self, description: str, ok: bool) -> None:
        self.checks.append((description, bool(ok)))


# ---------------------------------------------------------------------------
# Table I — qualitative mode comparison
# ---------------------------------------------------------------------------


def table1(runner: ExperimentSession) -> ExperimentResult:
    """Differences between straightforward ILR and VCFR (Table I).

    The qualitative rows are *measured*, not asserted: locality is judged
    by the IL1 miss-rate ratio, prefetch effectiveness by the prefetcher
    waste rate, diversity by whether a randomized layout exists.
    """
    result = ExperimentResult(
        "table1", "Differences between straightforward ILR and VCFR",
        ("property",) + paper.TABLE1_COLUMNS,
    )
    probe = "h264ref"  # any app with a non-trivial footprint
    base = runner.run(runner.spec(probe, "baseline"))
    naive = runner.run(runner.spec(probe, "naive_ilr"))
    vcfr = runner.run(runner.spec(probe, "vcfr"))

    locality_naive = naive.il1_miss_rate < 2 * base.il1_miss_rate
    locality_vcfr = vcfr.il1_miss_rate < 2 * base.il1_miss_rate
    prefetch_naive = naive.il1_prefetch_waste_rate < 0.5
    prefetch_vcfr = vcfr.il1_prefetch_waste_rate < 0.5

    result.rows = [
        ("Execution", "no control flow randomization", "randomized control flow",
         "randomized control flow"),
        ("Instruction locality", "preserved",
         "preserved" if locality_naive else "destroyed",
         "preserved" if locality_vcfr else "destroyed"),
        ("Instruction prefetch", "effective",
         "effective" if prefetch_naive else "not effective",
         "effective" if prefetch_vcfr else "not effective"),
        ("Control flow diversity", "no diversity", "diversified", "diversified"),
    ]
    result.check("naive ILR destroys locality", not locality_naive)
    result.check("VCFR preserves locality", locality_vcfr)
    result.check("naive ILR defeats the prefetcher", not prefetch_naive)
    result.check("VCFR keeps the prefetcher effective", prefetch_vcfr)
    result.summary = "measured qualitative properties match Table I"
    result.paper_summary = "Table I: naive ILR destroys locality/prefetch; VCFR preserves both"
    return result


# ---------------------------------------------------------------------------
# Fig. 2 — software-ILR emulator slowdown
# ---------------------------------------------------------------------------


def fig2(runner: ExperimentSession) -> ExperimentResult:
    result = ExperimentResult(
        "fig2", "Software ILR emulation slowdown vs native execution",
        ("app", "native cycles", "emulator host instructions", "slowdown"),
    )
    slowdowns = []
    for app in paper.FIG2["apps"]:
        native = runner.run(runner.spec(app, "baseline"))
        emulated = runner.emulate(app)
        slowdown = emulated.slowdown_vs(native.cycles)
        slowdowns.append(slowdown)
        result.rows.append(
            (app, native.cycles, emulated.host_instructions, round(slowdown, 1))
        )
    avg = statistics.mean(slowdowns)
    result.summary = "average slowdown %.0fx (min %.0fx, max %.0fx)" % (
        avg, min(slowdowns), max(slowdowns),
    )
    result.paper_summary = paper.FIG2["claim"]
    result.check("every app slows down by >100x", min(slowdowns) > 100)
    result.check("slowdowns in the hundreds-to-~1500x band",
                 max(slowdowns) < 4000)
    return result


# ---------------------------------------------------------------------------
# Fig. 3 — naive ILR cache impact
# ---------------------------------------------------------------------------


def fig3(runner: ExperimentSession) -> ExperimentResult:
    result = ExperimentResult(
        "fig3", "Impact of naive hardware ILR on IL1/L2 (vs baseline)",
        ("app", "IL1 miss ratio (x)", "prefetch waste +pp", "L2 pressure +%"),
    )
    ratios, waste_deltas, pressure_deltas = [], [], []
    for app in paper.SPEC_APPS:
        base = runner.run(runner.spec(app, "baseline"))
        naive = runner.run(runner.spec(app, "naive_ilr"))
        miss_ratio = ratio(naive.il1_miss_rate,
                           max(base.il1_miss_rate, 1e-9))
        waste = 100 * (naive.il1_prefetch_waste_rate - base.il1_prefetch_waste_rate)
        pressure = 100 * ratio(naive.l2_pressure - base.l2_pressure,
                               max(base.l2_pressure, 1))
        ratios.append(miss_ratio)
        waste_deltas.append(waste)
        pressure_deltas.append(pressure)
        result.rows.append(
            (app, round(miss_ratio, 1), round(waste, 1), round(pressure, 1))
        )
    result.summary = (
        "IL1 miss ratio: median %.1fx, max %.0fx; prefetch waste +%.0fpp avg; "
        "L2 pressure +%.0f%% median"
        % (statistics.median(ratios), max(ratios),
           statistics.mean(waste_deltas), statistics.median(pressure_deltas))
    )
    result.paper_summary = (
        "IL1 miss rate x%.1f avg (outlier %dx); prefetch misses +%.0f%%; "
        "L2 pressure +%.0f%%"
        % (paper.FIG3["il1_miss_ratio_avg"], paper.FIG3["il1_miss_ratio_outlier"],
           paper.FIG3["prefetch_miss_increase_pct"],
           paper.FIG3["l2_pressure_increase_pct"])
    )
    result.check("IL1 miss ratio rises by >2x for most apps",
                 statistics.median(ratios) > 2.0)
    result.check("at least one catastrophic outlier (>100x)", max(ratios) > 100)
    result.check("prefetching becomes wasteful somewhere",
                 max(waste_deltas) > 25)
    result.check("L2 pressure increases overall",
                 statistics.mean(pressure_deltas) > 0)
    return result


# ---------------------------------------------------------------------------
# Fig. 4 — naive ILR normalized IPC
# ---------------------------------------------------------------------------


def fig4(runner: ExperimentSession) -> ExperimentResult:
    result = ExperimentResult(
        "fig4", "Normalized IPC of naive hardware ILR",
        ("app", "baseline IPC", "naive IPC", "normalized"),
    )
    normalized = []
    for app in paper.SPEC_APPS:
        base = runner.run(runner.spec(app, "baseline"))
        naive = runner.run(runner.spec(app, "naive_ilr"))
        norm = ratio(naive.ipc, base.ipc)
        normalized.append(norm)
        result.rows.append(
            (app, round(base.ipc, 3), round(naive.ipc, 3), round(norm, 3))
        )
    avg = statistics.mean(normalized)
    result.summary = "average normalized IPC %.3f" % avg
    lo, hi = paper.FIG4["normalized_ipc_avg_range"]
    result.paper_summary = "average normalized IPC %.2f-%.2f" % (lo, hi)
    result.check("average normalized IPC in the 0.5-0.8 band", 0.5 <= avg <= 0.8)
    result.check("naive ILR never beats baseline", max(normalized) <= 1.02)
    return result


# ---------------------------------------------------------------------------
# Table II — static control-flow statistics
# ---------------------------------------------------------------------------


def table2(runner: ExperimentSession) -> ExperimentResult:
    result = ExperimentResult(
        "table2", "Static analysis of control flow",
        ("app", "direct", "indirect", "calls", "indirect calls"),
    )
    measured: Dict[str, Tuple[int, int, int, int]] = {}
    for app in paper.SPEC_APPS:
        image = build_image(app, scale=runner.scale)
        stats = collect_stats(image)
        measured[app] = stats.as_table2_row()
        result.rows.append((app,) + stats.as_table2_row())
    result.summary = "see rows (scaled-down binaries; shapes compared below)"
    result.paper_summary = "Table II (e.g. gcc: 149512 direct; xalan: 15465 indirect calls)"

    def rank(d, idx):
        return max(d, key=lambda a: d[a][idx])

    result.check("gcc has the most direct transfers", rank(measured, 0) == "gcc")
    result.check("xalan has the most indirect function calls",
                 rank(measured, 3) == "xalan")
    result.check("direct transfers dominate indirect in every app",
                 all(m[0] > 3 * m[1] for m in measured.values()))
    return result


# ---------------------------------------------------------------------------
# Fig. 9 — functions with/without ret
# ---------------------------------------------------------------------------


def fig9(runner: ExperimentSession) -> ExperimentResult:
    result = ExperimentResult(
        "fig9", "Functions with and without ret instructions",
        ("app", "with ret", "without ret"),
    )
    with_counts, without_counts = [], []
    for app in paper.SPEC_APPS:
        image = build_image(app, scale=runner.scale)
        analysis = analyze_functions(image)
        w, wo = len(analysis.with_ret), len(analysis.without_ret)
        with_counts.append(w)
        without_counts.append(wo)
        result.rows.append((app, w, wo))
    result.summary = "ret-returning functions dominate (%d vs %d total)" % (
        sum(with_counts), sum(without_counts),
    )
    result.paper_summary = paper.FIG9["claim"]
    result.check("functions with ret dominate in every app",
                 all(w >= wo for w, wo in zip(with_counts, without_counts)))
    return result


# ---------------------------------------------------------------------------
# Fig. 11 — gadget removal
# ---------------------------------------------------------------------------


def fig11(runner: ExperimentSession) -> ExperimentResult:
    result = ExperimentResult(
        "fig11", "Gadgets removed by control flow randomization",
        ("app", "gadgets before", "usable after", "removed %", "payload before",
         "payload after"),
    )
    removals = []
    payload_blocked_everywhere = True
    for app in paper.SPEC_APPS:
        program = runner.program_for(runner.spec(app))
        gadgets = scan_gadgets(program.original)
        survey = survey_gadgets(gadgets, program.rdr)
        before = can_build_payload(gadgets)
        after = can_build_payload(
            attacker_visible_gadgets(gadgets, program.rdr))
        payload_blocked_everywhere &= not after
        removals.append(survey.removal_percent)
        result.rows.append(
            (app, survey.total_before, survey.usable_after,
             round(survey.removal_percent, 1),
             "yes" if before else "no", "yes" if after else "no")
        )
    avg = statistics.mean(removals)
    result.summary = "average removal %.1f%%; payloads after randomization: none" % avg
    result.paper_summary = "average removal %.0f%%; %s" % (
        paper.FIG11["avg_removal_pct"], paper.FIG11["claim"],
    )
    result.check("average gadget removal >= 95%", avg >= 95.0)
    result.check("no attack payload can be assembled after randomization",
                 payload_blocked_everywhere)
    return result


# ---------------------------------------------------------------------------
# Fig. 12 — VCFR speedup over naive ILR
# ---------------------------------------------------------------------------


def fig12(runner: ExperimentSession) -> ExperimentResult:
    result = ExperimentResult(
        "fig12", "VCFR speedup over straightforward hardware ILR (DRC 128)",
        ("app", "naive IPC", "VCFR IPC", "speedup"),
    )
    speedups = {}
    for app in paper.SPEC_APPS:
        naive = runner.run(runner.spec(app, "naive_ilr"))
        vcfr = runner.run(runner.spec(app, "vcfr", drc_entries=128))
        speedup = ratio(vcfr.ipc, naive.ipc)
        speedups[app] = speedup
        result.rows.append(
            (app, round(naive.ipc, 3), round(vcfr.ipc, 3), round(speedup, 2))
        )
    avg = statistics.mean(speedups.values())
    gt2 = sorted(a for a, s in speedups.items() if s > 2.0)
    result.summary = "average speedup %.2fx; >2x: %s" % (avg, ", ".join(gt2))
    result.paper_summary = "average speedup %.2fx; >2x: %s" % (
        paper.FIG12["avg_speedup"], ", ".join(paper.FIG12["gt2x_apps"]),
    )
    result.check("VCFR is faster than naive ILR for every app",
                 min(speedups.values()) >= 0.99)
    result.check("average speedup exceeds 1.5x", avg > 1.5)
    result.check("multiple apps exceed 2x (incl. namd/h264ref/xalan)",
                 all(speedups[a] > 2.0 for a in ("namd", "h264ref", "xalan")))
    return result


# ---------------------------------------------------------------------------
# Fig. 13 — VCFR normalized IPC vs DRC size
# ---------------------------------------------------------------------------


def fig13(runner: ExperimentSession) -> ExperimentResult:
    sizes = (512, 128, 64)
    result = ExperimentResult(
        "fig13", "VCFR normalized IPC under different DRC sizes",
        ("app",) + tuple("DRC %d" % s for s in sizes),
    )
    by_size = {s: [] for s in sizes}
    for app in paper.SPEC_APPS:
        base = runner.run(runner.spec(app, "baseline"))
        row = [app]
        for size in sizes:
            vcfr = runner.run(runner.spec(app, "vcfr", drc_entries=size))
            norm = ratio(vcfr.ipc, base.ipc)
            by_size[size].append(norm)
            row.append(round(norm, 3))
        result.rows.append(tuple(row))
    means = {s: statistics.mean(v) for s, v in by_size.items()}
    result.summary = "mean normalized IPC: " + ", ".join(
        "%d->%.3f" % (s, means[s]) for s in sizes
    )
    result.paper_summary = "512->%.3f, 64->%.3f (2.1%% overhead)" % (
        paper.FIG13[512], paper.FIG13[64],
    )
    result.check("bigger DRC never hurts (512 >= 128 >= 64 on average)",
                 means[512] >= means[128] - 1e-9 >= means[64] - 2e-9)
    result.check("average overhead at 64 entries is small (<10%)",
                 means[64] > 0.90)
    result.check("average overhead at 512 entries is smaller (<6%)",
                 means[512] > 0.94)
    return result


# ---------------------------------------------------------------------------
# Fig. 14 — DRC miss rates
# ---------------------------------------------------------------------------


def fig14(runner: ExperimentSession) -> ExperimentResult:
    sizes = (512, 128, 64)
    result = ExperimentResult(
        "fig14", "DRC miss rates under different DRC sizes",
        ("app",) + tuple("DRC %d" % s for s in sizes),
    )
    by_size = {s: [] for s in sizes}
    worst = {}
    for app in paper.SPEC_APPS:
        row = [app]
        for size in sizes:
            vcfr = runner.run(runner.spec(app, "vcfr", drc_entries=size))
            miss = vcfr.drc_miss_rate
            by_size[size].append(miss)
            row.append(round(miss, 4))
        worst[app] = row[1 + sizes.index(64)]
        result.rows.append(tuple(row))
    means = {s: statistics.mean(v) for s, v in by_size.items()}
    result.summary = "mean miss rates: " + ", ".join(
        "%d->%.3f" % (s, means[s]) for s in sizes
    )
    result.paper_summary = "512->%.3f, 64->%.3f; worst: %s" % (
        paper.FIG14[512], paper.FIG14[64], ", ".join(paper.FIG14["worst_apps"]),
    )
    result.check("miss rate shrinks with DRC size",
                 means[512] <= means[128] <= means[64])
    result.check("64-entry average miss rate is substantial (>3%)",
                 means[64] > 0.03)
    result.check("512-entry average miss rate is small (<10%)",
                 means[512] < 0.10)
    return result


# ---------------------------------------------------------------------------
# Fig. 15 — DRC dynamic power overhead
# ---------------------------------------------------------------------------


def fig15(runner: ExperimentSession) -> ExperimentResult:
    result = ExperimentResult(
        "fig15", "DRC dynamic power overhead (DRC 128)",
        ("app", "DRC lookups", "overhead %"),
    )
    overheads = []
    for app in paper.SPEC_APPS:
        vcfr = runner.run(runner.spec(app, "vcfr", drc_entries=128))
        pct = vcfr.drc_power_overhead_percent
        overheads.append(pct)
        result.rows.append((app, vcfr.drc_lookups, round(pct, 3)))
    avg = statistics.mean(overheads)
    result.summary = "average DRC dynamic power overhead %.3f%%" % avg
    result.paper_summary = "average %.2f%% of CPU dynamic power" % (
        paper.FIG15["avg_power_overhead_pct"],
    )
    result.check("overhead is a small fraction of CPU power (<2%)", avg < 2.0)
    result.check("overhead is non-zero (the DRC is exercised)", avg > 0.0)
    return result


# ---------------------------------------------------------------------------
# Gadget-availability window — the rotation-service vs JIT-ROP race
# (beyond the paper: §V-C argues re-randomization bounds leaked-table
# usefulness but never runs the race; this family measures it)
# ---------------------------------------------------------------------------


def gadget_window(runner: ExperimentSession) -> ExperimentResult:
    """Gadget-availability window vs rotation cost, by policy x rate.

    Sweeps rotation policy against memory-disclosure rate for a
    payload-capable service tenant and reports the attacker's exposure
    (fraction of execution with a complete harvested payload, and the
    longest contiguous such window) against the defense's cost
    (rotation cycles charged plus block/trace invalidations).  Race
    points are scheduler jobs: seed-deterministic, cached, and
    bit-identical between sequential and pooled execution.
    """
    from ..security import AdversarySpec, RaceSpec, RotationPolicy

    result = ExperimentResult(
        "gadget_window",
        "Gadget-availability window vs rotation cost (JIT-ROP race)",
        ("policy", "disclosure rate", "exposure %", "max window (instr)",
         "first goal @", "rotations", "rotation cycles", "blk+trc inval",
         "IPC"),
    )
    budget = 80_000
    rates = (0.25, 0.5)
    policies = [
        RotationPolicy("none"),
        RotationPolicy("periodic", period_instructions=20_000),
        RotationPolicy("periodic", period_instructions=5_000),
        RotationPolicy("on_probe", probe_threshold=2),
        RotationPolicy("on_syscall", syscall_period=400),
    ]

    def adversary_for(policy, rate, enabled=True):
        return AdversarySpec(
            enabled=enabled,
            disclosure_rate=rate,
            mappings_per_disclosure=12,
            probe_rate=0.3 if policy.kind == "on_probe" else 0.0,
        )

    specs = [
        RaceSpec(policy=policy, adversary=adversary_for(policy, rate),
                 max_instructions=budget)
        for rate in rates
        for policy in policies
    ]
    # Control point: same service, adversary switched off entirely.
    control_spec = RaceSpec(
        policy=RotationPolicy("periodic", period_instructions=20_000),
        adversary=adversary_for(policies[1], rates[0], enabled=False),
        max_instructions=budget,
    )
    specs.append(control_spec)

    runner.prefetch(specs)
    races = [runner.run(spec) for spec in specs]
    control = races[-1]
    by_point = {
        (race.policy, race.disclosure_rate): race for race in races[:-1]
    }
    for race in races:
        label = race.policy if race.adversary_enabled else (
            race.policy + " (adv off)"
        )
        result.rows.append((
            label,
            race.disclosure_rate,
            round(100.0 * race.exposure_fraction, 2),
            race.max_exposure_streak,
            race.first_goal_icount if race.first_goal_icount is not None
            else "-",
            race.rotations,
            race.rotation_cycles,
            race.block_invalidations + race.trace_invalidations,
            round(race.ipc, 4),
        ))

    result.check(
        "adversary-disabled control leaks nothing and is never exposed",
        control.mappings_leaked == 0 and control.exposure_fraction == 0.0,
    )
    result.check(
        "every race point executed its full budget",
        all(race.instructions == race.tenants * budget for race in races),
    )
    result.check(
        "the service catalogue can express a payload (the race is about "
        "assembly, not counting)",
        all(race.payload_possible for race in races),
    )
    result.check(
        "a static layout leaves the attacker exposed at every rate",
        all(by_point[("none", rate)].exposure_fraction > 0.0
            for rate in rates),
    )
    for rate in rates:
        none_pt = by_point[("none", rate)]
        slow = by_point[("periodic@20000", rate)]
        fast = by_point[("periodic@5000", rate)]
        result.check(
            "faster rotation narrows the window (rate %.2f)" % rate,
            fast.max_exposure_streak <= slow.max_exposure_streak
            <= none_pt.max_exposure_streak
            and fast.exposure_fraction < none_pt.exposure_fraction,
        )
        result.check(
            "faster rotation costs more cycles (rate %.2f)" % rate,
            fast.rotation_cycles > slow.rotation_cycles > 0,
        )
        result.check(
            "periodic windows are bounded by period + quantum "
            "(rate %.2f)" % rate,
            slow.max_exposure_streak <= 20_000 + slow.window_instructions
            and fast.max_exposure_streak <= 5_000 + fast.window_instructions,
        )
    result.check(
        "on-probe rotation fires on crash telemetry",
        all(by_point[("on_probe@2", rate)].rotations > 0 and
            by_point[("on_probe@2", rate)].probe_crashes > 0
            for rate in rates),
    )
    result.check(
        "rotations flush the compiled tiers (DRC + blocks + traces)",
        all(race.block_invalidations >= race.rotations and
            race.drc_flushes == race.rotations
            for race in races if race.rotations),
    )

    high = by_point[("none", rates[-1])]
    guarded = by_point[("periodic@5000", rates[-1])]
    result.summary = (
        "at disclosure rate %.2f: static exposure %.0f%% (window %d instr) "
        "vs %.0f%% under periodic@5000 for %d rotation cycles"
        % (rates[-1], 100 * high.exposure_fraction, high.max_exposure_streak,
           100 * guarded.exposure_fraction, guarded.rotation_cycles)
    )
    result.paper_summary = (
        "beyond the paper: §V-C bounds leaked-table staleness statically; "
        "this family races the rotation service against a JIT-ROP harvester"
    )
    return result


# ---------------------------------------------------------------------------
# Datacenter fleet — multi-tenant serving over shared L2 + DRAM
# (beyond the paper: §IV-D measures per-switch DRC cost; this family
# runs protected tenants under traffic and reports the tails)
# ---------------------------------------------------------------------------


def fleet(runner: ExperimentSession) -> ExperimentResult:
    """Per-tenant tail latency and IPC fairness for a protected fleet.

    Four VCFR tenants serve open-loop traffic over two cores behind a
    genuinely shared L2 + DRAM; the grid varies arrival shape (Poisson
    vs bursty at the same long-run rate) and core count, with a
    lone-tenant control to expose cross-tenant L2 contention.  Fleet
    points are scheduler jobs: seed-deterministic, cached, and
    bit-identical between sequential and pooled execution.
    """
    from ..fleet import ArrivalSpec, FleetSpec

    result = ExperimentResult(
        "fleet",
        "Datacenter fleet: tail latency under multi-tenant contention",
        ("point", "tenant", "core", "served", "p50", "p95", "p99",
         "IPC", "fairness", "switches"),
    )
    requests = 30
    gap = 2_500
    poisson = ArrivalSpec(kind="poisson", requests=requests, mean_gap=gap)
    bursty = ArrivalSpec(kind="bursty", requests=requests, mean_gap=gap)
    specs = [
        FleetSpec(tenants=4, cores=2, arrival=poisson),
        FleetSpec(tenants=4, cores=2, arrival=bursty),
        FleetSpec(tenants=4, cores=1, arrival=poisson),
        FleetSpec(tenants=1, cores=1, arrival=poisson),
    ]
    runner.prefetch(specs)
    points = [runner.run(spec) for spec in specs]
    wide, wide_bursty, narrow, lone = points

    for spec, point in zip(specs, points):
        for tenant in point.tenant_results:
            result.rows.append((
                "%s %dt/%dc" % (spec.arrival.kind, spec.tenants,
                                spec.cores),
                tenant.tenant,
                tenant.core,
                "%d/%d" % (tenant.served, tenant.requests),
                tenant.p50_latency,
                tenant.p95_latency,
                tenant.p99_latency,
                round(tenant.ipc, 4),
                round(point.ipc_fairness, 4),
                tenant.switches,
            ))

    result.check(
        "every tenant served its whole trace (no dropped requests)",
        all(point.unserved == 0 for point in points),
    )
    result.check(
        "instruction conservation: work done == requests x demand",
        all(
            point.instructions
            == point.requests * point.request_instructions
            for point in points
        ),
    )
    result.check(
        "latency percentiles are ordered per tenant (p50<=p95<=p99<=max)",
        all(
            tenant.p50_latency <= tenant.p95_latency
            <= tenant.p99_latency <= tenant.max_latency
            for point in points for tenant in point.tenant_results
        ),
    )
    result.check(
        "homogeneous tenants share fairly (Jain index near 1)",
        0.95 <= wide.ipc_fairness <= 1.0,
    )
    result.check(
        "halving cores under the same load fattens the tail",
        narrow.p99_latency > wide.p99_latency,
    )
    result.check(
        "bursty arrivals at the same long-run rate fatten the tail "
        "and deepen queues",
        wide_bursty.p99_latency > wide.p99_latency
        and max(t.max_queue_depth for t in wide_bursty.tenant_results)
        > max(t.max_queue_depth for t in wide.tenant_results),
    )
    result.check(
        "the L2 is genuinely shared: co-located tenants miss more than "
        "the same tenant count run alone would",
        narrow.l2_misses > narrow.tenants * lone.l2_misses,
    )
    result.check(
        "switch accounting: charged cycles == switches x per-switch cost",
        all(
            point.switch_cycles_total
            == point.switches * point.switch_cycles
            for point in points
        ),
    )

    result.summary = (
        "4 tenants / 2 cores: p99 %d cycles (fairness %.3f); bursty p99 "
        "%d; on 1 core p99 %d; shared-L2 misses %d vs %d lone x4"
        % (wide.p99_latency, wide.ipc_fairness, wide_bursty.p99_latency,
           narrow.p99_latency, narrow.l2_misses, lone.l2_misses * 4)
    )
    result.paper_summary = (
        "beyond the paper: §IV-D prices one context switch; this family "
        "serves traffic across tenants sharing the L2 the DRC refills "
        "through"
    )
    return result


#: Ordered registry of every experiment.
ALL_EXPERIMENTS: Dict[str,
                      Callable[[ExperimentSession], ExperimentResult]] = {
    "table1": table1,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "table2": table2,
    "fig9": fig9,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "gadget_window": gadget_window,
    "fleet": fleet,
}


# ---------------------------------------------------------------------------
# Suite spec enumeration — the sweep engine's work list
# ---------------------------------------------------------------------------

#: Declarative run requirements per experiment: (apps, mode, drc_entries)
#: groups, expanded against the runner's defaults by :func:`suite_specs`.
#: Static experiments (table2, fig9, fig11) need programs, not runs.
_EXPERIMENT_RUNS: Dict[str, List[Tuple[Sequence[str], str, int]]] = {
    "table1": [(("h264ref",), "baseline", 0),
               (("h264ref",), "naive_ilr", 0),
               (("h264ref",), "vcfr", 0)],
    "fig2": [(tuple(paper.FIG2["apps"]), "baseline", 0),
             (tuple(paper.FIG2["apps"]), "emulate", 0)],
    "fig3": [(tuple(paper.SPEC_APPS), "baseline", 0),
             (tuple(paper.SPEC_APPS), "naive_ilr", 0)],
    "fig4": [(tuple(paper.SPEC_APPS), "baseline", 0),
             (tuple(paper.SPEC_APPS), "naive_ilr", 0)],
    "fig12": [(tuple(paper.SPEC_APPS), "naive_ilr", 0),
              (tuple(paper.SPEC_APPS), "vcfr", 128)],
    "fig13": [(tuple(paper.SPEC_APPS), "baseline", 0)] + [
        (tuple(paper.SPEC_APPS), "vcfr", size) for size in (512, 128, 64)
    ],
    "fig14": [(tuple(paper.SPEC_APPS), "vcfr", size)
              for size in (512, 128, 64)],
    "fig15": [(tuple(paper.SPEC_APPS), "vcfr", 128)],
}


def suite_specs(runner: ExperimentSession,
                experiments: Sequence[str] = ()) -> List[RunSpec]:
    """Every :class:`RunSpec` the named experiments will ask for.

    This is what makes ``run_all`` sweepable: the full work list is
    known up front, so it can be fanned out over workers and checked
    against the result cache *before* any experiment starts.  Specs are
    deduplicated and ordered app-major within each experiment, matching
    the order a sequential run would first need them.
    """
    wanted = list(experiments) or list(ALL_EXPERIMENTS)
    specs: List[RunSpec] = []
    for exp_id in wanted:
        for apps, mode, drc_entries in _EXPERIMENT_RUNS.get(exp_id, ()):
            for app in apps:
                specs.append(runner.spec(app, mode, drc_entries))
    return list(dict.fromkeys(specs))


def run_all(runner: ExperimentSession,
            experiments: Sequence[str] = ()) -> Dict[str, ExperimentResult]:
    """Run every experiment (or the named subset), sharing the runner's
    caches.

    When the runner has a worker pool or a persistent result cache, the
    suite's full spec list is prefetched first — simulations fan out in
    parallel and/or load from disk, and the experiment functions then
    assemble their tables from memoized results.  Row values are
    bit-identical to a plain sequential run either way.
    """
    wanted = list(experiments) or list(ALL_EXPERIMENTS)
    if runner.workers >= 2 or runner.cache is not None:
        runner.prefetch(suite_specs(runner, wanted))
    return {name: ALL_EXPERIMENTS[name](runner) for name in wanted}
