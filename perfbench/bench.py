"""The benchmark's three workloads: what each runs, times and checks.

Every workload is a closed loop in one process with no pool: one unit of
work starts only after the previous one ended.  Each unit is timed
between two reference-loop timings and rescaled by them (see
:mod:`calib`); a reported time is a sum of per-unit medians over passes.

``paper_suite``
    The thirteen experiments ``python -m repro.harness`` runs, through
    one ``ExperimentSession`` (``workers=0``) on a fresh result cache:
    a cold pass, then warm passes of new sessions over the same cache.
    It is the paper user's own job and the only workload that puts the
    harness, scheduler, result cache, ``emu``, ``security`` and
    ``fleet`` on the path; the warm pass isolates the work the cache
    cannot absorb.
``sim_hot``
    lbm, libquantum, mcf and soplex run to completion in all three modes
    straight through ``CycleCPU.run``.  A handful of hot traces retire
    almost every instruction, so the trace tier and the cache/DRAM model
    do the work and block building and decode do almost none.
``sim_branchy``
    gcc, xalan, sjeng and bzip2, run the same way.  Thousands of block
    executions and trace bailouts per run, and naive-ILR IPC near 0.15
    on gcc and xalan, keep block building, decode and the IL1/L2 model
    busy.  Same ``arch`` layer as ``sim_hot``, used differently, so a
    trace-tier gain paid for by the block tier shows up.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from typing import Dict, List, Optional

import repro.ilr as ilr
import repro.workloads as workloads
from repro.arch.config import default_config
from repro.arch.cpu import CycleCPU
from repro.harness import ALL_EXPERIMENTS, ExperimentSession, paper, suite_specs

from calib import NOMINAL_SECONDS, SENSITIVITY, Sample, UnitTimer
from spans import LayerTracer

DEFAULT_SEED = 42
MODES = ("baseline", "naive_ilr", "vcfr")
SIM_PROGRAMS = {
    "sim_hot": ("lbm", "libquantum", "mcf", "soplex"),
    "sim_branchy": ("gcc", "xalan", "sjeng", "bzip2"),
}
WORKLOADS = ("paper_suite",) + tuple(SIM_PROGRAMS)
#: Programs the paper suite's sessions build: the SPEC set plus Fig. 2's.
PAPER_PROGRAMS = tuple(sorted(set(workloads.SPEC_APPS)
                              | set(workloads.FIG2_APPS)))
#: Fresh builds timed for ``setup_s``; one cold build varies by 2x on a
#: shared host, the median of this many does not.
SETUP_ROUNDS = 7
#: Fewest timed passes whatever ``seconds``; a traced run alternates
#: untraced and traced passes and makes at least this many of each.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: The warm paper pass is a few long units (gadget_window alone is ~2 s)
#: whose calibration drifts within the unit; more passes steady it.
MIN_WARM_PASSES = 5
#: Far beyond any program's length, so simulations run to completion.
SIM_BUDGET = 50_000_000

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
OUT_DIR = os.path.join(HERE, "out")


def digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_golden(workload: str) -> Optional[Dict[str, str]]:
    try:
        with open(GOLDEN_PATH) as fh:
            return json.load(fh).get(workload)
    except FileNotFoundError:
        return None


def save_golden(workload: str, digests: Dict[str, str]) -> None:
    try:
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
    except FileNotFoundError:
        golden = {}
    golden[workload] = dict(sorted(digests.items()))
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


class Ledger:
    """Operations attempted and failed.

    The first result of each operation key is checked against the golden
    digest (when one is given); every later result of the same key must
    repeat the first exactly.
    """

    def __init__(self, golden: Optional[Dict[str, str]] = None):
        self.golden = golden
        self.digests: Dict[str, str] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, key: str, result_digest: Optional[str],
               problems: List[str]) -> None:
        self.attempted += 1
        if result_digest is None:
            pass
        elif key not in self.digests:
            self.digests[key] = result_digest
            if self.golden is not None and \
                    self.golden.get(key) != result_digest:
                problems.append("digest %s, golden %s"
                                % (result_digest, self.golden.get(key)))
        elif self.digests[key] != result_digest:
            problems.append("result differs from its first run")
        if problems:
            self.failures.append("%s: %s" % (key, "; ".join(problems)))

    @property
    def failed(self) -> int:
        return len(self.failures)


class Report:
    """Metrics of one run, each with its unit and raw reading."""

    def __init__(self, timer: UnitTimer,
                 tracer: Optional[LayerTracer] = None) -> None:
        self.timer = timer
        self.tracer = tracer
        self.metrics: Dict[str, dict] = {}
        self.raw: Dict[str, float] = {}

    def add(self, name: str, value: float, unit: str,
            raw: Optional[float] = None) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        if raw is not None:
            self.raw[name] = raw

    def add_seconds(self, name: str, sample: Sample) -> None:
        self.add(name, sample[1], "s", sample[0])

    def add_rate(self, name: str, count: float, sample: Sample) -> None:
        self.add(name, count / sample[1], "1/s", count / sample[0])


def _median_sum(samples: Dict[str, List[Sample]]) -> Sample:
    """Per-unit medians, summed: (raw, calibrated) seconds."""
    return tuple(sum(statistics.median(sample[i] for sample in unit)
                     for unit in samples.values()) for i in (0, 1))


def _total(samples: Dict[str, List[Sample]]) -> Sample:
    """Every sample, summed: (raw, calibrated) seconds."""
    return tuple(sum(sample[i] for unit in samples.values()
                     for sample in unit) for i in (0, 1))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def paper_error_pct(results: dict) -> float:
    """Mean relative error (%) of the headline averages these results
    can form against the paper's reported averages.

    ``results`` maps ``(app, mode, drc_entries)`` to a ``SimResult``.
    Sources: Fig. 4 normalized IPC, Fig. 12 speedup, Fig. 13 64-entry
    overhead and Fig. 15 DRC power, each where its runs are present.
    """
    apps = sorted({app for app, _mode, _drc in results})

    def have(*keys):
        return all((app,) + key in results for app in apps for key in keys)

    def mean_of(fn):
        return statistics.mean(fn(app) for app in apps)

    def ipc(app, mode, drc=0):
        return results[(app, mode, drc)].ipc

    pairs = []
    base, naive = ("baseline", 0), ("naive_ilr", 0)
    vcfr128, vcfr64 = ("vcfr", 128), ("vcfr", 64)
    if have(base, naive):
        lo, hi = paper.FIG4["normalized_ipc_avg_range"]
        pairs.append((mean_of(lambda a: ipc(a, *naive) / ipc(a, *base)),
                      (lo + hi) / 2))
    if have(naive, vcfr128):
        pairs.append((mean_of(lambda a: ipc(a, *vcfr128) / ipc(a, *naive)),
                      paper.FIG12["avg_speedup"]))
    if have(base, vcfr64):
        pairs.append((1 - mean_of(lambda a: ipc(a, *vcfr64) / ipc(a, *base)),
                      1 - paper.FIG13[64]))
    if have(vcfr128):
        pairs.append((mean_of(lambda a: results[(a,) + vcfr128]
                              .drc_power_overhead_percent),
                      paper.FIG15["avg_power_overhead_pct"]))
    return 100 * statistics.mean(abs(m - p) / p for m, p in pairs)


# -- shared pieces ----------------------------------------------------------


def _setup(apps, seed: int, scale: float, timer: UnitTimer,
           tracer: Optional[LayerTracer]) -> tuple:
    """Build and randomize ``apps`` from scratch SETUP_ROUNDS times.
    Returns (programs of the last round, median round Sample)."""
    def build():
        workloads.clear_cache()
        return {
            app: ilr.randomize(workloads.build_image(app, scale),
                               ilr.RandomizerConfig(seed=seed))
            for app in apps
        }

    rounds = []
    with tracer if tracer is not None else nullcontext():
        for _ in range(SETUP_ROUNDS):
            programs, sample = timer.run(build)
            rounds.append(sample)
    return programs, _median_sum({"setup": rounds})


def _layer_metrics(report: Report, timer: UnitTimer, tracer: LayerTracer,
                   setup_span: tuple, run_start: int, per: int,
                   total_raw: float, overhead_pct: float,
                   hit_ratio: float) -> None:
    """Per-layer metrics of a traced run.

    ``setup_span`` is the (since, until) marks of the traced setup
    rounds, ``run_start`` the mark where the traced passes begin, and
    ``per`` how many traced passes follow it.  Times are calibrated
    seconds per setup round or per pass; shares are of the traced
    passes' host time (``total_raw``); counts are per pass.
    """
    setup = tracer.layer_seconds(*setup_span)
    run = tracer.layer_seconds(run_start)
    counts = tracer.counts
    for layer in ("workloads.build", "ilr.randomize"):
        seconds = setup.get(layer, 0.0) / SETUP_ROUNDS
        report.add(layer + "_s", timer.calibrated(seconds), "s", seconds)
    for mode in MODES:
        seconds = run.get("arch.%s.run" % mode, 0.0) / per
        instructions = counts["arch.%s.instructions" % mode] / per
        cycles = counts["arch.%s.cycles" % mode] / per
        report.add("arch.%s.run_s" % mode, timer.calibrated(seconds), "s",
                   seconds)
        ns = 1e9 * seconds / instructions if instructions else 0.0
        report.add("arch.%s.ns_per_instr" % mode, timer.calibrated(ns), "ns",
                   ns)
        report.add("arch.%s.instructions" % mode, instructions, "count")
        report.add("arch.%s.cycles" % mode, cycles, "count")
        report.add("arch.%s.ipc" % mode,
                   instructions / cycles if cycles else 0.0, "instr/cycle")
    for name in ("blocks.builds", "blocks.execs", "traces.builds",
                 "traces.entries", "traces.bailouts",
                 "traces.compile_failures", "il1.misses", "l2.misses",
                 "dram.accesses", "drc.lookups", "drc.misses",
                 "branch.mispredicts"):
        report.add(name, counts[name] / per, "count")
    execs = counts["blocks.execs"]
    report.add("blocks.hit_ratio",
               counts["blocks.hits"] / execs if execs else 0.0, "ratio")
    shares = ["emu.emulate", "security.scan", "security.race", "fleet.run"]
    shares += ["harness.%s" % exp for exp in ALL_EXPERIMENTS]
    shares += ["harness.self", "harness.cache.get", "harness.cache.put"]
    for layer in shares:
        seconds = run.get(layer, 0.0)
        report.add(layer + "_pct", 100 * seconds / total_raw, "%",
                   seconds / per)
    report.add("harness.cache.hit_ratio", hit_ratio, "ratio")
    report.add("trace.overhead_pct", overhead_pct, "%")


# -- sim_hot / sim_branchy --------------------------------------------------


def _simulate(program, mode: str):
    image = {
        "baseline": program.original,
        "naive_ilr": program.naive_image,
        "vcfr": program.vcfr_image,
    }[mode]
    cpu = CycleCPU(image, ilr.make_flow(mode, program), default_config())
    return cpu.run(SIM_BUDGET)


def _words(result):
    return list(result.output.words) if result.output is not None else None


def _sim_pass(programs, timer: UnitTimer, ledger: Ledger,
              tracer: Optional[LayerTracer],
              samples: Dict[str, List[Sample]]) -> dict:
    """Every program in every mode once; returns {(app, mode, drc):
    SimResult} for the runs that completed."""
    results = {}
    drc = default_config().drc.entries
    for app, program in programs.items():
        done = {}
        for mode in MODES:
            key = "%s/%s" % (app, mode)
            if tracer is not None:
                tracer.op = key
            try:
                done[mode], sample = timer.run(_simulate, program, mode)
            except Exception as exc:  # an operation failure, not a crash
                ledger.record(key, None, ["raised %r" % exc])
                continue
            samples[key].append(sample)
        reference = _words(done["baseline"]) if "baseline" in done else None
        for mode, result in done.items():
            problems = []
            if not result.finished or result.exit_code != 0:
                problems.append("did not finish cleanly (exit %r)"
                                % (result.exit_code,))
            if _words(result) != reference:
                problems.append("output words differ from baseline")
            ledger.record("%s/%s" % (app, mode),
                          digest(result.to_dict()), problems)
            results[(app, mode, drc if mode == "vcfr" else 0)] = result
    return results


def run_sim(workload: str, seed: int, seconds: float, trace: bool,
            ledger: Ledger, scale: float = 1.0) -> Report:
    timer = UnitTimer()
    tracer = LayerTracer() if trace else None
    report = Report(timer, tracer)
    setup_mark = tracer.mark() if trace else 0
    programs, setup = _setup(SIM_PROGRAMS[workload], seed, scale, timer,
                             tracer)
    setup_span = (setup_mark, tracer.mark() if trace else 0)

    # samples[traced][op key] -> one Sample per pass
    samples = {False: defaultdict(list), True: defaultdict(list)}
    passes = Counter()
    run_start = tracer.mark() if trace else 0
    first = None
    kinds = (False, True) if trace else (False,)
    needed = MIN_TRACED_PASSES if trace else MIN_PASSES
    start = time.perf_counter()
    while (min(passes[kind] for kind in kinds) < needed
           or time.perf_counter() - start < seconds):
        traced = trace and passes[False] > passes[True]
        with tracer if traced else nullcontext():
            results = _sim_pass(programs, timer, ledger,
                                tracer if traced else None, samples[traced])
        passes[traced] += 1
        first = first or results

    untraced = _median_sum(samples[False])
    instructions = sum(result.instructions for result in first.values())
    if not trace:
        report.add_seconds("setup_s", setup)
        report.add_seconds("run_s", (setup[0] + untraced[0],
                                     setup[1] + untraced[1]))
        report.add_seconds("warm_s", untraced)
        report.add_rate("sim_ips", instructions, untraced)
        report.add("peak_rss_mb", _peak_rss_mb(), "MB")
        report.add("paper_err_pct", paper_error_pct(first), "%")
        return report
    traced = _median_sum(samples[True])
    _layer_metrics(
        report, timer, tracer, setup_span, run_start,
        per=passes[True],
        total_raw=_total(samples[True])[0],
        overhead_pct=100 * (traced[1] - untraced[1]) / untraced[1],
        hit_ratio=0.0,
    )
    return report


# -- paper_suite ------------------------------------------------------------


def _suite_pass(session: ExperimentSession, timer: UnitTimer,
                ledger: Ledger, tracer: Optional[LayerTracer],
                samples: Dict[str, List[Sample]], cold: bool) -> None:
    """Every experiment once, in registry order.

    An experiment first fetches its specs, as ``run_all`` does for the
    whole suite, then assembles its result.  On a cold cache each spec
    not fetched earlier in the pass is a unit of its own, so that no
    unit runs for many seconds between two reference timings; on a warm
    cache an experiment's specs are fetched as one unit.
    """
    fetched = set()
    for exp, experiment in ALL_EXPERIMENTS.items():
        def unit(fn, arg):
            span = (tracer.span("harness.experiment", exp=exp)
                    if tracer is not None else nullcontext())
            with span:
                return fn(arg)

        specs = [spec for spec in suite_specs(session, [exp])
                 if spec not in fetched]
        fetched.update(specs)
        batches = [[spec] for spec in specs] if cold else [specs]
        units = [(session.prefetch, batch) for batch in batches if batch]
        units.append((experiment, session))
        if tracer is not None:
            tracer.op = exp
        try:
            parts = [timer.run(unit, fn, arg) for fn, arg in units]
        except Exception as exc:  # an operation failure, not a crash
            ledger.record(exp, None, ["raised %r" % exc])
            continue
        result = parts[-1][0]
        samples[exp].append(_total({exp: [sample for _, sample in parts]}))
        failed_checks = [desc for desc, ok in result.checks if not ok]
        ledger.record(exp, digest(result.rows),
                      ["check failed: %s" % desc for desc in failed_checks])


def _suite_results(session: ExperimentSession) -> dict:
    """{(app, mode, drc): SimResult} of the headline runs (memo hits)."""
    results = {}
    for app in paper.SPEC_APPS:
        for mode, drc in (("baseline", 0), ("naive_ilr", 0), ("vcfr", 128),
                          ("vcfr", 64)):
            results[(app, mode, drc)] = session.run(
                session.spec(app, mode, drc))
    return results


def run_paper(seed: int, seconds: float, trace: bool, ledger: Ledger,
              scale: float = 1.0, max_instructions: int = 300_000) -> Report:
    timer = UnitTimer()
    tracer = LayerTracer() if trace else None
    report = Report(timer, tracer)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="paper-cache-", dir=OUT_DIR)

    def session_on(cache_dir: str) -> ExperimentSession:
        return ExperimentSession(seed=seed, scale=scale,
                                 max_instructions=max_instructions,
                                 workers=0, cache_dir=cache_dir)

    def cold(cache_name: str, traced: bool):
        workloads.clear_cache()
        samples = defaultdict(list)
        session = session_on(os.path.join(workdir, cache_name))
        with tracer if traced else nullcontext():
            _suite_pass(session, timer, ledger, tracer if traced else None,
                        samples, cold=True)
        return session, _total(samples)

    try:
        setup_mark = tracer.mark() if trace else 0
        _programs, setup = _setup(PAPER_PROGRAMS, seed, scale, timer, tracer)
        setup_span = (setup_mark, tracer.mark() if trace else 0)
        session, cold_pass = cold("cold", traced=False)
        results = _suite_results(session)
        instructions = sum(
            session.run(spec).instructions
            for spec in suite_specs(session) if spec.is_simulation)
        cache_dir = session.cache.root

        if trace:
            run_start = tracer.mark()
            session, traced_cold = cold("traced", traced=True)
            warm = defaultdict(list)
            warm_session = session_on(session.cache.root)
            with tracer:
                _suite_pass(warm_session, timer, ledger, tracer, warm,
                            cold=False)
            cache = warm_session.cache
            _layer_metrics(
                report, timer, tracer, setup_span, run_start, per=1,
                total_raw=traced_cold[0] + _total(warm)[0],
                overhead_pct=(100 * (traced_cold[1] - cold_pass[1])
                              / cold_pass[1]),
                hit_ratio=cache.hits / max(1, cache.hits + cache.misses),
            )
            return report

        warm = defaultdict(list)
        start = time.perf_counter()
        passes = 0
        while (passes < MIN_WARM_PASSES
               or time.perf_counter() - start < seconds):
            _suite_pass(session_on(cache_dir), timer, ledger, None, warm,
                        cold=False)
            passes += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report.add_seconds("setup_s", setup)
    report.add_seconds("run_s", cold_pass)
    report.add_seconds("warm_s", _median_sum(warm))
    report.add_rate("sim_ips", instructions, cold_pass)
    report.add("peak_rss_mb", _peak_rss_mb(), "MB")
    report.add("paper_err_pct", paper_error_pct(results), "%")
    return report


# -- entry point ------------------------------------------------------------


def run_workload(workload: str, seed: int = DEFAULT_SEED,
                 seconds: float = 10.0, trace: bool = False,
                 golden: Optional[Dict[str, str]] = None,
                 scale: float = 1.0,
                 max_instructions: int = 300_000) -> tuple:
    """Run one workload; returns (result dict, Report, Ledger).

    The result dict is what the benchmark prints last: ``correct``,
    ``attempted``, ``failed`` and ``metrics``.
    """
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (workload, ", ".join(WORKLOADS)))
    ledger = Ledger(golden)
    if workload == "paper_suite":
        report = run_paper(seed, seconds, trace, ledger, scale,
                           max_instructions)
    else:
        report = run_sim(workload, seed, seconds, trace, ledger, scale)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": report.metrics,
    }
    return result, report, ledger


def describe(report: Report) -> List[str]:
    """Human-readable lines: each metric beside its raw reading and the
    calibration that rescaled it."""
    reference = report.timer.reference
    lines = ["calibration: reference loop median %.6f s over %d timings "
             "(min %.6f, max %.6f); each unit's calibrated seconds = raw x "
             "(%.3f / mean of the timings around it) ** %.2f"
             % (statistics.median(reference), len(reference),
                min(reference), max(reference), NOMINAL_SECONDS,
                SENSITIVITY)]
    for name, metric in report.metrics.items():
        raw = report.raw.get(name)
        lines.append("%-32s %14.6g %-12s%s" % (
            name, metric["value"], metric["unit"],
            "" if raw is None else "  raw %.6g" % raw))
    return lines
