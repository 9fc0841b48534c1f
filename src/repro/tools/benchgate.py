"""Machine-readable benchmark-gate reports.

Every performance/quality gate in ``benchmarks/bench_*.py`` funnels
through this module so each pytest gate leaves a ``BENCH_<name>.json``
artifact next to its pass/fail — the perf trajectory across PRs is
then diffable instead of living only in CI logs.

Report shape (one file per bench, rewritten as its gates record)::

    {
      "bench": "hot_loop",
      "pass": true,
      "gates": [
        {"metric": "baseline_speedup", "value": 3.61,
         "threshold": 3.0, "op": ">=", "pass": true,
         "q1": 3.52, "q3": 3.70, "rounds": 7},
        ...
      ]
    }

A timed gate reads the median of per-round ratios between legs that
:func:`time_rounds` runs in rotated order, with its quartiles and
round count beside it.  Gates record *before* asserting, so a failing
run still leaves a report with ``"pass": false`` for the trajectory.
The output directory is ``$BENCH_REPORT_DIR`` when set, else the
current working directory (the repo root under ``make verify``).
Experiment reports (:func:`emit_experiment`) land in the working
directory only where a baseline is committed.

``python -m repro.tools.benchgate --compare`` is the *trend* check:
it diffs freshly written reports against the versions committed at
``HEAD`` (via ``git show``) and fails when a thresholded metric moved
in its regression direction by more than the tolerance — so a perf
slide that still clears its hard gate is caught at the PR that caused
it, not three PRs later when the gate finally trips.  ``make verify``
runs it after the benchmark legs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["gate", "record", "time_rounds", "paired_ratio", "record_ratio",
           "gate_overhead", "emit_experiment", "report_path",
           "compare_reports", "main"]

_OPS = {
    ">=": lambda value, threshold: value >= threshold,
    "<=": lambda value, threshold: value <= threshold,
    ">": lambda value, threshold: value > threshold,
    "<": lambda value, threshold: value < threshold,
    "==": lambda value, threshold: value == threshold,
}

#: bench name -> accumulated gate records for this process.
_registry: Dict[str, List[dict]] = {}


def report_path(bench: str) -> str:
    """Filesystem path of ``bench``'s report."""
    out_dir = os.environ.get("BENCH_REPORT_DIR") or os.getcwd()
    return os.path.join(out_dir, "BENCH_%s.json" % bench)


def _flush(bench: str) -> None:
    gates = _registry[bench]
    payload = {
        "bench": bench,
        "pass": all(g["pass"] for g in gates),
        "gates": gates,
    }
    path = report_path(bench)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def record(bench: str, metric: str, value, threshold, op: str = ">=",
           **extra) -> bool:
    """Record one gate outcome into ``BENCH_<bench>.json``.

    Returns whether the gate passed; never raises on failure (use
    :func:`gate` for asserting callers)."""
    ok = bool(_OPS[op](value, threshold))
    entry = {"metric": metric, "value": value, "threshold": threshold,
             "op": op, "pass": ok}
    if extra:
        entry.update(extra)
    _registry.setdefault(bench, []).append(entry)
    _flush(bench)
    return ok


def gate(bench: str, metric: str, value, threshold, op: str = ">=",
         **extra) -> None:
    """Record one gate and assert it passed.

    The report is written before the assert, so a red gate still
    leaves its value on disk."""
    ok = record(bench, metric, value, threshold, op=op, **extra)
    assert ok, "%s: %s = %r not %s %r" % (bench, metric, value, op,
                                          threshold)


def time_rounds(legs: Dict[str, Callable[[], Tuple[float, object]]],
                rounds: int) -> Dict[str, List[float]]:
    """Leg name -> its seconds in each round.  A leg returns
    ``(seconds, result)`` and every result must equal the first.  An
    untimed round runs each leg once, then round ``r`` runs them in
    their order rotated left by ``r``, collecting garbage before each."""
    names, results = list(legs), []
    times: Dict[str, List[float]] = {name: [] for name in names}
    for r in range(-1, rounds):  # round -1 is the untimed one
        k = max(r, 0) % len(names)
        for name in names[k:] + names[:k]:
            gc.collect()
            seconds, result = legs[name]()
            results = results or [result]
            assert result == results[0], (
                "the %s leg's result differs from the first one" % name)
            if r >= 0:
                times[name].append(seconds)
    return times


def paired_ratio(over: List[float],
                 under: List[float]) -> Tuple[float, float, float]:
    """``(median, q1, q3)`` of the per-round ratios ``over / under``."""
    q1, median, q3 = statistics.quantiles(
        [o / u for o, u in zip(over, under)], n=4, method="inclusive")
    return median, q1, q3


def record_ratio(bench: str, metric: str, times: Dict[str, List[float]],
                 over: str, under: str, threshold: float, op: str = ">=",
                 less: float = 0.0, digits: int = 2) -> bool:
    """Record the median per-round ratio ``over / under`` less ``less``
    with its quartiles and round count; print it, return if it passed."""
    median, q1, q3 = (round(x - less, digits)
                      for x in paired_ratio(times[over], times[under]))
    rounds = len(times[over])
    print("\n%s %s: %s median %.4fs, %s median %.4fs | %r (q1 %r, q3 %r) "
          "over %d rounds, gate %s %r"
          % (bench, metric, over, statistics.median(times[over]), under,
             statistics.median(times[under]), median, q1, q3, rounds, op,
             threshold))
    return record(bench, metric, median, threshold, op=op, q1=q1, q3=q3,
                  rounds=rounds)


def gate_overhead(bench: str, metric: str, times: Dict[str, List[float]],
                  base: str, other: str, limit: float) -> None:
    """Gate ``other``'s overhead over ``base`` below ``limit``."""
    ok = record_ratio(bench, metric, times, other, base, limit, "<",
                      less=1.0, digits=4)
    assert ok, "%s: %s not below %r" % (bench, metric, limit)


def emit_experiment(result, bench: Optional[str] = None) -> None:
    """Record every check of a harness ``ExperimentResult`` as a gate.

    Experiment checks are boolean facts rather than thresholded
    metrics, so each becomes ``value == True``.  Does not assert —
    callers keep their own ``assert result.passed`` semantics (see
    ``benchmarks/conftest.py:gate_result``).  The report is written
    only when ``$BENCH_REPORT_DIR`` is set or a baseline of it is
    committed, so a bench run leaves no untracked reports behind."""
    name = bench or result.exp_id
    gates = _registry.setdefault(name, [])
    for description, ok in result.checks:
        gates.append({"metric": description, "value": bool(ok),
                      "threshold": True, "op": "==", "pass": bool(ok)})
    if os.environ.get("BENCH_REPORT_DIR") or name in _committed_names():
        _flush(name)


# -- trend check (--compare) ------------------------------------------------

#: Relative drift allowed before a moved metric counts as a regression.
#: Generous by design: these are host wall-clock-derived numbers on a
#: shared machine; the hard thresholds inside each bench stay the
#: precision gate, this catches *large* slides early.
DEFAULT_TOLERANCE = 0.3


def _committed_report(name: str, rev: str = "HEAD") -> Optional[dict]:
    """The report committed at ``rev``, or None if absent there."""
    try:
        blob = subprocess.run(
            ["git", "show", "%s:BENCH_%s.json" % (rev, name)],
            capture_output=True, check=True,
        ).stdout
    except (subprocess.CalledProcessError, OSError):
        return None
    try:
        return json.loads(blob)
    except ValueError:
        return None


def _committed_names(rev: str = "HEAD") -> List[str]:
    """Bench names with a ``BENCH_*.json`` committed at ``rev``."""
    try:
        out = subprocess.run(
            ["git", "ls-tree", "--name-only", rev],
            capture_output=True, check=True, text=True,
        ).stdout
    except (subprocess.CalledProcessError, OSError):
        return []
    names = []
    for line in out.splitlines():
        if line.startswith("BENCH_") and line.endswith(".json"):
            names.append(line[len("BENCH_"):-len(".json")])
    return sorted(names)


def compare_reports(current: dict, baseline: dict,
                    tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Regression messages for ``current`` vs the committed ``baseline``.

    The regression *direction* comes from each gate's op: ``>=``/``>``
    metrics are better high (a drop is a regression), ``<=``/``<``
    better low (a rise is).  ``==`` gates (boolean experiment checks)
    carry no direction and are skipped — their own ``pass`` field
    already gates them.  The allowed drift is
    ``tolerance * max(|baseline|, |threshold|)``: anchoring on the
    threshold keeps near-zero overhead metrics from flagging on
    absolute noise a fraction of their budget.  Only ``value`` is
    judged; a message shows both entries' quartiles where both have them.
    """
    problems: List[str] = []
    if not current.get("pass", True):
        problems.append("report is failing its own gates")
    before = {g["metric"]: g for g in baseline.get("gates", [])
              if isinstance(g, dict) and "metric" in g}
    for entry in current.get("gates", []):
        metric = entry.get("metric")
        old = before.get(metric)
        op = entry.get("op")
        if old is None or op not in (">=", ">", "<=", "<"):
            continue
        try:
            value = float(entry["value"])
            base = float(old["value"])
            threshold = float(entry.get("threshold", 0.0))
        except (TypeError, ValueError):
            continue
        margin = tolerance * max(abs(base), abs(threshold))
        higher_is_better = op in (">=", ">")
        drift = base - value if higher_is_better else value - base
        if drift > margin:
            both = all("q1" in g and "q3" in g for g in (old, entry))
            spreads = [" [q1 %.6g, q3 %.6g]" % (g["q1"], g["q3"])
                       if both else "" for g in (old, entry)]
            problems.append(
                "%s: %.6g%s -> %.6g%s (%s, allowed drift %.6g)"
                % (metric, base, spreads[0], value, spreads[1],
                   "dropped" if higher_is_better else "rose", margin))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.benchgate",
        description="Benchmark-gate report utilities.",
    )
    parser.add_argument("--compare", action="store_true",
                        help="diff fresh BENCH_*.json reports against "
                             "the versions committed at --rev and fail "
                             "on directional regressions")
    parser.add_argument("names", nargs="*",
                        help="bench names to compare (default: every "
                             "BENCH_*.json committed at --rev)")
    parser.add_argument("--rev", default="HEAD",
                        help="git revision holding the baselines "
                             "(default HEAD)")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="relative drift allowed before a metric "
                             "is a regression (default %.2f)"
                             % DEFAULT_TOLERANCE)
    args = parser.parse_args(argv)
    if not args.compare:
        parser.error("nothing to do (did you mean --compare?)")

    names = args.names or _committed_names(args.rev)
    if not names:
        # Bootstrap: nothing committed yet to regress against.  The
        # first `make verify` after the reports land starts gating.
        print("benchgate: no committed BENCH_*.json baselines at %s "
              "(bootstrap — nothing to compare)" % args.rev)
        return 0

    failed = False
    for name in names:
        baseline = _committed_report(name, args.rev)
        if baseline is None:
            print("%-20s no baseline at %s (new bench?) — skipped"
                  % (name, args.rev))
            continue
        path = report_path(name)
        try:
            with open(path) as fh:
                current = json.load(fh)
        except (OSError, ValueError):
            print("%-20s no fresh report at %s — skipped" % (name, path))
            continue
        problems = compare_reports(current, baseline, args.tolerance)
        if problems:
            failed = True
            print("%-20s REGRESSED" % name)
            for problem in problems:
                print("    %s" % problem)
        else:
            print("%-20s ok (%d gates vs %s)"
                  % (name, len(current.get("gates", [])), args.rev))
    if failed:
        print("benchgate: trend regression vs %s (tolerance %.0f%%)"
              % (args.rev, 100 * args.tolerance), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
