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
         "threshold": 3.0, "op": ">=", "pass": true},
        ...
      ]
    }

Gates record *before* asserting, so a failing run still leaves a
report with ``"pass": false`` for the trajectory.  The output
directory is ``$BENCH_REPORT_DIR`` when set, else the current working
directory (the repo root under ``make verify``).  Experiment reports
(:func:`emit_experiment`) land in the working directory only where a
baseline is committed.

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
import json
import os
import statistics
import subprocess
import sys
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["gate", "record", "paired_overhead", "emit_experiment",
           "report_path", "compare_reports", "main"]

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


class Overhead:
    """What :func:`paired_overhead` measured: each leg's median seconds,
    the three estimators of ``other / base`` and the most favourable
    one, ``via``, whose excess over 1 is ``value``."""

    def __init__(self, base_times: List[float], other_times: List[float]):
        self.base_median = statistics.median(base_times)
        self.other_median = statistics.median(other_times)
        self.estimators = {
            "min": min(other_times) / min(base_times),
            "median": self.other_median / self.base_median,
            "paired": statistics.median(
                [o / b for b, o in zip(base_times, other_times)]),
        }
        self.via = min(self.estimators, key=self.estimators.get)
        self.value = self.estimators[self.via] - 1.0

    def describe(self, base: str, other: str, limit: float) -> str:
        """One report line, the legs named ``base`` and ``other``."""
        return (
            "%s median %.3fs, %s median %.3fs | overhead %+.2f%% via %s "
            "(min %+.2f%%, median %+.2f%%, paired %+.2f%%; limit %.0f%%)"
            % (base, self.base_median, other, self.other_median,
               100 * self.value, self.via,
               100 * (self.estimators["min"] - 1),
               100 * (self.estimators["median"] - 1),
               100 * (self.estimators["paired"] - 1), 100 * limit)
        )


def paired_overhead(base: Callable[[], Tuple[float, object]],
                    other: Callable[[], Tuple[float, object]],
                    repeats: int) -> Overhead:
    """Time ``other`` against ``base`` in ``repeats`` order-alternated
    pairs (``base`` first on even iterations, ``other`` first on odd).

    Each leg returns ``(seconds, result)``, and every result of either
    leg must equal the first one.  Wall-clock on a shared host is noisy,
    so the overhead is the most favourable of three robust estimators:
    min-vs-min, median-vs-median and the median of per-pair ratios.  A
    real constant-per-unit regression lifts all three together;
    uncorrelated host noise rarely does.
    """
    times: Tuple[List[float], List[float]] = ([], [])
    results = []
    for iteration in range(repeats):
        for leg in ((0, 1) if iteration % 2 == 0 else (1, 0)):
            seconds, result = (base, other)[leg]()
            times[leg].append(seconds)
            results.append(result)
            assert result == results[0], (
                "the %s leg's result differs from the first one"
                % ("base", "other")[leg])
    return Overhead(*times)


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
    absolute noise a fraction of their budget.
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
            problems.append(
                "%s: %.6g -> %.6g (%s, allowed drift %.6g)"
                % (metric, base, value,
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
