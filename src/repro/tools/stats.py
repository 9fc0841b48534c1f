"""``python -m repro.tools.stats`` — analyze event logs and run stores.

Two front ends share this entry point:

**JSONL analysis** (``stats events.jsonl [...]``) loads event files
written by ``--events`` (harness or ``repro.tools.run``) and renders:

* an event-kind summary,
* a per-run table (from ``run_end`` records),
* host time by phase (from ``phase`` records, nested by their
  ``span``/``parent`` ids: ``sim.<layer>`` under ``simulate``),
* IPC-over-time per run (from ``checkpoint`` records, with a sparkline),
* with ``--compare A B``: an A-vs-B mode comparison per workload,
  aligning checkpoints on retired-instruction counts (e.g.
  ``--compare vcfr naive_ilr`` shows where VCFR's speedup comes from).

Multiple files are merged; records keep a ``file`` tag so two captured
runs (say, two branches of the simulator) can be diffed in one view.

**Run-store queries** (``stats <command> runs.sqlite ...``) answer
questions from the SQLite index written by ``--store``, without reading
any JSONL:

* ``best --metric ipc [--mode vcfr]`` — best run per workload,
* ``compare vcfr@64 baseline`` — latest A-vs-B per workload,
* ``history --workload mcf`` — recent runs including failures,
* ``sql "SELECT ..."`` — raw SQL passthrough,
* ``race`` / ``fleet`` — the race and fleet jobs' rows, by kind,
* ``backfill --cache-dir DIR --events LOG`` — index pre-store artifacts,
* ``tail events.jsonl`` — follow a live event log (``--dashboard`` for
  the rolling status block).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..arch.simstats import ratio
from ..obs import format_table, sparkline, status
from ..obs.events import follow_events, mode_label, read_events
from ..obs.store import STORE_METRICS, RunStore
from ..obs.trace import Span, span_table


def _run_key(record: dict) -> Tuple[str, str]:
    """Group key of one run: workload + mode label (``vcfr@64``,
    ``vcfr@128+drc.assoc=4``), so every spec the harness runs is its
    own series instead of collapsing into one ``vcfr`` line."""
    return (str(record.get("workload", "?")), mode_label(record))


def load_files(paths: List[str]) -> List[dict]:
    """Merge event files, tagging each record with its source file."""
    records: List[dict] = []
    for path in paths:
        for record in read_events(path):
            record["file"] = path
            records.append(record)
    return records


# -- sections ---------------------------------------------------------------


def kind_summary(records: List[dict]) -> str:
    counts: Dict[str, int] = OrderedDict()
    for record in records:
        kind = record.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
    rows = [(kind, count) for kind, count in counts.items()]
    return format_table(("event kind", "count"), rows)


def runs_table(records: List[dict]) -> Optional[str]:
    rows = []
    for record in records:
        if record.get("kind") != "run_end":
            continue
        workload, mode = _run_key(record)
        if "ipc" in record:  # cycle simulation
            rows.append((
                workload, mode, record.get("instructions", 0),
                record.get("cycles", 0),
                "%.3f" % record.get("ipc", 0.0),
                "%.4f" % record.get("il1_miss_rate", 0.0),
                "%.4f" % record.get("drc_miss_rate", 0.0),
                record.get("checkpoints", 0),
                "%.2f" % record.get("host_seconds", 0.0),
            ))
        else:  # emulator run
            host = record.get("host_instructions", 0)
            guest = record.get("instructions", 0)
            rows.append((
                workload, mode, guest, "-",
                "%.0f/guest" % ratio(host, guest), "-", "-", "-",
                "%.2f" % record.get("host_seconds", 0.0),
            ))
    if not rows:
        return None
    return format_table(
        ("workload", "mode", "instructions", "cycles", "ipc", "il1 miss",
         "drc miss", "ckpts", "host s"),
        rows,
    )


def tier_table(records: List[dict]) -> Optional[str]:
    """Execution-tier telemetry summed across ``run_end`` records.

    The cycle CPU attaches host-side block/trace cache counters to each
    run's ``run_end`` event (``tiers``); aggregated they show how the
    sweep's instructions were actually executed — reference loop only
    (no table), decoded blocks, or compiled traces — and how healthy
    the trace tier was (bailouts, aborts, rejections of recordings that
    did not loop back to their anchor, compile failures)."""
    totals: "OrderedDict[Tuple[str, str], int]" = OrderedDict()
    runs = 0
    for record in records:
        tiers = record.get("tiers")
        if record.get("kind") != "run_end" or not tiers:
            continue
        runs += 1
        for tier, counters in tiers.items():
            for key, value in counters.items():
                totals[(tier, key)] = totals.get((tier, key), 0) + int(value)
    if not totals:
        return None
    rows = [(tier, key, total) for (tier, key), total in totals.items()]
    rows.append(("(all)", "runs reporting", runs))
    return format_table(("tier", "counter", "total"), rows)


def race_table(records: List[dict]) -> Optional[str]:
    """Rotation-vs-adversary race points (``race_point`` records: events,
    or the run store's race payloads).

    One row per sweep point: the gadget-availability-window metrics
    against the rotation cost the defense paid for them."""
    rows = []
    rotations = 0
    for record in records:
        if record.get("kind") == "rotation":
            rotations += 1
        if record.get("kind") != "race_point":
            continue
        first = record.get("first_goal_icount")
        rows.append((
            record.get("workload", "?"),
            record.get("policy", "?"),
            "%.2f" % record.get("disclosure_rate", 0.0),
            "%.1f%%" % (100 * record.get("exposure_fraction", 0.0)),
            record.get("max_exposure_streak", 0),
            first if first is not None else "-",
            record.get("rotations", 0),
            record.get("rotation_cycles", 0),
            "%.4f" % record.get("ipc", 0.0),
        ))
    if not rows:
        return None
    table = format_table(
        ("workload", "policy", "disc", "exposure", "max window",
         "first goal", "rotations", "rot cycles", "ipc"),
        rows,
    )
    if rotations:
        table += "\n(%d individual rotation events logged)" % rotations
    return table


def fleet_table(records: List[dict]) -> Optional[str]:
    """Datacenter fleet tenant rows (``tenant_point`` records: events,
    or the run store's fleet payloads split per tenant).

    One row per tenant per fleet point: its core, tail latency
    (cycles), IPC, fleet fairness, and switch counts under shared-L2
    contention."""
    rows = []
    for record in records:
        if record.get("kind") != "tenant_point":
            continue
        rows.append((
            record.get("workload", "?"),
            record.get("mode", "?"),
            record.get("arrival_kind", "?"),
            "%st/%sc" % (record.get("tenants", "?"),
                         record.get("cores", "?")),
            record.get("tenant", "?"),
            record.get("core", "?"),
            "%s/%s" % (record.get("served", 0),
                       record.get("requests", 0)),
            record.get("p50_latency", 0),
            record.get("p95_latency", 0),
            record.get("p99_latency", 0),
            "%.4f" % record.get("ipc", 0.0),
            "%.4f" % record.get("ipc_fairness", 0.0),
            record.get("switches", 0),
        ))
    if not rows:
        return None
    return format_table(
        ("workload", "mode", "arrival", "fleet", "tenant", "core",
         "served", "p50", "p95", "p99", "ipc", "fairness", "switches"),
        rows,
    )


#: The race and fleet job kinds, read as values by the JSONL sections,
#: the ``stats <kind> STORE`` subcommands and the ``repro.tools.race`` /
#: ``repro.tools.fleet`` CLIs: the event each table row is, the section
#: title, the table renderer, how one result's ``as_dict()`` splits into
#: rows, and the store filters as (flag, result field, help).
JOB_KINDS = {
    "race": {
        "event": "race_point",
        "title": "rotation races",
        "table": race_table,
        "rows": lambda point: [point],
        "filters": (
            ("--policy", "policy", "restrict to one rotation policy label"),
        ),
    },
    "fleet": {
        "event": "tenant_point",
        "title": "datacenter fleet",
        "table": fleet_table,
        "rows": lambda point: [dict(point, **tenant)
                               for tenant in point["tenant_results"]],
        "filters": (
            ("--arrival", "arrival_kind",
             "restrict to one arrival kind (poisson/bursty/uniform)"),
            ("--mode", "mode", "restrict to one protection mode"),
        ),
    },
}


def job_table(kind: str, points: List[dict]) -> Optional[str]:
    """The ``kind`` table over result dicts (None when there are none)."""
    entry = JOB_KINDS[kind]
    return entry["table"]([dict(row, kind=entry["event"])
                           for point in points
                           for row in entry["rows"](point)])


def job_main(kind: str, parser: argparse.ArgumentParser, build_specs,
             argv=None) -> int:
    """Body of the ``repro.tools.race`` and ``repro.tools.fleet`` CLIs.

    ``parser`` holds the kind's own flags; this adds ``--workers``,
    ``--json`` and the observability flags, sweeps ``build_specs(args)``
    through one :class:`~repro.harness.session.ExperimentSession`
    (retries, quarantine, a process pool with bit-identical results),
    and prints one JSON line per point or the kind's table.  Returns 1
    when any point was quarantined.
    """
    from ..harness.cli import add_observability_options, sweep_from_args

    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes for the %s grid "
                             "(0/1 = sequential; results bit-identical)"
                             % kind)
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object per %s point "
                             "instead of the table" % kind)
    add_observability_options(parser)
    args = parser.parse_args(argv)
    try:
        specs = build_specs(args)
    except ValueError as err:
        parser.error(str(err))

    outcomes = sweep_from_args(args, specs)
    points = [outcome.result.as_dict() for outcome in outcomes
              if outcome.ok]
    if args.store:
        status("recorded %d %s points in %s"
               % (len(points), kind, args.store))
    if args.json:
        for point in points:
            print(json.dumps(point, sort_keys=True))
    else:
        # None when no point survived: every one was quarantined.
        table = job_table(kind, points)
        if table is not None:
            print(table)
    return 0 if len(points) == len(outcomes) else 1


def phase_breakdown(records: List[dict]) -> Optional[str]:
    """:func:`~repro.obs.trace.span_table` of the ``phase`` records; a
    record whose parent is not logged, or has no span id, is a root."""
    spans = [Span(str(record.get("phase", "?")), record.get("span"),
                  record.get("parent"), 0.0, record.get("seconds", 0.0))
             for record in records if record.get("kind") == "phase"]
    return span_table(spans) if spans else None


def checkpoint_series(
    records: List[dict],
) -> "OrderedDict[Tuple[str, str], List[dict]]":
    """Checkpoints grouped per (workload, mode), in emission order."""
    series: "OrderedDict[Tuple[str, str], List[dict]]" = OrderedDict()
    for record in records:
        if record.get("kind") != "checkpoint":
            continue
        series.setdefault(_run_key(record), []).append(record)
    return series


def ipc_over_time(records: List[dict]) -> Optional[str]:
    rows = []
    for (workload, mode), points in checkpoint_series(records).items():
        ipcs = [p["ipc"] for p in points if "ipc" in p]
        if not ipcs:
            continue
        rows.append((
            workload, mode, len(ipcs),
            "%.3f" % min(ipcs),
            "%.3f" % ratio(sum(ipcs), len(ipcs)),
            "%.3f" % max(ipcs),
            sparkline(ipcs),
        ))
    if not rows:
        return None
    return format_table(
        ("workload", "mode", "ckpts", "ipc min", "mean", "max",
         "ipc over time"),
        rows,
    )


def _select_series(by_label: Dict[str, List[dict]],
                   want: str) -> Optional[List[dict]]:
    """Series for mode ``want``: exact label first (``vcfr@64``), else
    the first series of a plain spec whose base mode matches (``vcfr``
    finds ``vcfr@128``, never ``vcfr@128+drc.assoc=4``)."""
    if want in by_label:
        return by_label[want]
    for label, points in by_label.items():
        if "+" not in label and label.split("@", 1)[0] == want:
            return points
    return None


def compare_modes(records: List[dict], mode_a: str,
                  mode_b: str) -> Optional[str]:
    """A-vs-B IPC-over-time: align checkpoints of the two modes on the
    retired-instruction axis, per workload.  Modes are matched by exact
    series label (``vcfr@64``) or bare mode name (``vcfr``)."""
    series = checkpoint_series(records)
    by_workload: Dict[str, Dict[str, List[dict]]] = {}
    for (workload, mode), points in series.items():
        by_workload.setdefault(workload, {})[mode] = points
    sections = []
    for workload in sorted(by_workload):
        series_a = _select_series(by_workload[workload], mode_a)
        series_b = _select_series(by_workload[workload], mode_b)
        if series_a is None or series_b is None or series_a is series_b:
            continue
        a_by_instr = {p["instructions"]: p for p in series_a
                      if "ipc" in p}
        b_by_instr = {p["instructions"]: p for p in series_b
                      if "ipc" in p}
        shared = sorted(set(a_by_instr) & set(b_by_instr))
        if not shared:
            continue
        rows = [
            (instr,
             "%.3f" % a_by_instr[instr]["ipc"],
             "%.3f" % b_by_instr[instr]["ipc"],
             "%.2fx" % ratio(a_by_instr[instr]["ipc"],
                             b_by_instr[instr]["ipc"]))
            for instr in shared
        ]
        ratios = [ratio(a_by_instr[i]["ipc"], b_by_instr[i]["ipc"])
                  for i in shared]
        sections.append(
            "%s — %s vs %s (mean %.2fx)\n%s"
            % (workload, mode_a, mode_b,
               ratio(sum(ratios), len(ratios)),
               format_table(
                   ("instructions", "%s ipc" % mode_a, "%s ipc" % mode_b,
                    "ratio"),
                   rows,
               ))
        )
    if not sections:
        return None
    return "\n\n".join(sections)


# -- run-store subcommands --------------------------------------------------

#: First-positional tokens routed to :func:`store_main` instead of the
#: JSONL analyzer (an event file named ``best`` would shadow the
#: subcommand; rename the file).
STORE_COMMANDS = ("best", "compare", "history", "sql", "backfill",
                  *JOB_KINDS, "tail")


def _store_best(store: RunStore, args) -> int:
    rows = store.best(args.metric, mode=args.mode, workload=args.workload)
    if not rows:
        print("no ok runs with %s recorded" % args.metric, file=sys.stderr)
        return 1
    print(format_table(
        ("workload", "best", args.metric, "attempts", "source"),
        [(r["workload"], r["label"], "%.4f" % r["value"], r["attempts"],
          r["source"]) for r in rows],
    ))
    return 0


def _store_compare(store: RunStore, args) -> int:
    rows = store.compare(args.mode_a, args.mode_b, metric=args.metric)
    if not rows:
        print("no workload has runs for both %r and %r"
              % (args.mode_a, args.mode_b), file=sys.stderr)
        return 1
    print(format_table(
        ("workload", "%s %s" % (args.mode_a, args.metric),
         "%s %s" % (args.mode_b, args.metric), "ratio"),
        [(r["workload"], "%.4f" % r["a"], "%.4f" % r["b"],
          "%.2fx" % r["ratio"]) for r in rows],
    ))
    return 0


def _store_history(store: RunStore, args) -> int:
    rows = store.history(workload=args.workload, mode=args.mode,
                         limit=args.limit)
    if not rows:
        print("no runs recorded", file=sys.stderr)
        return 1
    print(format_table(
        ("workload", "mode", "status", "ipc", "attempts", "source",
         "detail"),
        [(r["workload"], r["label"], r["status"],
          "%.4f" % r["ipc"] if r["ipc"] is not None else "-",
          r["attempts"], r["source"],
          "cached" if r["cached"] else (r["error"] or ""))
         for r in rows],
    ))
    return 0


def _store_sql(store: RunStore, args) -> int:
    try:
        columns, rows = store.query(args.query)
    except Exception as err:  # sqlite3 errors vary by statement
        print("error: %s" % err, file=sys.stderr)
        return 1
    if columns:
        print(format_table(columns, rows))
    return 0


def _store_backfill(store: RunStore, args) -> int:
    if not args.cache_dir and not args.events:
        print("error: nothing to backfill (pass --cache-dir and/or "
              "--events)", file=sys.stderr)
        return 1
    if args.cache_dir:
        stats = store.backfill_cache(args.cache_dir)
        print("cache %s: %d runs ingested, %d entries skipped"
              % (args.cache_dir, stats["ingested"], stats["skipped"]))
    for path in args.events or ():
        stats = store.backfill_events(path)
        print("events %s: %d runs, %d findings ingested"
              % (path, stats["ingested"], stats["findings"]))
    counts = store.counts()
    print("store now holds %d runs, %d findings"
          % (counts["runs"], counts["findings"]))
    return 0


def _store_job(store: RunStore, args) -> int:
    entry = JOB_KINDS[args.command]
    points = [point for point in store.payloads(args.command)
              if all(getattr(args, flag[2:]) in (None, point[field])
                     for flag, field, _help in entry["filters"])]
    if not points:
        print("no %s points recorded" % args.command, file=sys.stderr)
        return 1
    print(job_table(args.command, points))
    return 0


def _tail(args) -> int:
    """Follow a live JSONL event log (satellite of ``--dashboard``)."""
    try:
        if args.dashboard:
            from ..harness.dashboard import Dashboard

            dashboard = Dashboard(stream=sys.stdout, interval=0.0)
            dashboard.feed(follow_events(args.file, kind=args.kind))
        else:
            for record in follow_events(args.file, kind=args.kind):
                fields = "  ".join(
                    "%s=%s" % (k, record[k]) for k in sorted(record)
                    if k not in ("kind", "t", "seq")
                )
                print("%-14s %s" % (record.get("kind", "?"), fields))
    except KeyboardInterrupt:
        pass
    except BrokenPipeError:
        # Reader went away (e.g. piped into head); not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def store_main(argv) -> int:
    """Entry point for the run-store subcommands."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.stats",
        description="Query the SQLite run store written with --store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("best", help="best run per workload by a metric")
    p.add_argument("store", help="run store path (SQLite)")
    p.add_argument("--metric", default="ipc", choices=STORE_METRICS)
    p.add_argument("--mode", default=None,
                   help="restrict to one mode (e.g. vcfr or vcfr@64)")
    p.add_argument("--workload", default=None)
    p.set_defaults(func=_store_best)

    p = sub.add_parser("compare",
                       help="latest A-vs-B per workload on a metric")
    p.add_argument("store", help="run store path (SQLite)")
    p.add_argument("mode_a", help="mode label (baseline, vcfr, vcfr@64)")
    p.add_argument("mode_b")
    p.add_argument("--metric", default="ipc", choices=STORE_METRICS)
    p.set_defaults(func=_store_compare)

    p = sub.add_parser("history", help="recent runs, newest first")
    p.add_argument("store", help="run store path (SQLite)")
    p.add_argument("--workload", default=None)
    p.add_argument("--mode", default=None)
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(func=_store_history)

    p = sub.add_parser("sql", help="raw SQL against the store")
    p.add_argument("store", help="run store path (SQLite)")
    p.add_argument("query", help='e.g. "SELECT workload, ipc FROM runs"')
    p.set_defaults(func=_store_sql)

    p = sub.add_parser("backfill",
                       help="index pre-store cache dirs / event logs")
    p.add_argument("store", help="run store path (created if missing)")
    p.add_argument("--cache-dir", default=None,
                   help="ResultCache directory to ingest")
    p.add_argument("--events", action="append", default=None,
                   metavar="PATH", help="JSONL event log(s) to ingest")
    p.set_defaults(func=_store_backfill)

    for kind, entry in JOB_KINDS.items():
        p = sub.add_parser(kind, help=entry["title"])
        p.add_argument("store", help="run store path (SQLite)")
        for flag, _field, help_text in entry["filters"]:
            p.add_argument(flag, default=None, help=help_text)
        p.set_defaults(func=_store_job)

    p = sub.add_parser("tail", help="follow a live JSONL event log")
    p.add_argument("file", help="JSONL event log being written")
    p.add_argument("--kind", default=None,
                   help="only records of this event kind")
    p.add_argument("--dashboard", action="store_true",
                   help="render the rolling sweep dashboard instead of "
                        "raw records")
    p.set_defaults(func=_tail)

    args = parser.parse_args(argv)
    if args.command == "tail":
        return _tail(args)
    try:
        with RunStore(args.store) as store:
            return args.func(store, args)
    except (OSError, RuntimeError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


# -- CLI --------------------------------------------------------------------


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in STORE_COMMANDS:
        return store_main(argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.stats",
        description="Analyze JSONL event logs captured with --events.",
    )
    parser.add_argument("files", nargs="+", help="JSONL event file(s)")
    parser.add_argument("--workload", default=None,
                        help="restrict every section to one workload")
    parser.add_argument("--compare", nargs=2, metavar=("MODE_A", "MODE_B"),
                        default=None,
                        help="A-vs-B IPC-over-time comparison "
                             "(e.g. --compare vcfr naive_ilr)")
    parser.add_argument("--section", action="append", default=None,
                        choices=("kinds", "runs", "tiers", *JOB_KINDS,
                                 "phases", "ipc"),
                        help="only render the named section(s)")
    args = parser.parse_args(argv)

    try:
        records = load_files(args.files)
    except (OSError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    if args.workload:
        records = [r for r in records
                   if r.get("workload") in (None, args.workload)]
    if not records:
        print("error: no events found", file=sys.stderr)
        return 1

    wanted = set(args.section) if args.section else None

    def section(name: str, title: str, text: Optional[str]) -> None:
        if text is None or (wanted is not None and name not in wanted):
            return
        print("== %s ==" % title)
        print(text)
        print()

    section("kinds", "events", kind_summary(records))
    section("runs", "runs", runs_table(records))
    section("tiers", "execution tiers", tier_table(records))
    for kind, entry in JOB_KINDS.items():
        section(kind, entry["title"], entry["table"](records))
    section("phases", "host-time by phase", phase_breakdown(records))
    section("ipc", "IPC over time", ipc_over_time(records))
    if args.compare:
        comparison = compare_modes(records, args.compare[0], args.compare[1])
        if comparison is None:
            print("no overlapping checkpoints for modes %s vs %s"
                  % tuple(args.compare), file=sys.stderr)
        else:
            print("== %s vs %s ==" % tuple(args.compare))
            print(comparison)
    return 0


if __name__ == "__main__":
    sys.exit(main())
