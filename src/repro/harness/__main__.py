"""CLI entry point: ``python -m repro.harness [experiment ...]``.

Options:
  --scale S               workload scale factor (default 1.0)
  --max-instructions N    per-run instruction budget (default 300000)
  --seed N                randomizer seed (default 42)
  --ablations             also run the ablation studies
  --json PATH             write all results as JSON ("-" for stdout)
  --events PATH           write a JSONL structured event log
  --progress              heartbeat line per simulation checkpoint, and
                          a done/cached/FAILED line per spec
  --profile-phases        split simulation host time by layer into
                          sim.<layer> spans (sampled on the tiers that run)
  --checkpoint-interval N instructions between checkpoints (0 = auto)
  --workers N             parallel sweep worker processes
  --backlog N             streaming-scheduler intake window beyond workers
  --cache-dir DIR         persistent on-disk result cache
  --queue                 multi-process claim protocol over --cache-dir
  --store PATH            SQLite run store (query with repro.tools.stats)
  --trace-out PATH        Chrome trace_event JSON of the sweep's spans
  --dashboard             live sweep status block on stderr
  --retry-attempts N      max executions per spec before quarantine
  --spec-timeout S        soft per-attempt timeout (seconds)
  --inject-faults PLAN    deterministic fault injection (testing)

With ``--workers`` the suite's simulations fan out over a process pool;
with ``--cache-dir`` results persist across invocations so a warm rerun
performs zero cycle simulations.  Both produce row-for-row identical
tables to a sequential, uncached run, and both apply to the ablations,
whose runs are specs like the suite's.  The sweep is fault-tolerant:
crashing or hanging workers are retried and the pool rebuilt; results
commit to the cache as they finish, so a killed invocation resumes from
its completed work when re-run with the same ``--cache-dir``.

``--progress`` and ``--dashboard`` are readers of the run's event log
(:mod:`repro.harness.dashboard`), so either one turns the log on, and
with it the automatic checkpoint cadence.  Inline, heartbeats print as
the simulation runs; with ``--workers`` a spec's heartbeats print
together when the parent replays its worker's records, in input order.

Only the experiment report (or, with ``--json -``, the JSON document)
goes to stdout; all diagnostics — timings, heartbeats, file notices,
the host-time table of the run's spans — go to stderr, so piped output
is always machine-clean.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..obs import open_log, status
from ..obs.trace import NULL_TRACER, Tracer, span_table
from .ablations import ALL_ABLATIONS
from .cli import (
    add_fault_options,
    add_observability_options,
    add_sweep_options,
    attach_observers,
    fault_config_from_args,
)
from .experiments import ALL_EXPERIMENTS, suite_specs
from .report import format_result, results_to_dict, write_json
from .session import ExperimentSession
from .sweep import FAULT_COUNTS, FailedRunError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all figures/tables): %s"
                        % ", ".join(list(ALL_EXPERIMENTS) + list(ALL_ABLATIONS)))
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--max-instructions", type=int, default=300_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--ablations", action="store_true",
                        help="include the ablation studies")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help='write results as JSON to PATH ("-" = stdout)')
    parser.add_argument("--profile-phases", action="store_true",
                        help="split each simulation's host time by layer "
                             "(sim.arch.cache, sim.ilr.flow, ... spans) with "
                             "a sampling profiler on the tiers that run; "
                             "results are identical")
    add_observability_options(parser)
    add_sweep_options(parser)
    add_fault_options(parser)
    args = parser.parse_args(argv)
    retry, faults = fault_config_from_args(args)
    if args.queue and not args.cache_dir:
        parser.error("--queue needs --cache-dir (the queue's claim files "
                     "live in the shared cache directory)")

    registry = dict(ALL_EXPERIMENTS)
    registry.update(ALL_ABLATIONS)
    if args.experiments:
        wanted = args.experiments
    else:
        wanted = list(ALL_EXPERIMENTS)
        if args.ablations:
            wanted += list(ALL_ABLATIONS)
    unknown = [e for e in wanted if e not in registry]
    if unknown:
        parser.error("unknown experiment(s): %s" % ", ".join(unknown))

    # With --json - the report moves to stderr so stdout carries only
    # the JSON document.
    json_to_stdout = args.json == "-"
    emit_report = status if json_to_stdout else print

    show_table = args.events or args.progress or args.profile_phases
    tracer = Tracer() if show_table or args.trace_out else NULL_TRACER

    with open_log(args.events) as events:
        finish_observers = attach_observers(args, events)
        runner = ExperimentSession(
            scale=args.scale,
            seed=args.seed,
            max_instructions=args.max_instructions,
            events=events,
            checkpoint_interval=args.checkpoint_interval,
            profile_phases=args.profile_phases,
            workers=args.workers,
            backlog=args.backlog,
            cache_dir=args.cache_dir,
            retry=retry,
            faults=faults,
            tracer=tracer,
            store_path=args.store,
            queue=True if args.queue else None,
        )
        events.status("harness start", experiments=list(wanted),
                      scale=args.scale,
                      max_instructions=args.max_instructions,
                      seed=args.seed,
                      workers=args.workers)

        # Fan the suite's full spec list out before any experiment runs:
        # the pool (and the disk cache) see every independent simulation
        # at once instead of discovering them serially.  (Each ablation
        # prefetches its own specs when it runs.)
        suite = [e for e in wanted if e in ALL_EXPERIMENTS]
        if suite and (args.workers >= 2 or args.cache_dir):
            specs = suite_specs(runner, suite)
            start = time.time()
            runner.prefetch(specs)
            status("(sweep: %d specs, %d workers, %.1fs)"
                   % (len(specs), args.workers, time.time() - start))
            for failure in runner.failures.values():
                status("QUARANTINED %s after %d attempt(s) [%s]: %s"
                       % (failure.spec.label(), failure.attempts,
                          failure.kind, failure.error))

        results = {}
        all_ok = True
        for exp_id in wanted:
            start = time.time()
            try:
                with tracer.span("experiment", experiment=exp_id):
                    result = registry[exp_id](runner)
            except FailedRunError as err:
                # A quarantined spec poisons only the experiments that
                # need it; the rest of the report still renders.
                status("(%s: skipped — %s)" % (exp_id, err))
                all_ok = False
                continue
            results[exp_id] = result
            emit_report(format_result(result))
            status("(%s: %.1fs)" % (exp_id, time.time() - start))
            if not json_to_stdout:
                print()
            all_ok &= result.passed
        events.status("harness end", passed=bool(all_ok))
        finish_observers()

        if runner.cache is not None:
            stats = runner.cache.stats()
            status("(cache %s: %d hits, %d misses, %d writes)"
                   % (runner.cache.root, stats["hits"], stats["misses"],
                      stats["writes"]))
        if runner.queue is not None:
            qstats = runner.queue.stats()
            status("(queue %s: %d claimed, %d yielded, %d takeovers)"
                   % (runner.queue.owner, qstats["claimed"],
                      qstats["yielded"], qstats["takeovers"]))
        if FAULT_COUNTS:
            status("(sweep fault handling: %s)" % ", ".join(
                "%s=%d" % (name.split(".", 1)[1], value)
                for name, value in sorted(FAULT_COUNTS.items())
            ))
        if show_table:
            status("")
            status(span_table(tracer.spans, "host-time by phase"))
        if args.json:
            if json_to_stdout:
                import json as _json

                _json.dump(results_to_dict(results), sys.stdout,
                           indent=2, sort_keys=True)
                sys.stdout.write("\n")
            else:
                write_json(results, args.json)
                status("wrote %s" % args.json)
        if args.trace_out:
            count = tracer.to_chrome(args.trace_out)
            status("wrote %s (%d spans)" % (args.trace_out, count))
        if runner.store is not None:
            counts = runner.store.counts()
            runner.store.close()
            status("(store %s: %d runs, %d findings)"
                   % (args.store, counts["runs"], counts["findings"]))
        if args.events:
            status("wrote %s" % args.events)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
