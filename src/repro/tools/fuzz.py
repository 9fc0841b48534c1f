"""``python -m repro.tools.fuzz`` — differential fuzzing CLI.

Pushes seed-deterministic random RX86 programs through every engine ×
every ILR flow (functional reference, software-ILR emulator, cycle
simulator with and without the block fast path, plus live VCFR
re-randomization epochs) and cross-checks outputs, retired-instruction
counts, statistics invariants, and serialization round-trips.

The run is a pure function of ``--seed``/``--budget``: replaying the
same pair reproduces the identical program stream and findings.
Findings are written as ``.s`` repro files (``--out-dir``), optionally
ddmin-shrunk first (``--shrink``), and mirrored to a JSONL event log
(``--events``) as ``fuzz_program``/``fuzz_finding``/``fuzz_end``
records for ``python -m repro.tools.stats``.

Observability flags are the shared set from :mod:`repro.harness.cli`
(identical to ``python -m repro.harness`` and ``repro.tools.run``):
``--store`` records findings in the SQLite run store, ``--dashboard``
renders a live status block (programs done, findings) from the event
stream, and ``--trace-out`` writes the session's span tree as Chrome
trace_event JSON.  ``--progress`` prints nothing here and
``--checkpoint-interval`` is ignored: the oracle's runs take no
checkpoints and the session runs no specs.

``make fuzz-quick`` runs the deterministic quick tier (seed 1, 200
programs) that ``make verify`` gates on.  The summary line ends with
the trace tier's coverage summed over the trace legs (compiles,
entries, guard bailouts).  The exit status is non-zero on any finding,
and also when no trace leg entered a compiled trace.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..harness.cli import add_observability_options, attach_observers
from ..obs import open_log, status
from ..obs.trace import NULL_TRACER, Tracer
from ..qa import FuzzSession, GeneratorConfig, OracleConfig


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.fuzz",
        description="Differential fuzzing of the engine x flow matrix.",
    )
    parser.add_argument("--seed", type=int, default=1,
                        help="session seed (default 1)")
    parser.add_argument("--budget", type=int, default=200,
                        help="number of generated programs (default 200)")
    parser.add_argument("--max-instructions", type=int, default=200_000,
                        help="per-run architectural budget")
    parser.add_argument("--drc-entries", type=int, default=64,
                        help="DRC size for the cycle runs (small = more "
                             "conflict pressure)")
    parser.add_argument("--shrink", action="store_true",
                        help="ddmin-reduce findings before writing repros")
    parser.add_argument("--out-dir", default=".fuzz-findings",
                        help="directory for finding .s files "
                             "(default .fuzz-findings)")
    parser.add_argument("--max-findings", type=int, default=10,
                        help="stop after this many findings (default 10)")
    parser.add_argument("--no-rerandomize", action="store_true",
                        help="skip the live re-randomization leg")
    parser.add_argument("--no-emulator", action="store_true",
                        help="skip the software-ILR emulator leg")
    add_observability_options(parser)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the progress line")
    args = parser.parse_args(argv)

    oracle_config = OracleConfig(
        max_instructions=args.max_instructions,
        drc_entries=args.drc_entries,
        check_emulator=not args.no_emulator,
        check_rerandomize=not args.no_rerandomize,
    )

    def progress(line):
        if not args.quiet:
            status(line)

    tracer = Tracer() if args.trace_out else NULL_TRACER
    t0 = time.perf_counter()
    with open_log(args.events) as events:
        finish_observers = attach_observers(args, events, total=args.budget)
        session = FuzzSession(
            args.seed, args.budget,
            generator_config=GeneratorConfig(),
            oracle_config=oracle_config,
            events=events,
            out_dir=args.out_dir,
            shrink=args.shrink,
            max_findings=args.max_findings,
            progress=progress,
        )
        with tracer.span("fuzz", seed=args.seed, budget=args.budget):
            stats = session.run()
        finish_observers()
    elapsed = time.perf_counter() - t0
    if args.trace_out:
        count = tracer.to_chrome(args.trace_out)
        status("wrote %s (%d spans)" % (args.trace_out, count))

    if args.store and stats.findings:
        from ..obs.store import RunStore

        with RunStore(args.store) as store:
            for finding in stats.findings:
                store.record_finding(finding.as_dict(),
                                     session_seed=args.seed)
        print("fuzz: recorded %d finding(s) in %s"
              % (len(stats.findings), args.store), file=sys.stderr)

    rate = stats.programs / elapsed * 60 if elapsed > 0 else 0.0
    traces = stats.traces
    print(
        "fuzz: %d programs, %d engine runs, %d guest instructions, "
        "%d features covered, %.1fs (%.0f programs/min); "
        "traces: %d compiled, %d entered, %d bailouts"
        % (stats.programs, stats.engine_runs, stats.instructions,
           stats.features_covered, elapsed, rate, traces["builds"],
           traces["entries"], traces["bailouts"])
    )
    if stats.ok:
        print("fuzz: no divergences.")
    for finding in stats.findings:
        print("fuzz: FINDING program=%d oracle-seed=%d kinds=%s%s"
              % (finding.index, finding.seed, ",".join(finding.kinds),
                 " -> %s" % finding.path if finding.path else ""))
    if stats.findings:
        print("fuzz: %d finding(s); replay with --seed %d"
              % (len(stats.findings), args.seed), file=sys.stderr)
    if not traces["entries"]:
        # A differential check of the trace tier that never ran a trace
        # checked nothing of it.
        print("fuzz: the trace-tier legs entered no compiled trace",
              file=sys.stderr)
    return 0 if stats.ok and traces["entries"] else 1


if __name__ == "__main__":
    sys.exit(main())
