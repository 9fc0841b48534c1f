"""``python -m repro.tools.run`` — execute an RXBF binary or RXRP bundle.

Modes: ``baseline`` (plain .rxbf or a bundle's original image),
``naive_ilr`` / ``vcfr`` (bundles only), ``emulate`` (software-ILR VM).
``--timing`` switches from the functional runner to the cycle simulator
and prints IPC/cache/DRC statistics.

Observability: the full shared flag set from :mod:`repro.harness.cli`
(identical to ``python -m repro.harness`` and ``python -m
repro.tools.fuzz``): ``--events PATH`` captures a JSONL event log
(checkpoints every ``--checkpoint-interval`` instructions),
``--progress`` prints a heartbeat per checkpoint under ``--timing``,
``--store PATH`` indexes the completed run in the SQLite run store,
``--trace-out PATH`` writes the run's span tree as Chrome trace_event
JSON, and ``--dashboard`` renders a live status block (rolling IPC)
from the event stream.  ``--trace PATH`` additionally dumps the
bounded *instruction* trace ring as JSONL — all consumable by
``python -m repro.tools.stats``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from ..arch.cpu import CycleCPU
from ..arch.functional import run_image
from ..arch.trace import attach_tracer
from ..binary import BinaryImage
from ..emu import ILREmulator
from ..harness.cli import add_observability_options
from ..harness.dashboard import Dashboard
from ..harness.faults import FaultPlan, InjectedFault, apply_inline_fault
from ..ilr import SecurityFault, make_flow
from ..ilr.bundle import BundleError, load
from ..obs import open_log, status
from ..obs.trace import NULL_TRACER, Tracer, rollup_spans


def _load_any(path: str):
    """Return (program_or_None, image_or_None)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] == b"RXRP":
        return load(path), None
    return None, BinaryImage.from_bytes(blob)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.run",
        description="Execute an RXBF binary or RXRP randomized bundle.",
    )
    parser.add_argument("path", help=".rxbf or .rxrp file")
    parser.add_argument("--mode", default="baseline",
                        choices=("baseline", "naive_ilr", "vcfr", "emulate"))
    parser.add_argument("--timing", action="store_true",
                        help="cycle simulation with statistics")
    parser.add_argument("--max-instructions", type=int, default=50_000_000)
    add_observability_options(parser, default_checkpoint_interval=10_000)
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="dump the bounded instruction trace as JSONL "
                             "(requires --timing)")
    parser.add_argument("--trace-capacity", type=int, default=4096,
                        help="trace ring size (last N instructions kept)")
    parser.add_argument("--inject-faults", metavar="PLAN", default=None,
                        help="deterministic fault-injection plan (same "
                             "grammar as the harness: 'crash@LABEL#0', "
                             "'raise:0.5,seed=7', ...); faults fire "
                             "before execution and exit non-zero")
    args = parser.parse_args(argv)

    faults = None
    if args.inject_faults:
        try:
            faults = FaultPlan.from_string(args.inject_faults)
        except ValueError as err:
            parser.error(str(err))

    if args.trace and not args.timing and args.mode != "emulate":
        parser.error("--trace requires --timing (the tracer instruments "
                     "the cycle simulator)")

    program, image = _load_any(args.path)
    if program is None and args.mode != "baseline":
        print("error: mode %r needs an RXRP bundle" % args.mode,
              file=sys.stderr)
        return 1

    if faults is not None:
        label = "%s/%s" % (
            os.path.splitext(os.path.basename(args.path))[0], args.mode)
        try:
            # Single-run CLI: every fault kind degrades to an inline
            # error (no pool to crash), so the exit code is observable.
            apply_inline_fault(faults, label, attempt=0)
        except InjectedFault as fault:
            print("INJECTED FAULT: %s" % fault, file=sys.stderr)
            return 75  # EX_TEMPFAIL: transient by construction

    observing = args.events or args.progress or args.dashboard
    checkpoint_interval = args.checkpoint_interval if observing else 0

    workload = os.path.splitext(os.path.basename(args.path))[0]
    span_tracer = Tracer() if args.trace_out else NULL_TRACER
    dashboard = None

    def heartbeat(checkpoint) -> None:
        status("[%s] %8d instr  ipc %.3f  il1 %.4f  drc %.4f"
               % (args.mode, checkpoint.instructions, checkpoint.ipc,
                  checkpoint.il1_miss_rate, checkpoint.drc_miss_rate))

    def finish(result, host_seconds, *, drc_entries=0, config_digest=""):
        """Shared observability epilogue for every execution leg."""
        if dashboard is not None:
            dashboard.finish()
        if args.trace_out:
            count = span_tracer.to_chrome(args.trace_out)
            status("wrote %s (%d spans)" % (args.trace_out, count))
        if args.store:
            from ..obs.store import RunStore

            spec = {"workload": workload, "mode": args.mode,
                    "drc_entries": drc_entries}
            spans = (rollup_spans(span_tracer.export())
                     if span_tracer.enabled else None)
            with RunStore(args.store) as store:
                store.record_run(spec, result, source="tool-run",
                                 config_digest=config_digest,
                                 host_seconds=host_seconds, spans=spans)
            status("recorded run in %s" % args.store)

    try:
        with open_log(args.events) as events:
            if args.dashboard:
                dashboard = Dashboard(total=1)
                dashboard.attach(events)
            if args.mode == "emulate":
                start = time.perf_counter()
                with span_tracer.span("run", workload=workload,
                                      mode=args.mode):
                    with span_tracer.span("emulate"):
                        result = ILREmulator(
                            program,
                            max_instructions=args.max_instructions,
                            events=events,
                            checkpoint_interval=checkpoint_interval,
                        ).run()
                run = result.run
                print("emulated %d instructions (%d host instructions, %.0f/guest)"
                      % (run.icount, result.host_instructions,
                         result.host_instructions / max(1, run.icount)))
                _print_outcome(run.exit_code, run.output)
                finish(result, time.perf_counter() - start)
                return run.exit_code or 0

            target = (image if program is None
                      else program.image_for(args.mode))
            flow = make_flow(args.mode, program=program, image=target)

            if args.timing:
                from ..harness.spec import config_fingerprint

                cpu = CycleCPU(
                    target, flow,
                    events=events,
                    checkpoint_interval=checkpoint_interval,
                    on_checkpoint=heartbeat if args.progress else None,
                )
                tracer = None
                if args.trace:
                    tracer = attach_tracer(cpu, capacity=args.trace_capacity)
                start = time.perf_counter()
                with span_tracer.span("run", workload=workload,
                                      mode=args.mode):
                    with span_tracer.span("simulate"):
                        result = cpu.run(max_instructions=args.max_instructions)
                if tracer is not None:
                    written = tracer.to_jsonl(args.trace)
                    status("wrote %s (%d of %d retired instructions)"
                           % (args.trace, written, tracer.retired))
                print(result.summary())
                _print_outcome(result.exit_code, result.output)
                finish(result, time.perf_counter() - start,
                       drc_entries=cpu.config.drc.entries,
                       config_digest=config_fingerprint(cpu.config))
                return result.exit_code or 0

            start = time.perf_counter()
            with span_tracer.span("run", workload=workload, mode=args.mode):
                with span_tracer.span("execute"):
                    run = run_image(target, flow, args.max_instructions)
            print("retired %d instructions" % run.icount)
            _print_outcome(run.exit_code, run.output)
            finish(run, time.perf_counter() - start)
            return run.exit_code or 0
    except SecurityFault as fault:
        print("SECURITY FAULT: %s" % fault, file=sys.stderr)
        return 139  # SIGSEGV-style status, as a faulting process would get
    except BundleError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


def _print_outcome(exit_code, output) -> None:
    if output is not None and output.chars:
        print("stdout: %r" % output.text())
    if output is not None and output.words:
        print("words:  %s" % [hex(w) for w in output.words])
    print("exit:   %s" % exit_code)


if __name__ == "__main__":
    sys.exit(main())
