"""Shared CLI option builders for the harness and tool entry points.

``python -m repro.harness``, ``python -m repro.tools.run``,
``python -m repro.tools.fuzz``, ``python -m repro.tools.race`` and
``python -m repro.tools.fleet`` parse the same observability flags —
``--events`` / ``--progress`` / ``--checkpoint-interval`` / ``--store``
/ ``--trace-out`` / ``--dashboard`` — and the harness and run tool
share the sweep and fault flags too.  Defining the flags here (once)
keeps names, defaults, and help text from drifting between parsers.
:func:`attach_observers` wires ``--progress`` and ``--dashboard`` onto
a CLI's event log for every entry point, and :func:`sweep_from_args`
runs a job grid through one session built from those flags.
"""

from __future__ import annotations

import argparse

__all__ = [
    "add_observability_options",
    "attach_observers",
    "add_sweep_options",
    "add_fault_options",
    "fault_config_from_args",
    "sweep_from_args",
]


def add_observability_options(
    parser: argparse.ArgumentParser,
    *,
    default_checkpoint_interval: int = 0,
) -> None:
    """The full observability flag set, identical across every CLI:
    ``--events`` / ``--progress`` / ``--checkpoint-interval`` /
    ``--store`` / ``--trace-out`` / ``--dashboard``."""
    parser.add_argument("--events", metavar="PATH", default=None,
                        help="write a JSONL structured event log to PATH")
    parser.add_argument("--progress", action="store_true",
                        help="print a heartbeat line per simulation "
                             "checkpoint (stderr)")
    if default_checkpoint_interval:
        interval_help = ("instructions between progress checkpoints "
                         "(default %d)" % default_checkpoint_interval)
    else:
        interval_help = ("instructions between progress checkpoints "
                         "(0 = automatic when --events/--progress)")
    parser.add_argument("--checkpoint-interval", type=int,
                        default=default_checkpoint_interval,
                        help=interval_help)
    parser.add_argument("--store", metavar="PATH", default=None,
                        help="SQLite run store: every completed run (and "
                             "fuzz finding) is indexed for 'python -m "
                             "repro.tools.stats best/compare/history/sql'")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write the span tree as Chrome trace_event "
                             "JSON (open in chrome://tracing or Perfetto)")
    parser.add_argument("--dashboard", action="store_true",
                        help="live status block on stderr fed by the "
                             "event stream: work in flight, retries, "
                             "cache hit rate, findings, rolling IPC")


def add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """``--workers`` / ``--backlog`` / ``--cache-dir`` / ``--queue``."""
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes for the simulation sweep "
                             "(0/1 = sequential)")
    parser.add_argument("--backlog", type=int, default=None, metavar="N",
                        help="extra specs the streaming scheduler keeps "
                             "materialized beyond the worker count "
                             "(default 32); bounds sweep memory")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="persistent result cache: simulations hit "
                             "here are loaded instead of re-run; results "
                             "commit as they finish, so a killed sweep "
                             "resumes from its completed work")
    parser.add_argument("--queue", action="store_true",
                        help="coordinate with other processes draining "
                             "the same sweep: claim specs through the "
                             "shared cache directory (requires "
                             "--cache-dir); results merge by digest")


def add_fault_options(parser: argparse.ArgumentParser) -> None:
    """``--inject-faults`` / ``--retry-attempts`` / ``--spec-timeout``."""
    parser.add_argument("--inject-faults", metavar="PLAN", default=None,
                        help="deterministic fault injection plan, e.g. "
                             "'crash@mcf/baseline#0,corrupt@*#1' or "
                             "'crash:0.05,seed=7' (kinds: crash, raise, "
                             "hang, corrupt, cachefail)")
    parser.add_argument("--retry-attempts", type=int, default=0,
                        metavar="N",
                        help="max executions per spec before it is "
                             "quarantined (0 = engine default of 3)")
    parser.add_argument("--spec-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="soft per-attempt timeout; a spec producing "
                             "no result in time is retried (default: no "
                             "timeout)")


def fault_config_from_args(args):
    """``(RetryPolicy or None, FaultPlan or None)`` from parsed args.

    None means "use the engine default" for the policy and "no injected
    faults" for the plan, so CLIs that never pass the flags behave
    exactly as before.
    """
    from .faults import FaultPlan
    from .sweep import DEFAULT_RETRY, RetryPolicy

    faults = (FaultPlan.from_string(args.inject_faults)
              if args.inject_faults else None)
    retry = None
    if args.retry_attempts or args.spec_timeout is not None:
        retry = RetryPolicy(
            max_attempts=args.retry_attempts or DEFAULT_RETRY.max_attempts,
            timeout=args.spec_timeout,
            backoff=DEFAULT_RETRY.backoff,
            backoff_factor=DEFAULT_RETRY.backoff_factor,
        )
    return retry, faults


def attach_observers(args, events, total: int = 0):
    """Attach the ``--progress`` and ``--dashboard`` observers
    (:mod:`repro.harness.dashboard`) to ``events``; either one turns the
    log on.  Returns the call that renders their final state (the
    dashboard's last block; a no-op without ``--dashboard``).  ``total``
    is the dashboard's expected unit count (0 = unknown)."""
    from .dashboard import Dashboard, Progress

    if args.progress:
        Progress().attach(events)
    if not args.dashboard:
        return lambda: None
    dashboard = Dashboard(total=total)
    dashboard.attach(events)
    return dashboard.finish


def sweep_from_args(args, specs) -> list:
    """Run ``specs`` through one :class:`~repro.harness.session.
    ExperimentSession` built from the observability flags and
    ``--workers``; returns the outcomes in input order, having reported
    quarantined specs on stderr."""
    from ..obs import open_log, status
    from ..obs.trace import Tracer
    from .session import ExperimentSession

    tracer = Tracer() if args.trace_out else None
    events = open_log(args.events)
    finish_observers = attach_observers(args, events, total=len(specs))
    with ExperimentSession(events=events,
                           checkpoint_interval=args.checkpoint_interval,
                           workers=args.workers, tracer=tracer,
                           store_path=args.store) as session:
        outcomes = session.sweep(specs)
        finish_observers()
    if tracer is not None:
        count = tracer.to_chrome(args.trace_out)
        status("wrote %s (%d spans)" % (args.trace_out, count))
    for outcome in outcomes:
        if not outcome.ok:
            status("QUARANTINED %s after %d attempt(s) [%s]: %s"
                   % (outcome.spec.label(), outcome.attempts,
                      outcome.failure.kind, outcome.failure.error))
    return outcomes
