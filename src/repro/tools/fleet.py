"""``python -m repro.tools.fleet`` — multi-tenant datacenter fleet runs.

Sweeps a grid of :class:`~repro.fleet.FleetSpec` points (one per
arrival shape by default) and prints per-tenant tail latency
(p50/p95/p99 in cycles), IPC fairness, and switch cost for N protected
tenants serving open-loop traffic over M cores behind a genuinely
shared L2 + DRAM.

The grid runs through one :class:`~repro.harness.session.
ExperimentSession`, so fleet points get the scheduler's retry and
quarantine handling, and the shared observability flags from
:mod:`repro.harness.cli` apply: ``--events`` captures the scheduler's
``spec_dispatch`` / ``spec_done`` records plus one ``tenant_point``
record per tenant (renderable via ``python -m repro.tools.stats``),
``--store`` indexes every point as a ``fleet`` row of the run store
(``python -m repro.tools.stats fleet STORE.db``), ``--trace-out``
writes the sweep's span tree, and ``--dashboard`` renders the live
progress and tenant counters.  ``--workers N`` runs the grid across a
process pool; results are bit-identical to the sequential path.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..fleet import ARRIVAL_KINDS, ArrivalSpec, FleetSpec
from ..harness.cli import add_observability_options, sweep_from_args
from ..obs import status
from ..security.race import SERVICE_WORKLOAD

from .stats import format_table


def build_specs(args) -> list:
    """One fleet point per arrival kind, in deterministic order."""
    specs = []
    for kind in args.arrivals:
        if kind not in ARRIVAL_KINDS:
            raise ValueError(
                "unknown arrival kind %r (kinds: %s)"
                % (kind, ", ".join(ARRIVAL_KINDS))
            )
        specs.append(FleetSpec(
            workload=args.workload,
            scale=args.scale,
            mode=args.mode,
            seed=args.seed,
            tenants=args.tenants,
            cores=args.cores,
            quantum_instructions=args.quantum,
            switch_cycles=args.switch_cycles,
            request_instructions=args.request_instructions,
            arrival=ArrivalSpec(
                kind=kind,
                requests=args.requests,
                mean_gap=args.mean_gap,
                burst=args.burst,
                burst_gap=args.burst_gap,
            ),
            max_instructions=args.budget,
        ))
    return specs


def _csv_strs(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.fleet",
        description="Serve open-loop traffic from N protected tenants "
                    "over M simulated cores sharing an L2 + DRAM.",
    )
    parser.add_argument("--tenants", type=int, default=4,
                        help="protected tenants on the node (default 4)")
    parser.add_argument("--cores", type=int, default=2,
                        help="simulated cores (default 2)")
    parser.add_argument("--mode", default="vcfr",
                        choices=("baseline", "naive_ilr", "vcfr"),
                        help="protection mode for every tenant")
    parser.add_argument("--workload", default=SERVICE_WORKLOAD,
                        help="workload name (default: the synthetic "
                             "'%s' request server)" % SERVICE_WORKLOAD)
    parser.add_argument("--scale", type=float, default=0.3,
                        help="workload scale for non-service workloads")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--arrivals", type=_csv_strs,
                        default=["poisson", "bursty"],
                        help="comma-separated arrival kinds "
                             "(default: poisson,bursty)")
    parser.add_argument("--requests", type=int, default=30,
                        help="requests per tenant trace (default 30)")
    parser.add_argument("--mean-gap", type=int, default=2_500,
                        help="mean interarrival gap in cycles "
                             "(default 2500)")
    parser.add_argument("--burst", type=int, default=8,
                        help="bursty: requests per burst (default 8)")
    parser.add_argument("--burst-gap", type=int, default=50,
                        help="bursty: intra-burst gap in cycles "
                             "(default 50)")
    parser.add_argument("--quantum", type=int, default=2_000,
                        help="scheduling quantum in instructions "
                             "(default 2000)")
    parser.add_argument("--switch-cycles", type=int, default=200,
                        help="kernel cost per tenant switch (default 200)")
    parser.add_argument("--request-instructions", type=int, default=600,
                        help="service demand per request (default 600)")
    parser.add_argument("--budget", type=int, default=400_000,
                        help="per-tenant instruction safety budget")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes for the fleet grid "
                             "(0/1 = sequential; results bit-identical)")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object per fleet point "
                             "instead of the table")
    add_observability_options(parser)
    args = parser.parse_args(argv)

    try:
        specs = build_specs(args)
    except ValueError as err:
        parser.error(str(err))

    outcomes = sweep_from_args(args, specs)
    results = [outcome.result for outcome in outcomes if outcome.ok]
    failed = len(results) != len(outcomes)
    if args.store:
        status("recorded %d fleet points in %s" % (len(results), args.store))

    if args.json:
        for result in results:
            print(json.dumps(result.as_dict(), sort_keys=True))
        return 1 if failed else 0

    rows = []
    for result in results:
        for tenant in result.tenant_results:
            rows.append((
                result.arrival_kind,
                "%dt/%dc" % (result.tenants, result.cores),
                tenant.tenant,
                tenant.core,
                "%d/%d" % (tenant.served, tenant.requests),
                tenant.p50_latency,
                tenant.p95_latency,
                tenant.p99_latency,
                "%.4f" % tenant.ipc,
                "%.4f" % result.ipc_fairness,
                tenant.switches,
            ))
    print(format_table(
        ("arrival", "fleet", "tenant", "core", "served", "p50", "p95",
         "p99", "ipc", "fairness", "switches"),
        rows,
    ))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
