"""``python -m repro.tools.fleet`` — multi-tenant datacenter fleet runs.

Sweeps a grid of :class:`~repro.fleet.FleetSpec` points (one per
arrival shape by default) and prints per-tenant tail latency
(p50/p95/p99 in cycles), IPC fairness, and switch cost for N protected
tenants serving open-loop traffic over M cores behind a genuinely
shared L2 + DRAM.

The grid runs through :func:`repro.tools.stats.job_main`, the body
the race CLI shares (session, retry and quarantine, ``--workers``,
``--json`` and the :mod:`repro.harness.cli` observability flags).
``--events`` logs one ``tenant_point`` record per tenant, ``--store``
indexes each point as a ``fleet`` row, and the table is the one
``python -m repro.tools.stats fleet STORE.db`` prints.
"""

from __future__ import annotations

import argparse
import sys

from ..fleet import ARRIVAL_KINDS, ArrivalSpec, FleetSpec
from ..security.race import SERVICE_WORKLOAD

from .stats import job_main


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
    return job_main("fleet", parser, build_specs, argv)


if __name__ == "__main__":
    sys.exit(main())
