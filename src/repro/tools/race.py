"""``python -m repro.tools.race`` — rotation-service vs JIT-ROP races.

Sweeps a rotation-policy x disclosure-rate grid of
:class:`~repro.security.race.RaceSpec` points and prints the
gadget-availability-window curve: how much of each run the adversary's
harvested gadget set stayed usable, against the rotation cycles the
defense paid to keep invalidating it.

Policies are given in the same spelling :meth:`RotationPolicy.label`
prints — ``none``, ``periodic@20000``, ``on_probe@2``,
``on_syscall@400`` — so a policy read off a previous report can be
pasted straight back into ``--policies``.

The grid runs through :func:`repro.tools.stats.job_main`, the body
the fleet CLI shares (session, retry and quarantine, ``--workers``,
``--json`` and the :mod:`repro.harness.cli` observability flags).
``--events`` logs one ``rotation`` record per rotation and one
``race_point`` record per point, ``--store`` indexes each point as a
``race`` row, and the table is the one ``python -m repro.tools.stats
race STORE.db`` prints.
"""

from __future__ import annotations

import argparse
import sys

from ..security.adversary import AdversarySpec
from ..security.race import SERVICE_WORKLOAD, RaceSpec
from ..security.rotation import POLICY_KINDS, RotationPolicy

from .stats import job_main


def parse_policy(text: str) -> RotationPolicy:
    """Inverse of :meth:`RotationPolicy.label`.

    ``none`` | ``periodic[@N]`` | ``on_probe[@K]`` | ``on_syscall[@N]``
    — the ``@`` argument is the kind's own knob (period instructions,
    probe threshold, syscall period).
    """
    kind, _, arg = text.strip().partition("@")
    if kind not in POLICY_KINDS:
        raise ValueError(
            "unknown rotation policy %r (kinds: %s)"
            % (text, ", ".join(POLICY_KINDS))
        )
    if not arg:
        return RotationPolicy(kind=kind)
    try:
        value = int(arg)
    except ValueError:
        raise ValueError("policy %r: %r is not an integer" % (text, arg))
    if value <= 0:
        raise ValueError("policy %r: argument must be positive" % (text,))
    if kind == "periodic":
        return RotationPolicy(kind=kind, period_instructions=value)
    if kind == "on_probe":
        return RotationPolicy(kind=kind, probe_threshold=value)
    if kind == "on_syscall":
        return RotationPolicy(kind=kind, syscall_period=value)
    raise ValueError("policy 'none' takes no argument (got %r)" % (text,))


def build_specs(args) -> list:
    """The policy x rate grid, in deterministic row-major order."""
    specs = []
    for policy_text in args.policies:
        policy = parse_policy(policy_text)
        # on_probe only ever fires if the adversary actually probes.
        probe_rate = args.probe_rate
        if policy.kind == "on_probe" and probe_rate == 0.0:
            probe_rate = 0.3
        for rate in args.rates:
            specs.append(RaceSpec(
                workload=args.workload,
                scale=args.scale,
                seed=args.seed,
                tenants=args.tenants,
                policy=policy,
                adversary=AdversarySpec(
                    enabled=not args.no_adversary,
                    disclosure_rate=rate,
                    mappings_per_disclosure=args.mappings_per_disclosure,
                    probe_rate=probe_rate,
                ),
                window_instructions=args.window,
                max_instructions=args.budget,
            ))
    return specs


def _csv_floats(text: str) -> list:
    return [float(part) for part in text.split(",") if part.strip()]


def _csv_strs(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.race",
        description="Race a rotation service against a JIT-ROP adversary "
                    "over a policy x disclosure-rate grid.",
    )
    parser.add_argument("--policies", type=_csv_strs,
                        default=["none", "periodic@20000", "periodic@5000",
                                 "on_probe@2", "on_syscall@400"],
                        help="comma-separated rotation policies "
                             "(default: none,periodic@20000,periodic@5000,"
                             "on_probe@2,on_syscall@400)")
    parser.add_argument("--rates", type=_csv_floats, default=[0.25, 0.5],
                        help="comma-separated disclosure rates per window "
                             "(default: 0.25,0.5)")
    parser.add_argument("--workload", default=SERVICE_WORKLOAD,
                        help="workload name (default: the synthetic "
                             "'%s' request server)" % SERVICE_WORKLOAD)
    parser.add_argument("--scale", type=float, default=0.3,
                        help="workload scale for non-service workloads")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--tenants", type=int, default=1,
                        help="VCFR tenants time-sharing the core")
    parser.add_argument("--budget", type=int, default=60_000,
                        help="per-tenant instruction budget")
    parser.add_argument("--window", type=int, default=2_000,
                        help="scheduling quantum = race sampling window "
                             "(instructions)")
    parser.add_argument("--mappings-per-disclosure", type=int, default=12,
                        help="table entries leaked per disclosure event")
    parser.add_argument("--probe-rate", type=float, default=0.0,
                        help="blind-probe probability per window (default "
                             "0; on_probe policies fall back to 0.3 so "
                             "their trigger has a signal)")
    parser.add_argument("--no-adversary", action="store_true",
                        help="disable the adversary (overhead baseline)")
    return job_main("race", parser, build_specs, argv)


if __name__ == "__main__":
    sys.exit(main())
