"""Multi-tenant datacenter fleet scenario.

N protected tenants serving open-loop request traffic over M simulated
cores, with per-tenant DRC/TLB/L1 state and a genuinely shared L2 +
DRAM — the ROADMAP's "simulate the datacenter, not just the core"
workload.  See :mod:`repro.fleet.datacenter` for the model and
:mod:`repro.fleet.traffic` for the arrival traces.
"""

from .datacenter import (
    FleetResult,
    FleetSpec,
    TenantResult,
    run_fleet,
)
from .traffic import ARRIVAL_KINDS, ArrivalSpec, arrival_times

__all__ = [
    "FleetSpec",
    "FleetResult",
    "TenantResult",
    "run_fleet",
    "ArrivalSpec",
    "arrival_times",
    "ARRIVAL_KINDS",
]
