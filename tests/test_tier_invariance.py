"""Tier invariance of race and fleet points.

A race or fleet point must not depend on which execution tier ran its
tenants: ``MachineConfig.fastpath``/``tracepath`` are host tuning
(:data:`~repro.arch.config.HOST_TUNING_FIELDS`) and stay out of the
result-cache key, so a cached point is served to a session running any
tier.  Every point of the race and fleet sweep grids runs with traces
on (the default), with blocks only, and on the reference loop; the
three ``as_dict()`` views must agree.

One race field does not: ``trace_invalidations`` counts host
trace-cache flushes on rotation, and those only happen with traces on.
That defect is pinned by a strict xfail that names the field.
"""

import dataclasses

import pytest

from repro.arch.config import default_config
from repro.fleet.datacenter import run_fleet
from repro.security.race import run_race
from tests.test_fleet import _grid as fleet_grid
from tests.test_security_race import _grid as race_grid

TIERS = {
    "traces": {},
    "blocks": {"tracepath": False},
    "reference": {"fastpath": False, "tracepath": False},
}

POINTS = (
    [pytest.param(run_race, spec, id="race%d" % i)
     for i, spec in enumerate(race_grid())]
    + [pytest.param(run_fleet, spec, id="fleet%d" % i)
       for i, spec in enumerate(fleet_grid())]
)


def _rows(run, spec):
    """``as_dict()`` of one point under each tier, keyed by tier."""
    return {
        tier: run(spec, config=dataclasses.replace(default_config(),
                                                   **flags)).as_dict()
        for tier, flags in TIERS.items()
    }


@pytest.mark.parametrize("run, spec", POINTS)
def test_point_is_tier_invariant(run, spec):
    rows = _rows(run, spec)
    for row in rows.values():
        row.pop("trace_invalidations", None)  # the xfail below pins it
    assert rows["blocks"] == rows["traces"]
    assert rows["reference"] == rows["traces"]


@pytest.mark.xfail(strict=True, reason=(
    "RaceResult.trace_invalidations counts host trace-cache flushes, "
    "which only happen with traces on"))
def test_race_trace_invalidations_are_tier_invariant():
    counts = [
        {tier: row["trace_invalidations"]
         for tier, row in _rows(run_race, spec).items()}
        for spec in race_grid()
    ]
    assert all(len(set(by_tier.values())) == 1 for by_tier in counts)
