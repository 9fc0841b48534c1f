"""The reproduction itself: every experiment and ablation at its defaults.

One session at the harness defaults (scale 1.0, seed 42, a 300k
instruction budget) runs the paper's thirteen experiments and the six
ablations, the way ``python -m repro.harness --ablations`` does.  Every
shape check must pass, and each experiment's rows must hash to the
digest in ``perfbench/golden.json``.  The goldens are read as data, so
the expected rows live in one file: re-recording a golden moves this
test with it.  The ablations are not part of the benchmark's suite, so
their row digests live here, in :data:`ABLATION_DIGESTS`.
"""

import hashlib
import json
import os

import pytest

from repro.harness import ExperimentSession, run_all
from repro.harness.ablations import ALL_ABLATIONS
from repro.harness.experiments import ALL_EXPERIMENTS

GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "golden.json")

#: Row digest of each ablation at the harness defaults.
ABLATION_DIGESTS = {
    "drc_associativity": "9071ee7e35e5c642",
    "retaddr_policy": "cb6bbad6af90e387",
    "spread_factor": "91351c202e1905b1",
    "prefetcher": "9a8bb24e4a92969d",
    "context_switching": "1cb834e486d80cf1",
    "page_confined_layout": "d1fc921d8138ffc9",
}


def _digest(rows) -> str:
    blob = json.dumps(rows, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _failed_checks(result):
    assert result.checks, "%s checks nothing" % result.exp_id
    return [desc for desc, ok in result.checks if not ok]


@pytest.fixture(scope="module")
def session():
    return ExperimentSession(workers=0)


@pytest.fixture(scope="module")
def results(session):
    return run_all(session)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)["paper_suite"]


@pytest.mark.parametrize("name", list(ALL_EXPERIMENTS))
def test_experiment_reproduces(name, results, golden):
    result = results[name]
    assert _failed_checks(result) == []
    assert _digest(result.rows) == golden[name]


@pytest.mark.parametrize("name", list(ALL_ABLATIONS))
def test_ablation_holds(name, session):
    result = ALL_ABLATIONS[name](session)
    assert _failed_checks(result) == []
    assert _digest(result.rows) == ABLATION_DIGESTS[name]
