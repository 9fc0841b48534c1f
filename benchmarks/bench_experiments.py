"""Every paper experiment and ablation, regenerated and gated.

One test per id of ``ALL_EXPERIMENTS`` and ``ALL_ABLATIONS``
(``test_experiment[fig12]``, ``test_experiment[prefetcher]``, ...).
Each runs its experiment once under pytest-benchmark timing on the
shared session, prints the regenerated table, writes
``BENCH_<exp_id>.json`` and asserts every shape check (see
``conftest.py``).  The paper's reference numbers are in each result's
``paper_summary`` and in EXPERIMENTS.md.

Run: ``python -m pytest benchmarks/bench_experiments.py``
(``-k fig12`` for one).
"""

import pytest
from conftest import gate_result, run_once

from repro.harness import format_result
from repro.harness.ablations import ALL_ABLATIONS
from repro.harness.experiments import ALL_EXPERIMENTS

EXPERIMENTS = {**ALL_EXPERIMENTS, **ALL_ABLATIONS}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment(name, runner, benchmark, show):
    result = run_once(benchmark, EXPERIMENTS[name], runner)
    show(format_result(result))
    gate_result(result)
