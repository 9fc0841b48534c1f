"""Shared fixtures for the per-figure benchmark suite.

All benches share one :class:`~repro.harness.ExperimentSession`, so each
(workload, mode, DRC-size) cycle simulation happens exactly once per
pytest session regardless of how many figures consume it.
"""

import pytest

from repro.harness import ExperimentSession
from repro.tools.benchgate import emit_experiment

#: Per-run instruction budget.  300k instructions gives steady-state cache
#: and DRC behaviour for every workload while keeping the full suite
#: within a few minutes of wall-clock.
BENCH_MAX_INSTRUCTIONS = 300_000


@pytest.fixture(scope="session")
def runner() -> ExperimentSession:
    return ExperimentSession(max_instructions=BENCH_MAX_INSTRUCTIONS)


@pytest.fixture
def show(request):
    """Print a regenerated table through pytest's output capture.

    The whole point of the bench suite is the figure/table data it
    regenerates; this writes it to the real stdout so
    ``pytest benchmarks/ --benchmark-only | tee bench_output.txt``
    records it.
    """
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _show(text: str) -> None:
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print("\n" + text, flush=True)
        else:  # pragma: no cover - capture disabled already
            print("\n" + text, flush=True)

    return _show


def run_once(benchmark, fn, *args):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are deterministic end-to-end simulations — re-running
    them for statistical timing would multiply minutes of simulation per
    figure for no measurement benefit.
    """
    return benchmark.pedantic(fn, args=args, rounds=1, iterations=1)


def gate_result(result):
    """Emit ``BENCH_<exp_id>.json`` for an experiment, then gate on it.

    The report is written before the assert so failing checks still
    land on disk for the perf-trajectory diff."""
    emit_experiment(result)
    assert result.passed, [d for d, ok in result.checks if not ok]
