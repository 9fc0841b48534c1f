"""Smoke tests: every example script runs cleanly as documented."""

import glob
import runpy
import shutil
import sys

import pytest

SLOW_EXAMPLES = [
    "examples/emulator_vs_hardware.py",
    "examples/moving_target_defense.py",
]

#: Every other example, found on disk so a new one cannot go untested.
EXAMPLES = sorted(set(glob.glob("examples/*.py")) - set(SLOW_EXAMPLES))


@pytest.fixture(autouse=True, scope="module")
def _drop_example_cache():
    """parallel_sweep.py leaves its cache dir behind by design; tests
    must not."""
    yield
    shutil.rmtree(".repro-cache-example", ignore_errors=True)


@pytest.mark.parametrize("path", EXAMPLES)
def test_example_runs(path, capsys):
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()


@pytest.mark.parametrize("path", SLOW_EXAMPLES)
def test_slow_example_runs(path, capsys):
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert "QED" in out or "slowdown" in out


def test_examples_have_docstrings():
    import ast as python_ast

    for path in glob.glob("examples/*.py"):
        with open(path) as fh:
            module = python_ast.parse(fh.read())
        doc = python_ast.get_docstring(module)
        assert doc and "Run:" in doc, path
