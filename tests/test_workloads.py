"""Workload suite tests: every program builds, runs, and self-checks."""

import pytest

from repro.analysis import collect_stats
from repro.arch.config import default_config
from repro.arch.functional import run_image
from repro.harness.spec import ALL_MODES, RunSpec
from repro.harness.sweep import execute_spec
from repro.workloads import (
    BY_NAME,
    FIG2_APPS,
    SPEC_APPS,
    build_image,
    get_workload,
)

ALL_APPS = sorted(BY_NAME)


class TestRegistry:
    def test_eleven_spec_apps(self):
        assert len(SPEC_APPS) == 11
        assert set(SPEC_APPS) <= set(BY_NAME)

    def test_fig2_apps_registered(self):
        assert set(FIG2_APPS) <= set(BY_NAME)
        assert "memcpy" in FIG2_APPS and "python" in FIG2_APPS

    def test_get_workload(self):
        w = get_workload("gcc")
        assert w.name == "gcc"
        assert w.description

    def test_image_cache(self):
        a = build_image("mcf")
        b = build_image("mcf")
        assert a is b
        c = build_image("mcf", scale=0.5)
        assert c is not a


@pytest.mark.parametrize("app", ALL_APPS)
class TestEveryWorkload:
    def test_runs_to_completion(self, app):
        image = build_image(app)
        result = run_image(image, max_instructions=3_000_000)
        assert result.exit_code == 0
        assert len(result.output.words) == 1  # the checksum
        assert result.icount > 5_000

    def test_deterministic(self, app):
        first = run_image(BY_NAME[app].build(), max_instructions=3_000_000)
        second = run_image(BY_NAME[app].build(), max_instructions=3_000_000)
        assert first.output == second.output
        assert first.icount == second.icount

    def test_scaling_down_shrinks_work(self, app):
        full = run_image(BY_NAME[app].build(scale=1.0),
                         max_instructions=3_000_000)
        small = run_image(BY_NAME[app].build(scale=0.3),
                          max_instructions=3_000_000)
        assert small.icount < full.icount


@pytest.mark.parametrize("mode", ALL_MODES)
def test_h264ref_runs_with_fewer_transforms_than_modes(mode):
    """At scale 0.1 h264ref builds four transforms, so its mode table
    holds four entries; ``mode_decide`` must call only those, not the
    word after the table (address 0)."""
    result = execute_spec(RunSpec("h264ref", mode, scale=0.1),
                          default_config())
    run = result.run if mode == "emulate" else result
    assert run.exit_code == 0


class TestSuiteShape:
    """The Table II identity facts the suite was designed around."""

    @pytest.fixture(scope="class")
    def stats(self):
        return {app: collect_stats(build_image(app)) for app in SPEC_APPS}

    def test_gcc_largest_code(self, stats):
        assert max(stats, key=lambda a: stats[a].total_instructions) == "gcc"

    def test_xalan_most_indirect_calls(self, stats):
        most = max(stats, key=lambda a: stats[a].indirect_function_calls)
        assert most == "xalan"

    def test_every_app_has_calls(self, stats):
        assert all(s.function_calls > 0 for s in stats.values())

    def test_small_code_apps_are_small(self, stats):
        # lbm/mcf-class apps must have visibly smaller footprints than gcc.
        assert stats["lbm"].total_instructions * 5 < stats["gcc"].total_instructions
