"""Report JSON export and harness CLI tests."""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.harness.__main__ import main as harness_main
from repro.harness.experiments import ExperimentResult
from repro.harness.report import results_to_dict, write_json
from tests.test_obs_events import _child_shares, _table_rows


def _result():
    res = ExperimentResult("figX", "Title", ("a", "b"), rows=[(1, 2), (3, 4)])
    res.summary = "m"
    res.paper_summary = "p"
    res.check("ok", True)
    return res


class TestJsonExport:
    def test_dict_shape(self):
        data = results_to_dict({"figX": _result()})
        entry = data["figX"]
        assert entry["rows"] == [[1, 2], [3, 4]]
        assert entry["headers"] == ["a", "b"]
        assert entry["checks"] == [{"description": "ok", "passed": True}]
        assert entry["passed"] is True

    def test_json_round_trip(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_json({"figX": _result()}, path)
        with open(path) as fh:
            data = json.load(fh)
        assert data["figX"]["summary"] == "m"

    def test_failed_check_serialized(self):
        res = _result()
        res.check("broken", False)
        data = results_to_dict({"x": res})
        assert data["x"]["passed"] is False


def _cli(module, *args):
    """Run ``python -m module args`` against this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.run([sys.executable, "-m", module, *args], env=env,
                          capture_output=True, text=True, timeout=300)


class TestHarnessCLI:
    @pytest.mark.parametrize("workers", ["0", "2"])
    def test_profile_phases_end_to_end(self, tmp_path, workers):
        """``--profile-phases`` through the CLI, the session, the
        scheduler and (at ``--workers 2``) the pool workers: the report
        is unchanged, the sampled ``sim.arch.*`` layers reach the
        stderr table and the events file alike, and the table's shares
        add up (pooled ``spec`` spans overlap, so there no share may
        pass 100%)."""
        def harness(events, *flags):
            return _cli("repro.harness", "fig12", "--scale", "0.3",
                        "--max-instructions", "20000", "--workers", workers,
                        "--events", str(tmp_path / events), *flags)

        plain = harness("plain.jsonl")
        profiled = harness("profiled.jsonl", "--profile-phases")
        assert profiled.returncode == plain.returncode == 0
        assert profiled.stdout == plain.stdout
        table = profiled.stderr.split("host-time by phase\n", 1)[1]
        table = table.split("\nwrote ", 1)[0]
        rows = _table_rows(table)
        if workers == "0":
            for parent, shares in _child_shares(rows).items():
                printed = [share for share in shares if share is not None]
                assert sum(printed) <= 100.0 + 0.05 * len(printed)
                if parent is None:
                    assert sum(printed) >= 100.0 - 0.05 * len(printed)
        else:
            assert all(share is None or share <= 100.0
                       for *_, share in rows)
        layers = set(re.findall(r"^\s*(sim\.arch\.\S+)", table, re.M))
        assert layers
        stats = _cli("repro.tools.stats", str(tmp_path / "profiled.jsonl"),
                     "--section", "phases")
        assert stats.returncode == 0
        assert set(re.findall(r"^\s*(sim\.arch\.\S+)", stats.stdout,
                              re.M)) == layers

    def test_single_cheap_experiment(self, capsys, tmp_path):
        path = str(tmp_path / "r.json")
        status = harness_main(
            ["fig9", "--max-instructions", "20000", "--json", path]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "FIG9" in out and "[PASS]" in out
        with open(path) as fh:
            assert "fig9" in json.load(fh)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            harness_main(["fig99"])

    def test_ablation_alone_prefetches_only_its_specs(self, tmp_path):
        """With a cache and no suite experiment, only the ablation's own
        12 distinct specs run, not the whole suite's 63."""
        cache = tmp_path / "cache"
        status = harness_main(["prefetcher", "--cache-dir", str(cache),
                               "--scale", "0.3",
                               "--max-instructions", "20000"])
        assert status == 0
        assert len(list(cache.glob("*/*/result.json"))) == 12

    def test_ablation_by_name_is_addressable(self):
        # Just registry resolution — running a full ablation is bench work.
        from repro.harness.__main__ import ALL_ABLATIONS, ALL_EXPERIMENTS
        assert "drc_associativity" in ALL_ABLATIONS
        assert not set(ALL_ABLATIONS) & set(ALL_EXPERIMENTS)
