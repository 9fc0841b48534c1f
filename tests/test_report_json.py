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
        is unchanged, and the sampled ``sim.arch.*`` layers reach the
        stderr table and the events file alike."""
        def harness(events, *flags):
            return _cli("repro.harness", "fig12", "--scale", "0.3",
                        "--max-instructions", "20000", "--workers", workers,
                        "--events", str(tmp_path / events), *flags)

        plain = harness("plain.jsonl")
        profiled = harness("profiled.jsonl", "--profile-phases")
        assert profiled.returncode == plain.returncode == 0
        assert profiled.stdout == plain.stdout
        table = profiled.stderr.split("host-time by phase", 1)[1]
        layers = set(re.findall(r"^sim\.arch\.\S+", table, re.M))
        assert layers
        stats = _cli("repro.tools.stats", str(tmp_path / "profiled.jsonl"),
                     "--section", "phases")
        assert stats.returncode == 0
        assert set(re.findall(r"^sim\.arch\.\S+", stats.stdout,
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

    def test_ablation_by_name_is_addressable(self):
        # Just registry resolution — running a full ablation is bench work.
        from repro.harness.__main__ import ALL_ABLATIONS, ALL_EXPERIMENTS
        assert "drc_associativity" in ALL_ABLATIONS
        assert not set(ALL_ABLATIONS) & set(ALL_EXPERIMENTS)
