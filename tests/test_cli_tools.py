"""CLI tool tests: asm, objdump, randomize, run, ropscan, and the race
and fleet CLIs' flags."""

import argparse
import hashlib
import json
import sqlite3

import pytest

from repro.obs.events import read_events
from repro.tools import asm, mcc, objdump, randomize as randomize_tool, ropscan, run
from repro.tools import stats
from repro.tools import fleet as fleet_cli
from repro.tools import race as race_cli

SRC = """
.code 0x400000
main:
    call helper
    movi eax, 5
    mov ebx, edi
    int 0x80
    movi eax, 1
    movi ebx, 0
    int 0x80
helper:
    movi edi, 42
    ret
gadget_fodder:
    pop eax
    ret
restore2:
    pop ebx
    ret
syscall_stub:
    int 0x80
    ret
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(SRC)
    return str(path)


@pytest.fixture()
def binary_file(source_file, tmp_path):
    out = str(tmp_path / "prog.rxbf")
    assert asm.main([source_file, "-o", out]) == 0
    return out


@pytest.fixture()
def bundle_file(binary_file, tmp_path):
    out = str(tmp_path / "prog.rxrp")
    assert randomize_tool.main([binary_file, "-o", out, "--seed", "4"]) == 0
    return out


class TestAsm:
    def test_assembles(self, binary_file, capsys):
        with open(binary_file, "rb") as fh:
            assert fh.read(4) == b"RXBF"

    def test_reports_error_for_bad_source(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text(".code 0x400000\nmain:\n bogus eax\n")
        out = str(tmp_path / "bad.rxbf")
        assert asm.main([str(bad), "-o", out]) == 1
        assert "unknown mnemonic" in capsys.readouterr().err


class TestObjdump:
    def test_sections_default(self, binary_file, capsys):
        assert objdump.main([binary_file]) == 0
        out = capsys.readouterr().out
        assert "Sections:" in out and "code" in out

    def test_disassemble(self, binary_file, capsys):
        assert objdump.main([binary_file, "-d"]) == 0
        out = capsys.readouterr().out
        assert "main:" in out and "call" in out

    def test_symbols_and_relocs(self, binary_file, capsys):
        assert objdump.main([binary_file, "-t", "-r"]) == 0
        out = capsys.readouterr().out
        assert "helper" in out and "Relocations:" in out


class TestRandomizeTool:
    def test_produces_bundle(self, bundle_file):
        with open(bundle_file, "rb") as fh:
            assert fh.read(4) == b"RXRP"

    def test_verify_flag(self, binary_file, tmp_path, capsys):
        out = str(tmp_path / "v.rxrp")
        assert randomize_tool.main(
            [binary_file, "-o", out, "--verify", "--seed", "6"]
        ) == 0
        assert "equivalence" in capsys.readouterr().out

    def test_options_forwarded(self, binary_file, tmp_path):
        out = str(tmp_path / "c.rxrp")
        assert randomize_tool.main(
            [binary_file, "-o", out, "--conservative-retaddr",
             "--spread", "8", "--no-relocations"]
        ) == 0
        from repro.ilr.bundle import load
        bundle = load(out)
        assert bundle.config.conservative_retaddr
        assert bundle.config.spread_factor == 8
        assert not bundle.config.use_relocations


class TestRun:
    def test_baseline_binary(self, binary_file, capsys):
        assert run.main([binary_file]) == 0
        out = capsys.readouterr().out
        assert "0x2a" in out  # EMIT(42)

    def test_bundle_all_modes(self, bundle_file, capsys):
        for mode in ("baseline", "naive_ilr", "vcfr", "emulate"):
            assert run.main([bundle_file, "--mode", mode]) == 0
            assert "0x2a" in capsys.readouterr().out

    def test_timing_mode(self, bundle_file, capsys):
        assert run.main([bundle_file, "--mode", "vcfr", "--timing"]) == 0
        out = capsys.readouterr().out
        assert "ipc=" in out and "drc lookups" in out

    @pytest.mark.parametrize("mode,label,drc", [
        ("vcfr", "vcfr@128", 128), ("baseline", "baseline", 0)])
    def test_records_and_row_carry_the_harness_label(
            self, bundle_file, tmp_path, capsys, mode, label, drc):
        """Records and the store row are labelled as the harness labels
        them: only VCFR carries its DRC size."""
        events = str(tmp_path / "e.jsonl")
        store = str(tmp_path / "runs.db")
        assert run.main([bundle_file, "--mode", mode, "--timing",
                         "--events", events, "--store", store]) == 0
        records = read_events(events)
        runs = [r for r in records
                if r["kind"] in ("checkpoint", "run_end")]
        assert {r["kind"] for r in runs} == {"checkpoint", "run_end"}
        assert all(r.get("drc_entries", 0) == drc for r in runs)
        assert list(stats.checkpoint_series(records)) == [("prog", label)]
        assert label in stats.runs_table(records)
        with sqlite3.connect(store) as conn:
            assert conn.execute("SELECT mode, drc_entries FROM runs"
                                ).fetchall() == [(mode, drc)]

    def test_mode_requires_bundle(self, binary_file, capsys):
        assert run.main([binary_file, "--mode", "vcfr"]) == 1
        assert "RXRP" in capsys.readouterr().err

    @pytest.mark.parametrize("timing", [[], ["--timing"]])
    def test_emulate_refuses_trace(self, bundle_file, tmp_path, capsys,
                                   timing):
        # The software-ILR VM has no instruction tracer: asking for one
        # is a usage error, not a silent run that writes no file.
        trace = tmp_path / "t.jsonl"
        with pytest.raises(SystemExit) as exc:
            run.main([bundle_file, "--mode", "emulate", "--trace",
                      str(trace)] + timing)
        assert exc.value.code == 2
        assert "cycle simulator" in capsys.readouterr().err
        assert not trace.exists()


class TestRopscan:
    def test_binary_scan_finds_payload(self, binary_file, capsys):
        status = ropscan.main([binary_file, "--show", "2"])
        out = capsys.readouterr().out
        assert "gadgets found" in out
        assert status == 2  # exploitable: full role pool present
        assert "PAYLOAD ASSEMBLED" in out

    def test_bundle_scan_shows_removal(self, bundle_file, capsys):
        status = ropscan.main([bundle_file])
        out = capsys.readouterr().out
        assert "after randomization" in out
        assert "% removed" in out
        assert status == 0  # no payload after randomization


class TestMcc:
    def test_compiles_and_runs(self, tmp_path, capsys):
        src = tmp_path / "p.mc"
        src.write_text("int main() { emit(6 * 7); return 0; }")
        out = str(tmp_path / "p.rxbf")
        assert mcc.main([str(src), "-o", out]) == 0
        assert run.main([out]) == 0
        assert "0x2a" in capsys.readouterr().out

    def test_assembly_output(self, tmp_path):
        src = tmp_path / "p.mc"
        src.write_text("int main() { return 0; }")
        out = tmp_path / "p.s"
        assert mcc.main([str(src), "-S", "-o", str(out)]) == 0
        assert "_start" in out.read_text()

    def test_compile_error_reported(self, tmp_path, capsys):
        src = tmp_path / "bad.mc"
        src.write_text("int main() { return missing; }")
        assert mcc.main([str(src), "-o", str(tmp_path / "x")]) == 1
        assert "undefined variable" in capsys.readouterr().err

    def test_full_pipeline_via_cli(self, tmp_path, capsys):
        src = tmp_path / "p.mc"
        src.write_text(
            "int main() { int i = 0; int s = 0;"
            " while (i < 10) { s = s + i; i = i + 1; }"
            " emit(s); return 0; }"
        )
        binary = str(tmp_path / "p.rxbf")
        bundle = str(tmp_path / "p.rxrp")
        assert mcc.main([str(src), "-o", binary]) == 0
        assert randomize_tool.main([binary, "-o", bundle, "--verify"]) == 0
        assert run.main([bundle, "--mode", "vcfr"]) == 0
        assert "0x2d" in capsys.readouterr().out  # 45


# -- race and fleet CLI flags -------------------------------------------------

#: Both CLIs' options as (option strings, default, type, choices), in
#: parser order, pinned before their shared body moved into
#: ``repro.tools.stats.job_main``.
_SHARED_FLAGS = [
    (["--workers"], 0, "int", None),
    (["--json"], False, None, None),
    (["--events"], None, None, None),
    (["--progress"], False, None, None),
    (["--checkpoint-interval"], 0, "int", None),
    (["--store"], None, None, None),
    (["--trace-out"], None, None, None),
    (["--dashboard"], False, None, None),
]
RACE_FLAGS = [
    (["-h", "--help"], argparse.SUPPRESS, None, None),
    (["--policies"], ["none", "periodic@20000", "periodic@5000",
                      "on_probe@2", "on_syscall@400"], "_csv_strs", None),
    (["--rates"], [0.25, 0.5], "_csv_floats", None),
    (["--workload"], "service", None, None),
    (["--scale"], 0.3, "float", None),
    (["--seed"], 42, "int", None),
    (["--tenants"], 1, "int", None),
    (["--budget"], 60000, "int", None),
    (["--window"], 2000, "int", None),
    (["--mappings-per-disclosure"], 12, "int", None),
    (["--probe-rate"], 0.0, "float", None),
    (["--no-adversary"], False, None, None),
] + _SHARED_FLAGS
FLEET_FLAGS = [
    (["-h", "--help"], argparse.SUPPRESS, None, None),
    (["--tenants"], 4, "int", None),
    (["--cores"], 2, "int", None),
    (["--mode"], "vcfr", None, ("baseline", "naive_ilr", "vcfr")),
    (["--workload"], "service", None, None),
    (["--scale"], 0.3, "float", None),
    (["--seed"], 42, "int", None),
    (["--arrivals"], ["poisson", "bursty"], "_csv_strs", None),
    (["--requests"], 30, "int", None),
    (["--mean-gap"], 2500, "int", None),
    (["--burst"], 8, "int", None),
    (["--burst-gap"], 50, "int", None),
    (["--quantum"], 2000, "int", None),
    (["--switch-cycles"], 200, "int", None),
    (["--request-instructions"], 600, "int", None),
    (["--budget"], 400000, "int", None),
] + _SHARED_FLAGS

#: SHA-256 over what ``--help`` renders from (prog, description, and each
#: option's strings, metavar, nargs and help text), pinned with the flags.
HELP_DIGESTS = {
    "race": "06884c7dace04c64ef199f718d28cbeab18de6983d8a6f73f4ceadcb9a9f06d9",
    "fleet": "afae6ee91acb188d30e50c23348f898add1a7f4f403249eac96a8d187ddc2ecf",
}


def _cli_parser(cli, monkeypatch):
    """The CLI's complete parser, caught as ``main`` parses its argv."""

    class Parsed(Exception):
        pass

    def catch(self, args=None, namespace=None):
        raise Parsed(self)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", catch)
    with pytest.raises(Parsed) as caught:
        cli.main([])
    return caught.value.args[0]


@pytest.mark.parametrize("name, cli, flags", [
    ("race", race_cli, RACE_FLAGS),
    ("fleet", fleet_cli, FLEET_FLAGS),
])
def test_job_cli_flags_are_pinned(name, cli, flags, monkeypatch):
    parser = _cli_parser(cli, monkeypatch)
    actions = parser._actions
    assert [(a.option_strings, a.default, getattr(a.type, "__name__", None),
             a.choices) for a in actions] == flags
    surface = json.dumps([parser.prog, parser.description] + [
        [a.option_strings, a.metavar, a.nargs, a.help] for a in actions])
    assert hashlib.sha256(surface.encode()).hexdigest() == HELP_DIGESTS[name]


@pytest.mark.parametrize("cli, argv, labels", [
    (race_cli, ["--policies", "none", "--rates", "0.25,0.5",
                "--budget", "8000"],
     ["service/none/disc0.25", "service/none/disc0.50"]),
    (fleet_cli, ["--tenants", "1", "--cores", "1", "--requests", "3",
                 "--arrivals", "uniform,bursty", "--mean-gap", "800"],
     ["service/vcfr/1t1c/uniform", "service/vcfr/1t1c/bursty"]),
])
def test_job_cli_progress_prints_a_done_line_per_point(cli, argv, labels,
                                                       capsys):
    assert cli.main(argv + ["--progress"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.endswith("] done")] \
        == ["[%s] done" % label for label in labels]
