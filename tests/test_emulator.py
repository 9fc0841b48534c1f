"""Software-ILR emulator: correctness and host-cost accounting."""

import hashlib
import json

import pytest

from repro.emu import HostCostParams, ILREmulator
from repro.ilr import RandomizerConfig, randomize, verify_equivalence
from repro.ilr.flow import NaiveILRFlow
from repro.ilr.rdr import RDRError
from repro.isa import assemble
from repro.obs.events import EventLog, MemorySink
from repro.workloads import FIG2_APPS, build_image

PROGRAM = """
.code 0x400000
main:
    movi edi, 0
    movi ecx, 0
.loop:
    mov eax, ecx
    imul eax, eax
    add edi, eax
    movi esi, scratch
    mov [esi+0], edi
    add ecx, 1
    cmp ecx, 50
    jl .loop
    call finish
finish:
    movi eax, 5
    mov ebx, edi
    int 0x80
    movi eax, 1
    movi ebx, 0
    int 0x80
.data 0x8000000
scratch:
    .space 16
"""


@pytest.fixture(scope="module")
def program():
    return randomize(assemble(PROGRAM), RandomizerConfig(seed=31))


class TestCorrectness:
    def test_matches_all_hardware_modes(self, program):
        reference = verify_equivalence(program).baseline
        result = ILREmulator(program).run()
        assert result.run.output == reference.output
        assert result.run.exit_code == reference.exit_code
        assert result.run.icount == reference.icount

    def test_runs_the_randomized_space(self, program):
        # The emulator starts at the randomized entry and must translate
        # every PC; a fresh program with a different layout still works.
        other = randomize(assemble(PROGRAM), RandomizerConfig(seed=99))
        assert other.entry_rand != program.entry_rand
        assert (ILREmulator(other).run().run.output
                == ILREmulator(program).run().run.output)


class TestHostCost:
    def test_every_instruction_charged(self, program):
        result = ILREmulator(program).run()
        icount = result.run.icount
        counters = result.counters.by_activity
        params = HostCostParams()
        # Dispatch + derand + decode + flags are per-instruction.
        assert counters["dispatch"] == icount * params.dispatch
        assert counters["derand_lookup"] == icount * params.derand_lookup
        assert counters["decode"] >= icount * (params.decode_base +
                                               params.decode_per_byte)

    def test_control_transfers_cost_extra(self, program):
        result = ILREmulator(program).run()
        counters = result.counters.by_activity
        assert counters["control_transfer"] > 0
        # 49 taken loop branches + 1 call.
        assert counters["control_transfer"] >= 50 * HostCostParams().control_transfer

    def test_memory_ops_cost_extra(self, program):
        result = ILREmulator(program).run()
        assert result.counters.by_activity["memory_op"] > 0

    def test_total_is_sum(self, program):
        result = ILREmulator(program).run()
        assert result.host_instructions == sum(
            result.counters.by_activity.values()
        )

    def test_slowdown_metric(self, program):
        result = ILREmulator(program).run()
        assert result.slowdown_vs(result.host_instructions) == pytest.approx(1.0)
        assert result.slowdown_vs(result.host_instructions // 100) == (
            pytest.approx(100.0, rel=0.05)
        )
        assert result.slowdown_vs(0) == 0.0

    def test_custom_params(self, program):
        cheap = ILREmulator(program, params=HostCostParams(
            dispatch=1, derand_lookup=1, decode_base=1, decode_per_byte=0,
            execute=1, flags_update=0, memory_op=0, control_transfer=0,
            syscall=0,
        )).run()
        default = ILREmulator(program).run()
        assert cheap.host_instructions < default.host_instructions
        assert cheap.run.output == default.run.output

    def test_per_guest_instruction_cost_in_band(self, program):
        """Interpretive emulators burn 10^2-10^3 host insts per guest inst."""
        result = ILREmulator(program).run()
        per_guest = result.host_instructions / result.run.icount
        assert 100 <= per_guest <= 1000

    def test_exit_instruction_is_charged_dispatch_decode_and_syscall(
            self, program):
        """The exiting ``int`` pays dispatch, de-randomization, decode
        and its syscall, but no execute or flags charge; every executed
        ``int`` pays one syscall."""
        result = ILREmulator(program).run()
        counters = result.counters.by_activity
        params = HostCostParams()
        icount = result.run.icount
        assert result.run.exit_code == 0
        assert counters["execute"] == (icount - 1) * params.execute
        assert counters["flags"] == (icount - 1) * params.flags_update
        assert counters["syscall"] == 2 * params.syscall  # emit, exit


#: Reduced-size Fig. 2 runs: (app, max_instructions, checkpoint
#: interval).  Each app runs to its exit with several checkpoints; the
#: last xalan run stops on its budget, on which a checkpoint also falls.
FIG2_RUNS = [(app, 100_000, 5000) for app in FIG2_APPS] + [
    ("xalan", 12_000, 4000)]

#: sha256 prefix of each run's ``as_dict()`` (sorted keys, checkpoint
#: ``host_seconds`` dropped): the architectural outcome, every host-cost
#: counter (which keys are present included) and the checkpoint records.
FIG2_DIGESTS = {
    ("bzip2", 100_000, 5000): "9a4ed4ffeec814ba",
    ("h264ref", 100_000, 5000): "d48dd4ec409c6164",
    ("hmmer", 100_000, 5000): "69289eb7482caee9",
    ("memcpy", 100_000, 5000): "7672af3ad9cd6d28",
    ("python", 100_000, 5000): "9b194e68a32a0cfc",
    ("xalan", 100_000, 5000): "390fcfdfe84eafe6",
    ("xalan", 12_000, 4000): "30c580a931c0b582",
}


@pytest.mark.parametrize("run", FIG2_RUNS, ids=lambda run: "%s-%d-%d" % run)
def test_fig2_reports_are_pinned(run):
    app, budget, interval = run
    program = randomize(build_image(app, scale=0.3),
                        RandomizerConfig(seed=42))
    result = ILREmulator(program, max_instructions=budget,
                         checkpoint_interval=interval).run()
    data = result.as_dict()
    assert len(data["checkpoints"]) >= 2
    for checkpoint in data["checkpoints"]:
        del checkpoint["host_seconds"]
    blob = json.dumps(data, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == FIG2_DIGESTS[run]


def test_events_keep_their_fields(program):
    sink = MemorySink()
    result = ILREmulator(program, events=EventLog(sink),
                         checkpoint_interval=100,
                         event_fields={"workload": "w"}).run()
    kinds = [record["kind"] for record in sink.records]
    assert kinds == ["run_start"] + ["checkpoint"] * len(
        result.checkpoints) + ["run_end"]
    assert len(result.checkpoints) == result.run.icount // 100
    common = {"kind", "seq", "t", "mode", "workload"}
    assert {record["kind"]: set(record) - common
            for record in sink.records} == {
        "run_start": {"max_instructions", "checkpoint_interval"},
        "checkpoint": {"instructions", "host_instructions",
                       "host_per_guest", "host_seconds"},
        "run_end": {"instructions", "host_instructions", "halted",
                    "host_seconds"},
    }
    assert sink.records[-1]["host_instructions"] == result.host_instructions


WILD_JUMP = """
.code 0x400000
main:
    movi eax, 0x400001
    jmpi eax
    halt
"""


class TestStopPaths:
    def test_unmapped_virtual_pc_raises_rdr_error(self, monkeypatch):
        # 0x400001 is inside main's first instruction: no derand entry,
        # no randomized tag, no redirect.  The permissive entry policy
        # lets the jump land there, and the fetch finds no translation.
        monkeypatch.setattr(NaiveILRFlow, "strict_entry", False)
        program = randomize(assemble(WILD_JUMP), RandomizerConfig(seed=31))
        rdr = program.rdr
        assert 0x400001 not in rdr.derand
        assert 0x400001 not in rdr.randomized_tag
        assert 0x400001 not in rdr.redirect
        with pytest.raises(RDRError, match="0x400001"):
            ILREmulator(program).run()

    def test_budget_stop_returns_a_result(self, program):
        result = ILREmulator(program, max_instructions=100).run()
        assert result.run.exit_code is None
        assert result.run.halted is False
        assert result.run.icount == 100
