"""Span tracing: deterministic IDs, tree structure, sweep parity.

The tracer's design invariant is that a span tree is a pure function of
*what ran*, not of scheduling: the same RunSpec list produces a
byte-identical ``Tracer.structure()`` whether the sweep is sequential
or pooled, on any number of workers.  That invariant is what makes
trace diffs meaningful ("this run did different work") and is asserted
end-to-end here.
"""

import json
from dataclasses import replace

import pytest

from repro.arch.config import default_config
from repro.arch.cpu import CycleCPU
from repro.harness import ExperimentSession, RunSpec
from repro.harness.sweep import _spec_key
from repro.ilr import RandomizerConfig, make_flow, randomize, rerandomize
from repro.ilr.rerandomize import apply_rerandomization
from repro.isa.assembler import assemble
from repro.obs.trace import (
    NULL_TRACER,
    Span,
    TickClock,
    Tracer,
    rollup_spans,
    span_id_for_key,
)

BUDGET = 3000

SPECS = [
    RunSpec("mcf", "baseline", max_instructions=BUDGET),
    RunSpec("mcf", "vcfr", 64, max_instructions=BUDGET),
    RunSpec("bzip2", "naive_ilr", max_instructions=BUDGET),
]


class TestTracerBasics:
    def test_tick_clock_counts(self):
        clock = TickClock(step=0.5)
        assert clock() == 0.0
        assert clock() == 0.5
        assert clock() == 1.0

    def test_span_ids_are_content_derived(self):
        assert span_id_for_key("k") == span_id_for_key("k")
        assert span_id_for_key("k") != span_id_for_key("j")
        assert len(span_id_for_key("k")) == 16

    def test_nested_spans_record_parentage(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.end >= inner.start

    def test_same_work_same_ids_across_tracers(self):
        def run(tracer):
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
                with tracer.span("b"):  # second occurrence, distinct id
                    pass
            return tracer.export()

        first = run(Tracer(clock=TickClock()))
        second = run(Tracer(clock=TickClock()))
        assert [s["id"] for s in first] == [s["id"] for s in second]
        ids = {s["id"] for s in first}
        assert len(ids) == 3

    def test_disabled_tracer_records_nothing(self):
        with NULL_TRACER.span("anything", field=1) as span:
            assert span is None
        assert NULL_TRACER.export() == []

    def test_span_round_trips_through_dict(self):
        span = Span("work", "abc", "def", 1.0, 2.5, {"k": "v"})
        assert Span.from_dict(span.as_dict()).as_dict() == span.as_dict()
        assert span.seconds == pytest.approx(1.5)

    def test_add_span_backdates_timed_work(self):
        tracer = Tracer(clock=TickClock(step=1.0))
        tracer.add_span("wait", 0.25, span_key="w")
        (record,) = tracer.export()
        assert record["t1"] - record["t0"] == pytest.approx(0.25)

    def test_adopt_reparents_roots_only(self):
        worker = Tracer(clock=TickClock())
        with worker.span("attempt", span_key="att"):
            with worker.span("emulate"):
                pass
        parent = Tracer(clock=TickClock())
        parent.adopt(worker.export(), parent_id="feedbeef00000000")
        roots = [s for s in parent.export() if s["name"] == "attempt"]
        children = [s for s in parent.export() if s["name"] == "emulate"]
        assert roots[0]["parent"] == "feedbeef00000000"
        # The nested span keeps its original parent (the attempt span).
        assert children[0]["parent"] == roots[0]["id"]

    def test_structure_drops_timing(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("a", detail=7):
            pass
        (node,) = tracer.structure()
        assert node["name"] == "a"
        assert node["fields"] == {"detail": 7}
        assert "t0" not in node and "t1" not in node

    def test_subtree_exports_descendants(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("root", span_key="r"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
        with tracer.span("sibling"):
            pass
        names = {s["name"]
                 for s in tracer.subtree(span_id_for_key("r"))}
        assert names == {"root", "child", "grandchild"}

    def test_rollup_aggregates_by_name(self):
        tracer = Tracer(clock=TickClock(step=1.0))
        with tracer.span("build"):
            pass
        with tracer.span("build"):
            pass
        with tracer.span("simulate"):
            pass
        rollup = rollup_spans(tracer.export())
        assert rollup["build"]["calls"] == 2
        assert rollup["simulate"]["calls"] == 1
        assert rollup["build"]["seconds"] == pytest.approx(2.0)

    def test_chrome_export_is_loadable(self, tmp_path):
        tracer = Tracer(clock=TickClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        path = tmp_path / "trace.json"
        assert tracer.to_chrome(str(path)) == 2
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert {e["name"] for e in events} == {"outer", "inner"}
        assert all(e["ph"] == "X" for e in events)


class TestSweepTraceDeterminism:
    def _structure(self, workers):
        tracer = Tracer(clock=TickClock())
        ExperimentSession(workers=workers, tracer=tracer).sweep(SPECS)
        return tracer.structure()

    def test_sequential_tree_is_reproducible(self):
        first = self._structure(0)
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(self._structure(0), sort_keys=True)

    def test_parallel_tree_matches_sequential(self):
        sequential = self._structure(0)
        pooled = self._structure(2)
        assert json.dumps(sequential, sort_keys=True) == \
            json.dumps(pooled, sort_keys=True)

    def test_tree_shape(self):
        (root,) = self._structure(0)
        assert root["name"] == "sweep"
        assert root["fields"] == {"specs": len(SPECS)}
        spec_nodes = root["children"]
        assert [n["name"] for n in spec_nodes] == ["spec"] * len(SPECS)
        assert [n["fields"]["label"] for n in spec_nodes] == \
            [s.normalized().label() for s in SPECS]
        for spec, node in zip(SPECS, spec_nodes):
            (attempt,) = node["children"]
            assert attempt["name"] == "attempt"
            assert attempt["id"] == span_id_for_key(
                _spec_key(spec.normalized()) + "#0"
            )
            phases = [c["name"] for c in attempt["children"]]
            assert phases[:2] == ["build", "randomize"]
            assert phases[-1] in ("simulate", "emulate")

    def test_memoized_second_spec_still_traced(self):
        # Two specs sharing one randomized program: the second's build
        # is a memo hit, but its spec subtree must look identical in
        # *structure* to a cold build, or pooled placement (which moves
        # memo residency across workers) would change the tree.
        tracer = Tracer(clock=TickClock())
        specs = [
            RunSpec("mcf", "baseline", max_instructions=BUDGET),
            RunSpec("mcf", "naive_ilr", max_instructions=BUDGET),
        ]
        ExperimentSession(tracer=tracer).sweep(specs)
        (root,) = tracer.structure()
        for node in root["children"]:
            (attempt,) = node["children"]
            assert [c["name"] for c in attempt["children"]] == \
                ["build", "randomize", "simulate"]


REBUG = """
.code 0x400000
main:
    nop
    nop
    movi ebx, 0
    movi eax, 1
    int 0x80
.data 0x8000000
pad:
    .space 4
"""


class TestRerandomizeEpochSpan:
    def test_rotation_emits_epoch_span(self):
        program = randomize(assemble(REBUG), RandomizerConfig(seed=5))
        cpu = CycleCPU(program.vcfr_image, make_flow("vcfr", program),
                       default_config())
        cpu.run_slice(2)
        fresh = rerandomize(program, new_seed=99)
        tracer = Tracer(clock=TickClock())
        apply_rerandomization(cpu, fresh, tracer=tracer)
        (record,) = tracer.export()
        assert record["name"] == "rerandomize-epoch"
        assert record["fields"] == {"seed": 99}

    def test_rotation_without_tracer_unchanged(self):
        program = randomize(assemble(REBUG), RandomizerConfig(seed=5))
        cpu = CycleCPU(program.vcfr_image, make_flow("vcfr", program),
                       default_config())
        cpu.run_slice(2)
        apply_rerandomization(cpu, rerandomize(program, new_seed=99))
        assert cpu.run_slice(10_000)
