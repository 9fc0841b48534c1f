"""One spec life cycle: what inline and pooled sweeps must share.

Inline (``workers <= 1``) and pooled sweeps run the same life cycle in
:class:`~repro.harness.scheduler.AsyncScheduler` and differ only in how
one attempt runs.  These tests pin what that life cycle produces: the
event sequence of a sweep that exercises every branch of it (a cache
hit, a retry, a quarantine, a failed cache write and an emulation), the
``spec`` span enclosing its attempts and retry waits, and a store row's
``host_seconds`` counting the winning attempt only.
"""

from types import SimpleNamespace

import pytest

from repro.harness.faults import FaultPlan
from repro.harness.resultcache import ResultCache
from repro.harness.scheduler import AsyncScheduler
from repro.harness.spec import RunSpec
from repro.harness.sweep import RetryPolicy
from repro.obs.events import EventLog, MemorySink
from repro.obs.store import RunStore
from repro.obs.trace import Tracer

BUDGET = 2000

SPECS = [
    RunSpec("mcf", "baseline", max_instructions=BUDGET),
    RunSpec("mcf", "vcfr", drc_entries=64, max_instructions=BUDGET),
    RunSpec("bzip2", "naive_ilr", max_instructions=BUDGET),
    RunSpec("bzip2", "vcfr", drc_entries=128, max_instructions=BUDGET),
    RunSpec("mcf", "emulate", max_instructions=BUDGET),
]

#: mcf/baseline is served from the cache; mcf/vcfr@64 fails once;
#: bzip2/naive_ilr fails every attempt; bzip2/vcfr@128's commit fails.
PLAN = ("raise@mcf/vcfr@64#0,raise@bzip2/naive_ilr#0,"
        "raise@bzip2/naive_ilr#1,raise@bzip2/naive_ilr#2,"
        "cachefail@bzip2/vcfr@128#0")

RETRY = RetryPolicy(max_attempts=3, backoff=0.01)

#: The fields a record is compared by; the rest are timings or spec
#: fields already implied by the label.
PROJECTION = ("kind", "label", "phase", "attempt", "attempts", "cached",
              "reason", "message")


def _project(record):
    return tuple(record.get(name) for name in PROJECTION)


def _sweep(workers, tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    list(AsyncScheduler(cache=cache).stream(SPECS[:1]))
    sink = MemorySink()
    tracer = Tracer()
    with RunStore(str(tmp_path / "runs.sqlite")) as store:
        outcomes = list(AsyncScheduler(
            workers=workers, cache=cache, retry=RETRY,
            faults=FaultPlan.from_string(PLAN), events=EventLog(sink),
            tracer=tracer, store=store).stream(SPECS))
        _cols, rows = store.query(
            "SELECT workload, mode, drc_entries, status, attempts, cached, "
            "instructions, cycles FROM runs ORDER BY workload, mode, "
            "drc_entries")
    return SimpleNamespace(outcomes=outcomes, records=sink.records,
                           tracer=tracer, rows=rows)


@pytest.fixture(scope="module")
def inline_sweep(tmp_path_factory):
    return _sweep(0, tmp_path_factory.mktemp("inline"))


@pytest.fixture(scope="module")
def pooled_sweep(tmp_path_factory):
    return _sweep(2, tmp_path_factory.mktemp("pooled"))


#: Phases recorded only when a program is not yet in the executing
#: process's memo, which for a pool worker depends on placement.
BUILD_PHASES = [
    ("phase", None, "build", None, None, None, None, None),
    ("phase", None, "randomize", None, None, None, None, None),
]


def _run(main, attempt=None):
    """The records one executed run leaves after its program build."""
    return [
        ("run_start", None, None, attempt, None, None, None, None),
        ("run_end", None, None, attempt, None, None, None, None),
        ("phase", None, main, attempt, None, None, None, None),
    ]


#: Each label's own engine records, in order, on either path.
ENGINE = {
    "mcf/baseline": [
        ("status", "mcf/baseline", None, None, None, None, None,
         "run cached"),
        ("spec_done", "mcf/baseline", None, None, 0, True, None, None),
    ],
    "mcf/vcfr@64": [
        ("spec_dispatch", "mcf/vcfr@64", None, 0, None, None, None, None),
        ("run_retry", "mcf/vcfr@64", None, 1, None, None, "raise", None),
        ("spec_dispatch", "mcf/vcfr@64", None, 1, None, None, None, None),
        ("spec_done", "mcf/vcfr@64", None, None, 2, False, None, None),
    ],
    "bzip2/naive_ilr": [
        ("spec_dispatch", "bzip2/naive_ilr", None, 0, None, None, None,
         None),
        ("run_retry", "bzip2/naive_ilr", None, 1, None, None, "raise",
         None),
        ("spec_dispatch", "bzip2/naive_ilr", None, 1, None, None, None,
         None),
        ("run_retry", "bzip2/naive_ilr", None, 2, None, None, "raise",
         None),
        ("spec_dispatch", "bzip2/naive_ilr", None, 2, None, None, None,
         None),
        ("run_failed", "bzip2/naive_ilr", None, None, 3, None, "raise",
         None),
    ],
    "bzip2/vcfr@128": [
        ("spec_dispatch", "bzip2/vcfr@128", None, 0, None, None, None,
         None),
        ("status", "bzip2/vcfr@128", None, None, None, None, None,
         "cache write failed"),
        ("spec_done", "bzip2/vcfr@128", None, None, 1, False, None, None),
    ],
    "mcf/emulate": [
        ("spec_dispatch", "mcf/emulate", None, 0, None, None, None, None),
        ("spec_done", "mcf/emulate", None, None, 1, False, None, None),
    ],
}

#: Inline, runs emit live between their spec's dispatch and done, and
#: carry no attempt id; a scheduler without a program memo builds every
#: spec's program.
INLINE = (
    ENGINE["mcf/baseline"]
    + ENGINE["mcf/vcfr@64"][:3] + BUILD_PHASES + _run("simulate")
    + ENGINE["mcf/vcfr@64"][3:]
    + ENGINE["bzip2/naive_ilr"]
    + ENGINE["bzip2/vcfr@128"][:1] + BUILD_PHASES + _run("simulate")
    + ENGINE["bzip2/vcfr@128"][1:]
    + ENGINE["mcf/emulate"][:1] + BUILD_PHASES + _run("emulate")
    + ENGINE["mcf/emulate"][1:]
)

#: Pooled, each worker's records are replayed at emission, in input
#: order, stamped with the attempt id when it is not the first.
POOLED_REPLAYED = _run("simulate", 1) + _run("simulate") + _run("emulate")


class TestEventSequence:
    def test_inline_sweep_records_in_order(self, inline_sweep):
        assert [_project(r) for r in inline_sweep.records] == INLINE

    def test_pooled_sweep_records_per_label(self, pooled_sweep):
        engine = {}
        replayed = []
        for record in pooled_sweep.records:
            if "label" in record:
                engine.setdefault(record["label"], []).append(
                    _project(record))
            elif record.get("phase") not in ("build", "randomize"):
                replayed.append(_project(record))
        assert engine == ENGINE
        assert replayed == POOLED_REPLAYED

    def test_both_paths_agree(self, inline_sweep, pooled_sweep):
        assert inline_sweep.tracer.structure() == \
            pooled_sweep.tracer.structure()
        assert inline_sweep.rows == pooled_sweep.rows
        assert [(o.spec, o.ok, o.cached, o.attempts)
                for o in inline_sweep.outcomes] == \
            [(o.spec, o.ok, o.cached, o.attempts)
             for o in pooled_sweep.outcomes]


@pytest.mark.parametrize("sweep", ["inline_sweep", "pooled_sweep"])
def test_spec_spans_contain_their_attempts(sweep, request):
    """Every attempt and retry-wait span lies inside its ``spec`` span,
    also when the attempt ran in a pool worker."""
    spans = {s.span_id: s for s in request.getfixturevalue(sweep).tracer.spans}
    inner = [s for s in spans.values()
             if s.name in ("attempt", "retry-wait")]
    assert {s.name for s in inner} == {"attempt", "retry-wait"}
    for span in inner:
        parent = spans[span.parent_id]
        assert parent.name == "spec"
        assert parent.start <= span.start <= span.end <= parent.end, \
            (span.name, span.fields)


def test_host_seconds_is_the_winning_attempts_time(tmp_path):
    """A retried spec's row times the attempt that won, not the failed
    attempt or the back-off before the retry."""
    backoff = 2.0
    spec = RunSpec("mcf", "baseline", max_instructions=BUDGET)
    with RunStore(str(tmp_path / "runs.sqlite")) as store:
        (outcome,) = AsyncScheduler(
            retry=RetryPolicy(max_attempts=2, backoff=backoff),
            faults=FaultPlan.from_string("raise@mcf/baseline#0"),
            store=store).stream([spec])
        _cols, [(attempts, host_seconds)] = store.query(
            "SELECT attempts, host_seconds FROM runs")
    assert outcome.ok and attempts == 2
    assert 0 < host_seconds < backoff
