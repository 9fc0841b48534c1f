"""Fault-tolerance suite: the sweep's contract must hold under injected
faults.

The contract (ISSUE 4): a pooled sweep run under *any* recoverable
fault schedule produces results **byte-identical** (as serialized
``SimResult`` dicts) to a clean sequential sweep, in input order;
unrecoverable specs are quarantined as :class:`FailedRun` — reported,
never silently dropped — and never disturb their neighbours' results.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.harness.faults import (
    CRASH_EXIT_CODE,
    FaultPlan,
    InjectedFault,
    apply_inline_fault,
)
from repro.harness.resultcache import ResultCache
from repro.harness.session import ExperimentSession
from repro.harness.spec import RunSpec
from repro.harness.sweep import FAULT_COUNTS, FailedRunError, RetryPolicy
from repro.obs.events import EventLog, MemorySink

BUDGET = 3000
SPECS = [
    RunSpec("mcf", "baseline", max_instructions=BUDGET),
    RunSpec("mcf", "vcfr", drc_entries=64, max_instructions=BUDGET),
    RunSpec("bzip2", "naive_ilr", max_instructions=BUDGET),
    RunSpec("bzip2", "vcfr", drc_entries=128, max_instructions=BUDGET),
]

#: Fast backoff so the suite spends its time simulating, not sleeping.
RETRY = RetryPolicy(max_attempts=3, backoff=0.01)


def serialized(outcomes):
    """Canonical byte-comparable form of a sweep's merged results."""
    return [json.dumps(o.result.as_dict(), sort_keys=True)
            for o in outcomes]


@pytest.fixture(scope="module")
def clean_reference():
    """The clean sequential sweep every fault schedule must reproduce."""
    return serialized(ExperimentSession().sweep(SPECS))


# -- plan parsing and determinism -------------------------------------------


class TestFaultPlan:
    def test_schedule_parsing(self):
        plan = FaultPlan.from_string(
            "crash@mcf/baseline#0,corrupt@*#1,hang@bzip2/vcfr@128"
        )
        assert plan.schedule == (
            ("crash", "mcf/baseline", 0),
            ("corrupt", "*", 1),
            ("hang", "bzip2/vcfr@128", 0),  # labels may contain '@'
        )
        assert plan.action("mcf/baseline", 0) == "crash"
        assert plan.action("anything", 1) == "corrupt"
        assert plan.action("bzip2/vcfr@128", 0) == "hang"
        assert plan.action("mcf/baseline", 2) is None

    def test_rate_seed_and_hang_parsing(self):
        plan = FaultPlan.from_string("raise:0.25,seed=7,hang=0.5")
        assert plan.rates == (("raise", 0.25),)
        assert plan.seed == 7
        assert plan.hang_seconds == 0.5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_string("explode@mcf/baseline#0")
        with pytest.raises(ValueError):
            FaultPlan.from_string("garbage")

    def test_rate_draws_are_deterministic_and_seed_sensitive(self):
        a = FaultPlan(rates=(("crash", 0.5),), seed=1)
        b = FaultPlan(rates=(("crash", 0.5),), seed=1)
        c = FaultPlan(rates=(("crash", 0.5),), seed=2)
        labels = [s.label() for s in SPECS]
        decisions_a = [a.action(lbl, n) for lbl in labels for n in range(3)]
        assert decisions_a == [
            b.action(lbl, n) for lbl in labels for n in range(3)
        ]
        assert decisions_a != [
            c.action(lbl, n) for lbl in labels for n in range(3)
        ]
        # Rates really are rates: both outcomes occur at p=0.5.
        assert "crash" in decisions_a and None in decisions_a

    def test_cachefail_is_parent_side_only(self):
        plan = FaultPlan.from_string("cachefail@mcf/baseline#0")
        assert plan.action("mcf/baseline", 0) is None
        assert plan.cache_write_fails("mcf/baseline")
        assert not plan.cache_write_fails("mcf/vcfr@64")

    def test_plans_cross_the_pool_boundary(self):
        import pickle

        plan = FaultPlan.from_string("crash:0.1,seed=3")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        fault = pickle.loads(pickle.dumps(InjectedFault("raise", "x/y", 2)))
        assert (fault.kind, fault.label, fault.attempt) == ("raise", "x/y", 2)

    def test_inline_faults_never_hard_kill(self):
        plan = FaultPlan.from_string("crash@x#0,corrupt@x#1")
        for attempt in (0, 1):
            with pytest.raises(InjectedFault):
                apply_inline_fault(plan, "x", attempt)
        assert apply_inline_fault(plan, "x", 2) is None


# -- the differential contract ----------------------------------------------


@pytest.mark.faults
class TestFaultDifferential:
    """Recovered sweeps must be byte-identical to the clean sequential."""

    @pytest.mark.parametrize("plan_text", [
        "crash@mcf/vcfr@64#0",
        "raise@mcf/baseline#0,raise@bzip2/vcfr@128#0",
        "corrupt@bzip2/naive_ilr#0",
        "crash@mcf/baseline#0,raise@mcf/vcfr@64#0,corrupt@bzip2/vcfr@128#0",
        "raise@*#0",  # every spec's first attempt fails
    ], ids=["crash", "raise", "corrupt", "mixed", "all-first-attempts"])
    def test_recovered_pooled_sweep_is_bit_identical(
            self, plan_text, clean_reference):
        plan = FaultPlan.from_string(plan_text)
        outcomes = ExperimentSession(workers=2, retry=RETRY,
                                     faults=plan).sweep(SPECS)
        assert all(o.ok for o in outcomes)
        assert serialized(outcomes) == clean_reference
        assert any(o.attempts > 1 for o in outcomes)

    def test_inline_sweep_recovers_identically(self, clean_reference):
        plan = FaultPlan.from_string("raise@mcf/baseline#0,raise@mcf/baseline#1")
        outcomes = ExperimentSession(retry=RETRY, faults=plan).sweep(SPECS)
        assert all(o.ok for o in outcomes)
        assert serialized(outcomes) == clean_reference
        assert outcomes[0].attempts == 3

    def test_poisoned_spec_is_quarantined_not_dropped(self, clean_reference):
        # Crashes on every attempt: unrecoverable by construction.
        plan = FaultPlan.from_string(
            "crash@mcf/baseline#0,crash@mcf/baseline#1,crash@mcf/baseline#2"
        )
        FAULT_COUNTS.clear()
        outcomes = ExperimentSession(workers=2, retry=RETRY,
                                     faults=plan).sweep(SPECS)
        assert len(outcomes) == len(SPECS)  # reported, never dropped
        failed = outcomes[0]
        assert not failed.ok and failed.result is None
        assert failed.failure.kind == "crash"
        assert failed.failure.attempts == RETRY.max_attempts
        assert failed.failure.spec == SPECS[0].normalized()
        # The poisoned spec's neighbours are collateral of the pool
        # breaking, yet their results must be untouched.
        assert all(o.ok for o in outcomes[1:])
        assert serialized(outcomes[1:]) == clean_reference[1:]
        assert FAULT_COUNTS["sweep.quarantined"] == 1
        assert FAULT_COUNTS["sweep.pool_rebuilds"] >= 1

    def test_inline_quarantine_raises_only_on_demand(self):
        plan = FaultPlan.from_string("raise@mcf/baseline#0,raise@mcf/baseline#1,"
                                     "raise@mcf/baseline#2")
        outcomes = ExperimentSession(retry=RETRY,
                                     faults=plan).sweep(SPECS[:2])
        assert not outcomes[0].ok and outcomes[0].failure.kind == "raise"
        assert outcomes[1].ok
        # run() surfaces quarantine as a typed error.
        session = ExperimentSession(max_instructions=BUDGET, retry=RETRY,
                                    faults=plan)
        with pytest.raises(FailedRunError) as err:
            session.run(SPECS[0])
        assert err.value.failure.kind == "raise"

    def test_timeout_abandons_hung_attempt(self, clean_reference):
        plan = FaultPlan.from_string("hang@mcf/baseline#0,hang=5")
        FAULT_COUNTS.clear()
        outcomes = ExperimentSession(
            workers=2,
            retry=RetryPolicy(max_attempts=3, timeout=1.0, backoff=0.01),
            faults=plan,
        ).sweep(SPECS)
        assert all(o.ok for o in outcomes)
        assert serialized(outcomes) == clean_reference
        assert outcomes[0].attempts == 2
        assert FAULT_COUNTS["sweep.timeouts"] == 1

    def test_emulation_results_survive_the_integrity_check(self):
        # EmulationResult has no as_dict(): its digest is over the
        # observable fields.  A clean pooled run must not be rejected
        # as corrupt, and a corrupted one must be retried.
        specs = [RunSpec("mcf", "emulate", max_instructions=BUDGET)]
        ref = ExperimentSession().sweep(specs)[0].result
        plan = FaultPlan.from_string("corrupt@mcf/emulate#0")
        FAULT_COUNTS.clear()
        outcome = ExperimentSession(workers=2, retry=RETRY,
                                    faults=plan).sweep(specs)[0]
        assert outcome.ok and outcome.attempts == 2
        assert outcome.result.run.snapshot() == ref.run.snapshot()
        assert outcome.result.host_instructions == ref.host_instructions
        assert FAULT_COUNTS["sweep.corrupt_results"] == 1


# -- resumability ------------------------------------------------------------


@pytest.mark.faults
class TestResumability:
    def test_results_commit_as_they_finish(self, tmp_path, clean_reference):
        cache = ResultCache(str(tmp_path))
        outcomes = ExperimentSession(workers=2, cache=cache,
                                     retry=RETRY).sweep(SPECS)
        assert cache.writes == len(SPECS)
        # A fresh sweep over the same cache re-executes nothing.
        warm = ResultCache(str(tmp_path))
        rerun = ExperimentSession(cache=warm).sweep(SPECS)
        assert all(o.cached for o in rerun)
        assert serialized(rerun) == serialized(outcomes) == clean_reference

    def test_cache_write_failure_is_nonfatal(self, tmp_path,
                                             clean_reference):
        plan = FaultPlan.from_string("cachefail@mcf/baseline#0")
        cache = ResultCache(str(tmp_path))
        sink = MemorySink()
        FAULT_COUNTS.clear()
        outcomes = ExperimentSession(
            workers=2, cache=cache, retry=RETRY, faults=plan,
            events=EventLog(sink)).sweep(SPECS)
        assert serialized(outcomes) == clean_reference  # result kept
        assert cache.writes == len(SPECS) - 1
        assert FAULT_COUNTS["sweep.cache_write_errors"] == 1
        assert any(r["kind"] == "status" and "cache write failed"
                   in r.get("message", "") for r in sink.records)
        # Resume recomputes only the uncommitted spec.
        warm = ResultCache(str(tmp_path))
        rerun = ExperimentSession(cache=warm).sweep(SPECS)
        assert [o.cached for o in rerun] == [False, True, True, True]
        assert serialized(rerun) == clean_reference


# -- idempotent observability ------------------------------------------------


@pytest.mark.faults
class TestIdempotentObservability:
    def test_retried_specs_merge_observability_exactly_once(
            self, clean_reference):
        sink = MemorySink()
        plan = FaultPlan.from_string("raise@mcf/baseline#0,"
                                     "crash@bzip2/naive_ilr#0")
        outcomes = ExperimentSession(
            workers=2, retry=RETRY, faults=plan,
            events=EventLog(sink)).sweep(SPECS)
        assert serialized(outcomes) == clean_reference

        # Exactly one run_start/run_end pair per spec, in input order,
        # no matter how many attempts it took.
        for kind in ("run_start", "run_end"):
            records = [r for r in sink.records if r["kind"] == kind]
            assert [(r["workload"], r["mode"]) for r in records] == [
                (s.workload, s.mode) for s in SPECS
            ]
        # Phase records likewise arrive once per spec.
        assert len([r for r in sink.records if r["kind"] == "phase"
                    and r["phase"] == "simulate"]) == len(SPECS)

    def test_replayed_records_carry_their_attempt_id(self):
        sink = MemorySink()
        plan = FaultPlan.from_string("raise@mcf/baseline#0")
        outcomes = ExperimentSession(
            workers=2, retry=RETRY, faults=plan,
            events=EventLog(sink)).sweep(SPECS[:1])
        assert outcomes[0].attempts == 2
        replayed = [r for r in sink.records
                    if r["kind"] in ("run_start", "run_end")]
        assert replayed and all(r["attempt"] == 1 for r in replayed)
        retries = [r for r in sink.records if r["kind"] == "run_retry"]
        assert len(retries) == 1 and retries[0]["reason"] == "raise"


# -- kill -9 and resume (the acceptance scenario) ----------------------------


_RESUME_SCRIPT = r"""
import json, sys
from repro.harness.resultcache import ResultCache
from repro.harness.session import ExperimentSession
from repro.harness.spec import RunSpec

root, budget = sys.argv[1], int(sys.argv[2])
specs = [
    RunSpec("mcf", "baseline", max_instructions=budget),
    RunSpec("mcf", "vcfr", drc_entries=64, max_instructions=budget),
    RunSpec("bzip2", "naive_ilr", max_instructions=budget),
    RunSpec("bzip2", "vcfr", drc_entries=128, max_instructions=budget),
    RunSpec("gcc", "baseline", max_instructions=budget),
    RunSpec("gcc", "vcfr", drc_entries=512, max_instructions=budget),
]
outcomes = ExperimentSession(workers=2, cache=ResultCache(root)).sweep(specs)
print(json.dumps({
    "cached": [o.cached for o in outcomes],
    "results": [json.dumps(o.result.as_dict(), sort_keys=True)
                for o in outcomes],
}))
"""


def _live_group_members(pgid):
    """PIDs in process group ``pgid`` that are still running.  Zombies
    do not count: a killed worker whose parent died first waits for
    init to reap it, and some init processes never do."""
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as fh:
                # "pid (comm) state ppid pgrp ..."; comm may hold spaces
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[2]) == pgid and fields[0] != "Z":
            live.append(int(entry))
    return live


@pytest.mark.slow
@pytest.mark.faults
def test_sigkilled_sweep_resumes_from_committed_results(tmp_path):
    """Kill a sweep mid-run with SIGKILL; the same command finishes the
    remaining specs and the merged results match a clean run exactly."""
    budget = 30_000
    root = str(tmp_path / "cache")
    env = dict(os.environ, PYTHONPATH="src")
    cmd = [sys.executable, "-c", _RESUME_SCRIPT, root, str(budget)]

    # Its own session, so one killpg reaches the pool workers too.
    victim = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              start_new_session=True)
    # Wait for at least one committed entry, then kill -9 the sweep.
    deadline = time.time() + 120
    def entries():
        return [f for _d, _s, files in os.walk(root) for f in files
                if not f.startswith(".tmp-")]
    while time.time() < deadline and victim.poll() is None and not entries():
        time.sleep(0.02)
    os.killpg(victim.pid, signal.SIGKILL)
    victim.wait()
    deadline = time.time() + 30
    while _live_group_members(victim.pid) and time.time() < deadline:
        time.sleep(0.05)
    assert not _live_group_members(victim.pid)
    committed = len(entries())
    assert committed >= 1, "sweep was killed before any result committed"

    # Same command again: completes, serving the committed prefix from
    # the cache.
    out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    resumed = json.loads(out.stdout)
    if committed < 6:  # the victim might have finished everything
        assert any(resumed["cached"]), resumed["cached"]

    # And the resumed results are bit-identical to a clean sequential run.
    specs = [
        RunSpec("mcf", "baseline", max_instructions=budget),
        RunSpec("mcf", "vcfr", drc_entries=64, max_instructions=budget),
        RunSpec("bzip2", "naive_ilr", max_instructions=budget),
        RunSpec("bzip2", "vcfr", drc_entries=128, max_instructions=budget),
        RunSpec("gcc", "baseline", max_instructions=budget),
        RunSpec("gcc", "vcfr", drc_entries=512, max_instructions=budget),
    ]
    clean = serialized(ExperimentSession().sweep(specs))
    assert resumed["results"] == clean


@pytest.mark.faults
def test_injected_crash_exits_with_the_crash_code(tmp_path):
    """The single-run CLI surfaces injected faults as non-zero exits."""
    from repro.workloads import build_image

    path = str(tmp_path / "w.rxbf")
    with open(path, "wb") as fh:
        fh.write(build_image("mcf", scale=1.0).to_bytes())
    env = dict(os.environ, PYTHONPATH="src")
    out = subprocess.run(
        [sys.executable, "-m", "repro.tools.run", path,
         "--inject-faults", "raise@w/baseline#0",
         "--max-instructions", "3000"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 75
    assert "INJECTED FAULT" in out.stderr
    assert CRASH_EXIT_CODE == 87  # the worker-kill status stays documented


@pytest.mark.faults
@pytest.mark.parametrize("extra, faults, line", [
    ([], "raise@h264ref/baseline#0,cachefail@h264ref/vcfr@128#0",
     "(sweep fault handling: cache_write_errors=1, retries=1)"),
    (["--workers", "2"], "corrupt@h264ref/vcfr@128#0",
     "(sweep fault handling: corrupt_results=1, retries=1)"),
], ids=["inline", "pooled"])
def test_harness_prints_the_fault_line(tmp_path, extra, faults, line):
    """The harness ends with one stderr line of fault counts.  Run as a
    subprocess: the counts are process-global, so an in-process main()
    would also see what earlier tests left."""
    env = dict(os.environ, PYTHONPATH="src")
    out = subprocess.run(
        [sys.executable, "-m", "repro.harness", "table1", "--scale", "0.3",
         "--max-instructions", "20000", "--inject-faults", faults,
         "--cache-dir", str(tmp_path)] + extra,
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert line in out.stderr.splitlines()
