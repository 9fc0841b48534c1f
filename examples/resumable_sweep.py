"""Fault-tolerant, resumable sweep: survive crashes, pick up where you died.

Demonstrates the sweep engine's fault-tolerance layer end to end:

1. a sweep run under an injected-fault plan (a worker crash and a
   software failure on deterministic attempts) recovers by retrying and
   still produces results **bit-identical** to a clean run;
2. results commit to the on-disk result cache *as they finish*, so a
   sweep killed partway through — simulated here by running it with a
   fault plan that quarantines one spec — resumes from the committed
   work instead of starting over: rerunning the same sweep serves the
   finished specs from the cache and only executes what is missing.

This is the library-level version of::

    python -m repro.harness --workers 2 --cache-dir .repro-cache \
        --inject-faults 'crash@mcf/vcfr@64#0' --retry-attempts 3

Run:
    PYTHONPATH=src python examples/resumable_sweep.py
"""

import json
import shutil
import tempfile

from repro.harness import ExperimentSession, FaultPlan, RetryPolicy
from repro.harness.resultcache import ResultCache
from repro.harness.spec import RunSpec
from repro.harness.sweep import FAULT_COUNTS

MAX_INSTRUCTIONS = 20_000
SPECS = [
    RunSpec("mcf", "baseline", max_instructions=MAX_INSTRUCTIONS),
    RunSpec("mcf", "vcfr", drc_entries=64, max_instructions=MAX_INSTRUCTIONS),
    RunSpec("bzip2", "naive_ilr", max_instructions=MAX_INSTRUCTIONS),
    RunSpec("bzip2", "vcfr", drc_entries=128,
            max_instructions=MAX_INSTRUCTIONS),
]
RETRY = RetryPolicy(max_attempts=3, backoff=0.01)


def fingerprints(outcomes):
    return [json.dumps(o.result.as_dict(), sort_keys=True)
            for o in outcomes if o.ok]


def main():
    clean = ExperimentSession().sweep(SPECS)
    print("clean sequential sweep: %d specs" % len(SPECS))

    # 1. A worker crash + a software failure, recovered transparently.
    FAULT_COUNTS.clear()
    plan = FaultPlan.from_string(
        "crash@mcf/vcfr@64#0,raise@bzip2/naive_ilr#0"
    )
    recovered = ExperimentSession(workers=2, retry=RETRY,
                                  faults=plan).sweep(SPECS)
    print("\nfaulted sweep (worker crash + task failure):")
    for outcome in recovered:
        print("  %-18s %d attempt(s)"
              % (outcome.spec.label(), outcome.attempts))
    print("  bit-identical to clean run: %s"
          % (fingerprints(recovered) == fingerprints(clean)))
    print("  fault handling: %s" % ", ".join(
        "%s=%d" % (name.split(".", 1)[1], value)
        for name, value in sorted(FAULT_COUNTS.items())
    ))

    # 2. Commit-as-you-go resumability: a sweep that loses one spec
    #    (quarantined after every attempt crashed) still commits the
    #    other three; rerunning the same sweep resumes from the cache.
    cache_dir = tempfile.mkdtemp(prefix="resumable-sweep-")
    try:
        poison = FaultPlan.from_string(
            "crash@mcf/baseline#0,crash@mcf/baseline#1,crash@mcf/baseline#2"
        )
        first = ExperimentSession(workers=2, cache=ResultCache(cache_dir),
                                  retry=RETRY, faults=poison).sweep(SPECS)
        lost = [o.spec.label() for o in first if not o.ok]
        print("\ninterrupted sweep: quarantined %s, committed %d results"
              % (", ".join(lost), sum(1 for o in first if o.ok)))

        resumed_cache = ResultCache(cache_dir)
        resumed = ExperimentSession(workers=2,
                                    cache=resumed_cache).sweep(SPECS)
        print("resumed sweep:     %d served from cache, %d executed"
              % (sum(1 for o in resumed if o.cached),
                 sum(1 for o in resumed if not o.cached)))
        print("resumed results bit-identical to clean run: %s"
              % (fingerprints(resumed) == fingerprints(clean)))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
