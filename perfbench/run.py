"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload sim_hot --seed 42 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run (and a Chrome trace in ``perfbench/out/``).
Lines before it show each metric beside its raw host reading and the
calibration it was rescaled by.  Failed operations are listed on
standard error.

``--record-golden`` rewrites ``perfbench/golden.json`` for the workload
from a run at the default seed instead of checking against it.

The program under test is imported from ``src/`` of the checkout; the
benchmark exits non-zero without a result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print("perfbench: no program source under %s" % SOURCE,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(bench.WORKLOADS)))
    if args.record_golden and args.seed != bench.DEFAULT_SEED:
        parser.error("--record-golden needs the default seed %d"
                     % bench.DEFAULT_SEED)
    golden = None
    if args.seed == bench.DEFAULT_SEED and not args.record_golden:
        golden = bench.load_golden(args.workload)
        if golden is None:
            print("perfbench: no golden digests for %s" % args.workload,
                  file=sys.stderr)
            return 2

    result, report, ledger = bench.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), golden)

    if args.record_golden:
        bench.save_golden(args.workload, ledger.digests)
    if report.tracer is not None:
        os.makedirs(bench.OUT_DIR, exist_ok=True)
        path = os.path.join(bench.OUT_DIR, "trace-%s-seed%d.json"
                            % (args.workload, args.seed))
        spans = report.tracer.write_chrome(path)
        print("chrome trace: %s (%d spans)" % (path, spans))
    for failure in ledger.failures:
        print("FAILED %s" % failure, file=sys.stderr)
    for line in bench.describe(report):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
