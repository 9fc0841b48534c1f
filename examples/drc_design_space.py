"""DRC design-space exploration on a SPEC-like workload.

Sweeps the De-Randomization Cache size (16 to 1024 entries) on the xalan
stand-in — the workload with the largest translation working set — and
reports the Fig. 13/14 trade-off: miss rate and normalized IPC versus
silicon budget.  Also contrasts the paper's §IV-C architectural return-
address policy against the conservative software-only policy.

Run: ``python examples/drc_design_space.py``
"""

from repro.arch.config import default_config
from repro.arch.cpu import simulate
from repro.ilr import RandomizerConfig, make_flow, randomize
from repro.workloads import build_image

SIZES = (16, 32, 64, 128, 256, 512, 1024)
BUDGET = 200_000


def sweep(program, baseline_ipc):
    print("  %8s  %10s  %12s  %10s" % ("entries", "miss rate", "IPC", "vs base"))
    for entries in SIZES:
        config = default_config().with_overrides([("drc.entries", entries)])
        result = simulate(
            program.vcfr_image, make_flow("vcfr", program), config,
            max_instructions=BUDGET,
        )
        print("  %8d  %9.2f%%  %12.4f  %9.1f%%"
              % (entries, 100 * result.drc_miss_rate, result.ipc,
                 100 * result.ipc / baseline_ipc))


def main():
    image = build_image("xalan")
    print("workload: xalan stand-in (%d bytes of code)" % image.code_size)

    for conservative in (False, True):
        policy = "conservative (software-only)" if conservative else (
            "architectural (§IV-C, default)"
        )
        program = randomize(
            image, RandomizerConfig(seed=9, conservative_retaddr=conservative)
        )
        base = simulate(
            program.original, make_flow("baseline", program),
            max_instructions=BUDGET,
        )
        print("\nreturn-address policy: %s" % policy)
        print("  randomized return addresses: %d   failover redirects: %d"
              % (program.stats.num_ret_randomized, program.stats.num_redirects))
        sweep(program, base.ipc)


if __name__ == "__main__":
    main()
