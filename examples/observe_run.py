"""Watch a simulation live: IPC-over-time checkpoints, vcfr vs naive ILR.

Runs one workload under both hardware-ILR designs with periodic progress
checkpoints logged into memory, then renders each run's instantaneous-IPC
series, read back from the event log, as a sparkline.  This is the Fig. 12 recovery story observed *during* the
run instead of read off a summary number: naive ILR scatters the code and
flatlines low, VCFR warms its De-Randomization Cache and climbs back
toward baseline throughput.

Run:
    PYTHONPATH=src python examples/observe_run.py
"""

from repro.arch.cpu import simulate
from repro.ilr import RandomizerConfig, make_flow, randomize
from repro.obs import sparkline
from repro.obs.events import EventLog, MemorySink
from repro.workloads import build_image

WORKLOAD = "gcc"
SCALE = 0.4
MAX_INSTRUCTIONS = 40_000
CHECKPOINT_INTERVAL = 2_000


def main():
    image = build_image(WORKLOAD, scale=SCALE)
    program = randomize(image, RandomizerConfig(seed=7))
    sink = MemorySink()
    events = EventLog(sink)

    results = {}
    for mode, sim_image in (
        ("naive_ilr", program.naive_image),
        ("vcfr", program.vcfr_image),
    ):
        results[mode] = simulate(
            sim_image,
            make_flow(mode, program),
            events=events,
            checkpoint_interval=CHECKPOINT_INTERVAL,
            max_instructions=MAX_INSTRUCTIONS,
            event_fields={"workload": WORKLOAD},
        )

    print("workload %s, checkpoint every %d instructions"
          % (WORKLOAD, CHECKPOINT_INTERVAL))
    for mode, result in results.items():
        series = [r["ipc"] for r in sink.records
                  if r["kind"] == "checkpoint" and r["mode"] == mode]
        print("  %-9s  ipc %.3f  %s  (%.3f -> %.3f over %d checkpoints)"
              % (mode, result.ipc, sparkline(series),
                 series[0], series[-1], len(series)))

    ratio = results["vcfr"].ipc / results["naive_ilr"].ipc
    print("vcfr runs %.2fx faster than naive ILR on this workload" % ratio)
    # A FileSink instead of the MemorySink would have written the same
    # records as a JSONL file ready for `python -m repro.tools.stats`.
    print("event log captured %d records" % len(sink.records))


if __name__ == "__main__":
    main()
