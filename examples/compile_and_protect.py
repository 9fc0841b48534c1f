"""Full pipeline from source code: compile, randomize, attack, simulate.

Writes a small program in MiniC (no assembly anywhere), compiles it with
the bundled compiler, randomizes the binary, proves equivalence, checks
the gadget surface before/after, and cycle-simulates all three modes —
the complete life of a protected binary.

Run: ``python examples/compile_and_protect.py``
"""

from repro.arch.cpu import simulate
from repro.cc import compile_source
from repro.ilr import RandomizerConfig, make_flow, randomize, verify_equivalence
from repro.security import scan_gadgets, survey_image

SOURCE = """
// A tiny request scorer: table-driven, loopy, call-heavy.
int weights[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
int history[16];
int cursor = 0;

int clamp(int x, int lo, int hi) {
    if (x < lo) { return lo; }
    if (x > hi) { return hi; }
    return x;
}

int score(int request) {
    int w = weights[request & 15];
    int s = w * clamp(request, 0, 100);
    history[cursor & 15] = s;
    cursor = cursor + 1;
    return s;
}

int main() {
    int total = 0;
    int r = 7;
    int i = 0;
    while (i < 200) {
        r = r * 1103 + 12345;        // request stream (LCG)
        total = total + score(r & 127);
        total = total & 0xFFFFFF;
        i = i + 1;
    }
    emit(total);
    return 0;
}
"""


def main():
    image = compile_source(SOURCE)
    print("compiled: %d bytes of RX86 code from %d lines of MiniC"
          % (image.code_size, SOURCE.count("\n")))

    program = randomize(image, RandomizerConfig(seed=1234))
    report = verify_equivalence(program)
    print("equivalence proven; program output: %s"
          % report.baseline.output.words)

    survey = survey_image(program.original, program.rdr)
    print("gadgets: %d before randomization, %d usable after (%.1f%% removed)"
          % (survey.total_before, survey.usable_after,
             survey.removal_percent))
    assert survey.usable_after < survey.total_before

    print("\ncycle simulation:")
    base_ipc = None
    for mode in ("baseline", "naive_ilr", "vcfr"):
        result = simulate(program.image_for(mode), make_flow(mode, program))
        if base_ipc is None:
            base_ipc = result.ipc
        print("  %-10s IPC %.3f (%.1f%% of baseline)"
              % (mode, result.ipc, 100 * result.ipc / base_ipc))

    gadget_texts = [g.text() for g in scan_gadgets(program.original)[:4]]
    print("\nsample gadgets the attacker loses access to:")
    for text in gadget_texts:
        print("  " + text)


if __name__ == "__main__":
    main()
