"""Property tests: serialization round-trips are identities.

The oracle's ``roundtrip:`` invariant — ``from_dict(json(as_dict()))``
reproduces ``as_dict`` bit-identically — is checked here over
hypothesis-generated values rather than the handful of engine-produced
results the differential fuzzer happens to exercise.  Full-precision
floats matter: a serialization that rounds a rate breaks the sweep
engine's cached-vs-fresh bit-identity contract.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.simstats import SimResult
from repro.emu.hostcost import HostCostCounters
from repro.emu.vm import EmulationResult, RunResult
from repro.isa.syscalls import OutputStream

rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
counts = st.integers(min_value=0, max_value=2**40)
cache_dicts = st.fixed_dictionaries(
    {"accesses": counts, "misses": counts, "hits": counts}
)


def roundtrip(value):
    """One JSON round-trip through the type's own from_dict."""
    return type(value).from_dict(json.loads(json.dumps(value.as_dict())))


@settings(max_examples=100, deadline=None)
@given(
    st.builds(
        SimResult,
        mode=st.sampled_from(["baseline", "naive_ilr", "vcfr"]),
        cycles=counts,
        instructions=counts,
        warmup_instructions=counts,
        exit_code=st.one_of(st.none(), st.integers(0, 255)),
        finished=st.booleans(),
        output=st.builds(
            OutputStream,
            chars=st.binary(max_size=32).map(bytearray),
            words=st.lists(st.integers(0, 2**32 - 1), max_size=8),
        ),
        il1=cache_dicts,
        dl1=cache_dicts,
        l2=cache_dicts,
        itlb_misses=counts,
        dtlb_misses=counts,
        dram_accesses=counts,
        dram_row_hit_rate=rates,
        cond_branches=counts,
        cond_mispredicts=counts,
        drc_lookups=counts,
        drc_misses=counts,
        drc_bitmap_probes=counts,
    )
)
def test_simresult_roundtrip_is_identity(result):
    assert roundtrip(result).as_dict() == result.as_dict()


@settings(max_examples=100, deadline=None)
@given(
    exit_code=st.one_of(st.none(), st.integers(0, 255)),
    icount=counts,
    halted=st.booleans(),
    chars=st.binary(max_size=32),
    words=st.lists(st.integers(0, 2**32 - 1), max_size=8),
    host_instructions=counts,
    by_activity=st.dictionaries(
        st.sampled_from(["fetch", "decode", "dispatch", "alu", "memory",
                         "branch", "syscall"]),
        counts, max_size=7,
    ),
)
def test_emulationresult_roundtrip_is_identity(
    exit_code, icount, halted, chars, words, host_instructions,
    by_activity,
):
    result = EmulationResult(
        run=RunResult(
            exit_code=exit_code,
            icount=icount,
            output=OutputStream(chars=bytearray(chars), words=list(words)),
            state=None,
            halted=halted,
        ),
        host_instructions=host_instructions,
        counters=HostCostCounters(by_activity=by_activity),
    )
    assert roundtrip(result).as_dict() == result.as_dict()
