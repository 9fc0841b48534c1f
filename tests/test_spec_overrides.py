"""Specs with overrides: what an ablation point varies, on every engine leg.

A :class:`~repro.harness.spec.RunSpec` carries machine-config overrides,
randomizer overrides and a self-switch quantum, so every ablation point
is a scheduler job.  One spec per override kind must run the same
inline, pooled and from a warm cache, and on every execution tier;
round-trip through JSON; keep its own cache key, store key and label;
and leave the plain spec's keys where they were.
"""

import dataclasses
import json

import pytest

from repro.arch.config import default_config
from repro.harness import ExperimentSession, RunSpec
from repro.harness.ablations import page_confined_layout
from repro.harness.dashboard import Progress
from repro.harness.resultcache import ResultCache
from repro.harness.sweep import execute_spec
from repro.obs.events import EventLog, MemorySink
from repro.obs.store import RunStore
from repro.obs.trace import Tracer
from repro.tools import stats
from tests.test_sweep import result_dicts, simulations
from tests.test_tier_invariance import TIERS

BUDGET = 20_000

#: One spec per override kind.
OVERRIDDEN = {
    "drc_assoc": RunSpec("gcc", "vcfr", 128, max_instructions=BUDGET,
                         machine=(("drc.assoc", 4),)),
    "prefetch_off": RunSpec("gcc", "naive_ilr", max_instructions=BUDGET,
                            machine=(("prefetch_il1", False),)),
    "spread": RunSpec("gcc", "vcfr", 128, max_instructions=BUDGET,
                      randomizer=(("spread_factor", 64),)),
    "quantum": RunSpec("gcc", "vcfr", 128, max_instructions=BUDGET,
                       quantum=5_000),
}
SPECS = list(OVERRIDDEN.values())
IDS = list(OVERRIDDEN)


def _plain(spec):
    return dataclasses.replace(spec, machine=(), randomizer=(), quantum=0)


@pytest.fixture(scope="module")
def inline():
    return result_dicts(ExperimentSession().sweep(SPECS))


class TestEngineLegs:
    def test_pooled_matches_inline(self, inline):
        assert result_dicts(ExperimentSession(workers=2).sweep(SPECS)) \
            == inline

    def test_warm_cache_matches_inline(self, inline, tmp_path):
        ExperimentSession(cache_dir=str(tmp_path)).prefetch(SPECS)
        warm = ExperimentSession(cache_dir=str(tmp_path))
        assert result_dicts(warm.sweep(SPECS)) == inline
        assert warm.cache.stats() == {
            "hits": len(SPECS), "misses": 0, "writes": 0,
        }

    def test_overrides_change_the_result(self, inline):
        plain = result_dicts(
            ExperimentSession().sweep([_plain(s) for s in SPECS]))
        assert all(a != b for a, b in zip(plain, inline))

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    def test_tiers_agree(self, spec):
        rows = {
            tier: execute_spec(spec, dataclasses.replace(
                default_config(), **flags)).as_dict()
            for tier, flags in TIERS.items()
        }
        assert rows["blocks"] == rows["traces"]
        assert rows["reference"] == rows["traces"]


class TestIdentity:
    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    def test_json_round_trip(self, spec):
        back = RunSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert back == spec and hash(back) == hash(spec)
        assert len({back, spec}) == 1

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    def test_keys_differ_from_the_plain_spec(self, spec, tmp_path):
        plain = _plain(spec)
        cache = ResultCache(str(tmp_path))
        config = default_config()
        assert cache.key(spec, config) != cache.key(plain, config)
        assert RunStore.spec_key(spec) != RunStore.spec_key(plain)
        assert spec.label() != plain.label()

    def test_only_randomizer_overrides_get_their_own_program(self):
        session = ExperimentSession(max_instructions=BUDGET)
        plain = session.program_for(_plain(SPECS[0]))
        assert session.program_for(OVERRIDDEN["spread"]) is not plain
        for name in ("drc_assoc", "prefetch_off", "quantum"):
            assert session.program_for(OVERRIDDEN[name]) is plain

    def test_pairs_are_sorted_when_built(self):
        a = RunSpec("gcc", "vcfr", machine=(("prefetch_il1", False),
                                            ("drc.assoc", 4)))
        b = RunSpec("gcc", "vcfr", machine=[["drc.assoc", 4],
                                            ["prefetch_il1", False]])
        assert a == b and a.machine == (("drc.assoc", 4),
                                        ("prefetch_il1", False))
        # A name given twice keeps its last value, as in a dict.
        assert RunSpec("gcc", "vcfr", machine=(
            ("drc.assoc", 4), ("drc.assoc", 2))).machine == (
            ("drc.assoc", 2),)

    def test_plain_spec_keeps_its_keys(self, tmp_path):
        spec = RunSpec("mcf", "vcfr", 128)
        assert set(spec.as_dict()) == {
            "workload", "mode", "drc_entries", "seed", "scale",
            "max_instructions", "warmup_instructions",
        }
        key = ResultCache(str(tmp_path)).key(spec, default_config())
        assert key.startswith("747816501cabb551")
        assert RunStore.spec_key(spec) == "912d396248ba1749"

    def test_label_names_the_overrides(self):
        assert [s.label() for s in SPECS] == [
            "gcc/vcfr@128+drc.assoc=4",
            "gcc/naive_ilr+prefetch_il1=False",
            "gcc/vcfr@128+spread_factor=64",
            "gcc/vcfr@128+quantum=5000",
        ]
        assert OVERRIDDEN["drc_assoc"].event_fields() == {
            "workload": "gcc", "drc_entries": 128,
            "machine": (("drc.assoc", 4),),
        }


class TestValidation:
    @pytest.mark.parametrize("fields", [
        {"machine": (("drc.nope", 1),)},
        {"machine": (("drc", 1),)},
        {"machine": (("drc.entries", 64),)},
        {"machine": (("fastpath", False),)},
        {"randomizer": (("nope", 1),)},
        {"randomizer": (("seed", 1),)},
        {"quantum": 5_000, "warmup_instructions": 100},
        {"quantum": -1},
    ])
    def test_rejected(self, fields):
        with pytest.raises(ValueError):
            RunSpec("gcc", "vcfr", **fields)

    def test_quantum_rejected_in_emulate_mode(self):
        with pytest.raises(ValueError):
            RunSpec("gcc", "emulate", quantum=5_000)


class TestObservers:
    """An overridden point never passes for the plain one."""

    @pytest.fixture(scope="class")
    def logged(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("observed")
        sink = MemorySink()
        specs = [_plain(SPECS[0])] + SPECS
        with ExperimentSession(events=EventLog(sink),
                               cache_dir=str(root / "cache"),
                               store_path=str(root / "runs.sqlite")) as s:
            s.prefetch(specs)
        return root, sink.records

    def test_store_keeps_plain_answers_plain(self, logged):
        root, _records = logged
        plain_ipc = ExperimentSession().run(_plain(SPECS[0])).ipc
        with RunStore(str(root / "runs.sqlite")) as store:
            for mode in ("vcfr@128", "vcfr"):
                (row,) = store.best("ipc", mode=mode)
                assert row["label"] == "vcfr@128"
                assert row["value"] == pytest.approx(plain_ipc)
            (row,) = store.best("ipc", mode="vcfr@128+drc.assoc=4")
            assert row["label"] == "vcfr@128+drc.assoc=4"
            labels = {r["label"] for r in store.history()}
            assert labels == {"vcfr@128"} | {
                spec.label().split("/", 1)[1] for spec in SPECS}
            assert {r["label"] for r in store.history(mode="vcfr")} \
                == {"vcfr@128"}

    def test_cache_backfill_restores_the_labels(self, logged, tmp_path):
        root, _records = logged
        with RunStore(str(tmp_path / "rebuilt.sqlite")) as store:
            store.backfill_cache(str(root / "cache"))
            with RunStore(str(root / "runs.sqlite")) as live:
                assert {r["label"] for r in store.history()} == \
                    {r["label"] for r in live.history()}

    def test_every_spec_logs_its_run(self, logged):
        """The quantum spec too: one ``run_start`` and one ``run_end``
        per spec, stamped with the spec's fields."""
        _root, records = logged
        for kind in ("run_start", "run_end"):
            fields = [{k: r[k] for k in ("workload", "mode", "quantum")
                       if k in r} for r in records if r["kind"] == kind]
            assert len(fields) == len(SPECS) + 1
            assert {"workload": "gcc", "mode": "vcfr",
                    "quantum": 5_000} in fields
        assert " vcfr@128+quantum=5000 " in stats.runs_table(records)

    def test_run_table_and_progress_name_the_overrides(self, logged,
                                                       capsys):
        _root, records = logged
        runs = stats.runs_table(records)
        for label in ("vcfr@128", "vcfr@128+drc.assoc=4",
                      "naive_ilr+prefetch_il1=False",
                      "vcfr@128+spread_factor=64"):
            assert " %s " % label in runs
        progress = Progress()
        for record in records:
            if record["kind"] == "checkpoint":
                progress.observe(record)
        err = capsys.readouterr().err
        assert "[gcc/vcfr@128+drc.assoc=4] " in err
        assert "[gcc/vcfr@128] " in err


def test_warm_rerun_of_an_ablation_simulates_nothing(tmp_path):
    cold = ExperimentSession(max_instructions=BUDGET,
                             cache_dir=str(tmp_path), tracer=Tracer())
    rows = page_confined_layout(cold).rows
    assert cold.cache.stats()["writes"] == 2
    assert simulations(cold) == 2

    warm = ExperimentSession(max_instructions=BUDGET,
                             cache_dir=str(tmp_path), tracer=Tracer())
    assert page_confined_layout(warm).rows == rows
    assert simulations(warm) == 0
    assert warm.cache.stats() == {"hits": 2, "misses": 0, "writes": 0}
