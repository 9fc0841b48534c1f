"""Result cache: SimResult/Checkpoint round-trips and on-disk behavior."""

import json
import os
import pickle
import subprocess
import sys
import time

import pytest

from repro.arch.config import default_config
from repro.arch.simstats import Checkpoint, SimResult
from repro.fleet import ArrivalSpec, FleetSpec
from repro.harness import ExperimentSession, ResultCache, RunSpec
from repro.isa.syscalls import OutputStream
from repro.security.adversary import AdversarySpec
from repro.security.race import RaceSpec
from repro.security.rotation import RotationPolicy


@pytest.fixture(scope="module")
def sim_result():
    """A real simulation result with every optional field populated."""
    session = ExperimentSession(max_instructions=4000,
                                checkpoint_interval=500)
    return session.run(session.spec("mcf", "vcfr", 64))


def kind_specs():
    """One small spec of each job kind: cycle run, emulation, race point
    and fleet point."""
    return [
        RunSpec("mcf", "vcfr", 64, scale=0.3, max_instructions=3000),
        RunSpec("mcf", "emulate", scale=0.3, max_instructions=3000),
        RaceSpec(policy=RotationPolicy(kind="periodic",
                                       period_instructions=2000),
                 adversary=AdversarySpec(disclosure_rate=0.5),
                 max_instructions=4000),
        FleetSpec(tenants=2, cores=1, max_instructions=20_000,
                  arrival=ArrivalSpec(kind="uniform", requests=3)),
    ]


@pytest.fixture(scope="module")
def kind_results():
    """Fresh results of :func:`kind_specs`, checkpoints on."""
    session = ExperimentSession(checkpoint_interval=500)
    return [(spec, session.run(spec)) for spec in kind_specs()]


class TestSimResultSerialization:
    def test_round_trip_preserves_everything(self, sim_result):
        clone = SimResult.from_dict(sim_result.as_dict())
        assert clone.as_dict() == sim_result.as_dict()
        # Derived properties reproduce exactly (counters are integers).
        assert clone.ipc == sim_result.ipc
        assert clone.il1_miss_rate == sim_result.il1_miss_rate
        assert clone.drc_miss_rate == sim_result.drc_miss_rate
        assert clone.l2_pressure == sim_result.l2_pressure
        assert clone.energy.drc_overhead_percent == (
            sim_result.energy.drc_overhead_percent
        )
        assert clone.output == sim_result.output
        assert len(clone.checkpoints) == len(sim_result.checkpoints)

    def test_dict_is_json_clean(self, sim_result):
        clone = SimResult.from_dict(
            json.loads(json.dumps(sim_result.as_dict()))
        )
        assert clone.as_dict() == sim_result.as_dict()

    def test_output_bytes_survive(self):
        result = SimResult(mode="baseline", output=OutputStream(
            chars=bytearray(bytes(range(256))), words=[1, 0xFFFFFFFF],
        ))
        clone = SimResult.from_dict(json.loads(json.dumps(result.as_dict())))
        assert clone.output == result.output

    def test_checkpoint_round_trip(self):
        checkpoint = Checkpoint(
            instructions=1000, cycles=2500, ipc=0.4,
            il1_miss_rate=0.125, drc_miss_rate=0.0625, host_seconds=0.5,
        )
        assert Checkpoint.from_dict(checkpoint.as_dict()) == checkpoint


class TestResultCache:
    def test_miss_then_hit(self, sim_result, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = RunSpec("mcf", "vcfr", 64, max_instructions=4000)
        config = default_config()
        assert cache.get(spec, config) is None
        cache.put(spec, config, sim_result)
        loaded = cache.get(spec, config)
        assert loaded is not None
        assert loaded.as_dict() == sim_result.as_dict()
        assert cache.stats() == {"hits": 1, "misses": 1, "writes": 1}

    def test_key_separates_specs_and_configs(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = default_config()
        spec = RunSpec("mcf", "vcfr", 64)
        assert cache.key(spec, config) != cache.key(
            RunSpec("mcf", "vcfr", 128), config
        )
        assert cache.key(spec, config) != cache.key(
            spec, config.with_drc_entries(64)
        )

    def test_key_uses_normalized_spec(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = default_config()
        assert cache.key(RunSpec("mcf", "baseline", 64), config) == (
            cache.key(RunSpec("mcf", "baseline", 512), config)
        )

    def test_salt_invalidates(self, sim_result, tmp_path):
        config = default_config()
        spec = RunSpec("mcf", "vcfr", 64, max_instructions=4000)
        ResultCache(str(tmp_path), salt="v1").put(spec, config, sim_result)
        assert ResultCache(str(tmp_path), salt="v2").get(spec, config) is None

    def test_stale_tmp_files_swept_on_open(self, tmp_path):
        root = str(tmp_path)
        sub = os.path.join(root, "ab")
        os.makedirs(sub)
        stale = os.path.join(sub, ".tmp-deadbeef")
        with open(stale, "w") as fh:
            fh.write("half-written entry")
        past = time.time() - 3600
        os.utime(stale, (past, past))
        cache = ResultCache(root)
        assert cache.stale_tmp_removed == 1
        assert not os.path.exists(stale)
        # stats() schema is part of the public contract — unchanged.
        assert cache.stats() == {"hits": 0, "misses": 0, "writes": 0}

    def test_fresh_tmp_files_survive_the_sweep(self, tmp_path):
        # A temp file younger than this process may belong to a
        # concurrent writer mid-put; it must not be collected.
        root = str(tmp_path)
        fresh = os.path.join(root, ".tmp-inflight")
        with open(fresh, "w") as fh:
            fh.write("concurrent writer")
        future = time.time() + 3600
        os.utime(fresh, (future, future))
        cache = ResultCache(root)
        assert cache.stale_tmp_removed == 0
        assert os.path.exists(fresh)

    def test_non_tmp_files_never_touched(self, sim_result, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = default_config()
        spec = RunSpec("mcf", "vcfr", 64, max_instructions=4000)
        path = cache.put(spec, config, sim_result)
        past = time.time() - 3600
        os.utime(path, (past, past))
        reopened = ResultCache(str(tmp_path))
        assert reopened.stale_tmp_removed == 0
        assert reopened.get(spec, config) is not None

    @pytest.mark.slow
    def test_writer_killed_mid_put_leaves_recoverable_debris(
            self, tmp_path):
        """A real process dying between mkstemp and the atomic rename
        leaves only a ``.tmp-*`` orphan: no entry is corrupted, and the
        next open (a later process) sweeps the orphan away."""
        root = str(tmp_path)
        script = (
            "import os, sys, tempfile\n"
            "from repro.harness.resultcache import ResultCache\n"
            "cache = ResultCache(sys.argv[1])\n"
            "fd, tmp = tempfile.mkstemp(dir=cache.root, prefix='.tmp-')\n"
            "os.write(fd, b'partial result bytes')\n"
            "os._exit(9)  # killed before os.replace could commit\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        out = subprocess.run([sys.executable, "-c", script, root],
                             env=env, timeout=120)
        assert out.returncode == 9
        debris = [f for f in os.listdir(root) if f.startswith(".tmp-")]
        assert len(debris) == 1
        # The orphan is younger than *this* process, so a same-process
        # reopen keeps it (it could be a live concurrent writer)...
        assert ResultCache(root).stale_tmp_removed == 0
        # ...but once it predates the opening process, it is swept.
        past = time.time() - 3600
        orphan = os.path.join(root, debris[0])
        os.utime(orphan, (past, past))
        cache = ResultCache(root)
        assert cache.stale_tmp_removed == 1
        assert not os.path.exists(orphan)
        assert cache.stats() == {"hits": 0, "misses": 0, "writes": 0}

    def test_corrupt_entry_degrades_to_miss(self, sim_result, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = default_config()
        spec = RunSpec("mcf", "vcfr", 64, max_instructions=4000)
        path = cache.put(spec, config, sim_result)
        with open(path, "w") as fh:
            fh.write("{ truncated")
        assert cache.get(spec, config) is None
        assert not os.path.exists(path)  # corrupt entry dropped
        # ... and a rewrite repairs it.
        cache.put(spec, config, sim_result)
        assert cache.get(spec, config) is not None


class TestEveryKind:
    """Every job kind is one ``result.json`` entry, read back as its
    own result type."""

    def test_put_get_round_trips_every_kind(self, kind_results, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = default_config()
        for spec, result in kind_results:
            path = cache.put(spec, config, result)
            assert os.path.basename(path) == "result.json"
            with open(path) as fh:
                entry = json.load(fh)
            assert entry["kind"] == spec.kind
            assert entry["spec"] == spec.normalized().as_dict()
            loaded = cache.get(spec, config)
            assert type(loaded) is type(result)
            assert loaded.as_dict() == result.as_dict()
        assert cache.stats() == {"hits": 4, "misses": 0, "writes": 4}
        assert [spec.kind for spec, _ in kind_results] == [
            "run", "run", "race", "fleet"]

    def test_emulation_comes_back_without_machine_state(self, kind_results,
                                                        tmp_path):
        cache = ResultCache(str(tmp_path))
        spec, result = kind_results[1]
        assert result.run.state is not None
        cache.put(spec, default_config(), result)
        loaded = cache.get(spec, default_config())
        assert loaded.run.state is None
        assert loaded.host_instructions == result.host_instructions

    def test_pickled_entry_of_an_older_build_is_a_miss(self, kind_results,
                                                       tmp_path):
        cache = ResultCache(str(tmp_path))
        config = default_config()
        for spec, result in kind_results[1:]:
            entry = cache.entry_dir(spec, config)
            os.makedirs(entry)
            with open(os.path.join(entry, "result.pkl"), "wb") as fh:
                pickle.dump(result, fh, pickle.HIGHEST_PROTOCOL)
            assert cache.get(spec, config) is None
            assert cache.peek(spec, config) is None
            assert os.path.exists(os.path.join(entry, "result.pkl"))
        assert cache.stats() == {"hits": 0, "misses": 3, "writes": 0}


class TestShardedLayout:
    """Per-entry directories; pre-sharding layouts are not read."""

    def _put(self, tmp_path, sim_result):
        cache = ResultCache(str(tmp_path))
        spec = RunSpec("mcf", "vcfr", 64, max_instructions=4000)
        config = default_config()
        path = cache.put(spec, config, sim_result)
        return cache, spec, config, path

    def test_entries_are_sharded_by_digest_prefix(self, sim_result,
                                                  tmp_path):
        cache, spec, config, path = self._put(tmp_path, sim_result)
        digest = cache.key(spec, config)
        assert path == os.path.join(
            str(tmp_path), digest[:2], digest, "result.json")
        assert cache.entry_dir(spec, config) == os.path.dirname(path)

    def test_flat_pre_sharding_entry_is_a_miss(self, sim_result,
                                               tmp_path):
        cache, spec, config, path = self._put(tmp_path, sim_result)
        digest = cache.key(spec, config)
        flat = os.path.join(str(tmp_path), digest + ".json")
        os.replace(path, flat)
        os.rmdir(os.path.dirname(path))
        assert cache.get(spec, config) is None
        assert cache.stats()["misses"] == 1
        assert os.path.exists(flat)  # RunStore.backfill_cache indexes it

    def test_peek_is_side_effect_free(self, sim_result, tmp_path):
        cache, spec, config, path = self._put(tmp_path, sim_result)
        before = cache.stats()
        assert cache.peek(spec, config) is not None
        missing = RunSpec("gcc", "baseline", max_instructions=4000)
        assert cache.peek(missing, config) is None
        assert cache.stats() == before
        # Unlike get(), peek never drops a corrupt entry.
        with open(path, "w") as fh:
            fh.write("{ truncated")
        assert cache.peek(spec, config) is None
        assert os.path.exists(path)

    def test_backfill_recovers_config_digest_on_every_layout(
            self, sim_result, tmp_path):
        from repro.harness.spec import config_fingerprint
        from repro.obs.store import RunStore

        config = default_config()
        cache = ResultCache(str(tmp_path / "cache"))
        sharded = RunSpec("mcf", "vcfr", 64, max_instructions=4000)
        flat = RunSpec("mcf", "vcfr", 128, max_instructions=4000)
        path = cache.put(sharded, config, sim_result)
        flat_path = cache.put(flat, config, sim_result)
        legacy = os.path.join(
            cache.root, cache.key(flat, config) + ".json")
        os.replace(flat_path, legacy)
        os.rmdir(os.path.dirname(flat_path))

        with RunStore(str(tmp_path / "runs.db")) as store:
            counts = store.backfill_cache(cache.root)
            assert counts == {"ingested": 2, "skipped": 0}
            _cols, rows = store.query(
                "SELECT drc_entries, config_digest FROM runs "
                "ORDER BY drc_entries")
        assert rows == [(64, config_fingerprint(config)),
                        (128, config_fingerprint(config))]
