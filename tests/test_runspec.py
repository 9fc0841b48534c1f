"""RunSpec: normalization, hashing, serialization, fingerprints."""

import pytest

from repro.arch.config import default_config
from repro.harness import ExperimentSession, RunSpec, config_fingerprint
from repro.harness.spec import DEFAULT_DRC_ENTRIES


class TestNormalization:
    def test_non_vcfr_drops_drc_entries(self):
        spec = RunSpec("gcc", "baseline", drc_entries=512).normalized()
        assert spec.drc_entries == 0

    def test_vcfr_defaults_drc_entries(self):
        spec = RunSpec("gcc", "vcfr").normalized()
        assert spec.drc_entries == DEFAULT_DRC_ENTRIES

    def test_vcfr_keeps_explicit_drc_entries(self):
        spec = RunSpec("gcc", "vcfr", drc_entries=64).normalized()
        assert spec.drc_entries == 64

    def test_normalized_is_idempotent(self):
        spec = RunSpec("gcc", "vcfr", drc_entries=64).normalized()
        assert spec.normalized() is spec

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            RunSpec("gcc", "turbo")


class TestIdentity:
    def test_equal_specs_hash_equal(self):
        a = RunSpec("gcc", "vcfr", 128, seed=7)
        b = RunSpec("gcc", "vcfr", 128, seed=7)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_any_field_changes_identity(self):
        base = RunSpec("gcc", "vcfr", 128)
        variants = [
            RunSpec("mcf", "vcfr", 128),
            RunSpec("gcc", "naive_ilr"),
            RunSpec("gcc", "vcfr", 64),
            RunSpec("gcc", "vcfr", 128, seed=1),
            RunSpec("gcc", "vcfr", 128, scale=0.5),
            RunSpec("gcc", "vcfr", 128, max_instructions=1),
            RunSpec("gcc", "vcfr", 128, warmup_instructions=1),
        ]
        assert all(v != base for v in variants)

    def test_dict_round_trip(self):
        spec = RunSpec("xalan", "vcfr", 64, seed=3, scale=0.5,
                       max_instructions=1234, warmup_instructions=56)
        assert RunSpec.from_dict(spec.as_dict()) == spec

    def test_from_dict_ignores_extra_keys(self):
        data = RunSpec("gcc").as_dict()
        data["schema_version"] = 2
        assert RunSpec.from_dict(data) == RunSpec("gcc")


class TestPresentation:
    def test_label(self):
        assert RunSpec("gcc", "vcfr", 64).label() == "gcc/vcfr@64"
        assert RunSpec("gcc", "baseline").label() == "gcc/baseline"

    def test_event_fields_carry_drc_size_only_for_vcfr(self):
        assert RunSpec("gcc", "vcfr", 64).event_fields() == {
            "workload": "gcc", "drc_entries": 64,
        }
        assert RunSpec("gcc", "naive_ilr").event_fields() == {
            "workload": "gcc",
        }


class TestRunnerSpecFactory:
    def test_inherits_runner_defaults(self):
        runner = ExperimentSession(scale=0.5, seed=9, max_instructions=7000)
        spec = runner.spec("mcf", "vcfr")
        assert spec == RunSpec("mcf", "vcfr", 128, seed=9, scale=0.5,
                               max_instructions=7000)

    def test_emulate_budget_scaled(self):
        runner = ExperimentSession(max_instructions=5000)
        assert runner.spec("mcf", "emulate").max_instructions == 50_000


class TestConfigFingerprint:
    def test_stable_across_instances(self):
        assert config_fingerprint(default_config()) == config_fingerprint(
            default_config()
        )

    def test_sensitive_to_any_parameter(self):
        base = config_fingerprint(default_config())
        assert config_fingerprint(
            default_config().with_overrides([("drc.entries", 64)])
        ) != base
        small_l2 = default_config()
        small_l2.l2.size_bytes //= 2
        assert config_fingerprint(small_l2) != base

    def test_host_tuning_fields_excluded(self):
        # fastpath / block-cache sizing are host-side strategy knobs:
        # a reference-loop result must be servable to a fast-path run.
        base = config_fingerprint(default_config())
        tuned = default_config()
        tuned.fastpath = False
        tuned.block_cache_capacity = 7
        tuned.block_max_insts = 3
        assert config_fingerprint(tuned) == base

    def test_timing_model_version_included(self, monkeypatch):
        from repro.arch import config as arch_config

        base = config_fingerprint(default_config())
        monkeypatch.setattr(
            arch_config, "TIMING_MODEL_VERSION",
            arch_config.TIMING_MODEL_VERSION + 1,
        )
        assert config_fingerprint(default_config()) != base
