"""The attack/defense race: adversary, rotation service, race harness.

Everything here is seed-pinned: the adversary's harvest, each rotation
policy's trigger, and the scheduler's sequential-vs-pooled-vs-cached
bit-identity are all deterministic functions of the spec.
"""

import json
import random

import pytest

from repro.harness.session import ExperimentSession
from repro.ilr.randomizer import RandomizerConfig, randomize
from repro.obs.events import EventLog, MemorySink
from repro.obs.store import RunStore
from repro.qa.oracle import OracleConfig, check_attack
from repro.security.adversary import AdversarySpec, JITROPAdversary
from repro.security import race as race_module
from repro.security.race import (
    SERVICE_WORKLOAD,
    RaceSpec,
    build_tenant_image,
    run_race,
)
from repro.security.rotation import RotationPolicy
from repro.tools.race import parse_policy


def _service_program(seed=42):
    image = build_tenant_image(RaceSpec(seed=seed))
    return randomize(image, RandomizerConfig(seed=seed))


def _adversary(program, seed=7, **kw):
    spec = AdversarySpec(**kw)
    return JITROPAdversary(program, spec, random.Random(seed))


# -- adversary ---------------------------------------------------------------


def test_adversary_is_seed_deterministic():
    program = _service_program()
    reports = []
    for _ in range(2):
        adversary = _adversary(program, seed=7, disclosure_rate=0.5,
                               mappings_per_disclosure=8, probe_rate=0.3)
        for _ in range(40):
            adversary.observe(program)
        reports.append(adversary.report)
    assert reports[0] == reports[1]


def test_adversary_payload_roles_on_service_workload():
    # The synthetic service ships the classic gadget material, so the
    # adversary's goal is full payload assembly, not just counting.
    adversary = _adversary(_service_program())
    assert adversary.payload_possible


def test_adversary_reaches_goal_and_rotation_invalidates():
    program = _service_program()
    adversary = _adversary(program, seed=3, disclosure_rate=1.0,
                           mappings_per_disclosure=64)
    for _ in range(50):
        adversary.observe(program)
        if adversary.goal_met():
            break
    assert adversary.goal_met()
    assert adversary.report.mappings_leaked > 0
    lost_before = adversary.report.gadgets_lost_to_rotation
    adversary.invalidate()
    assert not adversary.goal_met()
    assert adversary.report.harvests_invalidated == 1
    assert adversary.report.gadgets_lost_to_rotation > lost_before


def test_disabled_adversary_observes_nothing():
    program = _service_program()
    adversary = _adversary(program, enabled=False, disclosure_rate=1.0)
    for _ in range(20):
        assert adversary.observe(program) == 0
    assert adversary.report.disclosures == 0
    assert adversary.report.mappings_leaked == 0


# -- rotation policies through the race harness ------------------------------


def _race(policy, **kw):
    adversary = kw.pop("adversary", AdversarySpec(disclosure_rate=0.5))
    kw.setdefault("max_instructions", 20_000)
    return run_race(RaceSpec(policy=policy, adversary=adversary, **kw))


def test_policy_none_never_rotates():
    result = _race(RotationPolicy(kind="none"))
    assert result.rotations == 0
    assert result.rotation_cycles == 0


def test_policy_periodic_rotates_on_schedule():
    result = _race(RotationPolicy(kind="periodic",
                                  period_instructions=5_000))
    # 20k instructions / 5k period: the trigger is checked per window.
    assert result.rotations == 3
    assert result.rotation_cycles == 3 * 5_000
    assert result.drc_flushes == result.rotations
    assert result.block_invalidations >= result.rotations


def test_policy_on_probe_needs_probe_signal():
    quiet = _race(RotationPolicy(kind="on_probe", probe_threshold=1))
    assert quiet.rotations == 0  # no probes -> no crash telemetry
    noisy = _race(
        RotationPolicy(kind="on_probe", probe_threshold=1),
        adversary=AdversarySpec(disclosure_rate=0.5, probe_rate=0.5),
    )
    assert noisy.probe_crashes > 0
    assert noisy.rotations > 0


def test_policy_on_syscall_rotates_on_kernel_activity():
    result = _race(RotationPolicy(kind="on_syscall", syscall_period=200))
    assert result.rotations > 0


def test_rotation_narrows_exposure_window():
    static = _race(RotationPolicy(kind="none"), max_instructions=60_000)
    rotated = _race(RotationPolicy(kind="periodic",
                                   period_instructions=5_000),
                    max_instructions=60_000)
    assert static.exposure_fraction > 0
    assert rotated.exposure_fraction < static.exposure_fraction
    assert rotated.max_exposure_streak <= static.max_exposure_streak


def test_run_race_is_deterministic():
    spec = RaceSpec(policy=RotationPolicy(kind="periodic",
                                          period_instructions=5_000),
                    adversary=AdversarySpec(disclosure_rate=0.5,
                                            probe_rate=0.2),
                    max_instructions=20_000)
    first = run_race(spec).as_dict()
    second = run_race(spec).as_dict()
    assert first == second


# -- scheduler jobs: sequential vs pooled vs cached bit-identity -------------


def _grid():
    return [
        RaceSpec(policy=RotationPolicy(kind="none"),
                 adversary=AdversarySpec(disclosure_rate=0.5),
                 max_instructions=16_000),
        RaceSpec(policy=RotationPolicy(kind="periodic",
                                       period_instructions=4_000),
                 adversary=AdversarySpec(disclosure_rate=0.5),
                 max_instructions=16_000),
        RaceSpec(policy=RotationPolicy(kind="on_probe", probe_threshold=2),
                 adversary=AdversarySpec(disclosure_rate=0.25,
                                         probe_rate=0.3),
                 max_instructions=16_000),
        RaceSpec(policy=RotationPolicy(kind="periodic",
                                       period_instructions=8_000),
                 adversary=AdversarySpec(disclosure_rate=0.25),
                 tenants=2, max_instructions=12_000),
    ]


def _dump(results):
    return json.dumps([r.as_dict() for r in results], sort_keys=True)


def _sweep(specs, **policy):
    with ExperimentSession(**policy) as session:
        outcomes = session.sweep(specs)
    assert all(outcome.ok for outcome in outcomes)
    return outcomes


def test_sweep_race_sequential_matches_pooled(tmp_path, monkeypatch):
    specs = _grid()
    cache_dir = str(tmp_path / "cache")
    sequential = _sweep(specs, workers=0, cache_dir=cache_dir)
    pooled = _sweep(specs, workers=2)
    expected = _dump(run_race(spec) for spec in specs)
    assert _dump(o.result for o in sequential) == expected
    assert _dump(o.result for o in pooled) == expected

    # Warm leg: every point is a cache hit; nothing executes.
    def must_not_run(*args, **kwargs):
        raise AssertionError("run_race called on a warm cache")

    monkeypatch.setattr(race_module, "run_race", must_not_run)
    warm = _sweep(specs, workers=2, cache_dir=cache_dir)
    assert all(outcome.cached for outcome in warm)
    assert _dump(o.result for o in warm) == expected


def test_sweep_race_emits_events_and_records_store(tmp_path, capsys):
    from repro.tools import stats as stats_cli

    specs = _grid()[:2]
    sink = MemorySink()
    store_path = str(tmp_path / "race.db")
    outcomes = _sweep(specs, events=EventLog(sink), store_path=store_path)
    kinds = [r["kind"] for r in sink.records]
    assert kinds.count("race_point") == len(specs)
    assert kinds.count("spec_done") == len(specs)
    assert kinds.index("race_point") < kinds.index("spec_done")
    done = [r for r in sink.records if r["kind"] == "spec_done"]
    assert [r["label"] for r in done] == [spec.label() for spec in specs]
    # A second sweep adds rows; the race view keeps the latest per spec.
    _sweep(specs, store_path=store_path)
    with RunStore(store_path) as store:
        points = store.payloads("race")
        assert [p["policy"] for p in points] == ["none", "periodic@4000"]
        assert points[0] == outcomes[0].result.as_dict()
        assert store.counts()["runs"] == 2 * len(specs)
        assert store.best("ipc") == []  # race rows are not runs
    assert stats_cli.main(["race", store_path, "--policy", "none"]) == 0
    out = capsys.readouterr().out
    assert "none" in out and "periodic" not in out


@pytest.mark.parametrize("workers", [0, 2])
def test_rotation_records_reach_the_event_log(workers):
    specs = _grid()[1:]
    sink = MemorySink()
    outcomes = _sweep(specs, workers=workers, events=EventLog(sink))
    rotations = [r for r in sink.records if r["kind"] == "rotation"]
    expected = sum(outcome.result.rotations for outcome in outcomes)
    assert expected > 0
    assert len(rotations) == expected


def test_gadget_window_specs_have_distinct_labels():
    from repro.harness.experiments import gadget_window

    sink = MemorySink()
    with ExperimentSession(events=EventLog(sink)) as session:
        gadget_window(session)
    labels = [r["label"] for r in sink.records if r["kind"] == "spec_done"]
    assert len(labels) == 11
    assert len(set(labels)) == 11
    assert "service/periodic@20000/disc0.25/adv-off" in labels


def test_session_race_sweep_uses_session_plumbing():
    specs = _grid()[:2]
    with ExperimentSession(workers=0) as session:
        session.prefetch(specs)
        results = [session.run(spec) for spec in specs]
    assert _dump(results) == _dump(run_race(spec) for spec in specs)


# -- the CLI's policy grammar ------------------------------------------------


def test_parse_policy_round_trips_labels():
    for text in ("none", "periodic@5000", "on_probe@2", "on_syscall@400"):
        assert parse_policy(text).label() == text


def test_race_cli_table_events_and_store(tmp_path, capsys):
    from repro.tools import race as race_cli
    from repro.obs.events import read_events

    events = str(tmp_path / "race.jsonl")
    store_path = str(tmp_path / "race.db")
    rc = race_cli.main([
        "--policies", "none,periodic@5000", "--rates", "0.5",
        "--budget", "12000", "--events", events, "--store", store_path,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "periodic@5000" in out and "exposure" in out
    points = read_events(events, kind="race_point")
    assert len(points) == 2
    with RunStore(store_path) as store:
        assert len(store.payloads("race")) == 2


def test_race_cli_table_is_the_stats_table(tmp_path, capsys):
    from repro.obs.events import read_events
    from repro.tools import race as race_cli
    from repro.tools import stats as stats_cli

    events = str(tmp_path / "race.jsonl")
    store_path = str(tmp_path / "race.db")
    assert race_cli.main([
        "--policies", "none,periodic@3000", "--rates", "0.25,0.5",
        "--budget", "8000", "--events", events, "--store", store_path,
    ]) == 0
    table = capsys.readouterr().out
    assert len(table.splitlines()) == 2 + 4

    assert stats_cli.main(["race", store_path]) == 0
    assert capsys.readouterr().out == table

    assert stats_cli.main([events, "--section", "race"]) == 0
    rotations = len(read_events(events, kind="rotation"))
    assert rotations > 0
    assert capsys.readouterr().out == (
        "== rotation races ==\n" + table
        + "(%d individual rotation events logged)\n\n" % rotations)


def test_race_cli_json_output(capsys):
    from repro.tools import race as race_cli

    rc = race_cli.main([
        "--policies", "none", "--rates", "0.25", "--budget", "8000",
        "--json",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    point = json.loads(lines[0])
    assert point["workload"] == SERVICE_WORKLOAD
    assert point["policy"] == "none"


def test_race_cli_exits_1_when_every_point_is_quarantined(monkeypatch,
                                                         capsys):
    from repro.tools import race as race_cli

    def boom(*args, **kwargs):
        raise RuntimeError("injected race failure")

    monkeypatch.setattr(race_module, "run_race", boom)
    rc = race_cli.main(["--policies", "none", "--rates", "0.25",
                        "--budget", "4000"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no table: nothing survived
    assert "QUARANTINED" in captured.err


def test_parse_policy_rejects_garbage():
    for bad in ("sometimes", "periodic@fast", "none@3", "periodic@0"):
        with pytest.raises(ValueError):
            parse_policy(bad)


# -- the differential attack leg ---------------------------------------------


def test_oracle_attack_leg_is_clean():
    report = check_attack(seed=11, config=OracleConfig(check_traces=True))
    assert report.runs == 13  # 3 modes x 4 engines + benign
    assert report.ok, [d.kind + ": " + d.detail for d in report.divergences]


def test_oracle_attack_leg_outcomes_pinned():
    # The paper's Table-1 verdicts, pinned on a second seed through the
    # public attack API (functional vs cycle engines must agree).
    from repro.binary import BinaryImage
    from repro.security.attack import (
        build_vulnerable_image,
        craft_exploit_input,
        deliver,
        inject_input,
    )
    from repro.security.gadgets import scan_gadgets
    from repro.security.payload import compile_shell_payload

    program = randomize(build_vulnerable_image(), RandomizerConfig(seed=5))
    exploit = craft_exploit_input(
        compile_shell_payload(scan_gadgets(program.original)))

    injected = BinaryImage.from_bytes(program.vcfr_image.to_bytes())
    inject_input(injected, exploit)
    functional = deliver(injected, "vcfr", program)
    injected = BinaryImage.from_bytes(program.vcfr_image.to_bytes())
    inject_input(injected, exploit)
    cycle = deliver(injected, "vcfr", program, engine="cycle")
    assert functional.blocked and cycle.blocked
    assert functional.key() == cycle.key()
