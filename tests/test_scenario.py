import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from pcosync.cli import write_run_outputs
from pcosync.core import MAX_TICKS_PER_PERIOD
from pcosync.scenario import (
    ConfigError,
    canonical_dict,
    config_digest,
    draw_initial_phases,
    parse_scenario,
    parse_sweep,
    run_scenario,
    run_sweep,
    scoped_seed,
)

BASE = {
    "clock": {"ticks_per_period": 1_000_000, "epsilon_ticks": 10_000},
    "topology": {"kind": "circle", "n": 24, "diameter": 40, "range": 39},
    "mechanism": {"kind": "quorum_n", "n_known": 24},
    "attackers": {"ids": [1, 8, 20],
                  "attack": {"kind": "random_budget", "total_pulses": 40,
                             "horizon_ticks": 3_500_000}},
    "initial_phases": {"random_uniform": "phases"},
    "horizon_ticks": 5_000_000,
    "seed": 1,
}

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def with_attack(**attack):
    data = json.loads(json.dumps(BASE))
    data["attackers"]["attack"] = attack
    return data


def with_phases(**phases):
    data = json.loads(json.dumps(BASE))
    data["initial_phases"] = phases
    return data


ROUND_TRIP = {
    **{path.stem: json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("circle24_*.json"))},
    "sweep-base": json.loads((CONFIG_DIR / "sweep_quorum_n_attacked.json").read_text())["base"],
    "scripted": with_attack(kind="scripted", ticks={"20": [7], "1": [5, 20_006]}),
    "random-budget-scoped": with_attack(kind="random_budget", total_pulses=40,
                                        horizon_ticks=3e6, seed_scope="sneak"),
    "explicit-ticks": with_phases(ticks=[0, *range(50_000, 1_000_000, 50_000), 1_000_000]),
}


@pytest.mark.parametrize("scenario", ROUND_TRIP.values(), ids=ROUND_TRIP.keys())
def test_parse_and_canonical_round_trip(scenario):
    config = parse_scenario(scenario)
    data = canonical_dict(config)
    again = parse_scenario(data)
    assert again == config
    assert canonical_dict(again) == data
    assert config_digest(again) == config_digest(config)


def test_integral_floats_keep_the_digest():
    data = json.loads(json.dumps(BASE))
    data["horizon_ticks"] = 5e6
    data["topology"]["n"] = 24.0
    data["attackers"]["attack"]["horizon_ticks"] = 3.5e6
    assert config_digest(parse_scenario(data)) == config_digest(parse_scenario(BASE))


def test_digest_changes_with_content():
    a = parse_scenario(BASE)
    b = replace(a, seed=2)
    assert config_digest(a) != config_digest(b)
    data = dict(BASE)
    data["horizon_ticks"] = 6_000_000
    assert config_digest(parse_scenario(data)) != config_digest(a)


def test_defaults_applied():
    config = parse_scenario({
        "topology": {"kind": "explicit", "adjacency": [[1], [0]]},
        "mechanism": {"kind": "quorum_degree"},
    })
    assert config.clock.ticks_per_period == 1_000_000
    assert config.clock.epsilon_ticks == 10_000
    assert config.horizon_ticks == 20_000_000
    assert config.seed == 0
    assert config.phases_desc == {"random_uniform": "phases"}


def test_import_leaves_out_what_a_serial_run_never_uses():
    # the process pool is imported only when a sweep runs on more than one worker
    import pcosync

    code = ("import sys, pcosync; "
            "print(sorted({'concurrent.futures', 'statistics'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(pcosync.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d["mechanism"].pop("n_known"), "n_known"),
    (lambda d: d["mechanism"].update(coupling=0.5), "coupling"),
    (lambda d: d["attackers"]["ids"].append(99), "outside"),
    (lambda d: d["attackers"]["ids"].append(8), "twice"),
    (lambda d: d["attackers"].pop("attack"), "attackers needs ['attack']"),
    (lambda d: d.pop("topology"), "scenario needs ['topology']"),
    (lambda d: [d.pop("mechanism"), d.pop("topology")], "scenario needs ['topology', 'mechanism']"),
    (lambda d: d["attackers"].update(attack={"kind": "scripted", "ticks": [5]}),
     "attackers.attack.ticks must be a mapping"),
    (lambda d: d.update(horizon_ticks=0), "horizon"),
    (lambda d: d.update(initial_phases={"ticks": [0]}), "ticks"),
    (lambda d: d.update(bogus=1), "unknown"),
    (lambda d: d["clock"].update(epsilon_ticks=600_000), "clock"),
    (lambda d: d["mechanism"].update(kind="nope"), "nope"),
    (lambda d: d.update(mechanism={"kind": "conventional"}), "coupling"),
    (lambda d: d.update(mechanism={"kind": "conventional", "coupling": 1.5}), "coupling"),
    (lambda d: d["mechanism"].update(n_known=0), "n_known"),
    (lambda d: d["mechanism"].update(n_known=100), "n_known is 100 but the topology has 24"),
])
def test_parse_rejects_inconsistent_configs(mutate, fragment):
    data = json.loads(json.dumps(BASE))
    mutate(data)
    with pytest.raises(ConfigError) as err:
        parse_scenario(data)
    assert fragment in str(err.value)


def test_explicit_phases_accepted():
    ticks = [0, *range(50_000, 1_000_000, 50_000), 1_000_000]
    config = parse_scenario(with_phases(ticks=ticks))
    legit = [i for i in range(24) if i not in (1, 8, 20)]
    assert draw_initial_phases(config, legit) == dict(zip(legit, ticks))


def test_phase_draw_is_seed_scoped_and_deterministic():
    config = parse_scenario(BASE)
    legit = [i for i in range(24) if i not in (1, 8, 20)]
    assert draw_initial_phases(config, legit) == draw_initial_phases(config, legit)
    other = replace(config, seed=2)
    assert draw_initial_phases(other, legit) != draw_initial_phases(config, legit)
    assert scoped_seed(1, "phases") != scoped_seed(1, "attack")


def test_scripted_replay_reproduces_event_log():
    art = run_scenario(parse_scenario(BASE))
    replay_data = json.loads(json.dumps(BASE))
    replay_data["attackers"]["attack"] = {
        "kind": "scripted",
        "ticks": art.summary["attack_schedules"],
    }
    replay = run_scenario(parse_scenario(replay_data))
    assert replay.result.records == art.result.records
    assert replay.result.snapshots == art.result.snapshots


def at_tick_cap():
    # an attacked run at the largest clock, where a phase in radians would not round-trip
    data = json.loads((CONFIG_DIR / "circle24_quorum_n_attacked.json").read_text())
    tpp = MAX_TICKS_PER_PERIOD
    data["clock"] = {"ticks_per_period": tpp, "epsilon_ticks": tpp // 100}
    data["attackers"]["attack"]["horizon_ticks"] = 7 * tpp // 2
    data["horizon_ticks"] = 5 * tpp
    return data


REPLAYS = {
    **{f"{path.stem}-seed{seed}": (json.loads(path.read_text()), seed)
       for path in sorted(CONFIG_DIR.glob("circle24_*.json")) for seed in range(4)},
    # four seeds, like the configs above: seed 0 draws no phase that radians would move
    **{f"tick-cap-seed{seed}": (at_tick_cap(), seed) for seed in range(4)},
}


@pytest.mark.parametrize("data,seed", REPLAYS.values(), ids=REPLAYS.keys())
def test_run_replays_from_its_own_summary(tmp_path, data, seed):
    # the summary's initial phases and attack trains are the whole run: a
    # config built from them, under another seed, writes the same files
    original = run_scenario(parse_scenario({**data, "seed": seed}))
    summary = original.summary
    replay_data = {**data, "seed": seed + 1,
                   "initial_phases": {"ticks": summary["initial_phases_ticks"]}}
    if "attackers" in data:
        replay_data["attackers"] = {**data["attackers"], "attack": {
            "kind": "scripted", "ticks": summary["attack_schedules"]}}
    # through JSON, as a config file is read
    replay = run_scenario(parse_scenario(json.loads(json.dumps(replay_data))))
    for name, artifacts in (("original", original), ("replay", replay)):
        (tmp_path / name).mkdir()
        write_run_outputs(artifacts, tmp_path / name)
    for f in ("events.jsonl", "phases.csv"):
        assert (tmp_path / "replay" / f).read_text() == (tmp_path / "original" / f).read_text()
    # phases.csv prints 9 digits; the summary holds every initial phase to the tick
    assert {**replay.summary, "seed": seed, "config_digest": None} == {
        **summary, "config_digest": None}


def test_sweep_parallelism_does_not_change_bytes():
    sweep_data = {"base": dict(BASE), "runs": 6, "seed_base": 100, "workers": 1}
    agg1, runs1 = run_sweep(parse_sweep(sweep_data))
    sweep_data["workers"] = 2
    agg2, runs2 = run_sweep(parse_sweep(sweep_data))
    assert json.dumps(agg1, sort_keys=True) == json.dumps(agg2, sort_keys=True)
    assert runs1 == runs2
    assert [s["seed"] for s in runs1] == list(range(100, 106))


@pytest.mark.parametrize("runs,workers,pools", [(1, 500, []), (3, 500, [3]), (6, 2, [2])])
def test_sweep_starts_no_more_workers_than_runs(monkeypatch, runs, workers, pools):
    # a pool starts all its workers at the first task, so the count is capped
    # by the run count; the stand-in pool records it and maps serially
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    sweep_data = {"base": dict(BASE), "runs": runs, "seed_base": 100, "workers": workers}
    aggregate, _ = run_sweep(parse_sweep(sweep_data))
    assert started == pools
    sweep_data["workers"] = 1
    assert aggregate == run_sweep(parse_sweep(sweep_data))[0]


def test_sweep_aggregate_content():
    sweep = parse_sweep({"base": dict(BASE), "runs": 4, "seed_base": 10})
    aggregate, summaries = run_sweep(sweep)
    assert aggregate["runs"] == 4
    assert aggregate["synced_runs"] == 4
    assert aggregate["synced_fraction"] == 1.0
    assert aggregate["counterexample_seeds"] == []
    assert aggregate["sync_tick_min"] <= aggregate["sync_tick_median"] <= aggregate["sync_tick_max"]
    assert aggregate["conditions"]["attacker_bound_ok"] is True
    assert all(s["periods_exact"] for s in summaries)


def test_sweep_validation():
    with pytest.raises(ConfigError, match=r"^sweep needs \['base'\]$"):
        parse_sweep({"runs": 3})
    with pytest.raises(ConfigError):
        parse_sweep({"base": dict(BASE), "runs": 0})
    with pytest.raises(ConfigError):
        parse_sweep({"base": dict(BASE), "runs": 2, "bogus": True})
    with pytest.raises(ConfigError):
        parse_sweep({"base": dict(BASE), "runs": "3"})
    with pytest.raises(ConfigError):
        parse_sweep({"base": dict(BASE), "runs": 2, "write_run_summaries": "no"})


def test_overbudget_dense_attack_breaks_guarantee_bound():
    # one attacker over the degree-quorum budget, pulsing at channel capacity:
    # synchronization is no longer achieved within the guaranteed 1.5 periods,
    # while the within-budget variant of the same attack meets the bound
    train = list(range(0, 6_000_001, 10_001))

    def dense(ids):
        return parse_scenario({
            "topology": {"kind": "circle", "n": 24, "diameter": 40, "range": 39},
            "mechanism": {"kind": "quorum_degree"},
            "attackers": {"ids": ids,
                          "attack": {"kind": "scripted",
                                     "ticks": {str(a): train for a in ids}}},
            "horizon_ticks": 6_000_000,
            "seed": 5,
        })

    over = run_scenario(dense([1, 8, 20])).summary
    within = run_scenario(dense([1, 8])).summary
    assert within["sync_tick"] is not None and within["sync_tick"] <= 1_500_000
    assert over["sync_tick"] is None or over["sync_tick"] > 1_500_000
