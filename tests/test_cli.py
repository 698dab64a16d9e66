import json
from dataclasses import replace
from pathlib import Path

import pytest

from oracles import run_file_texts
from pcosync import cli
from pcosync.cli import main, write_run_outputs
from pcosync.scenario import parse_scenario, parse_sweep, run_scenario

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data) + "\n")
    return str(path)


def small_scenario(seed=1, horizon=3_000_000):
    return {
        "clock": {"ticks_per_period": 1_000_000, "epsilon_ticks": 10_000},
        "topology": {"kind": "circle", "n": 8, "diameter": 40, "range": 39},
        "mechanism": {"kind": "quorum_n", "n_known": 8},
        "initial_phases": {"random_uniform": "phases"},
        "horizon_ticks": horizon,
        "seed": seed,
    }


def test_validate_passing_config(capsys):
    code = main(["validate", "--config", str(CONFIG_DIR / "circle24_quorum_n_attacked.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "synchronization guaranteed" in out
    assert "d=20" in out


def test_validate_failing_config(capsys):
    code = main(["validate", "--config", str(CONFIG_DIR / "circle24_quorum_degree_overbudget.json")])
    out = capsys.readouterr().out
    assert code == 2
    assert "not guaranteed" in out


def test_validate_conventional_has_no_conditions(capsys):
    code = main(["validate", "--config", str(CONFIG_DIR / "circle24_conventional_clean.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "no synchronization guarantee conditions" in out


def test_validate_attack_free_configs(capsys):
    for name in ("circle24_quorum_n_clean.json", "circle24_quorum_degree_clean.json"):
        assert main(["validate", "--config", str(CONFIG_DIR / name)]) == 0
    capsys.readouterr()


def test_bad_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["validate", "--config", str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",  # not UTF-8
    b"[" * 100_000 + b"]" * 100_000,  # nested too deeply for the parser
], ids=["not-utf8", "nested-too-deeply"])
def test_unparsable_config_gets_one_error_line(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path} "), err


def test_inconsistent_config_exits_one(tmp_path, capsys):
    data = small_scenario()
    del data["mechanism"]["n_known"]
    assert main(["run", "--config", write_config(tmp_path, data),
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert "n_known" in capsys.readouterr().err


def test_usage_error_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps the usage line to the terminal width
    monkeypatch.setenv("NO_COLOR", "1")
    assert main(["run"]) == 1  # missing --config
    assert capsys.readouterr().err == (
        "usage: pcosync run [-h] --config CONFIG [--seed SEED] [--horizon TICKS]"
        " [--out-dir OUT_DIR]\n"
        "pcosync run: error: the following arguments are required: --config\n"
    )


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--horizon", "5"]])
def test_validate_takes_no_scenario_overrides(capsys, flag):
    # the conditions depend only on topology, mechanism and attackers
    config = str(CONFIG_DIR / "circle24_quorum_n_attacked.json")
    assert main(["validate", "--config", config, *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"pcosync: error: unrecognized arguments: {' '.join(flag)}\n")


def test_run_writes_deterministic_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, small_scenario())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", cfg, "--out-dir", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--out-dir", str(out_b)]) == 0
    capsys.readouterr()
    for name in ("events.jsonl", "phases.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["seed"] == 1
    assert summary["sync_tick"] is not None
    first_event = json.loads((out_a / "events.jsonl").read_text().splitlines()[0])
    assert set(first_event) >= {"tick", "type"}
    header = (out_a / "phases.csv").read_text().splitlines()[0]
    assert header.startswith("tick,seconds,arc_rad,phase_rad_0")


def test_run_seed_override_changes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, small_scenario())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", cfg, "--out-dir", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--seed", "9", "--out-dir", str(out_b)]) == 0
    capsys.readouterr()
    a = json.loads((out_a / "summary.json").read_text())
    b = json.loads((out_b / "summary.json").read_text())
    assert b["seed"] == 9
    assert a["config_digest"] != b["config_digest"]


def test_run_horizon_override(tmp_path, capsys):
    cfg = write_config(tmp_path, small_scenario())
    out = tmp_path / "short"
    assert main(["run", "--config", cfg, "--horizon", "2000000",
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["horizon_ticks"] == 2_000_000
    last_row = (out / "phases.csv").read_text().splitlines()[-1]
    assert last_row.startswith("2000000,")


def test_sweep_workers_do_not_change_aggregate(tmp_path, capsys):
    sweep = {"base": small_scenario(), "runs": 5, "seed_base": 50, "workers": 1}
    out_a = tmp_path / "w1"
    out_b = tmp_path / "w2"
    assert main(["sweep", "--config", write_config(tmp_path, sweep, "s1.json"),
                 "--out-dir", str(out_a)]) == 0
    sweep["workers"] = 2
    assert main(["sweep", "--config", write_config(tmp_path, sweep, "s2.json"),
                 "--out-dir", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "aggregate.json").read_bytes() == (out_b / "aggregate.json").read_bytes()
    aggregate = json.loads((out_a / "aggregate.json").read_text())
    assert aggregate["runs"] == 5
    assert aggregate["synced_runs"] == 5


def test_sweep_run_summaries_written_on_request(tmp_path, capsys):
    sweep = {"base": small_scenario(), "runs": 3, "seed_base": 7,
             "write_run_summaries": True}
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, sweep),
                 "--out-dir", str(out), "--runs", "2"]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.glob("run_*.json")) == ["run_7.json", "run_8.json"]


@pytest.mark.parametrize("command,out", [
    ("run", "file"),  # the out-dir is an existing file
    ("sweep", "file/x"),  # the out-dir lies below one
    ("run", "dir"),  # the out-dir holds a directory named events.jsonl
])
def test_unusable_out_dir_gets_one_error_line(tmp_path, capsys, command, out):
    (tmp_path / "file").write_text("")
    (tmp_path / "dir" / "events.jsonl").mkdir(parents=True)
    data = small_scenario()
    if command == "sweep":
        data = {"base": data, "runs": 2, "seed_base": 1}
    code = main([command, "--config", write_config(tmp_path, data),
                 "--out-dir", str(tmp_path / out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {tmp_path / out}: "), err


@pytest.mark.parametrize("name,horizon", [
    ("circle24_conventional_clean.json", None),  # rows hold several distinct phases
    ("circle24_quorum_n_attacked.json", None),
    ("circle24_quorum_n_attacked.json", 12_345_678),  # off the 1/100-period cadence
])
def test_run_files_are_dumps_of_the_derived_views(tmp_path, name, horizon):
    data = json.loads((CONFIG_DIR / name).read_text())
    if horizon is not None:
        data["horizon_ticks"] = horizon
    artifacts = run_scenario(parse_scenario(data))
    write_run_outputs(artifacts, tmp_path)
    for f, text in run_file_texts(artifacts.result).items():
        got = (tmp_path / f).read_text(encoding="utf-8").splitlines(keepends=True)
        want = text.splitlines(keepends=True)
        # the first differing line, not a diff of megabytes
        first = next((k for k, (g, w) in enumerate(zip(got, want)) if g != w),
                     min(len(got), len(want)))
        assert first == len(got) == len(want), (f, first, got[first:first + 1],
                                                want[first:first + 1])


@pytest.mark.parametrize("name", [
    "circle24_conventional_clean.json",  # no sync, no conditions
    "circle24_quorum_n_attacked.json",
])
def test_run_summary_is_summary_json(tmp_path, capsys, name):
    path = CONFIG_DIR / name
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    summary = run_scenario(parse_scenario(json.loads(path.read_text()))).summary
    assert summary == json.loads((tmp_path / "summary.json").read_text())


def test_sweep_run_files_are_run_summaries(tmp_path, capsys):
    data = {"base": small_scenario(), "runs": 3, "seed_base": 7, "write_run_summaries": True}
    assert main(["sweep", "--config", write_config(tmp_path, data),
                 "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    base = parse_sweep(data).base
    for seed in (7, 8, 9):
        on_disk = json.loads((tmp_path / "out" / f"run_{seed}.json").read_text())
        assert on_disk == run_scenario(replace(base, seed=seed)).summary


class WriteOnlyFile:
    """A file opened for writing that offers write and the context protocol, nothing else."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def test_outputs_need_only_write(tmp_path, capsys, monkeypatch):
    def write_only_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return WriteOnlyFile(fh) if "w" in mode else fh

    monkeypatch.setattr(cli, "open", write_only_open, raising=False)
    cfg = write_config(tmp_path, small_scenario())
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 0
    sweep = {"base": small_scenario(), "runs": 2, "seed_base": 1, "write_run_summaries": True}
    assert main(["sweep", "--config", write_config(tmp_path, sweep, "sweep.json"),
                 "--out-dir", str(tmp_path / "sweep")]) == 0
    capsys.readouterr()
    for f in ("run/events.jsonl", "run/phases.csv", "run/summary.json",
              "sweep/aggregate.json", "sweep/run_1.json", "sweep/run_2.json"):
        assert (tmp_path / f).stat().st_size > 0, f


def test_topology_text_json_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, small_scenario())
    assert main(["topology", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "network degree" in text
    assert main(["topology", "--config", cfg, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 8
    assert data["network_degree"] == 6  # the antipodal chord equals the diameter
    assert len(data["nodes"]) == 8
    assert main(["topology", "--config", cfg, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "id,indegree,outdegree,degree,out_neighbors"
    assert len(lines) == 9


def test_topology_accepts_bare_description(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "explicit", "adjacency": [[1], [0]]})
    assert main(["topology", "--config", cfg, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["network_degree"] == 1


def attacked_scenario(ids=(1,), **attack):
    data = small_scenario()
    data["attackers"] = {"ids": ids, "attack": {"kind": "random_budget", "total_pulses": 4,
                                                "horizon_ticks": 1_000_000, **attack}}
    return data


def with_fields(data, **fields):
    data.update(fields)
    return data


def shipped_config():
    # a config that `validate` passes (exit 0)
    return json.loads((CONFIG_DIR / "circle24_quorum_n_attacked.json").read_text())


def shipped_with_attack(**attack):
    data = shipped_config()
    data["attackers"]["attack"] = attack
    return data


BAD_TOPOLOGIES = {
    "float-node-index": {"kind": "explicit", "adjacency": [[1], [0.5]]},
    "bool-node-index": {"kind": "explicit", "adjacency": [[True], [0]]},
    "row-not-a-list": {"kind": "explicit", "adjacency": [1, [0]]},
    "circle-without-range": {"kind": "circle", "n": 8, "diameter": 40},
    "circle-n-string": {"kind": "circle", "n": "abc", "diameter": 40, "range": 39},
    "circle-n-fraction": {"kind": "circle", "n": 24.9, "diameter": 40, "range": 39},
    "circle-diameter-overflows-float": {"kind": "circle", "n": 8, "diameter": 10**400,
                                        "range": 39},
    "not-an-object": [],
}

BAD_SCENARIOS = {
    "total-pulses-string": attacked_scenario(total_pulses="x"),
    "clock-list": with_fields(small_scenario(), clock=[]),
    "seed-bool": with_fields(small_scenario(), seed=True),
    "ids-string": attacked_scenario(ids="12"),
    "coupling-string": with_fields(small_scenario(),
                                   mechanism={"kind": "conventional", "coupling": "x"}),
    "radians-strings": with_fields(small_scenario(), initial_phases={"radians": ["a"] * 8}),
    "coupling-overflows-float": with_fields(small_scenario(),
                                            mechanism={"kind": "conventional", "coupling": 10**400}),
    "scripted-key": with_fields(small_scenario(),
                                attackers={"ids": [1], "attack": {"kind": "scripted",
                                                                  "ticks": {"x": [5]}}}),
    "output-section": with_fields(small_scenario(), output={"arc_trace_in_summary": True}),
    "attack-unknown-field": attacked_scenario(period_ticks=5),
    "phases-unknown-field": with_fields(small_scenario(), initial_phases={
        "random_uniform": "phases", "radians_typo": [1]}),
    "phases-both-kinds": with_fields(small_scenario(), initial_phases={
        "random_uniform": "phases", "radians": [0.1] * 8}),
    "phases-scope-int": with_fields(small_scenario(), initial_phases={"random_uniform": 5}),
    "seed-scope-int": attacked_scenario(seed_scope=7),
    "scripted-closer-than-epsilon": shipped_with_attack(kind="scripted", ticks={"1": [5, 6]}),
    "scripted-gap-of-epsilon": shipped_with_attack(kind="scripted", ticks={"1": [0, 10_000]}),
    "attack-kind-periodic": shipped_with_attack(kind="periodic", period_ticks=250_000,
                                                horizon_ticks=1_000_000),
    "attack-kind-stealthy": shipped_with_attack(kind="stealthy", horizon_ticks=1_000_000),
    "scripted-attacker-twice": shipped_with_attack(kind="scripted",
                                                   ticks={"1": [5], "01": [700_000]}),
    "budget-over-capacity": shipped_with_attack(kind="random_budget", total_pulses=1_000_000,
                                                horizon_ticks=100_000),
    "n-known-not-topology-n": with_fields(shipped_config(),
                                          mechanism={"kind": "quorum_n", "n_known": 100}),
    **{f"topology-{name}": with_fields(small_scenario(), topology=topo)
       for name, topo in BAD_TOPOLOGIES.items()},
}


@pytest.mark.parametrize("command,data", [
    *(("validate", data) for data in BAD_SCENARIOS.values()),
    *(("topology", topo) for topo in BAD_TOPOLOGIES.values()),
], ids=[*(f"validate-{k}" for k in BAD_SCENARIOS), *(f"topology-{k}" for k in BAD_TOPOLOGIES)])
def test_malformed_config_gets_one_error_line(tmp_path, capsys, command, data):
    code = main([command, "--config", write_config(tmp_path, data)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_single_pulse_scripted_train_is_legal(tmp_path, capsys):
    # one pulse has no gap to check, so it is legal at any tick from 0 on
    data = shipped_with_attack(kind="scripted", ticks={"1": [0]})
    assert main(["validate", "--config", write_config(tmp_path, data)]) == 0
    capsys.readouterr()


def test_shipped_configs_parse(capsys):
    for path in CONFIG_DIR.glob("circle24_*.json"):
        code = main(["validate", "--config", str(path)])
        assert code in (0, 2), path.name
    capsys.readouterr()
