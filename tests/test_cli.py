import json
import os
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from oracles import run_file_texts
from pcosync import cli
from pcosync.adversary import MAX_TOTAL_PULSES
from pcosync.cli import main, write_run_outputs
from pcosync.core import MAX_TICKS_PER_PERIOD, TickClock
from pcosync.engine import FIRED, Instant, SimulationResult
from pcosync.mechanisms import check_sync_conditions
from pcosync.scenario import (
    MAX_HORIZON_PERIODS,
    MAX_RUNS,
    parse_scenario,
    parse_sweep,
    run_scenario,
)
from pcosync.topology import MAX_CIRCLE_NODES

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


def _validate_stdout(kind, m, degree_bound, max_allowed, attacker_check, verdict):
    return (f"mechanism: {kind}\n"
            f"N=24  d=20  attackers M={m}\n"
            f"degree condition: d > {degree_bound}: pass\n"
            f"attacker bound: M <= {max_allowed}: {attacker_check}\n"
            f"{verdict}\n")


MET = "conditions met - synchronization guaranteed"

# the full stdout and exit code of `pcosync validate` on every shipped circle24 config
VALIDATE_OUTPUTS = {
    "circle24_conventional_clean.json": (
        0, "mechanism: conventional\n"
           "no synchronization guarantee conditions apply to this mechanism\n"),
    "circle24_quorum_degree_attacked.json": (
        0, _validate_stdout("quorum_degree", 2, 18, 2, "pass", MET)),
    "circle24_quorum_degree_clean.json": (
        0, _validate_stdout("quorum_degree", 0, 18, 2, "pass", MET)),
    "circle24_quorum_degree_overbudget.json": (
        2, _validate_stdout("quorum_degree", 3, 18, 2, "FAIL",
                            "theorem conditions not met - synchronization not guaranteed"
                            " (running is still permitted)")),
    "circle24_quorum_n_attacked.json": (0, _validate_stdout("quorum_n", 3, 16, 3, "pass", MET)),
    "circle24_quorum_n_clean.json": (0, _validate_stdout("quorum_n", 0, 16, 3, "pass", MET)),
}


def test_validate_outputs_are_pinned(capsys):
    assert sorted(p.name for p in CONFIG_DIR.glob("circle24_*.json")) == sorted(VALIDATE_OUTPUTS)
    for name, (code, out) in VALIDATE_OUTPUTS.items():
        assert main(["validate", "--config", str(CONFIG_DIR / name)]) == code, name
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, ""), name


def test_missing_config_gets_one_error_line(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot read {path}: "), err


def test_help_exits_zero(capsys):
    # only argparse's usage error (exit 2) becomes exit 1; --help keeps its exit 0
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pcosync ")


class JumpsOutOfTheCycle:
    """Fires at every top-reach and answers every pulse with a jump to phase -1."""

    def fires(self, state, now):
        return True

    def on_reach_top(self, state, now):
        return "zero"

    def on_pulse(self, state, now):
        return SimpleNamespace(kind="jump", jump_to=-1)


def test_broken_mechanism_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("pcosync.mechanisms.build_mechanism",
                        lambda desc, clock, degree: JumpsOutOfTheCycle())
    code = main(["run", "--config", write_config(tmp_path, small_scenario()),
                 "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 3
    assert len(err) == 1 and err[0].startswith("runtime error: oscillator "), err


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


def test_sweep_workers_do_not_change_aggregate(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a real pool of 2, even on one CPU
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


def test_sweep_flags_set_their_fields(tmp_path, capsys, monkeypatch):
    # --seed sets seed_base, and --workers 1 keeps the sweep out of any pool
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sweep = {"base": small_scenario(), "runs": 2, "seed_base": 7, "workers": 2}
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, sweep), "--out-dir", str(out),
                 "--seed", "40", "--workers", "1"]) == 0
    capsys.readouterr()
    assert json.loads((out / "aggregate.json").read_text())["seed_base"] == 40


def test_sweep_prints_its_counterexample_seeds(tmp_path, capsys):
    # half a period is too short for any run to synchronize
    sweep = {"base": small_scenario(horizon=500_000), "runs": 2, "seed_base": 5}
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, sweep), "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out == (f"0/2 runs synchronized\n"
                                       f"counterexample seeds: [5, 6]\n"
                                       f"aggregate written to {out / 'aggregate.json'}\n")


@pytest.mark.parametrize("runs,flag", [
    (MAX_RUNS + 1, []),
    (2, ["--runs", str(MAX_RUNS + 1)]),
], ids=["config", "flag"])
def test_sweep_runs_over_the_cap_gets_one_error_line(tmp_path, capsys, runs, flag):
    # rejected as the config is parsed: no run starts
    sweep = {"base": small_scenario(), "runs": runs}
    code = main(["sweep", "--config", write_config(tmp_path, sweep),
                 "--out-dir", str(tmp_path / "out"), *flag])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err == [f"error: runs must be at most {MAX_RUNS}, not {MAX_RUNS + 1}"]


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


def assert_run_files_are_dumps(artifacts, out_dir):
    write_run_outputs(artifacts, out_dir)
    for f, text in run_file_texts(artifacts.result).items():
        got = (out_dir / f).read_text(encoding="utf-8").splitlines(keepends=True)
        want = text.splitlines(keepends=True)
        # the first differing line, not a diff of megabytes
        first = next((k for k, (g, w) in enumerate(zip(got, want)) if g != w),
                     min(len(got), len(want)))
        assert first == len(got) == len(want), (f, first, got[first:first + 1],
                                                want[first:first + 1])


@pytest.mark.parametrize("name,horizon", [
    ("circle24_conventional_clean.json", None),  # rows hold several distinct phases
    ("circle24_quorum_n_attacked.json", None),
    ("circle24_quorum_n_attacked.json", 12_345_678),  # off the 1/100-period cadence
    ("circle24_quorum_n_clean.json", None),  # synchronizes without an attack
    ("circle24_quorum_degree_overbudget.json", None),  # more attackers than the bound allows
])
def test_run_files_are_dumps_of_the_derived_views(tmp_path, name, horizon):
    data = json.loads((CONFIG_DIR / name).read_text())
    if horizon is not None:
        data["horizon_ticks"] = horizon
    assert_run_files_are_dumps(run_scenario(parse_scenario(data)), tmp_path)


@pytest.mark.parametrize("seed", [1, 2])
def test_long_run_files_are_dumps_of_the_derived_views(tmp_path, seed):
    """The 200-period input of the benchmark's long_run: most instants are filled in after
    the certified joint reset, and seq runs past 10^4."""
    data = json.loads((CONFIG_DIR / "circle24_quorum_n_attacked.json").read_text())
    data.update(seed=seed, horizon_ticks=200 * data["clock"]["ticks_per_period"])
    artifacts = run_scenario(parse_scenario(data))
    events = [e for _, _, e in artifacts.result.instants if e]
    assert len({id(e) for e in events}) < len(events) / 2  # filled joint fires share one
    assert_run_files_are_dumps(artifacts, tmp_path)


def hand_built_run(initial, instants, horizon, ticks_per_period=1_000):
    """A completed run of ``len(initial)`` legitimate oscillators on a complete graph.

    ``instants`` holds (tick, offsets after it), each firing oscillator 0, or
    (tick, offsets after it, the oscillators it fires). At 1,000 ticks per
    period a cadence row falls every 10 ticks; below 100 ticks, every tick.
    """
    n = len(initial)
    result = SimulationResult(
        clock=TickClock(ticks_per_period, 10), legit_ids=tuple(range(n)), attacker_ids=(),
        adjacency=tuple(tuple(j for j in range(n) if j != i) for i in range(n)),
        horizon=horizon, initial_offsets=initial, final_offsets=instants[-1][1],
        instants=[Instant(t, offsets, tuple((FIRED, i) for i in (fired[0] if fired else (0,))))
                  for t, offsets, *fired in instants])
    return SimpleNamespace(result=result, summary={})


def seq_blocks_run(n, fired_per_instant):
    """``n`` oscillators kept at phase 0; the instant at tick 100k fires the k-th tuple of
    oscillators, each to n - 1 receivers, so its deliveries take the next seqs in blocks."""
    instants = [(100 * k, (-100 * k,) * n, fired) for k, fired in enumerate(fired_per_instant, 1)]
    return hand_built_run((0,) * n, instants, 100 * len(fired_per_instant) + 50)


# Tails are built once per first phase `offsets[0] + t` and dropped when the offsets
# relative to the first one change; each case writes a row that a stale tail would spoil.
# A seq is written as its hundreds and its last two digits; the seq-* cases put block
# ends on either side of each place where that split changes.
HAND_BUILT_RUNS = {
    # rows 20 and 30 both have first phase 120, under different relative offsets
    "relative-offsets-change-at-one-first-phase": hand_built_run(
        (100, 300, 400), [(25, (90, 600, 700))], 60),
    # relative offsets A, B, then A again, where row 50 has row 20's first phase
    "relative-offsets-a-b-a": hand_built_run(
        (100, 300, 400), [(25, (90, 600, 700)), (45, (70, 270, 370))], 80),
    # a joint jump and a joint fire keep the relative offsets (all zero) but move the
    # first phase off the tick's place in the period: row 1000 is not row 0's phase
    "joint-jump-keeps-relative-offsets": hand_built_run(
        (0, 0), [(300, (200, 200)), (800, (-800, -800)), (1800, (-1800, -1800))], 2_500),
    "single-oscillator": hand_built_run(
        (300,), [(700, (-700,)), (1300, (-800,)), (1800, (-1800,))], 2_500),
    "horizon-off-the-cadence": hand_built_run(
        (100, 300, 400), [(25, (90, 600, 700)), (400, (-400, -400, -400))], 1_234),
    # 250 receivers: the first block is seqs 1-250, the second 251-500 crosses 4 hundreds
    "seq-block-spans-several-hundreds": seq_blocks_run(251, [(0,), (0, 1)]),
    "seq-blocks-end-at-99": seq_blocks_run(34, [(0, 1, 2), (3,)]),  # 1-99, then 100-132
    "seq-blocks-end-at-100": seq_blocks_run(51, [(0,), (1, 2)]),  # 1-50, 51-100, 101-150
    "seq-blocks-end-at-999": seq_blocks_run(38, [tuple(range(27)), (0,)]),  # ..., 1000-1036
    "seq-blocks-end-at-1000": seq_blocks_run(41, [tuple(range(25)), (0, 1)]),  # ..., 1001-1080
    # below 100 ticks per period a cadence row falls every tick
    "cadence-of-one-tick": hand_built_run(
        (10, 30, 40), [(20, (-20, 5, 25)), (35, (-35, -35, -35))], 70, ticks_per_period=50),
}


@pytest.mark.parametrize("case", HAND_BUILT_RUNS)
def test_hand_built_run_files_are_dumps_of_the_derived_views(tmp_path, case):
    assert_run_files_are_dumps(HAND_BUILT_RUNS[case], tmp_path)


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


@pytest.mark.parametrize("name,guaranteed", [
    ("circle24_conventional_clean.json", False),  # no guarantee: None
    ("circle24_quorum_n_attacked.json", True),
])
def test_run_conditions_are_check_sync_conditions(name, guaranteed):
    config = parse_scenario(json.loads((CONFIG_DIR / name).read_text()))
    conditions = run_scenario(config).summary["conditions"]
    assert conditions == check_sync_conditions(config.topology, config.mechanism_desc["kind"],
                                               len(config.attacker_ids))
    assert (conditions is not None) == guaranteed
    if guaranteed:
        assert list(conditions) == ["mechanism", "n", "d", "m", "degree_bound", "degree_ok",
                                    "attacker_bound_ok", "max_allowed_attackers"]


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


def test_outputs_keep_their_newlines_where_the_platform_translates_them(
        tmp_path, capsys, monkeypatch):
    # an `open` whose default newline is "\r\n", as on Windows: the outputs must not take it
    def crlf_open(file, mode="r", *args, newline=None, **kwargs):
        return open(file, mode, *args, newline="\r\n" if newline is None else newline, **kwargs)

    monkeypatch.setattr(cli, "open", crlf_open, raising=False)
    cfg = write_config(tmp_path, small_scenario())
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 0
    sweep = {"base": small_scenario(), "runs": 2, "seed_base": 1, "write_run_summaries": True}
    assert main(["sweep", "--config", write_config(tmp_path, sweep, "sweep.json"),
                 "--out-dir", str(tmp_path / "sweep")]) == 0
    capsys.readouterr()
    for f in ("run/events.jsonl", "run/phases.csv", "run/summary.json",
              "sweep/aggregate.json", "sweep/run_1.json", "sweep/run_2.json"):
        data = (tmp_path / f).read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, f


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
    "circle-n-over-cap": {"kind": "circle", "n": MAX_CIRCLE_NODES + 1, "diameter": 40,
                          "range": 1},
    "circle-n-overflows-float": {"kind": "circle", "n": 10**400, "diameter": 40, "range": 39},
    "not-an-object": [],
}

BAD_SCENARIOS = {
    "total-pulses-string": attacked_scenario(total_pulses="x"),
    "clock-list": with_fields(small_scenario(), clock=[]),
    "seed-bool": with_fields(small_scenario(), seed=True),
    "ids-string": attacked_scenario(ids="12"),
    "coupling-string": with_fields(small_scenario(),
                                   mechanism={"kind": "conventional", "coupling": "x"}),
    "ticks-strings": with_fields(small_scenario(), initial_phases={"ticks": ["a"] * 8}),
    "ticks-over-a-period": with_fields(small_scenario(), initial_phases={
        "ticks": [0] * 7 + [1_000_001]}),
    "ticks-negative": with_fields(small_scenario(), initial_phases={"ticks": [-1] + [0] * 7}),
    "ticks-fraction": with_fields(small_scenario(), initial_phases={"ticks": [0.5] + [0] * 7}),
    "ticks-one-short": with_fields(small_scenario(), initial_phases={"ticks": [0] * 7}),
    # the removed radians form is an unknown field
    "radians": with_fields(small_scenario(), initial_phases={"radians": [0.1] * 8}),
    "coupling-overflows-float": with_fields(small_scenario(),
                                            mechanism={"kind": "conventional", "coupling": 10**400}),
    "scripted-key": with_fields(small_scenario(),
                                attackers={"ids": [1], "attack": {"kind": "scripted",
                                                                  "ticks": {"x": [5]}}}),
    "output-section": with_fields(small_scenario(), output={"arc_trace_in_summary": True}),
    "attack-unknown-field": attacked_scenario(period_ticks=5),
    "phases-unknown-field": with_fields(small_scenario(), initial_phases={
        "random_uniform": "phases", "ticks_typo": [1]}),
    "phases-both-kinds": with_fields(small_scenario(), initial_phases={
        "random_uniform": "phases", "ticks": [0] * 8}),
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
    # cap + 1 is odd, so the next even value is the one only the cap rejects
    "ticks-per-period-over-cap": with_fields(shipped_config(), clock={
        "ticks_per_period": MAX_TICKS_PER_PERIOD + 2, "epsilon_ticks": 10_000}),
    "ticks-per-period-overflows-float": with_fields(shipped_config(), clock={
        "ticks_per_period": 10**400, "epsilon_ticks": 10_000}),
    "horizon-over-cap": with_fields(shipped_config(),
                                    horizon_ticks=MAX_HORIZON_PERIODS * 1_000_000 + 1),
    "horizon-overflows-float": with_fields(shipped_config(), horizon_ticks=10**400),
    # a horizon so sparse that only the cap, not the channel capacity, rejects the budget
    "total-pulses-over-cap": shipped_with_attack(kind="random_budget",
                                                 total_pulses=MAX_TOTAL_PULSES + 1,
                                                 horizon_ticks=10**15),
    "total-pulses-far-over-cap": shipped_with_attack(kind="random_budget", total_pulses=10**12,
                                                     horizon_ticks=10**15),
    # a missing section and a ticks field that is not a mapping, in the core message forms
    "no-topology": {k: v for k, v in small_scenario().items() if k != "topology"},
    "no-mechanism": {k: v for k, v in small_scenario().items() if k != "mechanism"},
    "ids-without-attack": with_fields(small_scenario(), attackers={"ids": [1]}),
    "scripted-ticks-list": shipped_with_attack(kind="scripted", ticks=[5, 700_000]),
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


def sparse_circle_at_cap():
    data = shipped_config()
    del data["attackers"]  # its attacker ids are checked against n only
    data["topology"] = {"kind": "circle", "n": MAX_CIRCLE_NODES, "diameter": 40, "range": 1}
    data["mechanism"] = {"kind": "quorum_n", "n_known": MAX_CIRCLE_NODES}
    return data


@pytest.mark.parametrize("data,code,line", [
    (with_fields(shipped_config(), clock={"ticks_per_period": MAX_TICKS_PER_PERIOD,
                                          "epsilon_ticks": 10_000}), 0, "N=24  d=20"),
    (sparse_circle_at_cap(), 2, f"N={MAX_CIRCLE_NODES}  d=16  attackers M=0"),
    (with_fields(shipped_config(), horizon_ticks=MAX_HORIZON_PERIODS * 1_000_000), 0,
     "N=24  d=20"),
], ids=["ticks-per-period-at-cap", "circle-n-at-cap", "horizon-at-cap"])
def test_validate_accepts_each_cap(tmp_path, capsys, data, code, line):
    # validate builds the run but does not start the engine
    assert main(["validate", "--config", write_config(tmp_path, data)]) == code
    captured = capsys.readouterr()
    assert captured.err == "" and line in captured.out


def test_parse_accepts_a_budget_at_the_cap():
    # parsed only: validate would draw a million pulses
    data = shipped_with_attack(kind="random_budget", total_pulses=MAX_TOTAL_PULSES,
                               horizon_ticks=10**15)
    assert parse_scenario(data).attack_desc["total_pulses"] == MAX_TOTAL_PULSES


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
