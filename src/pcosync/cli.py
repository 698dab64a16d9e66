"""Command-line interface: validate, run, sweep, topology.

Exit codes: 0 success, 1 usage or configuration error, 2 guarantee-condition
validation failure, 3 runtime error. All file outputs are byte-deterministic
for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import TWO_PI, ConfigError
from .engine import FIRED, RECEIVED, EngineError
from .metrics import containing_arc_ticks
from .scenario import (
    build_simulation,
    conditions_for,
    parse_scenario,
    parse_sweep,
    run_scenario,
    run_sweep,
)
from .topology import load_topology

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
        raise ConfigError(f"{path} cannot be parsed: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return data


def _out_dir(path: str) -> Path:
    """The output directory, created before anything runs, so a path that
    cannot take the outputs fails at once, with one error line."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    return out_dir


def _fmt9(x: float) -> str:
    return f"{x:.9g}"


def cmd_validate(args) -> int:
    config = parse_scenario(_load_json(args.config))
    build_simulation(config)  # rejects what `run` rejects, such as an attack that cannot be scheduled
    report = conditions_for(config)
    print(f"mechanism: {config.mechanism_desc['kind']}")
    if report is None:
        print("no synchronization guarantee conditions apply to this mechanism")
        return EXIT_OK
    print(f"N={report.n}  d={report.d}  attackers M={report.m}")
    print(f"degree condition: d > {report.degree_bound}: {'pass' if report.degree_ok else 'FAIL'}")
    print(
        f"attacker bound: M <= {report.max_allowed_attackers}: "
        f"{'pass' if report.attacker_bound_ok else 'FAIL'}"
    )
    if report.degree_ok and report.attacker_bound_ok:
        print("conditions met - synchronization guaranteed")
        return EXIT_OK
    print("theorem conditions not met - synchronization not guaranteed (running is still permitted)")
    return EXIT_VALIDATION


def _event_lines(result):
    """events.jsonl, one chunk per instant.

    The same bytes as ``json.dumps(..., separators=(",", ":"))`` of each of
    ``result.iter_records()``: every field is an int or a fixed kind name.
    The middle of a ``received`` line is fixed per (receiver, sender), so
    it is built once per edge.
    """
    middles = [[f',"type":"{RECEIVED}","receiver":{r},"sender":{sender},"seq":' for r in row]
               for sender, row in enumerate(result.adjacency)]
    seq = 1  # seq of the next delivery
    for t, _, events in result.instants:
        if not events:
            continue
        head = f'{{"tick":{t}'
        chunk = []
        for kind, node in events:
            chunk.append(f'{head},"type":"{kind}","id":{node}}}\n')
            if kind == FIRED:
                mids = middles[node]
                chunk += [f"{head}{m}{q}}}\n" for q, m in enumerate(mids, seq)]
                seq += len(mids)
        yield "".join(chunk)


def _phase_lines(result):
    """phases.csv, one chunk per row; each distinct phase of a row is formatted once."""
    tpp = result.clock.ticks_per_period
    scale = TWO_PI / tpp
    header = ["tick", "seconds", "arc_rad"] + [f"phase_rad_{i}" for i in result.legit_ids]
    yield ",".join(header) + "\n"
    last = None
    for t, offsets in result.rows():
        if offsets is not last:  # the arc and the distinct offsets change only at instants
            last, arc = offsets, _fmt9(containing_arc_ticks(offsets, tpp) * scale)
            distinct = tuple(set(offsets))
            slots = [distinct.index(o) for o in offsets]
        cells = [f"{(o + t) * scale:.9g}" for o in distinct]
        yield f"{t},{t * scale:.9g},{arc},{','.join([cells[s] for s in slots])}\n"


def write_run_outputs(artifacts, out_dir: Path) -> None:
    """events.jsonl, phases.csv and summary.json of one completed run, in the existing out_dir."""
    for name, lines in (("events.jsonl", _event_lines), ("phases.csv", _phase_lines)):
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            for chunk in lines(artifacts.result):
                fh.write(chunk)
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(artifacts.summary, fh, indent=2)
        fh.write("\n")


def cmd_run(args) -> int:
    data = _load_json(args.config)
    if args.seed is not None:
        data["seed"] = args.seed
    if args.horizon is not None:
        data["horizon_ticks"] = args.horizon
    config = parse_scenario(data)
    out_dir = _out_dir(args.out_dir)
    artifacts = run_scenario(config)
    try:
        write_run_outputs(artifacts, out_dir)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc}") from None
    s = artifacts.summary
    if s["sync_tick"] is None:
        print(f"seed {s['seed']}: no synchronization within {s['horizon_ticks']} ticks "
              f"(final arc {_fmt9(s['final_arc_rad'])} rad)")
    else:
        print(f"seed {s['seed']}: synchronized at tick {s['sync_tick']} "
              f"({_fmt9(s['sync_seconds'])} s)")
    print(f"outputs written to {out_dir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    data = _load_json(args.config)
    if args.runs is not None:
        data["runs"] = args.runs
    if args.workers is not None:
        data["workers"] = args.workers
    if args.seed is not None:
        data["seed_base"] = args.seed
    sweep = parse_sweep(data)
    out_dir = _out_dir(args.out_dir)
    aggregate, summaries = run_sweep(sweep)
    files = [("aggregate.json", aggregate)]
    if sweep.write_run_summaries:
        files += [(f"run_{s['seed']}.json", s) for s in summaries]
    try:
        for name, doc in files:
            with open(out_dir / name, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc}") from None
    print(f"{aggregate['synced_runs']}/{aggregate['runs']} runs synchronized")
    if aggregate["counterexample_seeds"]:
        print(f"counterexample seeds: {aggregate['counterexample_seeds']}")
    print(f"aggregate written to {out_dir / 'aggregate.json'}")
    return EXIT_OK


def cmd_topology(args) -> int:
    data = _load_json(args.config)
    desc = data.get("topology", data)  # accept a bare topology document too
    topo, _ = load_topology(desc)
    if args.format == "json":
        out = {
            "n": topo.n,
            "network_degree": topo.network_degree,
            "nodes": [
                {
                    "id": i,
                    "indegree": topo.indegree[i],
                    "outdegree": topo.outdegree[i],
                    "degree": topo.degree[i],
                    "out_neighbors": list(topo.adjacency[i]),
                }
                for i in range(topo.n)
            ],
        }
        print(json.dumps(out, indent=2))
    elif args.format == "csv":
        print("id,indegree,outdegree,degree,out_neighbors")
        for i in range(topo.n):
            neigh = " ".join(map(str, topo.adjacency[i]))
            print(f"{i},{topo.indegree[i]},{topo.outdegree[i]},{topo.degree[i]},{neigh}")
    else:
        print(f"N={topo.n}  network degree d={topo.network_degree}")
        for i in range(topo.n):
            print(f"node {i}: d-={topo.indegree[i]} d+={topo.outdegree[i]} "
                  f"d={topo.degree[i]} -> {list(topo.adjacency[i])}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcosync", description="Deterministic pulse-coupled oscillator network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check synchronization guarantee conditions")
    p_run = sub.add_parser("run", help="execute one scenario and write its outputs")
    p_sweep = sub.add_parser("sweep", help="execute a seeded batch and aggregate results")
    p_topology = sub.add_parser("topology", help="print the network and its degrees")

    for p in (p_validate, p_run, p_sweep, p_topology):
        p.add_argument("--config", required=True, help="path to the JSON configuration")
    # validate takes neither: its verdict depends only on topology, mechanism and attackers
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--horizon", type=int, default=None, metavar="TICKS",
                       help="override the simulation horizon")
    p_run.add_argument("--out-dir", default="out", help="output directory (default: out)")
    p_sweep.add_argument("--out-dir", default="out", help="output directory (default: out)")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the sweep seed base")
    p_sweep.add_argument("--runs", type=int, default=None, help="override the run count")
    p_sweep.add_argument("--workers", type=int, default=None, help="override worker count")
    p_topology.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_validate.set_defaults(func=cmd_validate)
    p_run.set_defaults(func=cmd_run)
    p_sweep.set_defaults(func=cmd_sweep)
    p_topology.set_defaults(func=cmd_topology)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits with 2 on a usage error, after printing it; the CLI
        # contract reserves 2 for failed guarantee validation
        if exc.code != 2:
            raise
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EngineError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
