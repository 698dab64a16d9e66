"""Command-line interface: validate, run, sweep, topology.

Exit codes: 0 success, 1 usage or configuration error, 2 guarantee-condition
validation failure, 3 runtime error. All file outputs are byte-deterministic
for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
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


def _config(args, *fields) -> dict:
    """The JSON object in ``--config``; each named field its flag gave takes the flag's value."""
    path = args.config
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
        raise ConfigError(f"{path} cannot be parsed: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    data.update({f: getattr(args, f) for f in fields if getattr(args, f) is not None})
    return data


@contextmanager
def _writing(out_dir: Path):
    """Any failure to write into out_dir becomes one ``cannot write`` error line."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc}") from None


def _out_dir(path: str) -> Path:
    """The output directory, created before anything runs, so a path that
    cannot take the outputs fails at once, with one error line."""
    out_dir = Path(path)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write(out_dir: Path, name: str, chunks) -> None:
    """One output file, chunk by chunk through ``fh.write`` alone, with ``\\n`` line ends on
    every platform; a JSON document is passed as ``(json.dumps(doc, indent=2), "\\n")``."""
    with _writing(out_dir), open(out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _fmt9(x: float) -> str:
    return f"{x:.9g}"


def cmd_validate(args) -> int:
    config = parse_scenario(_config(args))
    build_simulation(config)  # rejects what `run` rejects, such as an attack that cannot be scheduled
    report = conditions_for(config)
    print(f"mechanism: {config.mechanism_desc['kind']}")
    if report is None:
        print("no synchronization guarantee conditions apply to this mechanism")
        return EXIT_OK
    print(f"N={report['n']}  d={report['d']}  attackers M={report['m']}")
    print(f"degree condition: d > {report['degree_bound']}: "
          f"{'pass' if report['degree_ok'] else 'FAIL'}")
    print(f"attacker bound: M <= {report['max_allowed_attackers']}: "
          f"{'pass' if report['attacker_bound_ok'] else 'FAIL'}")
    if report["degree_ok"] and report["attacker_bound_ok"]:
        print("conditions met - synchronization guaranteed")
        return EXIT_OK
    print("theorem conditions not met - synchronization not guaranteed (running is still permitted)")
    return EXIT_VALIDATION


def _event_lines(result):
    """events.jsonl, one chunk per instant.

    The same bytes as ``json.dumps(..., separators=(",", ":"))`` of each of
    ``result.iter_records()``: every field is an int or a fixed kind name.
    The middle of a ``received`` line is fixed per (receiver, sender), so
    it is built once per edge. An instant's ``seq``s are consecutive, so
    no int is formatted per ``received`` line: a ``seq`` is written as its
    hundreds, formatted once per instant and hundred (``""`` below 100), and
    its last two digits, from a table (unpadded below 100).
    """
    middles = [[f',"type":"{RECEIVED}","receiver":{r},"sender":{sender},"seq":' for r in row]
               for sender, row in enumerate(result.adjacency)]
    digits = ([str(d) for d in range(100)], [f"{d:02}" for d in range(100)])
    seq = 1  # seq of the next delivery
    for t, _, events in result.instants:
        if not events:
            continue
        sep = f'}}\n{{"tick":{t}'  # ends a line and begins the next
        mids = []
        for kind, node in events:
            if kind == FIRED:
                mids += middles[node]
        end = seq + len(mids)
        hundreds, lows = [], []
        for h in range(seq // 100, (end - 1) // 100 + 1):  # any number of hundreds
            lo, hi = max(seq - 100 * h, 0), min(end - 100 * h, 100)
            hundreds += [str(h) if h else ""] * (hi - lo)
            lows += digits[h > 0][lo:hi]
        received = [sep] * (4 * len(mids))  # per line: sep, middle, hundreds, last digits
        received[1::4], received[2::4], received[3::4] = mids, hundreds, lows
        chunk, i = [], 0
        for kind, node in events:
            chunk += (sep, f',"type":"{kind}","id":{node}')
            if kind == FIRED:
                j = i + 4 * len(middles[node])
                chunk += received[i:j]
                i = j
        chunk[0] = sep[2:]
        chunk.append("}\n")
        seq = end
        yield "".join(chunk)


def _phase_lines(result):
    """phases.csv, one chunk per stretch of rows that share their offsets.

    A row's tail (the arc and every phase) depends only on the offsets
    relative to the first oscillator's, ``rel``, and on the first phase,
    ``offsets[0] + t``: the arc is rotation invariant. So each tail is built
    once per first phase, and the built tails are dropped when ``rel``
    changes. Once the run synchronizes, ``rel`` is all zeros for good and
    the cadence rows repeat every period, so each of their tails is built
    once per run. A stretch is one ``%`` format of its rows' ticks, seconds
    and tails.
    """
    tpp = result.clock.ticks_per_period
    scale = TWO_PI / tpp
    header = ["tick", "seconds", "arc_rad"] + [f"phase_rad_{i}" for i in result.legit_ids]
    yield ",".join(header) + "\n"
    rel = None
    for ticks, offsets in result.segments():
        first = offsets[0]
        new_rel = tuple([o - first for o in offsets])
        if new_rel != rel:
            rel, tails = new_rel, {}
            arc = _fmt9(containing_arc_ticks(rel, tpp) * scale)
            distinct = tuple(set(rel))
            slots = [distinct.index(r) for r in rel]

            def tail(phase):  # r + phase is o + t: each cell is printed from a phase in ticks
                cells = [f"{(r + phase) * scale:.9g}" for r in distinct]
                text = tails[phase] = f"{arc},{','.join([cells[s] for s in slots])}\n"
                return text

        fields = ticks * 3
        fields[0::3], fields[1::3] = ticks, [t * scale for t in ticks]
        fields[2::3] = [tails.get(first + t) or tail(first + t) for t in ticks]
        yield "%d,%.9g,%s" * len(ticks) % tuple(fields)


def write_run_outputs(artifacts, out_dir: Path) -> None:
    """events.jsonl, phases.csv and summary.json of one completed run, in the existing
    out_dir; a file that cannot be written raises ``ConfigError``."""
    _write(out_dir, "events.jsonl", _event_lines(artifacts.result))
    _write(out_dir, "phases.csv", _phase_lines(artifacts.result))
    _write(out_dir, "summary.json", (json.dumps(artifacts.summary, indent=2), "\n"))


def cmd_run(args) -> int:
    config = parse_scenario(_config(args, "seed", "horizon_ticks"))
    out_dir = _out_dir(args.out_dir)
    artifacts = run_scenario(config)
    write_run_outputs(artifacts, out_dir)
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
    sweep = parse_sweep(_config(args, "runs", "workers", "seed_base"))
    out_dir = _out_dir(args.out_dir)
    aggregate, summaries = run_sweep(sweep)
    files = [("aggregate.json", aggregate)]
    if sweep.write_run_summaries:
        files += [(f"run_{s['seed']}.json", s) for s in summaries]
    for name, doc in files:
        _write(out_dir, name, (json.dumps(doc, indent=2), "\n"))
    print(f"{aggregate['synced_runs']}/{aggregate['runs']} runs synchronized")
    if aggregate["counterexample_seeds"]:
        print(f"counterexample seeds: {aggregate['counterexample_seeds']}")
    print(f"aggregate written to {out_dir / 'aggregate.json'}")
    return EXIT_OK


def cmd_topology(args) -> int:
    data = _config(args)
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
    # validate takes neither: its verdict depends only on topology, mechanism and attackers.
    # An override's dest is the config field it sets (_config)
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--horizon", dest="horizon_ticks", type=int, default=None, metavar="TICKS",
                       help="override the simulation horizon")
    p_run.add_argument("--out-dir", default="out", help="output directory (default: out)")
    p_sweep.add_argument("--out-dir", default="out", help="output directory (default: out)")
    p_sweep.add_argument("--seed", dest="seed_base", type=int, default=None, metavar="SEED",
                         help="override the sweep seed base")
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
