#!/usr/bin/env python3
"""Record the golden digests the benchmark checks its outputs against.

    python3 bench/record_golden.py 0 1 2 ...

Runs every op of each workload at full size for each benchmark seed given,
checks the theorem on each, and writes the sha256 of every output file to
``bench/golden.json``, keeping seeds already there.
Re-record only together with a declared change of the output schema.
"""

import json
import shutil
import sys

import run


def main(argv) -> int:
    seeds = [int(s) for s in argv]
    if not seeds or min(seeds) < 0:
        print(__doc__, file=sys.stderr)
        return 2
    m = run.import_pcosync()
    tpp = run.load_json(run.ROOT / run.SWEEP_CONFIG)["base"]["clock"]["ticks_per_period"]
    golden = run.load_json(run.GOLDEN) if run.GOLDEN.is_file() else {}
    if golden.get("window_runs", run.FULL.window) != run.FULL.window:
        golden = {}
    golden["window_runs"] = run.FULL.window
    try:
        for name, wl in run.WORKLOADS.items():
            out_dir = run.OUT / name
            for seed in seeds:
                shutil.rmtree(out_dir, ignore_errors=True)
                out_dir.mkdir(parents=True)
                expected: dict = {}
                for op in run.build_ops(wl, run.FULL, seed, out_dir, tpp):
                    _, failure = run.call_cli(m, op.argv)
                    failure = failure or run.check_op(op, out_dir, expected, tpp)
                    if failure:
                        print(f"{name} seed {seed} {op.key}: {failure}", file=sys.stderr)
                        return 1
                golden.setdefault(name, {})[str(seed)] = expected
                print(f"{name} seed {seed}: {len(expected)} ops recorded")
    finally:
        shutil.rmtree(run.OUT, ignore_errors=True)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
