"""Check the output hash of the shipped circle24 configs against its recorded value.

Every ``configs/circle24_*.json``, in sorted order, is run for seeds 0-19
through ``pcosync run``; each run's ``events.jsonl``, ``phases.csv`` and
``summary.json`` are fed in that order into one sha256. A change that keeps
the output bytes keeps this digest. Run from anywhere with::

    python3 tests/output_digest.py

It prints the digest and exits 1 unless it is the recorded one. It is not
part of the tier-1 suite (pytest does not collect it): it takes ~5 s.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pcosync.cli import main  # noqa: E402

EXPECTED = "d6fcbb6a4f398499576b79f4dc85667fdebe64bc3f567e46222dee09ec0ccf18"
FILES = ("events.jsonl", "phases.csv", "summary.json")


def output_digest() -> str:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted((ROOT / "configs").glob("circle24_*.json")):
            for seed in range(20):
                out = Path(tmp) / f"{config.stem}-{seed}"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(["run", "--config", str(config), "--seed", str(seed),
                                 "--out-dir", str(out)])
                if code != 0:
                    sys.exit(f"pcosync run exited {code} on {config.name}, seed {seed}")
                for name in FILES:
                    digest.update((out / name).read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    got = output_digest()
    print(got)
    if got != EXPECTED:
        sys.exit(f"output digest {got}, expected {EXPECTED}")
