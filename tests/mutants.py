"""Mutation check of the certified stop, the one-pass sync reading and the certificate.

Each mutant is (file, exact old text, new text, rule it breaks). For each, the
runner copies ``src/``, ``tests/``, ``configs/`` (the tests read the shipped
configs) and ``pyproject.toml`` to a temporary directory, requires the old
text to occur exactly once, applies the mutant and runs the tier-1 suite there
with ``-x -q``. A mutant is killed when that suite fails. The unmutated copy
is run first and must pass. Run from anywhere with::

    python3 tests/mutants.py

It exits 1 and names every mutant that survives or whose old text does not
occur exactly once. It is not part of the tier-1 suite (pytest does not
collect it): it runs the suite up to once per mutant.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "configs", "pyproject.toml")
ENGINE, METRICS, MECHANISMS = (f"src/pcosync/{m}.py" for m in ("engine", "metrics", "mechanisms"))

SYNC_RULES = """\
            if checking and resets == n_legit:
                sync = tick
            if checking and fires:
                gap_ok = n_legit == 1 or not joint or joint[-1] - tick == tpp
                checking = fires == n_legit and gap_ok
"""
SYNC_RULES_SWAPPED = """\
            if checking and fires:
                gap_ok = n_legit == 1 or not joint or joint[-1] - tick == tpp
                checking = fires == n_legit and gap_ok
            if checking and resets == n_legit:
                sync = tick
"""
JOINT_TICKS = "range(self.stop + tpp, self.horizon + 1, tpp)"

MUTANTS = [
    # the one-pass sync reading
    (METRICS, SYNC_RULES, SYNC_RULES_SWAPPED,
     "the fire at the sync tick itself is unconstrained"),
    (METRICS, "gap_ok = n_legit == 1 or not joint", "gap_ok = not joint",
     "the one-period gap rule needs two or more oscillators"),
    (METRICS, "[t for t in joint if t > sync]", "[t for t in joint if t >= sync]",
     "collective periods count only joint fires strictly after the sync tick"),
    (METRICS, "if not checking and sync is not None:", "if not checking:",
     "a run with no sync tick reports every joint-fire gap"),
    (METRICS, "checking = offsets.count(offsets[0]) == len(offsets)", "checking = True",
     "every instant from the sync tick on has a zero arc"),
    (METRICS, "joint[-1] - tick == tpp", "joint[-1] - tick <= tpp",
     "joint fires after the sync tick are exactly one period apart"),
    # the certified stop and its closed form
    (ENGINE, JOINT_TICKS, "range(self.stop, self.horizon + 1, tpp)",
     "the joint fires after the stop exclude the stop"),
    (ENGINE, JOINT_TICKS, "range(self.stop + tpp, self.horizon, tpp)",
     "the last joint fire may fall on the horizon, and the final offsets follow it"),
    (ENGINE, "(self.joint_ticks or [self.stop])[-1]", "self.stop",
     "a stopped run's final offsets are those after its last joint fire"),
    (METRICS, "reversed(result.resolved)", "reversed(result.resolved[:-1])",
     "the certified walk starts at the stop instant"),
    (METRICS, "reversed(result.resolved)", "reversed(result.instants)",
     "the verdict never reads the tail"),
    (ENGINE, "legit_in = [d - m for d, m in zip(self.topology.indegree, attack_in)]",
     "legit_in = list(self.topology.indegree)",
     "an attacker in-neighbour is not a legitimate one"),
    # the certificate's conditions and the response window they rest on
    (MECHANISMS, "attack_in <= max(self.response_quorum, 0)",
     "attack_in <= max(self.response_quorum + 1, 0)",
     "(a) an attacker's pulses in one epsilon window stay under the response quorum"),
    (MECHANISMS, "legit_in > self.reset_over", "legit_in >= self.reset_over",
     "(b) the legitimate joint fire exceeds reset_over"),
    (MECHANISMS, "if receive_count(state, now - self.eps) - 1 >= quorum:",
     "if receive_count(state, now - self.eps - 1) - 1 >= quorum:",
     "the response rule's epsilon window is open on the left"),
]


def tier1(tree: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                          cwd=tree, env=env, capture_output=True, text=True)


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def first_failure(out: str) -> str:
    return next((line for line in out.splitlines() if line.startswith(("FAILED", "ERROR"))),
                out.strip().splitlines()[-1] if out.strip() else "no output")


def main() -> int:
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        control = Path(tmp) / "control"
        copy_tree(control)
        if tier1(control).returncode != 0:
            print("the unmutated copy fails tier-1; no mutant can be judged")
            return 1
        for k, (file, old, new, rule) in enumerate(MUTANTS, 1):
            tree = Path(tmp) / f"mutant{k}"
            copy_tree(tree)
            path = tree / file
            text = path.read_text()
            label = f"{k:2} {file}: {rule}"
            if text.count(old) != 1:
                print(f"MISSING  {label}: old text occurs {text.count(old)} times")
                bad.append(label)
                continue
            path.write_text(text.replace(old, new))
            start = time.perf_counter()
            proc = tier1(tree)
            took = time.perf_counter() - start
            if proc.returncode == 0:
                print(f"SURVIVED {label} ({took:.1f} s)")
                bad.append(label)
            else:
                print(f"killed   {label} ({took:.1f} s): {first_failure(proc.stdout)}")
            shutil.rmtree(tree)
    if bad:
        print(f"{len(bad)} of {len(MUTANTS)} mutants not killed:", *bad, sep="\n  ")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
