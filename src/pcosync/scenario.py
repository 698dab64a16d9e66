"""Scenario configuration and run orchestration.

A scenario is a JSON document describing the clock, the topology, the
mechanism, the attacker set with its traffic spec, the initial phases, the
horizon and the seed. Parsing produces a validated ``ScenarioConfig``; the
topology, mechanism and attack sections are read by the modules that own
their kinds. Its canonical form (defaults resolved) feeds the config digest,
and sweep workers get the parsed base with only the seed replaced, so a run
is reproducible from its digest inputs alone.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from random import Random

from . import adversary, mechanisms, topology as topo_mod
from .core import ConfigError, TickClock, read_fields, read_int, require_fields
from .engine import Simulation, SimulationResult
from .metrics import _round9, summarize_run
from .topology import Topology

DEFAULT_HORIZON_PERIODS = 20
MAX_HORIZON_PERIODS = 1000  # output grows with the horizon: ~57 MB for circle24 at the cap
MAX_RUNS = 100_000  # a sweep keeps every run's summary, ~4.2 KiB each: ~420 MiB at the cap

PHASE_SEED_SCOPE = "phases"


@dataclass(frozen=True)
class ScenarioConfig:
    clock: TickClock
    topology_desc: dict
    topology: Topology = field(compare=False, repr=False)  # built from topology_desc
    mechanism_desc: dict
    attacker_ids: tuple[int, ...]
    attack_desc: dict | None
    phases_desc: dict  # {"random_uniform": scope} or {"ticks": [...]}
    horizon_ticks: int
    seed: int


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _section(data: dict, key: str, allowed: set) -> dict:
    """A mapping-valued section (absent or null means empty) with only the allowed keys."""
    return read_fields({} if data.get(key) is None else data[key], key, allowed)


def parse_scenario(data: dict) -> ScenarioConfig:
    """Validate a scenario mapping (parsed JSON) into a ScenarioConfig."""
    read_fields(data, "scenario", {
        "clock", "topology", "mechanism", "attackers", "initial_phases", "horizon_ticks", "seed",
    })
    require_fields(data, "scenario", ["topology", "mechanism"])

    clock_data = _section(data, "clock", {"ticks_per_period", "epsilon_ticks"})
    clock = TickClock(**{k: read_int(v, f"clock.{k}") for k, v in clock_data.items()})

    topo, topo_desc = topo_mod.load_topology(data["topology"])

    mechanism_desc = mechanisms.read_mechanism(data["mechanism"])
    n_known = mechanism_desc.get("n_known", topo.n)  # only quorum_n takes one
    _require(n_known == topo.n,
             f"mechanism.n_known is {n_known} but the topology has {topo.n} oscillators")

    attackers = _section(data, "attackers", {"ids", "attack"})
    raw_ids = attackers.get("ids", [])
    _require(isinstance(raw_ids, list), "attackers.ids must be a list")
    ids = tuple(sorted(read_int(i, "attackers.ids") for i in raw_ids))
    _require(len(set(ids)) == len(ids), "attackers.ids names an attacker twice")
    _require(all(0 <= i < topo.n for i in ids), "attacker id outside the topology")
    _require(len(ids) < topo.n, "at least one oscillator must stay legitimate")
    attack_desc = None
    if ids:
        require_fields(attackers, "attackers", ["attack"])
        attack_desc = adversary.read_attack(attackers["attack"], ids)
    else:
        _require("attack" not in attackers, "attack spec given without attacker ids")

    n_legit = topo.n - len(ids)
    phases_data = (_section(data, "initial_phases", {"random_uniform", "ticks"})
                   if "initial_phases" in data else {"random_uniform": PHASE_SEED_SCOPE})
    _require(len(phases_data) == 1,
             "initial_phases must be {'random_uniform': scope} or {'ticks': [...]}")
    if "random_uniform" in phases_data:
        scope = phases_data["random_uniform"]
        _require(isinstance(scope, str),
                 f"initial_phases.random_uniform must be a string, not {scope!r}")
        phases_desc = {"random_uniform": scope}
    else:
        raw = phases_data["ticks"]
        _require(isinstance(raw, list), "initial_phases.ticks must be a list")
        _require(len(raw) == n_legit,
                 f"initial_phases.ticks must list {n_legit} values (one per legitimate oscillator)")
        phases_desc = {"ticks": [read_int(x, "initial_phases.ticks", least=0,
                                          most=clock.ticks_per_period) for x in raw]}

    default_horizon = DEFAULT_HORIZON_PERIODS * clock.ticks_per_period
    horizon = read_int(data.get("horizon_ticks", default_horizon), "horizon_ticks",
                       least=1, most=MAX_HORIZON_PERIODS * clock.ticks_per_period)
    seed = read_int(data.get("seed", 0), "seed", least=0)

    return ScenarioConfig(
        clock=clock,
        topology_desc=topo_desc,
        topology=topo,
        mechanism_desc=mechanism_desc,
        attacker_ids=ids,
        attack_desc=attack_desc,
        phases_desc=phases_desc,
        horizon_ticks=horizon,
        seed=seed,
    )


def canonical_dict(config: ScenarioConfig) -> dict:
    """Fully resolved scenario mapping; parsing it again is the identity."""
    out: dict = {
        "clock": {
            "ticks_per_period": config.clock.ticks_per_period,
            "epsilon_ticks": config.clock.epsilon_ticks,
        },
        "topology": config.topology_desc,
        "mechanism": config.mechanism_desc,
        "initial_phases": config.phases_desc,
        "horizon_ticks": config.horizon_ticks,
        "seed": config.seed,
    }
    if config.attacker_ids:
        out["attackers"] = {"ids": list(config.attacker_ids), "attack": config.attack_desc}
    return out


def config_digest(config: ScenarioConfig) -> str:
    blob = json.dumps(canonical_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def scoped_seed(seed: int, scope: str) -> int:
    """Independent 64-bit RNG seed for one named purpose of a run."""
    digest = hashlib.sha256(f"{seed}:{scope}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def draw_initial_phases(config: ScenarioConfig, legit_ids) -> dict:
    """Initial phase ticks per legitimate oscillator (explicit or seeded draw)."""
    ticks = config.phases_desc.get("ticks")
    if ticks is not None:
        return dict(zip(legit_ids, ticks))
    rng = Random(scoped_seed(config.seed, config.phases_desc["random_uniform"]))
    tpp = config.clock.ticks_per_period
    return {i: round(rng.random() * tpp) for i in legit_ids}


@dataclass
class RunArtifacts:
    result: SimulationResult
    summary: dict  # the mapping summary.json holds, rounded floats included (summarize_run)


def conditions_for(config: ScenarioConfig) -> dict | None:
    return mechanisms.check_sync_conditions(
        config.topology, config.mechanism_desc["kind"], len(config.attacker_ids))


def build_simulation(config: ScenarioConfig):
    """Materialize mechanisms, schedules and phases for one run: (simulation, schedules)."""
    topo = config.topology
    attacker_set = set(config.attacker_ids)
    legit_ids = [i for i in range(topo.n) if i not in attacker_set]
    mechs = {
        i: mechanisms.build_mechanism(config.mechanism_desc, config.clock, topo.degree[i])
        for i in legit_ids
    }
    phases = draw_initial_phases(config, legit_ids)
    schedules = []
    if config.attack_desc is not None:
        # scripted has no seed_scope: it draws nothing from the rng
        scope = config.attack_desc.get("seed_scope", adversary.SEED_SCOPE)
        rng = Random(scoped_seed(config.seed, scope))
        schedules = adversary.generate(config.attack_desc, config.attacker_ids, config.clock, rng)
    sim = Simulation(
        clock=config.clock,
        topology=topo,
        mechanisms=mechs,
        initial_phases=phases,
        horizon=config.horizon_ticks,
        attacker_ids=config.attacker_ids,
        schedules={s.attacker: s.ticks for s in schedules},
    )
    return sim, schedules


def run_scenario(config: ScenarioConfig) -> RunArtifacts:
    sim, schedules = build_simulation(config)
    result = sim.run()
    summary = summarize_run(
        result,
        seed=config.seed,
        config_digest=config_digest(config),
        mechanism=config.mechanism_desc["kind"],
        conditions=conditions_for(config),
        schedules_jsonable=adversary.schedules_to_jsonable(schedules),
    )
    return RunArtifacts(result=result, summary=summary)


# -- sweeps ----------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    base: ScenarioConfig
    runs: int
    seed_base: int
    workers: int
    write_run_summaries: bool


def parse_sweep(data: dict) -> SweepConfig:
    read_fields(data, "sweep", {"base", "runs", "seed_base", "workers", "write_run_summaries"})
    require_fields(data, "sweep", ["base"])
    base = parse_scenario(data["base"])
    runs = read_int(data.get("runs", 1), "runs", least=1, most=MAX_RUNS)
    seed_base = read_int(data.get("seed_base", base.seed), "seed_base", least=0)
    workers = read_int(data.get("workers", 1), "workers", least=1)
    write_summaries = data.get("write_run_summaries", False)
    _require(isinstance(write_summaries, bool), "write_run_summaries must be true or false")
    return SweepConfig(
        base=base,
        runs=runs,
        seed_base=seed_base,
        workers=workers,
        write_run_summaries=write_summaries,
    )


def _sweep_worker(base: ScenarioConfig, seed: int) -> dict:
    return run_scenario(replace(base, seed=seed)).summary


def run_sweep(sweep: SweepConfig) -> tuple[dict, list[dict]]:
    """Execute the seeded runs and build the order-independent aggregate.

    Returns (aggregate, per-run summaries ordered by run index). Results are
    identical bytes regardless of worker count.
    """
    seeds = [sweep.seed_base + k for k in range(sweep.runs)]
    base = sweep.base
    # a pool starts every worker it may use at its first task, and workers
    # beyond the CPU count only compete for the CPUs
    workers = min(sweep.workers, len(seeds), os.cpu_count() or 1)
    if workers == 1:
        summaries = [_sweep_worker(base, s) for s in seeds]
    else:
        # imported here: it costs ~25 ms, and serial runs never use it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(seeds) // (workers * 4))
            summaries = list(pool.map(_sweep_worker, [base] * len(seeds), seeds,
                                      chunksize=chunk))

    synced = [s for s in summaries if s["sync_tick"] is not None]
    sync_ticks = sorted(s["sync_tick"] for s in synced)
    tpp = sweep.base.clock.ticks_per_period
    aggregate = {
        "runs": sweep.runs,
        "seed_base": sweep.seed_base,
        "config_digest": config_digest(sweep.base),
        "conditions": summaries[0]["conditions"],
        "synced_runs": len(synced),
        "synced_fraction": len(synced) / sweep.runs,
        "sync_tick_min": sync_ticks[0] if sync_ticks else None,
        "sync_tick_median": sync_ticks[(len(sync_ticks) - 1) // 2] if sync_ticks else None,
        "sync_tick_max": sync_ticks[-1] if sync_ticks else None,
        "max_sync_periods": _round9(sync_ticks[-1] / tpp) if sync_ticks else None,
        "periods_exact_runs": sum(1 for s in synced if s["periods_exact"]),
        "counterexample_seeds": [s["seed"] for s in summaries if s["sync_tick"] is None],
    }
    return aggregate, summaries
