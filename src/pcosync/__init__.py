"""Deterministic simulator and analysis toolkit for attack-resilient
synchronization of pulse-coupled oscillator networks."""

from .adversary import AttackSchedule, generate
from .core import ConfigError, TickClock
from .engine import (
    EngineError,
    LogRecord,
    OscillatorState,
    PhaseSnapshot,
    Simulation,
    SimulationResult,
)
from .mechanisms import (
    apply_conventional_jump,
    build_mechanism,
    check_sync_conditions,
    read_mechanism,
    receive_count,
)
from .metrics import containing_arc, containing_arc_ticks, detect_sync, summarize_run
from .scenario import (
    ScenarioConfig,
    SweepConfig,
    config_digest,
    parse_scenario,
    parse_sweep,
    run_scenario,
    run_sweep,
)
from .topology import Topology, build_circle_deployment, from_adjacency, load_topology

__version__ = "0.1.0"
