"""Per-oscillator pulse-handling rules.

Three interchangeable behaviors plug into the engine:

* ``conventional`` — classic phase-response coupling: every received pulse
  moves the phase by ``l * F(phase)`` immediately, firing on reaching the
  top of the cycle and resetting to zero.
* ``quorum_n`` — counting rules with the total network size known: firing
  is suppressed within one channel separation of the previous fire and
  until a full period has elapsed since start; the reset target (zero vs
  half cycle) and the pulse response are gated by pulse-count quorums
  derived from the network size and the node's own degree.
* ``quorum_degree`` — the same rule shape with all quorums derived from the
  node's own degree only, for fully decentralized deployments.

The quorum rules respond to a pulse only while the phase is in the upper
half of the cycle, and only when enough earlier pulses arrived either in
the trailing channel-separation window or in the trailing half period (the
latter disabled for a full period after a reset to zero). ``read_mechanism``
is the one reader of a scenario's mechanism section. ``_QUORUM_RULES`` holds
each quorum kind's formulas once: ``build_mechanism`` evaluates them at a
node's own degree, ``check_sync_conditions`` at the network degree.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .core import ConfigError, TickClock, read_int, read_kind, read_number
from .engine import OscillatorState
from .topology import Topology

KIND_CONVENTIONAL = "conventional"
KIND_QUORUM_N = "quorum_n"
KIND_QUORUM_DEGREE = "quorum_degree"

RESET_ZERO = "zero"
RESET_PI = "pi"


@dataclass(frozen=True)
class PulseAction:
    """Effect of one received pulse: ignore, shift to the cycle top, or jump."""

    kind: str  # "ignore" | "shift" | "jump"
    jump_to: int = -1


IGNORE = PulseAction("ignore")
SHIFT_TO_2PI = PulseAction("shift")


def jump_to(phase_ticks: int) -> PulseAction:
    return PulseAction("jump", phase_ticks)


def receive_count(state: OscillatorState, after: int) -> int:
    """Received pulses logged at ticks strictly after ``after``, by bisecting the sorted log."""
    log = state.receive_log
    return len(log) - bisect_right(log, after)


def apply_conventional_jump(phase: int, coupling: float, ticks_per_period: int) -> int:
    """New phase in ticks after one conventionally-coupled pulse.

    Works directly in ticks (the response curve is linear, so the tick and
    radian computations agree up to the final nearest-tick rounding); the
    result is clamped to [0, ticks_per_period] and a result equal to
    ticks_per_period means the oscillator fires immediately.
    """
    if not 0.0 < coupling <= 1.0:
        raise ValueError("coupling must lie in (0, 1]")
    half = ticks_per_period // 2
    response = -phase if phase <= half else ticks_per_period - phase
    new_phase = round(phase + coupling * response)
    return min(max(new_phase, 0), ticks_per_period)


class ConventionalPrf:
    """Jump on every pulse; fire and reset to zero whenever the top is reached."""

    def __init__(self, coupling: float, clock: TickClock):
        self.coupling = coupling
        self.ticks_per_period = clock.ticks_per_period

    def fires(self, state: OscillatorState, now: int) -> bool:
        return True

    def on_reach_top(self, state: OscillatorState, now: int) -> str:
        return RESET_ZERO

    def on_pulse(self, state: OscillatorState, now: int) -> PulseAction:
        phase = state.offset + now
        return jump_to(apply_conventional_jump(phase, self.coupling, self.ticks_per_period))


class QuorumMechanism:
    """Shared counting rules for both quorum mechanism kinds.

    ``reset_over`` is the strict lower bound for resetting to zero (count
    must exceed it); ``response_quorum`` is the minimum number of pulses
    that must precede the current one for a shift to the cycle top.
    """

    def __init__(self, reset_over: int, response_quorum: int, clock: TickClock):
        self.reset_over = reset_over
        self.response_quorum = response_quorum
        self.eps = clock.epsilon_ticks
        self.period = clock.ticks_per_period
        self.half = clock.ticks_per_period // 2

    def fires(self, state: OscillatorState, now: int) -> bool:
        """Fire on reaching the top unless within epsilon of the last fire or before a full period."""
        last = state.last_fire_tick
        return (last is None or last <= now - self.eps) and now >= self.period

    def on_reach_top(self, state: OscillatorState, now: int) -> str:
        """Reset target once the instant has settled, from the pulses counted in the last epsilon."""
        if receive_count(state, now - self.eps) > self.reset_over:
            return RESET_ZERO
        return RESET_PI

    def on_pulse(self, state: OscillatorState, now: int) -> PulseAction:
        """Shift on a quorum of earlier pulses; the pulse handled is the newest log entry."""
        if state.offset + now < self.half:
            return IGNORE
        quorum = self.response_quorum
        if receive_count(state, now - self.eps) - 1 >= quorum:
            return SHIFT_TO_2PI
        reset = state.last_reset_to_zero_tick
        if reset is not None and now - self.period < reset < now:
            return IGNORE  # recent reset to zero disables the half-period rule
        # the log holds exactly the trailing half period, [now - half, now]
        if len(state.receive_log) - 1 >= quorum:
            return SHIFT_TO_2PI
        return IGNORE

    def keeps_joint_reset(self, legit_in: int, attack_in: int) -> bool:
        """Whether a receiver with these in-neighbour counts keeps a joint reset to zero.

        (a) Its attackers' pulses in one epsilon window stay under the response quorum;
        (b) its legitimate in-neighbours' joint fire exceeds ``reset_over`` (README).
        """
        return attack_in <= max(self.response_quorum, 0) and legit_in > self.reset_over


# the parameters each kind takes besides "kind": (reader, check, rule); the
# quorum_degree rules take none, their quorums come from each node's degree
_PARAMETERS = {
    KIND_CONVENTIONAL: {"coupling": (read_number, lambda c: 0.0 < c <= 1.0, "lie in (0, 1]")},
    KIND_QUORUM_N: {"n_known": (read_int, lambda n: n >= 1, "be positive")},
    KIND_QUORUM_DEGREE: {},
}


def read_mechanism(section) -> dict:
    """The canonical description of a ``mechanism`` config section: its kind and parameters."""
    kind = read_kind(section, "mechanism", _PARAMETERS)
    description = {"kind": kind}
    for name, (read, check, rule) in _PARAMETERS[kind].items():
        description[name] = value = read(section[name], f"mechanism.{name}")
        if not check(value):
            raise ConfigError(f"mechanism.{name} must {rule}, not {value!r}")
    return description


def _two_thirds(n: int) -> int:
    return (2 * n) // 3


# per quorum kind, (reset_over(n, d), response_quorum(n, d), degree_bound(n)) of
# a network size n and a degree d; quorum_degree resets on at least floor(d/3)
# pulses and never reads n. The guarantees need d > degree_bound(N) and
# M <= response_quorum(N, d): d > floor(2N/3) and M < d - floor(2N/3) for
# quorum_n, d > floor(3N/4) and M < floor(d/6) for quorum_degree.
_QUORUM_RULES = {
    KIND_QUORUM_N: (lambda n, d: n // 3, lambda n, d: d - _two_thirds(n) - 1, _two_thirds),
    KIND_QUORUM_DEGREE: (lambda n, d: d // 3 - 1, lambda n, d: d // 6 - 1, lambda n: (3 * n) // 4),
}


def build_mechanism(description: dict, clock: TickClock, own_degree: int):
    """The decision object of one oscillator of degree ``own_degree``.

    ``description`` is a mechanism description as :func:`read_mechanism`
    returns it. Oscillators never read global state at runtime.
    """
    kind = description["kind"]
    if kind == KIND_CONVENTIONAL:
        return ConventionalPrf(description["coupling"], clock)
    reset_over, response_quorum, _ = _QUORUM_RULES[kind]
    n_known = description.get("n_known")  # quorum_degree has none
    return QuorumMechanism(reset_over(n_known, own_degree),
                           response_quorum(n_known, own_degree), clock)


def check_sync_conditions(topology: Topology, mechanism: str, m: int) -> dict | None:
    """The degree and attacker-count bounds that guarantee synchronization.

    The network degree d must exceed the kind's degree bound of N, and the
    attacker count m may be at most the response quorum at (N, d). m = 0
    covers the attack-free guarantees. The result is the ``conditions`` dict
    of ``summary.json``, key for key. A kind without quorum rules, such as
    ``conventional``, has no guarantee: None. An unknown kind raises ``ValueError``.
    """
    if not 0 <= m < topology.n:
        raise ValueError("attacker count m must satisfy 0 <= m < n")
    if mechanism not in _PARAMETERS:
        raise ValueError(f"unknown mechanism kind {mechanism!r}")
    if mechanism not in _QUORUM_RULES:
        return None
    _, response_quorum, degree_bound = _QUORUM_RULES[mechanism]
    n, d = topology.n, topology.network_degree
    bound, max_allowed = degree_bound(n), response_quorum(n, d)
    return {"mechanism": mechanism, "n": n, "d": d, "m": m, "degree_bound": bound,
            "degree_ok": d > bound, "attacker_bound_ok": m <= max_allowed,
            "max_allowed_attackers": max_allowed}
