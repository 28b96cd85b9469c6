"""SSYNC (semi-synchronous) activation: policies, fairness and faults.

The paper proves its O(n) gathering bound in the fully synchronous FSYNC
model, where *every* robot executes its look-compute-move cycle in every
round.  The classical scheduler hierarchy of the robots literature
weakens that: in **SSYNC** an adversary activates an arbitrary *subset*
of the robots each round — the activated robots look simultaneously,
compute, and move simultaneously; the others do nothing.  Fairness is
what keeps the adversary honest: under a **k-fairness bound** every
robot is activated at least once in any window of ``k`` consecutive
rounds.

This module is the activation layer of that model (the registry entries
``ssync`` / ``ssync-faulty`` / ``async-lcm`` live in :mod:`repro.api`,
the grid round engine in :mod:`repro.engine.scheduler`, and the stepped
engine of the self-clocked Euclidean and chain baselines in
:class:`repro.api._SteppedEngine`; both engines drive the same
schedule):

* activation policies (:data:`ACTIVATION_POLICIES`) — ``uniform``
  (independent coin with probability ``p`` per robot-round),
  ``round_robin`` (the roster split into ``k`` classes, one class per
  round), ``adversarial`` ("starve the runners": refuse to activate
  the robots currently carrying the algorithm's progress for as long as
  the fairness bound allows) and ``scripted`` (an explicit per-round
  token script — how the nondeterminism explorer's witness schedules
  replay, :mod:`repro.explore`);
* :class:`ActivationSchedule` — policy + k-fairness enforcement + fault
  injection (:class:`repro.engine.faults.FaultInjector`), tracking
  per-robot activation streaks and crash state across token renames
  (merges).  Emits the ``activation`` / ``fault`` events.

With activation probability 1.0 and no faults every robot is activated
every round without a roster or a set being built, and the grid round
is the FSYNC round — trajectories are bit-identical to the ``fsync``
scheduler (the equivalence suite pins this).

See ``docs/schedulers.md`` for the model semantics and how results
under SSYNC relate to the paper's FSYNC claims.
"""

from __future__ import annotations

import random
from typing import (
    Any,
    Callable,
    Container,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
)

from repro.engine.events import EventLog
from repro.engine.faults import FaultInjector


# ----------------------------------------------------------------------
# Activation policies
# ----------------------------------------------------------------------
class UniformActivation:
    """Independent coin per robot-round: active with probability ``p``.

    ``p = 1.0`` short-circuits to "everyone" without consuming RNG
    values, so a fully-activated run is bit-identical regardless of
    seed — the FSYNC-equivalence anchor.
    """

    key = "uniform"

    def __init__(self, p: float = 0.5, seed: int = 0) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(
                f"activation probability must be in [0, 1], got {p!r}"
            )
        self.p = float(p)
        self.rng = random.Random(seed)

    def everyone(self, round_index: int) -> bool:
        return self.p >= 1.0

    def select(
        self,
        round_index: int,
        alive: Sequence[Any],
        hints: FrozenSet[Any],
    ) -> Set[Any]:
        if self.p >= 1.0:
            return set(alive)
        p = self.p
        return {token for token in alive if self.rng.random() < p}


class RoundRobinActivation:
    """The roster split into ``k`` classes by canonical index; round
    ``r`` activates class ``r mod k``.  Deterministic and k-fair by
    construction (a robot's class index can drift as merges compact the
    roster, but each round activates ~1/k of the swarm regardless)."""

    key = "round_robin"

    def __init__(self, k: int = 3, seed: int = 0) -> None:
        if k < 1:
            raise ValueError(f"round_robin class count must be >= 1, got {k}")
        self.k = int(k)

    def select(
        self,
        round_index: int,
        alive: Sequence[Any],
        hints: FrozenSet[Any],
    ) -> Set[Any]:
        r = round_index % self.k
        return {t for i, t in enumerate(alive) if i % self.k == r}


class AdversarialActivation:
    """"Starve the runners": activate everyone *except* the robots the
    driver hints are carrying progress (the grid strategy's runner
    robots; for programs without that concept, the robots that moved
    last round, and failing that a fixed half of the roster).  The
    k-fairness enforcement in :class:`ActivationSchedule` is what
    eventually forces the starved robots awake — this policy probes
    exactly how much the algorithm's progress argument leans on them."""

    key = "adversarial"

    def __init__(self, seed: int = 0) -> None:
        pass

    def select(
        self,
        round_index: int,
        alive: Sequence[Any],
        hints: FrozenSet[Any],
    ) -> Set[Any]:
        starved = set(hints) & set(alive)
        if not starved:
            starved = set(alive[: (len(alive) + 1) // 2])
        active = set(alive) - starved
        return active if active else set(alive)


class ScriptedActivation:
    """An explicit per-round activation script over robot tokens.

    ``schedule[r]`` is the token set to activate in round ``r``; rounds
    past the script's end activate everyone (an FSYNC tail, so a replay
    that outlives its script degrades to the safe model instead of
    stalling).  Tokens of robots that merged away are ignored — the
    schedule keeps intersecting the live roster exactly like every
    other policy's selection.

    This is how the nondeterminism explorer's witness schedules
    (:mod:`repro.explore`) replay through the stock engine: the
    explorer emits the per-round token sets it branched on, and this
    policy feeds them back verbatim.  Deterministic; the seed is
    accepted for registry uniformity and unused.
    """

    key = "scripted"

    def __init__(self, schedule: Sequence = (), seed: int = 0) -> None:
        self.rounds: List[FrozenSet[int]] = [
            frozenset(int(t) for t in entry) for entry in schedule
        ]

    def select(
        self,
        round_index: int,
        alive: Sequence[Any],
        hints: FrozenSet[Any],
    ) -> Set[Any]:
        if round_index < len(self.rounds):
            return set(self.rounds[round_index])
        return set(alive)


ACTIVATION_POLICIES: Dict[str, type] = {
    UniformActivation.key: UniformActivation,
    RoundRobinActivation.key: RoundRobinActivation,
    AdversarialActivation.key: AdversarialActivation,
    ScriptedActivation.key: ScriptedActivation,
}


def make_policy(
    name: str,
    *,
    p: float = 0.5,
    k: int = 3,
    seed: int = 0,
    schedule: Optional[Sequence] = None,
):
    """Build an activation policy from its registry key.

    ``p`` parameterizes ``uniform``, ``k`` parameterizes ``round_robin``,
    ``schedule`` parameterizes ``scripted`` (and is required for it);
    the seed feeds stochastic policies only.
    """
    if name == UniformActivation.key:
        return UniformActivation(p, seed)
    if name == RoundRobinActivation.key:
        return RoundRobinActivation(k, seed)
    if name == AdversarialActivation.key:
        return AdversarialActivation(seed)
    if name == ScriptedActivation.key:
        if schedule is None:
            raise ValueError(
                "the 'scripted' policy needs an explicit schedule "
                "(per-round token lists)"
            )
        return ScriptedActivation(schedule, seed)
    raise KeyError(
        f"unknown activation policy {name!r}; "
        f"available: {sorted(ACTIVATION_POLICIES)}"
    )


# ----------------------------------------------------------------------
# The schedule: policy + k-fairness + faults over robot tokens
# ----------------------------------------------------------------------
class ActivationSchedule:
    """Per-round activation decisions over stable robot tokens.

    Drivers identify robots by *tokens* (integer ids for the grid
    engine, array indices for the Euclidean program, node ids for the
    chains); the schedule tracks, per token, the number of consecutive
    rounds since the last activation (the *streak*) and the crash state,
    migrating both through the token renames that merges cause.

    Per round the driver calls :meth:`select` (decide who acts, emit
    ``activation``/``fault`` events) — or first :meth:`select_everyone`,
    which settles a full-activation round without reading the roster —
    and, after applying the round, :meth:`commit` (advance streaks,
    migrate tokens).

    k-fairness: any robot whose streak reaches ``k_fairness - 1`` is
    force-activated, so no fault-free robot ever sleeps ``k_fairness``
    consecutive rounds.  Faults trump fairness — a robot hit by a sleep
    fault misses its round even if it was forced (the bound holds for
    the fault-free schedule; see docs/schedulers.md).

    Streaks are stored only for robots that sat out (a missing token
    has streak 0), so a full-activation round commits in O(1) and a
    partial one in O(roster + merges).
    """

    def __init__(
        self,
        policy: Any,
        k_fairness: int,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        if k_fairness < 1:
            raise ValueError(
                f"k_fairness must be >= 1, got {k_fairness}"
            )
        self.policy = policy
        self.k_fairness = int(k_fairness)
        self.faults = faults
        #: EventLog the driver wires in before the first round.
        self.events: EventLog = EventLog()
        #: Optional token -> extra-event-fields hook (the grid engine
        #: uses it to stamp crash events with the robot's cell).
        self.token_info: Optional[Callable[[Any], Dict[str, Any]]] = None
        #: Streaks >= 1 only: the robots that sat out the last round
        #: (and every round since their last activation).
        self._streak: Dict[Any, int] = {}
        self._crashed: Set[Any] = set()
        #: The alive roster of the last :meth:`select`; ``None`` after a
        #: :meth:`select_everyone` round (nobody alive sat out).
        self._alive: Optional[List[Any]] = None
        self._everyone = getattr(policy, "everyone", None)

    @property
    def crashed(self) -> FrozenSet[Any]:
        """Tokens of crash-stopped robots (read-only view)."""
        return frozenset(self._crashed)

    def streak_of(self, token: Any) -> int:
        """Rounds since ``token`` was last activated (0 if just active)."""
        return self._streak.get(token, 0)

    def select_everyone(self, round_index: int, robots: int) -> bool:
        """Settle a full-activation round without reading the roster.

        When the policy answers "everyone" for this round and no fault
        layer can subtract anybody, record the round (``robots`` alive
        robots, all active, none forced) and return True; the caller
        then passes ``None`` as the active set to :meth:`commit`.
        Otherwise return False and leave the round to :meth:`select`.
        """
        if (
            self.faults is not None
            or self._everyone is None
            or not self._everyone(round_index)
        ):
            return False
        self._alive = None
        self.events.emit(
            round_index, "activation", active=robots, asleep=0, forced=[]
        )
        return True

    def select(
        self,
        round_index: int,
        roster: Sequence[Any],
        hints: FrozenSet[Any] = frozenset(),
        busy: Container[Any] = (),
    ) -> Set[Any]:
        """Pick this round's activation set from the full ``roster``.

        ``busy`` holds robots whose previous cycle is still in flight
        (async-lcm): they cannot start a new one, so they leave the
        active set before the ``activation`` event counts it.
        """
        crashed = self._crashed
        alive = [t for t in roster if t not in crashed]
        self._alive = alive
        alive_set = set(alive)
        chosen = self.policy.select(round_index, alive, hints)
        limit = self.k_fairness - 1
        if limit <= 0:
            forced = alive_set - chosen
        else:
            forced = {
                t
                for t, s in self._streak.items()
                if s >= limit and t in alive_set and t not in chosen
            }
        active = (chosen & alive_set) | forced
        if self.faults is not None:
            sleeping, crashed_now = self.faults.draw(round_index, alive)
            for t in sorted(crashed_now):
                crashed.add(t)
                info = self.token_info(t) if self.token_info else {}
                self.events.emit(
                    round_index, "fault", fault="crash", robot=t, **info
                )
            slept = sorted((sleeping - crashed_now) & active)
            if slept:
                self.events.emit(
                    round_index, "fault", fault="sleep", robots=slept
                )
            active -= sleeping | crashed_now
        if busy:
            active = {t for t in active if t not in busy}
        self.events.emit(
            round_index,
            "activation",
            active=len(active),
            asleep=len(alive) - len(active),
            forced=sorted(forced & active),
        )
        return active

    def commit(
        self,
        active: Optional[Set[Any]],
        *,
        remap: Optional[Mapping[Any, Any]] = None,
        survivors: Optional[Iterable[Any]] = None,
    ) -> None:
        """Advance streaks after a round was applied.

        ``active`` is the set the round's :meth:`select` returned, or
        ``None`` after :meth:`select_everyone`.  ``remap`` renames
        tokens (merge victims map to their surviving token; colliding
        streaks keep the minimum, and a crashed constituent makes the
        survivor crashed — a composite containing a crash-stopped robot
        cannot move).  ``survivors`` prunes bookkeeping to the tokens
        still alive; drivers whose vanished tokens all appear in
        ``remap`` need not pass it.
        """
        streak = self._streak
        crashed = self._crashed
        if self._alive is None and not streak and not crashed:
            return  # a full-activation round leaves every streak at 0
        # Alive robots outside the active set sat out: streak + 1.
        # Crashed robots never act, so theirs grows every round.
        new_streak: Dict[Any, int] = {
            t: streak.get(t, 0) + 1 for t in crashed
        }
        if self._alive is not None:
            for t in self._alive:
                if t not in active:
                    new_streak[t] = streak.get(t, 0) + 1
        if remap:
            for old, survivor in remap.items():
                old_streak = new_streak.pop(old, 0)
                kept = new_streak.get(survivor)
                if kept is not None and old_streak < kept:
                    if old_streak:
                        new_streak[survivor] = old_streak
                    else:
                        del new_streak[survivor]
                if old in crashed:
                    crashed.discard(old)
                    crashed.add(survivor)
        if survivors is not None:
            alive = set(survivors)
            new_streak = {t: s for t, s in new_streak.items() if t in alive}
            crashed &= alive
        self._streak = new_streak
