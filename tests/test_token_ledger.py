"""Robot identity and fairness streaks of the round engine.

:class:`~repro.engine.scheduler.TokenLedger` and
:class:`~repro.engine.ssync_scheduler.ActivationSchedule` update their
bookkeeping from the round's moves and sit-outs only.  The oracle here
rebuilds both from scratch every round with the full-rescan rule — every
token follows its move, robots landing on one cell keep the smallest
token, the merged streak is the minimum of the group's, and a crashed
member makes the survivor crashed — and requires equality under partial
activation, crash and byzantine faults, and staleness.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.async_greedy import AsyncGreedyGatherer
from repro.core.algorithm import GatherOnGrid
from repro.engine.faults import FaultInjector
from repro.engine.scheduler import RoundEngine, TokenLedger
from repro.engine.ssync_scheduler import ActivationSchedule, make_policy
from repro.grid.occupancy import SwarmState
from repro.swarms.generators import random_blob


class RecordingGrid(GatherOnGrid):
    def notify_applied(self, state, round_index, moves, merged):
        self.applied = dict(moves)
        super().notify_applied(state, round_index, moves, merged)


class RecordingGreedy(AsyncGreedyGatherer):
    def notify_applied(self, state, round_index, moves, merged):
        self.applied = dict(moves)


class Reference:
    """The full-rebuild rule over dense per-token maps."""

    def __init__(self, cells):
        self.cell_of = dict(enumerate(sorted(cells)))
        self.prev_cell = dict(self.cell_of)
        self.streak = {t: 0 for t in self.cell_of}
        self.crashed = set()

    def round(self, moves, active, crashed_now):
        self.crashed |= crashed_now
        if active is None:
            active = set(self.cell_of) - self.crashed
        groups = {}
        for token, cell in self.cell_of.items():
            groups.setdefault(moves.get(cell, cell), []).append(token)
        cell_of, prev, streak, crashed = {}, {}, {}, set()
        for cell, tokens in groups.items():
            survivor = min(tokens)
            cell_of[survivor] = cell
            prev[survivor] = self.cell_of[survivor]
            streak[survivor] = min(
                0 if t in active else self.streak[t] + 1 for t in tokens
            )
            if any(t in self.crashed for t in tokens):
                crashed.add(survivor)
        self.cell_of, self.prev_cell = cell_of, prev
        self.streak, self.crashed = streak, crashed


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(min_value=4, max_value=30),
    shape_seed=st.integers(min_value=0, max_value=10_000),
    seed=st.integers(min_value=0, max_value=10_000),
    policy=st.sampled_from(["uniform", "round_robin", "adversarial"]),
    p=st.sampled_from([0.3, 0.7, 1.0]),
    crash_rate=st.sampled_from([0.0, 0.03]),
    byzantine_rate=st.sampled_from([0.0, 0.3]),
    staleness=st.sampled_from([0, 2]),
    greedy=st.booleans(),
)
def test_ledger_and_streaks_match_full_rebuild(
    n, shape_seed, seed, policy, p, crash_rate, byzantine_rate, staleness,
    greedy,
):
    if staleness:
        byzantine_rate = 0.0  # async-lcm has no byzantine layer
    cells = random_blob(n, shape_seed)
    controller = RecordingGreedy() if greedy else RecordingGrid()
    faults = FaultInjector(
        crash_rate=crash_rate, byzantine_rate=byzantine_rate, seed=seed
    )
    schedule = ActivationSchedule(
        make_policy(policy, p=p, seed=seed),
        k_fairness=3,
        faults=faults if faults.enabled else None,
    )
    engine = RoundEngine(
        SwarmState(cells), controller, schedule,
        staleness=staleness, seed=seed, check_connectivity=False,
    )
    committed = []
    commit = schedule.commit

    def record_commit(active, **kwargs):
        committed.append(active)
        commit(active, **kwargs)

    schedule.commit = record_commit
    ref = Reference(cells)
    seen_events = 0
    for r in range(25):
        if engine.state.is_gathered():
            break
        engine.step()
        events = list(engine.events)[seen_events:]
        seen_events += len(events)
        crashed_now = {
            e.data["robot"]
            for e in events
            if e.kind == "fault" and e.data["fault"] == "crash"
        }
        ref.round(controller.applied, committed[-1], crashed_now)

        ledger = engine.ledger
        assert ledger.cell_of == ref.cell_of, f"round {r}"
        assert ledger.id_at == {c: t for t, c in ref.cell_of.items()}
        assert {
            t: ledger.prev_cell.get(t, c) for t, c in ledger.cell_of.items()
        } == ref.prev_cell
        assert {
            t: schedule.streak_of(t) for t in ref.cell_of
        } == ref.streak, f"round {r}"
        assert set(schedule.crashed) == ref.crashed


class TestTokenLedger:
    def test_merge_keeps_the_smallest_token(self):
        ledger = TokenLedger([(0, 0), (1, 0), (2, 0)])
        # tokens 0 and 2 both land on token 1's cell
        remap = ledger.apply({(0, 0): (1, 0), (2, 0): (1, 0)})
        assert remap == {1: 0, 2: 0}
        assert ledger.cell_of == {0: (1, 0)}
        assert ledger.id_at == {(1, 0): 0}
        assert ledger.prev_cell == {0: (0, 0)}

    def test_later_smaller_arrivals_rename_to_the_final_survivor(self):
        ledger = TokenLedger([(0, 0), (0, 1), (1, 1), (2, 1)])
        # token 2 stays on (1, 1); 3, then 1, then 0 land on it
        remap = ledger.apply(
            {(2, 1): (1, 1), (0, 1): (1, 1), (0, 0): (1, 1)}
        )
        assert remap == {1: 0, 2: 0, 3: 0}
        assert ledger.cell_of == {0: (1, 1)}

    def test_swap_into_vacated_cells_is_no_merge(self):
        ledger = TokenLedger([(0, 0), (1, 0)])
        remap = ledger.apply({(0, 0): (0, 1), (1, 0): (0, 0)})
        assert remap == {}
        assert ledger.cell_of == {0: (0, 1), 1: (0, 0)}
        assert ledger.roster() == [0, 1]

    def test_full_activation_commit_keeps_no_streaks(self):
        schedule = ActivationSchedule(make_policy("uniform", p=1.0), 4)
        assert schedule.select_everyone(0, 5)
        schedule.commit(None, remap={3: 1})
        assert schedule._streak == {}
        assert schedule.events.of_kind("activation")[0].data == {
            "active": 5, "asleep": 0, "forced": [],
        }
