"""The time-model-gap stack: async-lcm, byzantine faults, tolerance, D4.

Five layers:

1. **ASYNC anchor** — ``async-lcm`` with staleness 0 and full
   activation reproduces ``fsync`` trajectories *exactly* for every
   strategy that supports both (the contract that anchors the true
   ASYNC model to the paper's FSYNC claims), and staleness > 0 runs
   are seed-deterministic.
2. **Byzantine model** — seeded byzantine roles/behaviors are
   deterministic, surface as ``byzantine`` events and the
   ``byzantine_actions`` counter, and are rejected loudly on
   self-clocked (non-grid-state) programs.
3. **Fault-draw churn invariance** — :class:`FaultInjector` draws are
   pure functions of ``(seed, class, token, round)``: removing robots
   from the roster never shifts the survivors' schedule, and enabling
   one fault class never perturbs another.
4. **Tolerant variant** — the subset-safe move filter is certified
   unbreakable by the explorer at small n while the stock algorithm is
   breakable on the same shapes.
5. **D4 symmetry** — the rotation/reflection-folded dedup key reaches
   the same certification verdicts as the exact translation-only key,
   with no larger DAGs, while witness reconstruction refuses D4 DAGs.
"""

from __future__ import annotations

import pytest

from repro.analysis.certification import run_certification
from repro.api import STRATEGIES, simulate
from repro.engine.faults import BYZANTINE_BEHAVIORS, FaultInjector
from repro.explore.driver import explore
from repro.explore.witness import build_witness
from repro.swarms.generators import ring

#: Strategies runnable under both fsync and async-lcm: the Δ=0 anchor
#: must hold for every one of them.
ANCHOR_STRATEGIES = sorted(
    key
    for key, s in STRATEGIES.items()
    if "fsync" in s.schedulers and "async-lcm" in s.schedulers
)

#: The L-tetromino — a stock-breakable seed shape (16/19 at n=4).
L_TETROMINO = [(0, 0), (0, 1), (0, 2), (1, 0)]

#: Verdict-level certification row fields that must not depend on the
#: explorer's dedup symmetry group.
VERDICT_KEYS = (
    "n",
    "shapes",
    "complete",
    "max_fsync_rounds",
    "fsync_path_consistent",
    "breakable_shapes",
    "min_violation_round",
    "symmetry_consistent",
    "ok",
)


def digest(result, frames):
    """Fingerprint of a run and its per-round cells for determinism
    checks."""
    return (
        result.rounds,
        result.gathered,
        result.robots_final,
        result.activations,
        result.byzantine_actions,
        tuple(sorted(result.events.counts().items())),
        tuple(frames),
    )


class TestAsyncLcmAnchor:
    @pytest.mark.parametrize("key", ANCHOR_STRATEGIES)
    def test_zero_staleness_full_activation_reproduces_fsync(
        self, key, simulate_cells
    ):
        scn = STRATEGIES[key].compare_scenario(20)
        kwargs = dict(strategy=key, seed=3, check_connectivity=False)
        fsync, fsync_frames = simulate_cells(scn, scheduler="fsync", **kwargs)
        alcm, alcm_frames = simulate_cells(
            scn,
            scheduler="async-lcm",
            staleness=0,
            activation_p=1.0,
            sleep_rate=0.0,
            crash_rate=0.0,
            **kwargs,
        )
        assert alcm.rounds == fsync.rounds
        assert alcm.gathered == fsync.gathered
        assert alcm_frames == fsync_frames  # bit-identical
        assert len(alcm.metrics) == len(fsync.metrics)

    def test_positive_staleness_is_deterministic(self, simulate_cells):
        kwargs = dict(
            scheduler="async-lcm", staleness=2, activation_p=0.7,
            seed=5, check_connectivity=False, max_rounds=500,
        )
        r1 = simulate_cells(ring(16), **kwargs)
        r2 = simulate_cells(ring(16), **kwargs)
        assert digest(*r1) == digest(*r2)

    def test_staleness_changes_the_schedule(self, simulate_cells):
        # Δ > 0 must actually decouple the cycle: the run differs from
        # the atomic-SSYNC run under the same seed and activation law.
        base = dict(
            activation_p=0.7, seed=5, check_connectivity=False,
            max_rounds=500,
        )
        _, atomic = simulate_cells(ring(16), scheduler="ssync", **base)
        _, stale = simulate_cells(
            ring(16), scheduler="async-lcm", staleness=3, **base
        )
        assert stale != atomic

    @pytest.mark.parametrize(
        "options",
        [
            dict(scheduler="ssync", activation_p=0.6),
            dict(scheduler="ssync", activation_p=1.0),
            dict(scheduler="ssync-faulty", crash_rate=0.02),
            dict(scheduler="async-lcm", staleness=0, activation_p=0.8),
            dict(scheduler="async-lcm", staleness=3, activation_p=0.8),
            dict(scheduler="async-lcm", staleness=2, activation_p=1.0),
        ],
        ids=["ssync", "ssync-full", "faulty", "lcm-0", "lcm-3", "lcm-2-full"],
    )
    def test_activation_events_sum_to_activations(self, options):
        # Robots whose async-lcm cycle is still in flight do not start a
        # new one: the activation events must not count them either.
        result = simulate(
            ring(16), seed=1, check_connectivity=False, max_rounds=300,
            **options,
        )
        events = result.events.of_kind("activation")
        assert len(events) == result.rounds
        assert sum(e.data["active"] for e in events) == result.activations
        robots = [result.robots_initial] + [m.robots for m in result.metrics]
        for event in events:
            assert len(event.data["forced"]) <= event.data["active"]
            alive = event.data["active"] + event.data["asleep"]
            assert alive <= robots[event.round_index]

    def test_steppable_programs_reject_positive_staleness(self):
        scn = STRATEGIES["euclidean"].compare_scenario(8)
        with pytest.raises(ValueError, match="staleness=0 only"):
            simulate(
                scn, strategy="euclidean", scheduler="async-lcm",
                staleness=1, seed=1,
            )

    def test_byzantine_rate_is_not_an_async_lcm_option(self):
        with pytest.raises(TypeError, match="unknown options"):
            simulate(
                ring(8), scheduler="async-lcm", byzantine_rate=0.1,
                seed=1,
            )

    @pytest.mark.parametrize("bad", [-1, True, 1.5])
    def test_invalid_staleness_rejected(self, bad):
        with pytest.raises(ValueError, match="staleness"):
            simulate(ring(8), scheduler="async-lcm", staleness=bad)


class TestByzantine:
    def test_runs_are_seed_deterministic(self, simulate_cells):
        kwargs = dict(
            scheduler="ssync-faulty", byzantine_rate=0.2, seed=1,
            activation_p=0.9, check_connectivity=False, max_rounds=300,
        )
        r1, frames1 = simulate_cells(ring(24), **kwargs)
        r2, frames2 = simulate_cells(ring(24), **kwargs)
        assert digest(r1, frames1) == digest(r2, frames2)
        assert r1.byzantine_actions is not None
        assert r1.byzantine_actions > 0
        assert len(r1.events.of_kind("byzantine")) > 0

    def test_events_carry_marked_payload(self):
        result = simulate(
            ring(24), scheduler="ssync-faulty", byzantine_rate=0.2,
            seed=1, check_connectivity=False, max_rounds=300,
        )
        for event in result.events.of_kind("byzantine"):
            assert event.data["behavior"] in BYZANTINE_BEHAVIORS
            assert len(event.data["robots"]) >= 1

    def test_counter_is_none_without_byzantine_robots(self):
        result = simulate(
            ring(16), scheduler="ssync-faulty", sleep_rate=0.2,
            seed=2, check_connectivity=False, max_rounds=300,
        )
        assert result.byzantine_actions is None
        assert len(result.events.of_kind("byzantine")) == 0

    def test_self_clocked_programs_rejected(self):
        scn = STRATEGIES["euclidean"].compare_scenario(8)
        with pytest.raises(ValueError, match="grid-state"):
            simulate(
                scn, strategy="euclidean", scheduler="ssync-faulty",
                byzantine_rate=0.5, seed=1,
            )

    def test_tolerant_strategy_accepts_byzantine(self):
        result = simulate(
            ring(24), strategy="tolerant", scheduler="ssync-faulty",
            byzantine_rate=0.1, seed=1, check_connectivity=False,
            max_rounds=500,
        )
        assert result.byzantine_actions is not None


class TestFaultInjectorChurn:
    """Satellite: draws are invariant under roster churn — removing
    robots (merges, crashes) never shifts the survivors' schedule."""

    ROSTER = list(range(12))
    SURVIVORS = [0, 2, 3, 7, 11]

    def test_roster_churn_does_not_shift_draws(self):
        inj = FaultInjector(
            sleep_rate=0.35, crash_rate=0.15, seed=9,
            byzantine_rate=0.25,
        )
        survivors = set(self.SURVIVORS)
        for r in range(20):
            sleep_full, crash_full = inj.draw(r, self.ROSTER)
            sleep_sub, crash_sub = inj.draw(r, self.SURVIVORS)
            assert sleep_sub == sleep_full & survivors, f"round {r}"
            assert crash_sub == crash_full & survivors, f"round {r}"

    def test_byzantine_roles_are_churn_invariant(self):
        inj = FaultInjector(byzantine_rate=0.4, seed=9)
        full = inj.byzantine_tokens(self.ROSTER)
        sub = inj.byzantine_tokens(self.SURVIVORS)
        assert sub == [t for t in full if t in self.SURVIVORS]

    def test_fault_classes_draw_independently(self):
        # Enabling byzantine/crash draws must not perturb the sleep
        # schedule (each class owns its own keyed stream).
        sleep_only = FaultInjector(sleep_rate=0.3, seed=4)
        all_on = FaultInjector(
            sleep_rate=0.3, crash_rate=0.2, byzantine_rate=0.5, seed=4
        )
        for r in range(10):
            assert (
                sleep_only.draw(r, self.ROSTER)[0]
                == all_on.draw(r, self.ROSTER)[0]
            ), f"round {r}"

    def test_non_int_tokens_draw_deterministically(self):
        inj = FaultInjector(byzantine_rate=0.5, seed=1)
        assert inj.is_byzantine("node-3") == inj.is_byzantine("node-3")
        behaviors = {
            inj.byzantine_behavior(r, "node-3") for r in range(50)
        }
        assert behaviors <= set(BYZANTINE_BEHAVIORS)

    def test_offsets_stay_king_moves(self):
        inj = FaultInjector(byzantine_rate=1.0, seed=7)
        for r in range(25):
            dx, dy = inj.byzantine_offset(r, 3)
            assert max(abs(dx), abs(dy)) == 1


class TestTolerantVariant:
    def test_registered_with_full_scheduler_matrix(self):
        strat = STRATEGIES["tolerant"]
        for scheduler in ("fsync", "ssync", "ssync-faulty", "async-lcm"):
            assert scheduler in strat.schedulers

    def test_gathers_like_stock_under_fsync(self):
        stock = simulate(ring(12), strategy="grid")
        tolerant = simulate(ring(12), strategy="tolerant")
        assert tolerant.gathered
        assert tolerant.rounds >= stock.rounds  # filter only defers

    def test_certified_unbreakable_where_stock_is_not(self):
        tolerant = run_certification(4, 3, strategy="tolerant")
        assert tolerant["strategy"] == "tolerant"
        assert tolerant["overall_ok"]
        for row in tolerant["rows"]:
            assert row["complete"], row
            assert row["breakable_shapes"] == 0, row
        stock = run_certification(4, 4, verify=False)
        (stock_row,) = stock["rows"]
        assert stock_row["breakable_shapes"] == 16  # golden, n=4


class TestD4Symmetry:
    def test_certification_verdicts_match_translation(self):
        exact = run_certification(4, 3, verify=False)
        folded = run_certification(4, 3, verify=False, symmetry="d4")
        assert folded["symmetry"] == "d4"
        for row_e, row_d in zip(exact["rows"], folded["rows"]):
            for key in VERDICT_KEYS:
                assert row_e[key] == row_d[key], key

    def test_d4_dag_is_never_larger(self):
        exact = explore(L_TETROMINO)
        folded = explore(L_TETROMINO, symmetry="d4")
        assert folded.counts()["total"] <= exact.counts()["total"]
        assert folded.complete and exact.complete

    def test_witness_reconstruction_refuses_d4_dags(self):
        dag = explore(L_TETROMINO, symmetry="d4")
        broken = dag.nodes_of_status("disconnected")
        assert broken  # the L-tetromino is stock-breakable
        with pytest.raises(ValueError, match="translation"):
            build_witness(dag, target=broken[0].key)

    def test_unknown_symmetry_rejected(self):
        with pytest.raises(ValueError, match="symmetry"):
            explore(L_TETROMINO, symmetry="rot90")
