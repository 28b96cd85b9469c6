"""The SSYNC + fault-injection scheduling subsystem.

Five layers:

1. **FSYNC anchor** — ``ssync`` with activation probability 1.0 and zero
   faults reproduces ``fsync`` trajectories *exactly*, for every
   strategy that supports FSYNC (the contract that makes SSYNC results
   comparable to the paper's claims).
2. **Determinism** — the same seed yields an identical result digest
   across repeated runs and across process-pool worker counts (seeded
   activation/fault schedules, no hidden global state).
3. **Fairness and policies** — the k-fairness bound is enforced (no
   fault-free robot sleeps k consecutive rounds), round-robin covers the
   roster, the adversarial policy starves the grid algorithm's runners
   until fairness forces them awake.
4. **Faults** — crash-stopped robots freeze in place forever (grid cells
   pinned, Euclidean indices frozen), sleep faults are logged, and fault
   draws do not perturb the activation schedule of the survivors.
5. **Surface** — registry entries, option validation naming the
   registered schedulers, ``connectivity_lost`` termination semantics.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import SweepJob, run_jobs, run_robustness
from repro.api import SCHEDULERS, STRATEGIES, simulate
from repro.engine.faults import FaultInjector
from repro.engine.protocols import Scenario
from repro.engine.ssync_scheduler import (
    ACTIVATION_POLICIES,
    ActivationSchedule,
    RoundRobinActivation,
    UniformActivation,
    make_policy,
)
from repro.swarms.generators import ring

#: Strategies whose FSYNC trajectories the full-activation SSYNC run
#: must reproduce bit-for-bit.
FSYNC_STRATEGIES = sorted(
    key for key, s in STRATEGIES.items() if "fsync" in s.schedulers
)


def digest(result, frames):
    """Order-sensitive fingerprint of a run and its per-round cells (for
    determinism checks)."""
    return (
        result.rounds,
        result.gathered,
        result.robots_final,
        result.activations,
        tuple(sorted(result.events.counts().items())),
        tuple(frames),
    )


class TestFsyncAnchor:
    @pytest.mark.parametrize("key", FSYNC_STRATEGIES)
    def test_full_activation_reproduces_fsync(self, key, simulate_cells):
        scn = STRATEGIES[key].compare_scenario(20)
        kwargs = dict(strategy=key, seed=3, check_connectivity=False)
        fsync, fsync_frames = simulate_cells(scn, scheduler="fsync", **kwargs)
        ssync, ssync_frames = simulate_cells(
            scn,
            scheduler="ssync",
            activation_p=1.0,
            sleep_rate=0.0,
            crash_rate=0.0,
            **kwargs,
        )
        assert ssync.rounds == fsync.rounds
        assert ssync.gathered == fsync.gathered
        assert ssync_frames == fsync_frames
        assert len(ssync.metrics) == len(fsync.metrics)

    def test_full_activation_counts_everyone(self):
        result = simulate(
            ring(12), scheduler="ssync", activation_p=1.0, max_rounds=3
        )
        # every robot is activated every round
        per_round = [e.data["active"] for e in
                     result.events.of_kind("activation")]
        robots = [m.robots for m in result.metrics]
        assert per_round[0] == result.robots_initial
        assert all(a == r for a, r in zip(per_round[1:], robots))


class TestDeterminism:
    @pytest.mark.parametrize("scheduler", ["ssync", "ssync-faulty"])
    def test_same_seed_same_digest(self, scheduler, simulate_cells):
        def run():
            return digest(
                *simulate_cells(
                    Scenario(family="blob", n=24, seed=7),
                    scheduler=scheduler,
                    seed=7,
                    check_connectivity=False,
                )
            )

        assert run() == run()

    def test_digest_independent_of_worker_count(self):
        jobs = [
            SweepJob(
                family="line",
                n=n,
                seed=5,
                check_connectivity=False,
                strategy="grid",
                scheduler="ssync",
                options=(("activation_p", 0.8), ("k_fairness", 6)),
            )
            for n in (12, 16, 20)
        ]
        serial = run_jobs(jobs, workers=None)
        parallel = run_jobs(jobs, workers=2)
        assert serial == parallel

    def test_robustness_sweep_parallel_equals_serial(self):
        args = (["grid", "async_greedy"], [0.6, 1.0], 12)
        kwargs = dict(seed=2, max_rounds=500)
        assert run_robustness(*args, **kwargs) == run_robustness(
            *args, workers=2, **kwargs
        )

    def test_seed_changes_schedule(self, simulate_cells):
        frames = {
            seed: simulate_cells(
                ring(16),
                scheduler="ssync",
                seed=seed,
                check_connectivity=False,
            )[1]
            for seed in (1, 2)
        }
        assert frames[1] != frames[2]


class TestFairnessAndPolicies:
    def test_schedule_enforces_k_fairness(self):
        # A policy that never chooses anyone: only forcing activates.
        schedule = ActivationSchedule(UniformActivation(0.0), k_fairness=4)
        roster = list(range(6))
        activated_at = {t: [] for t in roster}
        for r in range(12):
            active = schedule.select(r, roster)
            for t in active:
                activated_at[t].append(r)
            for t in roster:
                assert schedule.streak_of(t) <= 3
            schedule.commit(active, survivors=roster)
        # forced awake exactly when the streak hits k-1
        assert all(rounds == [3, 7, 11] for rounds in activated_at.values())

    def test_zero_probability_is_fsync_every_k_rounds(self):
        fsync = simulate(Scenario(family="ring", n=20))
        lazy = simulate(
            Scenario(family="ring", n=20),
            scheduler="ssync",
            activation_p=0.0,
            k_fairness=3,
            check_connectivity=False,
        )
        # k-1 all-idle rounds, then one full FSYNC round, repeated
        assert lazy.gathered
        assert lazy.rounds == 3 * fsync.rounds

    def test_round_robin_partitions_roster(self):
        policy = RoundRobinActivation(k=3)
        roster = list(range(10))
        seen = set()
        for r in range(3):
            seen |= policy.select(r, roster, frozenset())
        assert seen == set(roster)

    def test_adversarial_starves_runners_until_forced(self):
        result = simulate(
            Scenario(family="ring", n=24),
            scheduler="ssync",
            activation="adversarial",
            k_fairness=5,
            check_connectivity=False,
            max_rounds=60,
        )
        forced = [
            e.data["forced"] for e in result.events.of_kind("activation")
        ]
        # the starved runners are eventually forced awake by fairness
        assert any(forced), "adversarial run never needed forcing"

    def test_unknown_policy_is_loud(self):
        with pytest.raises(KeyError, match="unknown activation policy"):
            make_policy("lazy")
        assert set(ACTIVATION_POLICIES) == {
            "uniform",
            "round_robin",
            "adversarial",
            "scripted",
        }

    def test_scripted_policy_requires_a_schedule(self):
        with pytest.raises(ValueError, match="schedule"):
            make_policy("scripted")
        with pytest.raises(ValueError, match="scripted"):
            simulate(
                ring(8),
                scheduler="ssync",
                activation="uniform",
                schedule=[(0,)],
                check_connectivity=False,
            )

    def test_scripted_policy_follows_the_script_then_fsync(self):
        policy = make_policy("scripted", schedule=[(0, 2), ()])
        roster = list(range(4))
        assert policy.select(0, roster, frozenset()) == {0, 2}
        assert policy.select(1, roster, frozenset()) == set()
        # past the script's end: FSYNC tail over whoever is alive
        assert policy.select(2, roster, frozenset()) == set(roster)
        assert policy.select(7, [1, 3], frozenset()) == {1, 3}

    def test_inapplicable_policy_parameter_rejected(self):
        with pytest.raises(ValueError, match="activation_p applies only"):
            simulate(
                ring(8),
                scheduler="ssync",
                activation="round_robin",
                activation_p=0.2,
                check_connectivity=False,
            )
        with pytest.raises(ValueError, match="rr_k applies only"):
            simulate(
                ring(8),
                scheduler="ssync",
                activation="adversarial",
                rr_k=4,
                check_connectivity=False,
            )

    def test_adversarial_hints_reach_stepped_programs(self):
        # With mover hints flowing, the adversary starves last round's
        # movers, so the activated halves alternate and no robot's
        # streak ever reaches the fairness bound.  The no-hints fallback
        # starves a *fixed* half, which only ever acts via forcing — so
        # forcing firing here would mean the hints were dropped.
        result = simulate(
            Scenario(family="circle", n=12),
            strategy="euclidean",
            scheduler="ssync",
            activation="adversarial",
            k_fairness=4,
            max_rounds=40,
        )
        assert result.gathered
        assert all(
            e.data["forced"] == []
            for e in result.events.of_kind("activation")
        )


class TestFaults:
    def test_crashed_grid_robot_pins_its_cell(self):
        frames = []
        result = simulate(
            Scenario(family="ring", n=24),
            scheduler="ssync-faulty",
            crash_rate=0.02,
            sleep_rate=0.0,
            activation_p=0.9,
            seed=11,
            check_connectivity=False,
            max_rounds=120,
            on_round=lambda i, s: frames.append(frozenset(s.cells)),
        )
        crashes = [
            e
            for e in result.events.of_kind("fault")
            if e.data["fault"] == "crash"
        ]
        assert crashes, "seed 11 must produce at least one crash"
        for event in crashes:
            cell = event.data["cell"]
            assert all(cell in f for f in frames[event.round_index:]), (
                f"crashed robot at {cell} moved after round "
                f"{event.round_index}"
            )

    def test_crashed_euclidean_robot_freezes(self):
        frames = []
        result = simulate(
            Scenario(family="circle", n=10),
            strategy="euclidean",
            scheduler="ssync-faulty",
            crash_rate=0.1,
            sleep_rate=0.0,
            activation_p=1.0,
            seed=7,
            max_rounds=30,
            on_round=lambda i, s: frames.append(tuple(s.cells)),
        )
        crashes = [
            e
            for e in result.events.of_kind("fault")
            if e.data["fault"] == "crash"
        ]
        assert crashes
        for event in crashes:
            idx = event.data["robot"]
            positions = {
                frames[r][idx]
                for r in range(event.round_index, len(frames))
            }
            assert len(positions) == 1

    def test_sleep_faults_are_logged(self):
        result = simulate(
            ring(16),
            scheduler="ssync-faulty",
            sleep_rate=0.3,
            activation_p=1.0,
            seed=4,
            check_connectivity=False,
            max_rounds=40,
        )
        sleeps = [
            e
            for e in result.events.of_kind("fault")
            if e.data["fault"] == "sleep"
        ]
        assert sleeps and all(e.data["robots"] for e in sleeps)

    def test_fault_rates_validated(self):
        with pytest.raises(ValueError, match="probability"):
            FaultInjector(sleep_rate=1.5)
        with pytest.raises(ValueError, match="probability"):
            simulate(
                ring(8),
                scheduler="ssync-faulty",
                crash_rate=-0.1,
                check_connectivity=False,
            )

    def test_ssync_default_is_fault_free(self):
        result = simulate(
            ring(16), scheduler="ssync", seed=1, check_connectivity=False
        )
        assert not result.events.of_kind("fault")


class TestSurface:
    def test_registry_entries(self):
        assert {"ssync", "ssync-faulty"} <= set(SCHEDULERS)
        for key, strat in STRATEGIES.items():
            assert "ssync" in strat.schedulers, key
            assert "ssync-faulty" in strat.schedulers, key

    @pytest.mark.parametrize("key", sorted(STRATEGIES))
    def test_every_strategy_runs_under_ssync(self, key):
        result = simulate(
            STRATEGIES[key].compare_scenario(12),
            strategy=key,
            scheduler="ssync",
            check_connectivity=False,
            seed=1,
            max_rounds=400,
        )
        assert result.scheduler == "ssync"
        assert len(result.metrics) == result.rounds
        assert len(result.events.of_kind("activation")) == result.rounds

    def test_unknown_scheduler_option_names_registry(self):
        with pytest.raises(TypeError, match="registered schedulers"):
            simulate(ring(8), scheduler="ssync", fault_mode="byzantine")

    def test_non_ssync_scheduler_rejects_ssync_options(self):
        with pytest.raises(TypeError) as excinfo:
            simulate(ring(8), sleep_rate=0.1)
        message = str(excinfo.value)
        assert "'ssync'" in message and "'ssync-faulty'" in message

    def test_connectivity_loss_terminates_cleanly(self):
        # Under partial activation the paper's algorithm may break its
        # FSYNC-only safety invariant; the SSYNC engine reports that as
        # an outcome instead of raising.
        result = simulate(
            Scenario(family="ring", n=28),
            scheduler="ssync",
            activation_p=0.5,
            seed=1,
        )
        assert not result.gathered
        assert len(result.events.of_kind("connectivity_violation")) == 1
        assert len(result.events.of_kind("connectivity_lost")) == 1

    def test_global_total_moves_counts_applied_only(self):
        result = simulate(
            Scenario(family="line", n=16),
            strategy="global",
            scheduler="ssync",
            activation_p=0.5,
            seed=3,
            check_connectivity=False,
        )
        # a move both planned and activated is at most one activation
        assert result.extras["total_moves"] <= result.activations

    def test_chain_roster_ids_survive_contractions(self):
        result = simulate(
            Scenario(family="hairpin", n=21),
            strategy="chain",
            scheduler="ssync-faulty",
            sleep_rate=0.2,
            seed=3,
        )
        assert result.robots_final < result.robots_initial
        assert len(result.metrics) == result.rounds


class TestScheduleFuzz:
    """Seeded schedule fuzzing through the ``scripted`` policy: random
    explicit activation scripts must uphold the same invariants as the
    stochastic policies, and the all-tokens script is the FSYNC anchor
    in scripted clothing."""

    @staticmethod
    def _random_schedule(n_tokens, rounds, seed, p=0.7):
        import random

        rng = random.Random(seed)
        return [
            tuple(t for t in range(n_tokens) if rng.random() < p)
            for _ in range(rounds)
        ]

    def test_all_tokens_script_reproduces_fsync(self):
        from repro.trace.replay import replay_schedule

        cells = sorted(ring(14))
        fsync = simulate(cells)
        schedule = [tuple(range(len(cells)))] * fsync.rounds
        scripted = replay_schedule(cells, schedule)
        assert scripted.rounds == fsync.rounds
        assert scripted.gathered

    def test_fuzzed_scripts_uphold_invariants(self):
        """Over a batch of seeded random scripts: robot counts never
        increase, and a connectivity violation ends the run that same
        round — as ``connectivity_lost``, or as ``gathered`` when the
        split state still fits the gathering box (the engine checks
        the bounding-box gathering predicate first)."""
        from repro.swarms.generators import random_blob
        from repro.trace.replay import replay_schedule

        outcomes = set()
        for seed in range(12):
            cells = sorted(random_blob(10, seed))
            schedule = self._random_schedule(len(cells), 30, seed)
            counts = []
            result = replay_schedule(
                cells,
                schedule,
                max_rounds=120,
                on_round=lambda i, s: counts.append(len(s)),
            )
            assert all(a >= b for a, b in zip(counts, counts[1:]))
            violations = result.events.of_kind("connectivity_violation")
            lost = result.events.of_kind("connectivity_lost")
            assert len(violations) <= 1
            assert len(lost) <= len(violations)
            if violations:
                assert result.rounds == violations[0].round_index + 1
                if result.gathered:
                    assert not lost
                else:
                    assert len(lost) == 1
                    outcomes.add("broken")
            else:
                assert not lost
            if result.gathered:
                outcomes.add("gathered")
        # the fuzz batch must actually exercise both outcomes
        assert outcomes == {"broken", "gathered"}

    def test_scripted_replay_is_deterministic(self):
        from repro.swarms.generators import random_blob
        from repro.trace.replay import replay_schedule

        cells = sorted(random_blob(12, 3))
        schedule = self._random_schedule(len(cells), 20, seed=9)

        def run():
            frames = []
            result = replay_schedule(
                cells,
                schedule,
                max_rounds=80,
                on_round=lambda i, s: frames.append(tuple(sorted(s.cells))),
            )
            return digest(result, frames)

        assert run() == run()

    def test_explorer_witness_replays_through_stock_scheduler(self):
        """End to end: an explorer-found counterexample drives the real
        SSYNC scheduler to the exact predicted per-round cells."""
        from repro.explore import build_witness, explore, verify_witness

        dag = explore([(0, 0), (0, 1), (0, 2), (1, 0)])
        witness = build_witness(dag, target=dag.first("disconnected").key)
        assert verify_witness(witness)
        result = simulate(
            list(witness.initial),
            scheduler="ssync",
            activation="scripted",
            schedule=[list(s) for s in witness.schedule],
            k_fairness=witness.fairness_k,
        )
        assert not result.gathered
        violations = result.events.of_kind("connectivity_violation")
        assert [e.round_index for e in violations] == [
            witness.violation_round
        ]
        assert result.events.of_kind("connectivity_lost")
