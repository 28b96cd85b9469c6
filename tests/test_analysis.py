"""Unit tests for the analysis layer: fits, sweeps, tables, progress."""

import pytest

from repro.analysis.experiments import run_scaling, sweep
from repro.analysis.fitting import (
    fit_linear,
    fit_power,
    fit_quadratic,
    scaling_exponent,
)
from repro.analysis.progress import (
    find_progress_sites,
    is_mergeless,
    mergeless_structure,
)
from repro.analysis.tables import format_table
from repro.core.config import AlgorithmConfig
from repro.grid.occupancy import SwarmState
from repro.swarms.generators import ring, solid_rectangle


class TestFits:
    def test_linear_exact(self):
        f = fit_linear([1, 2, 3, 4], [3, 5, 7, 9])
        assert f.coefficients[0] == pytest.approx(2.0)
        assert f.coefficients[1] == pytest.approx(1.0)
        assert f.r_squared == pytest.approx(1.0)

    def test_linear_predict(self):
        f = fit_linear([0, 1], [1, 3])
        assert f.predict(10) == pytest.approx(21.0)

    def test_quadratic_exact(self):
        xs = [1, 2, 3, 4, 5]
        f = fit_quadratic(xs, [x * x for x in xs])
        assert f.coefficients[0] == pytest.approx(1.0, abs=1e-9)
        assert f.r_squared == pytest.approx(1.0)

    def test_power_recovers_exponent(self):
        xs = [4, 8, 16, 32, 64]
        f = fit_power(xs, [3 * x**1.5 for x in xs])
        assert f.coefficients[1] == pytest.approx(1.5, abs=1e-9)

    def test_scaling_exponent(self):
        xs = [10, 20, 40, 80]
        assert scaling_exponent(xs, [x * 2 for x in xs]) == pytest.approx(1.0)
        assert scaling_exponent(xs, [x * x for x in xs]) == pytest.approx(2.0)

    def test_power_requires_positive(self):
        with pytest.raises(ValueError):
            fit_power([1, 2], [0, 1])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_linear([1], [1])
        with pytest.raises(ValueError):
            fit_quadratic([1, 2], [1, 2])


class TestExperimentHelpers:
    def test_run_scaling_collects_points(self):
        pts = run_scaling("line", [20, 40])
        assert len(pts) == 2
        assert all(p.gathered for p in pts)
        assert pts[0].n == 20 and pts[1].n == 40
        assert pts[1].rounds >= pts[0].rounds

    def test_sweep_reports_stall(self):
        out = sweep(
            [True, False],
            lambda v: AlgorithmConfig(enable_runs=v),
            lambda: ring(14),
            max_rounds=400,
        )
        assert out[True] > 0
        assert out[False] == -1  # runs disabled: mergeless ring stalls


class TestParallelSweeps:
    """The ProcessPoolExecutor sweep runner: deterministic ordering and
    bit-identical results to the serial path."""

    def test_parallel_matches_serial(self):
        serial = run_scaling("line", [16, 24, 32], check_connectivity=False)
        parallel = run_scaling(
            "line", [16, 24, 32], check_connectivity=False, workers=2
        )
        assert parallel == serial  # order and values

    def test_workers_zero_uses_cpu_count(self):
        pts = run_scaling(
            "solid", [16, 25], check_connectivity=False, workers=0
        )
        assert [p.gathered for p in pts] == [True, True]

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            run_scaling("line", [8], workers=-1)

    def test_per_task_seeds_vary_stochastic_families(self):
        a = run_scaling("blob", [40], seeds=[1], check_connectivity=False)
        b = run_scaling("blob", [40], seeds=[2], check_connectivity=False)
        c = run_scaling("blob", [40], seeds=[1], check_connectivity=False)
        assert a == c  # same seed -> same instance -> same result
        assert (a[0].rounds, a[0].diameter) != (b[0].rounds, b[0].diameter) \
            or a[0].merges != b[0].merges

    def test_run_ablation_parallel_matches_serial(self):
        from repro.analysis.experiments import run_ablation

        serial = run_ablation(
            "enable_runs", [True, False], "ring", 40, max_rounds=400
        )
        parallel = run_ablation(
            "enable_runs",
            [True, False],
            "ring",
            40,
            max_rounds=400,
            workers=2,
        )
        assert serial == parallel
        assert serial[True] > 0 and serial[False] == -1


class TestTables:
    def test_alignment(self):
        txt = format_table(["a", "bb"], [[1, 2.5], [30, 4]])
        lines = txt.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1

    def test_title(self):
        txt = format_table(["x"], [[1]], title="T")
        assert txt.splitlines()[0] == "T"

    def test_bad_row_raises(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])


class TestProgress:
    def test_ring_is_mergeless(self):
        assert is_mergeless(SwarmState(ring(12)))

    def test_solid_is_not_mergeless(self):
        assert not is_mergeless(SwarmState(solid_rectangle(5, 5)))

    def test_mergeless_has_progress_sites(self):
        # Lemma 1: mergeless + not gathered -> run starts exist
        sites = find_progress_sites(SwarmState(ring(12)))
        assert sites

    def test_structure_report(self):
        rep = mergeless_structure(SwarmState(ring(12)))
        assert rep.aligned_segments >= 4
        assert rep.long_segments >= 4
        assert rep.max_perpendicular_run >= 3
