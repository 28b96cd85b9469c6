"""Potential-function monotonicity: the termination argument, measured."""

import pytest

from repro.analysis.potentials import (
    first_violation,
    is_monotone_nonincreasing,
    track_potentials,
)
from repro.swarms.generators import (
    double_donut,
    random_blob,
    ring,
    solid_rectangle,
    spiral,
)


class TestHelpers:
    def test_monotone(self):
        assert is_monotone_nonincreasing([5, 5, 3, 1])
        assert not is_monotone_nonincreasing([3, 4])
        assert is_monotone_nonincreasing([3, 3.5], tolerance=1.0)

    def test_first_violation(self):
        assert first_violation([5, 4, 6, 2]) == 2
        assert first_violation([5, 4]) is None


@pytest.mark.parametrize(
    "cells",
    [ring(16), ring(24), solid_rectangle(8, 8), spiral(5),
     random_blob(150, 21), double_donut(12)],
    ids=["ring16", "ring24", "solid", "spiral", "blob", "donut"],
)
def test_robot_count_and_perimeter_monotone(cells):
    trace = track_potentials(cells)
    assert trace.gathered
    assert is_monotone_nonincreasing(trace.robots), (
        f"robot count rose at round {first_violation(trace.robots)}"
    )
    assert is_monotone_nonincreasing(trace.perimeter), (
        f"perimeter rose at round {first_violation(trace.perimeter)}"
    )


@pytest.mark.parametrize(
    "cells", [ring(16), solid_rectangle(8, 8)], ids=["ring", "solid"]
)
def test_enclosed_area_monotone(cells):
    """On these two inputs the outer enclosed area never grows.  It is
    no potential in general (next test); the outer perimeter is."""
    trace = track_potentials(cells)
    assert trace.gathered
    assert is_monotone_nonincreasing(trace.area), (
        f"area rose at round {first_violation(trace.area)}"
    )


def test_enclosed_area_rises_on_ring_128():
    """A fold can move a robot diagonally outward: on ring(33) (128
    robots) the area series rises by 1 at indices 188, 190 and 191 while
    the perimeter stays put, and the perimeter never rises."""
    trace = track_potentials(ring(33))
    assert trace.gathered
    assert first_violation(trace.area) == 188
    assert is_monotone_nonincreasing(trace.perimeter)


def test_trace_lengths_consistent():
    trace = track_potentials(ring(12))
    assert len(trace.robots) == len(trace.perimeter) == len(trace.area)
    assert len(trace.robots) == trace.rounds + 1  # initial snapshot + rounds
