"""Empirical validation of the paper's proof accounting (Lemmas 1-2,
Theorem 1) on real simulation event streams."""

import pytest

from repro.analysis.progress import ProgressAudit, audit_result
from repro.core.algorithm import gather
from repro.core.config import AlgorithmConfig
from repro.swarms.generators import (
    diamond_ring,
    double_donut,
    random_blob,
    ring,
    spiral,
)

CFG = AlgorithmConfig()


@pytest.mark.parametrize(
    "name,cells",
    [
        ("ring20", ring(20)),
        ("ring32", ring(32)),
        ("diamond10", diamond_ring(10)),
        ("spiral6", spiral(6)),
        ("donut", double_donut(14)),
        ("blob", random_blob(300, 13)),
    ],
    ids=["ring20", "ring32", "diamond10", "spiral6", "donut", "blob"],
)
def test_lemma1_no_idle_windows(name, cells):
    """Lemma 1: every full L-window contains a merge or a new run start."""
    result = gather(cells, CFG)
    assert result.gathered
    audit = audit_result(result, CFG)
    assert audit.lemma1_holds, (
        f"{name}: {audit.idle_windows} idle windows of L="
        f"{CFG.run_start_interval} rounds"
    )


@pytest.mark.parametrize(
    "cells", [ring(24), random_blob(200, 5)], ids=["ring", "blob"]
)
def test_theorem1_window_bound(cells):
    """Theorem 1: the number of L-windows is bounded by ~2n."""
    result = gather(cells, CFG)
    audit = audit_result(result, CFG)
    assert audit.theorem1_window_bound(result.robots_initial)


def test_run_lifetimes_bounded_by_n(ring12):
    """Lemma 2a: a run leads to its merge within at most ~n rounds."""
    result = gather(ring12, CFG)
    audit = audit_result(result, CFG)
    bound = result.robots_initial + CFG.run_start_interval
    assert audit.max_run_lifetime <= bound


def test_all_started_runs_eventually_stop():
    result = gather(ring(28), CFG)
    audit = audit_result(result, CFG)
    # every run stops (merged/lost/terminated) or survives to the end;
    # survivors are bounded by the last window's starts
    assert audit.runs_stopped <= audit.runs_started
    assert audit.runs_started - audit.runs_stopped <= 10


def test_audit_counts_consistent():
    result = gather(ring(20), CFG)
    audit = audit_result(result, CFG)
    assert audit.windows >= 1
    assert audit.windows_with_merge <= audit.windows
    assert audit.windows_with_start <= audit.windows
    assert isinstance(audit, ProgressAudit)
