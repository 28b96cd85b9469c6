"""The bench-smoke gate: speedup floors and the scheduler-overhead limit."""

from __future__ import annotations

import json

from tools.bench_check import main

INSTANCES = {"ring_252": {"speedup": 2.7}}


def _write(tmp_path, name, report):
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


def _fresh(tmp_path, name, ssync, lcm):
    return _write(tmp_path, name, {
        "instances": INSTANCES,
        "scheduler_overhead": {
            "ratio_vs_fsync": {"ssync": ssync, "async-lcm": lcm},
        },
    })


def test_overhead_within_limit_passes(tmp_path, capsys):
    base = _write(tmp_path, "base.json", {"instances": INSTANCES})
    fresh = _fresh(tmp_path, "fresh.json", 0.98, 1.04)
    assert main([base, fresh]) == 0
    out = capsys.readouterr().out
    assert "async-lcm/fsync per round: best fresh 1.040" in out


def test_overhead_judged_on_best_fresh_value(tmp_path):
    base = _write(tmp_path, "base.json", {"instances": INSTANCES})
    noisy = _fresh(tmp_path, "a.json", 1.31, 1.02)
    quiet = _fresh(tmp_path, "b.json", 1.05, 1.25)
    assert main([base, noisy, quiet]) == 0
    assert main([base, noisy]) == 1
    assert main([base, quiet]) == 1


def test_missing_overhead_section_fails(tmp_path):
    base = _write(tmp_path, "base.json", {"instances": INSTANCES})
    fresh = _write(tmp_path, "fresh.json", {"instances": INSTANCES})
    assert main([base, fresh]) == 1
