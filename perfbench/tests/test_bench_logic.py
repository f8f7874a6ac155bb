"""Tests for the benchmark's own logic (not for the program it measures).

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

import os
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import hostspeed  # noqa: E402
import run  # noqa: E402
from spans import Recorder, rebind  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_excludes_nested_spans():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    rec.enter("driver")            # t=0
    clock.now = 10
    rec.enter("core")              # 10..40
    clock.now = 25
    rec.enter("memory")            # 25..35
    clock.now = 35
    rec.exit()
    clock.now = 40
    rec.exit()
    clock.now = 50
    rec.enter("store")             # 50..60
    clock.now = 60
    rec.exit()
    clock.now = 100
    rec.exit()
    assert rec.stats["driver"] == [1, 100, 100 - 30 - 10]
    assert rec.stats["core"] == [1, 30, 30 - 10]
    assert rec.stats["memory"] == [1, 10, 10]
    assert rec.stats["store"] == [1, 10, 10]
    total_self = sum(entry[2] for entry in rec.stats.values())
    assert total_self == rec.stats["driver"][1]


def test_reentered_span_counts_inclusive_time_once():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    rec.enter("trace")             # 0..20
    clock.now = 5
    rec.enter("trace")             # 5..15
    clock.now = 15
    rec.exit()
    clock.now = 20
    rec.exit()
    assert rec.stats["trace"] == [2, 20, 20]


def test_wrap_nests_and_reports_results():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    seen = []

    def inner(x):
        clock.now += 3
        return x * 2

    wrapped_inner = rec.wrap("inner", inner,
                             lambda name, result: seen.append(result))

    def outer(x):
        clock.now += 1
        return wrapped_inner(x) + 1

    assert rec.wrap(lambda x: f"outer{x}", outer)(4) == 9
    assert seen == [8]
    assert rec.stats["outer4"] == [1, 4, 1]
    assert rec.stats["inner"] == [1, 3, 3]


def test_rebind_replaces_every_module_binding():
    def original():
        return "original"

    def replacement():
        return "replacement"

    defining = types.ModuleType("benchfake.defining")
    importer = types.ModuleType("benchfake.importer")
    outsider = types.ModuleType("otherfake")
    defining.original = original
    importer.alias = original
    outsider.original = original
    added = {m.__name__: m for m in (defining, importer, outsider)}
    sys.modules.update(added)
    try:
        assert rebind(original, replacement, "benchfake") == 2
        assert defining.original is replacement
        assert importer.alias is replacement
        assert outsider.original is original
    finally:
        for name in added:
            del sys.modules[name]


def _rep(**digests):
    return {"ops": [
        {"name": name, "digest": value, "error": None}
        for name, value in digests.items()
    ]}


def test_perturbed_digest_is_a_failed_operation():
    expected = {"artifacts": {"table1": "aa", "figure1": "bb"}}
    names = ["table1", "figure1"]
    clean = run.count_failures([_rep(table1="aa", figure1="bb")],
                               names, expected)
    assert (clean["attempted"], clean["failed"]) == (2, 0)

    perturbed = run.count_failures(
        [_rep(table1="aa", figure1="bb"), _rep(table1="aa", figure1="bc")],
        names, expected,
    )
    assert (perturbed["attempted"], perturbed["failed"]) == (4, 1)
    assert "rep 1: figure1" in perturbed["problems"][0]


def test_raised_and_missing_operations_fail():
    expected = {"cells": {"a": "1", "b": "2", "c": "3"}}
    rep = {"ops": [
        {"name": "a", "digest": "1", "error": None},
        {"name": "b", "digest": None, "error": "Traceback\nValueError: x"},
    ]}
    outcome = run.count_failures([rep], ["a", "b", "c"], expected)
    assert (outcome["attempted"], outcome["failed"]) == (3, 2)
    assert outcome["problems"] == ["rep 0: b: ValueError: x",
                                   "rep 0: c: not run"]


def test_unequal_work_is_refused():
    same = {"simulations": 4, "committed": 100}
    run.check_equal_work([{"work": same}, {"work": dict(same)}])
    with pytest.raises(run.BenchError, match="unequal work"):
        run.check_equal_work([{"work": same},
                              {"work": dict(same, committed=99)}])


def test_warm_guard_fires_on_an_empty_store(tmp_path):
    root = os.path.dirname(BENCH)
    spec = {
        "kind": "artifacts", "artifacts": ["figure7"], "seed": 0,
        "timing": 200, "warmup": 100, "traced": False,
        "result_store": str(tmp_path / "results"),
        "trace_store": str(tmp_path / "traces"),
    }
    empty = run.spawn(spec, root, str(tmp_path / "out.json"))
    problems = run.warm_guard(empty["work"])
    assert any("simulated" in p for p in problems)
    assert any("generated" in p for p in problems)

    # The same stores are now filled: a second pass is store-warm.
    warm = run.spawn(spec, root, str(tmp_path / "out.json"))
    assert run.warm_guard(warm["work"]) == []
    assert warm["ops"] == empty["ops"]


@pytest.mark.parametrize("n,p", [
    (10, None), (11, 9), (54, 81), (100, 90), (1000, 99), (5000, 99),
])
def test_tail_percentile_has_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p


def test_tail_value_leaves_ten_samples_above():
    values = [float(v) for v in range(54, 0, -1)]
    metrics = run.cell_metrics([values])
    assert metrics["tail_percentile"] == 81
    assert metrics["cell_ms_tail"] == 44.0
    assert sum(v > metrics["cell_ms_tail"] for v in values) == 10
    assert metrics["cell_ms_p50"] == 27.5
    with pytest.raises(run.BenchError):
        run.cell_metrics([values[:10]])


def test_each_cell_keeps_its_fastest_repetition():
    slow = [float(v) for v in range(10, 130, 10)]      # 12 cells
    fast = [v / 2 for v in slow]
    even_fast = [f if i % 2 == 0 else s for i, (s, f) in
                 enumerate(zip(slow, fast))]
    odd_fast = [f if i % 2 else s for i, (s, f) in enumerate(zip(slow, fast))]
    assert (run.cell_metrics([slow, even_fast, odd_fast])
            == run.cell_metrics([fast]))


def test_quiet_wall_takes_each_cell_at_its_fastest():
    # Each repetition: 1 s outside run_benchmark plus three cells.
    reps = [
        {"wall_s": 1.0 + 0.6, "cell_ms": [100.0, 200.0, 300.0]},
        {"wall_s": 1.2 + 0.6, "cell_ms": [300.0, 100.0, 200.0]},
    ]
    assert run.quiet_wall(reps) == pytest.approx(1.0 + 0.1 + 0.1 + 0.2)
    assert run.quiet_wall(reps[:1]) == pytest.approx(1.6)


def test_expected_min_of_draws_without_replacement():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert hostspeed.expected_min(samples, 1) == pytest.approx(2.5)
    # Pairs: the smallest is 1 in 3 of 6, 2 in 2, 3 in 1.
    assert hostspeed.expected_min(samples, 2) == pytest.approx(10 / 6)
    assert hostspeed.expected_min(samples, 4) == 1.0
    assert hostspeed.expected_min(samples, 9) == 1.0


def test_scale_brings_times_to_the_reference_speed():
    ref = hostspeed.REFERENCE_S
    steady = hostspeed.STEADY_SHARE
    assert hostspeed.scale([ref, ref], 1) == pytest.approx(1.0)
    # Expected fastest of one draw: 2.5 ref, a 2.5x slower loop.
    assert (hostspeed.scale([ref, ref * 4], 1)
            == pytest.approx(1 / (steady + (1 - steady) * 2.5)))
    # Fastest of both draws: ref / 2, a 2x faster loop.
    assert (hostspeed.scale([ref / 2, ref * 4], 2)
            == pytest.approx(1 / (steady + (1 - steady) * 0.5)))


def test_all_warm_cache_key_follows_the_sources(tmp_path):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "core.py").write_text("A = 1\n")
    spec = {"seed": 0, "timing": 600}
    key = run.source_key(str(tmp_path), spec)
    (src / "__pycache__").mkdir()
    (src / "__pycache__" / "core.pyc").write_bytes(b"\0")
    assert run.source_key(str(tmp_path), spec) == key
    assert run.source_key(str(tmp_path), dict(spec, seed=7)) != key
    (src / "core.py").write_text("A = 2\n")
    assert run.source_key(str(tmp_path), spec) != key
