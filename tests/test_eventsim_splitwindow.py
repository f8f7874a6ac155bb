"""Behavior tests for the split-window machine (``repro.eventsim``).

Bit-level parity with the oracle at degenerate fabric settings is
pinned by ``test_splitwindow_parity.py``; this module covers what only
the machine models: the sync-fabric knobs (link latency, bounded
bandwidth, banked memory), squash cancellation of in-flight messages,
the cycle guard, backend routing, the store schema regression for
fabric points, and run-to-run determinism.
"""

from collections import Counter
from dataclasses import asdict

import pytest

from repro.config import SchedulingModel, SpeculationPolicy
from repro.config.presets import split_window
from repro.eventsim import (
    EventSplitWindowProcessor,
    SyncFabric,
    simulate_split_event,
)
from repro.experiments.runner import (
    ExperimentSettings,
    _config_key,
    clear_results,
    run_benchmark,
)
from repro.experiments.store import ResultStore, set_store
from repro.splitwindow import SplitWindowProcessor, simulate_split
from repro.trace.dependences import compute_dependence_info
from repro.workloads.catalog import get_trace


def setup_function(_):
    clear_results()


def _split(**kwargs):
    return split_window(
        SchedulingModel.AS, SpeculationPolicy.NAIVE, **kwargs
    )


# Kernel traces run the kernel to completion; the length is an upper
# bound that must clear the kernel's dynamic instruction count.
def _run(config, kernel="recurrence", length=4_000):
    trace = get_trace(kernel, length, seed=0)
    return simulate_split_event(
        config, trace, compute_dependence_info(trace)
    )


# -- determinism and bookkeeping --------------------------------------


@pytest.mark.parametrize(
    "point",
    (
        {"link_latency": 2, "sync_bandwidth": 2},
        {"sync_bandwidth": 1},
        {"link_latency": 1, "mem_banks": 2, "bank_ports": 1},
    ),
    ids=lambda p: "-".join(f"{k}{v}" for k, v in p.items()),
)
def test_event_run_is_deterministic(point):
    """Same config and trace => identical SimResult, extra included."""
    config = _split(**point)
    first = _run(config)
    second = _run(config)
    assert asdict(first) == asdict(second)


def test_squash_cancels_in_flight_messages(monkeypatch):
    """A squash cancels its stores' in-flight messages; none of them
    reaches the delivery-time violation check, and every posted message
    is counted once, as delivered or as cancelled."""
    posts = {}  # order -> (store seq, visible)
    cancelled = set()  # orders a squash dropped
    flushed = set()  # orders still in flight when the run ended
    checked = Counter()  # (store seq, visible) that ran the check

    post, cancel_from, flush = (
        SyncFabric.post, SyncFabric.cancel_from, SyncFabric.flush
    )
    deliver = EventSplitWindowProcessor._deliver

    def spy_post(fabric, seq, base):
        order = fabric.posted
        posts[order] = (seq, post(fabric, seq, base))
        return posts[order][1]

    def spy_cancel_from(fabric, seq):
        before = set(fabric._inflight)
        cancel_from(fabric, seq)
        cancelled.update(before - set(fabric._inflight))

    def spy_flush(fabric):
        flushed.update(fabric._inflight)
        flush(fabric)

    def spy_deliver(machine, seq, visible):
        checked[seq, visible] += 1
        deliver(machine, seq, visible)

    monkeypatch.setattr(SyncFabric, "post", spy_post)
    monkeypatch.setattr(SyncFabric, "cancel_from", spy_cancel_from)
    monkeypatch.setattr(SyncFabric, "flush", spy_flush)
    monkeypatch.setattr(EventSplitWindowProcessor, "_deliver", spy_deliver)

    result = _run(
        _split(sync_bandwidth=1, num_units=8, task_size=16),
        kernel="129.compress", length=3_000,
    )
    info = result.extra["eventsim"]
    assert info["events_cancelled"] > 0
    assert info["events_cancelled"] == len(cancelled)
    assert info["fabric_posted"] == len(posts)
    assert (info["events_fired"] - result.cycles
            == info["fabric_posted"] - info["events_cancelled"])
    live = set(posts) - cancelled - flushed
    assert checked == Counter(posts[order] for order in live)


def test_cycle_guard_raises_when_wedged():
    trace = get_trace("recurrence", 4_000, seed=0)
    machine = EventSplitWindowProcessor(_split(), trace)
    machine.guard_limit = 10
    with pytest.raises(RuntimeError, match="split-window simulation wedged"):
        machine.run()


def test_eventsim_stats_attached():
    result = _run(_split(link_latency=1, sync_bandwidth=2, mem_banks=4))
    info = result.extra["eventsim"]
    assert info["events_fired"] > 0
    assert info["fabric_posted"] > 0
    assert info["bank_accesses"] > 0


# -- fabric physics ----------------------------------------------------


def test_link_latency_delays_visibility_and_costs_misspeculations():
    """A slower fabric can only widen the blind window (R6 direction)."""
    base = _run(_split()).misspeculations
    slow = _run(_split(link_latency=2)).misspeculations
    slower = _run(_split(link_latency=4)).misspeculations
    assert base <= slow <= slower
    assert slower > base  # recurrence is dependence-dense: must move


def test_bounded_bandwidth_queues_postings():
    result = _run(_split(sync_bandwidth=1), kernel="memcopy",
                  length=8_000)
    info = result.extra["eventsim"]
    assert info["fabric_queued"] > 0
    assert info["fabric_max_queue_delay"] >= 1


def test_banked_memory_conflicts_cost_cycles():
    free = _run(_split())
    banked = _run(_split(mem_banks=1, bank_ports=1))
    assert banked.extra["eventsim"]["bank_conflicts"] > 0
    assert banked.cycles >= free.cycles


def test_commit_stream_immune_to_fabric():
    """Fabric knobs change timing/speculation, never correctness."""
    ideal = _run(_split())
    real = _run(_split(link_latency=3, sync_bandwidth=1, mem_banks=2))
    for field in ("committed", "committed_loads", "committed_stores",
                  "committed_branches"):
        assert getattr(ideal, field) == getattr(real, field)


# -- backend routing ---------------------------------------------------


def test_legacy_engine_rejects_non_degenerate_fabric():
    trace = get_trace("recurrence", 4_000, seed=0)
    with pytest.raises(ValueError, match="event-driven"):
        SplitWindowProcessor(_split(link_latency=1), trace)


@pytest.mark.parametrize("backend", ("reference", "vector"))
def test_split_runs_on_eventsim_for_any_backend(backend):
    """Every split cell runs the machine, and it matches the oracle."""
    settings = ExperimentSettings(
        timing_instructions=1_200, warmup_instructions=400
    )
    config = _split()
    result = run_benchmark("126.gcc", config, settings, backend=backend)
    assert result.extra["backend"] == "eventsim"
    trace = get_trace("126.gcc", settings.trace_length, settings.seed)
    oracle = asdict(
        simulate_split(config, trace, compute_dependence_info(trace))
    )
    machine = asdict(result)
    oracle.pop("extra")
    machine.pop("extra")
    assert machine == oracle


@pytest.mark.parametrize("backend", ("reference", "vector"))
def test_simulate_runs_split_configs_on_the_split_machine(backend):
    """``repro.core.simulate`` follows the same rule as the runner."""
    import repro
    from repro.core import simulate

    config = split_window(
        SchedulingModel.AS, SpeculationPolicy.NAIVE, num_units=4
    )
    trace = get_trace("126.gcc", 2_000, seed=0)
    expected = asdict(repro.simulate_split(config, trace))
    got = asdict(simulate(config, trace, backend=backend))
    expected.pop("extra")
    got.pop("extra")
    assert got == expected


def test_continuous_core_rejects_split_configs():
    from repro.core import Processor

    trace = get_trace("126.gcc", 2_000, seed=0)
    with pytest.raises(ValueError, match="split-window machine"):
        Processor(_split(), trace)


def test_simulate_rejects_what_the_split_machine_cannot_honour():
    from repro.core import simulate
    from repro.observe import ObserverBus
    from repro.trace.sampling import SamplingPlan, Segment

    trace = get_trace("126.gcc", 2_000, seed=0)
    warm = SamplingPlan(
        (Segment(0, 500, timing=False), Segment(500, 2_000, timing=True)),
        2_000,
    )
    with pytest.raises(ValueError, match="warm-up"):
        simulate(_split(), trace, warm)
    with pytest.raises(ValueError, match="observer"):
        simulate(_split(), trace, observer=ObserverBus([]))


def test_run_benchmark_routes_fabric_configs_to_eventsim():
    settings = ExperimentSettings(
        timing_instructions=1_200, warmup_instructions=400
    )
    result = run_benchmark("126.gcc", _split(link_latency=1), settings)
    assert result.extra["backend"] == "eventsim"
    assert "eventsim" in result.extra


# -- store schema regression (fabric knobs in the config key) ----------

_FABRIC_POINTS = (
    {},
    {"link_latency": 1},
    {"sync_bandwidth": 2},
    {"mem_banks": 4},
    {"mem_banks": 4, "bank_ports": 2},
    {"link_latency": 2, "sync_bandwidth": 1},
)


def test_config_key_separates_fabric_points():
    """Regression: distinct fabric settings must never share a key.

    Before schema v3 the key ignored the fabric knobs, so a
    link_latency=2 result could be served from the cache to a
    link_latency=0 request (and vice versa) — silently wrong sweeps.
    """
    keys = {_config_key(_split(**point)) for point in _FABRIC_POINTS}
    assert len(keys) == len(_FABRIC_POINTS)


@pytest.mark.parametrize(
    "point", _FABRIC_POINTS,
    ids=["-".join(f"{k}{v}" for k, v in p.items()) or "degenerate"
         for p in _FABRIC_POINTS],
)
def test_store_roundtrip_per_fabric_point(tmp_path, point):
    """Each fabric point persists and restores as itself, not a twin."""
    settings = ExperimentSettings(
        timing_instructions=1_200, warmup_instructions=400
    )
    config = _split(**point)
    store = ResultStore(str(tmp_path))
    set_store(store)
    try:
        first = run_benchmark("129.compress", config, settings)
        clear_results()  # drop the in-memory memo; force a store hit
        second = run_benchmark("129.compress", config, settings)
        assert second.cycles == first.cycles
        assert second.misspeculations == first.misspeculations
        # ...and a *different* fabric point misses this entry.
        other = _split(link_latency=3, sync_bandwidth=1, mem_banks=8)
        assert store.load("129.compress", settings, _config_key(other)) is None
    finally:
        set_store(None)


def test_simulate_split_and_event_agree_on_kernel():
    """Spot parity check on a kernel trace (fixture suite uses SPEC)."""
    config = _split()
    trace = get_trace("pointer_chase", 20_000, seed=0)
    dep = compute_dependence_info(trace)
    legacy = asdict(simulate_split(config, trace, dep))
    event = asdict(simulate_split_event(config, trace, dep))
    # eventsim attaches its diagnostics under extra["eventsim"]; every
    # architectural field must match bit-for-bit.
    legacy.pop("extra")
    event.pop("extra")
    assert legacy == event
