"""Unit tests for the wired-up memory hierarchy."""

import tracemalloc

from repro.config import continuous_window_128
from repro.memory.hierarchy import MemoryHierarchy


def test_cold_load_goes_to_main_memory():
    h = MemoryHierarchy(continuous_window_128())
    done = h.load(0x10000, 0)
    # L1 miss + L2 miss + main memory: far beyond the 2-cycle hit.
    assert done > 40
    assert h.dcache.misses == 1
    assert h.l2.misses == 1
    assert h.main_memory.accesses == 1


def test_warm_load_hits_l1():
    h = MemoryHierarchy(continuous_window_128())
    first = h.load(0x10000, 0)
    second = h.load(0x10000, first)
    assert second == first + h.config.dcache.hit_latency
    assert h.dcache.hits == 1


def test_l2_hit_faster_than_memory():
    h = MemoryHierarchy(continuous_window_128())
    first = h.load(0x10000, 0)
    # Evicted from tiny L1? Use another L1 set conflict to force L2 hit:
    # same L2 block, different L1 block.
    second_addr = 0x10000 + 64  # same 128B L2 block, different L1 block
    second = h.load(second_addr, first)
    l2_latency = second - first
    assert l2_latency < 40  # did not go to main memory
    assert h.l2.hits == 1


def test_icache_and_dcache_are_separate():
    h = MemoryHierarchy(continuous_window_128())
    h.load(0x2000, 0)
    h.fetch(0x2000, 0)
    assert h.dcache.misses == 1
    assert h.icache.misses == 1


def test_store_touches_dcache():
    h = MemoryHierarchy(continuous_window_128())
    h.store(0x3000, 0)
    assert h.dcache.accesses == 1


def test_warm_pretouches():
    h = MemoryHierarchy(continuous_window_128())
    h.warm([0x4000, 0x5000], instructions=[0x0])
    assert h.dcache.contains(0x4000)
    assert h.dcache.contains(0x5000)
    assert h.icache.contains(0x0)


def test_construction_allocates_little():
    # Tag sets are created on first touch, so a fresh hierarchy needs a
    # few KB, not one list per set of the 4 MB L2 (~1.1 MB).
    config = continuous_window_128()
    tracemalloc.start()
    try:
        h = MemoryHierarchy(config)
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.l2.accesses == 0
    assert allocated < 64 * 1024
