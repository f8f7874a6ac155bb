"""Unit tests for the set-associative cache."""

import pytest

from repro.config.processor import CacheConfig, ProcessorConfig
from repro.memory.cache import SetAssocCache


def _small_cache(next_latency=50, **overrides):
    params = dict(
        name="test",
        size_bytes=1024,
        assoc=2,
        block_bytes=32,
        banks=2,
        hit_latency=2,
        miss_latency=10,
        mshr_primary_per_bank=2,
        mshr_secondary_per_primary=2,
    )
    params.update(overrides)
    config = CacheConfig(**params)
    calls = []

    def next_level(addr, cycle, write):
        calls.append((addr, cycle, write))
        return cycle + next_latency

    return SetAssocCache(config, next_level), calls


def test_miss_then_hit():
    cache, calls = _small_cache()
    first = cache.access(0x1000, cycle=0)
    assert not first.hit
    assert len(calls) == 1
    second = cache.access(0x1000, cycle=first.complete_cycle)
    assert second.hit
    assert second.complete_cycle == first.complete_cycle + 2


def test_same_block_different_words_hit():
    cache, _ = _small_cache()
    done = cache.access(0x1000, 0).complete_cycle
    assert cache.access(0x101C, done).hit  # same 32-byte block


def test_secondary_miss_merges():
    cache, calls = _small_cache()
    cache.access(0x1000, 0)
    result = cache.access(0x1004, 1)  # same block, fill in flight
    assert not result.hit
    assert len(calls) == 1  # no second request to the next level
    assert cache.mshr_merges == 1


def test_lru_eviction():
    cache, calls = _small_cache()
    # 2 banks, 8 sets/bank, 2-way: three blocks in the same set of the
    # same bank evict the least recently used.
    sets_per_bank = cache.config.sets_per_bank
    stride = 32 * 2 * sets_per_bank  # same bank, same set
    a, b, c = 0x1000, 0x1000 + stride, 0x1000 + 2 * stride
    t = cache.access(a, 0).complete_cycle
    t = cache.access(b, t).complete_cycle
    t = max(t, cache.access(a, t).complete_cycle)  # refresh a
    t = cache.access(c, t).complete_cycle  # evicts b
    assert cache.contains(a) and cache.contains(c)
    assert not cache.contains(b)


def test_bank_conflict_serialises():
    cache, _ = _small_cache()
    block = 0x1000
    done = cache.access(block, 0).complete_cycle
    # Two accesses to the same bank in the same cycle: second is delayed.
    r1 = cache.access(block, done)
    r2 = cache.access(block, done)
    assert r2.complete_cycle == r1.complete_cycle + 1
    assert cache.bank_conflicts >= 1


def test_stats():
    cache, _ = _small_cache()
    cache.access(0x0, 0)
    cache.access(0x0, 100)
    assert cache.accesses == 2
    assert cache.miss_rate == 0.5
    cache.reset_stats()
    assert cache.accesses == 0


def test_bad_bank_count():
    with pytest.raises(ValueError):
        _small_cache(banks=3, size_bytes=32 * 2 * 3 * 4)


_DEFAULTS = ProcessorConfig()


@pytest.mark.parametrize(
    "config",
    [_DEFAULTS.icache, _DEFAULTS.dcache, _DEFAULTS.l2],
    ids=lambda c: c.name,
)
def test_default_geometry_maps_bank_and_set_bits(config):
    cache = SetAssocCache(config, lambda addr, cycle, write: cycle + 1)
    block = config.block_bytes
    bank_stride = block  # next bank, same set
    set_stride = block * config.banks  # same bank, next set
    way_stride = set_stride * config.sets_per_bank  # same bank and set

    # A set nobody touched is empty, and asking does not create it.
    assert not cache.contains(0)
    assert not cache._tags

    # Fill one (bank, set) to capacity, then touch every neighbour that
    # differs only in bank bits or only in set bits: none may evict.
    base = [w * way_stride for w in range(config.assoc)]
    neighbours = [b * bank_stride for b in range(1, config.banks)] + [
        s * set_stride for s in (1, config.sets_per_bank - 1)
    ]
    t = 0
    for addr in base + neighbours:
        t = cache.access(addr, t).complete_cycle
    assert all(cache.contains(a) for a in base + neighbours)

    # One more block in the same bank and set evicts the LRU one.
    t = cache.access(base[0], t).complete_cycle  # base[0] becomes MRU
    cache.access(config.assoc * way_stride, t)
    lru = base[1] if config.assoc > 1 else base[0]
    assert not cache.contains(lru)
    assert cache.contains(config.assoc * way_stride)
    assert all(cache.contains(a) for a in neighbours)

    untouched = 2 * set_stride
    sets = len(cache._tags)
    assert not cache.contains(untouched)
    assert len(cache._tags) == sets
