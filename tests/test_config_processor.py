"""Unit tests for configuration dataclasses."""

import pytest

from repro.config.processor import (
    CacheConfig,
    MemDepConfig,
    ProcessorConfig,
    SchedulingModel,
    SpeculationPolicy,
)


def test_default_config_matches_table2():
    cfg = ProcessorConfig()
    assert cfg.window.size == 128
    assert cfg.window.issue_width == 8
    assert cfg.window.memory_ports == 4
    assert cfg.fetch.width == 8
    assert cfg.icache.size_bytes == 64 * 1024
    assert cfg.dcache.size_bytes == 32 * 1024
    assert cfg.l2.size_bytes == 4 * 1024 * 1024
    assert cfg.dcache.banks == 4
    assert cfg.icache.banks == 8
    assert cfg.branch.ras_entries == 64
    assert cfg.branch.btb_entries == 2048
    assert cfg.main_memory.base_latency == 34


def test_cache_geometry_validation():
    with pytest.raises(ValueError):
        CacheConfig(
            name="bad", size_bytes=1000, assoc=2, block_bytes=32,
            banks=4, hit_latency=2, miss_latency=10,
            mshr_primary_per_bank=2, mshr_secondary_per_primary=1,
        )


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(block_bytes=48, size_bytes=48 * 64), "block size"),
        (dict(banks=3, size_bytes=32 * 2 * 3 * 4), "bank count"),
        (dict(size_bytes=0), "size must be positive"),
        (dict(assoc=0), "associativity"),
    ],
    ids=["block-48", "banks-3", "size-0", "assoc-0"],
)
def test_cache_geometry_rejected_loudly(overrides, message):
    params = dict(
        name="L9", size_bytes=1024, assoc=2, block_bytes=32, banks=2,
        hit_latency=2, miss_latency=10,
        mshr_primary_per_bank=2, mshr_secondary_per_primary=1,
    )
    params.update(overrides)
    with pytest.raises(ValueError, match=f"^L9: {message}"):
        CacheConfig(**params)


def test_cache_sets_per_bank():
    cfg = ProcessorConfig()
    # 32KB / 32B blocks / (2-way * 4 banks) = 128 sets per bank.
    assert cfg.dcache.sets_per_bank == 128
    assert cfg.icache.sets_per_bank == 128


def test_memdep_config_validation():
    with pytest.raises(ValueError):
        MemDepConfig(
            scheduling=SchedulingModel.NAS, addr_scheduler_latency=1
        )
    with pytest.raises(ValueError):
        MemDepConfig(
            scheduling=SchedulingModel.AS,
            policy=SpeculationPolicy.SYNC,
        )
    with pytest.raises(ValueError):
        MemDepConfig(addr_scheduler_latency=-1)


def test_with_memdep_returns_modified_copy():
    cfg = ProcessorConfig()
    modified = cfg.with_memdep(
        scheduling=SchedulingModel.AS,
        policy=SpeculationPolicy.NAIVE,
        addr_scheduler_latency=2,
    )
    assert modified.memdep.scheduling is SchedulingModel.AS
    assert modified.memdep.addr_scheduler_latency == 2
    assert cfg.memdep.scheduling is SchedulingModel.NAS  # untouched


def test_label():
    cfg = ProcessorConfig()
    assert cfg.label == "NAS/NO"
    as_cfg = cfg.with_memdep(
        scheduling=SchedulingModel.AS,
        policy=SpeculationPolicy.NAIVE,
        addr_scheduler_latency=1,
    )
    assert as_cfg.label == "AS/NAV+1cy"
