"""Banked, lockup-free, set-associative cache with LRU replacement.

Timing model: an access first arbitrates for its bank (each bank services
one new access per cycle), then probes the tags. Hits complete after the
configured hit latency. Misses either merge into a pending fill (secondary
miss, via the MSHRs) or allocate a primary MSHR and request the block from
the next level; the access completes when the fill returns.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, DefaultDict, List

from repro.config.processor import CacheConfig
from repro.memory.mshr import MSHRFile

#: Signature of the next level's access function:
#: (block_address, start_cycle, is_write) -> completion cycle.
NextLevel = Callable[[int, int, bool], int]


class AccessResult:
    """Outcome of one cache access.

    A plain slotted class rather than a frozen dataclass: one is built
    per access and ``object.__setattr__`` (the frozen-init path) is
    measurable there.
    """

    __slots__ = ("complete_cycle", "hit")

    def __init__(self, complete_cycle: int, hit: bool) -> None:
        self.complete_cycle = complete_cycle
        self.hit = hit

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AccessResult(complete_cycle={self.complete_cycle}, "
            f"hit={self.hit})"
        )


class SetAssocCache:
    """One cache level. Use :meth:`access` for all traffic."""

    def __init__(self, config: CacheConfig, next_level: NextLevel) -> None:
        self.config = config
        self._next_level = next_level
        self._block_shift = config.block_bytes.bit_length() - 1
        self._bank_mask = config.banks - 1
        # Bank bits sit below set bits, so ``block & _index_mask`` is a
        # flat index of the (bank, set) pair.
        self._index_mask = config.banks * config.sets_per_bank - 1
        # Hot-path copies of immutable config values.
        self._hit_latency = config.hit_latency
        self._fill_delta = config.miss_latency - config.hit_latency
        self._assoc = config.assoc
        # tags[index] = list of block tags in LRU order (front = MRU).
        # A set's list is created on first touch: a short run touches a
        # few hundred of the L2's 16K sets.
        self._tags: DefaultDict[int, List[int]] = defaultdict(list)
        self._mshrs = MSHRFile(
            config.banks,
            config.mshr_primary_per_bank,
            config.mshr_secondary_per_primary,
        )
        # Bank is busy with a new access until this cycle (1 new/cycle).
        self._bank_free: List[int] = [0] * config.banks
        self.hits = 0
        self.misses = 0
        self.bank_conflicts = 0

    # -- geometry ---------------------------------------------------------

    def block_address(self, addr: int) -> int:
        return addr >> self._block_shift

    # -- access -----------------------------------------------------------

    def access(self, addr: int, cycle: int, write: bool = False) -> AccessResult:
        """Access *addr* starting no earlier than *cycle*.

        Returns the completion cycle (data available / write accepted) and
        whether the access hit. The tag array is updated (allocate-on-miss
        for both reads and writes; LRU).
        """
        block = addr >> self._block_shift
        bank = block & self._bank_mask

        start = cycle
        bank_free = self._bank_free
        if bank_free[bank] > start:
            self.bank_conflicts += 1
            start = bank_free[bank]
        bank_free[bank] = start + 1

        ways = self._tags[block & self._index_mask]
        tag = block
        mshr_bank = self._mshrs.bank(bank)
        # MRU fast path first: locality makes ``ways[0]`` the common
        # case, and it needs neither the membership scan nor a reorder.
        if ways and ways[0] == tag:
            hit = True
        elif tag in ways:
            ways.insert(0, ways.pop(ways.index(tag)))
            hit = True
        else:
            hit = False
        if hit:
            # The tag is installed when the fill is *requested*; if
            # the fill is still in flight this access merges into it
            # (a secondary miss) rather than hitting instantly. Most
            # hits find an idle MSHR bank — skip the merge lookup then.
            if mshr_bank._entries:
                pending = mshr_bank.lookup(tag, start)
                if pending is not None:
                    self.misses += 1
                    return AccessResult(max(pending, start + 1), False)
            self.hits += 1
            return AccessResult(start + self._hit_latency, True)

        self.misses += 1

        # Primary miss: request from the next level.
        fill_done = self._next_level(
            block << self._block_shift, start + self._hit_latency, write
        )
        fill_done += self._fill_delta
        ready = mshr_bank.allocate(tag, fill_done, start)
        # Install without the membership re-scan: the miss path has
        # just proven the tag absent, and ``_next_level`` cannot
        # re-enter this level's tag array.
        ways.insert(0, tag)
        if len(ways) > self._assoc:
            ways.pop()
        return AccessResult(max(ready, start + 1), False)

    def _install(self, ways: List[int], tag: int) -> None:
        if tag in ways:
            return
        ways.insert(0, tag)
        if len(ways) > self._assoc:
            ways.pop()

    def touch(self, addr: int) -> None:
        """Install the block holding *addr* with no timing side effects.

        Used by functional warm-up: the block becomes resident
        immediately, without occupying a bank slot or an MSHR.
        """
        block = addr >> self._block_shift
        ways = self._tags[block & self._index_mask]
        if ways and ways[0] == block:
            return
        self._install(ways, block)

    # -- introspection ------------------------------------------------------

    def contains(self, addr: int) -> bool:
        """True if the block holding *addr* is resident (tests only)."""
        block = self.block_address(addr)
        return block in self._tags.get(block & self._index_mask, ())

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def mshr_stalls(self) -> int:
        return self._mshrs.stalls

    @property
    def mshr_merges(self) -> int:
        return self._mshrs.merged

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.bank_conflicts = 0
