"""Cross-window sync fabric and banked memory for the split-window machine.

The oracle split-window model treats the global address-based
scheduler as a magic structure: a posted store address becomes visible
to every unit ``1 + addr_scheduler_latency`` cycles after posting, with
no transport cost and no bandwidth limit. The :class:`SyncFabric`
generalizes posting into messages over a link with

* **link latency** — extra cycles for the message to cross the fabric,
* **bandwidth** — at most ``sync_bandwidth`` messages delivered per
  cycle (0 = unbounded); excess messages queue FIFO behind earlier
  ones, each taking the earliest cycle with a free delivery slot.

With ``link_latency == 0`` and unbounded bandwidth the fabric is
*degenerate*: posting is synchronous and the machine is bit-identical
to the oracle. Any finite bandwidth implies a real fabric, so evented
deliveries always take at least one cycle.

:class:`BankedMemory` adds per-bank contention in front of the magic
memory hierarchy: loads hash to ``mem_banks`` interleaved banks (32-byte
interleave, matching the L1 block), each accepting ``bank_ports``
accesses per cycle; a conflicting access starts at the earliest cycle
with a free bank port.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Tuple


class SyncFabric:
    """Bandwidth/latency model for posted-store-address messages.

    Each posted message waits on :attr:`heap` as a plain
    ``(visible, order, store_seq)`` tuple, where ``order`` counts posts,
    so due messages pop in visibility cycle, then post order. A squash
    cancels a message by dropping its ``order`` from the in-flight map;
    the stale tuple is skipped when it surfaces.
    """

    def __init__(self, link_latency: int, bandwidth: int) -> None:
        self.link_latency = link_latency
        self.bandwidth = bandwidth  # 0 = unbounded
        #: Pending deliveries: ``(visible, order, store_seq)``.
        self.heap: List[Tuple[int, int, int]] = []
        #: Messages assigned to each delivery cycle (bandwidth > 0 only).
        self._slots: Dict[int, int] = {}
        #: In-flight messages: order -> (visible, store_seq).
        self._inflight: Dict[int, Tuple[int, int]] = {}
        self.posted = 0
        self.delivered = 0
        self.cancelled = 0
        self.queued = 0  # messages delayed behind a full slot
        self.max_delay = 0  # worst queueing delay seen (beyond base)

    @property
    def evented(self) -> bool:
        """False at the degenerate point where posting is synchronous."""
        return self.link_latency > 0 or self.bandwidth > 0

    def visibility(self, base: int) -> int:
        """Earliest delivery cycle >= *base* with a free bandwidth slot."""
        visible = base + self.link_latency
        if self.bandwidth > 0:
            while self._slots.get(visible, 0) >= self.bandwidth:
                visible += 1
        return visible

    def post(self, seq: int, base: int) -> int:
        """Send store *seq*'s address, posted at *base*; return the
        cycle it becomes visible."""
        visible = self.visibility(base)
        if self.bandwidth > 0:
            self._slots[visible] = self._slots.get(visible, 0) + 1
            if visible > base + self.link_latency:
                self.queued += 1
                self.max_delay = max(
                    self.max_delay, visible - base - self.link_latency
                )
        order = self.posted
        self.posted += 1
        self._inflight[order] = (visible, seq)
        heapq.heappush(self.heap, (visible, order, seq))
        return visible

    def due(self, cycle: int) -> Iterator[Tuple[int, int]]:
        """Pop live messages visible by *cycle*; yield ``(seq, visible)``.

        The consumer may cancel messages between yields: each tuple is
        checked against the in-flight map as it is popped.
        """
        heap = self.heap
        inflight = self._inflight
        while heap and heap[0][0] <= cycle:
            visible, order, seq = heapq.heappop(heap)
            if inflight.pop(order, None) is None:
                self.cancelled += 1
                continue
            self.delivered += 1
            # Later posts land at >= cycle + 1: this slot is never read.
            self._slots.pop(visible, None)
            yield seq, visible

    def cancel_from(self, seq: int) -> None:
        """Squash recovery: kill in-flight messages for seqs >= *seq*.

        Cancelled messages release their bandwidth slots, so re-posted
        stores after re-execution contend only with live traffic.
        """
        inflight = self._inflight
        for order in [o for o, (_, s) in inflight.items() if s >= seq]:
            visible, _ = inflight.pop(order)
            remaining = self._slots.get(visible, 0) - 1
            if remaining > 0:
                self._slots[visible] = remaining
            else:
                self._slots.pop(visible, None)

    def flush(self) -> None:
        """End of run: count what is still queued without delivering it.

        Live messages would arrive after the last commit and change
        nothing, so they count as delivered; the rest were cancelled.
        """
        live = len(self._inflight)
        self.delivered += live
        self.cancelled += len(self.heap) - live
        self.heap.clear()
        self._inflight.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "fabric_posted": self.posted,
            "fabric_queued": self.queued,
            "fabric_max_queue_delay": self.max_delay,
        }


class BankedMemory:
    """Per-bank contention in front of the magic memory hierarchy.

    ``banks == 0`` disables contention entirely (bit-identical
    passthrough to ``hierarchy.load``). Otherwise a load to address
    ``a`` contends for bank ``(a >> 5) % banks`` (32-byte interleave);
    each bank accepts ``ports`` accesses per cycle and a conflicting
    access is pushed to the earliest later cycle with a free port.
    """

    def __init__(self, hierarchy, banks: int, ports: int) -> None:
        self.hierarchy = hierarchy
        self.banks = banks
        self.ports = ports
        self._used: List[Dict[int, int]] = [
            {} for _ in range(max(banks, 0))
        ]
        self.accesses = 0
        self.conflicts = 0
        self.conflict_cycles = 0

    def load(self, addr: int, cycle: int) -> int:
        """Completion cycle of a load starting (at earliest) at *cycle*."""
        if self.banks <= 0:
            return self.hierarchy.load(addr, cycle)
        bank = (addr >> 5) % self.banks
        used = self._used[bank]
        start = cycle
        while used.get(start, 0) >= self.ports:
            start += 1
        used[start] = used.get(start, 0) + 1
        self.accesses += 1
        if start > cycle:
            self.conflicts += 1
            self.conflict_cycles += start - cycle
        return self.hierarchy.load(addr, start)

    def stats(self) -> Dict[str, int]:
        return {
            "bank_accesses": self.accesses,
            "bank_conflicts": self.conflicts,
            "bank_conflict_cycles": self.conflict_cycles,
        }
