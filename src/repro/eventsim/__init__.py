"""The split-window machine and its cross-window sync fabric.

:mod:`repro.eventsim.splitwindow` is the authoritative split-window
model (Section 3.7): a per-cycle loop whose only timed traffic is the
sync fabric's posted-store messages (:mod:`repro.eventsim.fabric`),
which also exposes link latency, bandwidth, and banked-memory
contention knobs. At degenerate fabric settings the machine is
bit-identical to the independent oracle
:class:`repro.splitwindow.processor.SplitWindowProcessor` (enforced by
``tests/test_splitwindow_parity.py``).

See ``docs/EVENTSIM.md`` for the cycle loop and determinism contract.
"""

from repro.eventsim.fabric import BankedMemory, SyncFabric
from repro.eventsim.splitwindow import (
    EventSplitWindowProcessor,
    simulate_split_event,
)

__all__ = [
    "BankedMemory",
    "EventSplitWindowProcessor",
    "SyncFabric",
    "simulate_split_event",
]
