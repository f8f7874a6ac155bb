"""Independent oracle for the split-window machine (Section 3.7).

The authoritative model is :mod:`repro.eventsim.splitwindow`; this
cycle loop is kept only so tests can check the machine against it.
"""

from repro.splitwindow.processor import SplitWindowProcessor, simulate_split

__all__ = ["SplitWindowProcessor", "simulate_split"]
