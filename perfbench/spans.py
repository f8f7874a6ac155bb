"""In-memory spans around calls into the program's layers.

The benchmark times each layer from its own code: it rebinds a layer's
public functions and methods to wrappers that open a span, and keeps
every span in memory until the run ends. Spans nest, so each one
records its calls, its inclusive time and its self time (inclusive
time minus the time its child spans cover).

Nothing here imports the program; the worker hands in the functions
and classes to wrap.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Union


class Recorder:
    """Nested span accounting: ``{name: [calls, inclusive_ns, self_ns]}``.

    A span whose name is already open further up the stack (a layer
    re-entering itself) adds its calls and self time but not its
    inclusive time, so recursion never counts the same interval twice.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.stats: Dict[str, List[int]] = {}
        self.counters: Dict[str, float] = {}
        self._stack: List[list] = []
        self._open: Dict[str, int] = {}

    def enter(self, name: str) -> None:
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0])

    def exit(self) -> None:
        name, start, child_ns = self._stack.pop()
        took = self.clock() - start
        self._open[name] -= 1
        entry = self.stats.setdefault(name, [0, 0, 0])
        entry[0] += 1
        if not self._open[name]:
            entry[1] += took
        entry[2] += took - child_ns
        if self._stack:
            self._stack[-1][2] += took

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        name: Union[str, Callable[..., str]],
        fn: Callable,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """*fn* inside a span. *name* may be a function of the call's
        arguments; *on_result(span_name, result)* sees each return."""

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            self.enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(label, result)
            return result

        return spanned


def rebind(original: Callable, replacement: Callable, prefix: str) -> int:
    """Point every module-level binding of *original* at *replacement*.

    ``from a import f`` copies the binding, so patching only the
    defining module would miss callers that imported the function by
    name. Scans every loaded module whose name starts with *prefix*;
    returns how many bindings were replaced.
    """
    replaced = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith(prefix):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced
