"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition with a JSON spec as
its only argument, so every repetition pays the interpreter start, the
``repro`` imports and the store opening that a user's
``repro-experiments`` invocation pays. The script writes one JSON
record to ``spec["out"]``: the monotonic clock at the first artifact or
cell call and when the work is done, the calibration passes it timed
between operations (``hostspeed.py``), peak memory, one digest per
operation, the work counts, and (traced repetitions only) the spans.

The spec's ``kind`` is ``artifacts`` (run ``spec["artifacts"]`` through
the CLI's artifact registry), ``cells`` (the vector-cells list through
``run_benchmark``) or ``setup`` (stop at the first call, to time
set-up alone).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time
import traceback

from hostspeed import calibrate
from spans import Recorder, rebind

#: Simulated totals summed over every result that did not come from the
#: in-process memo. They repeat exactly run to run, so they are a
#: correctness check, not a speed figure.
SIM_FIELDS = ("committed", "cycles", "misspeculations",
              "squashed_instructions")
#: Least time between two calibration passes; a pass runs before an
#: operation or a ``run_benchmark`` call once this much has passed since
#: the last one.
CAL_EVERY_S = 0.25
#: Calibration passes before the first operation, outside the timed
#: window, so that a short repetition still adds several passes to the
#: run's pool.
CAL_FIRST = 3


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result, raw_fields) -> str:
    """Digest of a ``SimResult`` over its raw fields except ``extra``."""
    record = {f: getattr(result, f) for f in raw_fields if f != "extra"}
    return digest(json.dumps(record, sort_keys=True))


class HostSampler:
    """Calibration passes between operations and ``run_benchmark``
    calls. They sample the host's speed while the workload runs, on the
    same CPU; the run leaves their time (``spent_s``) out of the
    repetition's."""

    def __init__(self):
        self.passes = []
        self.spent_s = 0.0
        self._last = None

    def burst(self, count):
        """*count* passes now, outside the timed window."""
        self.passes += [calibrate() for _ in range(count)]
        self._last = time.perf_counter()

    def __call__(self):
        now = time.perf_counter()
        if self._last is None or now - self._last >= CAL_EVERY_S:
            self.passes.append(calibrate())
            self._last = time.perf_counter()
            self.spent_s += self._last - now


class CellMeter:
    """``run_benchmark`` plus host latency and simulated totals.

    Only calls that missed the in-process memo are counted: a memo hit
    is a dict lookup, while a miss reaches the result store or the
    simulator, which is what a user adding one design point waits on.
    """

    def __init__(self, run, cache_stats, sampler, recorder=None):
        self._run = (
            recorder.wrap("runner.run_benchmark", run) if recorder else run
        )
        self._cache_stats = cache_stats
        self._sampler = sampler
        self.latencies_ms = []
        self.sim = dict.fromkeys(SIM_FIELDS, 0)

    def __call__(self, *args, **kwargs):
        self._sampler()
        hits = self._cache_stats().memory_hits
        started = time.perf_counter_ns()
        result = self._run(*args, **kwargs)
        took = time.perf_counter_ns() - started
        if self._cache_stats().memory_hits == hits:
            self.latencies_ms.append(took / 1e6)
            for field in SIM_FIELDS:
                self.sim[field] += getattr(result, field)
        return result


def instrument(recorder: Recorder) -> None:
    """Wrap each layer's public entry points in spans."""
    # The runner imports these two lazily; load them now so their
    # classes exist to be wrapped.
    import repro.core.vector  # noqa: F401
    import repro.eventsim.splitwindow  # noqa: F401
    from repro.core.processor import Processor
    from repro.core.vector import VectorProcessor
    from repro.eventsim.splitwindow import EventSplitWindowProcessor
    from repro.experiments.store import ResultStore
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.splitwindow.processor import SplitWindowProcessor
    from repro.trace import dependences
    from repro.trace.tracestore import TraceStore
    from repro.workloads import catalog

    for fn, name in (
        (catalog.get_trace, "trace.get_trace"),
        (catalog.get_compiled, "trace.get_compiled"),
        (catalog.get_dependence_info, "deps"),
        (dependences.compute_dependence_info, "deps.compute"),
    ):
        rebind(fn, recorder.wrap(name, fn), "repro")

    def on_core(label, result):
        recorder.count(f"{label}.committed", result.committed)
        recorder.count(f"{label}.cycles", result.cycles)
        if label == "core.vector":
            recorder.count("core.vector.skipped_cycles",
                           result.extra.get("skipped_cycles", 0))
        elif label == "eventsim":
            events = result.extra.get("eventsim", {})
            recorder.count("eventsim.events_fired",
                           events.get("events_fired", 0))
            recorder.count("eventsim.events_cancelled",
                           events.get("events_cancelled", 0))

    def reference_name(processor, *args, **kwargs):
        return "observe" if processor.config.observe else "core.reference"

    for cls, attr, name, hook in (
        (TraceStore, "load", "tracestore.load", None),
        (TraceStore, "save", "tracestore.save", None),
        (ResultStore, "load", "store.load", None),
        (ResultStore, "save", "store.save", None),
        (MemoryHierarchy, "__init__", "memory.hierarchy_init", None),
        (Processor, "__init__", "core.reference.init", None),
        (Processor, "run", reference_name, on_core),
        (VectorProcessor, "__init__", "core.vector.init", None),
        (VectorProcessor, "run", "core.vector", on_core),
        (SplitWindowProcessor, "__init__", "splitwindow.init", None),
        (SplitWindowProcessor, "run", "splitwindow", on_core),
        (EventSplitWindowProcessor, "__init__", "eventsim.init", None),
        (EventSplitWindowProcessor, "run", "eventsim", on_core),
    ):
        setattr(cls, attr, recorder.wrap(name, getattr(cls, attr), hook))


def vector_cells():
    """The vector-cells list: every benchmark at window 128 under
    NAS/NO, NAS/NAV and AS/NAV with a 0-cycle address scheduler."""
    from repro.config.presets import continuous_window_128
    from repro.config.processor import SchedulingModel, SpeculationPolicy
    from repro.workloads.spec95 import ALL_BENCHMARKS

    cells = []
    for bench in ALL_BENCHMARKS:
        for sched, policy in (("NAS", "NO"), ("NAS", "NAV"), ("AS", "NAV")):
            config = continuous_window_128(
                SchedulingModel(sched), SpeculationPolicy(policy), 0
            )
            cells.append((f"{bench}:{sched}/{policy}", bench, config))
    return cells


def _attempt(fn):
    """``(value, None)``, or ``(None, traceback)`` if *fn* raised: one
    failed operation must not hide the outcome of the others."""
    try:
        return fn(), None
    except Exception:
        return None, traceback.format_exc(limit=4)


def main(argv) -> int:
    spec = json.loads(argv[1])
    started = time.perf_counter()
    from repro.core.backend import resolve_backend
    from repro.experiments import runner
    from repro.experiments.cli import ARTIFACTS
    from repro.experiments.export import RAW_RESULT_FIELDS, report_to_json
    from repro.experiments.store import set_store
    from repro.trace.tracestore import set_trace_store
    from repro.workloads.catalog import trace_stats
    import_s = time.perf_counter() - started

    store = set_store(spec["result_store"])
    set_trace_store(spec["trace_store"])
    recorder = Recorder() if spec["traced"] else None
    if recorder is not None:
        instrument(recorder)
    sampler = HostSampler()
    meter = CellMeter(runner.run_benchmark, runner.cache_stats, sampler,
                      recorder)
    rebind(runner.run_benchmark, meter, "repro")
    settings = runner.ExperimentSettings(
        spec["timing"], spec["warmup"], spec["seed"]
    )

    def spanned(name, fn):
        return recorder.wrap(name, fn) if recorder is not None else fn

    # The benchmark's seed fixes the order of the operations; the set of
    # operations, and so the work, is the same for every seed.
    shuffle = random.Random(spec.get("order", 0)).shuffle
    if spec["kind"] != "setup":
        sampler.burst(CAL_FIRST)
    first = time.monotonic_ns()
    ops = []
    if spec["kind"] == "artifacts":
        artifacts = list(spec["artifacts"])
        shuffle(artifacts)
        for name in artifacts:
            sampler()
            def op(name=name):
                report = spanned(f"driver.{name}", ARTIFACTS[name])(settings)
                text = spanned("render", lambda: (
                    report.render(), report_to_json(report)
                ))()[1]
                return digest(text)
            value, error = _attempt(op)
            ops.append({"name": name, "digest": value, "error": error})
    elif spec["kind"] == "cells":
        # Benchmarks are shuffled as a whole, so the cell that acquires
        # a benchmark's trace is the same in every order.
        by_bench = {}
        for cell in vector_cells():
            by_bench.setdefault(cell[1], []).append(cell)
        groups = list(by_bench.values())
        shuffle(groups)
        for cell_id, bench, config in (c for g in groups for c in g):
            value, error = _attempt(lambda: result_digest(
                meter(bench, config, settings, backend="vector"),
                RAW_RESULT_FIELDS,
            ))
            ops.append({"name": cell_id, "digest": value, "error": error})
    done = time.monotonic_ns()

    import resource
    from importlib.util import find_spec

    counts = runner.cache_stats()
    traces = trace_stats()
    record = {
        "first_ns": first,
        "done_ns": done,
        "calibration": sampler.passes,
        "calibration_s": sampler.spent_s,
        "import_s": import_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": {
            "backend": resolve_backend(None),
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "numpy": find_spec("numpy") is not None,
        },
        "ops": ops,
        "cell_ms": meter.latencies_ms,
        "sim": meter.sim,
        "work": {
            "simulations": counts.simulations,
            "store_hits": counts.store_hits,
            "memory_hits": counts.memory_hits,
            "traces_generated": traces.generated,
            "trace_store_hits": traces.store_hits,
            "committed": meter.sim["committed"],
        },
        "trace_stats": {
            "generated": traces.generated,
            "store_hits": traces.store_hits,
            "memory_hits": traces.memory_hits,
            "acquire_s": traces.trace_wall,
        },
        "store_bytes": store.size_bytes() if store is not None else 0,
    }
    if recorder is not None:
        record["spans"] = recorder.stats
        record["counters"] = recorder.counters
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
