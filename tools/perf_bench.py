#!/usr/bin/env python
"""Core-simulator throughput benchmark: simulated KIPS per matrix cell.

Measures the cycle-level core directly (no result store, no memoization)
so the number tracks *cold* simulation speed — the cost every new
experiment point actually pays. Each cell of the (policy, window)
matrix simulates the same deterministic trace and reports

    KIPS = committed instructions / wall seconds / 1000

best-of ``--repeat`` passes (trace generation and dependence analysis
are excluded; they are measured once under ``trace_prep``). Results go
to a JSON artifact (``BENCH_core.json`` by convention — the repo's
perf-trajectory record).

Modes:

``--compare BEFORE.json``
    Embed a prior measurement as the ``baseline`` section and compute
    per-cell + geomean speedups (used to document an optimization PR).
``--baseline BENCH_core.json``
    Trend gate for CI: recompute geomean over the overlapping cells and
    *warn* (never fail, unless ``--fail-on-regress``) when this run is
    more than ``--warn-threshold`` slower. Absolute KIPS is machine
    dependent, so cross-machine comparisons are advisory only.
``--profile OUT.prof``
    cProfile the first cell and write pstats output for hot-spot work
    (inspect with ``python -m pstats OUT.prof``).
``--observe-overhead``
    Gate for the repro.observe instrumentation: measure one cell
    (``--observe-cell``) with observability hooks disabled and again
    with the default observer attached, check the disabled path stays
    within ``--observe-threshold`` of the committed
    ``benchmarks/BENCH_core.json`` number for that cell, and assert
    both runs produce identical simulation counters.
``--trace-bench``
    Benchmark the compiled-trace pipeline (``BENCH_trace.json`` by
    convention). Stage 1 times each pipeline component per benchmark —
    generate + analyse (the cold path) against store-load +
    materialize + dependence-decode (the warm path) — and checks the
    loaded trace matches the fresh one. Stage 2 launches fresh
    subprocesses running the same parallel matrix cold (no store, no
    precompile — the pre-store behaviour, every worker regenerating
    its trace) and warm (persistent store + pre-fork precompile,
    workers inheriting packed columns copy-on-write), and verifies
    both produce bit-identical results.

Usage::

    PYTHONPATH=src python tools/perf_bench.py --out BENCH_core.json
    PYTHONPATH=src python tools/perf_bench.py --quick --profile core.prof
"""

import argparse
import json
import math
import sys
import time


def build_cells(quick):
    """Ordered {label: config} for the bench matrix."""
    from repro.config.presets import (
        continuous_window_64, continuous_window_128,
    )
    from repro.config.processor import SchedulingModel, SpeculationPolicy

    nas, as_ = SchedulingModel.NAS, SchedulingModel.AS
    if quick:
        policies = (
            SpeculationPolicy.NO, SpeculationPolicy.NAIVE,
            SpeculationPolicy.SYNC, SpeculationPolicy.ORACLE,
        )
    else:
        policies = tuple(SpeculationPolicy)
    cells = {
        f"NAS/{p.value}@128": continuous_window_128(nas, p)
        for p in policies
    }
    cells["AS/NO@128"] = continuous_window_128(as_, SpeculationPolicy.NO)
    cells["AS/NAV@128"] = continuous_window_128(
        as_, SpeculationPolicy.NAIVE
    )
    cells["NAS/NO@64"] = continuous_window_64(nas, SpeculationPolicy.NO)
    if not quick:
        cells["NAS/NAV@64"] = continuous_window_64(
            nas, SpeculationPolicy.NAIVE
        )
    return cells


#: (benchmark, warm-up, length) of the golden matrix — must mirror
#: tests/test_golden_parity.py BENCHMARKS.
GOLDEN_BENCHMARKS = (
    ("126.gcc", 1_000, 4_000),
    ("102.swim", 1_000, 4_000),
)


def build_golden_configs():
    """The 14 configs of the golden-parity matrix.

    Mirrors ``tests/test_golden_parity.py::parity_configs`` (tools/
    cannot import from tests/ under the repo's PYTHONPATH=src layout);
    with both golden benchmarks this is the 28-cell acceptance matrix
    for the vector backend's throughput target.
    """
    from repro.config.presets import (
        continuous_window_64, continuous_window_128,
    )
    from repro.config.processor import SchedulingModel, SpeculationPolicy

    nas, as_ = SchedulingModel.NAS, SchedulingModel.AS
    configs = {}
    for policy in SpeculationPolicy:
        configs[f"NAS/{policy.value}"] = continuous_window_128(nas, policy)
    for policy in (
        SpeculationPolicy.NO, SpeculationPolicy.NAIVE,
        SpeculationPolicy.ORACLE,
    ):
        configs[f"AS/{policy.value}"] = continuous_window_128(as_, policy)
    configs["AS/NAV+1cy"] = continuous_window_128(
        as_, SpeculationPolicy.NAIVE, addr_scheduler_latency=1
    )
    configs["NAS/NAV:selective"] = continuous_window_128(
        nas, SpeculationPolicy.NAIVE, recovery="selective"
    )
    configs["NAS/NO@64"] = continuous_window_64(
        nas, SpeculationPolicy.NO
    )
    configs["NAS/SSET@64"] = continuous_window_64(
        nas, SpeculationPolicy.STORE_SETS
    )
    return configs


#: --min-time never runs more than this many passes per cell.
MIN_TIME_MAX_PASSES = 64


def measure_cell(config, trace, info, plan, repeat,
                 backend="reference", compiled=None, min_time=0.0,
                 kernel_times=False):
    """Best-of wall time for one cold simulation.

    Construction happens outside the timer for both backends, so the
    number is pure simulation throughput. The ``vector`` backend runs
    straight off *compiled* packed columns (no ``DynInst`` objects).

    Runs at least *repeat* passes; with *min_time* > 0 it keeps adding
    passes until their accumulated wall time reaches *min_time* seconds
    (capped at ``MIN_TIME_MAX_PASSES``), which stabilizes best-of
    numbers for sub-millisecond cells on noisy hosts. The reported
    number is always the minimum observed pass.

    With *kernel_times* (vector backend only) one extra pass runs with
    the per-phase wall-time counters enabled and the breakdown lands in
    the cell record — the timed passes stay uninstrumented, so the
    KIPS number is unaffected by the instrumentation overhead.
    """
    from repro.core.processor import Processor

    if backend == "vector":
        from repro.core.vector import VectorProcessor

        def make():
            return VectorProcessor(config, compiled)
    else:
        def make():
            return Processor(config, trace, info)

    best = None
    result = None
    total = 0.0
    passes = 0
    while passes < repeat or (
        total < min_time and passes < MIN_TIME_MAX_PASSES
    ):
        processor = make()
        started = time.perf_counter()
        result = processor.run(plan)
        wall = time.perf_counter() - started
        total += wall
        passes += 1
        if best is None or wall < best:
            best = wall
    kips = result.committed / best / 1000.0 if best else 0.0
    cell = {
        "kips": round(kips, 3),
        "wall_s": round(best, 6),
        "committed": result.committed,
        "cycles": result.cycles,
        "passes": passes,
    }
    skipped = result.extra.get("skipped_cycles")
    if skipped is not None:
        cell["skipped_cycles"] = skipped
    if kernel_times and backend == "vector":
        from repro.core.vector import VectorProcessor

        timed = VectorProcessor(
            config, compiled, kernel_times=True
        ).run(plan)
        cell["kernel_times"] = {
            "phase_ns": timed.extra.get("vector_phase_ns", {}),
            "phase_calls": timed.extra.get("vector_phase_calls", {}),
        }
    return cell, result


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_bench(args):
    from repro.trace.dependences import compute_dependence_info
    from repro.trace.sampling import SamplingPlan, Segment
    from repro.workloads.catalog import get_trace

    if args.golden:
        warm, timed = GOLDEN_BENCHMARKS[0][1:]
        timed -= warm
        configs = build_golden_configs()
        points = [
            (f"{bench}:{label}", bench, w, length, config)
            for bench, w, length in GOLDEN_BENCHMARKS
            for label, config in configs.items()
        ]
    else:
        warm = 2_000 if args.quick else 6_000
        timed = 6_000 if args.quick else 20_000
        points = [
            (label, args.benchmark, warm, warm + timed, config)
            for label, config in build_cells(args.quick).items()
        ]

    # Per-benchmark resources, built once outside the timers.
    started = time.perf_counter()
    resources = {}
    for _, bench, w, length, _ in points:
        if bench in resources:
            continue
        trace = get_trace(bench, length, seed=0)
        info = compute_dependence_info(trace)
        compiled = None
        if args.backend == "vector":
            from repro.trace.compiled import compile_trace

            compiled = compile_trace(trace, dep_info=info)
        plan = SamplingPlan(
            (Segment(0, w, timing=False),
             Segment(w, length, timing=True)),
            length,
        )
        resources[bench] = (trace, info, compiled, plan)
    trace_prep = time.perf_counter() - started

    if args.cells:
        wanted = [w.strip() for w in args.cells.split(",") if w.strip()]
        points = [
            point for point in points
            if any(w in point[0] for w in wanted)
        ]
        if not points:
            raise SystemExit(f"--cells {args.cells!r} matches nothing")
    if args.profile:
        import cProfile

        label, bench = points[0][0], points[0][1]
        config = points[0][4]
        trace, info, compiled, plan = resources[bench]
        print(f"profiling {label} -> {args.profile}")
        cProfile.runctx(
            "measure_cell(config, trace, info, plan, 1, backend, compiled)",
            {"measure_cell": measure_cell},
            {"config": config, "trace": trace, "info": info, "plan": plan,
             "backend": args.backend, "compiled": compiled},
            filename=args.profile,
        )

    measured = {}
    parity_failures = []
    for label, bench, w, length, config in points:
        trace, info, compiled, plan = resources[bench]
        measured[label], result = measure_cell(
            config, trace, info, plan, args.repeat,
            backend=args.backend, compiled=compiled,
            min_time=args.min_time, kernel_times=args.kernel_times,
        )
        # Pin the work per cell: the gate comparator refuses to
        # compare cells measured over a different warm/timed split
        # (e.g. --quick vs full), so unequal work can never masquerade
        # as a KIPS change.
        measured[label]["warmup_instructions"] = w
        measured[label]["timing_instructions"] = length - w
        skipped = measured[label].get("skipped_cycles")
        note = f"  skipped {skipped}" if skipped is not None else ""
        print(
            f"  {label:>24}: {measured[label]['kips']:8.1f} KIPS "
            f"({measured[label]['wall_s']:.3f}s){note}"
        )
        if args.verify_parity and args.backend != "reference":
            _, ref = measure_cell(config, trace, info, plan, 1)
            bad = [
                name for name in PARITY_FIELDS
                if getattr(result, name) != getattr(ref, name)
            ]
            if bad:
                parity_failures.append((label, bad))
                print(f"  {label:>24}: PARITY FAILED "
                      f"({', '.join(bad)})", file=sys.stderr)
    if parity_failures:
        raise SystemExit(
            f"--verify-parity: {len(parity_failures)} cell(s) diverged "
            f"from the reference backend"
        )
    if args.verify_parity and args.backend != "reference":
        print(f"parity: {len(measured)} cells x {len(PARITY_FIELDS)} "
              f"counters identical to the reference backend")
    return {
        "schema": 1,
        "benchmark": (
            "golden-matrix" if args.golden else args.benchmark
        ),
        "backend": args.backend,
        "settings": {
            "warmup_instructions": warm,
            "timing_instructions": timed,
            "repeat": args.repeat,
            "min_time_s": args.min_time,
            "quick": args.quick,
            "golden": args.golden,
        },
        "trace_prep_s": round(trace_prep, 6),
        "cells": measured,
        "geomean_kips": round(
            geomean([c["kips"] for c in measured.values()]), 3
        ),
    }


#: Counters that must be bit-identical with and without the observer
#: (mirrors tests/test_golden_parity.py FIELDS; ``extra`` is free-form
#: and intentionally excluded — that is where observer output lives).
PARITY_FIELDS = (
    "cycles", "committed", "committed_loads", "committed_stores",
    "committed_branches", "misspeculations", "squashed_instructions",
    "false_dependence_loads", "true_dependence_loads",
    "false_dependence_latency", "branch_predictions",
    "branch_mispredictions", "load_forwards", "speculative_loads",
    "dcache_accesses", "dcache_misses", "icache_accesses",
    "icache_misses", "l2_accesses", "l2_misses",
)


def run_observe_overhead(args):
    """Disabled-hook overhead gate + observer parity check for one cell."""
    import dataclasses

    from repro.core.processor import Processor
    from repro.trace.dependences import compute_dependence_info
    from repro.trace.sampling import SamplingPlan, Segment
    from repro.workloads.catalog import get_trace

    warm = 2_000 if args.quick else 6_000
    timed = 6_000 if args.quick else 20_000
    length = warm + timed

    trace = get_trace(args.benchmark, length, seed=0)
    info = compute_dependence_info(trace)
    plan = SamplingPlan(
        (Segment(0, warm, timing=False),
         Segment(warm, length, timing=True)),
        length,
    )

    cells = build_cells(quick=False)
    if args.observe_cell not in cells:
        raise SystemExit(
            f"--observe-cell {args.observe_cell!r} is not a bench cell; "
            f"choose from {', '.join(cells)}"
        )
    config = cells[args.observe_cell]

    disabled, _ = measure_cell(config, trace, info, plan, args.repeat)
    attached_config = dataclasses.replace(config, observe=True)
    attached, _ = measure_cell(
        attached_config, trace, info, plan, args.repeat
    )
    print(f"  {args.observe_cell} hooks-off: "
          f"{disabled['kips']:8.1f} KIPS ({disabled['wall_s']:.3f}s)")
    print(f"  {args.observe_cell} observer : "
          f"{attached['kips']:8.1f} KIPS ({attached['wall_s']:.3f}s)")

    # Counter parity: attaching the observer must not perturb the
    # simulation. Re-run once per flavor through Processor directly so
    # the full counter set is in hand (measure_cell keeps only a few).
    plain = Processor(config, trace, info).run(plan)
    observed = Processor(attached_config, trace, info).run(plan)
    mismatched = [
        name for name in PARITY_FIELDS
        if getattr(plain, name) != getattr(observed, name)
    ]
    if mismatched:
        print(f"observer parity FAILED: {', '.join(mismatched)} differ",
              file=sys.stderr)
        return None, False
    print(f"observer parity: {len(PARITY_FIELDS)} counters identical")

    ok = True
    baseline_kips = None
    baseline = None
    if args.baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
    if baseline is not None:
        cell = baseline.get("cells", {}).get(args.observe_cell, {})
        baseline_kips = cell.get("kips")
        settings = baseline.get("settings", {})
        comparable = (
            settings.get("warmup_instructions") == warm
            and settings.get("timing_instructions") == timed
        )
        if not baseline_kips:
            print(f"baseline has no {args.observe_cell} cell; "
                  "skipping the overhead gate")
        elif not comparable:
            print("baseline trace settings differ (e.g. --quick); "
                  "skipping the overhead gate")
            baseline_kips = None
        else:
            ratio = disabled["kips"] / baseline_kips
            print(
                f"hooks-off vs committed baseline: {ratio:.3f}x "
                f"(threshold {1 - args.observe_threshold:.2f}x)"
            )
            if ratio < 1.0 - args.observe_threshold:
                # Advisory like the --baseline trend gate: absolute
                # KIPS is machine dependent.
                print(
                    f"::warning title=observe-overhead::disabled-hook "
                    f"path is {1 - ratio:.1%} below the committed "
                    f"baseline for {args.observe_cell} (threshold "
                    f"{args.observe_threshold:.0%})"
                )
                ok = False

    overhead = (
        attached["wall_s"] / disabled["wall_s"] - 1.0
        if disabled["wall_s"] else 0.0
    )
    print(f"attached-observer overhead: {overhead:+.1%}")
    report = {
        "schema": 1,
        "mode": "observe-overhead",
        "benchmark": args.benchmark,
        "cell": args.observe_cell,
        "settings": {
            "warmup_instructions": warm,
            "timing_instructions": timed,
            "repeat": args.repeat,
            "quick": args.quick,
        },
        "disabled": disabled,
        "attached": attached,
        "attached_overhead": round(overhead, 4),
        "baseline_kips": baseline_kips,
        "parity_fields_checked": len(PARITY_FIELDS),
    }
    return report, ok


#: Child process for the --trace-bench end-to-end comparison: one full
#: parallel matrix in a fresh interpreter, so in-process memos start
#: cold and the only difference between modes is the trace pipeline.
#: argv: mode(baseline|compiled) telemetry warm timed workers names...
_TRACE_BENCH_CHILD = """
import hashlib, json, sys, time

mode, tele = sys.argv[1], sys.argv[2]
warm, timed, workers = map(int, sys.argv[3:6])
names = sys.argv[6:]

from repro.config.presets import continuous_window_128
from repro.config.processor import SchedulingModel, SpeculationPolicy
from repro.experiments.parallel import run_matrix_parallel
from repro.experiments.runner import ExperimentSettings

if mode == "baseline":
    from repro.trace.tracestore import set_trace_store
    set_trace_store(None)  # pre-store behaviour, env var ignored

nas = SchedulingModel.NAS
configs = {
    f"NAS/{p.value}": continuous_window_128(nas, p)
    for p in (SpeculationPolicy.NO, SpeculationPolicy.NAIVE,
              SpeculationPolicy.SYNC, SpeculationPolicy.ORACLE)
}
settings = ExperimentSettings(
    timing_instructions=timed, warmup_instructions=warm
)
started = time.perf_counter()
out = run_matrix_parallel(
    names, configs, settings, workers=workers, telemetry=tele,
    precompile=(mode != "baseline"),
)
wall = time.perf_counter() - started
signature = sorted(
    (label, name, r.cycles, r.committed, r.misspeculations)
    for label, cells in out.items() for name, r in cells.items()
)
digest = hashlib.sha256(
    json.dumps(signature).encode("utf-8")
).hexdigest()
print(json.dumps({"wall": wall, "digest": digest,
                  "points": len(signature)}))
"""


def _trace_bench_child(mode, store_dir, warm, timed, workers, names):
    """Run one end-to-end matrix in a fresh interpreter."""
    import os
    import subprocess
    import tempfile

    from repro.trace.tracestore import TRACE_STORE_ENV_VAR

    telemetry = tempfile.mktemp(suffix=f".{mode}.jsonl")
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if mode == "compiled":
        env[TRACE_STORE_ENV_VAR] = store_dir
    else:
        env.pop(TRACE_STORE_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE_BENCH_CHILD, mode, telemetry,
         str(warm), str(timed), str(workers), *names],
        env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"trace-bench {mode} child failed:\n{proc.stderr}"
        )
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    precompile_wall = 0.0
    shard_trace_wall = 0.0
    try:
        with open(telemetry, "r", encoding="utf-8") as handle:
            for line in handle:
                event = json.loads(line)
                if event.get("event") == "trace_precompile":
                    precompile_wall += float(event.get("wall", 0.0))
                elif event.get("event") == "matrix_finish":
                    shard_trace_wall += float(
                        event.get("trace_wall", 0.0)
                    )
    finally:
        try:
            os.unlink(telemetry)
        except OSError:
            pass
    report["trace_wall"] = precompile_wall + shard_trace_wall
    return report


def run_trace_bench(args):
    """Compiled-trace pipeline benchmark (see module docstring)."""
    import shutil
    import tempfile

    from repro.trace.compiled import compile_trace
    from repro.trace.dependences import compute_dependence_info
    from repro.trace.tracestore import TraceStore, set_trace_store
    from repro.workloads.catalog import (
        DEFAULT_LENGTH, GENERATOR_VERSION, clear_cache, get_trace,
    )
    from repro.workloads.spec95 import ALL_BENCHMARKS, INT_BENCHMARKS

    length = 8_000 if args.quick else DEFAULT_LENGTH
    benchmarks = list(INT_BENCHMARKS if args.quick else ALL_BENCHMARKS)

    # Stage 1: per-benchmark component timings. The store is disabled
    # so get_trace() is pure generation; every stage is timed directly.
    set_trace_store(None)
    store_dir = tempfile.mkdtemp(prefix="trace-bench-store-")
    store = TraceStore(store_dir)
    per = {}
    print(f"trace pipeline, {len(benchmarks)} benchmarks x "
          f"{length:,} instructions (best of {args.repeat}):")
    for name in benchmarks:
        cold_best = None
        trace = info = None
        for _ in range(args.repeat):
            clear_cache()
            started = time.perf_counter()
            trace = get_trace(name, length, seed=0)
            info = compute_dependence_info(trace)
            cold = time.perf_counter() - started
            if cold_best is None or cold < cold_best:
                cold_best = cold

        started = time.perf_counter()
        compiled = compile_trace(trace, dep_info=info)
        compile_s = time.perf_counter() - started
        started = time.perf_counter()
        store.save(compiled, 0, GENERATOR_VERSION)
        save_s = time.perf_counter() - started

        warm_best = None
        loaded = None
        for _ in range(args.repeat):
            started = time.perf_counter()
            loaded = store.load(name, length, 0, GENERATOR_VERSION)
            materialized = loaded.materialize(
                provenance=trace.provenance
            )
            decoded = loaded.dependence_info()
            warm = time.perf_counter() - started
            if warm_best is None or warm < warm_best:
                warm_best = warm

        if materialized.instructions != trace.instructions:
            raise SystemExit(
                f"{name}: store round-trip diverged from the fresh trace"
            )
        if decoded != info:
            raise SystemExit(
                f"{name}: packed dependence map diverged from analysis"
            )

        per[name] = {
            "cold_s": round(cold_best, 6),
            "warm_s": round(warm_best, 6),
            "compile_s": round(compile_s, 6),
            "save_s": round(save_s, 6),
            "speedup": round(cold_best / warm_best, 3),
        }
        print(f"  {name:>12}: cold {cold_best * 1000:7.1f}ms  "
              f"warm {warm_best * 1000:6.1f}ms  "
              f"{per[name]['speedup']:5.1f}x")

    cold_total = sum(c["cold_s"] for c in per.values())
    warm_total = sum(c["warm_s"] for c in per.values())
    pipeline = {
        "per_benchmark": per,
        "cold_total_s": round(cold_total, 6),
        "warm_total_s": round(warm_total, 6),
        "speedup_geomean": round(
            geomean([c["speedup"] for c in per.values()]), 3
        ),
        "speedup_total": round(cold_total / warm_total, 3),
    }
    print(f"pipeline speedup: {pipeline['speedup_total']:.1f}x total, "
          f"{pipeline['speedup_geomean']:.1f}x geomean")

    # Stage 2: end-to-end cold-start matrices in fresh interpreters.
    # Stage 1 already warmed the store, so "compiled" models a CI run
    # with a restored trace cache; "baseline" is the pre-store runner.
    end_to_end = None
    ok = True
    if not args.skip_e2e:
        warm = 3_000 if args.quick else 10_000
        timed = length - warm
        matrix_names = benchmarks[:3 if args.quick else 6]
        baseline = _trace_bench_child(
            "baseline", store_dir, warm, timed, args.workers,
            matrix_names,
        )
        compiled_run = _trace_bench_child(
            "compiled", store_dir, warm, timed, args.workers,
            matrix_names,
        )
        identical = baseline["digest"] == compiled_run["digest"]
        end_to_end = {
            "benchmarks": matrix_names,
            "configs": 4,
            "points": baseline["points"],
            "workers": args.workers,
            "baseline": {
                "wall_s": round(baseline["wall"], 3),
                "trace_wall_s": round(baseline["trace_wall"], 3),
            },
            "compiled": {
                "wall_s": round(compiled_run["wall"], 3),
                "trace_wall_s": round(compiled_run["trace_wall"], 3),
            },
            "wall_speedup": round(
                baseline["wall"] / compiled_run["wall"], 3
            ),
            "trace_wall_speedup": round(
                baseline["trace_wall"] / compiled_run["trace_wall"], 3
            ) if compiled_run["trace_wall"] else None,
            "results_identical": identical,
        }
        print(
            f"end-to-end ({baseline['points']} points): "
            f"baseline {baseline['wall']:.2f}s "
            f"(traces {baseline['trace_wall']:.2f}s) vs compiled "
            f"{compiled_run['wall']:.2f}s "
            f"(traces {compiled_run['trace_wall']:.2f}s) -> "
            f"{end_to_end['wall_speedup']:.2f}x wall, "
            f"results {'identical' if identical else 'DIVERGED'}"
        )
        if not identical:
            print("::error title=trace-bench::compiled-trace matrix "
                  "results diverged from the regenerated baseline",
                  file=sys.stderr)
            ok = False

    shutil.rmtree(store_dir, ignore_errors=True)
    report = {
        "schema": 1,
        "mode": "trace-bench",
        "settings": {
            "trace_length": length,
            "benchmarks": len(benchmarks),
            "repeat": args.repeat,
            "quick": args.quick,
        },
        "pipeline": pipeline,
        "end_to_end": end_to_end,
    }
    return report, ok


def attach_comparison(bench, before):
    """Embed *before* as the baseline and compute speedups."""
    speedups = {}
    for label, cell in bench["cells"].items():
        old = before.get("cells", {}).get(label)
        if old and old.get("kips"):
            speedups[label] = round(cell["kips"] / old["kips"], 3)
    bench["baseline"] = {
        "cells": before.get("cells", {}),
        "geomean_kips": before.get("geomean_kips"),
        "settings": before.get("settings"),
    }
    bench["speedup"] = {
        "per_cell": speedups,
        "geomean": round(geomean(list(speedups.values())), 3),
    }
    return bench


def check_regression(bench, baseline, threshold):
    """Advisory trend gate: geomean over overlapping cells."""
    bench_backend = bench.get("backend", "reference")
    base_backend = baseline.get("backend", "reference")
    if bench_backend != base_backend:
        print(
            f"baseline was measured on the {base_backend!r} backend "
            f"but this run used {bench_backend!r}; skipping the trend "
            f"gate (compare per-backend baselines instead)"
        )
        return True
    base_cells = baseline.get("cells", {})
    overlap = [
        (label, cell["kips"], base_cells[label]["kips"])
        for label, cell in bench["cells"].items()
        if label in base_cells and base_cells[label].get("kips")
    ]
    if not overlap:
        print("no overlapping cells with the committed baseline; skipping")
        return True
    ratio = geomean([new / old for _, new, old in overlap])
    print(
        f"KIPS vs committed baseline over {len(overlap)} cells: "
        f"{ratio:.2f}x"
    )
    if ratio < 1.0 - threshold:
        # GitHub Actions annotation; advisory because absolute KIPS is
        # machine dependent (CI runners vary run to run).
        print(
            f"::warning title=perf-smoke::simulated KIPS geomean is "
            f"{1 - ratio:.0%} below the committed baseline "
            f"(threshold {threshold:.0%}); investigate or refresh "
            f"benchmarks/BENCH_core.json"
        )
        return False
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="write measurement JSON here")
    parser.add_argument("--benchmark", default="126.gcc")
    parser.add_argument("--quick", action="store_true",
                        help="small matrix + short trace (CI smoke)")
    parser.add_argument("--golden", action="store_true",
                        help="measure the 28-cell golden-parity matrix "
                             "(both benchmarks x 14 configs at the "
                             "fixture's trace settings) — the vector "
                             "backend's acceptance matrix")
    parser.add_argument("--min-time", type=float, default=0.0,
                        metavar="SECONDS",
                        help="keep adding passes per cell until their "
                             "accumulated wall time reaches SECONDS "
                             "(stabilizes best-of on short cells)")
    parser.add_argument("--cells", default=None, metavar="SUBSTR[,..]",
                        help="only run cells whose label contains one "
                             "of the given substrings")
    parser.add_argument("--repeat", type=int, default=2,
                        help="passes per cell, best-of (default 2)")
    parser.add_argument("--backend", default="reference",
                        choices=("reference", "vector"),
                        help="simulator core to measure (default "
                             "reference); 'vector' runs the SoA core "
                             "off packed CompiledTrace columns")
    parser.add_argument("--verify-parity", action="store_true",
                        help="after timing each cell, run it once on "
                             "the reference backend and assert every "
                             "parity counter is identical")
    parser.add_argument("--kernel-times", action="store_true",
                        help="vector backend: run one extra "
                             "instrumented pass per cell and record "
                             "the per-phase wall-time breakdown "
                             "(extra['vector_phase_ns']) in the cell; "
                             "the timed passes stay uninstrumented")
    parser.add_argument("--profile", default=None, metavar="OUT.prof",
                        help="cProfile the first cell into OUT.prof")
    parser.add_argument("--compare", default=None, metavar="BEFORE.json",
                        help="embed BEFORE.json as baseline + speedups")
    parser.add_argument("--baseline", default=None,
                        metavar="BENCH_core.json",
                        help="committed baseline for the CI trend gate")
    parser.add_argument("--warn-threshold", type=float, default=0.25,
                        help="relative KIPS drop that warns (default .25)")
    parser.add_argument("--fail-on-regress", action="store_true",
                        help="exit 1 instead of warning on regression")
    parser.add_argument("--observe-overhead", action="store_true",
                        help="gate the repro.observe disabled-hook path "
                             "against the committed baseline")
    parser.add_argument("--observe-cell", default="NAS/NAV@128",
                        help="matrix cell for --observe-overhead "
                             "(default NAS/NAV@128)")
    parser.add_argument("--observe-threshold", type=float, default=0.02,
                        help="relative disabled-path slowdown that warns "
                             "(default .02)")
    parser.add_argument("--trace-bench", action="store_true",
                        help="benchmark the compiled-trace pipeline "
                             "(BENCH_trace.json by convention)")
    parser.add_argument("--skip-e2e", action="store_true",
                        help="trace-bench: skip the subprocess "
                             "end-to-end matrix comparison")
    parser.add_argument("--workers", type=int, default=2,
                        help="trace-bench: parallel-runner workers for "
                             "the end-to-end comparison (default 2)")
    args = parser.parse_args(argv)
    if args.kernel_times and args.backend != "vector":
        parser.error("--kernel-times requires --backend vector")

    if args.trace_bench:
        report, ok = run_trace_bench(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.out}")
        return 0 if ok else 1

    if args.observe_overhead:
        if args.baseline is None:
            args.baseline = "benchmarks/BENCH_core.json"
        report, ok = run_observe_overhead(args)
        if report is None:
            return 1  # counter parity failure is never advisory
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.out}")
        if not ok and args.fail_on_regress:
            return 1
        return 0

    bench = run_bench(args)
    print(f"geomean: {bench['geomean_kips']:.1f} KIPS")

    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as handle:
            attach_comparison(bench, json.load(handle))
        print(f"speedup vs {args.compare}: "
              f"{bench['speedup']['geomean']:.2f}x geomean")

    ok = True
    if args.baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            baseline = None
        if baseline is not None:
            ok = check_regression(bench, baseline, args.warn_threshold)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(bench, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")

    if not ok and args.fail_on_regress:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
