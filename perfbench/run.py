"""End-to-end benchmark: regenerating the paper's artifacts.

Run from the root of a checkout::

    python3 perfbench/run.py --workload continuous-cold --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 1

Each repetition of a workload is a fresh interpreter (``worker.py``),
as a user's ``repro-experiments`` invocation is. The run repeats the
workload until ``--seconds`` have passed, reports times on a quiet host
scaled to a reference host speed by a calibration loop timed between
operations (README.md, "Steadiness"), checks every
operation's output against the digests recorded in ``expected.json``,
and prints one JSON object as the last line of standard output. With
``--trace 1`` it also runs traced repetitions and reports per-layer
metrics instead of the end-to-end ones. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
#: Kept across runs, in the checkout: the stores all-warm reads.
CACHE_DIR = ".perfbench_cache"

#: Artifact workloads run at a tenth of ``--quick`` (6000 timed / 4000
#: warm-up instructions) and vector-cells at a quarter of the
#: EXPERIMENTS.md scale (16000 / 10000), so that a run holds several
#: repetitions of each (README.md, "Scale").
ARTIFACT_SCALE = {"timing": 600, "warmup": 400}
CELL_SCALE = {"timing": 4_000, "warmup": 2_500}

CONTINUOUS = (
    "table1", "figure1", "table3", "figure2", "table4", "figure3",
    "figure4", "figure5", "figure6", "summary", "stalls",
    "ablation-recovery", "ablation-predictors", "ablation-window",
    "ablation-squash",
)
SPLIT = ("figure7", "figure7-sweep", "ablation-split")
#: ``repro-experiments all``, in the CLI's order.
ALL = (
    "table1", "figure1", "table3", "figure2", "table4", "figure3",
    "figure4", "figure5", "figure6", "figure7", "figure7-sweep",
    "summary", "stalls", "ablation-recovery", "ablation-predictors",
    "ablation-window", "ablation-squash", "ablation-split",
)

WORKLOADS = {
    "continuous-cold": {"kind": "artifacts", "artifacts": CONTINUOUS},
    "split-cold": {"kind": "artifacts", "artifacts": SPLIT},
    "all-warm": {"kind": "artifacts", "artifacts": ALL},
    "vector-cells": {"kind": "cells"},
}

#: Set-up-only interpreters started per run, on top of the workload's
#: own repetitions, so ``setup_s`` is a median of several set-ups.
SETUP_PROBES = 3
#: Fewest timed repetitions in a run: each cell's fastest time needs
#: several samples. A continuous-cold repetition takes 8-15 s, so its
#: runs hold this many.
MIN_REPS = 3
#: Calibration passes timed on each CPU to choose the one the next
#: child process runs on.
PIN_PASSES = 4
#: A repetition that has not finished by then is a failure.
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "cell_ms_p50": "ms", "cell_ms_tail": "ms",
}


class BenchError(Exception):
    """The run cannot be compared: a repetition crashed or did
    unequal work."""


# -- statistics ---------------------------------------------------------------

def tail_percentile(n: int) -> Optional[int]:
    """Highest whole percentile with at least ten of *n* samples
    beyond it (nearest-rank), or None below eleven samples."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return None


def percentile(values: List[float], p: int) -> float:
    """Nearest-rank percentile *p* of *values*."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def cell_metrics(per_rep_ms: List[List[float]]) -> Dict[str, float]:
    """p50 and tail over cells of each cell's fastest latency across
    the repetitions. Equal work makes every repetition call the same
    cells in the same order, so cells are matched by position."""
    best = [min(samples) for samples in zip(*per_rep_ms)]
    n = len(best)
    p = tail_percentile(n)
    if p is None:
        raise BenchError(f"only {n} cell latencies; the tail needs 11")
    return {
        "cell_ms_p50": statistics.median(best),
        "cell_ms_tail": percentile(best, p),
        "tail_percentile": p,
        "cells": n,
    }


def quiet_wall(reps: List[dict]) -> float:
    """Seconds one repetition takes on a quiet host: the fastest
    repetition's time outside ``run_benchmark`` calls (set-up, drivers,
    rendering, memo hits) plus each such call at its fastest
    repetition."""
    outside = min(r["wall_s"] - sum(r["cell_ms"]) / 1e3 for r in reps)
    cells = [min(samples) for samples in zip(*(r["cell_ms"] for r in reps))]
    return outside + sum(cells) / 1e3


# -- correctness and work checks ---------------------------------------------

def expected_names(workload: str, expected: dict) -> List[str]:
    if WORKLOADS[workload]["kind"] == "cells":
        return sorted(expected["cells"])
    return list(WORKLOADS[workload]["artifacts"])


def count_failures(reps: List[dict], names: List[str],
                   expected: dict) -> Dict[str, object]:
    """Operations attempted and failed over *reps*.

    An operation fails if it raised, if its digest differs from the
    recorded one, or if it never ran.
    """
    table = {**expected.get("artifacts", {}), **expected.get("cells", {})}
    attempted = failed = 0
    problems = []
    for index, rep in enumerate(reps):
        attempted += len(names)
        seen = {op["name"]: op for op in rep["ops"]}
        for name in names:
            op = seen.get(name)
            if op is None:
                reason = "not run"
            elif op["error"]:
                reason = op["error"].strip().splitlines()[-1]
            elif op["digest"] != table.get(name):
                reason = "output differs from the recorded digest"
            else:
                continue
            failed += 1
            problems.append(f"rep {index}: {name}: {reason}")
    return {"attempted": attempted, "failed": failed, "problems": problems}


def check_equal_work(reps: List[dict]) -> None:
    """Refuse to compare repetitions that did different work."""
    first = reps[0]["work"]
    for index, rep in enumerate(reps[1:], 1):
        if rep["work"] != first:
            raise BenchError(
                f"unequal work: rep 0 {first} vs rep {index} {rep['work']}"
            )


def warm_guard(work: dict) -> List[str]:
    """Problems with a store-warm repetition: it must neither simulate
    nor generate a trace."""
    problems = []
    if work["simulations"]:
        problems.append(f"all-warm simulated {work['simulations']} cells")
    if work["traces_generated"]:
        problems.append(
            f"all-warm generated {work['traces_generated']} traces"
        )
    return problems


# -- repetitions --------------------------------------------------------------

def child_env(root: str) -> Dict[str, str]:
    """The caller's environment with every ``REPRO_*`` setting removed
    (backend, result store, trace store), and the checkout's sources
    first on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def spawn(spec: dict, root: str, out: str) -> dict:
    """Run one worker; raises BenchError if it crashed."""
    spec = dict(spec, out=out)
    started = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             json.dumps(spec)],
            env=child_env(root), cwd=root, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {CHILD_TIMEOUT_S}s") from None
    if proc.returncode != 0 or not os.path.exists(out):
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"worker exited {proc.returncode}: {tail}")
    with open(out, encoding="utf-8") as handle:
        record = json.load(handle)
    os.remove(out)
    record["wall_s"] = (
        (record["done_ns"] - started) / 1e9 - record["calibration_s"]
    )
    record["setup_s"] = (record["first_ns"] - started) / 1e9
    return record


class Workload:
    """Store layout and worker specs for one workload in one run."""

    def __init__(self, name: str, workload_seed: int, order: int,
                 root: str, tmp: str):
        self.root = root
        self.tmp = tmp
        self.kind = WORKLOADS[name]["kind"]
        scale = CELL_SCALE if self.kind == "cells" else ARTIFACT_SCALE
        self.base = {
            "kind": self.kind,
            "artifacts": list(WORKLOADS[name].get("artifacts", ())),
            "seed": workload_seed, "order": order, **scale,
        }
        self.count = 0
        self.cpus = sorted(os.sched_getaffinity(0))
        self.warm = None
        if name == "all-warm":
            self.warm = prefilled_stores(self.base, root, tmp)

    def _stores(self, label: str) -> dict:
        base = os.path.join(self.tmp, label)
        return {
            "result_store": (
                None if self.kind == "cells"
                else os.path.join(base, "results")
            ),
            "trace_store": os.path.join(base, "traces"),
        }

    def run(self, kind: Optional[str] = None, traced: bool = False) -> dict:
        """One fresh-process repetition (``kind="setup"``: set-up only).
        Cold workloads get empty stores every time."""
        self.count += 1
        label = f"rep{self.count}"
        hostspeed.pin_to_fastest_cpu(self.cpus, PIN_PASSES)
        stores = self.warm or self._stores(label)
        try:
            return spawn(
                dict(self.base, kind=kind or self.kind, traced=traced,
                     **stores),
                self.root, os.path.join(self.tmp, f"{label}.json"),
            )
        finally:
            if self.warm is None:
                shutil.rmtree(os.path.join(self.tmp, label),
                              ignore_errors=True)

    def repeat(self, seconds: float, traced: bool) -> List[dict]:
        """Repetitions until *seconds* have passed; at least
        ``MIN_REPS``."""
        reps = []
        began = time.monotonic()
        while len(reps) < MIN_REPS or time.monotonic() - began < seconds:
            reps.append(self.run(traced=traced))
        return reps


def source_key(root: str, spec: dict) -> str:
    """Digest of every file under the checkout's ``src/``, of *spec* and
    of the Python version."""
    digest = hashlib.sha256(json.dumps(spec, sort_keys=True).encode())
    digest.update(sys.version.encode())
    src = os.path.join(root, "src")
    for folder, subfolders, files in os.walk(src):
        subfolders[:] = sorted(d for d in subfolders if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def prefilled_stores(base: dict, root: str, tmp: str) -> dict:
    """Result and trace stores filled by one untimed pass of every
    artifact. They are kept in ``CACHE_DIR`` for later runs of the same
    sources and spec, and made again whenever ``src/`` changes."""
    spec = dict(base, order=0, traced=False)
    cache = os.path.join(root, CACHE_DIR, source_key(root, spec))
    stores = {
        "result_store": os.path.join(cache, "results"),
        "trace_store": os.path.join(cache, "traces"),
    }
    done = os.path.join(cache, "complete")
    if not os.path.exists(done):
        shutil.rmtree(os.path.join(root, CACHE_DIR), ignore_errors=True)
        spawn(dict(spec, **stores), root, os.path.join(tmp, "prefill.json"))
        open(done, "w").close()
    return stores


# -- per-layer metrics --------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rep: dict) -> Dict[str, tuple]:
    """``{name: (value, unit)}`` from one traced repetition."""
    spans = rep["spans"]
    counters = rep["counters"]

    def calls(name):
        return spans.get(name, [0, 0, 0])[0]

    def secs(name):
        return spans.get(name, [0, 0, 0])[1] / 1e9

    def self_secs(name):
        return spans.get(name, [0, 0, 0])[2] / 1e9

    out = {}
    for span in (
        "trace.get_trace", "trace.get_compiled", "deps", "tracestore.load",
        "tracestore.save", "memory.hierarchy_init", "core.reference",
        "observe", "core.vector", "splitwindow", "eventsim", "store.load",
        "store.save",
    ):
        out[f"{span}.calls"] = (calls(span), "count")
        out[f"{span}.s"] = (secs(span), "s")
    traces = rep["trace_stats"]
    out["trace.generated"] = (traces["generated"], "count")
    out["trace.store_hits"] = (traces["store_hits"], "count")
    out["trace.memory_hits"] = (traces["memory_hits"], "count")
    out["trace.acquire_s"] = (traces["acquire_s"], "s")
    out["core.reference.init_self_s"] = (
        self_secs("core.reference.init"), "s"
    )
    for span in ("core.reference", "core.vector", "splitwindow"):
        out[f"{span}.ns_per_inst"] = (_ratio(
            secs(span) * 1e9, counters.get(f"{span}.committed", 0)
        ), "ns")
    out["core.vector.elided_cycle_ratio"] = (_ratio(
        counters.get("core.vector.skipped_cycles", 0),
        counters.get("core.vector.cycles", 0),
    ), "ratio")
    fired = counters.get("eventsim.events_fired", 0)
    cancelled = counters.get("eventsim.events_cancelled", 0)
    out["eventsim.events_fired"] = (fired, "count")
    out["eventsim.ns_per_event"] = (
        _ratio(secs("eventsim") * 1e9, fired), "ns"
    )
    out["eventsim.cancelled_ratio"] = (
        _ratio(cancelled, fired + cancelled), "ratio"
    )
    work = rep["work"]
    lookups = work["memory_hits"] + work["store_hits"] + work["simulations"]
    out["runner.lookups"] = (lookups, "count")
    out["runner.memory_hits"] = (work["memory_hits"], "count")
    out["runner.store_hits"] = (work["store_hits"], "count")
    out["runner.simulations"] = (work["simulations"], "count")
    out["runner.memo_hit_ratio"] = (
        _ratio(work["memory_hits"], lookups), "ratio"
    )
    out["store.bytes"] = (rep["store_bytes"], "B")
    for artifact in ALL:
        out[f"driver.{artifact}.s"] = (secs(f"driver.{artifact}"), "s")
        out[f"driver.{artifact}.self_s"] = (
            self_secs(f"driver.{artifact}"), "s"
        )
    out["render.s"] = (secs("render"), "s")
    out["setup.import_s"] = (rep["import_s"], "s")
    for field, value in rep["sim"].items():
        out[f"sim.{field}"] = (value, "count")
    return out


def median_metrics(per_rep: List[Dict[str, tuple]]) -> Dict[str, tuple]:
    return {
        name: (statistics.median(m[name][0] for m in per_rep), unit)
        for name, (_, unit) in per_rep[0].items()
    }


def span_table(rep: dict) -> str:
    """Every span of one traced repetition, by self time."""
    rows = sorted(rep["spans"].items(), key=lambda kv: -kv[1][2])
    lines = [f"  {'span':32s} {'calls':>8s} {'incl s':>9s} {'self s':>9s}"]
    for name, (calls, incl, own) in rows:
        lines.append(
            f"  {name:32s} {calls:8d} {incl / 1e9:9.3f} {own / 1e9:9.3f}"
        )
    return "\n".join(lines)


# -- one workload -------------------------------------------------------------

def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    if (expected["artifact_scale"] != ARTIFACT_SCALE
            or expected["cell_scale"] != CELL_SCALE):
        raise BenchError("expected.json was recorded at another scale")
    return expected


def run_workload(name: str, seed: int, wseed: int, seconds: float,
                 traced: bool, root: str, tmp: str, expected: dict) -> dict:
    """Measure one workload; returns the result object's fields plus a
    report for the human-readable output."""
    if str(wseed) not in expected["seeds"]:
        raise BenchError(f"no digests recorded for workload seed {wseed}")
    digests = expected["seeds"][str(wseed)]
    names = expected_names(name, digests)
    lines = [f"== {name}  seed {seed} (operation order), "
             f"workload seed {wseed}"]
    workload = Workload(name, wseed, seed, root, tmp)
    probes = [workload.run(kind="setup") for _ in range(SETUP_PROBES)]
    reps = workload.repeat(seconds, traced=False)
    traced_reps = workload.repeat(seconds, traced=True) if traced else []
    measured = reps + traced_reps

    outcome = count_failures(measured, names, digests)
    check_equal_work(measured)
    problems = list(outcome["problems"])
    if name == "all-warm":
        for rep in measured:
            problems += warm_guard(rep["work"])

    env = measured[0]["env"]
    lines.append(
        f"   backend {env['backend']}, python {env['python']}, "
        f"nproc {len(workload.cpus)} (each child pinned to one), "
        f"numpy {'yes' if env['numpy'] else 'no'}; "
        f"{len(reps)} reps, {SETUP_PROBES} set-up probes; "
        f"work {measured[0]['work']}"
    )
    # Each CPU of the host flips between its fast speed and one up to 2x
    # slower, in stretches of up to tens of seconds. Times are therefore
    # taken at their fastest repetition, cell by cell, and scaled by the
    # same statistic of the calibration passes timed during the
    # repetitions (README.md, "Steadiness").
    passes = [x for rep in reps for x in rep["calibration"]]
    scale = hostspeed.scale(passes, len(reps))
    cells = cell_metrics([rep["cell_ms"] for rep in reps])
    setup = statistics.median(r["setup_s"] for r in probes + reps)
    raw_wall = quiet_wall(reps)
    lines.append(
        f"   as measured: wall {raw_wall:.4f} s (fastest whole repetition "
        f"{min(r['wall_s'] for r in reps):.4f} s), set-up {setup:.4f} s; "
        f"{len(passes)} calibration passes, fastest "
        f"{min(passes) * 1e3:.3f} ms, median "
        f"{statistics.median(passes) * 1e3:.3f} ms, expected fastest of "
        f"{len(reps)} {hostspeed.expected_min(passes, len(reps)) * 1e3:.3f}"
        f" ms -> scale {scale:.4f}"
    )
    metrics = {
        "wall_s": raw_wall * scale,
        "setup_s": setup * scale,
        "peak_rss_mb": statistics.median(
            r["maxrss_kb"] / 1024 for r in reps
        ),
        "cell_ms_p50": cells["cell_ms_p50"] * scale,
        "cell_ms_tail": cells["cell_ms_tail"] * scale,
    }
    result = {
        "correct": not problems,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "problems": problems,
        "tail_note": (
            f"p{cells['tail_percentile']} of {cells['cells']} cells"
        ),
    }
    if traced:
        layers = median_metrics([layer_metrics(r) for r in traced_reps])
        overhead = quiet_wall(traced_reps) - raw_wall
        layers["trace_overhead_s"] = (overhead, "s")
        result["metrics"] = {
            k: {"value": v, "unit": u} for k, (v, u) in layers.items()
        }
        lines.append(span_table(traced_reps[len(traced_reps) // 2]))
        for key, (value, unit) in layers.items():
            lines.append(f"   {key:36s} {value:14.6g} {unit}")
    else:
        result["metrics"] = {
            k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in metrics.items()
        }
    result["report"] = lines
    return result


# -- recording ----------------------------------------------------------------

def record(seeds: List[int], root: str, tmp: str) -> None:
    """Write expected.json: digests of every artifact and every
    vector-cells result for each workload seed in *seeds*."""
    out = {"artifact_scale": ARTIFACT_SCALE, "cell_scale": CELL_SCALE,
           "seeds": {}}
    for seed in seeds:
        entry = {}
        for key, spec in (
            ("artifacts", {"kind": "artifacts", "artifacts": list(ALL),
                           **ARTIFACT_SCALE}),
            ("cells", {"kind": "cells", "artifacts": [], **CELL_SCALE}),
        ):
            stores = os.path.join(tmp, f"record-{seed}-{key}")
            rep = spawn(dict(
                spec, seed=seed, traced=False,
                result_store=None if key == "cells" else
                os.path.join(stores, "results"),
                trace_store=os.path.join(stores, "traces"),
            ), root, os.path.join(tmp, "record.json"))
            shutil.rmtree(stores, ignore_errors=True)
            errors = [op for op in rep["ops"] if op["error"]]
            if errors:
                raise BenchError(f"seed {seed}: {errors[0]['error']}")
            entry[key] = {op["name"]: op["digest"] for op in rep["ops"]}
        out["seeds"][str(seed)] = entry
        print(f"recorded seed {seed}", flush=True)
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")


# -- command line -------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument(
        "--seed", type=int, default=0,
        help="orders the operations of each repetition",
    )
    parser.add_argument(
        "--workload-seed", type=int, default=0,
        help="seed of the program's inputs (traces); digests are recorded "
             "for 0-9",
    )
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", metavar="SEEDS",
        help="rewrite expected.json for these comma-separated workload "
             "seeds instead of measuring",
    )
    args = parser.parse_args(argv)
    if not args.record and not args.workload:
        parser.error("--workload is required")

    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running worker and the scratch stores are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("no src/repro here: run from the root of a checkout",
              file=sys.stderr)
        return 2
    tmp = os.path.join(root, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(tmp)
    try:
        if args.record:
            record([int(s) for s in args.record.split(",")], root, tmp)
            return 0
        expected = load_expected()
        names = sorted(WORKLOADS) if args.workload == "all" else [
            args.workload
        ]
        results = {
            name: run_workload(name, args.seed, args.workload_seed,
                               args.seconds,
                               bool(args.trace), root, tmp, expected)
            for name in names
        }
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass        # another run's stores are still there

    for result in results.values():
        print("\n".join(result["report"]))
        for problem in result["problems"]:
            print(f"   FAILED {problem}")
    if not args.trace:
        header = " ".join(
            f"{f'{k} ({u})':>19s}" for k, u in END_TO_END_UNITS.items()
        )
        print(f"\n{'workload':16s} {header}")
        for name, result in results.items():
            cells = " ".join(
                f"{m['value']:>19.4f}" for m in result["metrics"].values()
            )
            print(f"{name:16s} {cells}  (tail {result['tail_note']})")
    if len(results) == 1:
        (only,) = results.values()
        metrics = only["metrics"]
    else:
        metrics = {
            f"{name}.{key}": value
            for name, result in results.items()
            for key, value in result["metrics"].items()
        }
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
