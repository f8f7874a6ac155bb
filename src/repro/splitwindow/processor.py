"""A distributed, split-window (Multiscalar-like) timing model.

Section 3.7 of the paper explains why an address-based scheduler that
eliminates miss-speculations under a *continuous* window fails to do so
under a *split* window: the dynamic instruction stream is divided into
tasks assigned to independent units that fetch concurrently, so a load in
a younger task can compute its address — and speculatively access memory
— before an older task has even fetched the store it depends on.

This model captures exactly the properties the section's argument needs:

* the trace is split into fixed-size tasks distributed round-robin over
  ``num_units`` sub-windows;
* units fetch *independently and concurrently* (no cross-unit program
  order priority);
* register dependences are honoured exactly (producers precomputed from
  the trace, standing in for Multiscalar's register forwarding);
* stores post their addresses as soon as possible into a global
  address-based scheduler with configurable latency, loads inspect it
  before accessing memory (AS/NAV), or ignore it (NAS/NAV);
* a true-dependence violation squashes the offending task and all
  younger tasks, which then re-execute.

It is deliberately simpler than the continuous-window core — the paper
uses the split model only for the qualitative contrast of Figure 7.

This module is the independent test oracle: experiments run the
authoritative machine, :mod:`repro.eventsim.splitwindow`, which is
bit-identical to it at degenerate fabric settings.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.config.processor import (
    ProcessorConfig,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.core.result import SimResult
from repro.eventsim.splitwindow import _Inst
from repro.isa.opcodes import FP_CLASSES
from repro.isa.registers import REG_ZERO
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.dependences import DependenceInfo, compute_dependence_info
from repro.trace.events import Trace


class SplitWindowProcessor:
    """Split-window machine bound to one trace."""

    def __init__(
        self,
        config: ProcessorConfig,
        trace: Trace,
        dep_info: Optional[Dict[int, DependenceInfo]] = None,
    ) -> None:
        if not config.split.enabled:
            raise ValueError("config.split.enabled must be True")
        if config.memdep.policy not in (
            SpeculationPolicy.NAIVE, SpeculationPolicy.NO
        ):
            raise ValueError(
                "split-window model supports NAV and NO policies"
            )
        if not config.split.fabric_degenerate:
            raise ValueError(
                "non-degenerate sync-fabric settings (link latency, "
                "bounded bandwidth, banked memory) are modelled only by "
                "the event-driven split-window machine (repro.eventsim)"
            )
        self.config = config
        self.trace = trace
        self.dep_info = (
            dep_info if dep_info is not None
            else compute_dependence_info(trace)
        )
        self.as_mode = config.memdep.scheduling is SchedulingModel.AS
        self.hierarchy = MemoryHierarchy(config)

        task_size = config.split.task_size
        self._insts: List[_Inst] = []
        last_writer: Dict[int, int] = {}
        for inst in trace:
            producers = tuple(
                last_writer[src]
                for src in inst.srcs
                if src != REG_ZERO and src in last_writer
            )
            self._insts.append(
                _Inst(inst, inst.seq // task_size, producers)
            )
            if inst.dest is not None and inst.dest != REG_ZERO:
                last_writer[inst.dest] = inst.seq
        self.num_tasks = (
            (len(trace) + task_size - 1) // task_size if len(trace) else 0
        )

    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        config = self.config
        stats = SimResult(
            config_label=f"split{config.split.num_units} {config.label}",
            benchmark=self.trace.name,
            suite=self.trace.suite,
        )
        insts = self._insts
        if not insts:
            return stats

        units = config.split.num_units
        per_unit_fetch = max(1, config.fetch.width // units)
        per_unit_issue = max(1, config.window.issue_width // units)
        latency_of = config.latencies.latency
        sched_latency = config.memdep.addr_scheduler_latency
        refill = config.memdep.squash_refill_penalty

        #: Oldest not-yet-committed task.
        commit_task = 0
        #: Per unit: task index currently running, or None.
        running: List[Optional[int]] = [None] * units
        next_task = 0
        #: Per task: index of next instruction to dispatch.
        cursor: Dict[int, int] = {}
        #: Posted store addresses: seq -> (visible cycle, inst).
        posted: Dict[int, _Inst] = {}
        #: Dependent loads by producing store seq.
        dep_loads: Dict[int, List[_Inst]] = {}
        for record in insts:
            info = self.dep_info.get(record.seq)
            if info is not None:
                dep_loads.setdefault(info.store_seq, []).append(record)

        pending: List[Tuple[int, int, _Inst]] = []  # (seq, serial, inst)
        serial = 0
        cycle = 0
        guard = 0

        def task_range(task: int) -> Tuple[int, int]:
            size = config.split.task_size
            return task * size, min((task + 1) * size, len(insts))

        def squash_from_seq(seq: int, resume: int) -> None:
            """Squash the load at *seq* and everything younger.

            The offending load's task rewinds to the load (instructions
            before it, including any already-written same-task stores,
            survive — squash invalidation re-executes only the load and
            its successors); strictly younger tasks restart entirely.
            """
            nonlocal next_task, pending
            task = insts[seq].task
            for u in range(units):
                if running[u] is not None and running[u] > task:
                    running[u] = None
            next_task = min(next_task, task + 1)
            for record in insts[seq:]:
                if record.dispatch_cycle is None and (
                    record.task > task + units
                ):
                    break
                record.reset()
            for posted_seq in [s for s in posted if s >= seq]:
                del posted[posted_seq]
            pending = [
                (s, n, r) for s, n, r in pending if r.seq < seq
            ]
            heapq.heapify(pending)
            cursor[task] = seq
            for later in range(task + 1, self.num_tasks):
                cursor.pop(later, None)
            nonlocal task_resume_at
            task_resume_at = resume

        task_resume_at = 0

        while commit_task < self.num_tasks:
            guard += 1
            if guard > 80 * len(insts) + 10_000:
                raise RuntimeError("split-window simulation wedged")
            cycle += 1

            # --- spawn tasks onto free units (in order) ---
            if cycle >= task_resume_at:
                for u in range(units):
                    if running[u] is None and next_task < self.num_tasks:
                        target = next_task % units
                        if running[target] is None:
                            running[target] = next_task
                            cursor.setdefault(
                                next_task, task_range(next_task)[0]
                            )
                            next_task += 1

            # --- per-unit fetch/dispatch (independent, concurrent) ---
            for u in range(units):
                task = running[u]
                if task is None:
                    continue
                lo, hi = task_range(task)
                pos = cursor[task]
                for _ in range(per_unit_fetch):
                    if pos >= hi:
                        break
                    record = insts[pos]
                    record.dispatch_cycle = cycle
                    serial += 1
                    heapq.heappush(pending, (record.seq, serial, record))
                    pos += 1
                cursor[task] = pos

            # --- issue: within-unit age priority, global port limits ---
            ports = config.window.memory_ports
            issued_per_unit = [0] * units
            fp_used = 0
            requeue = []
            squash_request: Optional[Tuple[int, int]] = None
            while pending:
                seq, n, record = heapq.heappop(pending)
                unit = record.task % units
                if record.dispatch_cycle is None:
                    continue  # squashed residue
                if issued_per_unit[unit] >= per_unit_issue:
                    requeue.append((seq, n, record))
                    if len(requeue) > 4 * units * per_unit_issue:
                        break
                    continue
                # Register readiness.
                ready = record.dispatch_cycle
                blocked = False
                for producer_seq in record.producers:
                    producer = insts[producer_seq]
                    done = (
                        producer.write_cycle
                        if producer.inst.is_store
                        else producer.complete_cycle
                    )
                    if producer.seq >= record.seq:
                        continue
                    if done is None:
                        blocked = True
                        break
                    ready = max(ready, done)
                if blocked or ready > cycle:
                    requeue.append((seq, n, record))
                    continue

                inst = record.inst
                if inst.is_store:
                    if self.as_mode and record.posted_cycle is None:
                        record.posted_cycle = cycle + 1 + sched_latency
                        posted[record.seq] = record
                    if ports <= 0:
                        requeue.append((seq, n, record))
                        continue
                    ports -= 1
                    issued_per_unit[unit] += 1
                    record.issue_cycle = cycle
                    record.write_cycle = cycle + 2
                    record.complete_cycle = record.write_cycle
                    if not self.as_mode:
                        posted[record.seq] = record
                    # Violation check happens when the store writes; do
                    # it eagerly here with the known write cycle.
                    for load in dep_loads.get(record.seq, ()):
                        if (
                            load.mem_issue_cycle is not None
                            and load.mem_issue_cycle <= record.write_cycle
                            and load.forwarded_from != record.seq
                            and load.dispatch_cycle is not None
                        ):
                            stats.misspeculations += 1
                            stats.squashed_instructions += max(
                                0, cursor.get(load.task, load.seq)
                                - load.seq
                            )
                            squash_request = (
                                load.seq, record.write_cycle + refill
                            )
                            break
                    if squash_request:
                        break
                elif inst.is_load:
                    open_, waited = self._load_gate(
                        record, posted, cycle, sched_latency
                    )
                    if not open_:
                        requeue.append((seq, n, record))
                        continue
                    if ports <= 0:
                        requeue.append((seq, n, record))
                        continue
                    ports -= 1
                    issued_per_unit[unit] += 1
                    record.issue_cycle = cycle
                    record.mem_issue_cycle = cycle
                    if waited is not None:
                        record.forwarded_from = waited.seq
                        record.complete_cycle = max(
                            cycle + 1, waited.write_cycle + 1
                        )
                    else:
                        record.complete_cycle = self.hierarchy.load(
                            inst.addr, cycle
                        )
                else:
                    op = inst.op
                    if op in FP_CLASSES:
                        if fp_used >= config.window.fu_copies:
                            requeue.append((seq, n, record))
                            continue
                        fp_used += 1
                    issued_per_unit[unit] += 1
                    record.issue_cycle = cycle
                    record.complete_cycle = cycle + latency_of(op)

            for item in requeue:
                heapq.heappush(pending, item)
            if squash_request is not None:
                squash_from_seq(*squash_request)

            # --- commit whole tasks in program order ---
            while commit_task < self.num_tasks:
                lo, hi = task_range(commit_task)
                done = all(
                    (r.write_cycle if r.inst.is_store
                     else r.complete_cycle) is not None
                    and (r.write_cycle if r.inst.is_store
                         else r.complete_cycle) <= cycle
                    for r in insts[lo:hi]
                )
                if not done:
                    break
                for r in insts[lo:hi]:
                    stats.committed += 1
                    if r.inst.is_load:
                        stats.committed_loads += 1
                    elif r.inst.is_store:
                        stats.committed_stores += 1
                        posted.pop(r.seq, None)
                    elif r.inst.is_branch:
                        stats.committed_branches += 1
                for u in range(units):
                    if running[u] == commit_task:
                        running[u] = None
                commit_task += 1

        stats.cycles = cycle
        return stats

    def _load_gate(
        self,
        record: _Inst,
        posted: Dict[int, _Inst],
        cycle: int,
        sched_latency: int,
    ) -> Tuple[bool, Optional[_Inst]]:
        """May this load access memory? Returns (open, forward-source)."""
        inst = record.inst
        if not self.as_mode:
            # NAS: forward from the youngest older *issued* store if one
            # overlaps; otherwise speculate against memory.
            best = None
            for seq, store in posted.items():
                if seq >= record.seq or store.write_cycle is None:
                    continue
                if store.write_cycle > cycle:
                    continue
                s = store.inst
                if s.addr < inst.addr + inst.size and (
                    inst.addr < s.addr + s.size
                ):
                    if best is None or seq > best.seq:
                        best = store
            return True, best
        # AS: inspect posted addresses of *older* stores (only those the
        # units have fetched and posted — the split-window loophole).
        match = None
        for seq, store in posted.items():
            if seq >= record.seq:
                continue
            visible = (store.posted_cycle or 0)
            if visible > cycle:
                continue
            s = store.inst
            if s.addr < inst.addr + inst.size and (
                inst.addr < s.addr + s.size
            ):
                if match is None or seq > match.seq:
                    match = store
        if match is not None:
            if match.write_cycle is None or match.write_cycle > cycle:
                return False, None
            return True, match
        return True, None


def simulate_split(
    config: ProcessorConfig,
    trace: Trace,
    dep_info: Optional[Dict[int, DependenceInfo]] = None,
) -> SimResult:
    """Run the split-window model over *trace*."""
    return SplitWindowProcessor(config, trace, dep_info).run()
