"""Split-window machine (Section 3.7, extended sync fabric).

The authoritative split-window model. One loop iteration is one
simulated cycle, and each cycle runs the same steps in a fixed order:

====================  ==============================================
step                  does
====================  ==============================================
fabric delivery       posted-store messages due by this cycle arrive
                      in post order; NAS posting becomes visible;
                      delivery-time violation check (evented fabric)
task spawn            free units pick up the next tasks
per-unit fetch        independent concurrent fetch (unit order)
issue                 register readiness, ports, load gate, eager
                      violation check, squash
commit                whole tasks commit in order
====================  ==============================================

Only fabric deliveries are timed traffic: they wait on
:class:`~repro.eventsim.fabric.SyncFabric`'s heap and every message
becomes visible at least one cycle after it is posted, so firing the
due deliveries first in a cycle is exactly "before spawn".

**Parity contract.** At degenerate fabric settings (``link_latency == 0``,
unbounded ``sync_bandwidth``, ``mem_banks == 0``) the machine is
bit-identical to the independent oracle
:class:`repro.splitwindow.processor.SplitWindowProcessor` for *any*
scheduler latency and policy the oracle accepts: store posting is
synchronous and no fabric messages exist (enforced by
``tests/test_splitwindow_parity.py``).

**Evented fabric.** When ``link_latency > 0`` or ``sync_bandwidth > 0``,
a posted store address travels as a message: it becomes visible to the
load gate at ``issue_attempt + 1 + addr_scheduler_latency + link_latency``
(plus FIFO queueing behind the per-cycle bandwidth limit), and its
arrival runs a *delivery-time* violation check: a dependent load that
issued inside the visibility window — after the store issued (AS) or
wrote (NAS) but before its message arrived — speculated against data the
fabric had not yet shown it, and is squashed exactly like an
eagerly-detected violation. The oracle cannot express these machines
and rejects non-degenerate fabric configs.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.config.processor import (
    ProcessorConfig,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.core.result import SimResult
from repro.eventsim.fabric import BankedMemory, SyncFabric
from repro.isa.opcodes import FP_CLASSES
from repro.isa.registers import REG_ZERO
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.dependences import DependenceInfo, compute_dependence_info
from repro.trace.events import Trace

_by_seq = attrgetter("seq")


class _Inst:
    """Per-dynamic-instruction timing state.

    A store sets ``complete_cycle`` and ``write_cycle`` together, so
    ``complete_cycle`` alone answers "done by cycle *c*?" for every
    instruction.
    """

    __slots__ = (
        "inst", "seq", "task", "producers", "is_load", "is_store",
        "is_branch", "dispatch_cycle", "issue_cycle", "complete_cycle",
        "write_cycle", "posted_cycle", "mem_issue_cycle", "forwarded_from",
    )

    def __init__(self, inst, task: int, producers: Tuple[int, ...]):
        self.inst = inst
        self.seq = inst.seq
        self.task = task
        self.producers = producers
        self.is_load = inst.is_load
        self.is_store = inst.is_store
        self.is_branch = inst.is_branch
        self.reset()

    def reset(self) -> None:
        self.dispatch_cycle: Optional[int] = None
        self.issue_cycle: Optional[int] = None
        self.complete_cycle: Optional[int] = None
        self.write_cycle: Optional[int] = None
        self.posted_cycle: Optional[int] = None
        self.mem_issue_cycle: Optional[int] = None
        self.forwarded_from: Optional[int] = None


class EventSplitWindowProcessor:
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
        self.config = config
        self.trace = trace
        self.dep_info = (
            dep_info if dep_info is not None
            else compute_dependence_info(trace)
        )
        self.as_mode = config.memdep.scheduling is SchedulingModel.AS
        self.memory = BankedMemory(
            MemoryHierarchy(config),
            config.split.mem_banks,
            config.split.bank_ports,
        )

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
        #: A run that reaches this cycle with work left is wedged.
        self.guard_limit = 80 * len(trace) + 10_000

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
        for record in insts:
            record.reset()

        self.stats = stats
        self.units = units = config.split.num_units
        per_unit_fetch = max(1, config.fetch.width // units)
        per_unit_issue = max(1, config.window.issue_width // units)
        requeue_cap = 4 * units * per_unit_issue
        latency_of = config.latencies.latency
        sched_latency = config.memdep.addr_scheduler_latency
        self.refill = refill = config.memdep.squash_refill_penalty
        memory_ports = config.window.memory_ports
        fu_copies = config.window.fu_copies
        as_mode = self.as_mode
        load_mem = self.memory.load
        load_gate = self._load_gate
        task_size = config.split.task_size
        num_tasks = self.num_tasks
        n_insts = len(insts)
        guard_limit = self.guard_limit

        self.commit_task = 0
        #: Per unit: task index currently running, or None.
        self.running = running = [None] * units
        self.next_task = 0
        #: Per task: index of next instruction to dispatch.
        self.cursor = cursor = {}
        #: Posted store addresses visible to the load gate, by seq.
        self.posted = posted = {}
        #: Dependent loads by producing store seq.
        self.dep_loads = dep_loads = {}
        for record in insts:
            info = self.dep_info.get(record.seq)
            if info is not None:
                dep_loads.setdefault(info.store_seq, []).append(record)
        #: Dispatched, not-yet-issued instructions, oldest first.
        self.pending = pending = []
        self.task_resume_at = 0
        #: Commit scan: every instruction of the oldest task below this
        #: index is complete; a squash rewinds it.
        self.scan = 0

        self.fabric = fabric = SyncFabric(
            config.split.link_latency, config.split.sync_bandwidth
        )
        evented = fabric.evented
        deliveries = fabric.heap

        cycle = 0
        while True:
            cycle += 1

            # --- fabric deliveries due by this cycle, in post order ---
            if deliveries and deliveries[0][0] <= cycle:
                for seq, visible in fabric.due(cycle):
                    self._deliver(seq, visible)

            # --- spawn tasks onto free units (in order) ---
            if cycle >= self.task_resume_at:
                for u in range(units):
                    next_task = self.next_task
                    if running[u] is None and next_task < num_tasks:
                        target = next_task % units
                        if running[target] is None:
                            running[target] = next_task
                            cursor.setdefault(
                                next_task, next_task * task_size
                            )
                            self.next_task = next_task + 1

            # --- per-unit fetch/dispatch (independent, concurrent) ---
            fetched = False
            for task in running:
                if task is None:
                    continue
                pos = cursor[task]
                stop = pos + per_unit_fetch
                hi = (task + 1) * task_size
                if stop > hi:
                    stop = hi
                if stop > n_insts:
                    stop = n_insts
                while pos < stop:
                    record = insts[pos]
                    record.dispatch_cycle = cycle
                    pending.append(record)
                    pos += 1
                    fetched = True
                cursor[task] = pos
            if fetched:
                pending.sort(key=_by_seq)

            # --- issue: within-unit age priority, global port limits ---
            ports = memory_ports
            issued_per_unit = [0] * units
            fp_used = 0
            requeue = []
            stopped_at = None
            squash_request: Optional[Tuple[int, int]] = None
            for index, record in enumerate(pending):
                unit = record.task % units
                dispatched = record.dispatch_cycle
                if dispatched is None:
                    continue  # squashed residue
                if issued_per_unit[unit] >= per_unit_issue:
                    requeue.append(record)
                    if len(requeue) > requeue_cap:
                        stopped_at = index + 1
                        break
                    continue
                # Register readiness.
                ready = dispatched
                for producer_seq in record.producers:
                    done = insts[producer_seq].complete_cycle
                    if done is None:
                        ready = None
                        break
                    if done > ready:
                        ready = done
                if ready is None or ready > cycle:
                    requeue.append(record)
                    continue

                if record.is_store:
                    if as_mode and record.posted_cycle is None:
                        base = cycle + 1 + sched_latency
                        if evented:
                            record.posted_cycle = fabric.post(
                                record.seq, base
                            )
                        else:
                            record.posted_cycle = base
                        posted[record.seq] = record
                    if ports <= 0:
                        requeue.append(record)
                        continue
                    ports -= 1
                    issued_per_unit[unit] += 1
                    record.issue_cycle = cycle
                    write = record.write_cycle = cycle + 2
                    record.complete_cycle = write
                    if not as_mode:
                        if evented:
                            # Visibility to other units waits for the
                            # fabric; the message inserts into ``posted``.
                            fabric.post(record.seq, cycle + 1)
                        else:
                            posted[record.seq] = record
                    # Violation check happens when the store writes; do
                    # it eagerly here with the known write cycle.
                    for load in dep_loads.get(record.seq, ()):
                        if (
                            load.mem_issue_cycle is not None
                            and load.mem_issue_cycle <= write
                            and load.forwarded_from != record.seq
                            and load.dispatch_cycle is not None
                        ):
                            stats.misspeculations += 1
                            stats.squashed_instructions += max(
                                0, cursor.get(load.task, load.seq)
                                - load.seq
                            )
                            squash_request = (load.seq, write + refill)
                            break
                    if squash_request:
                        stopped_at = index + 1
                        break
                elif record.is_load:
                    open_, waited = load_gate(record, cycle)
                    if not open_ or ports <= 0:
                        requeue.append(record)
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
                        inst = record.inst
                        record.complete_cycle = load_mem(inst.addr, cycle)
                else:
                    op = record.inst.op
                    if op in FP_CLASSES:
                        if fp_used >= fu_copies:
                            requeue.append(record)
                            continue
                        fp_used += 1
                    issued_per_unit[unit] += 1
                    record.issue_cycle = cycle
                    record.complete_cycle = cycle + latency_of(op)

            # Whatever was not examined stays queued behind the requeue.
            if stopped_at is not None:
                requeue.extend(pending[stopped_at:])
            pending[:] = requeue
            if squash_request is not None:
                self._squash_from_seq(*squash_request)

            # --- commit whole tasks in program order ---
            commit_task = self.commit_task
            scan = self.scan
            while commit_task < num_tasks:
                lo = commit_task * task_size
                hi = min(lo + task_size, n_insts)
                if scan < lo:
                    scan = lo
                while scan < hi:
                    done = insts[scan].complete_cycle
                    if done is None or done > cycle:
                        break
                    scan += 1
                if scan < hi:
                    break
                for pos in range(lo, hi):
                    r = insts[pos]
                    if r.is_load:
                        stats.committed_loads += 1
                    elif r.is_store:
                        stats.committed_stores += 1
                        posted.pop(pos, None)
                    elif r.is_branch:
                        stats.committed_branches += 1
                stats.committed += hi - lo
                for u in range(units):
                    if running[u] == commit_task:
                        running[u] = None
                commit_task += 1
            self.commit_task = commit_task
            self.scan = scan

            if commit_task >= num_tasks:
                break
            if cycle >= guard_limit:
                raise RuntimeError("split-window simulation wedged")

        fabric.flush()
        stats.cycles = cycle
        stats.extra["eventsim"] = {
            "events_fired": cycle + fabric.delivered,
            "events_cancelled": fabric.cancelled,
            **fabric.stats(),
            **self.memory.stats(),
        }
        return stats

    # -- fabric --------------------------------------------------------

    def _deliver(self, seq: int, visible: int) -> None:
        """A posted-store message arrived: finish posting, check loads.

        The delivery-time violation check covers the loophole the
        oracle cannot see: a dependent load that issued *inside* the
        visibility window — after the store issued (AS) or wrote (NAS),
        but before the fabric delivered its address — consumed a value
        the machine had no way to know was about to change.
        """
        record = self._insts[seq]
        if self.as_mode:
            lower = record.issue_cycle
        else:
            if record.issue_cycle is None:
                return  # squash reset the store before arrival
            self.posted[seq] = record
            lower = record.write_cycle
        if lower is None:
            return  # posted on an issue attempt that never issued
        commit_floor = self.commit_task * self.config.split.task_size
        stats = self.stats
        for load in self.dep_loads.get(seq, ()):
            if (
                load.seq >= commit_floor
                and load.mem_issue_cycle is not None
                and lower < load.mem_issue_cycle < visible
                and load.forwarded_from != seq
                and load.dispatch_cycle is not None
            ):
                stats.misspeculations += 1
                stats.squashed_instructions += max(
                    0, self.cursor.get(load.task, load.seq) - load.seq
                )
                self._squash_from_seq(
                    load.seq, record.write_cycle + self.refill
                )
                break

    # -- recovery ------------------------------------------------------

    def _squash_from_seq(self, seq: int, resume: int) -> None:
        """Squash the load at *seq* and everything younger.

        The offending load's task rewinds to the load (instructions
        before it, including any already-written same-task stores,
        survive — squash invalidation re-executes only the load and its
        successors); strictly younger tasks restart entirely. In-flight
        fabric messages from squashed stores are cancelled.
        """
        insts = self._insts
        units = self.units
        task = insts[seq].task
        running = self.running
        for u in range(units):
            if running[u] is not None and running[u] > task:
                running[u] = None
        self.next_task = min(self.next_task, task + 1)
        last_task = task + units
        for pos in range(seq, len(insts)):
            record = insts[pos]
            if record.dispatch_cycle is None and record.task > last_task:
                break
            record.reset()
        posted = self.posted
        for posted_seq in [s for s in posted if s >= seq]:
            del posted[posted_seq]
        self.fabric.cancel_from(seq)
        pending = self.pending
        pending[:] = [record for record in pending if record.seq < seq]
        cursor = self.cursor
        cursor[task] = seq
        for later in range(task + 1, self.num_tasks):
            cursor.pop(later, None)
        self.task_resume_at = resume
        self.scan = min(self.scan, seq)

    # -- load gate -----------------------------------------------------

    def _load_gate(
        self, record: _Inst, cycle: int
    ) -> Tuple[bool, Optional[_Inst]]:
        """May this load access memory? Returns (open, forward-source)."""
        inst = record.inst
        posted = self.posted
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


def simulate_split_event(
    config: ProcessorConfig,
    trace: Trace,
    dep_info: Optional[Dict[int, DependenceInfo]] = None,
) -> SimResult:
    """Run the split-window machine over *trace*."""
    return EventSplitWindowProcessor(config, trace, dep_info).run()
