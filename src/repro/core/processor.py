"""The cycle-level clustered out-of-order processor (§2 of the paper).

Six stages — fetch, decode/rename/steer, issue, execute, writeback,
commit — over N homogeneous clusters.  Per cycle, in order:

1. **writeback events**: scheduled completions, producer-side value
   verification, verification-copy mismatch deliveries;
2. **commit**: in-order retirement (stores take a D-cache port; the
   previous mapping set of each destination register is released);
3. **issue**: per cluster and per side (int/fp), oldest-first among
   ready uops within the issue widths, functional units, D-cache ports
   and interconnect paths; the NREADY imbalance figure is measured here;
4. **decode/rename/steer**: value-predictor lookup+update, steering,
   map-table rename with demand-generated copies and verification-
   copies, dispatch into the issue queues and the ROB;
5. **fetch**: the front end refills the fetch buffer.

Speculation follows §2.2: confident predicted operands dispatch
speculatively; the producer verifies local predictions one cycle after
its writeback; verification-copies verify remote predictions in the
producer's cluster and forward the value only on mismatch; failures
selectively invalidate and reissue the consumer and, transitively,
everything that used its result, through the normal issue mechanism.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..cluster import Cluster, FUPool, NEVER, NEXT_TRY_IDLE
from ..errors import ConfigError, SimulationError
from ..frontend import (BranchTargetBuffer, CombinedPredictor,
                        FetchEngine, FetchedInst)
from ..interconnect import Interconnect
from ..isa.instruction import DynInst
from ..isa.opcodes import OPCODES
from ..isa.registers import NUM_LOGICAL_REGS, ZERO_REG, is_fp_reg
from ..memory import MemoryHierarchy
from ..obs.events import (EV_COMMIT, EV_COMPLETE, EV_COPY_SEND,
                          EV_DISPATCH, EV_FETCH, EV_ISSUE, EV_SQUASH,
                          EV_STEER, EV_VCOPY_VERIFY)
from ..obs.interval import IntervalMetrics
from ..obs.tracer import POSTMORTEM_WINDOW
from ..predictor import (ContextPredictor, HybridPredictor, NullPredictor,
                         PerfectPredictor, StridePredictor, ValuePredictor)
from ..rename import RenameUnit
from ..steering import (BalanceOnlySteerer, BaselineSteerer, DCountTracker,
                        DependenceOnlySteerer, ModifiedSteerer, NReadyMeter,
                        RoundRobinSteerer, StaticSteerer, VPBSteerer)
from ..validation.watchdog import (ClusterSnapshot, PipelineSnapshot,
                                   PipelineWatchdog)
from .config import ProcessorConfig
from .stats import SimResult, SimStats
from .uop import (KIND_COPY, KIND_INST, KIND_VCOPY, MODE_FWD, MODE_LOCAL,
                  MODE_PRED, MODE_ZERO, Operand, STATE_COMMITTED, STATE_DONE,
                  STATE_ISSUED, STATE_WAITING, Uop)

__all__ = ["Processor"]

_EV_COMPLETE = 0
_EV_VERIFY = 1
_EV_VDELIVER = 2

#: The zero register's steering view (SourceView's fields): always
#: available, mapped nowhere.
_ZERO_VIEW = (ZERO_REG, False, True, frozenset(), None, False)
#: Per-slot predictions with value prediction off.
_NO_PREDICTIONS = (None,) * max(info.num_srcs for info in OPCODES.values())


def _build_steerer(config: ProcessorConfig):
    name = config.steering
    n = config.n_clusters
    if name == "baseline":
        return BaselineSteerer(n, config.balance_threshold)
    if name == "modified":
        return ModifiedSteerer(n, config.balance_threshold)
    if name == "vpb":
        return VPBSteerer(n, config.balance_threshold, config.vpb_threshold)
    if name == "round-robin":
        return RoundRobinSteerer(n)
    if name == "balance-only":
        return BalanceOnlySteerer(n)
    if name == "dependence-only":
        return DependenceOnlySteerer(n)
    if name == "static":
        return StaticSteerer(n, config.static_assignment)
    raise ValueError(f"unknown steering scheme {name!r}")


def _build_predictor(config: ProcessorConfig) -> ValuePredictor:
    if config.predictor == "none":
        return NullPredictor()
    if config.predictor == "stride":
        return StridePredictor(config.vp_entries,
                               config.vp_confidence_threshold,
                               two_delta=config.vp_two_delta)
    if config.predictor == "context":
        return ContextPredictor(
            l2_entries=config.vp_entries,
            confidence_threshold=config.vp_confidence_threshold)
    if config.predictor == "hybrid":
        return HybridPredictor(stride_entries=config.vp_entries)
    if config.predictor == "perfect":
        return PerfectPredictor()
    raise ValueError(f"unknown predictor {config.predictor!r}")


class Processor:
    """One simulation instance: a config plus a dynamic trace to replay.

    Args:
        config: processor parameterization.
        trace: iterable of :class:`DynInst` to replay.
        golden: optional :class:`~repro.validation.golden.GoldenModel`
            co-simulator; every committed program instruction is
            replayed against it (in batches of
            ``config.golden_interval``).
        injector: optional
            :class:`~repro.validation.faults.FaultInjector`; perturbs
            predictions, steering and the interconnect, and is notified
            when an injected corruption is caught by verification.
        tracer: optional :class:`~repro.obs.EventTracer`; the pipeline
            stages emit typed events into it (docs/OBSERVABILITY.md).
        profiler: optional :class:`~repro.obs.PhaseProfiler`; the run
            loop attributes host wall-clock to its pipeline stages.
        warm: optional pre-trained state with ``vp``, ``bpred``, ``btb``
            and ``memory`` attributes (the sampler's functionally warmed
            components), used instead of building cold ones.

    All three observers are strictly read-only: with any combination
    installed, the committed instruction stream and every ``SimStats``
    field are identical to an uninstrumented run.
    """

    def __init__(self, config: ProcessorConfig, trace, *,
                 golden=None, injector=None, tracer=None,
                 profiler=None, warm=None) -> None:
        config.validate()
        if injector is not None and config.predictor == "perfect":
            raise ConfigError(
                "fault injection is incompatible with the perfect "
                "predictor: its oracle mode skips the verification "
                "machinery that detects injected corruptions")
        self.config = config
        self._golden = golden
        self._injector = injector
        self._tracer = tracer
        self.profiler = profiler
        self.metrics = (IntervalMetrics(config.metrics_interval,
                                        config.n_clusters)
                        if config.metrics_interval else None)
        self.stats = SimStats()
        self.stats.dispatch_per_cluster = [0] * config.n_clusters
        self.stats.issued_per_cluster = [0] * config.n_clusters
        self.stats.iq_occupancy_sum = [0] * config.n_clusters
        if warm is not None:
            self.memory, self.bpred, self.btb, self.vp = (
                warm.memory, warm.bpred, warm.btb, warm.vp)
        else:
            self.memory = MemoryHierarchy(dcache_ports=config.dcache_ports)
            self.bpred = CombinedPredictor()
            self.btb = (BranchTargetBuffer(config.btb_entries)
                        if config.btb_entries else None)
            self.vp = _build_predictor(config)
        self.fetch = FetchEngine(trace, self.memory.fetch_latency,
                                 self.bpred, width=config.fetch_width,
                                 buffer_capacity=config.fetch_buffer,
                                 btb=self.btb)
        self.clusters: List[Cluster] = [
            Cluster(c, config.iq_size, 2 * config.pregs_per_cluster,
                    FUPool(config.int_units, config.int_muldiv,
                           config.fp_units, config.fp_muldiv,
                           config.int_issue_width, config.fp_issue_width,
                           config.latencies))
            for c in range(config.n_clusters)]
        self.renamer = RenameUnit(NUM_LOGICAL_REGS, config.n_clusters,
                                  config.pregs_per_cluster)
        for _, cluster, preg in self.renamer.initial_mappings():
            self.clusters[cluster].regfile.set_ready(preg, 0)
        self.interconnect = Interconnect(config.n_clusters,
                                         config.comm_latency,
                                         config.comm_paths_per_cluster,
                                         fault_injector=injector)
        self.interconnect.tracer = tracer
        self._vp_enabled = config.predictor != "none"
        # The perfect predictor is the paper's idealized upper bound
        # (§3.3): predictions are free and always right, so no
        # verification-copies are dispatched and no verification latency
        # is charged — the study isolates what communication removal
        # alone could buy.
        self._oracle = config.predictor == "perfect"
        self.steerer = _build_steerer(config)
        self.dcount = DCountTracker(config.n_clusters)
        self.nready = NReadyMeter(config.n_clusters)
        self.rob: deque = deque()
        self._events: Dict[int, List[tuple]] = {}
        self._next_order = 0
        # Memory disambiguation: decoded stores whose address generation
        # has not issued yet, and issued-but-uncommitted stores by address.
        self._pending_store_addrs: set = set()
        self._inflight_stores: Dict[int, List[Uop]] = {}
        # Stores that have generated their address but still await their
        # data value (the store-queue data side).
        self._stores_awaiting_data: List[Uop] = []
        self._dports_used = 0
        # Flat hot-path state, hoisted once: decode indexes the map
        # table's per-register rows and mapped-cluster views, the free
        # lists' counts and the per-cluster scoreboards directly
        # instead of chasing renamer -> map_table (and cluster ->
        # regfile) method chains per operand.
        self._rob_size = config.rob_size
        map_table = self.renamer.map_table
        self._map_rows = map_table._map
        self._mapped_lists = map_table._mapped
        self._mapped_sets = map_table._mapped_sets
        self._free_lists = self.renamer.free_lists
        self._regfiles = [cl.regfile for cl in self.clusters]
        self._ready_arrays = [cl.regfile.ready for cl in self.clusters]
        self._producer_arrays = [cl.regfile.producer
                                 for cl in self.clusters]
        # Steering views are built only for a steerer that reads them;
        # the per-slot scan also finds copy sources, which exist only
        # with more than one cluster.
        self._scan_sources = (config.n_clusters > 1
                              or self.steerer.reads_sources)
        self.cycle = 0
        self.watchdog = PipelineWatchdog(config.deadlock_cycles)

    # ------------------------------------------------------------------ run --

    def run(self, max_cycles: Optional[int] = None,
            max_insts: Optional[int] = None) -> SimResult:
        """Simulate until the trace drains; returns the result bundle."""
        self.run_until(max_cycles, max_insts)
        return self._finalize()

    def run_until(self, max_cycles: Optional[int] = None,
                  max_insts: Optional[int] = None):
        """Advance the timing loop without finalizing; returns stats.

        Stops at the cycle/instruction bound (checked at cycle
        boundaries, so ``max_insts`` stops at the first cycle where the
        committed count reaches it), or when the trace drains.  The loop
        can be re-entered — sampling and snapshotting both rely on a
        stopped machine resuming bit-identically — and the caller
        finalizes exactly once via :meth:`run`'s tail or
        :meth:`finalize`.
        """
        # The stages are bound once: plain bound methods, or, with a
        # profiler, wrappers adding each call's wall-clock time to its
        # phase.  Everything skippable inside the stages is gated by the
        # event-driven wake machinery (``_events``, the queues'
        # ``next_try`` bounds), so an idle stage costs one comparison.
        fetch = self.fetch
        stats = self.stats
        watchdog = self.watchdog
        begin, prune = self._begin_cycle, self.interconnect.prune
        process_events, drain = self._process_events, self._drain_store_data
        commit, note_commit, check = (self._commit, watchdog.note_commit,
                                      watchdog.check)
        snapshot = self.pipeline_snapshot
        issue, decode, tick = self._issue, self._decode, fetch.tick
        profiler = self.profiler
        if profiler is not None:
            timed = profiler.timed
            begin, prune = timed("other", begin), timed("other", prune)
            process_events = timed("events", process_events)
            drain = timed("events", drain)
            commit = timed("commit", commit)
            note_commit = timed("commit", note_commit)
            check = timed("commit", check)
            issue = timed("issue", issue)
            decode = timed("decode", decode)
            tick = timed("fetch", tick)
            first_cycle, run_start = self.cycle, profiler.clock()
        while not (fetch.done and not self.rob):
            cycle = self.cycle
            if max_cycles is not None and cycle >= max_cycles:
                break
            if max_insts is not None and stats.committed_insts >= max_insts:
                break
            begin(cycle)
            process_events(cycle)
            drain(cycle)
            if commit(cycle):
                note_commit(cycle)
            else:
                check(cycle, snapshot)
            issue(cycle)
            decode(cycle)
            tick(cycle)
            if cycle and cycle % 8192 == 0:
                prune(cycle)
            self.cycle = cycle + 1
        if profiler is not None:
            profiler.cycles += self.cycle - first_cycle
            profiler.total_seconds += profiler.clock() - run_start
        return self.stats

    def finalize(self) -> SimResult:
        """Assemble the result bundle for a :meth:`run_until` caller."""
        return self._finalize()

    def _begin_cycle(self, cycle: int) -> None:
        """Per-cycle bookkeeping: interval sampling, D-port reset."""
        metrics = self.metrics
        if metrics is not None and cycle and cycle % metrics.interval == 0:
            metrics.sample(self, cycle)
        self._dports_used = 0

    def _finalize(self) -> SimResult:
        """Assemble the result bundle after the loop drains or stops."""
        if self.metrics is not None:
            self.metrics.finish(self, self.cycle)
        self.stats.cycles = self.cycle
        self.stats.avg_imbalance = self.nready.average
        self.stats.cond_branches = self.bpred.stats.lookups
        self.stats.branch_mispredictions = self.bpred.stats.mispredictions
        vp_stats = {
            "lookups": self.vp.stats.lookups,
            "confident": self.vp.stats.confident,
            "confident_fraction": self.vp.stats.confident_fraction,
            "hit_ratio": self.vp.stats.hit_ratio,
        }
        bp_stats = {
            "lookups": self.bpred.stats.lookups,
            "mispredictions": self.bpred.stats.mispredictions,
            "accuracy": self.bpred.stats.accuracy,
        }
        if self.btb is not None:
            bp_stats["btb_miss_rate"] = self.btb.miss_rate
        validation = {}
        if self._golden is not None:
            validation["golden_commits"] = self._golden.finish(self.cycle)
            validation["golden_batches"] = self._golden.batches
        if self._injector is not None:
            report = self._injector.report
            validation["fault_plan"] = self._injector.plan.describe()
            validation["fault_report"] = report
            self.stats.injected_faults = report.total_injected
            self.stats.detected_faults = report.detected_values
        return SimResult(self.stats, self.config, self.memory.stats(),
                         vp_stats, bp_stats, validation,
                         metrics=self.metrics, profile=self.profiler)

    def describe_state(self) -> str:
        """One-line-per-structure snapshot for debugging stuck runs."""
        lines = [f"cycle {self.cycle}: ROB {len(self.rob)}"
                 f"/{self.config.rob_size}, "
                 f"fetch {'done' if self.fetch.done else 'active'}"]
        for cluster in self.clusters:
            lines.append(
                f"  cluster {cluster.cluster_id}: "
                f"iq_int {len(cluster.iq_int)}/{cluster.iq_int.capacity} "
                f"iq_fp {len(cluster.iq_fp)}/{cluster.iq_fp.capacity} "
                f"dcount {self.dcount.counters[cluster.cluster_id]}")
        if self.rob:
            head = self.rob[0]
            lines.append(f"  ROB head: {head!r} unverified={head.unverified}"
                         f" min_issue={head.min_issue_cycle}")
        lines.append(f"  pending store addrs: "
                     f"{len(self._pending_store_addrs)}, "
                     f"stores awaiting data: "
                     f"{len(self._stores_awaiting_data)}")
        return "\n".join(lines)

    def pipeline_snapshot(self, cycle: int, last_commit_cycle: int,
                          budget: int) -> PipelineSnapshot:
        """Structured stall post-mortem (the watchdog's failure payload)."""
        head = self.rob[0] if self.rob else None
        clusters = []
        for cluster in self.clusters:
            cid = cluster.cluster_id
            clusters.append(ClusterSnapshot(
                cluster_id=cid,
                iq_int_occupancy=len(cluster.iq_int),
                iq_int_capacity=cluster.iq_int.capacity,
                iq_fp_occupancy=len(cluster.iq_fp),
                iq_fp_capacity=cluster.iq_fp.capacity,
                free_pregs=[self.renamer.free_count(cid, bank)
                            for bank in (0, 1)]))
        return PipelineSnapshot(
            cycle=cycle,
            last_commit_cycle=last_commit_cycle,
            budget=budget,
            rob_occupancy=len(self.rob),
            rob_size=self.config.rob_size,
            rob_head=repr(head) if head is not None else None,
            rob_head_unverified=head.unverified if head else None,
            rob_head_min_issue=head.min_issue_cycle if head else None,
            fetch_done=self.fetch.done,
            clusters=clusters,
            inflight_bus_messages=self.interconnect.inflight(cycle),
            pending_store_addrs=len(self._pending_store_addrs),
            stores_awaiting_data=len(self._stores_awaiting_data),
            decode_stalls=dict(self.stats.decode_stalls),
            dispatched_per_cluster=list(self.stats.dispatch_per_cluster),
            issued_per_cluster=list(self.stats.issued_per_cluster),
            recent_events=(self._tracer.recent(POSTMORTEM_WINDOW)
                           if self._tracer is not None else []))

    # ----------------------------------------------------------- writeback --

    def _schedule(self, cycle: int, event: tuple) -> None:
        events = self._events
        queued = events.get(cycle)
        if queued is None:
            events[cycle] = [event]
        else:
            queued.append(event)

    def _process_events(self, cycle: int) -> None:
        events = self._events.pop(cycle, None)
        if not events:
            return
        for event in events:
            kind, uop, generation = event
            if uop.generation != generation:
                continue  # stale: the uop was invalidated and will redo
            if kind == _EV_COMPLETE:
                self._complete(uop, cycle)
            elif kind == _EV_VERIFY:
                self._run_verifications(uop, cycle)
            else:  # _EV_VDELIVER
                self._deliver_mismatch(uop, cycle)

    def _complete(self, uop: Uop, cycle: int) -> None:
        if uop.state != STATE_ISSUED:
            return
        uop.state = STATE_DONE
        uop.complete_cycle = cycle
        tracer = self._tracer
        if tracer is not None:
            # Inline emission (here and at every hook below): a bound
            # C append is ~10x cheaper than a tracer method call, and
            # writeback/issue/commit each fire once per uop.
            tracer.counts[EV_COMPLETE] += 1
            tracer.emit((cycle, EV_COMPLETE, uop.order, uop.kind,
                         uop.cluster))
        if uop.kind == KIND_VCOPY:
            operand = uop.consumer_operand
            if operand.correct and not operand.verified:
                operand.verified = True
                uop.consumer.unverified -= 1
            return
        if uop.verify_list:
            self._schedule(cycle + 1, (_EV_VERIFY, uop, uop.generation))
        if (uop.kind == KIND_INST and uop.mispredicted_branch):
            self.fetch.branch_resolved(uop.dyn.seq, cycle)

    def _run_verifications(self, producer: Uop, cycle: int) -> None:
        """Producer-side verification, one cycle after writeback (§2.2)."""
        pending = producer.verify_list
        producer.verify_list = []
        for consumer, operand in pending:
            if operand.verified:
                continue
            operand.verified = True
            consumer.unverified -= 1
            if operand.correct:
                continue
            self._note_fault_detected(operand)
            # Misprediction: the correct value sits in the local physical
            # register (ready at the producer's completion); the consumer
            # reverts to a normal register read and reissues.
            operand.mode = MODE_LOCAL
            if consumer.state != STATE_WAITING:
                self._invalidate(consumer, cycle)

    def _deliver_mismatch(self, vcopy: Uop, cycle: int) -> None:
        """A verification-copy's mismatch forward arrives at the consumer.

        If the operand is already verified, a previous generation of
        this vcopy (invalidated and replayed after its source producer
        reissued) has already delivered the same final value — the
        replayed forward changes nothing and the consumer may even have
        committed meanwhile.
        """
        consumer = vcopy.consumer
        operand = vcopy.consumer_operand
        if operand.verified:
            return
        operand.mode = MODE_FWD
        operand.ready_override = cycle
        operand.verified = True
        consumer.unverified -= 1
        self._note_fault_detected(operand)
        if consumer.state != STATE_WAITING:
            self._invalidate(consumer, cycle)

    def _note_fault_detected(self, operand: Operand) -> None:
        """Report a caught injected corruption back to the harness."""
        if operand.injected and self._injector is not None:
            self._injector.note_value_detected()

    # --------------------------------------------------------- invalidation --

    def _invalidate(self, start: Uop, cycle: int) -> None:
        """Selective invalidation + reissue of a dependence cone (§2.2)."""
        stack = [start]
        while stack:
            uop = stack.pop()
            if uop.state == STATE_WAITING:
                continue
            if uop.state == STATE_COMMITTED:
                raise SimulationError(
                    f"attempted to invalidate committed uop {uop!r}")
            uop.generation += 1
            uop.state = STATE_WAITING
            uop.complete_cycle = None
            uop.issue_cycle = None
            if cycle > uop.min_issue_cycle:
                uop.min_issue_cycle = cycle
            uop.reissue_count += 1
            self.stats.invalidations += 1
            tracer = self._tracer
            if tracer is not None:
                tracer.counts[EV_SQUASH] += 1
                tracer.emit((cycle, EV_SQUASH, uop.order, uop.kind,
                             uop.cluster, uop.generation))
            if uop.dest_preg is not None:
                regfile = self.clusters[uop.dest_cluster].regfile
                regfile.set_pending(uop.dest_preg, uop)
            if uop.is_store:
                self._pending_store_addrs.add(uop.dyn.seq)
                stores = self._inflight_stores.get(uop.dyn.mem_addr)
                if stores and uop in stores:
                    stores.remove(uop)
            self.clusters[uop.cluster].iq_for(uop.int_side).reinsert(uop)
            readers = uop.readers
            uop.readers = []
            stack.extend(readers)

    # ---------------------------------------------------------------- commit --

    def _commit(self, cycle: int) -> int:
        rob = self.rob
        retired = 0
        budget = self.config.retire_width
        tracer = self._tracer
        release = self.renamer.release
        regfiles = self._regfiles
        clusters = self.clusters
        while rob and retired < budget:
            uop = rob[0]
            if (uop.state != STATE_DONE or uop.unverified > 0
                    or uop.complete_cycle >= cycle):
                break
            if uop.is_store:
                if self._dports_used >= self.config.dcache_ports:
                    break
                self._dports_used += 1
                self.memory.data_latency(uop.dyn.mem_addr, is_write=True)
                stores = self._inflight_stores.get(uop.dyn.mem_addr)
                if stores and uop in stores:
                    stores.remove(uop)
            rob.popleft()
            uop.state = STATE_COMMITTED
            retired += 1
            row = uop.free_on_commit
            if row is not None:
                # Free the replaced mapping set (Figure 1).
                release(row, regfiles)
            if uop.dest_preg is not None:
                clusters[uop.dest_cluster].regfile.producer[
                    uop.dest_preg] = None
            uop.readers = []
            if tracer is not None:
                tracer.counts[EV_COMMIT] += 1
                tracer.emit((
                    cycle, EV_COMMIT, uop.order, uop.kind,
                    uop.dyn.seq if uop.dyn is not None else -1,
                    uop.cluster))
            if uop.kind == KIND_INST:
                self.stats.committed_insts += 1
                if self._golden is not None:
                    self._golden.on_commit(uop.dyn, cycle, uop.cluster)
            elif uop.kind == KIND_COPY:
                self.stats.committed_copies += 1
            else:
                self.stats.committed_vcopies += 1
        return retired

    # ----------------------------------------------------------------- issue --

    def _load_disambiguated(self, uop: Uop) -> bool:
        """Loads wait until every prior store's address is known (Table 1)."""
        pending = self._pending_store_addrs
        if not pending:
            return True
        seq = uop.dyn.seq
        return min(pending) > seq

    def _forwarding_store(self, uop: Uop) -> Optional[Uop]:
        """Latest earlier in-flight store to the load's address, if any.

        The returned store may still be awaiting its data (not DONE);
        the load must then wait — a read cannot bypass a same-address
        write whose value does not exist yet.
        """
        stores = self._inflight_stores.get(uop.dyn.mem_addr)
        if not stores:
            return None
        seq = uop.dyn.seq
        best = None
        for store in stores:
            if store.dyn.seq < seq and (
                    best is None or store.dyn.seq > best.dyn.seq):
                best = store
        return best

    def _drain_store_data(self, cycle: int) -> None:
        """Complete address-generated stores whose data value arrived."""
        if not self._stores_awaiting_data:
            return
        still_waiting: List[Uop] = []
        for store in self._stores_awaiting_data:
            if store.state != STATE_ISSUED:
                continue  # invalidated; it will re-issue and re-enqueue
            operand = store.operands[0]
            mode = operand.mode
            if mode == MODE_LOCAL:
                ok = (self.clusters[store.cluster].regfile.ready[operand.preg]
                      <= cycle)
            elif mode == MODE_FWD:
                ok = operand.ready_override <= cycle
            else:
                ok = True  # MODE_PRED / MODE_ZERO
            if ok:
                self._complete(store, cycle)
            else:
                still_waiting.append(store)
        self._stores_awaiting_data = still_waiting

    def _issue(self, cycle: int) -> None:
        """Oldest-first issue over the per-cluster/per-side queues.

        Queues are scanned *batched*: each :class:`IssueQueue` carries a
        ``next_try`` lower bound on the earliest cycle any of its
        entries could issue, so a queue whose uops are all sleeping (or
        which is empty) costs one comparison per cycle instead of a
        linear rescan.  Within a scanned queue the entry walk, the issue
        attempts and their order are exactly the linear scan's, so the
        committed stream is bit-identical (golden co-sim verified; see
        tests/core/test_wake_invariant.py for the property test).

        The per-uop issue attempt (operand readiness, parking on the
        register-file waiter lists, per-kind resource checks) is inlined
        here: it runs several times per simulated instruction and the
        call overhead dominated the host profile.  An operand-blocked
        uop is parked with ``wake_cycle`` = a lower bound on its next
        possible issue cycle (finite scheduled ready cycles bound
        directly; unscheduled registers park it on the waiter list and
        ``set_ready`` lowers the bound later); a resource-blocked uop
        (width/FU capacity, D-cache port, interconnect path, load
        disambiguation) retries next cycle.  Parking consumes no shared
        resource, so it cannot perturb any other uop's issue.

        Functional-unit pools are reset lazily (first use per cycle):
        an idle cluster's pool costs nothing.
        """
        leftover_int: Optional[List[int]] = None
        leftover_fp: Optional[List[int]] = None
        stats = self.stats
        occupancy = stats.iq_occupancy_sum
        issued_per_cluster = stats.issued_per_cluster
        tracer = self._tracer
        events = self._events
        data_latency = self.memory.data_latency
        config = self.config
        free_copies = config.free_copy_issue
        dcache_ports = config.dcache_ports
        interconnect = self.interconnect
        cycle1 = cycle + 1
        for cluster in self.clusters:
            cid = cluster.cluster_id
            occupancy[cid] += (len(cluster.iq_int._entries)
                               + len(cluster.iq_fp._entries))
            regfile = cluster.regfile
            ready = regfile.ready
            waiters = regfile.waiters
            producers = regfile.producer
            fupool = cluster.fupool
            for int_side in (True, False):
                queue = cluster.iq_int if int_side else cluster.iq_fp
                entries = queue._entries
                if not entries or queue.next_try > cycle:
                    continue
                if fupool._cycle != cycle:
                    fupool.begin_cycle(cycle)
                # Reset the bound before scanning: a uop issuing during
                # this scan can wake an already-visited entry of this
                # same queue (``set_ready`` lowers ``queue.next_try``
                # through the ``Uop.iq`` backref), so the bound we
                # recompute below must min-merge with whatever the wake
                # hooks left here, never overwrite it.
                queue.next_try = NEXT_TRY_IDLE
                bound = NEXT_TRY_IDLE
                # `kept` forks lazily off `entries` at the first issued
                # (dropped) uop; scans that issue nothing leave the
                # entry list untouched.
                kept: Optional[List[Uop]] = None
                for i, uop in enumerate(entries):
                    if uop.state != STATE_WAITING:
                        # Defensive (queues only hold WAITING uops in
                        # steady state): retry next cycle.
                        if kept is not None:
                            kept.append(uop)
                        if cycle1 < bound:
                            bound = cycle1
                        continue
                    mi = uop.min_issue_cycle
                    wc = uop.wake_cycle
                    if mi > cycle or wc > cycle:
                        if kept is not None:
                            kept.append(uop)
                        b = mi if mi > wc else wc
                        if b < bound:
                            bound = b
                        continue
                    # ---- operand readiness (park when blocked) ----
                    if uop.is_store:
                        # Address generation needs only the base operand
                        # (srcs are (value, base)); the data value is
                        # collected in the store queue afterwards (§2.4:
                        # "loads may execute when prior store addresses
                        # are known").
                        operand = uop.operands[1]
                        mode = operand.mode
                        blocking = None
                        if mode == MODE_LOCAL:
                            if ready[operand.preg] > cycle:
                                blocking = (operand,)
                        elif mode == MODE_FWD:
                            if operand.ready_override > cycle:
                                blocking = (operand,)
                    else:
                        blocking = None
                        for operand in uop.operands:
                            mode = operand.mode
                            if mode == MODE_LOCAL:
                                if ready[operand.preg] > cycle:
                                    if blocking is None:
                                        blocking = [operand]
                                    else:
                                        blocking.append(operand)
                            elif mode == MODE_FWD:
                                if operand.ready_override > cycle:
                                    if blocking is None:
                                        blocking = [operand]
                                    else:
                                        blocking.append(operand)
                    if blocking is not None:
                        b = cycle1
                        for operand in blocking:
                            if operand.mode == MODE_LOCAL:
                                preg = operand.preg
                                r = ready[preg]
                                w = waiters.get(preg)
                                if w is None:
                                    waiters[preg] = [uop]
                                elif w[-1] is not uop:
                                    w.append(uop)
                                if r > b:
                                    b = r
                            elif operand.ready_override > b:
                                b = operand.ready_override
                        uop.wake_cycle = b
                        if kept is not None:
                            kept.append(uop)
                        if b < bound:
                            bound = b
                        continue
                    # ---- per-kind resource checks + issue ----
                    kind = uop.kind
                    if kind == KIND_INST:
                        is_load = uop.is_load
                        if is_load:
                            if (not self._load_disambiguated(uop)
                                    or ((forward := self._forwarding_store(
                                        uop)) is not None
                                        and forward.state != STATE_DONE)
                                    or self._dports_used >= dcache_ports):
                                # Disambiguation / same-address store
                                # data / D-cache port: retry next cycle.
                                if kept is not None:
                                    kept.append(uop)
                                if cycle1 < bound:
                                    bound = cycle1
                                continue
                        opclass = uop.opclass
                        if not fupool.try_issue(opclass):
                            if kept is not None:
                                kept.append(uop)
                            if cycle1 < bound:
                                bound = cycle1
                            if int_side:
                                if leftover_int is None:
                                    leftover_int = [0] * config.n_clusters
                                leftover_int[cid] += 1
                            else:
                                if leftover_fp is None:
                                    leftover_fp = [0] * config.n_clusters
                                leftover_fp[cid] += 1
                            continue
                        # -- _issue_inst, inlined against the scan locals
                        # (regfile/ready/producers ARE this uop's cluster
                        # state; `forward` reuses the guard's lookup, which
                        # is pure).  Side-effect order matches the original
                        # helper: latency, mark-issued, store/dest wiring.
                        dyn = uop.dyn
                        latency = fupool.latencies[opclass]
                        if is_load:
                            self._dports_used += 1
                            if forward is not None:
                                latency += 1  # store buffer forward
                                forward.readers.append(uop)
                            else:
                                latency += data_latency(dyn.mem_addr)
                        uop.state = STATE_ISSUED
                        uop.issue_cycle = cycle
                        stats.issued_uops += 1
                        issued_per_cluster[cid] += 1
                        if tracer is not None:
                            tracer.counts[EV_ISSUE] += 1
                            tracer.emit((cycle, EV_ISSUE, uop.order,
                                         KIND_INST, cid, uop.reissue_count))
                        # Register with local producers for the
                        # selective-reissue walk.
                        for operand in uop.operands:
                            if operand.mode == MODE_LOCAL:
                                producer = producers[operand.preg]
                                if (producer is not None
                                        and producer is not uop
                                        and producer.state
                                        != STATE_COMMITTED):
                                    producer.readers.append(uop)
                        event = (_EV_COMPLETE, uop, uop.generation)
                        if uop.is_store:
                            self._pending_store_addrs.discard(dyn.seq)
                            inflight = self._inflight_stores
                            addr_stores = inflight.get(dyn.mem_addr)
                            if addr_stores is None:
                                inflight[dyn.mem_addr] = [uop]
                            else:
                                addr_stores.append(uop)
                            operand = uop.operands[0]
                            mode = operand.mode
                            if mode == MODE_LOCAL:
                                data_ready = ready[operand.preg] <= cycle
                            elif mode == MODE_FWD:
                                data_ready = operand.ready_override <= cycle
                            else:
                                data_ready = True  # MODE_PRED / MODE_ZERO
                            if not data_ready:
                                # Address generated; park until the data
                                # value arrives (drained once per cycle).
                                self._stores_awaiting_data.append(uop)
                            else:
                                when = cycle + latency
                                queued = events.get(when)
                                if queued is None:
                                    events[when] = [event]
                                else:
                                    queued.append(event)
                        else:
                            dest = uop.dest_preg
                            if dest is not None:
                                regfile.set_ready(dest, cycle + latency)
                                producers[dest] = uop
                            when = cycle + latency
                            queued = events.get(when)
                            if queued is None:
                                events[when] = [event]
                            else:
                                queued.append(event)
                    elif kind == KIND_COPY:
                        if ((not free_copies
                             and (fupool.int_width_left() if int_side
                                  else fupool.fp_width_left()) <= 0)
                                or not interconnect.try_reserve(
                                    uop.dest_cluster, cycle1)):
                            if kept is not None:
                                kept.append(uop)
                            if cycle1 < bound:
                                bound = cycle1
                            continue
                        if not free_copies:
                            fupool.try_issue_copy(not int_side)
                        self._issue_copy(uop, cycle)
                    else:  # KIND_VCOPY
                        if not free_copies and fupool.int_width_left() <= 0:
                            if kept is not None:
                                kept.append(uop)
                            if cycle1 < bound:
                                bound = cycle1
                            continue
                        mismatch = not uop.consumer_operand.correct
                        if mismatch and not interconnect.try_reserve(
                                uop.consumer.cluster, cycle1):
                            if kept is not None:
                                kept.append(uop)
                            if cycle1 < bound:
                                bound = cycle1
                            continue
                        if not free_copies:
                            fupool.try_issue_copy(False)
                        self._issue_vcopy(uop, cycle, mismatch)
                    # Issued: drop from the queue.
                    if kept is None:
                        kept = entries[:i]
                if kept is not None:
                    queue._entries = kept
                if bound < queue.next_try:
                    queue.next_try = bound
        if leftover_int is None and leftover_fp is None:
            # Nothing capacity-stuck anywhere: NREADY contributes zero
            # regardless of idle capacities, so skip computing them.
            self.nready.record_idle()
            return
        zeros = [0] * config.n_clusters
        self.nready.record(
            leftover_int or zeros,
            self._idle_capacities(leftover_int, True, cycle) or zeros,
            leftover_fp or zeros,
            self._idle_capacities(leftover_fp, False, cycle) or zeros)

    def _idle_capacities(self, leftover: Optional[List[int]], int_side: bool,
                         cycle: int) -> Optional[List[int]]:
        """Per-cluster idle issue capacity of one side, for NREADY.

        NREADY only counts idle capacity in clusters where nothing was
        left stuck on that side, so only those are computed (the rest
        read 0); ``None`` when nothing was stuck on the side at all.
        """
        if leftover is None:
            return None
        idle = []
        for cluster, stuck in zip(self.clusters, leftover):
            if stuck:
                idle.append(0)
                continue
            fupool = cluster.fupool
            if fupool._cycle != cycle:
                fupool.begin_cycle(cycle)
            idle.append(fupool.idle_capacity(int_side))
        return idle

    def _mark_issued(self, uop: Uop, cycle: int) -> None:
        uop.state = STATE_ISSUED
        uop.issue_cycle = cycle
        self.stats.issued_uops += 1
        self.stats.issued_per_cluster[uop.cluster] += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.counts[EV_ISSUE] += 1
            tracer.emit((cycle, EV_ISSUE, uop.order, uop.kind,
                         uop.cluster, uop.reissue_count))
        # Register this uop with the producers of its local operands so
        # the selective-reissue walk can find it while it can still be
        # squashed.
        producers = self.clusters[uop.cluster].regfile.producer
        for operand in uop.operands:
            if operand.mode == MODE_LOCAL:
                producer = producers[operand.preg]
                if (producer is not None and producer is not uop
                        and producer.state != STATE_COMMITTED):
                    producer.readers.append(uop)

    def _issue_copy(self, uop: Uop, cycle: int) -> None:
        """A copy drives the interconnect the cycle after it issues."""
        self._mark_issued(uop, cycle)
        self.stats.communications += 1
        arrival = self.interconnect.arrival_cycle(cycle + 1)
        tracer = self._tracer
        if tracer is not None:
            tracer.counts[EV_COPY_SEND] += 1
            tracer.emit((cycle, EV_COPY_SEND, uop.order, uop.cluster,
                         uop.dest_cluster, arrival))
        remote = self.clusters[uop.dest_cluster].regfile
        remote.set_ready(uop.dest_preg, arrival)
        remote.producer[uop.dest_preg] = uop
        self._schedule(arrival, (_EV_COMPLETE, uop, uop.generation))

    def _issue_vcopy(self, uop: Uop, cycle: int, mismatch: bool) -> None:
        """Local compare; forward (and reissue the consumer) on mismatch."""
        self._mark_issued(uop, cycle)
        tracer = self._tracer
        if tracer is not None:
            tracer.counts[EV_VCOPY_VERIFY] += 1
            tracer.emit((cycle, EV_VCOPY_VERIFY, uop.order, uop.cluster,
                         not mismatch))
        if mismatch:
            self.stats.communications += 1
            self.stats.mismatch_forwards += 1
            arrival = self.interconnect.arrival_cycle(cycle + 1)
            self._schedule(arrival, (_EV_VDELIVER, uop, uop.generation))
        self._schedule(cycle + 1, (_EV_COMPLETE, uop, uop.generation))

    # ---------------------------------------------------------------- decode --

    def _decode(self, cycle: int) -> None:
        buffer = self.fetch._buffer
        decode_one = self._decode_one
        budget = self.config.decode_width
        decoded = 0
        while (decoded < budget and buffer
               and buffer[0].fetch_cycle < cycle):
            if not decode_one(buffer[0], cycle):
                break
            buffer.popleft()
            decoded += 1

    def _predict(self, dyn: DynInst) -> List[Optional[Tuple[bool, bool]]]:
        """Value predictions for *dyn*'s source slots, one entry each.

        An entry is ``None`` (no confident prediction) or ``(correct,
        injected)``; *injected* marks a prediction corrupted by the
        fault harness.  Each call advances the predictor, so the decode
        stage calls this once per instruction.
        """
        injector = self._injector
        srcs_fp = dyn.srcs_fp
        src_values = dyn.src_values
        predict_update = self.vp.predict_update
        pc = dyn.pc
        predictions: List[Optional[Tuple[bool, bool]]] = []
        for slot, logical in enumerate(dyn.srcs):
            if logical == ZERO_REG or srcs_fp[slot]:
                predictions.append(None)
                continue
            actual = src_values[slot]
            value, confident = predict_update(pc, slot, actual)
            if not confident:
                predictions.append(None)
                continue
            injected = False
            if injector is not None:
                corrupted = injector.corrupt_prediction(pc, slot, actual)
                if corrupted is not None:
                    value, injected = corrupted, True
            predictions.append((value == actual, injected))
        return predictions

    def _decode_one(self, fetched: FetchedInst, cycle: int) -> bool:
        """Steer, rename and dispatch one instruction; False on a stall.

        One pass over the source slots builds the steering views (none
        on one cluster unless the steerer reads them), a second builds
        the instruction's operands in the chosen cluster, and after the
        resource check dispatch finishes those same operands.  Nothing
        is mutated before the check passes, so a stalled instruction is
        steered afresh next cycle — except its value predictions, made
        once and kept on *fetched* so predictor state advances once per
        instruction.

        Operand forms (§2.1/§2.2): ``MODE_ZERO``; ``MODE_LOCAL`` with a
        local preg; ``MODE_PRED`` with a local preg (the producer
        verifies); and, for a source not mapped in the chosen cluster,
        ``MODE_PRED`` without a preg (a verification-copy verifies) or
        ``MODE_LOCAL`` without a preg (a copy supplies the replica at
        dispatch; a second read of the same register shares it).
        """
        stats = self.stats
        if len(self.rob) >= self._rob_size:
            # Any dispatch needs at least one ROB slot, whatever cluster
            # steering would pick: stall before paying for prediction
            # and steering work that cannot be used this cycle.
            stalls = stats.decode_stalls
            stalls["rob"] = stalls.get("rob", 0) + 1
            return False
        dyn = fetched.dyn
        srcs = dyn.srcs
        predictions = fetched.predictions
        if predictions is None:
            predictions = fetched.predictions = (
                self._predict(dyn) if self._vp_enabled
                else _NO_PREDICTIONS)
        map_rows = self._map_rows
        ready_arrays = self._ready_arrays
        views = None
        if self._scan_sources:
            # Steering views as plain tuples (SourceView's fields).  A
            # view's soonest cluster is also the source of any copy or
            # verification-copy of that slot.  A single-mapped operand
            # (the common case) needs no tournament.
            mapped_lists = self._mapped_lists
            mapped_sets = self._mapped_sets
            srcs_fp = dyn.srcs_fp
            views = []
            for slot, logical in enumerate(srcs):
                if logical == ZERO_REG:
                    views.append(_ZERO_VIEW)
                    continue
                mapped = mapped_lists[logical]
                row = map_rows[logical]
                if len(mapped) == 1:
                    best = mapped[0]
                    best_ready = ready_arrays[best][row[best]]
                else:
                    best = None
                    best_ready = NEVER + 1
                    for cid in mapped:
                        preg = row[cid]
                        ready = ready_arrays[cid][preg]
                        if ready < best_ready:
                            best_ready = ready
                            best = cid
                        elif ready == best_ready and ready >= NEVER:
                            # Tie between unscheduled producers: prefer
                            # the defining instruction's cluster over an
                            # unissued copy's target.
                            producer = self._producer_arrays[cid][preg]
                            if (producer is not None
                                    and producer.kind == KIND_INST):
                                best = cid
                views.append((logical, srcs_fp[slot], best_ready <= cycle,
                              mapped_sets[logical], best,
                              predictions[slot] is not None))
            cluster_id = self.steerer.choose(views, self.dcount, dyn.pc)
        else:
            cluster_id = self.steerer.choose((), self.dcount, dyn.pc)
        injector = self._injector
        if injector is not None:
            cluster_id = injector.flip_steering(
                cluster_id, self.config.n_clusters, dyn.pc)
        # The instruction's operands in the chosen cluster.
        ready = ready_arrays[cluster_id]
        operands: List[Operand] = []
        pending: Optional[List[Operand]] = None   # finished at dispatch
        copies: Optional[Dict[int, Operand]] = None  # logical -> 1st read
        helpers = 0                               # copies + vcopies
        for slot, logical in enumerate(srcs):
            if logical == ZERO_REG:
                operands.append(Operand(MODE_ZERO, None, True, slot))
                continue
            prediction = predictions[slot]
            preg = map_rows[logical][cluster_id]
            if preg is not None:
                if prediction is None or ready[preg] <= cycle:
                    operands.append(Operand(MODE_LOCAL, preg, True, slot))
                    continue
                # §2.2: source not yet available and confident ->
                # dispatch speculatively; the producer verifies.
                operand = Operand(MODE_PRED, preg, prediction[0], slot,
                                  prediction[1])
            elif copies is not None and logical in copies:
                # Same logical register twice: one copy serves both.
                operand = Operand(MODE_LOCAL, None, True, slot)
            elif prediction is not None:
                # §2.2 extension: operand not mapped here -> predict it
                # regardless of availability, verify with a vcopy.
                operand = Operand(MODE_PRED, None, prediction[0], slot,
                                  prediction[1])
                helpers += 1
            else:
                # Demand-generated copy (§2.1).
                operand = Operand(MODE_LOCAL, None, True, slot)
                helpers += 1
                if copies is None:
                    copies = {}
                copies[logical] = operand
            operands.append(operand)
            if pending is None:
                pending = [operand]
            else:
                pending.append(operand)
        dest = dyn.dest
        renames = dest is not None and dest != ZERO_REG
        clusters = self.clusters
        if helpers:
            stall = self._check_resources(dyn, cluster_id, helpers, pending,
                                          views, copies)
        elif (renames
              and not self._free_lists[cluster_id][dyn.dest_fp].available):
            stall = "pregs"
        else:
            cluster = clusters[cluster_id]
            queue = cluster.iq_int if dyn.is_int else cluster.iq_fp
            stall = "iq" if len(queue._entries) >= queue.capacity else None
        if stall is not None:
            stalls = stats.decode_stalls
            stalls[stall] = stalls.get(stall, 0) + 1
            return False

        # ---- dispatch ----
        min_issue = cycle + 1 + self.config.extra_rename_cycles
        uop = Uop(KIND_INST, dyn, 0, cluster_id, dyn.is_int, dyn.opclass,
                  operands)
        uop.min_issue_cycle = min_issue
        uop.mispredicted_branch = fetched.mispredicted
        helper_uops = None
        if pending is not None:
            for operand in pending:
                slot = operand.slot
                if operand.mode == MODE_PRED:
                    if operand.injected:
                        injector.note_value_injected(dyn.pc, slot)
                    stats.speculative_operands += 1
                    if not operand.correct:
                        stats.mispredicted_operands += 1
                    if self._oracle:
                        operand.verified = True
                        continue
                    uop.unverified += 1
                    if operand.preg is not None:
                        self._register_verification(cluster_id, operand.preg,
                                                    uop, operand, cycle)
                        continue
                    helper = self._make_vcopy(srcs[slot], views[slot][4], uop,
                                              operand, min_issue)
                else:
                    logical = srcs[slot]
                    first = copies[logical]
                    if first is not operand:
                        operand.preg = first.preg   # share the replica
                        continue
                    helper = self._make_copy(logical, views[slot][4],
                                             cluster_id, uop, operand,
                                             min_issue)
                if helper_uops is None:
                    helper_uops = [helper]
                else:
                    helper_uops.append(helper)
        # Destination rename (Figure 1).
        if renames:
            preg, uop.free_on_commit = self.renamer.define_dest(dest,
                                                                cluster_id)
            uop.dest_preg = preg
            uop.dest_cluster = cluster_id
            clusters[cluster_id].regfile.set_pending(preg, uop)
        # Helpers precede the instruction in dispatch (and ROB) order.
        # Issue-queue insertion is IssueQueue.dispatch() inlined: append
        # plus a next_try lower-bound update.
        tracer = self._tracer
        next_order = self._next_order
        rob_append = self.rob.append
        if helper_uops is not None:
            for helper in helper_uops:
                helper.order = next_order
                next_order += 1
                rob_append(helper)
                hcluster = clusters[helper.cluster]
                queue = hcluster.iq_int if helper.int_side else hcluster.iq_fp
                helper.iq = queue
                queue._entries.append(helper)
                if helper.min_issue_cycle < queue.next_try:
                    queue.next_try = helper.min_issue_cycle
                if tracer is not None:
                    tracer.counts[EV_DISPATCH] += 1
                    tracer.emit((cycle, EV_DISPATCH, helper.order,
                                 helper.kind, dyn.seq, dyn.pc, helper.cluster,
                                 dyn.op.name, fetched.fetch_cycle))
        uop.order = next_order
        self._next_order = next_order + 1
        rob_append(uop)
        cluster = clusters[cluster_id]
        queue = cluster.iq_int if uop.int_side else cluster.iq_fp
        uop.iq = queue
        queue._entries.append(uop)
        if min_issue < queue.next_try:
            queue.next_try = min_issue
        if tracer is not None:
            counts = tracer.counts
            emit = tracer.emit
            counts[EV_FETCH] += 1
            emit((fetched.fetch_cycle, EV_FETCH, dyn.seq, dyn.pc))
            counts[EV_STEER] += 1
            emit((cycle, EV_STEER, dyn.seq, cluster_id,
                  self.steerer.last_reason))
            counts[EV_DISPATCH] += 1
            emit((cycle, EV_DISPATCH, uop.order, KIND_INST, dyn.seq,
                  dyn.pc, cluster_id, dyn.op.name, fetched.fetch_cycle))
        if dyn.is_store:
            self._pending_store_addrs.add(dyn.seq)
        self.dcount.dispatch(cluster_id)
        stats.dispatched_insts += 1
        stats.dispatch_per_cluster[cluster_id] += 1
        return True

    def _check_resources(self, dyn: DynInst, cluster_id: int, helpers: int,
                         pending: List[Operand], views: List[tuple],
                         copies: Optional[Dict[int, Operand]]
                         ) -> Optional[str]:
        """Stall reason of an instruction needing copies or vcopies.

        Needs: a ROB entry per helper plus one; free registers in the
        consumer cluster for the destination and each copy's replica;
        issue-queue space for the instruction in its cluster and side,
        and for each helper in its source cluster (the operand view's
        soonest cluster) on the value's side.
        """
        if len(self.rob) + 1 + helpers > self._rob_size:
            return "rob"
        srcs = dyn.srcs
        clusters = self.clusters
        pregs_needed = [0, 0]
        if dyn.dest is not None and dyn.dest != ZERO_REG:
            pregs_needed[dyn.dest_fp] += 1
        own = clusters[cluster_id]
        queues = [own.iq_int if dyn.is_int else own.iq_fp]
        for operand in pending:
            if operand.preg is not None:
                continue                      # speculative local read
            slot = operand.slot
            source = clusters[views[slot][4]]
            if operand.mode == MODE_PRED:
                queues.append(source.iq_int)  # verification-copy
                continue
            logical = srcs[slot]
            if copies[logical] is not operand:
                continue                      # shares an earlier copy
            fp = is_fp_reg(logical)
            pregs_needed[fp] += 1
            queues.append(source.iq_fp if fp else source.iq_int)
        free = self._free_lists[cluster_id]
        for bank in (0, 1):
            if free[bank].available < pregs_needed[bank]:
                return "pregs"
        for queue in queues:
            if len(queue._entries) + queues.count(queue) > queue.capacity:
                return "iq"
        return None

    def _register_verification(self, cluster_id: int, preg: int,
                               consumer: Uop, operand: Operand,
                               cycle: int) -> None:
        """Attach a local prediction to its producer for writeback checks."""
        producer = self._producer_arrays[cluster_id][preg]
        if producer is None or producer.state == STATE_COMMITTED:
            # The value became architectural between the view and now;
            # the speculation trivially verifies against a final value.
            operand.verified = True
            consumer.unverified -= 1
            if not operand.correct:
                self._note_fault_detected(operand)
                operand.mode = MODE_LOCAL
            return
        producer.verify_list.append((consumer, operand))
        if producer.state == STATE_DONE:
            # Completed this very cycle before we registered: schedule
            # the verification ourselves.
            self._schedule(max(cycle + 1, producer.complete_cycle + 1),
                           (_EV_VERIFY, producer, producer.generation))

    def _make_copy(self, logical: int, src_cluster: int, dst_cluster: int,
                   consumer: Uop, operand: Operand, min_issue: int) -> Uop:
        """A copy of *logical* into a fresh replica in *dst_cluster*,
        which becomes *operand*'s register."""
        src_preg = self._map_rows[logical][src_cluster]
        replica = self.renamer.alloc_replica(logical, dst_cluster)
        operand.preg = replica
        copy = Uop(KIND_COPY, consumer.dyn, 0, src_cluster,
                   not is_fp_reg(logical), None,
                   [Operand(MODE_LOCAL, src_preg, True, operand.slot)])
        copy.min_issue_cycle = min_issue
        copy.dest_preg = replica
        copy.dest_cluster = dst_cluster
        self.clusters[dst_cluster].regfile.set_pending(replica, copy)
        self.stats.dispatched_copies += 1
        return copy

    def _make_vcopy(self, logical: int, src_cluster: int, consumer: Uop,
                    operand: Operand, min_issue: int) -> Uop:
        src_preg = self._map_rows[logical][src_cluster]
        vcopy = Uop(KIND_VCOPY, consumer.dyn, 0, src_cluster, True, None,
                    [Operand(MODE_LOCAL, src_preg, True, operand.slot)])
        vcopy.min_issue_cycle = min_issue
        vcopy.consumer = consumer
        vcopy.consumer_operand = operand
        self.stats.dispatched_vcopies += 1
        return vcopy
