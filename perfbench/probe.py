"""Per-layer measurement for traced runs, taken from outside the program.

A :class:`Probe` wraps public entry points of each layer for the
duration of one traced batch and restores them afterwards; nothing
under ``src/`` knows it exists.  What it records, and where:

* ``isa``        — ``FunctionalExecutor.run`` (trace generation, timed
  per yielded instruction) and ``FunctionalExecutor.skip``
  (fast-forward).
* ``core``       — every ``Processor`` gets a ``PhaseProfiler`` (the
  program's own host-time attribution) and its ``SimStats`` are summed.
* ``snapshot``   — ``CheckpointStore.store``.
* ``validation`` — ``GoldenModel._replay``, the golden model's batch
  replay (the only place it spends time).
* ``parallel``   — ``SweepMonitor`` timestamps, through an ambient
  monitor for the batch.

Campaign blocks run in forked worker processes, which inherit the
wrapped functions.  Each block's worker writes its counters to a spool
file when the block ends; the parent folds the spool into its own
counters when the batch ends.  All host times are seconds summed over
processes, so on a parallel workload they are CPU time, not wall time.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import statistics
import time
from collections import Counter
from typing import Dict, List, Optional

from repro.core import processor as processor_module
from repro.core.snapshot import CheckpointStore
from repro.isa.executor import FunctionalExecutor
from repro.obs.profiler import PHASES, PhaseProfiler
from repro.obs.telemetry import SweepMonitor, use_monitor
from repro.validation import campaign as campaign_module
from repro.validation.golden import GoldenModel

__all__ = ["Probe", "layer_metrics", "monitor_timings"]


class Probe:
    """Context manager: wraps the layer entry points, counts into
    :attr:`counts` and keeps per-run core times in :attr:`cell_seconds`.
    """

    def __init__(self, spool: pathlib.Path) -> None:
        self.spool = spool
        self.pid = os.getpid()
        self.counts: Counter = Counter()
        self.cell_seconds: List[float] = []
        self.monitor = SweepMonitor()
        self._live: list = []
        self._bpred = self._memory = None
        self._saved: list = []
        self._monitor_ctx = None

    # ------------------------------------------------------------ patching --

    def _patch(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def __enter__(self) -> "Probe":
        counts = self.counts
        clock = time.perf_counter
        run, skip = FunctionalExecutor.run, FunctionalExecutor.skip
        store, replay = CheckpointStore.store, GoldenModel._replay
        init = processor_module.Processor.__init__
        block = campaign_module._campaign_workload_block
        probe = self

        def timed_run(executor):
            # Counted per instruction: sampled windows abandon the stream
            # part-way, so nothing may wait for the generator to close.
            stream = run(executor)
            while True:
                start = clock()
                try:
                    inst = next(stream)
                except StopIteration:
                    return
                finally:
                    counts["trace_gen_s"] += clock() - start
                counts["trace_gen_insts"] += 1
                yield inst

        def timed_skip(executor, count):
            start = clock()
            done = skip(executor, count)
            counts["fast_forward_s"] += clock() - start
            counts["fast_forward_insts"] += done
            return done

        def timed_store(checkpoints, key, executor, extra=None):
            start = clock()
            path = store(checkpoints, key, executor, extra=extra)
            counts["store_s"] += clock() - start
            return path

        def timed_replay(golden):
            start = clock()
            try:
                return replay(golden)
            finally:
                counts["golden_s"] += clock() - start

        def profiled_init(processor, config, trace, **kwargs):
            if kwargs.get("profiler") is None:
                kwargs["profiler"] = PhaseProfiler()
            init(processor, config, trace, **kwargs)
            # Serial callers finish one machine before building the next,
            # so everything already registered is done: fold it now and
            # keep at most one machine alive.
            probe.harvest()
            probe._live.append(processor)

        @functools.wraps(block)
        def spooled_block(payload):
            in_worker = os.getpid() != probe.pid
            if in_worker:
                probe.reset()
            cells = block(payload)
            if in_worker:
                probe.dump(payload[0])
            return cells

        self._patch(FunctionalExecutor, "run", timed_run)
        self._patch(FunctionalExecutor, "skip", timed_skip)
        self._patch(CheckpointStore, "store", timed_store)
        self._patch(GoldenModel, "_replay", timed_replay)
        self._patch(processor_module.Processor, "__init__", profiled_init)
        self._patch(campaign_module, "_campaign_workload_block",
                    spooled_block)
        self._monitor_ctx = use_monitor(self.monitor)
        self._monitor_ctx.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._monitor_ctx.__exit__(*exc)
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        self.harvest()
        self._fold_shared()
        self.collect()

    # ------------------------------------------------------------ counters --

    def reset(self) -> None:
        """Forget state inherited from the parent at fork time."""
        self.counts.clear()
        self.cell_seconds.clear()
        self._live.clear()
        self._bpred = self._memory = None

    def harvest(self) -> None:
        """Fold every registered machine into the counters."""
        counts = self.counts
        for processor in self._live:
            profiler = processor.profiler
            for phase in PHASES:
                counts[f"phase_{phase}_s"] += profiler.seconds[phase]
            counts["core_s"] += profiler.total_seconds
            self.cell_seconds.append(profiler.total_seconds)
            stats = processor.stats
            counts["cycles"] += processor.cycle
            counts["committed"] += stats.committed_insts
            counts["issued_uops"] += stats.issued_uops
            counts["decode_stalls"] += sum(stats.decode_stalls.values())
            counts["communications"] += stats.communications
            counts["copies"] += stats.dispatched_copies
            counts["speculative"] += stats.speculative_operands
            counts["mispredicted"] += stats.mispredicted_operands
            counts["nready_total"] += processor.nready.total
            counts["nready_cycles"] += processor.nready.cycles
            # The windows of one sampled run share a warmed branch
            # predictor and memory hierarchy whose counters keep growing
            # until the run ends, so each is read once, when the next
            # machine stops using it.
            if processor.bpred is not self._bpred:
                self._fold_shared()
                self._bpred = processor.bpred
                self._memory = processor.memory
        self._live.clear()

    def _fold_shared(self) -> None:
        if self._bpred is None:
            return
        counts = self.counts
        counts["branches"] += self._bpred.stats.lookups
        counts["branch_misses"] += self._bpred.stats.mispredictions
        counts["l1d_accesses"] += self._memory.l1d.stats.accesses
        counts["l1d_misses"] += self._memory.l1d.stats.misses
        self._bpred = self._memory = None

    def dump(self, tag: str) -> None:
        """Write this worker's counters for one block to the spool."""
        self.harvest()
        self._fold_shared()
        path = self.spool / f"{os.getpid()}-{tag}.json"
        path.write_text(json.dumps({"counts": dict(self.counts),
                                    "cell_seconds": self.cell_seconds}))
        self.reset()

    def collect(self) -> None:
        """Fold every spooled worker record into the parent's counters."""
        for path in sorted(self.spool.glob("*.json")):
            record = json.loads(path.read_text())
            self.counts.update(record["counts"])
            self.cell_seconds.extend(record["cell_seconds"])
            path.unlink()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def monitor_timings(monitor: SweepMonitor) -> Dict[str, float]:
    """First-result latency and tail of the batch's sweeps.

    ``tail_gap_s`` runs from the second-to-last result to the end of the
    sweep: the straggler plus any worker teardown.  (A parallel sweep
    hands results back in submission order, so the gap between the last
    two results alone can read zero.)
    """
    first = tail = 0.0
    start: Optional[float] = None
    done: List[float] = []
    for event in monitor.events:
        if event["event"] == "sweep_start":
            start, done = event["t"], []
        elif event["event"] == "cell_done" and start is not None:
            done.append(event["t"])
        elif event["event"] == "sweep_done" and done:
            first += done[0] - start
            tail += event["t"] - (done[-2] if len(done) > 1 else start)
    return {"parallel.first_result_s": first, "parallel.tail_gap_s": tail}


def layer_metrics(probe: Probe) -> Dict[str, float]:
    """The per-layer metrics one traced batch produced."""
    c = probe.counts
    metrics = {f"core.{phase}_s": c[f"phase_{phase}_s"]
               for phase in PHASES}
    metrics.update({
        "core.detailed_insts_per_s": _ratio(c["committed"], c["core_s"]),
        "core.cell_s_p50": (statistics.median(probe.cell_seconds)
                            if probe.cell_seconds else 0.0),
        "core.cycles": c["cycles"],
        "core.committed_insts": c["committed"],
        "core.uops_per_inst": _ratio(c["issued_uops"], c["committed"]),
        "core.decode_stall_cycles": c["decode_stalls"],
        "isa.trace_gen_s": c["trace_gen_s"],
        "isa.trace_gen_insts_per_s": _ratio(c["trace_gen_insts"],
                                            c["trace_gen_s"]),
        "isa.fast_forward_s": c["fast_forward_s"],
        "isa.fast_forward_insts_per_s": _ratio(c["fast_forward_insts"],
                                               c["fast_forward_s"]),
        "snapshot.store_s": c["store_s"],
        "validation.golden_s": c["golden_s"],
        "predictor.vp_accuracy": 1.0 - _ratio(c["mispredicted"],
                                              c["speculative"]),
        "interconnect.comm_per_inst": _ratio(c["communications"],
                                             c["committed"]),
        "rename.copies_per_inst": _ratio(c["copies"], c["committed"]),
        "steering.avg_imbalance": _ratio(c["nready_total"],
                                         c["nready_cycles"]),
        "frontend.branch_mispredict_rate": _ratio(c["branch_misses"],
                                                  c["branches"]),
        "memory.l1d_miss_rate": _ratio(c["l1d_misses"],
                                       c["l1d_accesses"]),
    })
    metrics.update(monitor_timings(probe.monitor))
    return metrics
