"""SimPoint/SMARTS-style interval sampling over the detailed model.

The detailed loop retires ~20k insts/s (PERFORMANCE.md); honest
million-instruction runs therefore cannot simulate every instruction
in detail.  This module stitches whole-run estimates out of short
detailed windows:

1. **Fast-forward** — the functional executor's compiled ``skip`` path
   advances architectural state (registers + memory) at several
   million insts/s, >100× detailed speed, without building
   :class:`DynInst` records.
2. **Functional warming** (``warm_predictors=True``, the default) —
   one set of value-predictor / branch-predictor / BTB / cache
   objects is shared by every sample window *and trained continuously
   during fast-forward* through the executor's compiled training
   hooks.  Each window therefore opens with the same predictor state
   an uninterrupted detailed run would have accumulated; slow-
   saturating structures (stride confidence counters need ~100k+
   instructions) are warm without paying detailed speed for the
   prefix.
3. **Warmup** — each window detail-simulates ``warmup`` instructions
   first and discards them, so cold rename/queue/in-flight state does
   not bias the measurement.
4. **Measurement** — ``interval`` further instructions run in detail;
   the per-window IPC is the cycle/instruction *delta* across that
   region only.

Windows are spread systematically, one per equal stratum of the run,
*centred* in each stratum: with ``samples=k`` over an
``n``-instruction run, window ``i`` starts at ``i * (n // k)`` plus
half the stratum's slack (or at explicit ``targets`` offsets).
Start-aligned placement would pin window 0 onto the program's
cold-start ramp and bias every estimate low.

The whole-run IPC estimate is the *harmonic* (cycle-weighted) mean of
the window IPCs — ``Σ measured_insts / Σ cycles`` — not the
arithmetic mean.  Full-run IPC is total instructions over total
cycles, and low-IPC program regions consume proportionally more
cycles; averaging window IPCs arithmetically over-weights fast
regions (a +9% bias on g721enc even with *every* disjoint window
measured), while the CPI-scale average recovers the exact full-run
figure when the windows tile the run.  The standard error is
therefore computed on the CPI scale and mapped back to IPC with the
delta method (``stderr_ipc ≈ ipc² · stderr_cpi``); the error
methodology is documented in docs/SAMPLING.md.

Fast-forward checkpoints (executor snapshots at canonical window
starts) can be shared through a
:class:`~repro.core.snapshot.CheckpointStore`: they are keyed by
workload identity × position — never by processor configuration — so
a sweep's many cells fast-forward each workload once.  Checkpoints
capture architectural state only; a ``warm_predictors`` run therefore
never *consumes* them (jumping over a region would skip its predictor
training), though it still publishes canonical positions for plain
consumers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import ProcessorConfig
from ..core.processor import Processor
from ..core.snapshot import CheckpointStore
from ..errors import ConfigError
from ..isa.executor import FunctionalExecutor
from ..isa.program import Program

__all__ = ["SamplingConfig", "SampleWindow", "SampledResult",
           "simulate_sampled"]


@dataclass(frozen=True)
class SamplingConfig:
    """How to sample a long run.

    Args:
        interval: detailed instructions *measured* per sample window.
        warmup: detailed instructions simulated and discarded before
            each measured region (must be < interval, ≥ 0).
        samples: number of windows, spread evenly over the run; or
        targets: explicit window start offsets (instruction indices),
            overriding the even spread.
        warm_predictors: train one shared set of predictor/BTB/cache
            objects continuously during fast-forward (and across
            windows), so every window opens with the state an
            uninterrupted run would have.  Costs ~4-6× plain
            fast-forward speed and forgoes checkpoint *reuse*; turning
            it off trades IPC accuracy for cross-configuration
            checkpoint sharing.
    """

    interval: int
    warmup: int = 0
    samples: Optional[int] = None
    targets: Optional[Tuple[int, ...]] = None
    warm_predictors: bool = True

    def validate(self) -> None:
        if self.interval < 1:
            raise ConfigError(f"sampling interval must be >= 1, got "
                              f"{self.interval}")
        if self.warmup < 0:
            raise ConfigError(f"sampling warmup must be >= 0, got "
                              f"{self.warmup}")
        if self.interval <= self.warmup:
            raise ConfigError(
                f"sampling interval ({self.interval}) must exceed the "
                f"warmup ({self.warmup}); the measured region would "
                f"otherwise be empty or biased")
        if (self.samples is None) == (self.targets is None):
            raise ConfigError("specify exactly one of samples= or "
                              "targets=")
        if self.samples is not None and self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if self.targets is not None:
            if not self.targets:
                raise ConfigError("targets must not be empty")
            if list(self.targets) != sorted(set(self.targets)):
                raise ConfigError("targets must be strictly increasing")
            if self.targets[0] < 0:
                raise ConfigError("targets must be >= 0")

    def canonical_dict(self) -> Dict[str, Any]:
        """Stable identity for cache keys and receipts."""
        return {
            "interval": self.interval,
            "warmup": self.warmup,
            "samples": self.samples,
            "targets": list(self.targets) if self.targets else None,
            "warm_predictors": self.warm_predictors,
        }

    def window_starts(self, total_insts: int) -> List[int]:
        """Canonical window start offsets for a *total_insts*-long run.

        One window per equal stratum, centred: the slack a stratum has
        beyond ``warmup + interval`` is split evenly before and after
        the window.  Centring keeps window 0 off the program's
        cold-start ramp (start-aligned placement biases the estimate
        low) while staying deterministic — per-stratum random offsets
        alias with loop phases on periodic workloads.
        """
        self.validate()
        if self.targets is not None:
            return [t for t in self.targets if t < total_insts]
        stride = total_insts // self.samples
        window = self.warmup + self.interval
        if stride < window:
            raise ConfigError(
                f"{self.samples} windows of warmup+interval="
                f"{window} insts do not fit in a "
                f"{total_insts}-instruction run; reduce samples or the "
                f"window size")
        offset = (stride - window) // 2
        return [i * stride + offset for i in range(self.samples)]


@dataclass
class SampleWindow:
    """One measured interval's raw numbers."""

    index: int
    start: int            # instruction offset the window began at
    warmup_insts: int
    measured_insts: int
    cycles: int
    ipc: float
    from_checkpoint: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index, "start": self.start,
            "warmup_insts": self.warmup_insts,
            "measured_insts": self.measured_insts,
            "cycles": self.cycles, "ipc": round(self.ipc, 6),
            "from_checkpoint": self.from_checkpoint,
        }


@dataclass
class SampledResult:
    """Whole-run estimates stitched from sample windows.

    ``ipc`` is the harmonic (cycle-weighted) mean of per-window IPCs,
    ``Σ measured_insts / Σ cycles`` — full-run IPC is a ratio of
    totals, and the CPI-scale average is the estimator that recovers
    it exactly when the windows tile the run (the arithmetic mean
    over-weights fast regions).  ``ipc_stderr`` is the CPI-scale
    standard error mapped to IPC with the delta method
    (``ipc² · stderr_cpi``); ``estimated_cycles`` the implied
    full-run cycle count (``total_insts / ipc``).
    ``effective_insts_per_second`` divides the *represented*
    instruction count by the wall-clock the sampled run actually
    spent — the headline number the ≥20× bar is measured on.
    """

    workload: str
    config: ProcessorConfig
    sampling: SamplingConfig
    total_insts: int
    windows: List[SampleWindow] = field(default_factory=list)
    detailed_insts: int = 0
    ff_insts: int = 0
    wall_seconds: float = 0.0
    checkpoints: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------ estimates --

    @property
    def ipc(self) -> float:
        cycles = sum(w.cycles for w in self.windows)
        if cycles <= 0:
            return 0.0
        return sum(w.measured_insts for w in self.windows) / cycles

    @property
    def _cpi_std(self) -> float:
        """Sample standard deviation of the per-window CPIs."""
        n = len(self.windows)
        if n < 2:
            return 0.0
        cpis = [w.cycles / w.measured_insts for w in self.windows]
        mean = sum(cpis) / n
        var = sum((c - mean) ** 2 for c in cpis) / (n - 1)
        return math.sqrt(var)

    @property
    def ipc_std(self) -> float:
        """Window-to-window IPC spread (delta method from CPI scale)."""
        return self.ipc ** 2 * self._cpi_std

    @property
    def ipc_stderr(self) -> float:
        n = len(self.windows)
        if n < 2:
            return 0.0
        return self.ipc_std / math.sqrt(n)

    @property
    def ipc_ci95(self) -> float:
        """Half-width of the ~95% confidence interval on the mean IPC."""
        return 1.96 * self.ipc_stderr

    @property
    def estimated_cycles(self) -> int:
        ipc = self.ipc
        if ipc <= 0:
            return 0
        return round(self.total_insts / ipc)

    @property
    def effective_insts_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_insts / self.wall_seconds

    # ---------------------------------------------------------------- views --

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "sampled",
            "workload": self.workload,
            "config": self.config.canonical_dict(),
            "sampling": self.sampling.canonical_dict(),
            "total_insts": self.total_insts,
            "ipc": round(self.ipc, 6),
            "ipc_std": round(self.ipc_std, 6),
            "ipc_stderr": round(self.ipc_stderr, 6),
            "ipc_ci95": round(self.ipc_ci95, 6),
            "estimated_cycles": self.estimated_cycles,
            "detailed_insts": self.detailed_insts,
            "ff_insts": self.ff_insts,
            "wall_seconds": round(self.wall_seconds, 6),
            "effective_insts_per_second":
                round(self.effective_insts_per_second, 3),
            "windows": [w.to_dict() for w in self.windows],
            "checkpoints": self.checkpoints,
        }

    def summary(self) -> str:
        ci = self.ipc_ci95
        lines = [
            f"sampled run: {self.workload}, {self.total_insts} insts "
            f"represented by {len(self.windows)} windows",
            f"  IPC {self.ipc:.4f} ± {ci:.4f} (95% CI), "
            f"stderr {self.ipc_stderr:.4f}",
            f"  estimated cycles {self.estimated_cycles}",
            f"  detailed {self.detailed_insts} + fast-forward "
            f"{self.ff_insts} insts in {self.wall_seconds:.2f}s "
            f"({self.effective_insts_per_second:,.0f} effective insts/s)",
        ]
        if self.checkpoints:
            lines.append(f"  checkpoints: {self.checkpoints}")
        return "\n".join(lines)


# ------------------------------------------------------- functional warming --

class _WarmState:
    """Predictor/cache state shared by every window of one sampled run.

    One value predictor, direction predictor, BTB, and memory
    hierarchy are built from the processor configuration, trained
    continuously during fast-forward (through the executor's compiled
    hooks) and handed to each window's processor when it is built
    (``Processor(..., warm=state)``), so no window builds cold ones.
    The stream these components observe — fast-forward training
    between windows, real front-end/decode traffic inside them — is
    the same committed instruction stream an uninterrupted detailed run
    would have shown them, so each window opens with faithfully warmed
    microarchitectural state.
    """

    def __init__(self, config: ProcessorConfig) -> None:
        from ..core.processor import _build_predictor
        from ..frontend import BranchTargetBuffer, CombinedPredictor
        from ..memory import MemoryHierarchy
        self.vp = _build_predictor(config)
        self.bpred = CombinedPredictor()
        self.btb = (BranchTargetBuffer(config.btb_entries)
                    if config.btb_entries else None)
        self.memory = MemoryHierarchy(dcache_ports=config.dcache_ports)

    def install_hooks(self, executor: FunctionalExecutor) -> None:
        """Train this state during the executor's fast-forward."""
        executor.set_train_hooks(
            value=self.vp.update, branch=self.bpred.update,
            target=self.btb.update if self.btb is not None else None,
            mem=self.memory.data_latency,
            code=self.memory.fetch_latency,
            value_factory=getattr(self.vp, "trainer", None),
            branch_factory=getattr(self.bpred, "trainer", None))


def _seeded_golden(executor: FunctionalExecutor, config: ProcessorConfig):
    """A golden co-simulator initialized to the window-start state.

    The functional executor's registers *are* the golden architectural
    state at its cursor, so a mid-stream detailed window can still be
    co-simulated exactly.
    """
    from ..validation.golden import GoldenModel
    golden = GoldenModel(interval=config.golden_interval)
    golden.int_regs = list(executor.int_regs)
    golden.fp_regs = list(executor.fp_regs)
    golden._expected_seq = executor.seq
    return golden


# ------------------------------------------------------------ the sampler --

def simulate_sampled(workload, config: ProcessorConfig,
                     sampling: SamplingConfig,
                     max_instructions: int = 1_000_000,
                     checkpoints=None,
                     check: bool = False,
                     workload_name: Optional[str] = None,
                     dataset: str = "test", seed: int = 0,
                     monitor=None) -> SampledResult:
    """Estimate a full run of *workload* from sampled detailed windows.

    *workload* must be a :class:`Program` (sampling rides the
    functional executor; a pre-materialized trace would defeat the
    point).  *checkpoints* is a
    :class:`~repro.core.snapshot.CheckpointStore` or a directory path;
    canonical window-start executor states are resolved from / added
    to it, keyed by workload identity and position so any processor
    configuration shares them.  With *check* each detailed window is
    co-simulated against a golden model seeded from the functional
    state at the window start.  *monitor* (a
    :class:`~repro.obs.telemetry.SweepMonitor`) receives one
    ``sample_window`` event per measured interval.
    """
    if not isinstance(workload, Program):
        raise ConfigError(
            "sampled simulation needs a Program workload (got "
            f"{type(workload).__name__}); build one with "
            "repro.workloads.build_workload")
    sampling.validate()
    config.validate()
    if isinstance(checkpoints, (str, bytes)) or hasattr(checkpoints,
                                                        "__fspath__"):
        checkpoints = CheckpointStore(checkpoints)
    name = workload_name or "program"
    started = time.perf_counter()

    executor = FunctionalExecutor(workload, max_instructions)
    warm = _WarmState(config) if sampling.warm_predictors else None
    if warm is not None:
        warm.install_hooks(executor)
    starts = sampling.window_starts(max_instructions)
    windows: List[SampleWindow] = []
    detailed = 0
    ff_total = 0

    for index, start in enumerate(starts):
        from_checkpoint = False
        if executor.seq > start:
            # The previous window's fetch overshoot ran past this
            # window's canonical start; begin where we are.  (The
            # window config validation makes this rare.)
            start = executor.seq
        else:
            ckpt_key = None
            if checkpoints is not None and start > executor.seq:
                ckpt_key = CheckpointStore.key_for(
                    name, start, dataset=dataset, seed=seed,
                    max_instructions=max_instructions)
                if warm is None:
                    # A checkpoint jump would skip the region's
                    # predictor training, so warmed runs only publish.
                    cached = checkpoints.load(ckpt_key)
                    if cached is not None:
                        executor = cached
                        from_checkpoint = True
            ff = executor.skip(start - executor.seq)
            ff_total += ff
            if ckpt_key is not None and not from_checkpoint \
                    and executor.seq == start:
                checkpoints.store(ckpt_key, executor,
                                  extra={"workload": name,
                                         "position": executor.seq})
        if executor.halted or executor.seq >= max_instructions:
            break

        golden = _seeded_golden(executor, config) if check else None
        processor = Processor(config, executor.run(), golden=golden,
                              warm=warm)
        processor.trace_executor = executor

        base_insts = processor.stats.committed_insts
        processor.run_until(max_insts=sampling.warmup)
        warm_done = processor.stats.committed_insts - base_insts
        cyc0 = processor.cycle
        ins0 = processor.stats.committed_insts
        processor.run_until(max_insts=sampling.warmup + sampling.interval)
        if golden is not None:
            golden.finish(processor.cycle)
        cycles = processor.cycle - cyc0
        measured = processor.stats.committed_insts - ins0
        detailed += processor.stats.committed_insts
        if measured == 0 or cycles == 0:
            break  # trace drained inside the warmup; nothing measured
        window = SampleWindow(index=index, start=start,
                              warmup_insts=warm_done,
                              measured_insts=measured, cycles=cycles,
                              ipc=measured / cycles,
                              from_checkpoint=from_checkpoint)
        windows.append(window)
        if monitor is not None:
            monitor.emit("sample_window", workload=name, index=index,
                         start=start, measured=measured, cycles=cycles,
                         ipc=round(window.ipc, 6))

    if not windows:
        raise ConfigError(
            f"sampling produced no measurable windows for {name!r}: the "
            f"trace drained before the first interval completed — "
            f"shorten warmup/interval or sample a longer run")

    # The run the estimate *represents* ends where execution ends: the
    # cap, or wherever the program halted.
    total = min(max_instructions,
                executor.seq if executor.halted else max_instructions)
    result = SampledResult(
        workload=name, config=config, sampling=sampling,
        total_insts=total, windows=windows, detailed_insts=detailed,
        ff_insts=ff_total,
        wall_seconds=time.perf_counter() - started,
        checkpoints=checkpoints.stats() if checkpoints is not None
        else None)
    return result
