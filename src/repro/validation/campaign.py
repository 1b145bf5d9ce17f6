"""Fault-injection campaign: N seeds x fault kinds, with a verdict.

A campaign proves the paper's safety property at scale: sweep every
fault kind over several seeds and workloads, run each cell under the
golden-model co-simulator, and report

* the **detection rate** of injected predicted-value corruptions
  (must be 100%: every corruption caught by a verification copy or the
  producer-side check),
* whether every cell **recovered** (golden co-simulation clean — the
  committed stream still matches the functional execution), and
* the **recovery penalty**: extra cycles per injected value fault,
  reported against the configured wire delay (a mismatch forward costs
  one inter-cluster transfer plus the reissue of the consumer's cone).

Failed cells are ledgered, never fatal — one bad (workload, seed)
combination must not abort the sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..obs.telemetry import active_monitor
from .faults import FAULT_VALUE, FaultPlan

__all__ = ["CampaignCell", "CampaignResult", "run_fault_campaign",
           "format_campaign"]

#: Default kinds a campaign sweeps (all of them).
DEFAULT_KINDS = ("value", "bus-delay", "bus-drop", "steer")


@dataclass
class CampaignCell:
    """One (workload, fault kind, seed) simulation under injection."""

    workload: str
    kind: str
    seed: int
    injected: int = 0
    detected: int = 0
    recovered: bool = False
    cycles: int = 0
    baseline_cycles: int = 0
    ipc: float = 0.0
    baseline_ipc: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.recovered

    @property
    def penalty_cycles_per_fault(self) -> float:
        """Extra cycles per injected fault relative to the clean run."""
        if not self.injected:
            return 0.0
        return (self.cycles - self.baseline_cycles) / self.injected


@dataclass
class CampaignResult:
    """All cells of one campaign plus the aggregate verdicts."""

    cells: List[CampaignCell] = field(default_factory=list)
    comm_latency: int = 1

    def value_cells(self) -> List[CampaignCell]:
        return [c for c in self.cells if c.kind == FAULT_VALUE]

    @property
    def detection_rate(self) -> float:
        """Detected / injected over every value-corruption cell."""
        injected = sum(c.injected for c in self.value_cells())
        if not injected:
            return 1.0
        return sum(c.detected for c in self.value_cells()) / injected

    @property
    def all_recovered(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> List[CampaignCell]:
        return [cell for cell in self.cells if not cell.ok]

    @property
    def mean_value_penalty(self) -> float:
        """Mean extra cycles per injected value fault across cells."""
        cells = [c for c in self.value_cells() if c.injected and c.ok]
        if not cells:
            return 0.0
        return (sum(c.penalty_cycles_per_fault for c in cells)
                / len(cells))


def _campaign_workload_block(payload: tuple) -> List[CampaignCell]:
    """All (kind, seed) cells of one workload — the campaign's unit of
    parallelism.

    Module-level (hence picklable) so :class:`~repro.analysis.parallel.
    WorkerPool` can fan workloads out across processes; each block
    rebuilds its trace from the explicit payload, never from inherited
    state, so parallel campaigns match serial ones cell for cell.
    """
    (name, kinds, seeds, length, n_clusters, predictor, steering,
     rate, comm_latency) = payload
    from ..core import make_config, simulate
    from ..workloads import workload_trace

    config = make_config(n_clusters, predictor=predictor, steering=steering,
                         comm_latency=comm_latency)
    trace = list(workload_trace(name, length or 6_000))
    baseline = simulate(trace, config, check=True)
    cells: List[CampaignCell] = []
    for kind in kinds:
        for seed in seeds:
            cell = CampaignCell(name, kind, seed,
                                baseline_cycles=baseline.stats.cycles,
                                baseline_ipc=baseline.ipc)
            cells.append(cell)
            plan = FaultPlan.single(kind, rate=rate, seed=seed)
            try:
                sim = simulate(trace, config, check=True,
                               fault_plan=plan)
            except SimulationError as exc:
                cell.error = f"{type(exc).__name__}: {exc}"
                continue
            report = sim.validation.get("fault_report")
            if report is not None:
                cell.injected = report.injected.get(kind, 0)
                cell.detected = report.detected_values
            cell.cycles = sim.stats.cycles
            cell.ipc = sim.ipc
            # Recovery = the run completed and the golden model
            # verified every commit without divergence.
            cell.recovered = True
    return cells


def _timed_workload_block(payload: tuple) -> Tuple[float, List[CampaignCell]]:
    """:func:`_campaign_workload_block` and the seconds it took, timed
    where it runs."""
    start = time.perf_counter()
    cells = _campaign_workload_block(payload)
    return time.perf_counter() - start, cells


def run_fault_campaign(workloads: Optional[Sequence[str]] = None,
                       seeds: Sequence[int] = (0, 1, 2),
                       kinds: Sequence[str] = DEFAULT_KINDS,
                       length: Optional[int] = None,
                       n_clusters: int = 4,
                       predictor: str = "stride",
                       steering: str = "vpb",
                       rate: float = 0.05,
                       comm_latency: int = 1,
                       jobs: Optional[int] = None) -> CampaignResult:
    """Sweep fault kinds x seeds x workloads under the co-simulator.

    Every cell runs with the golden model enabled; a cell "recovers"
    when the run completes and the committed stream verifies clean.
    Cells that raise are recorded with their error and the campaign
    continues.

    With ``jobs > 1`` (or inside a ``with WorkerPool(...)`` block) the
    per-workload blocks fan out across worker processes — each block is
    seeded and explicit, and blocks are folded in workload order, so
    the report is identical to a serial campaign's.

    When a sweep monitor is ambient
    (:func:`~repro.obs.telemetry.use_monitor`), the campaign reports
    one telemetry cell per workload block — ``sweep_done`` fires from
    a ``finally`` block, so an interrupted campaign still flushes its
    partial event log.
    """
    # Local import: the core simulator imports this package lazily and
    # vice versa; importing at call time breaks the cycle.
    from ..analysis.parallel import active_pool, dispatch, resolve_jobs
    from ..workloads import workload_names

    names = list(workloads) if workloads else workload_names()[:2]
    if jobs is None and active_pool() is not None:
        jobs = active_pool().jobs
    jobs = resolve_jobs(jobs)
    result = CampaignResult(comm_latency=comm_latency)
    payloads = [(name, tuple(kinds), tuple(seeds), length, n_clusters,
                 predictor, steering, rate, comm_latency)
                for name in names]
    monitor = active_monitor()
    if monitor is not None:
        monitor.sweep_start(
            "fault-campaign",
            [{"key": name, "workload": name, "n_clusters": n_clusters,
              "predictor": predictor, "steering": steering,
              "length": length or 6_000} for name in names],
            jobs=jobs, chunksize=1)
    blocks = []
    try:
        # One workload block per dispatch: blocks are coarse already.
        for index, (seconds, block) in dispatch(
                _timed_workload_block, payloads, jobs, chunksize=1,
                monitor=monitor):
            blocks.append(block)
            if monitor is not None:
                monitor.cell_done(index, seconds=seconds)
    finally:
        if monitor is not None:
            monitor.sweep_done()
    for block in blocks:
        result.cells.extend(block)
    return result


def format_campaign(result: CampaignResult) -> str:
    """Render the campaign as the robustness report."""
    lines = ["Fault-injection campaign — detection and recovery report",
             "=" * 60]
    header = (f"{'workload':<12} {'kind':<10} {'seed':>4} {'inj':>5} "
              f"{'det':>5} {'recovered':>9} {'ipc':>7} {'penalty':>8}")
    lines.append(header)
    lines.append("-" * len(header))
    for cell in result.cells:
        if cell.error is not None:
            lines.append(f"{cell.workload:<12} {cell.kind:<10} "
                         f"{cell.seed:>4} FAILED: {cell.error}")
            continue
        penalty = (f"{cell.penalty_cycles_per_fault:.2f}"
                   if cell.kind == FAULT_VALUE and cell.injected else "-")
        lines.append(f"{cell.workload:<12} {cell.kind:<10} {cell.seed:>4} "
                     f"{cell.injected:>5} "
                     f"{cell.detected if cell.kind == FAULT_VALUE else '-':>5} "
                     f"{'yes' if cell.recovered else 'NO':>9} "
                     f"{cell.ipc:>7.3f} {penalty:>8}")
    lines.append("-" * len(header))
    lines.append(f"value-corruption detection rate : "
                 f"{result.detection_rate:.1%}")
    lines.append(f"all cells recovered             : "
                 f"{'yes' if result.all_recovered else 'NO'}")
    lines.append(f"mean recovery penalty           : "
                 f"{result.mean_value_penalty:.2f} cycles/fault "
                 f"(configured wire delay: {result.comm_latency} "
                 f"cycle(s) per mismatch forward)")
    if result.failures:
        lines.append(f"FAILURES: {len(result.failures)} cell(s)")
    return "\n".join(lines)
