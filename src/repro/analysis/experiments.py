"""Experiment drivers: one function per table/figure of the paper.

Every driver returns a plain-data result object that the report module
renders and the benchmarks print; EXPERIMENTS.md records the outputs
against the paper's numbers.

Each driver decomposes its sweep into independent
:class:`~repro.analysis.parallel.SweepCell` descriptions and hands the
whole list to :func:`~repro.analysis.parallel.run_cells`, so any sweep
can fan out across worker processes via the ``jobs=`` argument (or the
``REPRO_JOBS`` environment variable) while staying metric-identical to
the serial path.

Environment knobs (validated once at sweep setup, never read inside
worker processes):

* ``REPRO_TRACE_LEN`` — dynamic instructions per benchmark (default
  12000; the paper ran Mediabench to completion on a C simulator, a
  Python model uses reduced steady-state runs).
* ``REPRO_WORKLOADS`` — comma-separated subset of the suite.
* ``REPRO_JOBS`` — sweep worker processes (default 1 = serial;
  0 = all cores).
* ``REPRO_CACHE`` — opt-in content-addressed result cache directory
  (see :mod:`repro.analysis.cache`).

Several drivers in one session should share a
:class:`~repro.analysis.parallel.WorkerPool` (``with WorkerPool(jobs):``)
so worker startup is paid once, not per figure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import SimResult
from ..errors import WorkloadError
from ..workloads import workload_names, workload_trace
from .metrics import mean, pct_change
from .parallel import (SweepCell, _execute_cell, resolve_trace_length,
                       run_cells, simulate_sweep_cell)

__all__ = [
    "trace_length", "selected_workloads", "run_one",
    "LedgerEntry", "ErrorLedger", "run_one_safe",
    "GracefulSweepResult", "run_graceful_sweep",
    "Figure2Result", "run_figure2",
    "Figure3Result", "run_figure3",
    "Figure4Result", "run_figure4_latency", "run_figure4_bandwidth",
    "Figure5Result", "run_figure5",
    "AblationResult", "run_ablation_modified", "run_ablation_rename2",
    "run_ablation_predictor", "run_ablation_free_copies",
    "run_predictor_comparison", "run_ablation_static",
    "ScalingResult", "run_scaling", "run_robustness",
    "HeadlineResult", "run_headline",
]


def trace_length(default: int = 12_000) -> int:
    """Dynamic trace length, overridable via ``REPRO_TRACE_LEN``.

    A malformed or non-positive override raises
    :class:`~repro.errors.ConfigError` (not a bare ``ValueError``), so
    sweeps fail at setup with an actionable message instead of deep
    inside a driver loop.
    """
    return resolve_trace_length(None, default=default)


def selected_workloads() -> List[str]:
    """Suite subset, overridable via ``REPRO_WORKLOADS``."""
    env = os.environ.get("REPRO_WORKLOADS")
    if not env:
        return workload_names()
    names = [name.strip() for name in env.split(",") if name.strip()]
    known = set(workload_names())
    unknown = [name for name in names if name not in known]
    if unknown:
        raise WorkloadError(
            f"unknown workloads in REPRO_WORKLOADS: {unknown}")
    return names


def run_one(workload: str, n_clusters: int, predictor: str = "none",
            steering: str = "baseline", length: Optional[int] = None,
            seed: int = 0, **overrides) -> SimResult:
    """Simulate one (workload, configuration) cell."""
    return simulate_sweep_cell(_one_cell(workload, n_clusters, predictor,
                                         steering, length, seed,
                                         overrides))


def _one_cell(workload: str, n_clusters: int, predictor: str,
              steering: str, length: Optional[int], seed: int,
              overrides: dict) -> SweepCell:
    return SweepCell(key=None, workload=workload, n_clusters=n_clusters,
                     predictor=predictor, steering=steering,
                     length=resolve_trace_length(length), seed=seed,
                     overrides=SweepCell.pack_overrides(overrides))


def _cells_for(names: Sequence[str], specs: Sequence[tuple],
               length: int) -> List[SweepCell]:
    """Cross *names* with (n_clusters, predictor, steering, overrides)
    tuples into cells keyed ``(name,) + spec[:3]``-style by the caller.

    *specs* entries are ``(key_suffix, n_clusters, predictor, steering,
    overrides_dict)``; the cell key becomes ``(name, key_suffix)``.
    """
    cells: List[SweepCell] = []
    for name in names:
        for key_suffix, n_clusters, predictor, steering, overrides in specs:
            cells.append(SweepCell(
                key=(name, key_suffix), workload=name,
                n_clusters=n_clusters, predictor=predictor,
                steering=steering, length=length,
                overrides=SweepCell.pack_overrides(overrides)))
    return cells


# --------------------------------------------------- graceful degradation --

@dataclass
class LedgerEntry:
    """One failed simulation attempt inside a sweep."""

    workload: str
    config: str
    attempt: int
    error_type: str
    message: str

    def render(self) -> str:
        return (f"{self.workload} [{self.config}] attempt {self.attempt}: "
                f"{self.error_type}: {self.message}")


@dataclass
class ErrorLedger:
    """Failures collected by a sweep that refused to abort.

    A multi-hour sweep must not lose every finished cell to one bad
    (workload, configuration) pair, but it must not lose the *failure*
    either — each one lands here with enough context to replay it.
    """

    entries: List[LedgerEntry] = field(default_factory=list)

    def record_failure(self, workload: str, config: str, attempt: int,
                       error_type: str, message: str) -> None:
        """Record a failure from its already-flattened description.

        Worker processes report failures as (type name, message) pairs —
        exception objects do not survive pickling reliably — so this is
        the form every runner records.
        """
        self.entries.append(LedgerEntry(
            workload, config, attempt, error_type, message))

    @property
    def failed_cells(self) -> List[Tuple[str, str]]:
        """Distinct (workload, config) pairs that never succeeded."""
        seen: List[Tuple[str, str]] = []
        for entry in self.entries:
            key = (entry.workload, entry.config)
            if key not in seen:
                seen.append(key)
        return seen

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def render(self) -> str:
        if not self.entries:
            return "error ledger: clean (no failures)"
        lines = [f"error ledger: {len(self.entries)} failed attempt(s)"]
        lines += [f"  {entry.render()}" for entry in self.entries]
        return "\n".join(lines)


def run_one_safe(workload: str, n_clusters: int, predictor: str = "none",
                 steering: str = "baseline", length: Optional[int] = None,
                 ledger: Optional[ErrorLedger] = None, retries: int = 1,
                 **overrides) -> Optional[SimResult]:
    """:func:`run_one` that degrades gracefully instead of aborting.

    A cell failing with a *transient* error is retried up to *retries*
    more times (an injected-fault run tripping a watchdog, a flaky
    harness — these can pass on replay); a cell failing with a
    *deterministic* error (bad config, unknown workload, divergence,
    deadlock — see
    :data:`~repro.analysis.parallel.DETERMINISTIC_ERRORS`) is ledgered
    immediately, because the simulator is deterministic and the replay
    would fail identically, doubling the cost of the slowest failures.
    Every failed attempt is recorded in *ledger*.  Returns ``None``
    when no attempt succeeded.
    """
    cell = _one_cell(workload, n_clusters, predictor, steering, length, 0,
                     overrides)
    outcome = _execute_cell(cell, retries)
    if ledger is not None:
        for failure in outcome.failures:
            ledger.record_failure(workload, cell.config_label,
                                  failure.attempt, failure.error_type,
                                  failure.message)
    return outcome.result


@dataclass
class GracefulSweepResult:
    """Completed cells plus the ledger of the ones that failed."""

    ipc: Dict[Tuple[str, str], float] = field(default_factory=dict)
    ledger: ErrorLedger = field(default_factory=ErrorLedger)

    @property
    def completed(self) -> int:
        return len(self.ipc)


def run_graceful_sweep(workloads: Sequence[str] = None,
                       configs: Sequence[Tuple[int, str, str]] = (
                           (4, "none", "baseline"), (4, "stride", "vpb")),
                       length: Optional[int] = None,
                       retries: int = 1,
                       jobs: Optional[int] = None) -> GracefulSweepResult:
    """Sweep (workload x config) cells, never aborting on a bad cell.

    The robustness harness's answer to a poisoned workload or a
    pathological configuration: every healthy cell still produces its
    IPC, and every failure is in ``result.ledger``.  With ``jobs > 1``
    the cells fan out across worker processes; ledger entries and
    results are collected in cell order on both paths, so the outcome
    is identical regardless of worker count.
    """
    length = resolve_trace_length(length)
    names = list(workloads or selected_workloads())
    cells = [SweepCell(key=(name, f"{n}cl/{predictor}/{steering}"),
                       workload=name, n_clusters=n, predictor=predictor,
                       steering=steering, length=length)
             for name in names for n, predictor, steering in configs]
    result = GracefulSweepResult()
    sims = run_cells(cells, jobs=jobs, ledger=result.ledger,
                     retries=retries, label="graceful-sweep")
    result.ipc = {key: sim.ipc for key, sim in sims.items()}
    return result


# --------------------------------------------------------------- Figure 2 --

class Figure2Result:
    """IPC of 1/2/4 clusters with and without value prediction (Fig. 2).

    ``ipc[benchmark][(n_clusters, predict)]`` plus suite averages.
    """

    CONFIGS: List[Tuple[int, bool]] = [
        (1, False), (1, True), (2, False), (2, True), (4, False), (4, True)]

    def __init__(self) -> None:
        self.ipc: Dict[str, Dict[Tuple[int, bool], float]] = {}

    def average(self, key: Tuple[int, bool]) -> float:
        return mean(row[key] for row in self.ipc.values())

    def prediction_gain_pct(self, n_clusters: int) -> float:
        """Average IPC gain of value prediction at a cluster count."""
        return pct_change(self.average((n_clusters, False)),
                          self.average((n_clusters, True)))


def run_figure2(workloads: Sequence[str] = None,
                length: Optional[int] = None,
                jobs: Optional[int] = None) -> Figure2Result:
    """IPC for the 6 configurations of Figure 2, per benchmark."""
    names = list(workloads or selected_workloads())
    length = resolve_trace_length(length)
    specs = [((n_clusters, predict), n_clusters,
              "stride" if predict else "none", "baseline", {})
             for n_clusters, predict in Figure2Result.CONFIGS]
    sims = run_cells(_cells_for(names, specs, length), jobs=jobs,
                     label="figure2")
    result = Figure2Result()
    for name in names:
        result.ipc[name] = {config: sims[(name, config)].ipc
                            for config in Figure2Result.CONFIGS}
    return result


# --------------------------------------------------------------- Figure 3 --

#: The four schemes compared in Figure 3, in bar order.
FIGURE3_SCHEMES = [
    ("baseline-nopredict", "none", "baseline"),
    ("baseline-predict", "stride", "baseline"),
    ("vpb-predict", "stride", "vpb"),
    ("vpb-perfect", "perfect", "vpb"),
]


class Figure3Result:
    """Workload imbalance, communications/instruction and IPCR (Fig. 3).

    Indexed ``metric[n_clusters][scheme]`` with per-benchmark detail in
    ``per_benchmark``.
    """

    def __init__(self) -> None:
        self.imbalance: Dict[int, Dict[str, float]] = {}
        self.comm: Dict[int, Dict[str, float]] = {}
        self.ipcr: Dict[int, Dict[str, float]] = {}
        self.per_benchmark: Dict[Tuple[int, str, str], Dict[str, float]] = {}


def run_figure3(workloads: Sequence[str] = None,
                length: Optional[int] = None,
                cluster_counts: Sequence[int] = (2, 4),
                jobs: Optional[int] = None) -> Figure3Result:
    """The 4-scheme comparison of Figure 3 for 2 and 4 clusters."""
    names = list(workloads or selected_workloads())
    length = resolve_trace_length(length)
    # 1-cluster reference cells (IPCR denominators) plus every scheme
    # cell, submitted as one flat sweep.
    specs = [(("ref", predictor), 1, predictor, "baseline", {})
             for predictor in ("none", "stride", "perfect")]
    specs += [((n_clusters, scheme), n_clusters, predictor, steering, {})
              for n_clusters in cluster_counts
              for scheme, predictor, steering in FIGURE3_SCHEMES]
    sims = run_cells(_cells_for(names, specs, length), jobs=jobs,
                     label="figure3")
    result = Figure3Result()
    for n_clusters in cluster_counts:
        imb: Dict[str, float] = {}
        comm: Dict[str, float] = {}
        ipcr: Dict[str, float] = {}
        for scheme, predictor, steering in FIGURE3_SCHEMES:
            per_imb, per_comm, per_ipcr = [], [], []
            for name in names:
                sim = sims[(name, (n_clusters, scheme))]
                reference = sims[(name, ("ref", predictor))]
                ratio = sim.ipc / reference.ipc
                per_imb.append(sim.imbalance)
                per_comm.append(sim.comm_per_inst)
                per_ipcr.append(ratio)
                result.per_benchmark[(n_clusters, scheme, name)] = {
                    "ipc": sim.ipc, "ipcr": ratio,
                    "comm": sim.comm_per_inst,
                    "imbalance": sim.imbalance}
            imb[scheme] = mean(per_imb)
            comm[scheme] = mean(per_comm)
            ipcr[scheme] = mean(per_ipcr)
        result.imbalance[n_clusters] = imb
        result.comm[n_clusters] = comm
        result.ipcr[n_clusters] = ipcr
    return result


# --------------------------------------------------------------- Figure 4 --

class Figure4Result:
    """IPC vs communication latency (4a) or bandwidth (4b).

    ``ipc[(n_clusters, predict)][x]`` where x is the swept value.
    """

    def __init__(self, xlabel: str, xvalues: List) -> None:
        self.xlabel = xlabel
        self.xvalues = xvalues
        self.ipc: Dict[Tuple[int, bool], Dict[object, float]] = {}

    def degradation_pct(self, key: Tuple[int, bool]) -> float:
        """IPC loss from the first to the last swept point, percent."""
        series = self.ipc[key]
        first, last = series[self.xvalues[0]], series[self.xvalues[-1]]
        return -pct_change(first, last)


def _run_figure4(names: List[str], length: int, jobs: Optional[int],
                 result: Figure4Result, override_name: str,
                 points: Sequence[Tuple[object, object]],
                 label: str = "figure4") -> Figure4Result:
    """Shared Figure 4 sweep: *points* is (x key, override value) pairs."""
    specs = [((n_clusters, predict, key), n_clusters,
              "stride" if predict else "none",
              "vpb" if predict else "baseline",
              {override_name: value})
             for n_clusters in (2, 4)
             for predict in (False, True)
             for key, value in points]
    sims = run_cells(_cells_for(names, specs, length), jobs=jobs,
                     label=label)
    for n_clusters in (2, 4):
        for predict in (False, True):
            result.ipc[(n_clusters, predict)] = {
                key: mean(sims[(name, (n_clusters, predict, key))].ipc
                          for name in names)
                for key, _ in points}
    return result


def run_figure4_latency(workloads: Sequence[str] = None,
                        length: Optional[int] = None,
                        latencies: Sequence[int] = (1, 2, 4),
                        jobs: Optional[int] = None) -> Figure4Result:
    """Figure 4(a): IPC vs inter-cluster latency, 2/4 clusters, ±VP."""
    names = list(workloads or selected_workloads())
    length = resolve_trace_length(length)
    result = Figure4Result("communication latency (cycles)", list(latencies))
    return _run_figure4(names, length, jobs, result, "comm_latency",
                        [(latency, latency) for latency in latencies],
                        label="figure4a")


def run_figure4_bandwidth(workloads: Sequence[str] = None,
                          length: Optional[int] = None,
                          bandwidths: Sequence[Optional[int]] = (1, 2, None),
                          jobs: Optional[int] = None) -> Figure4Result:
    """Figure 4(b): IPC vs paths/cluster (None = unbounded)."""
    names = list(workloads or selected_workloads())
    length = resolve_trace_length(length)
    xvalues = [b if b is not None else "unbounded" for b in bandwidths]
    result = Figure4Result("paths per cluster", xvalues)
    points = [(b if b is not None else "unbounded", b) for b in bandwidths]
    return _run_figure4(names, length, jobs, result,
                        "comm_paths_per_cluster", points,
                        label="figure4b")


# --------------------------------------------------------------- Figure 5 --

class Figure5Result:
    """IPC and predictor accuracy vs value-predictor table size (Fig. 5)."""

    def __init__(self, sizes: List[int]) -> None:
        self.sizes = sizes
        self.ipc: Dict[int, float] = {}
        self.confident_fraction: Dict[int, float] = {}
        self.hit_ratio: Dict[int, float] = {}

    def ipc_degradation_pct(self) -> float:
        """IPC loss from the largest to the smallest table, percent."""
        return -pct_change(self.ipc[self.sizes[-1]], self.ipc[self.sizes[0]])


def run_figure5(workloads: Sequence[str] = None,
                length: Optional[int] = None,
                sizes: Sequence[int] = (64, 256, 1024, 4096, 16384, 131072),
                jobs: Optional[int] = None) -> Figure5Result:
    """Figure 5: sweep the stride predictor table (4 clusters, VPB).

    The paper sweeps 1K..128K on full Mediabench binaries (tens of
    thousands of static instructions).  The stand-ins' working set of
    static instructions is ~50x smaller, so the aliasing regime the
    paper's 1K point sits in corresponds to the 64-256-entry points
    here; the sweep includes them to expose the same curve shape.
    """
    names = list(workloads or selected_workloads())
    length = resolve_trace_length(length)
    specs = [(size, 4, "stride", "vpb", {"vp_entries": size})
             for size in sizes]
    sims = run_cells(_cells_for(names, specs, length), jobs=jobs,
                     label="figure5")
    result = Figure5Result(list(sizes))
    for size in sizes:
        cells = [sims[(name, size)] for name in names]
        result.ipc[size] = mean(sim.ipc for sim in cells)
        result.confident_fraction[size] = mean(
            sim.vp_stats["confident_fraction"] for sim in cells)
        result.hit_ratio[size] = mean(
            sim.vp_stats["hit_ratio"] for sim in cells)
    return result


# -------------------------------------------------------------- ablations --

class AblationResult:
    """A labelled set of (ipcr/ipc, comm, imbalance) rows."""

    def __init__(self) -> None:
        self.rows: Dict[str, Dict[str, float]] = {}


def run_ablation_modified(workloads: Sequence[str] = None,
                          length: Optional[int] = None,
                          jobs: Optional[int] = None) -> AblationResult:
    """§3.2: the ungated Modified scheme vs Baseline vs VPB (4 clusters).

    The paper found Modified ≈ Baseline (imbalance drops but
    communication does not), motivating VPB's threshold gate.
    """
    names = list(workloads or selected_workloads())
    length = resolve_trace_length(length)
    specs = [("ref", 1, "stride", "baseline", {})]
    specs += [(label, 4, "stride", steering, {})
              for label, steering in (("baseline", "baseline"),
                                      ("modified", "modified"),
                                      ("vpb", "vpb"))]
    sims = run_cells(_cells_for(names, specs, length), jobs=jobs,
                     label="ablation-modified")
    result = AblationResult()
    for label in ("baseline", "modified", "vpb"):
        cells = [sims[(name, label)] for name in names]
        result.rows[label] = {
            "ipcr": mean(sims[(name, label)].ipc / sims[(name, "ref")].ipc
                         for name in names),
            "comm": mean(sim.comm_per_inst for sim in cells),
            "imbalance": mean(sim.imbalance for sim in cells)}
    return result


def run_ablation_rename2(workloads: Sequence[str] = None,
                         length: Optional[int] = None,
                         jobs: Optional[int] = None) -> AblationResult:
    """§3.3: a 2-cycle rename/steer stage costs <2% IPC (4c, VPB)."""
    names = list(workloads or selected_workloads())
    length = resolve_trace_length(length)
    labels = (("rename-1-cycle", 0), ("rename-2-cycle", 1))
    specs = [(label, 4, "stride", "vpb", {"extra_rename_cycles": extra})
             for label, extra in labels]
    sims = run_cells(_cells_for(names, specs, length), jobs=jobs,
                     label="ablation-rename2")
    result = AblationResult()
    for label, _ in labels:
        result.rows[label] = {
            "ipc": mean(sims[(name, label)].ipc for name in names)}
    return result


# --------------------------------------------------------------- headline --

class HeadlineResult:
    """The paper's summary numbers, paper-vs-measured."""

    def __init__(self) -> None:
        self.measured: Dict[str, float] = {}
        #: Paper values for the same metrics (§1, §3.3, §6).
        self.paper: Dict[str, float] = {
            "ipcr4_baseline_nopredict": 0.65,
            "ipcr4_vpb": 0.77,
            "ipcr4_gain_pct": 18.0,
            "ipcr2_baseline_nopredict": 0.85,
            "ipcr2_vpb": 0.89,
            "comm4_nopredict": 0.22,
            "comm4_vpb": 0.11,
            "ipc_gain_pct_1c": 2.0,
            "ipc_gain_pct_2c": 8.0,
            "ipc_gain_pct_4c": 21.0,
        }


def run_headline(workloads: Sequence[str] = None,
                 length: Optional[int] = None,
                 jobs: Optional[int] = None) -> HeadlineResult:
    """Compute every §6 headline metric on the stand-in suite."""
    names = list(workloads or selected_workloads())
    length = resolve_trace_length(length)
    cells_spec = [(1, "none", "baseline"), (1, "stride", "baseline"),
                  (2, "none", "baseline"), (2, "stride", "vpb"),
                  (4, "none", "baseline"), (4, "stride", "vpb")]
    specs = [(cell, cell[0], cell[1], cell[2], {}) for cell in cells_spec]
    sims = run_cells(_cells_for(names, specs, length), jobs=jobs,
                     label="headline")
    result = HeadlineResult()

    def _mean(cell):
        return mean(sims[(name, cell)].ipc for name in names)

    def _comm(cell):
        return mean(sims[(name, cell)].comm_per_inst for name in names)

    measured = result.measured
    measured["ipcr4_baseline_nopredict"] = (
        _mean((4, "none", "baseline")) / _mean((1, "none", "baseline")))
    measured["ipcr4_vpb"] = (
        _mean((4, "stride", "vpb")) / _mean((1, "stride", "baseline")))
    measured["ipcr4_gain_pct"] = pct_change(
        measured["ipcr4_baseline_nopredict"], measured["ipcr4_vpb"])
    measured["ipcr2_baseline_nopredict"] = (
        _mean((2, "none", "baseline")) / _mean((1, "none", "baseline")))
    measured["ipcr2_vpb"] = (
        _mean((2, "stride", "vpb")) / _mean((1, "stride", "baseline")))
    measured["comm4_nopredict"] = _comm((4, "none", "baseline"))
    measured["comm4_vpb"] = _comm((4, "stride", "vpb"))
    measured["ipc_gain_pct_1c"] = pct_change(
        _mean((1, "none", "baseline")), _mean((1, "stride", "baseline")))
    measured["ipc_gain_pct_2c"] = pct_change(
        _mean((2, "none", "baseline")), _mean((2, "stride", "vpb")))
    measured["ipc_gain_pct_4c"] = pct_change(
        _mean((4, "none", "baseline")), _mean((4, "stride", "vpb")))
    return result


def run_ablation_predictor(workloads: Sequence[str] = None,
                           length: Optional[int] = None,
                           jobs: Optional[int] = None) -> AblationResult:
    """Predictor-design ablation: 2-delta vs naive stride update.

    DESIGN.md §6.1: the literal replace-on-mismatch update mispredicts
    twice per loop restart while confident; 2-delta (the paper's
    reference [19]) keeps one-off breaks from poisoning the stride.
    Measured at 4 clusters with VPB steering.
    """
    names = list(workloads or selected_workloads())
    length = resolve_trace_length(length)
    labels = (("two-delta", True), ("naive", False))
    specs = [(label, 4, "stride", "vpb", {"vp_two_delta": two_delta})
             for label, two_delta in labels]
    sims = run_cells(_cells_for(names, specs, length), jobs=jobs,
                     label="ablation-predictor")
    result = AblationResult()
    for label, _ in labels:
        cells = [sims[(name, label)] for name in names]
        result.rows[label] = {
            "ipc": mean(sim.ipc for sim in cells),
            "comm": mean(sim.comm_per_inst for sim in cells),
            "hit_ratio": mean(sim.vp_stats["hit_ratio"] for sim in cells),
            "confident": mean(sim.vp_stats["confident_fraction"]
                              for sim in cells)}
    return result


def run_ablation_free_copies(workloads: Sequence[str] = None,
                             length: Optional[int] = None,
                             jobs: Optional[int] = None) -> AblationResult:
    """§2.1 extension: dedicated copy-out hardware.

    The paper notes a real implementation could avoid charging copies
    to the issue width ("specific hardware that avoids generating copy
    instructions. However, we have not assumed any of these
    optimizations").  This ablation measures that headroom at 4
    clusters, with and without value prediction.
    """
    names = list(workloads or selected_workloads())
    length = resolve_trace_length(length)
    variants = (("paper, no VP", "none", "baseline", False),
                ("free copies, no VP", "none", "baseline", True),
                ("paper, VPB", "stride", "vpb", False),
                ("free copies, VPB", "stride", "vpb", True))
    specs = [(label, 4, predictor, steering, {"free_copy_issue": free})
             for label, predictor, steering, free in variants]
    sims = run_cells(_cells_for(names, specs, length), jobs=jobs,
                     label="ablation-free-copies")
    result = AblationResult()
    for label, _, _, _ in variants:
        cells = [sims[(name, label)] for name in names]
        result.rows[label] = {
            "ipc": mean(sim.ipc for sim in cells),
            "comm": mean(sim.comm_per_inst for sim in cells)}
    return result


def run_predictor_comparison(workloads: Sequence[str] = None,
                             length: Optional[int] = None,
                             jobs: Optional[int] = None
                             ) -> AblationResult:
    """§6 future work: "the results will likely be better with more
    complex and effective predictors".

    Compares the paper's stride predictor against the context (FCM) and
    hybrid tournament predictors from the Sazeides-Smith family the
    paper cites, plus the perfect upper bound, at 4 clusters with VPB.
    """
    names = list(workloads or selected_workloads())
    length = resolve_trace_length(length)
    labels = ("none", "stride", "context", "hybrid", "perfect")
    specs = [(label, 4, label,
              "vpb" if label != "none" else "baseline", {})
             for label in labels]
    sims = run_cells(_cells_for(names, specs, length), jobs=jobs,
                     label="predictor-comparison")
    result = AblationResult()
    for label in labels:
        cells = [sims[(name, label)] for name in names]
        result.rows[label] = {
            "ipc": mean(sim.ipc for sim in cells),
            "comm": mean(sim.comm_per_inst for sim in cells),
            "hit_ratio": mean(sim.vp_stats.get("hit_ratio", 0.0)
                              for sim in cells),
            "confident": mean(sim.vp_stats.get("confident_fraction", 0.0)
                              for sim in cells)}
    return result


def run_ablation_static(workloads: Sequence[str] = None,
                        length: Optional[int] = None,
                        jobs: Optional[int] = None) -> AblationResult:
    """§5 related-work claim: dynamic steering beats static partitioning.

    The static scheme gets the best possible conditions — it is profiled
    on the *same* trace it then runs (a perfect-profile compiler) — and
    still loses to dynamic steering because every dynamic instance of an
    instruction is pinned to one cluster regardless of run-time balance.

    Profiles are computed in the parent process (the profile is a plain
    PC→cluster dict) and shipped to workers as explicit per-cell config,
    like every other override.
    """
    from ..steering import profile_static_assignment
    names = list(workloads or selected_workloads())
    length = resolve_trace_length(length)
    cells: List[SweepCell] = []
    for name in names:
        trace = workload_trace(name, length)
        assignment = profile_static_assignment(trace, 4)
        cells.append(SweepCell(
            key=(name, "static"), workload=name, n_clusters=4,
            steering="static", length=length,
            overrides=SweepCell.pack_overrides(
                {"static_assignment": assignment})))
        cells.append(SweepCell(key=(name, "baseline"), workload=name,
                               n_clusters=4, length=length))
        cells.append(SweepCell(key=(name, "vpb"), workload=name,
                               n_clusters=4, predictor="stride",
                               steering="vpb", length=length))
    sims = run_cells(cells, jobs=jobs, label="ablation-static")
    result = AblationResult()
    for label, suffix in (("static (perfect profile)", "static"),
                          ("baseline (dynamic)", "baseline"),
                          ("vpb (dynamic + VP)", "vpb")):
        row = [sims[(name, suffix)] for name in names]
        result.rows[label] = {
            "ipc": mean(c.ipc for c in row),
            "comm": mean(c.comm_per_inst for c in row),
            "imbalance": mean(c.imbalance for c in row)}
    return result


class ScalingResult:
    """IPC/IPCR/comm vs cluster count, with and without prediction."""

    def __init__(self, counts: List[int]) -> None:
        self.counts = counts
        #: metric[(n_clusters, predict)] suite averages
        self.ipc: Dict[Tuple[int, bool], float] = {}
        self.ipcr: Dict[Tuple[int, bool], float] = {}
        self.comm: Dict[Tuple[int, bool], float] = {}

    def vp_gain_pct(self, n_clusters: int) -> float:
        return pct_change(self.ipc[(n_clusters, False)],
                          self.ipc[(n_clusters, True)])


def run_scaling(workloads: Sequence[str] = None,
                length: Optional[int] = None,
                counts: Sequence[int] = (1, 2, 4, 8),
                jobs: Optional[int] = None) -> ScalingResult:
    """Extension: extrapolate the paper's thesis to deeper clustering.

    §5 frames the contribution as a design "with an arbitrary number of
    homogeneous clusters"; Table 1's structure-scaling rule extends
    naturally (see ``derive_preset``).  The paper's thesis predicts the
    value-prediction benefit keeps growing with the degree of
    clustering, because the communication penalty it removes does.
    """
    names = list(workloads or selected_workloads())
    length = resolve_trace_length(length)
    specs = [(("ref", predict), 1,
              "stride" if predict else "none",
              "vpb" if predict else "baseline", {})
             for predict in (False, True)]
    specs += [((n_clusters, predict), n_clusters,
               "stride" if predict else "none",
               "vpb" if predict else "baseline", {})
              for n_clusters in counts for predict in (False, True)]
    sims = run_cells(_cells_for(names, specs, length), jobs=jobs,
                     label="scaling")
    result = ScalingResult(list(counts))
    for n_clusters in counts:
        for predict in (False, True):
            row = [sims[(name, (n_clusters, predict))] for name in names]
            key = (n_clusters, predict)
            result.ipc[key] = mean(sim.ipc for sim in row)
            result.ipcr[key] = mean(
                sims[(name, (n_clusters, predict))].ipc
                / sims[(name, ("ref", predict))].ipc for name in names)
            result.comm[key] = mean(sim.comm_per_inst for sim in row)
    return result


def run_robustness(workloads: Sequence[str] = None,
                   lengths: Sequence[int] = (6_000, 12_000),
                   jobs: Optional[int] = None
                   ) -> Dict[int, HeadlineResult]:
    """Run the headline metrics at several trace lengths.

    The reduced-trace methodology is only sound if the directional
    claims are stable against the window size; this driver (and its
    benchmark) checks exactly that.  One :class:`WorkerPool` is shared
    across the per-length sweeps, so worker startup is paid once.
    """
    from .parallel import WorkerPool
    with WorkerPool(jobs):
        return {length: run_headline(workloads, length, jobs=jobs)
                for length in lengths}
