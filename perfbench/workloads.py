"""The benchmark's three workloads.

Each workload is one batch: a closed loop that runs one sweep at a time
from this process (``campaign-parallel`` fans its sweep out to at most
two worker processes).  A workload turns a seed into inputs, runs the
batch through the program's public entry points, and checks the
outputs.  README.md in this directory says why each was chosen.

Every input is passed explicitly — workloads, trace length, jobs, seed —
and the result cache is off (``use_cache(None)``), so no ``REPRO_*``
setting can change what is measured.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import pickle
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.cache import use_cache
from repro.analysis.experiments import ErrorLedger
from repro.analysis.metrics import mean, pct_change
from repro.analysis.parallel import SweepCell, run_cells
from repro.analysis.sampling import SamplingConfig
from repro.validation.campaign import DEFAULT_KINDS, run_fault_campaign
from repro.workloads import clear_trace_cache, workload_names, \
    workload_trace

REFERENCE = json.loads(
    (pathlib.Path(__file__).resolve().parent / "reference.json")
    .read_text())

#: ``run_headline``'s six configurations: (clusters, predictor, steering).
HEADLINE_CONFIGS = ((1, "none", "baseline"), (1, "stride", "baseline"),
                    (2, "none", "baseline"), (2, "stride", "vpb"),
                    (4, "none", "baseline"), (4, "stride", "vpb"))
#: Instructions per headline cell: 90 cells at this length take about
#: 10 s, so a run measures several whole sweeps.
HEADLINE_LENGTH = 2_000

#: The validated sampled plan (docs/SAMPLING.md) and its population.
SAMPLED_WORKLOADS = ("mesatexgen", "cjpeg", "rawcaudio", "mpeg2enc",
                     "mesaosdemo", "rasta", "gsmdec", "pgpdec")
SAMPLED_LENGTH = 1_000_000
SAMPLED_CONFIG = {"n_clusters": 2, "predictor": "stride", "steering": "vpb"}
SAMPLING = SamplingConfig(interval=1200, warmup=200, samples=16,
                          warm_predictors=True)

#: Stand-ins from high to low value predictability.
CAMPAIGN_WORKLOADS = ("cjpeg", "g721enc", "pgpdec", "mpeg2enc")
CAMPAIGN_LENGTH = 6_000


@dataclasses.dataclass
class Batch:
    """What one sweep of a workload produced.

    ``checks`` maps each output check to whether it held; ``report``
    holds the workload's own end-to-end figures (``None`` = no
    reference for this seed); ``layers`` holds per-layer figures the
    results themselves carry.
    """

    insts: int
    seconds: float
    checks: List[Tuple[str, bool]]
    digest: str
    report: Dict[str, Optional[float]] = dataclasses.field(
        default_factory=dict)
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)


def digest(records) -> str:
    """sha256 over canonical JSON of a batch's per-cell results."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def headline_ratios(sims, names: Sequence[str]) -> Dict[str, float]:
    """The ten §6 headline figures, computed as ``run_headline`` does."""
    def ipc(config):
        return mean(sims[(name, config)].ipc for name in names)

    def comm(config):
        return mean(sims[(name, config)].comm_per_inst for name in names)

    c1n, c1s, c2n, c2v, c4n, c4v = HEADLINE_CONFIGS
    m = {
        "ipcr4_baseline_nopredict": ipc(c4n) / ipc(c1n),
        "ipcr4_vpb": ipc(c4v) / ipc(c1s),
        "ipcr2_baseline_nopredict": ipc(c2n) / ipc(c1n),
        "ipcr2_vpb": ipc(c2v) / ipc(c1s),
        "comm4_nopredict": comm(c4n),
        "comm4_vpb": comm(c4v),
        "ipc_gain_pct_1c": pct_change(ipc(c1n), ipc(c1s)),
        "ipc_gain_pct_2c": pct_change(ipc(c2n), ipc(c2v)),
        "ipc_gain_pct_4c": pct_change(ipc(c4n), ipc(c4v)),
    }
    m["ipcr4_gain_pct"] = pct_change(m["ipcr4_baseline_nopredict"],
                                     m["ipcr4_vpb"])
    return m


def headline_direction_checks(m: Dict[str, float]
                              ) -> List[Tuple[str, bool]]:
    """benchmarks/bench_headline.py's direction checks."""
    return [
        ("ipcr4: vpb beats no prediction",
         m["ipcr4_vpb"] > m["ipcr4_baseline_nopredict"]),
        ("ipcr4 gain above 6%", m["ipcr4_gain_pct"] > 6.0),
        ("ipcr2: vpb beats no prediction",
         m["ipcr2_vpb"] > m["ipcr2_baseline_nopredict"]),
        ("comm4: vpb below 75% of no prediction",
         m["comm4_vpb"] < 0.75 * m["comm4_nopredict"]),
        ("4c gains more than 1c",
         m["ipc_gain_pct_4c"] > m["ipc_gain_pct_1c"]),
        ("2c gains about as much as 1c",
         m["ipc_gain_pct_2c"] > m["ipc_gain_pct_1c"] - 1.0),
    ]


def _pickled_bytes(results) -> int:
    return len(pickle.dumps(results, protocol=pickle.HIGHEST_PROTOCOL))


class HeadlineSerial:
    """§6 headline table: every stand-in x ``run_headline``'s configs."""

    name = "headline-serial"
    #: Report-only layer metrics this workload alone reaches.
    own_layers: Tuple[str, ...] = ()

    def __init__(self, length: int = HEADLINE_LENGTH,
                 names: Optional[Sequence[str]] = None) -> None:
        self.length = length
        self.names = tuple(names or workload_names())

    @property
    def programs(self) -> Tuple[str, ...]:
        return self.names

    def cells(self, seed: int) -> List[SweepCell]:
        return [SweepCell(key=(name, config), workload=name,
                          n_clusters=config[0], predictor=config[1],
                          steering=config[2], length=self.length,
                          seed=seed)
                for name in self.names for config in HEADLINE_CONFIGS]

    def run(self, seed: int, scratch: pathlib.Path) -> Batch:
        cells = self.cells(seed)
        ledger = ErrorLedger()
        clear_trace_cache()  # every sweep generates its own traces
        with use_cache(None):
            start = time.perf_counter()
            sims = run_cells(cells, jobs=1, ledger=ledger, label=self.name)
            seconds = time.perf_counter() - start
        checks = []
        for cell in cells:
            trace = workload_trace(cell.workload, cell.length,
                                   seed=cell.seed)
            sim = sims.get(cell.key)
            checks.append((f"{cell.workload} {cell.config_label} commits "
                           f"its full trace",
                           sim is not None
                           and sim.stats.committed_insts == len(trace)))
        clear_trace_cache()
        report: Dict[str, Optional[float]] = dict.fromkeys(
            ("ipcr4_vpb_err", "comm4_vpb_err", "vp_gain_4c_err_pct"))
        if len(sims) == len(cells):
            ratios = headline_ratios(sims, self.names)
            checks.extend(headline_direction_checks(ratios))
            paper = REFERENCE["headline_paper"]["values"]
            report = {
                "ipcr4_vpb_err": abs(ratios["ipcr4_vpb"]
                                     - paper["ipcr4_vpb"]),
                "comm4_vpb_err": abs(ratios["comm4_vpb"]
                                     - paper["comm4_vpb"]),
                "vp_gain_4c_err_pct": abs(ratios["ipc_gain_pct_4c"]
                                          - paper["ipc_gain_pct_4c"]),
            }
        return Batch(
            insts=sum(sim.stats.committed_insts for sim in sims.values()),
            seconds=seconds, checks=checks,
            digest=digest([[repr(cell.key), sims[cell.key].to_dict()]
                           for cell in cells if cell.key in sims]),
            report=report)


#: SampledResult fields that are host time, not simulation output.
_HOST_FIELDS = ("wall_seconds", "effective_insts_per_second")


class SampledMillion:
    """1M-instruction sampled runs of the validated workloads."""

    name = "sampled-million"
    own_layers = ("isa.fast_forward_s", "isa.fast_forward_insts_per_s",
                  "sampling.window_s", "sampling.windows",
                  "sampling.detailed_share", "snapshot.store_s",
                  "snapshot.bytes")

    def __init__(self, length: int = SAMPLED_LENGTH,
                 names: Sequence[str] = SAMPLED_WORKLOADS,
                 sampling: SamplingConfig = SAMPLING) -> None:
        self.length = length
        self.names = tuple(names)
        self.sampling = sampling

    @property
    def programs(self) -> Tuple[str, ...]:
        return self.names

    def cells(self, seed: int, checkpoints: pathlib.Path
              ) -> List[SweepCell]:
        return [SweepCell(key=name, workload=name, length=self.length,
                          seed=seed, sampling=self.sampling,
                          checkpoint_dir=str(checkpoints / name),
                          **SAMPLED_CONFIG)
                for name in self.names]

    def run(self, seed: int, scratch: pathlib.Path) -> Batch:
        ledger = ErrorLedger()
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            cells = self.cells(seed, pathlib.Path(tmp))
            with use_cache(None):
                start = time.perf_counter()
                sims = run_cells(cells, jobs=1, ledger=ledger,
                                 label=self.name)
                seconds = time.perf_counter() - start
            snapshot_bytes = sum(path.stat().st_size
                                 for path in pathlib.Path(tmp).rglob("*")
                                 if path.is_file())
        planned = len(self.sampling.window_starts(self.length))
        checks = []
        for cell in cells:
            sim = sims.get(cell.key)
            checks.append((f"{cell.workload}: all {planned} windows "
                           f"measured instructions",
                           sim is not None and len(sim.windows) == planned
                           and all(w.measured_insts > 0
                                   for w in sim.windows)))
        records = []
        for cell in cells:
            if cell.key in sims:
                record = sims[cell.key].to_dict()
                for field in _HOST_FIELDS:
                    record.pop(field)
                records.append(record)
        report = {"sampled_ipc_err_max": None, "sampled_ipc_err_mean": None}
        detailed = REFERENCE["sampled_detailed_ipc"].get(str(seed))
        if detailed is not None and len(sims) == len(cells):
            errors = [abs(sims[name].ipc - detailed["ipc"][name])
                      / detailed["ipc"][name] for name in self.names]
            report = {"sampled_ipc_err_max": max(errors),
                      "sampled_ipc_err_mean": mean(errors)}
        total = sum(sim.total_insts for sim in sims.values())
        return Batch(
            insts=total, seconds=seconds, checks=checks,
            digest=digest(records), report=report,
            layers={
                "sampling.windows": sum(len(sim.windows)
                                        for sim in sims.values()),
                "sampling.detailed_share": (
                    sum(sim.detailed_insts for sim in sims.values())
                    / total if total else 0.0),
                "sampling.wall_s": sum(sim.wall_seconds
                                       for sim in sims.values()),
                "snapshot.bytes": snapshot_bytes,
            })


class CampaignParallel:
    """Fault-injection campaign under golden co-simulation, in parallel."""

    name = "campaign-parallel"
    own_layers = ("validation.golden_s", "validation.faults_injected",
                  "validation.faults_detected",
                  "validation.penalty_cycles_per_fault",
                  "parallel.result_bytes")

    def __init__(self, length: int = CAMPAIGN_LENGTH,
                 names: Sequence[str] = CAMPAIGN_WORKLOADS,
                 kinds: Sequence[str] = DEFAULT_KINDS) -> None:
        self.length = length
        self.names = tuple(names)
        self.kinds = tuple(kinds)
        self.jobs = min(2, os.cpu_count() or 1)

    @property
    def programs(self) -> Tuple[str, ...]:
        return self.names

    def arguments(self, seed: int) -> dict:
        """``run_fault_campaign``'s inputs: the seed sets the fault seeds."""
        return {"workloads": self.names, "seeds": (seed,),
                "kinds": self.kinds, "length": self.length,
                "jobs": self.jobs}

    def run(self, seed: int, scratch: pathlib.Path) -> Batch:
        arguments = self.arguments(seed)
        start = time.perf_counter()
        result = run_fault_campaign(**arguments)
        seconds = time.perf_counter() - start
        checks = [(f"{cell.workload} {cell.kind} seed {cell.seed} "
                   f"recovered", cell.ok) for cell in result.cells]
        checks.append(("value-fault detection rate is 1.0",
                       result.detection_rate == 1.0))
        # ipc = committed / cycles exactly, so the product recovers the
        # committed count of every faulted run and of each workload's
        # clean baseline run.
        baselines = {cell.workload: round(cell.baseline_ipc
                                          * cell.baseline_cycles)
                     for cell in result.cells}
        insts = sum(baselines.values()) + sum(
            round(cell.ipc * cell.cycles) for cell in result.cells)
        blocks: Dict[str, list] = {}
        for cell in result.cells:
            blocks.setdefault(cell.workload, []).append(cell)
        value_cells = result.value_cells()
        return Batch(
            insts=insts, seconds=seconds, checks=checks,
            digest=digest([dataclasses.asdict(cell)
                           for cell in result.cells]),
            layers={
                "validation.faults_injected": sum(
                    cell.injected for cell in value_cells),
                "validation.faults_detected": sum(
                    cell.detected for cell in value_cells),
                "validation.penalty_cycles_per_fault":
                    result.mean_value_penalty,
                "parallel.result_bytes": sum(
                    _pickled_bytes(block) for block in blocks.values()),
            })


WORKLOADS = {workload.name: workload for workload in
             (HeadlineSerial, SampledMillion, CampaignParallel)}
