"""Tier-1 gate for checkpointed, sampled simulation (``make
sample-check``).

Four guarantees, each fatal when violated:

1. **Throughput** — a million-instruction sampled run must deliver
   >= ``SAMPLED_MIN_SPEEDUP`` (20x) the detailed model's effective
   instructions-per-second on the same workload/configuration/host.
2. **Accuracy** — its IPC estimate must land within
   ``SAMPLED_MAX_ERROR`` (2%) of the uninterrupted detailed run's IPC.
3. **Checkpoint identity** — ``save -> restore -> resume`` must be
   bit-identical to never having snapshotted, for both snapshot kinds
   (a mid-run machine snapshot and a fast-forward executor
   checkpoint).
4. **Receipt schema** — a sampled sweep cell's run receipt must carry
   the sampling block and validate against the receipt schema.

The detailed reference run doubles as the throughput baseline, so the
whole gate is one detailed run plus change (~1 minute); both sides are
measured in-process on the same host, which is what makes the speedup
ratio honest.  The multi-workload version of the same measurement
(with provenance, appended to ``BENCH_sweep.json``) lives in
``benchmarks/bench_wallclock.py --sampled``.
"""

from __future__ import annotations

import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import harness
from bench_wallclock import (SAMPLED_MAX_ERROR, SAMPLED_MIN_SPEEDUP,
                             SAMPLED_PLAN, detailed_vs_sampled)
from repro.analysis.parallel import SweepCell, run_cells
from repro.analysis.provenance import RunReceipt
from repro.analysis.sampling import SamplingConfig
from repro.core import (make_config, restore_executor, restore_processor,
                        save_executor, save_processor, simulate)
from repro.isa.executor import FunctionalExecutor
from repro.obs import SweepMonitor, use_monitor
from repro.obs.schema import validate_receipt
from repro.workloads import build_workload

WORKLOAD = "mesatexgen"
LENGTH = 1_000_000
CONFIG_KW = dict(predictor="stride", steering="vpb")
CLUSTERS = 2


def throughput_and_accuracy(length: int = LENGTH,
                            sampling: SamplingConfig = SAMPLED_PLAN,
                            min_speedup: float = SAMPLED_MIN_SPEEDUP,
                            max_error: float = SAMPLED_MAX_ERROR,
                            repeats: int = 3) -> list:
    """Guarantees 1 + 2: the sampled run vs the detailed reference.

    The same measurement as ``bench_wallclock --sampled`` on one
    workload, with the sampled side timed min-of-*repeats*.
    """
    row = detailed_vs_sampled(WORKLOAD, make_config(CLUSTERS, **CONFIG_KW),
                              length, sampling, repeats)
    return [(
        "throughput", row["speedup"] >= min_speedup,
        f"{row['effective_insts_per_second']:,.0f} effective insts/s "
        f"vs {row['detailed_insts_per_second']:,.0f} detailed = "
        f"{row['speedup']:.1f}x (need >= {min_speedup:.0f}x)"), (
        "accuracy", abs(row["ipc_error"]) <= max_error,
        f"sampled IPC {row['sampled_ipc']:.4f} vs detailed "
        f"{row['detailed_ipc']:.4f} = {row['ipc_error']:+.2%} "
        f"(need <= {max_error:.0%})")]


def machine_roundtrip(tmp: str) -> tuple:
    """Guarantee 3a: mid-run machine snapshot resume == uninterrupted."""
    config = make_config(CLUSTERS, **CONFIG_KW)
    total, cut = 20_000, 8_000

    baseline = simulate(
        FunctionalExecutor(build_workload(WORKLOAD), total).run(),
        config, max_instructions=total)

    from repro.core.processor import Processor
    executor = FunctionalExecutor(build_workload(WORKLOAD), total)
    processor = Processor(config, executor.run())
    processor.trace_executor = executor
    processor.run_until(max_insts=cut)
    path = str(pathlib.Path(tmp) / "machine.snap")
    save_processor(path, processor)
    restored, _ = restore_processor(path)
    restored.run_until(max_insts=total)
    resumed = restored.finalize()

    same = (resumed.stats.cycles == baseline.stats.cycles
            and resumed.stats.committed_insts
            == baseline.stats.committed_insts
            and resumed.stats.ipc == baseline.stats.ipc)
    return (
        "machine snapshot roundtrip", same,
        f"resume @{cut}: {resumed.stats.committed_insts} insts / "
        f"{resumed.stats.cycles} cycles vs uninterrupted "
        f"{baseline.stats.committed_insts} / {baseline.stats.cycles}")


def executor_roundtrip(tmp: str) -> tuple:
    """Guarantee 3b: executor checkpoint resume == uninterrupted."""
    total, cut = 120_000, 50_000
    straight = FunctionalExecutor(build_workload(WORKLOAD), total)
    straight.skip(total)

    executor = FunctionalExecutor(build_workload(WORKLOAD), total)
    executor.skip(cut)
    path = str(pathlib.Path(tmp) / "executor.ckpt")
    save_executor(path, executor)
    resumed = restore_executor(path)
    resumed.skip(total - cut)

    same = (resumed.seq == straight.seq
            and resumed.pc == straight.pc
            and resumed.int_regs == straight.int_regs
            and resumed.fp_regs == straight.fp_regs)
    return (
        "executor checkpoint roundtrip", same,
        f"resume @{cut}: seq {resumed.seq}, architectural state "
        f"{'identical' if same else 'DIVERGED'}")


def receipt_schema(tmp: str) -> list:
    """Guarantee 4: a sampled cell's receipt validates."""
    cell = SweepCell(key=(WORKLOAD, "sampled"), workload=WORKLOAD,
                     n_clusters=CLUSTERS, length=60_000,
                     sampling=SamplingConfig(interval=1200, warmup=200,
                                             samples=4),
                     checkpoint_dir=str(pathlib.Path(tmp) / "ckpts"),
                     **CONFIG_KW)
    monitor = SweepMonitor()
    with use_monitor(monitor):
        results = run_cells([cell], jobs=1)
    monitor.close()
    receipt = RunReceipt.from_monitor(monitor, label="sample-check")
    cells = validate_receipt(receipt.to_dict())
    block = receipt.to_dict()["cells"][0]["sampling"]
    return [(
        "receipt schema", cells == 1 and block is not None
        and block["interval"] == 1200,
        f"{cells} cell(s), sampling block {block}"), (
        "sampled cell result", results[(WORKLOAD, "sampled")].ipc > 0,
        f"cell IPC {results[(WORKLOAD, 'sampled')].ipc:.4f}")]


def run_checks(length: int = LENGTH,
               sampling: SamplingConfig = SAMPLED_PLAN,
               min_speedup: float = SAMPLED_MIN_SPEEDUP,
               max_error: float = SAMPLED_MAX_ERROR) -> list:
    """All four guarantees as ``(label, ok, detail)`` tuples.

    The tier-1 wrapper (``tests/analysis/test_sample_check.py``) runs
    this at reduced length with relaxed throughput/accuracy bars —
    the suite shares the host with other tests and a shorter run has
    fewer windows — while ``make sample-check`` enforces the
    full-strength 20x / 2% contract.
    """
    checks = []
    with tempfile.TemporaryDirectory() as tmp:
        checks.append(machine_roundtrip(tmp))
        checks.append(executor_roundtrip(tmp))
        checks.extend(receipt_schema(tmp))
        checks.extend(throughput_and_accuracy(
            length=length, sampling=sampling, min_speedup=min_speedup,
            max_error=max_error))
    return checks


def main() -> int:
    print(f"sample-check: {WORKLOAD} x {LENGTH} insts, "
          f"{SAMPLED_PLAN.samples} windows of "
          f"{SAMPLED_PLAN.warmup}+{SAMPLED_PLAN.interval}")
    return harness.report(run_checks(), "sampling")


if __name__ == "__main__":
    sys.exit(main())
