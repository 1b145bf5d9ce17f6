"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload headline-serial --seed 0 \\
        --seconds 30 --trace 0

Runs whole sweeps of the workload in a closed loop for about
``--seconds`` seconds (at least one), checks every output, and prints a
report followed, on the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
no instrumentation.  With ``--trace 1`` every untraced sweep is followed
by a traced one (perfbench/probe.py) and the metrics are the per-layer
ones, including the tracing overhead itself.  The exit code is 0 when
every check held, 1 when one failed, 2 on a usage error or when the
program's source is not beside this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where a run keeps checkpoint stores and worker spools; ignored by git
#: and removed when the run ends.
SCRATCH = ROOT / ".perfbench" / str(os.getpid())

#: Settings the program would otherwise read from the environment.  The
#: benchmark passes all of them explicitly and removes them, so an
#: ambient value cannot change the program being measured.
SHADOWED = ("REPRO_CACHE", "REPRO_JOBS", "REPRO_TRACE_LEN",
            "REPRO_WORKLOADS", "REPRO_CHUNKSIZE")

#: Set-up samples per run, each in a fresh interpreter.
SETUP_SAMPLES = 9

#: name -> (unit, better, where it is reported).  "e2e" metrics are the
#: JSON result of an untraced run and "layer" metrics that of a traced
#: run; each is measured on every workload.  "e2e-report" and
#: "layer-report" ones are printed in the report only, because only one
#: workload reaches them (a workload's ``own_layers``) or they are not
#: performance figures.
METRICS = {
    "setup_s": ("s", "lower", "e2e"),
    "sim_insts_per_s": ("insts/s", "higher", "e2e"),
    "peak_rss_mb": ("MB", "lower", "e2e"),
    "failed_frac": ("ratio", "lower", "e2e-report"),
    "ipcr4_vpb_err": ("abs", "lower", "e2e-report"),
    "comm4_vpb_err": ("abs", "lower", "e2e-report"),
    "vp_gain_4c_err_pct": ("pct-points", "lower", "e2e-report"),
    "sampled_ipc_err_max": ("ratio", "lower", "e2e-report"),
    "sampled_ipc_err_mean": ("ratio", "lower", "e2e-report"),
    "core.decode_s": ("s", "lower", "layer"),
    "core.issue_s": ("s", "lower", "layer"),
    "core.commit_s": ("s", "lower", "layer"),
    "core.events_s": ("s", "lower", "layer"),
    "core.fetch_s": ("s", "lower", "layer"),
    "core.other_s": ("s", "lower", "layer"),
    "core.detailed_insts_per_s": ("insts/s", "higher", "layer"),
    "core.cell_s_p50": ("s", "lower", "layer"),
    "core.cycles": ("cycles", "lower", "layer"),
    "core.committed_insts": ("insts", "higher", "layer"),
    "core.uops_per_inst": ("uops/inst", "lower", "layer"),
    "core.decode_stall_cycles": ("cycles", "lower", "layer"),
    "isa.trace_gen_s": ("s", "lower", "layer"),
    "isa.trace_gen_insts_per_s": ("insts/s", "higher", "layer"),
    "isa.fast_forward_s": ("s", "lower", "layer-report"),
    "isa.fast_forward_insts_per_s": ("insts/s", "higher", "layer-report"),
    "sampling.window_s": ("s", "lower", "layer-report"),
    "sampling.windows": ("count", "higher", "layer-report"),
    "sampling.detailed_share": ("ratio", "lower", "layer-report"),
    "snapshot.store_s": ("s", "lower", "layer-report"),
    "snapshot.bytes": ("bytes", "lower", "layer-report"),
    "validation.golden_s": ("s", "lower", "layer-report"),
    "validation.faults_injected": ("count", "higher", "layer-report"),
    "validation.faults_detected": ("count", "higher", "layer-report"),
    "validation.penalty_cycles_per_fault": ("cycles/fault", "lower",
                                            "layer-report"),
    "parallel.first_result_s": ("s", "lower", "layer"),
    "parallel.tail_gap_s": ("s", "lower", "layer"),
    "parallel.result_bytes": ("bytes", "lower", "layer-report"),
    "predictor.vp_accuracy": ("ratio", "higher", "layer"),
    "interconnect.comm_per_inst": ("comms/inst", "lower", "layer"),
    "rename.copies_per_inst": ("copies/inst", "lower", "layer"),
    "steering.avg_imbalance": ("insts", "lower", "layer"),
    "frontend.branch_mispredict_rate": ("ratio", "lower", "layer"),
    "memory.l1d_miss_rate": ("ratio", "lower", "layer"),
    "obs.trace_overhead_frac": ("ratio", "lower", "layer"),
}


def declared(scope: str):
    """Metric names the JSON result carries in *scope* ("e2e"/"layer")."""
    return [name for name, (_, _, where) in METRICS.items()
            if where == scope]


# ---------------------------------------------------------------- host --

def calibration_rate(loops: int = 200_000, repeats: int = 3) -> float:
    """Iterations per second of a fixed pure-Python loop (best of N)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(loops):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return loops / best


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_identity() -> dict:
    """Who measured: runs from different hosts are never compared."""
    return {"platform": platform.platform(), "cpu": cpu_model(),
            "python": platform.python_version(),
            "nproc": os.cpu_count() or 1,
            "calibration_loops_per_s": calibration_rate()}


# ---------------------------------------------------------------- setup --

_SETUP_PROGRAM = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import repro
from repro.workloads import build_workload
for name in sys.argv[3:]:
    build_workload(name, seed=int(sys.argv[2]))
print(time.perf_counter() - start)
"""


def setup_seconds(programs, seed: int) -> float:
    """Median time to import ``repro`` and build every program, each
    sample in a fresh interpreter (interpreter start-up excluded)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROGRAM, str(SRC), str(seed),
             *programs], check=True, capture_output=True, text=True,
            cwd=ROOT, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child.

    Read before any set-up interpreter starts, so the only children are
    the workload's own worker processes.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------- main --

def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(workload, seed: int, seconds: float, trace: bool):
    """Closed loop of whole sweeps; stops before one would overrun.

    With *trace*, each round runs one untraced and one traced sweep, in
    alternating order so neither side always gets the warmer process.
    Returns the untraced sweeps, the traced ones with their layer
    metrics, and the peak RSS after the first sweep: what one sweep costs
    a user, whatever number of sweeps fits in the run on this host.
    """
    from perfbench.probe import Probe, layer_metrics

    untraced, traced = [], []
    start = time.perf_counter()
    rounds = 0
    rss = None
    while True:
        order = (False, True) if trace else (False,)
        for traced_sweep in order[::-1] if rounds % 2 else order:
            # Every sweep starts from a collected heap, as in a fresh
            # process.
            gc.collect()
            if not traced_sweep:
                untraced.append(workload.run(seed, SCRATCH))
                if rss is None:
                    rss = peak_rss_mb()
                continue
            spool = SCRATCH / "spool"
            spool.mkdir()
            with Probe(spool) as probe:
                batch = workload.run(seed, SCRATCH)
            traced.append((batch, layer_metrics(probe)))
            spool.rmdir()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return untraced, traced, rss


def traced_metrics(workload, untraced, traced) -> dict:
    """Per-layer metrics: the median of each over the traced sweeps.

    These are the declared layer metrics, which every workload reaches,
    and the report-only ones of the layers only *workload* reaches.
    """
    names = [name for name in declared("layer")
             if name != "obs.trace_overhead_frac"]
    names += workload.own_layers
    per_batch = []
    for batch, layers in traced:
        layers = {**layers, **batch.layers}
        wall = layers.pop("sampling.wall_s", None)
        if wall is not None:
            layers["sampling.window_s"] = (wall - layers["isa.fast_forward_s"]
                                           - layers["snapshot.store_s"])
        per_batch.append(layers)
    metrics = {name: statistics.median(layers[name] for layers in per_batch)
               for name in names}
    metrics["obs.trace_overhead_frac"] = (
        statistics.median(batch.seconds for batch, _ in traced)
        / statistics.median(batch.seconds for batch in untraced) - 1.0)
    return metrics


def benchmark(workload, seed: int, seconds: float, trace: bool):
    """Measure *workload* and check its outputs.

    Returns ``(values, checks, digest)``: every metric the run measured
    by name (``None`` where a seed has no reference), the output checks
    as ``(name, held)`` pairs, and the results digest of the first sweep.
    """
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        untraced, traced, rss = measure(workload, seed, seconds, trace)
        setup = setup_seconds(workload.programs, seed)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    batches = untraced + [batch for batch, _ in traced]
    checks = [check for batch in batches for check in batch.checks]
    checks.append(("every sweep gave the same results digest",
                   len({batch.digest for batch in batches}) == 1))
    values = {
        "setup_s": setup,
        "sim_insts_per_s": statistics.median(
            batch.insts / batch.seconds for batch in untraced),
        "peak_rss_mb": rss,
        "failed_frac": sum(not ok for _, ok in checks) / len(checks),
    }
    for name in untraced[0].report:
        measured = [batch.report[name] for batch in untraced]
        values[name] = (None if None in measured
                        else statistics.median(measured))
    if traced:
        values.update(traced_metrics(workload, untraced, traced))
    return values, checks, untraced[0].digest


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source ({SRC / 'repro'}) is "
              f"missing", file=sys.stderr)
        return 2
    for name in SHADOWED:
        os.environ.pop(name, None)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]()
    values, checks, digest = benchmark(workload, args.seed, args.seconds,
                                       bool(args.trace))
    host = host_identity()
    failures = [name for name, ok in checks if not ok]

    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"results sha256 {digest}")
    for name in failures:
        print(f"FAILED check: {name}")
    for name, value in values.items():
        unit, better, _ = METRICS[name]
        shown = "missing (no reference for this seed)" if value is None \
            else f"{value:.6g}"
        print(f"  {name:<38} {shown:>14} {unit:<12} ({better} is better)")

    scope = "layer" if args.trace else "e2e"
    result = {
        "correct": not failures,
        "attempted": len(checks),
        "failed": len(failures),
        "metrics": {name: {"value": values[name],
                           "unit": METRICS[name][0]}
                    for name in declared(scope)},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
