"""Wall-clock benchmark of the parallel sweep runner.

Runs one fixed suite sweep several ways — serially (``jobs=1``), fanned
out across a fresh worker pool, again on the same (warm) pool, and
through a cold-then-warm result cache — verifies every variant is
metric-identical to serial, and records wall-clock times plus
simulated-instructions-per-second into ``BENCH_sweep.json`` at the repo
root (the perf trajectory file; each entry is appended, so the history
survives re-runs).

Entries are written through
:func:`repro.analysis.perf_report.append_entry` — schema-tagged,
stably key-ordered, deduplicated — so ``repro report`` can always
render the trajectory.  Each entry also carries provenance (git
commit via :func:`repro.analysis.provenance.git_commit`, UTC
timestamp, python version — see :func:`provenance`), the dispatch chunk size
(``repro.analysis.parallel.resolve_chunksize``), the pool-reuse and
cache sections, the serial run's per-cell wall-clock costs (the slowest
cells, from ``run_cells(timings=...)``) and a tracer overhead section
comparing an untraced run against ring-buffer and JSONL tracing
(min-of-N, docs/OBSERVABILITY.md).

Run directly (``python benchmarks/bench_wallclock.py``) or via
``make bench-wallclock``.  Knobs: ``REPRO_JOBS`` sets the parallel
worker count (default: all cores), ``REPRO_TRACE_LEN`` the per-cell
trace length, ``REPRO_CHUNKSIZE`` the cells per worker dispatch.

``--sampled`` runs the checkpointed-sampling benchmark instead
(docs/SAMPLING.md): each workload gets one full detailed
million-instruction reference run and one sampled run at the
validated plan (16 windows of 200+1200), and the entry records
per-workload IPC error, effective insts/s and speedup with
``"shape": "sampled"`` so the detailed-throughput regression guard
never mixes the two populations.

The recorded ``cpu_count`` is what makes the speedup interpretable:
on a single-core host the parallel path degenerates to process overhead
and the honest speedup is ~1x or below; the >= 1.5x criterion applies
to hosts with >= 2 cores.  A degenerate run whose parallel time rounds
to zero records no ``speedup`` at all (``None`` would read as
"infinitely slower"; see :func:`speedup_of`).
"""

from __future__ import annotations

import datetime
import os
import pathlib
import platform
import sys
import tempfile
import time
from typing import Optional

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from repro.analysis.cache import ResultCache, use_cache
from repro.analysis.perf_report import append_entry
from repro.analysis.provenance import git_commit
from repro.analysis.parallel import (SweepCell, WorkerPool,
                                     resolve_chunksize, resolve_jobs,
                                     resolve_trace_length, run_cells)
from repro.core import make_config, simulate
from repro.obs import EventTracer, JsonlSink, RingBufferSink
from repro.workloads import clear_trace_cache, workload_names, \
    workload_trace

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_sweep.json"

#: The benchmark sweep: every suite workload at 2 and 4 clusters.
CONFIGS = ((2, "stride", "vpb"), (4, "stride", "vpb"))


def build_cells(length: int):
    return [SweepCell(key=(name, n), workload=name, n_clusters=n,
                      predictor=predictor, steering=steering, length=length)
            for name in workload_names()
            for n, predictor, steering in CONFIGS]


def speedup_of(serial_s: float, parallel_s: float) -> Optional[float]:
    """Serial/parallel ratio, or ``None`` when it cannot be computed.

    A zero (or negative, after clock weirdness) parallel time means the
    run was too fast to measure; the old ``0.0`` sentinel read as
    "infinitely slower" in the trajectory, so the field is omitted
    instead (the BENCH schema treats a missing/``null`` speedup as
    "not measurable", see docs/PERFORMANCE.md).
    """
    if parallel_s <= 0.0 or serial_s < 0.0:
        return None
    return round(serial_s / parallel_s, 3)


def rate_of(insts: int, seconds: float) -> Optional[float]:
    """Instructions per second, or ``None`` for unmeasurable runs."""
    if seconds <= 0.0:
        return None
    return round(insts / seconds, 1)


def provenance() -> dict:
    """Where and when this entry was measured.

    The git commit (plus a ``-dirty`` suffix for uncommitted changes),
    a UTC timestamp and the interpreter version make every trajectory
    entry attributable after the fact; without them a regression in the
    history cannot be tied to the change that caused it.  Entries
    recorded outside a git checkout carry ``"commit": null``.
    """
    timestamp = datetime.datetime.now(datetime.timezone.utc)
    return {
        "commit": git_commit(),
        "timestamp_utc": timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
    }


def timed_run(cells, jobs: int, timings=None, cache=None):
    # Drop the in-process trace cache so the serial and parallel paths
    # both pay (or amortize) trace generation the same way a fresh
    # campaign would.
    clear_trace_cache()
    start = time.perf_counter()
    results = run_cells(cells, jobs=jobs, timings=timings, cache=cache)
    elapsed = time.perf_counter() - start
    return results, elapsed


def pool_reuse_timings(cells, jobs: int) -> dict:
    """Cold (worker startup included) vs warm (reused pool) sweep times.

    The pre-fix drivers each constructed a fresh executor, so every
    figure paid the cold cost; the warm number is what a batch of
    drivers inside one ``with WorkerPool(...)`` block pays per sweep.
    """
    with WorkerPool(jobs) as pool:
        _, cold_s = timed_run(cells, jobs=jobs)
        results, warm_s = timed_run(cells, jobs=jobs)
        assert pool.started or jobs <= 1
    return results, {
        "cold_seconds": round(cold_s, 3),
        "warm_seconds": round(warm_s, 3),
    }


def cache_timings(cells, serial) -> dict:
    """Cold-populate vs warm-hit sweep times through a fresh cache."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        _, cold_s = timed_run(cells, jobs=1, cache=cache)
        cold_stats = (cache.stats.hits, cache.stats.misses)
        warm, warm_s = timed_run(cells, jobs=1, cache=cache)
        warm_hits = cache.stats.hits - cold_stats[0]
        identical = warm.keys() == serial.keys() and all(
            warm[key].to_dict() == serial[key].to_dict() for key in serial)
    return {
        "cold_seconds": round(cold_s, 3),
        "warm_seconds": round(warm_s, 3),
        "cold_misses": cold_stats[1],
        "warm_hits": warm_hits,
        "warm_speedup": speedup_of(cold_s, warm_s),
        "metric_identical": identical,
    }


#: The sampled benchmark's plan and population (docs/SAMPLING.md).
#: The workloads are the suite members the k16/200+1200 plan was
#: validated on; the acceptance bar is >= 6 of them inside both the
#: accuracy and throughput envelopes on an idle host.
SAMPLED_WORKLOADS = ("mesatexgen", "cjpeg", "rawcaudio", "mpeg2enc",
                     "mesaosdemo", "rasta", "gsmdec", "pgpdec")
SAMPLED_LENGTH = 1_000_000
SAMPLED_MAX_ERROR = 0.02
SAMPLED_MIN_SPEEDUP = 20.0


def sampled_benchmark() -> int:
    """Detailed-vs-sampled benchmark; appends a ``shape: sampled`` entry."""
    from repro.analysis.sampling import SamplingConfig
    from repro.isa.executor import FunctionalExecutor
    from repro.workloads import build_workload

    sampling = SamplingConfig(interval=1200, warmup=200, samples=16)
    config = make_config(2, predictor="stride", steering="vpb")
    print(f"sampled sweep: {len(SAMPLED_WORKLOADS)} workloads x "
          f"{SAMPLED_LENGTH} insts, {sampling.samples} windows of "
          f"{sampling.warmup}+{sampling.interval} (2 clusters, "
          f"stride/vpb)")

    rows = []
    for name in SAMPLED_WORKLOADS:
        start = time.perf_counter()
        detailed = simulate(
            FunctionalExecutor(build_workload(name), SAMPLED_LENGTH).run(),
            config, max_instructions=SAMPLED_LENGTH)
        detailed_s = time.perf_counter() - start
        ref_ipc = detailed.stats.committed_insts / detailed.stats.cycles

        sampled = simulate(build_workload(name), config,
                           max_instructions=SAMPLED_LENGTH,
                           sampling=sampling, workload_name=name)
        error = (sampled.ipc - ref_ipc) / ref_ipc
        detailed_rate = detailed.stats.committed_insts / detailed_s
        speedup = sampled.effective_insts_per_second / detailed_rate
        passed = (abs(error) <= SAMPLED_MAX_ERROR
                  and speedup >= SAMPLED_MIN_SPEEDUP)
        rows.append({
            "workload": name,
            "detailed_ipc": round(ref_ipc, 4),
            "sampled_ipc": round(sampled.ipc, 4),
            "ipc_error": round(error, 4),
            "ipc_ci95": round(sampled.ipc_ci95, 4),
            "detailed_seconds": round(detailed_s, 3),
            "sampled_seconds": round(sampled.wall_seconds, 3),
            "detailed_insts_per_second": rate_of(
                detailed.stats.committed_insts, detailed_s),
            "effective_insts_per_second": round(
                sampled.effective_insts_per_second, 1),
            "speedup": round(speedup, 2),
            "within_bars": passed,
        })
        print(f"  {name:12s}: sampled {sampled.ipc:.4f} vs detailed "
              f"{ref_ipc:.4f} ({error:+.2%}), {speedup:.1f}x "
              f"[{'ok' if passed else 'MISS'}]")

    passing = sum(row["within_bars"] for row in rows)
    errors = [abs(row["ipc_error"]) for row in rows]
    entry = {
        "benchmark": "sampled_sweep",
        "shape": "sampled",
        **provenance(),
        "cpu_count": os.cpu_count(),
        "trace_length": SAMPLED_LENGTH,
        "sampling": sampling.canonical_dict(),
        "config": {"clusters": 2, "predictor": "stride",
                   "steering": "vpb"},
        "workloads": rows,
        "max_ipc_error": round(max(errors), 4),
        "mean_ipc_error": round(sum(errors) / len(errors), 4),
        "min_speedup": min(row["speedup"] for row in rows),
        "median_speedup": sorted(row["speedup"] for row in rows)[
            len(rows) // 2],
        "workloads_within_bars": passing,
        "bars": {"max_ipc_error": SAMPLED_MAX_ERROR,
                 "min_speedup": SAMPLED_MIN_SPEEDUP,
                 "min_workloads": 6},
    }
    append_entry(RESULT_PATH, entry)
    print(f"{passing}/{len(rows)} workloads within both bars "
          f"(need >= 6); max |error| {entry['max_ipc_error']:.2%}, "
          f"median speedup {entry['median_speedup']:.1f}x")
    print(f"recorded in {RESULT_PATH}")
    return 0 if passing >= 6 else 1


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sampled", action="store_true",
                        help="run the checkpointed-sampling benchmark "
                             "instead of the sweep-parallelism one")
    args = parser.parse_args(argv)
    # Shadow any ambient REPRO_CACHE: the serial/parallel timings must
    # measure simulation, and the cache section brings its own cache.
    with use_cache(None):
        if args.sampled:
            return sampled_benchmark()
        return _main()


def _main() -> int:
    length = resolve_trace_length(None, default=4_000)
    jobs = resolve_jobs(int(os.environ["REPRO_JOBS"])
                        if "REPRO_JOBS" in os.environ else 0)
    cells = build_cells(length)
    chunksize = resolve_chunksize(None, len(cells), jobs)
    print(f"sweep: {len(cells)} cells x {length} instructions; "
          f"parallel jobs={jobs}, chunksize={chunksize} "
          f"(cpu_count={os.cpu_count()})")

    cell_timings: dict = {}
    serial, serial_s = timed_run(cells, jobs=1, timings=cell_timings)
    print(f"serial  : {serial_s:.2f}s")
    parallel, pool_reuse = pool_reuse_timings(cells, jobs)
    parallel_s = pool_reuse["warm_seconds"]
    print(f"parallel: {pool_reuse['cold_seconds']:.2f}s cold pool, "
          f"{parallel_s:.2f}s warm pool")
    cache = cache_timings(cells, serial)
    print(f"cache   : {cache['cold_seconds']:.2f}s cold, "
          f"{cache['warm_seconds']:.2f}s warm "
          f"({cache['warm_hits']} hit(s))")
    slowest = sorted(cell_timings.items(), key=lambda kv: -kv[1])[:5]
    for key, seconds in slowest:
        print(f"  slow cell {key}: {seconds:.2f}s")
    overhead = tracer_overhead(length)
    print(f"tracer overhead: ring {overhead['ring_overhead']:+.1%}, "
          f"jsonl {overhead['jsonl_overhead']:+.1%}")

    identical = serial.keys() == parallel.keys() and all(
        serial[key].to_dict() == parallel[key].to_dict() for key in serial)
    identical = identical and cache["metric_identical"]
    insts = sum(result.stats.committed_insts for result in serial.values())
    speedup = speedup_of(serial_s, parallel_s)
    entry = {
        "benchmark": "sweep_wallclock",
        "shape": "serial",
        **provenance(),
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "chunksize": chunksize,
        "cells": len(cells),
        "trace_length": length,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "pool_reuse": pool_reuse,
        "cache": cache,
        "simulated_insts": insts,
        "serial_insts_per_second": rate_of(insts, serial_s),
        "parallel_insts_per_second": rate_of(insts, parallel_s),
        "metric_identical": identical,
        "slowest_cells": [{"workload": key[0], "clusters": key[1],
                           "seconds": round(seconds, 3)}
                          for key, seconds in slowest],
        "tracer_overhead": overhead,
    }
    if speedup is not None:
        entry["speedup"] = speedup
    append_entry(RESULT_PATH, entry)
    shown = f"{speedup:.2f}x" if speedup is not None else "n/a"
    print(f"speedup : {shown} on {jobs} job(s) (warm pool); "
          f"cache warm rerun "
          f"{cache['warm_speedup'] or 'n/a'}x vs cold")
    print(f"metric-identical: {identical}")
    print(f"recorded in {RESULT_PATH}")
    return 0 if identical else 1


def tracer_overhead(length: int, repeats: int = 3) -> dict:
    """Min-of-N wall-clock of one run untraced vs ring vs JSONL.

    The three variants are interleaved within each repeat so host
    drift hits them equally; min over repeats filters the noise.
    Ratios > 1 are tracing cost.
    """
    trace = list(workload_trace("cjpeg", length))
    config = make_config(4, predictor="stride", steering="vpb")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.jsonl")

        def jsonl_run():
            sink = JsonlSink(path, config.describe())
            try:
                simulate(list(trace), config, tracer=EventTracer(sink))
            finally:
                sink.close()

        variants = (
            ("baseline", lambda: simulate(list(trace), config)),
            ("ring", lambda: simulate(
                list(trace), config,
                tracer=EventTracer(RingBufferSink()))),
            ("jsonl", jsonl_run),
        )
        times = {name: [] for name, _ in variants}
        for _ in range(repeats):
            for name, run in variants:
                start = time.perf_counter()
                run()
                times[name].append(time.perf_counter() - start)
    baseline = min(times["baseline"])
    ring = min(times["ring"])
    jsonl = min(times["jsonl"])
    return {
        "baseline_seconds": round(baseline, 4),
        "ring_seconds": round(ring, 4),
        "jsonl_seconds": round(jsonl, 4),
        "ring_overhead": round(ring / baseline - 1.0, 4),
        "jsonl_overhead": round(jsonl / baseline - 1.0, 4),
    }


if __name__ == "__main__":
    sys.exit(main())
