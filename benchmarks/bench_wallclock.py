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
render the trajectory.  Each entry also carries the provenance stamp
(:func:`repro.analysis.provenance.stamp`: git commit, UTC timestamp,
host), the dispatch chunk size
(``repro.analysis.parallel.resolve_chunksize``), the pool-reuse and
cache sections, the serial run's per-cell wall-clock costs (the slowest
cells, from ``run_cells(timings=...)``) and a tracer overhead section
comparing an untraced run against ring-buffer and JSONL tracing.
Every reading is taken under the one timing protocol of
``benchmarks/harness.py``.

Run directly (``python benchmarks/bench_wallclock.py``) or via
``make bench-wallclock``.  Knobs: ``REPRO_JOBS`` sets the parallel
worker count (default: all cores), ``REPRO_TRACE_LEN`` the per-cell
trace length.

``--sampled`` runs the checkpointed-sampling benchmark instead
(docs/SAMPLING.md): each workload gets one full detailed
million-instruction reference run and one sampled run at the
validated plan (16 windows of 200+1200), and the entry records
per-workload IPC error, effective insts/s and speedup with
``"shape": "sampled"`` so the detailed-throughput regression guard
never mixes the two populations.  ``make sample-check`` gates the same
measurement (:func:`detailed_vs_sampled`) on one workload.

The recorded ``cpu_count`` is what makes the speedup interpretable:
on a single-core host the parallel path degenerates to process overhead
and the honest speedup is ~1x or below; the >= 1.5x criterion applies
to hosts with >= 2 cores.  A degenerate run whose parallel time rounds
to zero records no ``speedup`` at all (``None`` would read as
"infinitely slower"; see :func:`speedup_of`).
"""

from __future__ import annotations

import os
import pathlib
import sys
import tempfile
from typing import Optional

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness
from repro.analysis.cache import ResultCache, use_cache
from repro.analysis.perf_report import append_entry
from repro.analysis.provenance import stamp
from repro.analysis.parallel import (SweepCell, WorkerPool,
                                     resolve_chunksize, resolve_jobs,
                                     resolve_trace_length, run_cells)
from repro.analysis.sampling import SamplingConfig
from repro.core import make_config, simulate
from repro.isa.executor import FunctionalExecutor
from repro.obs import EventTracer, JsonlSink, RingBufferSink
from repro.workloads import build_workload, clear_trace_cache, \
    workload_names, workload_trace

RESULT_PATH = HERE.parent / "BENCH_sweep.json"

#: The benchmark sweep: every suite workload at 2 and 4 clusters.
CONFIGS = ((2, "stride", "vpb"), (4, "stride", "vpb"))


def build_cells(length: int):
    return [SweepCell(key=(name, n), workload=name, n_clusters=n,
                      predictor=predictor, steering=steering, length=length)
            for name in workload_names()
            for n, predictor, steering in CONFIGS]


def sweep_jobs() -> int:
    """The parallel worker count: ``REPRO_JOBS``, else all cores.

    ``resolve_jobs`` validates the variable, so a malformed value
    raises :class:`~repro.errors.ConfigError` naming it.
    """
    return resolve_jobs(None if "REPRO_JOBS" in os.environ else 0)


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


def committed_insts(results) -> int:
    return sum(result.stats.committed_insts for result in results.values())


def identical(a, b) -> bool:
    """True when two result dicts hold the same cells and metrics."""
    return a.keys() == b.keys() and all(
        a[key].to_dict() == b[key].to_dict() for key in a)


def timed_sweep(cells, jobs: int, repeats: int = 1, **kwargs):
    """``(results, min seconds)`` of ``run_cells(cells, jobs=jobs)``.

    Every run starts from an empty in-process trace cache, so serial
    and parallel sweeps pay (or amortize) trace generation the same
    way a fresh campaign would.
    """
    def run():
        clear_trace_cache()
        return run_cells(cells, jobs=jobs, **kwargs)
    return harness.timed(run, repeats)


def pool_reuse_timings(cells, jobs: int) -> tuple:
    """Cold (worker startup included) vs warm (reused pool) sweep times.

    The pre-fix drivers each constructed a fresh executor, so every
    figure paid the cold cost; the warm number is what a batch of
    drivers inside one ``with WorkerPool(...)`` block pays per sweep.
    """
    with WorkerPool(jobs) as pool:
        _, cold_s = timed_sweep(cells, jobs)
        results, warm_s = timed_sweep(cells, jobs)
        assert pool.started or jobs <= 1
    return results, {
        "cold_seconds": round(cold_s, 3),
        "warm_seconds": round(warm_s, 3),
    }


def cache_timings(cells, serial) -> dict:
    """Cold-populate vs warm-hit sweep times through a fresh cache."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        cold, cold_s = timed_sweep(cells, 1, cache=cache)
        cold_stats = (cache.stats.hits, cache.stats.misses)
        warm, warm_s = timed_sweep(cells, 1, cache=cache)
        warm_hits = cache.stats.hits - cold_stats[0]
    return {
        "cold_seconds": round(cold_s, 3),
        "warm_seconds": round(warm_s, 3),
        "cold_misses": cold_stats[1],
        "warm_hits": warm_hits,
        "warm_speedup": speedup_of(cold_s, warm_s),
        "metric_identical": (identical(serial, cold)
                             and identical(serial, warm)),
    }


#: The sampled benchmark's plan and population (docs/SAMPLING.md).
#: The workloads are the suite members the k16/200+1200 plan was
#: validated on; the acceptance bar is >= 6 of them inside both the
#: accuracy and throughput envelopes on an idle host.
SAMPLED_WORKLOADS = ("mesatexgen", "cjpeg", "rawcaudio", "mpeg2enc",
                     "mesaosdemo", "rasta", "gsmdec", "pgpdec")
SAMPLED_LENGTH = 1_000_000
SAMPLED_PLAN = SamplingConfig(interval=1200, warmup=200, samples=16)
SAMPLED_MAX_ERROR = 0.02
SAMPLED_MIN_SPEEDUP = 20.0


def detailed_vs_sampled(name: str, config, length: int = SAMPLED_LENGTH,
                        sampling: SamplingConfig = SAMPLED_PLAN,
                        repeats: int = 1) -> dict:
    """One workload's sampled run against its detailed reference run.

    The detailed run is timed once: it lasts about a minute at a
    million instructions and averages host noise out by itself.  The
    sampled side is min-of-*repeats*, since a run of a few seconds is
    exposed to noise spikes a single shot cannot average away.  Both
    timings include building the workload program; the IPC figures
    are deterministic, so repetition only affects the timing.
    """
    detailed, detailed_s = harness.timed(lambda: simulate(
        FunctionalExecutor(build_workload(name), length).run(), config,
        max_instructions=length))
    sampled, sampled_s = harness.timed(lambda: simulate(
        build_workload(name), config, max_instructions=length,
        sampling=sampling, workload_name=name), repeats)
    ref_ipc = detailed.stats.committed_insts / detailed.stats.cycles
    detailed_rate = detailed.stats.committed_insts / detailed_s
    effective_rate = sampled.total_insts / sampled_s
    return {
        "workload": name,
        "detailed_ipc": round(ref_ipc, 4),
        "sampled_ipc": round(sampled.ipc, 4),
        "ipc_error": round((sampled.ipc - ref_ipc) / ref_ipc, 4),
        "ipc_ci95": round(sampled.ipc_ci95, 4),
        "detailed_seconds": round(detailed_s, 3),
        "sampled_seconds": round(sampled_s, 3),
        "detailed_insts_per_second": round(detailed_rate, 1),
        "effective_insts_per_second": round(effective_rate, 1),
        "speedup": round(effective_rate / detailed_rate, 2),
    }


def sampled_benchmark() -> int:
    """Detailed-vs-sampled benchmark; appends a ``shape: sampled`` entry."""
    sampling = SAMPLED_PLAN
    config = make_config(2, predictor="stride", steering="vpb")
    print(f"sampled sweep: {len(SAMPLED_WORKLOADS)} workloads x "
          f"{SAMPLED_LENGTH} insts, {sampling.samples} windows of "
          f"{sampling.warmup}+{sampling.interval} (2 clusters, "
          f"stride/vpb)")

    rows = []
    for name in SAMPLED_WORKLOADS:
        row = detailed_vs_sampled(name, config)
        row["within_bars"] = (abs(row["ipc_error"]) <= SAMPLED_MAX_ERROR
                              and row["speedup"] >= SAMPLED_MIN_SPEEDUP)
        rows.append(row)
        print(f"  {name:12s}: sampled {row['sampled_ipc']:.4f} vs "
              f"detailed {row['detailed_ipc']:.4f} "
              f"({row['ipc_error']:+.2%}), {row['speedup']:.1f}x "
              f"[{'ok' if row['within_bars'] else 'MISS'}]")

    passing = sum(row["within_bars"] for row in rows)
    errors = [abs(row["ipc_error"]) for row in rows]
    entry = {
        "benchmark": "sampled_sweep",
        "shape": "sampled",
        **stamp(),
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
    jobs = sweep_jobs()
    cells = build_cells(length)
    chunksize = resolve_chunksize(None, len(cells), jobs)
    print(f"sweep: {len(cells)} cells x {length} instructions; "
          f"parallel jobs={jobs}, chunksize={chunksize} "
          f"(cpu_count={os.cpu_count()})")

    cell_timings: dict = {}
    serial, serial_s = timed_sweep(cells, 1, timings=cell_timings)
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

    same = identical(serial, parallel) and cache["metric_identical"]
    insts = committed_insts(serial)
    speedup = speedup_of(serial_s, parallel_s)
    entry = {
        "benchmark": "sweep_wallclock",
        "shape": "serial",
        **stamp(),
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
        "metric_identical": same,
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
    print(f"metric-identical: {same}")
    print(f"recorded in {RESULT_PATH}")
    return 0 if same else 1


def tracer_overhead(length: int, repeats: int = 3) -> dict:
    """Min-of-N wall-clock of one run untraced vs ring vs JSONL.

    Ratios above 1 are tracing cost.  ``make obs-check`` gates the
    ring figure with the same protocol.
    """
    trace = list(workload_trace("cjpeg", length))
    config = make_config(4, predictor="stride", steering="vpb")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.jsonl")

        def jsonl_run():
            with JsonlSink(path, config.describe()) as sink:
                simulate(list(trace), config, tracer=EventTracer(sink))

        best = harness.interleaved_min({
            "baseline": lambda: simulate(list(trace), config),
            "ring": lambda: simulate(
                list(trace), config,
                tracer=EventTracer(RingBufferSink())),
            "jsonl": jsonl_run,
        }, repeats)
    baseline, ring, jsonl = (best[name][1]
                             for name in ("baseline", "ring", "jsonl"))
    return {
        "baseline_seconds": round(baseline, 4),
        "ring_seconds": round(ring, 4),
        "jsonl_seconds": round(jsonl, 4),
        "ring_overhead": round(ring / baseline - 1.0, 4),
        "jsonl_overhead": round(jsonl / baseline - 1.0, 4),
    }


if __name__ == "__main__":
    sys.exit(main())
