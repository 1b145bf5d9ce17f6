"""Sub-minute smoke gate for the sweep fast paths (``make bench-smoke``).

Runs ``bench_wallclock``'s serial, warm-pool and cold/warm-cache
measurements on a small sweep, so the gate stays well under a minute,
and asserts on their results (exit 1 on violation):

1. **Parallel wins** — on a multi-core host, a warm-pool chunked
   parallel sweep must not be slower than serial (the regression this
   gate was written for: per-cell dispatch + per-driver executor
   startup made ``jobs=2`` *slower*).  Single-core hosts skip this
   assertion (the honest expectation there is ~1x or below) but still
   exercise the path.
2. **Cache works** — a cold-then-warm cache cycle: the warm rerun must
   be all hits (zero simulations dispatched) and faster than cold.
3. **Nothing drifts** — every variant (parallel, cold cache, warm
   cache) is metric-identical to the serial, uncached sweep.
4. **Single-core throughput holds** — the serial sweep's simulated
   instructions per second must stay within 20% of the best
   ``smoke_guard`` entry in ``BENCH_sweep.json`` with the same
   :func:`repro.analysis.perf_report.shape_key` (trace length, cell
   count, core count: shorter traces amortize less trace generation).
   Every run that passes this check appends its own entry, so the
   guard tracks the best rate this host has ever demonstrated.

Run directly or via ``make bench-smoke``; honours ``REPRO_JOBS``.  See
docs/PERFORMANCE.md.
"""

from __future__ import annotations

import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import harness
from bench_wallclock import (RESULT_PATH, cache_timings, committed_insts,
                             identical, pool_reuse_timings, rate_of,
                             sweep_jobs, timed_sweep)
from repro.analysis.cache import use_cache
from repro.analysis.parallel import SweepCell, resolve_chunksize
from repro.analysis.perf_report import append_entry, load_history, \
    shape_key
from repro.analysis.provenance import stamp
from repro.workloads import workload_names

#: Small but not trivial: enough cells that chunked dispatch matters,
#: short enough traces that the whole gate runs in seconds.
LENGTH = 1_500
N_WORKLOADS = 8
CONFIGS = ((2, "stride", "vpb"), (4, "stride", "vpb"))

#: Fractional throughput loss vs the best recorded same-shape run that
#: fails the gate.
REGRESSION_BUDGET = 0.20


def build_cells():
    names = workload_names()[:N_WORKLOADS]
    return [SweepCell(key=(name, n), workload=name, n_clusters=n,
                      predictor=predictor, steering=steering,
                      length=LENGTH)
            for name in names
            for n, predictor, steering in CONFIGS]


def best_comparable_rate(history, entry):
    """Best serial insts/s among *history* entries shaped like *entry*.

    ``None`` when no prior entry qualifies (first run on a host).
    """
    rates = [prior["serial_insts_per_second"] for prior in history
             if shape_key(prior) == shape_key(entry)
             and prior.get("serial_insts_per_second")]
    return max(rates) if rates else None


def main() -> int:
    cells = build_cells()
    jobs = sweep_jobs()
    cores = os.cpu_count() or 1
    print(f"smoke sweep: {len(cells)} cells x {LENGTH} instructions; "
          f"jobs={jobs}, chunksize="
          f"{resolve_chunksize(None, len(cells), jobs)}, cpu_count={cores}")
    shape = {"benchmark": "smoke_guard", "shape": "serial",
             "trace_length": LENGTH, "cells": len(cells),
             "cpu_count": os.cpu_count()}
    best = best_comparable_rate(load_history(RESULT_PATH), shape)
    floor = best * (1.0 - REGRESSION_BUDGET) if best else 0.0

    def short_of_floor(reading) -> float:
        """Instructions the serial reading falls short of the floor by."""
        results, seconds = reading
        return floor * seconds - committed_insts(results)

    with use_cache(None):
        serial, serial_s = harness.within_budget(
            lambda repeats: timed_sweep(cells, 1, repeats), 1,
            short_of_floor, 0.0)
        parallel, pool_reuse = pool_reuse_timings(cells, jobs)
        cache = cache_timings(cells, serial)

    insts = committed_insts(serial)
    rate = rate_of(insts, serial_s)
    parallel_s = pool_reuse["warm_seconds"]
    multi_core = cores >= 2 and jobs >= 2
    checks = [
        (f"serial throughput within {REGRESSION_BUDGET:.0%} of best",
         rate >= floor,
         f"{rate:,.0f} insts/s in {serial_s:.2f}s "
         + (f"(best recorded {best:,.0f}, floor {floor:,.0f})" if best
            else "(no comparable history; passes vacuously)")),
        ("parallel identical to serial", identical(serial, parallel),
         f"{parallel_s:.2f}s warm pool, {jobs} job(s)"),
        ("parallel not slower than serial",
         parallel_s <= serial_s or not multi_core,
         f"{parallel_s:.2f}s vs {serial_s:.2f}s" if multi_core
         else "skipped: single-core host or jobs=1"),
        ("warm cache all hits", cache["warm_hits"] == len(cells),
         f"{cache['warm_hits']} hit(s) over {len(cells)} cells"),
        ("warm cache faster than cold",
         cache["warm_seconds"] < cache["cold_seconds"],
         f"{cache['cold_seconds']:.2f}s cold -> "
         f"{cache['warm_seconds']:.2f}s warm"),
        ("cached sweeps identical to serial", cache["metric_identical"],
         ""),
    ]
    if rate >= floor:  # a run below the floor must not enter the history
        append_entry(RESULT_PATH, {
            **shape,
            **stamp(),
            "serial_seconds": round(serial_s, 3),
            "simulated_insts": insts,
            "serial_insts_per_second": rate,
        })
    return harness.report(checks, "bench-smoke")


if __name__ == "__main__":
    sys.exit(main())
