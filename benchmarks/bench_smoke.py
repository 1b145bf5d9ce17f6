"""Sub-minute smoke gate for the sweep fast paths (``make bench-smoke``).

Three properties, asserted (exit 1 on violation), all on a small sweep
so the gate stays well under a minute:

1. **Parallel wins** — on a multi-core host, a warm-pool chunked
   parallel sweep must not be slower than serial (the PR 2 regression:
   per-cell dispatch + per-driver executor startup made ``jobs=2``
   *slower*).  Single-core hosts skip this assertion (the honest
   expectation there is ~1x or below) but still exercise the path.
2. **Cache works** — a cold-then-warm cache cycle: the warm rerun must
   be all hits (zero simulations dispatched) and faster than cold.
3. **Nothing drifts** — every variant (parallel, cold cache, warm
   cache) is metric-identical to the serial, uncached sweep.
4. **Single-core throughput holds** — the serial sweep's simulated
   instructions per second must stay within 20% of the best
   same-shape ``smoke_guard`` entry in ``BENCH_sweep.json``; every
   run appends its own entry (with provenance), so the guard tracks
   the best rate this host has ever demonstrated.  Entries from a
   different trace length, cell count or core count are not
   comparable (shorter traces amortize less trace generation) and are
   ignored.

Run directly or via ``make bench-smoke``; honours ``REPRO_JOBS`` /
``REPRO_CHUNKSIZE``.  See docs/PERFORMANCE.md.
"""

from __future__ import annotations

import os
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from bench_wallclock import provenance, rate_of
from repro.analysis.cache import ResultCache, use_cache
from repro.analysis.perf_report import append_entry, load_history
from repro.analysis.parallel import (SweepCell, WorkerPool,
                                     resolve_chunksize, resolve_jobs,
                                     run_cells)
from repro.workloads import clear_trace_cache, workload_names

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_sweep.json"

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


def timed(cells, **kwargs):
    clear_trace_cache()
    start = time.perf_counter()
    results = run_cells(cells, **kwargs)
    return results, time.perf_counter() - start


def identical(a, b) -> bool:
    return a.keys() == b.keys() and all(
        a[key].to_dict() == b[key].to_dict() for key in a)


def best_comparable_rate(history, n_cells: int, cores: int):
    """Best serial insts/s among same-shape smoke_guard entries.

    Only entries measured with this gate's own sweep shape on a host
    with the same core count are rate-comparable; ``None`` when no
    prior entry qualifies (first run on a host).
    """
    rates = [entry.get("serial_insts_per_second") for entry in history
             if entry.get("benchmark") == "smoke_guard"
             and entry.get("shape") == "serial"
             and entry.get("trace_length") == LENGTH
             and entry.get("cells") == n_cells
             and entry.get("cpu_count") == cores
             and entry.get("serial_insts_per_second")]
    return max(rates) if rates else None


def check_throughput(cells, serial, serial_s: float, cores: int,
                     failures) -> None:
    """Gate 4: guard single-core throughput, then record this run.

    Timing noise on a shared (or single-core) host is one-sided — a
    preempted run only ever reads *slower* — so a reading below the
    floor is re-measured up to twice and the best observation wins,
    the same policy the obs-check overhead gate uses.  A genuine
    regression fails every reading.
    """
    insts = sum(result.stats.committed_insts for result in serial.values())
    rate = rate_of(insts, serial_s)
    history = load_history(RESULT_PATH)
    best = best_comparable_rate(history, len(serial), cores)
    if rate is None:
        print("throughput    : unmeasurable (zero-duration serial run); "
              "guard skipped")
        return
    if best is None:
        print(f"throughput    : {rate:,.0f} insts/s serial "
              "(no comparable history; guard passes vacuously)")
    else:
        floor = best * (1.0 - REGRESSION_BUDGET)
        for _ in range(2):
            if rate >= floor:
                break
            retry, retry_s = timed(cells, jobs=1)
            retry_rate = rate_of(
                sum(r.stats.committed_insts for r in retry.values()),
                retry_s)
            if retry_rate is not None and retry_rate > rate:
                rate, serial_s = retry_rate, retry_s
        print(f"throughput    : {rate:,.0f} insts/s serial "
              f"(best recorded {best:,.0f}, floor {floor:,.0f})")
        if rate < floor:
            failures.append(
                f"serial throughput {rate:,.0f} insts/s is more than "
                f"{REGRESSION_BUDGET:.0%} below the best recorded "
                f"{best:,.0f} insts/s")
            return  # a failed run must not enter the history
    append_entry(RESULT_PATH, {
        "benchmark": "smoke_guard",
        "shape": "serial",
        **provenance(),
        "cpu_count": cores,
        "cells": len(serial),
        "trace_length": LENGTH,
        "serial_seconds": round(serial_s, 3),
        "simulated_insts": insts,
        "serial_insts_per_second": rate,
    })


def main() -> int:
    failures = []
    cells = build_cells()
    jobs = resolve_jobs(int(os.environ["REPRO_JOBS"])
                        if "REPRO_JOBS" in os.environ else 0)
    cores = os.cpu_count() or 1
    chunksize = resolve_chunksize(None, len(cells), jobs)
    print(f"smoke sweep: {len(cells)} cells x {LENGTH} instructions; "
          f"jobs={jobs}, chunksize={chunksize}, cpu_count={cores}")

    with use_cache(None):
        serial, serial_s = timed(cells, jobs=1)
        print(f"serial        : {serial_s:.2f}s")
        check_throughput(cells, serial, serial_s, cores, failures)

        with WorkerPool(jobs):
            timed(cells, jobs=jobs)  # cold: pays worker startup
            parallel, parallel_s = timed(cells, jobs=jobs)  # warm pool
        print(f"parallel warm : {parallel_s:.2f}s "
              f"(x{serial_s / parallel_s:.2f})" if parallel_s
              else "parallel warm : <1ms")
        if not identical(serial, parallel):
            failures.append("parallel sweep drifted from serial")
        if cores >= 2 and jobs >= 2:
            if parallel_s > serial_s:
                failures.append(
                    f"parallel ({parallel_s:.2f}s) slower than serial "
                    f"({serial_s:.2f}s) on a {cores}-core host")
        else:
            print("single-core host (or jobs=1): speedup assertion "
                  "skipped")

        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(tmp)
            cold, cold_s = timed(cells, jobs=1, cache=cache)
            cold_hits = cache.stats.hits
            warm, warm_s = timed(cells, jobs=1, cache=cache)
            warm_hits = cache.stats.hits - cold_hits
            warm_misses = cache.stats.misses - len(cells)
            print(f"cache         : {cold_s:.2f}s cold -> {warm_s:.2f}s "
                  f"warm ({warm_hits} hits)")
            if warm_hits != len(cells) or warm_misses != 0:
                failures.append(
                    f"warm cache rerun simulated: {warm_hits} hits / "
                    f"{warm_misses} misses over {len(cells)} cells")
            if warm_s >= cold_s:
                failures.append(
                    f"warm cache rerun ({warm_s:.2f}s) not faster than "
                    f"cold ({cold_s:.2f}s)")
            if not identical(serial, cold) or not identical(serial, warm):
                failures.append("cached sweep drifted from serial")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("bench-smoke: all assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
