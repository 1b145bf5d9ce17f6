"""Sweep-telemetry health gate: ``make telemetry-check``.

Runs a 30-cell sweep (every suite workload x two configurations) under
a :class:`~repro.obs.telemetry.SweepMonitor` and asserts the contract
documented in docs/OBSERVABILITY.md:

1. **Overhead** — monitoring a sweep costs < 2% wall-clock over the
   unmonitored run (``harness``'s interleaved min-of-N timing).
2. **Non-invasiveness** — every ``SimStats`` field of the monitored
   sweep is bit-identical to the unmonitored run's.
3. **Schema validity** — the telemetry JSONL event log passes
   :func:`repro.obs.schema.validate_telemetry_jsonl` and the run
   receipt passes :func:`repro.obs.schema.validate_receipt`.
4. **Honest accounting** — the receipt's cache counters match the
   simulate calls that actually happened: a cold cached sweep reports
   ``simulated == stores == cells`` with zero hits, and the warm rerun
   reports ``hits == cells`` with zero simulations.

Exit code 0 when every check passes, 1 otherwise.  The tier-1 test
suite runs :func:`run_checks` directly, so a regression in any of
these fails ``make test`` as well as ``make telemetry-check``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness
from repro.analysis import ResultCache, SweepCell, run_cells, use_cache
from repro.obs.schema import (TraceSchemaError, validate_receipt,
                              validate_telemetry_jsonl)
from repro.obs.telemetry import SweepMonitor, use_monitor
from repro.workloads import workload_names

#: Wall-clock overhead budget for sweep monitoring.
OVERHEAD_BUDGET = 0.02

#: Two machine configurations; crossed with the 15-workload suite they
#: give the acceptance sweep's 30 cells.
CONFIGS = ((4, "stride", "vpb"), (4, "none", "baseline"))


def build_cells(length: int):
    """The gate's sweep: every suite workload under each configuration."""
    cells = []
    for name in workload_names():
        for n_clusters, predictor, steering in CONFIGS:
            cells.append(SweepCell((name, predictor, steering), name,
                                   n_clusters, predictor=predictor,
                                   steering=steering, length=length))
    return cells


def _measure_overhead(cells, repeats: int):
    """Min-of-N interleaved timing of unmonitored vs monitored sweeps.

    The collector pause (see ``harness``) matters here: the monitor's
    event dicts inflate allocation counts, and with them collection
    frequency.
    """
    def monitored():
        with use_monitor(SweepMonitor()):
            run_cells(cells, jobs=1)

    best = harness.interleaved_min({
        "plain": lambda: run_cells(cells, jobs=1),
        "monitored": monitored,
    }, repeats)
    plain_s, monitored_s = best["plain"][1], best["monitored"][1]
    return plain_s, monitored_s, monitored_s / plain_s - 1.0


def _stats_of(results) -> dict:
    """``{cell key: SimStats-as-dict}`` for bit-identity comparison."""
    return {key: dataclasses.asdict(result.stats)
            for key, result in results.items()}


def run_checks(length: int = 800, repeats: int = 3,
               overhead_budget: float = OVERHEAD_BUDGET,
               check_overhead: bool = True) -> list:
    """Run every check; returns a list of (name, ok, detail) tuples."""
    cells = build_cells(length)
    checks = []
    # use_cache(None) shadows any ambient REPRO_CACHE: the gate must
    # time and count real simulations, not a developer's warm cache.
    with use_cache(None):
        if check_overhead:
            # Timed first, on a clean heap.
            plain_s, monitored_s, overhead = harness.within_budget(
                lambda repeats: _measure_overhead(cells, repeats),
                repeats, lambda reading: reading[2], overhead_budget)
            checks.append((f"monitor overhead < {overhead_budget:.0%}",
                           overhead < overhead_budget,
                           f"{overhead:+.2%} ({plain_s:.3f}s -> "
                           f"{monitored_s:.3f}s, {len(cells)} cells)"))

        plain = _stats_of(run_cells(cells, jobs=1))
        with use_monitor(SweepMonitor()):
            monitored = _stats_of(run_cells(cells, jobs=1))
        checks.append(("non-invasive (stats bit-identical)",
                       plain == monitored,
                       "" if plain == monitored
                       else "monitored stats diverge"))

        with tempfile.TemporaryDirectory() as tmp:
            jsonl_path = os.path.join(tmp, "telemetry.jsonl")
            cold_receipt = os.path.join(tmp, "receipt_cold.json")
            warm_receipt = os.path.join(tmp, "receipt_warm.json")
            cache = ResultCache(os.path.join(tmp, "cache"))
            with use_monitor(SweepMonitor(jsonl_path=jsonl_path)) \
                    as monitor:
                run_cells(cells, jobs=1, cache=cache,
                          receipt_path=cold_receipt)
                monitor.close()
            run_cells(cells, jobs=1, cache=cache,
                      receipt_path=warm_receipt)

            for label, validate, path in (
                    ("telemetry jsonl schema", validate_telemetry_jsonl,
                     jsonl_path),
                    ("cold receipt schema", validate_receipt,
                     cold_receipt),
                    ("warm receipt schema", validate_receipt,
                     warm_receipt)):
                try:
                    count = validate(path)
                    checks.append((label, True,
                                   f"{count} event(s)"
                                   if "jsonl" in label
                                   else f"{count} cell(s)"))
                except TraceSchemaError as error:
                    checks.append((label, False, str(error)))

            with open(cold_receipt, encoding="utf-8") as handle:
                cold = json.load(handle)
            with open(warm_receipt, encoding="utf-8") as handle:
                warm = json.load(handle)
            n = len(cells)
            cold_ok = (cold["cache"]["misses"] == n
                       and cold["cache"]["stores"] == n
                       and cold["cache"]["hits"] == 0
                       and cold["counts"]["simulated"] == n)
            checks.append(("cold receipt counts every simulate call",
                           cold_ok,
                           f"{cold['counts']['simulated']} simulated, "
                           f"{cold['cache']['stores']} stored "
                           f"(expected {n} each)"))
            warm_ok = (warm["cache"]["hits"] == n
                       and warm["cache"]["misses"] == 0
                       and warm["counts"]["simulated"] == 0)
            checks.append(("warm receipt reports zero simulations",
                           warm_ok,
                           f"{warm['cache']['hits']} hit(s), "
                           f"{warm['counts']['simulated']} simulated "
                           f"(expected {n} / 0)"))

    return checks


def main() -> int:
    return harness.report(run_checks(), "telemetry")


if __name__ == "__main__":
    sys.exit(main())
