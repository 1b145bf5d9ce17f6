"""Observability health gate: ``make obs-check``.

Runs one short simulation four ways — untraced, ring-buffer traced,
JSONL traced, Chrome traced — and asserts the contract documented in
docs/OBSERVABILITY.md:

1. **Non-invasiveness** — every ``SimStats`` field of the traced runs
   is bit-identical to the untraced run.
2. **Completeness** — the tracer's commit-event count equals
   ``committed_insts + committed_copies + committed_vcopies``.
3. **Schema validity** — the JSONL file passes
   :func:`repro.obs.schema.validate_jsonl_trace` and the Chrome file
   passes :func:`repro.obs.schema.validate_chrome_trace`.
4. **Overhead** — ring-buffer tracing costs < 10% wall-clock over the
   untraced run (``harness``'s interleaved min-of-N timing).
5. **Zero-cost when off** — an untraced, unmetered run performs *no*
   allocation from any ``repro.obs`` module (tracemalloc audit): the
   disabled hooks must stay behind their ``is not None`` guards, so
   turning observability off really removes it from the hot loop.

Exit code 0 when every check passes, 1 otherwise.  The tier-1 test
suite runs :func:`run_checks` directly, so a regression in any of
these fails ``make test`` as well as ``make obs-check``.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import pathlib
import sys
import tempfile
import tracemalloc

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness
from repro.core import make_config, simulate
from repro.obs import (ChromeTraceSink, EventTracer, JsonlSink,
                       RingBufferSink)
from repro.obs.events import EV_COMMIT
from repro.obs.schema import (TraceSchemaError, validate_chrome_trace,
                              validate_jsonl_trace)
from repro.workloads import workload_trace

#: Wall-clock overhead budget for ring-buffer tracing.
OVERHEAD_BUDGET = 0.10


def _measure_overhead(trace, config, repeats: int):
    """Min-of-N interleaved timing of untraced vs ring-traced runs.

    The collector pause (see ``harness``) matters here: the traced run
    allocates more, so with the collector on it pays extra whole-heap
    scans whose cost is a property of the host's heap, not the tracer.
    """
    best = harness.interleaved_min({
        "untraced": lambda: simulate(list(trace), config),
        "ring": lambda: simulate(list(trace), config,
                                 tracer=EventTracer(RingBufferSink())),
    }, repeats)
    untraced_s, ring_s = best["untraced"][1], best["ring"][1]
    return untraced_s, ring_s, ring_s / untraced_s - 1.0


def _obs_off_allocations(trace, config):
    """Bytes allocated from ``repro.obs`` modules by an untraced run.

    With the tracer and interval metrics both disabled every obs hook
    sits behind an ``is not None`` guard, so a hot-loop simulation must
    not execute — let alone allocate in — any ``repro.obs`` code.  A
    non-zero figure means a hook escaped its guard (the regression this
    gate exists to catch: "disabled observability costs nothing").
    tracemalloc attributes every allocation to the source file that
    made it, which pins the offender directly.
    """
    obs_dir = os.path.join("repro", "obs") + os.sep
    gc.collect()
    tracemalloc.start()
    try:
        simulate(list(trace), config)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    offenders = {}
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename
        if obs_dir in filename:
            offenders[os.path.basename(filename)] = stat.size
    return offenders


def run_checks(length: int = 4000, repeats: int = 5,
               overhead_budget: float = OVERHEAD_BUDGET,
               check_overhead: bool = True) -> list:
    """Run every check; returns a list of (name, ok, detail) tuples."""
    trace = list(workload_trace("cjpeg", length))
    config = make_config(4, predictor="stride", steering="vpb")
    checks = []

    if check_overhead:
        # Timed first, on a clean heap: the schema/serialization
        # checks below churn enough garbage to visibly slow later runs.
        untraced_s, ring_s, overhead = harness.within_budget(
            lambda repeats: _measure_overhead(trace, config, repeats),
            repeats, lambda reading: reading[2], overhead_budget)
        checks.append((f"ring overhead < {overhead_budget:.0%}",
                       overhead < overhead_budget,
                       f"{overhead:+.1%} ({untraced_s:.3f}s -> "
                       f"{ring_s:.3f}s)"))

    offenders = _obs_off_allocations(trace, config)
    checks.append(("obs-off allocates nothing in repro.obs",
                   not offenders,
                   "no obs-module allocations" if not offenders else
                   ", ".join(f"{name}: {size}B"
                             for name, size in sorted(offenders.items()))))

    base = simulate(list(trace), config)
    ring_tracer = EventTracer(RingBufferSink())
    ring = simulate(list(trace), config, tracer=ring_tracer)
    identical = (dataclasses.asdict(base.stats)
                 == dataclasses.asdict(ring.stats))
    checks.append(("non-invasive (stats bit-identical)", identical,
                   "" if identical else "traced stats diverge"))

    stats = ring.stats
    expected = (stats.committed_insts + stats.committed_copies
                + stats.committed_vcopies)
    commits = ring_tracer.counts[EV_COMMIT]
    checks.append(("commit events == committed uops",
                   commits == expected,
                   f"{commits} events vs {expected} committed"))

    with tempfile.TemporaryDirectory() as tmp:
        jsonl_path = os.path.join(tmp, "trace.jsonl")
        chrome_path = os.path.join(tmp, "trace.json")
        with JsonlSink(jsonl_path, config.describe()) as sink:
            simulate(list(trace), config, tracer=EventTracer(sink))
        with ChromeTraceSink(chrome_path, config.describe()) as sink:
            simulate(list(trace), config, tracer=EventTracer(sink))
        for label, validate, path in (
                ("jsonl schema", validate_jsonl_trace, jsonl_path),
                ("chrome schema", validate_chrome_trace, chrome_path)):
            try:
                count = validate(path)
                checks.append((label, True, f"{count} events"))
            except TraceSchemaError as error:
                checks.append((label, False, str(error)))

    return checks


def main() -> int:
    return harness.report(run_checks(), "observability")


if __name__ == "__main__":
    sys.exit(main())
