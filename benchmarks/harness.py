"""The one wall-clock protocol of every benchmark and gate in this folder.

Three things, each defined here and nowhere else:

* **Timing** — :func:`interleaved_min`.  Each repeat runs every variant
  once, in a fixed order, so slow drift in host speed hits all of them
  alike.  Every timed call starts after ``gc.collect()`` with the
  cyclic collector paused, and the collector is re-enabled in a
  ``finally``: collection frequency follows allocation counts, so with
  it running a variant that allocates more also pays whole-heap scans
  whose cost belongs to the host's heap, not to the code under test.
  Timing noise is one-sided (preemption and cache pollution only ever
  add time), so the estimator is the minimum per variant.
  :func:`timed` is the single-variant case.
* **The over-budget policy** — :func:`within_budget`.  A reading over
  budget is re-measured once at doubled repeats and the better reading
  is kept: a burst of interference can straddle one measurement, while
  a genuine regression fails both.
* **The check report** — :func:`report` prints ``(name, ok, detail)``
  rows and returns the exit code.

Standard library only, so every script here can import it first.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Dict, Mapping, Sequence, Tuple

__all__ = ["interleaved_min", "report", "timed", "within_budget"]


def interleaved_min(variants: Mapping[str, Callable[[], Any]],
                    repeats: int) -> Dict[str, Tuple[Any, float]]:
    """``{name: (result of its last call, min seconds)}`` over *repeats*.

    Each repeat calls every variant once, in *variants*' order.
    """
    readings: Dict[str, Tuple[Any, float]] = {}
    for _ in range(repeats):
        for name, run in variants.items():
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                result = run()
                seconds = time.perf_counter() - start
            finally:
                gc.enable()
            best = readings.get(name, (None, seconds))[1]
            readings[name] = (result, min(best, seconds))
    return readings


def timed(run: Callable[[], Any], repeats: int = 1) -> Tuple[Any, float]:
    """``(result, min seconds)`` of *run* under the timing protocol."""
    return interleaved_min({"run": run}, repeats)["run"]


def within_budget(measure: Callable[[int], Any], repeats: int,
                  cost: Callable[[Any], float], budget: float) -> Any:
    """``measure(repeats)``, re-measured once when over budget.

    A reading whose ``cost`` is not below *budget* is measured again at
    ``2 * repeats``, and the lower-cost of the two readings is returned.
    """
    reading = measure(repeats)
    if cost(reading) >= budget:
        reading = min(reading, measure(2 * repeats), key=cost)
    return reading


def report(checks: Sequence[Tuple[str, bool, str]], what: str) -> int:
    """Print one line per ``(name, ok, detail)`` check; 0 iff all pass."""
    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        line = f"{'ok ' if ok else 'FAIL'} {name:<{width}}"
        print(f"{line}  {detail}" if detail else line)
    failed = sum(1 for _, ok, _ in checks if not ok)
    if failed:
        print(f"\n{failed} {what} check(s) failed")
        return 1
    print(f"\nall {what} checks passed")
    return 0
