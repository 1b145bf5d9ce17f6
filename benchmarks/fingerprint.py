"""Committed behavioural fingerprint of the ISA layer and the timing model
(``make fingerprint`` regenerates ``tests/data/fingerprint.json``).

For every suite workload, on short runs (a few seconds in total), the
fingerprint stores sha256 hashes of:

* ``trace`` — the :meth:`FunctionalExecutor.run` DynInst stream;
* ``skip`` — the architectural state (registers, memory, ``pc``,
  ``seq``) after a plain :meth:`FunctionalExecutor.skip`;
* ``trained_skip`` — the same state after a ``skip`` with every
  functional-warming hook installed;
* ``train_events`` — each hook's own event stream from that skip;
* ``stats/<clusters>c/<predictor>-<steering>`` — the canonical
  :class:`SimStats` of each :data:`SIM_CONFIGS` cell, and on three
  workloads of each :data:`WIDE_CONFIGS` cell: together 1, 2 and 4
  clusters, every predictor family and every steering scheme;
* ``events/<clusters>c/<predictor>-<steering>`` — the same cell's full
  traced event stream (a :class:`ListSink` tracer), which pins dispatch
  order, copy and verification-copy traffic and every steering reason.

``tests/test_fingerprint.py`` recomputes every hash and asserts exact
equality, so any change to ISA semantics, training or timing shows up
in tier-1.  A change that moves the fingerprint on purpose regenerates
the file and says why in CHANGES.md.

Usage::

    PYTHONPATH=src python benchmarks/fingerprint.py   # rewrite the file
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from repro.core import make_config, simulate
from repro.isa.executor import FunctionalExecutor
from repro.obs import EventTracer, ListSink
from repro.steering import profile_static_assignment
from repro.workloads import build_workload, workload_names

FINGERPRINT_PATH = (pathlib.Path(__file__).resolve().parent.parent
                    / "tests" / "data" / "fingerprint.json")

#: Dynamic instructions hashed from ``run()``.
TRACE_LENGTH = 3_000
#: Instructions fast-forwarded by each ``skip()`` variant.
SKIP_LENGTH = 20_000
#: Instructions simulated per timing cell.
SIM_LENGTH = 800
#: Timing configurations run on every workload: (clusters, predictor,
#: steering).
SIM_CONFIGS = ((1, "none", "baseline"), (1, "stride", "vpb"),
               (2, "none", "baseline"), (2, "stride", "vpb"),
               (4, "none", "baseline"), (4, "stride", "vpb"))
#: Further configurations, run on :data:`WIDE_WORKLOADS` only to keep
#: the test short: every other predictor family and every other
#: steering scheme.  Static steering runs with an assignment
#: profiled from the cell's own trace.
WIDE_CONFIGS = ((1, "none", "dependence-only"), (1, "stride", "static"),
                (2, "context", "modified"), (2, "stride", "static"),
                (2, "stride", "dependence-only"), (4, "hybrid", "vpb"),
                (4, "perfect", "vpb"), (4, "none", "round-robin"),
                (4, "stride", "balance-only"))
WIDE_WORKLOADS = ("cjpeg", "g721enc", "mpeg2enc")


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


def _arch_state(executor: FunctionalExecutor):
    memory = sorted(executor.program.memory.snapshot().items())
    return (executor.int_regs, executor.fp_regs, memory, executor.pc,
            executor.seq, executor.halted)


def trace_hash(name: str) -> str:
    executor = FunctionalExecutor(build_workload(name), TRACE_LENGTH)
    return _sha([(d.seq, d.pc, d.op.name, d.dest, d.srcs, d.src_values,
                  d.result, d.mem_addr, d.taken, d.target)
                 for d in executor.run()])


def skip_hashes(name: str):
    """``(plain, trained, events)`` hashes after ``skip(SKIP_LENGTH)``."""
    plain = FunctionalExecutor(build_workload(name), SKIP_LENGTH)
    plain.skip(SKIP_LENGTH)

    events = {"value": [], "branch": [], "target": [], "mem": [],
              "code": []}
    trained = FunctionalExecutor(build_workload(name), SKIP_LENGTH)
    trained.set_train_hooks(
        value=lambda pc, slot, v: events["value"].append((pc, slot, v)),
        branch=lambda pc, taken: events["branch"].append((pc, taken)),
        target=lambda pc, t: events["target"].append((pc, t)),
        mem=lambda addr, wr: events["mem"].append((addr, wr)),
        code=lambda pc: events["code"].append(pc))
    trained.skip(SKIP_LENGTH)
    return (_sha(_arch_state(plain)), _sha(_arch_state(trained)),
            _sha(sorted(events.items())))


def _cell_config(name: str, clusters: int, predictor: str, steering: str):
    overrides = {}
    if steering == "static":
        trace = FunctionalExecutor(build_workload(name), SIM_LENGTH).run()
        overrides["static_assignment"] = profile_static_assignment(
            trace, clusters)
    return make_config(clusters, predictor=predictor, steering=steering,
                       **overrides)


def cell_hashes(name: str, clusters: int, predictor: str,
                steering: str):
    """``(stats, events)`` hashes of one traced timing cell.

    Observers never change a run (tests/obs/test_noninvasive.py), so
    the traced run's :class:`SimStats` are the untraced run's.
    """
    config = _cell_config(name, clusters, predictor, steering)
    sink = ListSink()
    result = simulate(build_workload(name), config,
                      max_instructions=SIM_LENGTH,
                      tracer=EventTracer(sink))
    blob = json.dumps(dataclasses.asdict(result.stats), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest(), _sha(
        sink.events)


def compute() -> dict:
    """The fingerprint of the current code, keyed by workload."""
    out = {}
    for name in workload_names():
        plain, trained, events = skip_hashes(name)
        entry = {"trace": trace_hash(name), "skip": plain,
                 "trained_skip": trained, "train_events": events}
        configs = SIM_CONFIGS
        if name in WIDE_WORKLOADS:
            configs += WIDE_CONFIGS
        for clusters, predictor, steering in configs:
            cell = f"{clusters}c/{predictor}-{steering}"
            entry["stats/" + cell], entry["events/" + cell] = cell_hashes(
                name, clusters, predictor, steering)
        out[name] = entry
    return out


def render(fingerprint: dict) -> str:
    return json.dumps(fingerprint, indent=1, sort_keys=True) + "\n"


def main() -> int:
    text = render(compute())
    FINGERPRINT_PATH.parent.mkdir(parents=True, exist_ok=True)
    FINGERPRINT_PATH.write_text(text)
    print(f"wrote {FINGERPRINT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
