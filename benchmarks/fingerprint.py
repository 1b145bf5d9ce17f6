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
  :class:`SimStats` at {1, 4} clusters x {none/baseline, stride/vpb}.

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
from repro.workloads import build_workload, workload_names

FINGERPRINT_PATH = (pathlib.Path(__file__).resolve().parent.parent
                    / "tests" / "data" / "fingerprint.json")

#: Dynamic instructions hashed from ``run()``.
TRACE_LENGTH = 3_000
#: Instructions fast-forwarded by each ``skip()`` variant.
SKIP_LENGTH = 20_000
#: Instructions simulated per timing cell.
SIM_LENGTH = 800
#: Timing configurations: (clusters, predictor, steering).
SIM_CONFIGS = ((1, "none", "baseline"), (1, "stride", "vpb"),
               (4, "none", "baseline"), (4, "stride", "vpb"))


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


def stats_hash(name: str, clusters: int, predictor: str,
               steering: str) -> str:
    config = make_config(clusters, predictor=predictor, steering=steering)
    result = simulate(build_workload(name), config,
                      max_instructions=SIM_LENGTH)
    blob = json.dumps(dataclasses.asdict(result.stats), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def compute() -> dict:
    """The fingerprint of the current code, keyed by workload."""
    out = {}
    for name in workload_names():
        plain, trained, events = skip_hashes(name)
        entry = {"trace": trace_hash(name), "skip": plain,
                 "trained_skip": trained, "train_events": events}
        for clusters, predictor, steering in SIM_CONFIGS:
            key = f"stats/{clusters}c/{predictor}-{steering}"
            entry[key] = stats_hash(name, clusters, predictor, steering)
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
