"""Generate the detailed-model references for a held-out seed.

Runs every ``sampled-million`` workload through the full detailed model
for 1M instructions (no sampling) at the given workload seed and prints
a JSON fragment for ``perfbench/reference.json``'s
``sampled_detailed_ipc`` table, stamped with the commit it was made at.
One workload takes about a minute on a 2-core x86 host, so this is run
once per held-out seed, never by the benchmark itself::

    python3 perfbench/make_references.py --seed 1 --commit <sha>
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core import make_config, simulate  # noqa: E402
from repro.isa.executor import FunctionalExecutor  # noqa: E402
from repro.workloads import build_workload  # noqa: E402

sys.path.insert(0, str(ROOT))
from perfbench.workloads import (SAMPLED_CONFIG,  # noqa: E402
                                 SAMPLED_LENGTH, SAMPLED_WORKLOADS)


def detailed_ipc(name: str, seed: int) -> float:
    program = build_workload(name, seed=seed)
    result = simulate(FunctionalExecutor(program, SAMPLED_LENGTH).run(),
                      make_config(**SAMPLED_CONFIG),
                      max_instructions=SAMPLED_LENGTH)
    return result.stats.committed_insts / result.stats.cycles


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--commit", required=True,
                        help="commit the references are generated at")
    args = parser.parse_args(argv)
    table = {}
    for name in SAMPLED_WORKLOADS:
        start = time.perf_counter()
        table[name] = round(detailed_ipc(name, args.seed), 6)
        print(f"{name}: {table[name]} "
              f"({time.perf_counter() - start:.1f}s)", file=sys.stderr)
    print(json.dumps({str(args.seed): {
        "source": "perfbench/make_references.py "
                  f"--seed {args.seed} (full detailed 1M-instruction run)",
        "commit": args.commit, "ipc": table}}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
