"""Cell-interleaved A/B timing of the detailed core against another tree.

Whole-run throughput pairs swing by ±15% on a shared host, which hides
a 1.2x change.  This tool instead times the headline sweep *cell by
cell*: two persistent worker processes, one importing each tree's
``src``, take turns on every cell, and which tree goes first alternates
from cell to cell, so slow drift in host speed hits both trees alike.
Every cell's :class:`SimStats` must be identical in both trees (the
tool exits 1 otherwise); it then prints the total and per-configuration
time ratios, from plain runs and from ``profile=True`` phase times.

Usage::

    PYTHONPATH=src python benchmarks/ab_cells.py --base <rev>
    make ab-cells BASE=<rev>

``--base`` checks the revision out into a temporary ``git worktree``
(removed afterwards); ``--base-dir`` uses an existing tree instead.
A ratio above 1 means this tree is faster.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The headline table's configurations: (clusters, predictor, steering).
HEADLINE_CONFIGS = ((1, "none", "baseline"), (1, "stride", "baseline"),
                    (2, "none", "baseline"), (2, "stride", "vpb"),
                    (4, "none", "baseline"), (4, "stride", "vpb"))
PHASES = ("decode", "issue", "commit", "events", "fetch", "other")


# ---------------------------------------------------------------- worker --

def serve() -> int:
    """Worker loop: one JSON cell request per stdin line, one reply each.

    Runs against whichever ``repro`` is first on ``sys.path`` (the
    parent points ``PYTHONPATH`` at one tree's ``src``), and times each
    cell with ``harness.timed`` from this script's own folder, so both
    trees are timed by the same protocol.
    """
    import dataclasses

    import harness
    from repro.core import make_config, simulate
    from repro.workloads import workload_trace

    for line in sys.stdin:
        cell = json.loads(line)
        config = make_config(cell["clusters"], predictor=cell["predictor"],
                             steering=cell["steering"])
        trace = list(workload_trace(cell["workload"], cell["length"]))
        result, seconds = harness.timed(
            lambda: simulate(trace, config, profile=cell["profile"]))
        reply = {"seconds": seconds,
                 "stats": json.dumps(dataclasses.asdict(result.stats),
                                     sort_keys=True)}
        if cell["profile"]:
            reply["phases"] = dict(result.profile.seconds)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


class Worker:
    """A persistent ``serve()`` process importing *tree*'s ``src``."""

    def __init__(self, tree: pathlib.Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--serve"], env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def run(self, cell: dict) -> dict:
        self.proc.stdin.write(json.dumps(cell) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("ab_cells worker exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


# ---------------------------------------------------------------- driver --

@contextlib.contextmanager
def checkout(rev: str):
    """*rev* checked out into a temporary detached worktree."""
    with tempfile.TemporaryDirectory(prefix="ab_cells_") as tmp:
        path = pathlib.Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add",
                        "--detach", "--quiet", str(path), rev], check=True)
        try:
            yield path
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                            "--force", str(path)], check=False)


def compare(base: Worker, head: Worker, cells, rounds: int):
    """Time every cell in both trees; returns ``(rows, mismatches)``.

    Each row is ``(config, base_reply, head_reply)``; the first tree to
    run alternates from cell to cell.
    """
    rows, mismatches = [], []
    turn = 0
    for _ in range(rounds):
        for cell in cells:
            order = (base, head) if turn % 2 == 0 else (head, base)
            turn += 1
            replies = {id(w): w.run(cell) for w in order}
            b, h = replies[id(base)], replies[id(head)]
            if b["stats"] != h["stats"]:
                mismatches.append(cell)
            config = (cell["clusters"], cell["predictor"], cell["steering"])
            rows.append((config, b, h))
    return rows, mismatches


def _ratio(base_s: float, head_s: float) -> str:
    return f"{base_s / head_s:6.3f}x" if head_s else "     -"


def report(rows, profiled_rows) -> str:
    """Markdown tables: plain per-config time ratios, then phase ratios."""
    lines = ["| config | base s | head s | base/head |", "|---|---|---|---|"]
    configs = sorted({config for config, _, _ in rows})
    for config in configs + [None]:
        picked = [(b, h) for c, b, h in rows if config is None or c == config]
        b = sum(x["seconds"] for x, _ in picked)
        h = sum(y["seconds"] for _, y in picked)
        label = ("total" if config is None
                 else "{}c {}/{}".format(*config))
        lines.append(f"| {label} | {b:.2f} | {h:.2f} | {_ratio(b, h)} |")
    lines += ["", "| phase (profile=True) | base s | head s | base/head |",
              "|---|---|---|---|"]
    for phase in PHASES:
        b = sum(x["phases"][phase] for _, x, _ in profiled_rows)
        h = sum(y["phases"][phase] for _, _, y in profiled_rows)
        lines.append(f"| {phase} | {b:.2f} | {h:.2f} | {_ratio(b, h)} |")
    b = sum(x["seconds"] for _, x, _ in profiled_rows)
    h = sum(y["seconds"] for _, _, y in profiled_rows)
    lines.append(f"| total | {b:.2f} | {h:.2f} | {_ratio(b, h)} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    where = parser.add_mutually_exclusive_group()
    where.add_argument("--base", help="git revision to compare against")
    where.add_argument("--base-dir", type=pathlib.Path,
                       help="existing tree to compare against")
    parser.add_argument("--serve", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--configs", type=int, default=None,
                        help="use only the first N headline configs")
    parser.add_argument("--length", type=int, default=2000)
    parser.add_argument("--rounds", type=int, default=1,
                        help="passes over the cells")
    args = parser.parse_args(argv)
    if args.serve:
        return serve()
    if args.base is None and args.base_dir is None:
        parser.error("one of --base or --base-dir is required")

    sys.path.insert(0, str(ROOT / "src"))
    from repro.workloads import workload_names
    names = (args.workloads.split(",") if args.workloads
             else workload_names())
    configs = HEADLINE_CONFIGS[:args.configs]
    cells = [{"workload": name, "clusters": c, "predictor": p,
              "steering": s, "length": args.length, "profile": False}
             for name in names for c, p, s in configs]

    with contextlib.ExitStack() as stack:
        tree = (args.base_dir if args.base_dir is not None
                else stack.enter_context(checkout(args.base)))
        base, head = Worker(tree), Worker(ROOT)
        stack.callback(base.close)
        stack.callback(head.close)
        rows, bad = compare(base, head, cells, args.rounds)
        profiled, bad_profiled = compare(
            base, head, [dict(cell, profile=True) for cell in cells],
            args.rounds)
        bad += bad_profiled
    print(f"{len(cells)} cells x {args.rounds} round(s), base "
          f"{args.base or args.base_dir}")
    print(report(rows, profiled))
    if bad:
        for cell in bad:
            print(f"SimStats differ: {cell['workload']} "
                  f"{cell['clusters']}c {cell['predictor']}/"
                  f"{cell['steering']}", file=sys.stderr)
        return 1
    print("SimStats identical on every cell")
    return 0


if __name__ == "__main__":
    sys.exit(main())
