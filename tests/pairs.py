#!/usr/bin/env python3
"""Alternating before/after pairs of one benchmark workload on two source trees.

Usage (from the repository root):

    python tests/pairs.py BEFORE_SRC AFTER_SRC --workload W --pairs N --seed S [--out PATH]

``BEFORE_SRC`` and ``AFTER_SRC`` are directories that hold an ``ensimp``
package, such as a parent commit's ``src/`` and this checkout's. The
workload's inputs and commands are those of ``perfbench/run.py`` (its
``Workload``), and each command runs as its own child process through its
``execute``, with ``PYTHONPATH`` set to one tree and then the other. Which
tree goes first alternates from pair to pair, so that a drift of the host
over the run does not favour one side.

Per tree and pair it takes ``commands_s`` and ``peak_rss_mb`` as
``run.end_to_end`` does for one round (the sum of the commands' wall times,
the largest of their peak RSS), and ``cpu_s``, the sum of the children's
user and system time. For each it reports the median and quartiles per tree,
the pairs in which each tree was lower, and a two-sided sign-test p. It also
lists the commands whose output sha256 differs between the trees, and those
that exited nonzero. The record goes to standard output as a summary, and
as JSON to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py)

METRICS = ("commands_s", "peak_rss_mb", "cpu_s")
SIDES = ("before", "after")


def sign_test(before, after) -> dict:
    """Pairs in which each side was lower, ties, and the two-sided sign-test p.

    The p is the exact binomial probability, at one half, of a split at
    least as uneven as the one seen among the untied pairs (1.0 with none).
    """
    after_lower = sum(a < b for b, a in zip(before, after))
    before_lower = sum(b < a for b, a in zip(before, after))
    untied = after_lower + before_lower
    tail = sum(math.comb(untied, k) for k in range(min(after_lower, before_lower) + 1))
    return {"after_lower": after_lower, "before_lower": before_lower,
            "ties": len(before) - untied, "sign_p": min(1.0, 2 * tail / 2**untied)}


def quartiles(values) -> dict:
    """Median and quartiles (inclusive method) of one tree's samples."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(samples: dict[str, dict[str, list[float]]]) -> dict:
    """Per metric, each tree's spread and the sign test of after against before."""
    return {m: {side: quartiles(samples[side][m]) for side in SIDES}
            | sign_test(samples["before"][m], samples["after"][m]) for m in METRICS}


def run_pairs(before_src: Path, after_src: Path, workload: str, pairs: int, seed: int,
              work: Path, only: tuple[str, ...] | None = None) -> dict:
    """Run ``pairs`` alternating pairs in ``work`` and return the record.

    ``only`` restricts the workload to the command ids it names.
    """
    load = run.Workload(workload, seed, work)
    commands = [c for c in load.commands if only is None or c.id in only]
    envs = {side: run.child_env() | {"PYTHONPATH": str(src)}
            for side, src in zip(SIDES, (before_src, after_src))}
    samples = {side: {m: [] for m in METRICS} for side in SIDES}
    digests = {side: {c.id: set() for c in commands} for side in SIDES}
    failed = {side: set() for side in SIDES}
    for side in SIDES:  # compiles each tree once and fills the file cache, as run.measure does
        run.run_child([sys.executable, *run.SETUP_ARGV], envs[side], work, work / "warm.log",
                      work / "warm.err", 300.0)
    for k in range(pairs):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            # one name length for both trees, so that their argv differ in one digit only
            directory = work / f"pair{k}" / str(SIDES.index(side))
            directory.mkdir(parents=True)
            done = [run.execute(c, directory, envs[side], 300.0) for c in commands]
            samples[side]["commands_s"].append(sum(e.result.wall_s for e in done))
            samples[side]["peak_rss_mb"].append(max(e.result.maxrss_mb for e in done))
            samples[side]["cpu_s"].append(sum(e.result.cpu_s for e in done))
            for e in done:
                digests[side][e.command].add(e.sha256)
                if e.result.returncode != 0:
                    failed[side].add(e.command)
    return {
        "workload": workload, "seed": seed, "pairs": pairs,
        "trees": {"before": str(before_src), "after": str(after_src)},
        "commands": [c.id for c in commands],
        "samples": samples,
        "summary": summarize(samples),
        "differing": [c.id for c in commands
                      if digests["before"][c.id] != digests["after"][c.id]],
        "failed": {side: sorted(ids) for side, ids in failed.items()},
    }


def report(record: dict) -> str:
    lines = [f"{record['workload']}, seed {record['seed']}, {record['pairs']} pairs"]
    for metric, s in record["summary"].items():
        b, a = s["before"], s["after"]
        lines.append(f"  {metric}: before {b['median']:.4g} ({b['q1']:.4g}-{b['q3']:.4g}), "
                     f"after {a['median']:.4g} ({a['q1']:.4g}-{a['q3']:.4g}); after lower in "
                     f"{s['after_lower']} of {record['pairs']}, sign-test p {s['sign_p']:.3g}")
    lines.append(f"  outputs differing: {', '.join(record['differing']) or 'none'}")
    for side, ids in record["failed"].items():
        if ids:
            lines.append(f"  exited nonzero ({side}): {', '.join(ids)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before_src", type=Path)
    parser.add_argument("after_src", type=Path)
    parser.add_argument("--workload", choices=run.WORKLOADS, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        parser.error("--pairs must be >= 1 and --seed >= 0")
    for src in (args.before_src, args.after_src):
        if not (src / "ensimp" / "cli.py").is_file():
            parser.error(f"no ensimp package under {src}")
    sys.path.insert(0, str(args.after_src))  # the input writer reads the quantile levels
    with tempfile.TemporaryDirectory(prefix="ensimp-pairs-") as work:
        record = run_pairs(args.before_src.resolve(), args.after_src.resolve(), args.workload,
                           args.pairs, args.seed, Path(work))
    if args.out:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(report(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
