#!/usr/bin/env python3
"""End-to-end benchmark of the ensimp CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload hub-panel --seed 1 --seconds 30 --trace 0

The benchmark writes seeded synthetic inputs, then drives the CLI from
outside in a closed loop with one client: each command is its own child
process, started only after the previous one has exited. Rounds of the
workload's commands repeat until ``--seconds`` have passed (at least
``MIN_ROUNDS`` rounds), and every timing is a median over the rounds.
Set-up time, a fresh child that only imports ``ensimp.cli``, is sampled
before every command.

With ``--trace 0`` it reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it runs each command once untraced and
once under ``perfbench/tracer.py`` per round and reports the per-layer
metrics. Outputs are checked after the timed region. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record, with input digests and the
machine settings, goes to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(BENCH))

from proc import ChildResult, run_child  # noqa: E402

WORKLOADS = ("hub-panel", "wide-pool", "paper-sim")
# nproc is 2 on the reference machine; the CLI default reads os.cpu_count(),
# so the worker count is always passed explicitly.
WORKERS = 2
# One BLAS thread per process, so no more threads run than there are cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_ROUNDS = 2
# A round starts only if it is expected to end within this many seconds of
# the run's start, which leaves time for the checks under the 180 s limit.
ROUND_DEADLINE_S = 150.0
REPLICATES = 20000
INSTANCES = 20000
SETUP_ARGV = ("-c", "import ensimp.cli")
# Units of per-layer metrics that count work and must repeat exactly.
COUNT_UNITS = ("count", "bytes")


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.

    ``id`` keys its checks; ``group`` names the ``cli.<group>.wall_s``
    metric its time adds to. A command with ``writes_file`` gets
    ``--output``; otherwise its standard output is its output.
    """

    id: str
    group: str
    args: tuple[str, ...]
    writes_file: bool = True


@dataclass
class Execution:
    command: str
    result: ChildResult
    sha256: str | None
    traced: bool = False


class Workload:
    """Inputs, commands and checks of one workload, for one seed."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.inputs: list[dict] = []
        self.generator: dict = {}
        if name == "paper-sim":
            self.commands = [
                Command(f"simulate_{s.replace('-', '_')}", "simulate",
                        ("simulate", "--scenario", s, "--replicates", str(REPLICATES),
                         "--seed", str(seed), "--workers", str(WORKERS)))
                for s in ("a-point", "a-prob", "b")
            ] + [Command("decompose_check", "decompose_check",
                         ("decompose-check", "--instances", str(INSTANCES), "--seed", str(seed)),
                         writes_file=False)]
            return

        import inputs
        from ensimp.scoring import CANONICAL_LEVELS

        shape = inputs.HUB_PANEL if name == "hub-panel" else inputs.WIDE_POOL
        self.forecasts, self.truth = work / "forecasts.csv", work / "truth.csv"
        self.generator = inputs.write_panel(shape, CANONICAL_LEVELS.levels, seed,
                                            self.forecasts, self.truth)
        self.inputs = [inputs.describe(self.forecasts), inputs.describe(self.truth)]
        data = ("--forecasts", str(self.forecasts), "--truth", str(self.truth), "--na", "worst")
        workers = ("--workers", str(WORKERS))
        if name == "wide-pool":
            self.commands = [Command("importance", "importance",
                                     ("importance", *data, *workers))]
            return
        # score takes no --workers flag.
        self.commands = [
            Command("score", "score", ("score", *data)),
            Command("importance", "importance", ("importance", *data, *workers)),
            Command("importance_lomo", "importance_lomo",
                    ("importance", *data, "--algorithm", "lomo", *workers)),
            Command("subset_variance", "subset_variance", ("subset-variance", *data, *workers)),
        ]

    def check(self, outputs: dict[str, Path]) -> dict[str, list[str]]:
        import checks
        from ensimp.scoring import CANONICAL_LEVELS

        if self.name == "paper-sim":
            return checks.check_paper_sim(outputs)
        panel = checks.Panel(self.forecasts, self.truth, CANONICAL_LEVELS.levels)
        if self.name == "hub-panel":
            return checks.check_hub_panel(outputs, panel, self.seed)
        return checks.check_wide_pool(outputs, panel, self.seed)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def output_path(directory: Path, command: Command, traced: bool) -> Path:
    kind = "csv" if command.writes_file else "stdout"
    return directory / f"{command.id}{'.traced' if traced else ''}.{kind}"


def execute(command: Command, directory: Path, env: dict, timeout_s: float,
            spans: Path | None = None) -> Execution:
    """Run one command as a child process and digest its output."""
    traced = spans is not None
    out = output_path(directory, command, traced)
    argv = [sys.executable]
    if traced:
        argv += [str(BENCH / "tracer.py"), str(spans), command.id, "--"]
    else:
        argv += ["-m", "ensimp.cli"]
    argv += list(command.args)
    stdout = out
    if command.writes_file:
        argv += ["--output", str(out)]
        stdout = out.with_suffix(".log")
    result = run_child(argv, env, directory, stdout, out.with_suffix(".err"), timeout_s)
    sha = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return Execution(command.id, result, sha, traced)


def measure(workload: Workload, env: dict, seconds: float, trace: bool, run_start: float):
    """Rounds of the workload's commands for ``seconds`` (and ``MIN_ROUNDS``)."""
    rounds: list[list[Execution]] = []
    setup: list[ChildResult] = []

    def remaining() -> float:
        return max(1.0, ROUND_DEADLINE_S + 20.0 - (time.perf_counter() - run_start))

    def setup_child(directory: Path) -> ChildResult:
        return run_child([sys.executable, *SETUP_ARGV], env, directory,
                         directory / "setup.log", directory / "setup.err", remaining())

    setup_child(workload.work)  # warm-up: compiles bytecode, fills the file cache
    start = time.perf_counter()
    last_round = 0.0
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if time.perf_counter() - run_start + last_round > ROUND_DEADLINE_S:
            break
        round_start = time.perf_counter()
        directory = workload.work / f"round{len(rounds)}"
        directory.mkdir()
        executions = []
        for command in workload.commands:
            if not trace:
                # Set-up is sampled before every command, so that its samples
                # spread over the run as the commands' do.
                setup.append(setup_child(directory))
            spans = directory / f"{command.id}.spans.json"
            # In a traced run, alternate which of the pair goes first, so that
            # an order effect does not bias trace.overhead_s.
            order = (False, True) if len(rounds) % 2 == 0 else (True, False)
            for traced in order if trace else (False,):
                executions.append(execute(command, directory, env, remaining(),
                                          spans if traced else None))
        rounds.append(executions)
        last_round = time.perf_counter() - round_start
    return rounds, setup


def tally(rounds, setup, problems) -> tuple[int, int]:
    """Operations attempted and failed.

    An operation is one child process. It fails if it exits nonzero, if its
    output differs from the first round's, or if that output failed a check.
    A set-up child fails only by exiting nonzero.
    """
    attempted = failed = 0
    # every output, traced or not, must match the first untraced one
    first = {e.command: e.sha256 for e in rounds[0] if not e.traced}
    for executions in rounds:
        for e in executions:
            attempted += 1
            bad = (e.result.returncode != 0 or e.sha256 is None
                   or e.sha256 != first[e.command] or problems.get(e.command))
            failed += bool(bad)
    for result in setup:
        attempted += 1
        failed += result.returncode != 0
    return attempted, failed


def end_to_end(rounds, setup) -> dict[str, float]:
    untraced = [[e.result for e in r if not e.traced] for r in rounds]
    return {
        "setup_s": statistics.median(r.wall_s for r in setup),
        "commands_s": statistics.median(sum(r.wall_s for r in rs) for rs in untraced),
        "peak_rss_mb": statistics.median(max(r.maxrss_mb for r in rs) for rs in untraced),
    }


def per_layer(workload: Workload, rounds, units: dict[str, str], problems):
    """Per-layer metrics: medians of per-round sums; counts must repeat exactly."""
    import tracer

    per_round: list[dict[str, float]] = []
    first: dict[str, dict[str, float]] = {}  # command id -> its round-0 layer summary
    for k, executions in enumerate(rounds):
        totals: dict[str, float] = {"trace.overhead_s": 0.0}
        for command in workload.commands:
            pair = {e.traced: e.result for e in executions if e.command == command.id}
            wall_key = f"cli.{command.group}.wall_s"
            totals[wall_key] = totals.get(wall_key, 0.0) + pair[False].wall_s
            if command.id == "importance":
                totals["cli.importance.rss_mb"] = pair[False].maxrss_mb
            totals["trace.overhead_s"] += pair[True].wall_s - pair[False].wall_s
            spans_path = workload.work / f"round{k}" / f"{command.id}.spans.json"
            if not spans_path.exists():
                problems.setdefault(command.id, []).append(f"round {k}: no span file")
                continue
            summary = tracer.summarize(json.loads(spans_path.read_text())["spans"])
            first.setdefault(command.id, summary)
            changed = [name for name, unit in units.items() if unit in COUNT_UNITS
                       and summary.get(name) != first[command.id].get(name)]
            if changed:
                problems.setdefault(command.id, []).append(
                    f"round {k}: counts {changed} differ from round 0")
            for name, value in summary.items():
                if name.endswith("maxrss_mb"):
                    totals[name] = max(totals.get(name, 0.0), value)
                else:
                    totals[name] = totals.get(name, 0.0) + value
        per_round.append(totals)
    metrics = {}
    for name, unit in units.items():
        values = [totals.get(name, 0) for totals in per_round]
        metrics[name] = int(values[0]) if unit in COUNT_UNITS else statistics.median(values)
    return metrics, first


def environment() -> dict:
    import numpy

    import ensimp

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ensimp": ensimp.__version__,
        "git_commit": commit,
        "workers": WORKERS,
        "blas_env": BLAS_ENV,
        "min_rounds": MIN_ROUNDS,
        "load": "closed loop, one client, one child process per command",
    }


def per_command(rounds) -> dict[str, dict]:
    """Each command's samples over the rounds, and their medians."""
    out: dict[str, dict] = {}
    for executions in rounds:
        for e in executions:
            entry = out.setdefault(f"{e.command}{' (traced)' if e.traced else ''}", {})
            for field in ("wall_s", "cpu_s", "maxrss_mb", "returncode"):
                entry.setdefault(field, []).append(getattr(e.result, field))
    for entry in out.values():
        entry["median_wall_s"] = statistics.median(entry["wall_s"])
        entry["median_maxrss_mb"] = statistics.median(entry["maxrss_mb"])
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    run_start = time.perf_counter()
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit, so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ensimp" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no ensimp source under {SRC} or no {spec_path.name}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ensimp

    if Path(ensimp.__file__).resolve().parent != (SRC / "ensimp").resolve():
        print(f"error: imported ensimp from {ensimp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # Only the latest run of a workload keeps its inputs, outputs and spans;
    # every run keeps its results file.
    work = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = Workload(args.workload, args.seed, work)
    env = child_env()
    rounds, setup = measure(workload, env, args.seconds, bool(args.trace), run_start)

    # Checks, outside the timed region, on the first round's outputs.
    outputs = {c.id: output_path(work / "round0", c, False) for c in workload.commands}
    problems = {cid: ["no output"] for cid, p in outputs.items() if not p.exists()}
    if not problems:
        try:
            problems = workload.check(outputs)
        except Exception as exc:  # an unreadable output fails its checks, not the run
            traceback.print_exc()
            problems = {cid: [f"check raised {exc!r}"] for cid in outputs}

    breakdown = {}
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, breakdown = per_layer(workload, rounds, units, problems)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = end_to_end(rounds, setup)
    attempted, failed = tally(rounds, setup, problems)
    problems = {k: v for k, v in problems.items() if v}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "environment": environment(),
        "inputs": workload.inputs,
        "generator": workload.generator,
        "commands": {c.id: list(c.args) for c in workload.commands},
        "per_command": per_command(rounds),
        "setup_s": [r.wall_s for r in setup],
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "metrics": metrics,
        "layers_by_command": breakdown,
        "elapsed_s": time.perf_counter() - run_start,
    }
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{label}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"failed {failed}/{attempted} (failed_frac {record['failed_frac']:.4f})")
    for item in workload.inputs:
        print(f"  input {item['path']:14s} rows {item['rows']:7d}  sha256 {item['sha256']}")
    for cid, entry in record["per_command"].items():
        print(f"  {cid:28s} median wall {entry['median_wall_s']:.3f} s  "
              f"peak RSS {entry['median_maxrss_mb']:.1f} MB")
    for cid, found in problems.items():
        for line in found[:5]:
            print(f"  CHECK FAILED {cid}: {line}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
