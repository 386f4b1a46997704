"""Run a fixed matrix of ``ensimp`` CLI cases and record what each one writes.

Usage::

    python tests/cli_matrix.py SRC OUT.json          # run every case with PYTHONPATH=SRC
    python tests/cli_matrix.py --diff A.json B.json  # list the cases that differ
    python tests/cli_matrix.py --same-across-workers A.json  # list w1 cases unlike their w2 twin

A record maps each case id to its argv, its exit code and the sha256 of its
stdout, its stderr and its output file. The inputs are written into a fresh
temporary directory whose path is replaced by ``$TMP`` before hashing, so
records of two source trees compare case by case. They are the bundled
fixture; the hub-panel and wide-pool files that ``perfbench/inputs.py``
writes at seed 3, and its 40-model, 4-task file, run as LOMO alone at one
and at two workers; the wide-pool file with 19 models whose tasks have 17,
18 and 19 of them, so tables within the LASOMO budget and over it, split
across the workers, meet in one command, run as ``importance`` LASOMO and
``subset-variance`` at one and at two workers; the hub-panel forecasts
with every model id quoted, which the row reader reads, run as ``score``;
small files that break the row rule (a wrong field count, whitespace-only rows, one trailing blank line);
the fixture with every value times 1e200, whose squared errors overflow, run
for SPE and, with LASOMO, for WIS, whose per-size variances overflow; and 2
models on 30 tasks whose finite scores near -1e307 overflow when summed over
tasks, run as ``score``; and 8 models on one task with no gap whose scores
near -2.7e307 overflow when summed over the models, run as ``score`` under
each NA policy, none of which has a cell to fill. Besides the panel
commands, the cases run ``simulate`` and ``decompose-check`` at their test
and benchmark sizes, and two ``simulate`` errors: a bias of 1e155, whose
squared errors overflow, and a dispersion grid that starts at sd 0.
``--diff`` prints each differing case with the fields that differ and exits
1 if there is any. ``--same-across-workers`` prints each ``.../w1`` case
whose exit code, stdout, stderr or output differs from its ``.../w2`` twin
in one record, and exits 1 if there is any.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
SEED = 3
# One BLAS thread per case and two cases at a time, so no more threads run
# than a two-CPU machine has.
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
JOBS = 2
FIELDS = ("exit", "stdout", "stderr", "output")


def write_inputs(tmp: Path) -> dict[str, tuple[Path, Path]]:
    """The (forecasts, truth) pair of each panel input, written under ``tmp``."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import inputs
    from ensimp.scoring import CANONICAL_LEVELS

    pairs = {"fixture": (FIXTURES / "forecasts.csv", FIXTURES / "truth.csv")}
    pool40 = inputs.PanelShape(40, 2, 1, 2, 0.0, 0.0, 0)
    for name, shape in (("hub-panel", inputs.HUB_PANEL), ("wide-pool", inputs.WIDE_POOL),
                        ("pool40", pool40)):
        (tmp / name).mkdir()
        pairs[name] = (tmp / name / "forecasts.csv", tmp / name / "truth.csv")
        inputs.write_panel(shape, CANONICAL_LEVELS.levels, SEED, *pairs[name])
    # 19 of wide-pool's models, one more absent from task (01, h1) and two from
    # (02, h1): 19, 18, 17 and 19 present models, so one command runs 17-model
    # tables a job per worker and the over-budget 18- and 19-model ones split.
    wide_forecasts, wide_truth = pairs["wide-pool"]
    absent = {("01", "1"): ("model18",), ("02", "1"): ("model17", "model18")}
    lines = wide_forecasts.read_text(encoding="utf-8").splitlines(True)
    kept = [line for line in lines[1:] if (fields := line.split(",", 4))[0] != "model19"
            and fields[0] not in absent.get((fields[2], fields[3]), ())]
    pairs["gappy19"] = (tmp / "wide-pool" / "forecasts-gappy19.csv", wide_truth)
    pairs["gappy19"][0].write_text(lines[0] + "".join(kept), encoding="utf-8")
    # Every model id in double quotes, as R's write.csv quotes string columns:
    # the row reader's path at benchmark size.
    hub_forecasts, hub_truth = pairs["hub-panel"]
    lines = hub_forecasts.read_text(encoding="utf-8").splitlines(True)
    pairs["hub-panel-quoted"] = (tmp / "hub-panel" / "forecasts-quoted.csv", hub_truth)
    pairs["hub-panel-quoted"][0].write_text(
        lines[0] + "".join('"' + line.replace(",", '",', 1) for line in lines[1:]), encoding="utf-8")
    rows = tmp / "rows"
    rows.mkdir()
    forecasts = FIXTURES.joinpath("forecasts.csv").read_text(encoding="utf-8").splitlines(True)
    truth = FIXTURES.joinpath("truth.csv").read_text(encoding="utf-8").splitlines(True)
    blank = ["\n", "   \n", ", ,\t\n"]
    files = {
        "short-forecast-row": (forecasts[:3] + [forecasts[3].rsplit(",", 1)[0] + "\n"], truth),
        "long-truth-row": (forecasts, truth[:2] + [truth[2].rstrip("\n") + ",1\n"] + truth[3:]),
        "blank-rows": (forecasts[:2] + blank + forecasts[2:] + blank, truth[:2] + blank + truth[2:]),
        "trailing-blank-line": (forecasts + ["\n"], truth),
    }
    for name, (fc, tr) in files.items():
        pairs[name] = (rows / f"{name}-forecasts.csv", rows / f"{name}-truth.csv")
        pairs[name][0].write_text("".join(fc), encoding="utf-8")
        pairs[name][1].write_text("".join(tr), encoding="utf-8")
    pairs["x1e200"] = (tmp / "x1e200-forecasts.csv", tmp / "x1e200-truth.csv")
    for lines, path in zip((forecasts, truth), pairs["x1e200"]):
        table = [line.rstrip("\n").split(",") for line in lines]
        k = table[0].index("value")
        for row in table[1:]:
            row[k] = repr(float(row[k]) * 1e200)
        path.write_text("".join(",".join(row) + "\n" for row in table), encoding="utf-8")
    pairs["sum-overflow"] = (tmp / "sum-overflow-forecasts.csv", tmp / "sum-overflow-truth.csv")
    pairs["sum-overflow"][0].write_text("".join(
        [forecasts[0]] + [f"{m},2021-11-08,{t:02d},1,2021-11-13,{p},{v * scale!r}\n"
                          for m, scale in (("m1", 1e307), ("m2", 2e307)) for t in range(1, 31)
                          for p, v in ((0.25, 1.0), (0.5, 1.5), (0.75, 2.0))]), encoding="utf-8")
    pairs["sum-overflow"][1].write_text("".join(
        [truth[0]] + [f"{t:02d},2021-11-13,0\n" for t in range(1, 31)]), encoding="utf-8")
    pairs["gap-free"] = (tmp / "gap-free-forecasts.csv", tmp / "gap-free-truth.csv")
    pairs["gap-free"][0].write_text("".join(
        [forecasts[0]] + [f"m{m},2021-11-08,01,1,2021-11-13,{p},{v * 2e307!r}\n" for m in range(8)
                          for p, v in ((0.25, 1.0), (0.5, 1.5), (0.75, 2.0))]), encoding="utf-8")
    pairs["gap-free"][1].write_text(truth[0] + "01,2021-11-13,0\n", encoding="utf-8")
    return pairs


def cases(pairs: dict[str, tuple[Path, Path]]) -> dict[str, list[str]]:
    """Case id to CLI argv; ``--output OUT`` marks a case that writes a file."""
    out: dict[str, list[str]] = {}
    out_flag = ["--output", "OUT"]
    for name, (fc, tr) in pairs.items():
        data = ["--forecasts", str(fc), "--truth", str(tr)]
        if name == "x1e200":  # SPE fails naming a cell; nothing else reaches stderr
            out[f"{name}/score/spe"] = ["score", *data, "--metric", "spe", *out_flag]
            out[f"{name}/importance/lomo/spe"] = ["importance", *data, "--algorithm", "lomo",
                                                  "--metric", "spe", *out_flag]
            # WIS: the per-size variances overflow, which only subset-variance reports
            out[f"{name}/importance/lasomo/wis"] = ["importance", *data, "--algorithm", "lasomo",
                                                    "--metric", "wis", *out_flag]
            out[f"{name}/subset-variance/wis"] = ["subset-variance", *data, "--metric", "wis",
                                                  *out_flag]
            continue
        if name == "pool40":  # past the enumeration cap, only LOMO runs
            for workers in (1, 2):
                out[f"{name}/importance/lomo/w{workers}"] = [
                    "importance", *data, "--algorithm", "lomo", "--workers", str(workers),
                    *out_flag]
            continue
        if name == "gappy19":  # tables within the budget and over it in one command
            for workers in (1, 2):
                w = ["--workers", str(workers)]
                out[f"{name}/importance/lasomo/w{workers}"] = [
                    "importance", *data, "--algorithm", "lasomo", "--na", "worst", *w, *out_flag]
                out[f"{name}/importance/lasomo/equal/spe/w{workers}"] = [
                    "importance", *data, "--algorithm", "lasomo", "--weights", "equal",
                    "--metric", "spe", "--na", "mean", *w, *out_flag]
                out[f"{name}/subset-variance/w{workers}"] = ["subset-variance", *data, *w,
                                                             *out_flag]
            continue
        if name == "gap-free":  # a fill of its one task would overflow
            for na in ("drop", "worst", "mean"):
                out[f"{name}/score/{na}"] = ["score", *data, "--na", na, *out_flag]
            continue
        if name not in ("fixture", "hub-panel", "wide-pool"):
            out[f"{name}/score"] = ["score", *data, *out_flag]
            continue
        for metric, na in itertools.product(("wis", "spe"), ("drop", "worst", "mean")):
            out[f"{name}/score/{metric}/{na}"] = ["score", *data, "--metric", metric,
                                                   "--na", na, *out_flag]
        for workers in (1, 2):
            w = ["--workers", str(workers)]
            for alg, weights, metric, na in itertools.product(
                ("lasomo", "lomo"), ("permutation", "equal"), ("wis", "spe"),
                ("drop", "worst", "mean"),
            ):
                out[f"{name}/importance/{alg}/{weights}/{metric}/{na}/w{workers}"] = [
                    "importance", *data, "--algorithm", alg, "--weights", weights,
                    "--metric", metric, "--na", na, *w, *out_flag]
            for weights, metric, na in itertools.product(
                ("permutation", "equal"), ("wis", "spe"), ("drop", "worst", "mean")
            ):
                out[f"{name}/subset-variance/{weights}/{metric}/{na}/w{workers}"] = [
                    "subset-variance", *data, "--weights", weights, "--metric", metric,
                    "--na", na, *w, *out_flag]
            out[f"{name}/importance/json/w{workers}"] = ["importance", *data, "--format", "json",
                                                         *w, *out_flag]
            out[f"{name}/subset-variance/json/w{workers}"] = [
                "subset-variance", *data, "--format", "json", *w, *out_flag]
    for scenario, workers in itertools.product(("a-point", "a-prob", "b"), (1, 2)):
        out[f"simulate/{scenario}/w{workers}"] = [
            "simulate", "--scenario", scenario, "--replicates", "2000", "--seed", str(SEED),
            "--workers", str(workers), *out_flag]
    for scenario in ("a-point", "a-prob", "b"):  # the benchmark's paper-sim size
        out[f"simulate/{scenario}/r20000"] = [
            "simulate", "--scenario", scenario, "--replicates", "20000", "--seed", str(SEED),
            "--workers", "2", *out_flag]
    out["simulate/a-point/overflow"] = ["simulate", "--scenario", "a-point", "--grid-start",
                                        "1e155", "--grid-end", "1e155", *out_flag]
    out["simulate/b/non-positive-sd"] = ["simulate", "--scenario", "b", "--grid-start", "0",
                                         "--grid-end", "0.1", *out_flag]
    out["decompose-check"] = ["decompose-check", "--instances", "2000", "--seed", str(SEED)]
    out["decompose-check/i20000"] = [  # the benchmark's paper-sim size
        "decompose-check", "--instances", "20000", "--seed", str(SEED)]
    return out


def run_case(src: str, tmp: Path, case: str, argv: list[str]) -> dict:
    output = tmp / "out" / (case.replace("/", "_") + ".out")
    argv = [str(output) if a == "OUT" else a for a in argv]
    env = {**os.environ, **ENV, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "ensimp.cli", *argv], capture_output=True,
                          env=env, cwd=tmp)

    def digest(data: bytes) -> str:
        return hashlib.sha256(data.replace(str(tmp).encode(), b"$TMP")).hexdigest()

    return {
        "argv": [a.replace(str(tmp), "$TMP") for a in argv],
        "exit": proc.returncode,
        "stdout": digest(proc.stdout),
        "stderr": digest(proc.stderr),
        "output": digest(output.read_bytes()) if output.exists() else None,
    }


def record(src: str, out: str) -> int:
    src = str(Path(src).resolve())
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        (tmp / "out").mkdir()
        todo = cases(write_inputs(tmp))
        with ThreadPoolExecutor(JOBS) as ex:
            done = ex.map(lambda item: run_case(src, tmp, *item), todo.items())
            results = dict(zip(todo, done))
    Path(out).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"{len(results)} cases recorded in {out}")
    return 0


def diff(a: str, b: str) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in (a, b))
    differ = 0
    for case in sorted(old.keys() | new.keys()):
        if case not in old or case not in new:
            print(f"{case}: only in {a if case in old else b}")
            differ += 1
            continue
        fields = [f for f in FIELDS if old[case][f] != new[case][f]]
        if fields:
            print(f"{case}: {', '.join(fields)}")
            differ += 1
    print(f"{differ} of {len(old.keys() | new.keys())} cases differ")
    return 1 if differ else 0


def same_across_workers(path: str) -> int:
    results = json.loads(Path(path).read_text())
    twins = [(case, case[:-1] + "2") for case in sorted(results)
             if case.endswith("/w1") and case[:-1] + "2" in results]
    differ = 0
    for one, two in twins:
        fields = [f for f in FIELDS if results[one][f] != results[two][f]]
        if fields:
            print(f"{one}: {', '.join(fields)} not as in {two}")
            differ += 1
    print(f"{differ} of {len(twins)} twin pairs differ")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        return diff(argv[1], argv[2])
    if len(argv) == 2 and argv[0] == "--same-across-workers":
        return same_across_workers(argv[1])
    if len(argv) == 2 and not argv[0].startswith("-"):
        return record(*argv)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
