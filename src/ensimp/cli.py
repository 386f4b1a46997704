"""Command-line front end: score, importance, simulate, decompose-check, subset-variance.

Every command is deterministic given its flags and inputs; repeated runs
produce byte-identical output files. Validation, I/O and out-of-memory
problems exit nonzero with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import dataio
from .dataio import NaPolicy, Panel, apply_na_policy, model_mean_scores
from .decomposition import ErrorVector, ambiguity_check, phi_decomposed, phi_direct
from .importance import Algorithm, CapacityError, WeightScheme, compute_importance, rank_models
from .scoring import Metric, ValidationError
from .simulation import (
    run_sweep,
    setting_a_point,
    setting_a_prob,
    setting_b_dispersion,
    write_sweep_csv,
)

SUBSET_VARIANCE_HEADER = ("model", "subset_size", "mean", "variance", "n_subsets")
_CHECK_CHUNK = 1 << 13


def _resolve_workers(requested: int | None) -> int:
    if requested is not None:
        if requested < 1:
            raise ValidationError(f"--workers must be >= 1, got {requested}")
        return requested
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read_inputs(args):
    forecasts, report = dataio.read_forecasts(args.forecasts)
    truth = dataio.read_truth(args.truth)
    _print_report(report)
    return forecasts, truth


def _read_task_panel(args):
    """The panel of the tasks the forecasts and truth join into."""
    forecasts, truth = _read_inputs(args)
    tasks, join_report = dataio.build_task_pools(forecasts, truth)
    _print_report(join_report)
    if not tasks:
        raise ValidationError("no scoreable tasks after joining forecasts with truth")
    return tasks


def _print_report(report: dataio.ReadReport) -> None:
    for line in report.invalid:
        print(f"invalid record: {line}", file=sys.stderr)
    for line in report.warnings:
        print(f"warning: {line}", file=sys.stderr)
    for line in report.excluded_tasks:
        print(f"excluded task: {line}", file=sys.stderr)


def _task_rows(panel: Panel, metric: str) -> list[dict]:
    """One row per present cell, models then tasks in sorted order."""
    rows = []
    for model, values, present in zip(panel.models, panel.values.tolist(), panel.present):
        for j in present.nonzero()[0].tolist():
            task = panel.tasks[j]
            rows.append({"model": model, "metric": metric, "value": values[j],
                         "forecast_date": task.forecast_date, "location": task.location,
                         "horizon": task.horizon, "target_end_date": task.target_end_date})
    return rows


def _present_counts(panel: Panel) -> dict[str, int]:
    return dict(zip(panel.models, panel.present.sum(axis=1).tolist()))


def _means(panel: Panel, policy: NaPolicy) -> dict[str, float]:
    """Per-model mean over tasks, after the NA policy has filled or dropped the gaps."""
    return model_mean_scores(apply_na_policy(panel, policy))


def _summary_rows(metric_values: dict[str, dict[str, float | int]], counts, n_tasks):
    """Long rows (model, metric, value) sorted by model id then metric name."""
    return [{"model": model, "metric": name, "value": metric_values[model][name],
             "n_predictions": counts[model], "pct_submitted": 100.0 * counts[model] / n_tasks}
            for model in sorted(metric_values) for name in sorted(metric_values[model])]


def cmd_score(args) -> int:
    metric = Metric(args.metric)
    forecasts, truth = _read_inputs(args)
    panel, report = dataio.score_records(forecasts, truth, metric)
    _print_report(report)
    means = _means(panel, NaPolicy(args.na))
    label = f"neg_{metric.value}"
    rows = _summary_rows(
        {m: {label: means[m]} for m in means}, _present_counts(panel), len(panel.tasks)
    )
    rows += _task_rows(panel, f"{label}_task")
    note = None
    if metric is Metric.SPE:
        note = "spe scores the 0.5-level quantile (predictive median) as the point estimate"
    dataio.write_results(rows, args.output, args.format, note=note)
    return 0


def cmd_importance(args) -> int:
    metric = Metric(args.metric)
    algorithm = Algorithm(args.algorithm)
    policy = NaPolicy(args.na)
    workers = _resolve_workers(args.workers)
    tasks = _read_task_panel(args)

    result = compute_importance(tasks, metric, algorithm, WeightScheme(args.weights),
                                n_workers=workers)
    scores = dataio.score_tasks(tasks, metric)
    # The subset table also holds LOMO, so a LASOMO summary carries both
    # algorithms; the rank rows follow the algorithm that was asked for.
    label, phi = f"neg_{metric.value}", f"phi_{algorithm.value}"
    columns = {label: _means(scores, policy), phi: _means(result.per_task, policy)}
    if result.lomo is not None:
        columns["phi_lomo"] = _means(result.lomo, policy)
    columns[f"{label}_rank"] = rank_models(columns[label])
    columns["phi_rank"] = rank_models(columns[phi])
    summary = {m: {name: values[m] for name, values in columns.items() if m in values}
               for m in result.per_task.models}
    rows = _summary_rows(summary, _present_counts(scores), len(scores.tasks))
    rows += _task_rows(result.per_task, "phi_task")
    dataio.write_results(rows, args.output, args.format)
    return 0


def cmd_simulate(args) -> int:
    base = {
        "a-point": setting_a_point,
        "a-prob": setting_a_prob,
        "b": setting_b_dispersion,
    }[args.scenario]()
    try:
        spec = replace(base, replicates=args.replicates, seed=args.seed)
    except ValidationError as exc:  # SimulationSpec's messages start with the field name
        raise ValidationError(f"--{exc}") from None
    bounds = {"start": args.grid_start, "end": args.grid_end, "step": args.grid_step}
    try:
        grid = replace(spec.sweep, **{k: v for k, v in bounds.items() if v is not None})
        spec = replace(spec, sweep=grid)
    except ValidationError as exc:
        raise ValidationError(f"--grid-start/--grid-end/--grid-step: {exc}") from None
    result = run_sweep(spec, n_workers=_resolve_workers(args.workers))
    write_sweep_csv(result, args.output)
    return 0


def cmd_decompose_check(args) -> int:
    """Check the point-forecast identities on random instances, a chunk at a time.

    One generator draws each chunk of up to ``_CHECK_CHUNK`` instances: its pool sizes
    n in [2, 8], then per n ascending the (k, n) errors, k model indices and (k, n) raw
    weights of its k instances of that size. Each check runs once per (chunk, n).
    """
    if args.instances < 1:
        raise ValidationError(f"--instances must be >= 1, got {args.instances}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    worst = [None, None]  # per check, the largest residual and its instance
    for start in range(0, args.instances, _CHECK_CHUNK):
        ns = rng.integers(2, 9, size=min(_CHECK_CHUNK, args.instances - start))
        models, resid = np.empty_like(ns), np.empty((2, len(ns)))
        for n in range(2, 9):
            at = np.flatnonzero(ns == n)
            errors = ErrorVector(rng.standard_normal((at.size, n)))
            models[at] = i = rng.integers(n, size=at.size)
            raw = rng.random((at.size, n)) + 1e-3
            direct = phi_direct(errors, i)
            resid[0, at] = np.abs(direct - phi_decomposed(errors, i)) / np.maximum(1.0, np.abs(direct))
            resid[1, at] = np.abs(ambiguity_check(errors, raw / raw.sum(axis=1, keepdims=True), i))
        for c, r in enumerate(resid):
            k = int(np.argmax(r))
            if start == 0 or r[k] > worst[c][0]:
                worst[c] = (r[k], f"instance {start + k} (n={ns[k]}, model {models[k]})")
    print(f"instances: {args.instances}  seed: {args.seed}")
    labels = ("max relative residual, direct vs decomposed", "max ambiguity reconstruction residual")
    for label, (value, where) in zip(labels, worst):
        print(f"{label}: {value:.6e} at {where}")
    ok = all(value < 1e-9 for value, _ in worst)
    print("PASS" if ok else "FAIL: residual above 1e-9")
    return 0 if ok else 1


def cmd_subset_variance(args) -> int:
    policy = NaPolicy(args.na)
    workers = _resolve_workers(args.workers)
    tasks = _read_task_panel(args)

    try:
        result = compute_importance(tasks, Metric(args.metric), Algorithm.LASOMO,
                                    WeightScheme(args.weights), n_workers=workers)
    except CapacityError as exc:  # the per-size diagnostics need every subset's score
        raise ValidationError(exc.cap) from None
    # Under permutation weights the per-task LASOMO cells are the per-task
    # means over sizes, bit for bit, so the two rows below are equal.
    means = {"mean_over_sizes": _means(result.mean_over_sizes, policy),
             "lasomo": _means(result.per_task, policy)}

    rows = []
    for model in result.per_task.models:
        for r, st in sorted(result.by_subset_size.get(model, {}).items()):
            for name, value in (("mean", st.mean), ("variance", st.variance)):
                if not np.isfinite(value):
                    raise ValidationError(f"{name} of model {model!r} at subset size {r} "
                                          "overflows float64")
            rows.append({"model": model, "subset_size": str(r), "mean": st.mean,
                         "variance": st.variance, "n_subsets": st.count})
        for name, values in means.items():
            if model in values:
                rows.append({"model": model, "subset_size": name, "mean": values[model]})
    dataio.write_results(rows, args.output, args.format, header=SUBSET_VARIANCE_HEADER)
    return 0


def _add_panel_flags(p, na_default: str) -> None:
    """The flags of every command that scores a forecast CSV against a truth CSV."""
    p.add_argument("--forecasts", required=True, help="forecast CSV path")
    p.add_argument("--truth", required=True, help="truth CSV path")
    p.add_argument("--output", default="-", help="output path, or - for stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--metric", choices=("wis", "spe"), default="wis")
    p.add_argument("--na", choices=("drop", "worst", "mean"), default=na_default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensimp",
        description="Score quantile forecasts and measure per-model ensemble importance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score forecasts against truth")
    _add_panel_flags(p, na_default="drop")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("importance", help="per-model importance and rankings")
    _add_panel_flags(p, na_default="worst")
    p.add_argument("--algorithm", choices=("lomo", "lasomo"), default="lasomo")
    p.add_argument("--weights", choices=("permutation", "equal"), default="permutation")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("simulate", help="run a bias/dispersion sweep")
    p.add_argument("--scenario", choices=("a-point", "a-prob", "b"), required=True)
    p.add_argument("--grid-start", type=float, default=None)
    p.add_argument("--grid-end", type=float, default=None)
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--output", default="-", help="output path, or - for stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decompose-check", help="verify the point-forecast identities")
    p.add_argument("--instances", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_decompose_check)

    p = sub.add_parser("subset-variance", help="per-subset-size importance diagnostics")
    _add_panel_flags(p, na_default="worst")
    p.add_argument("--weights", choices=("permutation", "equal"), default="permutation")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_subset_variance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot access {exc.filename or 'file'}: {exc.strerror}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
