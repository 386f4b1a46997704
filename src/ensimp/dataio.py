"""Hub-format CSV ingestion, score panels, NA policies, and result output.

Forecast CSV header: ``model,forecast_date,location,horizon,target_end_date,quantile_level,value``
(one row per quantile). Truth CSV header: ``location,target_end_date,value``.
Dates are ISO-8601; locations are opaque string codes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import date, timedelta
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .ensembling import ForecastPool
from .scoring import Observation, QuantileForecast, QuantileLevels, ValidationError

__all__ = [
    "FORECAST_HEADER",
    "TRUTH_HEADER",
    "ForecastRecord",
    "NaPolicy",
    "ParseError",
    "ReadReport",
    "ScorePanel",
    "TaskKey",
    "TaskPool",
    "apply_na_policy",
    "build_task_pools",
    "format_float",
    "model_mean_scores",
    "read_forecasts",
    "read_truth",
    "write_results",
]

FORECAST_HEADER = ("model", "forecast_date", "location", "horizon",
                   "target_end_date", "quantile_level", "value")
TRUTH_HEADER = ("location", "target_end_date", "value")

RESULT_HEADER = ("model", "metric", "forecast_date", "location", "horizon",
                 "target_end_date", "value", "n_predictions", "pct_submitted")


class ParseError(ValidationError):
    """A malformed CSV row; the message carries the file row number."""


@dataclass(frozen=True, order=True)
class TaskKey:
    """One forecasting task: (forecast date, location, horizon) plus target end date.

    Field order doubles as the canonical sort order used for deterministic
    task iteration everywhere in the package.
    """

    forecast_date: date
    location: str
    horizon: int
    target_end_date: date

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon}")
        if self.target_end_date < self.forecast_date:
            raise ValidationError(
                f"target_end_date {self.target_end_date} precedes forecast_date {self.forecast_date}"
            )


@dataclass(frozen=True)
class ForecastRecord:
    model: str
    task: TaskKey
    forecast: QuantileForecast


@dataclass
class ReadReport:
    """Non-fatal findings from a read: skipped records and consistency warnings."""

    invalid: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    excluded_tasks: list[str] = field(default_factory=list)


class NaPolicy(Enum):
    DROP = "drop"
    WORST = "worst"
    MEAN = "mean"


@dataclass(frozen=True)
class TaskPool:
    """One task's forecast pool together with its observed truth."""

    task: TaskKey
    pool: ForecastPool
    truth: Observation


def build_task_pools(
    records: Sequence[ForecastRecord],
    truth: Mapping[tuple[str, date], Observation],
) -> tuple[list[TaskPool], ReadReport]:
    """Join forecast records with truth into per-task pools.

    Tasks without a truth value or with fewer than two models are excluded
    and listed in the report; nothing is dropped silently.
    """
    report = ReadReport()
    by_task: dict[TaskKey, dict[str, QuantileForecast]] = {}
    for rec in records:
        members = by_task.setdefault(rec.task, {})
        if rec.model in members:
            raise ValidationError(f"duplicate forecast for ({rec.model!r}, {rec.task})")
        members[rec.model] = rec.forecast
    pools: list[TaskPool] = []
    for task in sorted(by_task):
        members = by_task[task]
        obs = truth.get((task.location, task.target_end_date))
        if obs is None:
            report.excluded_tasks.append(f"{task}: no truth value")
            continue
        if len(members) < 2:
            report.excluded_tasks.append(f"{task}: fewer than 2 models")
            continue
        pools.append(TaskPool(task, ForecastPool.from_dict(members), obs))
    return pools, report


@dataclass(frozen=True)
class ScorePanel:
    """Model x task matrix of positively oriented values with explicit missing cells.

    ``cells`` maps (model, task) to a value; absent keys are the NA cells.
    The same container holds -WIS/-SPE panels and importance panels.
    """

    models: tuple[str, ...]
    tasks: tuple[TaskKey, ...]
    cells: Mapping[tuple[str, TaskKey], float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", tuple(sorted(self.models)))
        object.__setattr__(self, "tasks", tuple(sorted(self.tasks)))
        object.__setattr__(self, "cells", dict(self.cells))
        model_set, task_set = set(self.models), set(self.tasks)
        for (m, t), v in self.cells.items():
            if m not in model_set or t not in task_set:
                raise ValidationError(f"cell ({m!r}, {t}) outside the panel's model/task sets")
            if not math.isfinite(v):
                raise ValidationError(f"cell ({m!r}, {t}) is not finite")

    def cell(self, model: str, task: TaskKey) -> float | None:
        return self.cells.get((model, task))

    def column(self, task: TaskKey) -> list[tuple[str, float]]:
        """Present (model, value) pairs for one task, in model order."""
        out = []
        for m in self.models:
            v = self.cells.get((m, task))
            if v is not None:
                out.append((m, v))
        return out

    def present_count(self, model: str) -> int:
        return sum(1 for t in self.tasks if (model, t) in self.cells)


def apply_na_policy(panel: ScorePanel, policy: NaPolicy) -> ScorePanel:
    """Resolve missing cells: leave absent (drop), or fill per task column.

    ``worst`` fills with the column minimum of present values, ``mean`` with
    the column average. Task columns with no present value at all cannot be
    filled and are removed under every policy.
    """
    kept_tasks = [t for t in panel.tasks if panel.column(t)]
    cells: dict[tuple[str, TaskKey], float] = {}
    for t in kept_tasks:
        col = panel.column(t)
        present = [v for _, v in col]
        if policy is NaPolicy.WORST:
            fill = min(present)
        elif policy is NaPolicy.MEAN:
            fill = math.fsum(present) / len(present)
        else:
            fill = None
        for m in panel.models:
            v = panel.cells.get((m, t))
            if v is not None:
                cells[(m, t)] = v
            elif fill is not None:
                cells[(m, t)] = fill
    return ScorePanel(panel.models, tuple(kept_tasks), cells)


def model_mean_scores(panel: ScorePanel) -> dict[str, float]:
    """Per-model mean over present cells, tasks in sorted order.

    Models with no present cell are omitted (reported missing, never zero).
    """
    means: dict[str, float] = {}
    for m in panel.models:
        vals = [panel.cells[(m, t)] for t in panel.tasks if (m, t) in panel.cells]
        if vals:
            means[m] = math.fsum(vals) / len(vals)
    return means


def _parse_date(text: str, row: int, col: str) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise ParseError(f"row {row}: invalid ISO-8601 date in {col!r}: {text!r}") from None


def _parse_float(text: str, row: int, col: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"row {row}: invalid number in {col!r}: {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}: non-finite number in {col!r}: {text!r}")
    return value


def _parse_int(text: str, row: int, col: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"row {row}: invalid integer in {col!r}: {text!r}") from None


def _open_reader(path: str):
    # utf-8-sig drops the byte-order mark spreadsheet exports put first.
    return open(path, newline="", encoding="utf-8-sig")


def _check_header(got: Sequence[str] | None, expected: tuple[str, ...], path: str) -> None:
    if got is None or tuple(got) != expected:
        raise ParseError(
            f"{path}: expected header {','.join(expected)}, got {','.join(got or ())}"
        )


def read_forecasts(
    path: str, levels: QuantileLevels | None = None
) -> tuple[list[ForecastRecord], ReadReport]:
    """Read a hub-format forecast CSV into grouped quantile forecasts.

    Rows are grouped per (model, task); duplicate (model, task, level) rows
    are an error. A group whose level set differs from the declared one is
    flagged invalid and reported, not returned. When ``levels`` is omitted the
    declared set is inferred from the file: the most common signature, ties
    broken toward the one with more levels (an incomplete record is a subset
    of the declared set), then lexicographically. Non-monotone quantiles
    raise a validation error naming model and task.
    """
    report = ReadReport()
    groups: dict[tuple[str, TaskKey], dict[float, float]] = {}
    with _open_reader(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _check_header(header, FORECAST_HEADER, path)
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(FORECAST_HEADER):
                raise ParseError(f"row {rownum}: expected {len(FORECAST_HEADER)} fields, got {len(row)}")
            model = row[0].strip()
            if not model:
                raise ParseError(f"row {rownum}: empty model id")
            task = TaskKey(
                forecast_date=_parse_date(row[1], rownum, "forecast_date"),
                location=row[2].strip(),
                horizon=_parse_int(row[3], rownum, "horizon"),
                target_end_date=_parse_date(row[4], rownum, "target_end_date"),
            )
            level = _parse_float(row[5], rownum, "quantile_level")
            value = _parse_float(row[6], rownum, "value")
            body = groups.setdefault((model, task), {})
            if level in body:
                raise ParseError(
                    f"row {rownum}: duplicate quantile row for ({model!r}, {task}, {level})"
                )
            body[level] = value

    if levels is not None:
        declared = levels.levels
    else:
        signatures: dict[tuple[float, ...], int] = {}
        for body in groups.values():
            sig = tuple(sorted(body))
            signatures[sig] = signatures.get(sig, 0) + 1
        if not signatures:
            return [], report
        declared = max(sorted(signatures), key=lambda sig: (signatures[sig], len(sig)))
    declared_levels = QuantileLevels(declared)

    records: list[ForecastRecord] = []
    for (model, task) in sorted(groups, key=lambda key: (key[0], key[1])):
        body = groups[(model, task)]
        if tuple(sorted(body)) != declared:
            report.invalid.append(
                f"({model!r}, {task}): incomplete quantile set "
                f"({len(body)} of {len(declared)} declared levels)"
            )
            continue
        values = tuple(body[p] for p in declared)
        try:
            forecast = QuantileForecast(declared_levels, values)
        except ValidationError as exc:
            raise ValidationError(f"({model!r}, {task}): {exc}") from None
        approx_end = task.forecast_date + timedelta(days=7 * task.horizon)
        if abs((task.target_end_date - approx_end).days) > 6:
            report.warnings.append(
                f"({model!r}, {task}): target_end_date is inconsistent with "
                f"forecast_date + {task.horizon} week(s)"
            )
        records.append(ForecastRecord(model, task, forecast))
    return records, report


def read_truth(path: str) -> dict[tuple[str, date], Observation]:
    """Read the ground-truth CSV into a (location, target_end_date) map."""
    truth: dict[tuple[str, date], Observation] = {}
    with _open_reader(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _check_header(header, TRUTH_HEADER, path)
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(TRUTH_HEADER):
                raise ParseError(f"row {rownum}: expected {len(TRUTH_HEADER)} fields, got {len(row)}")
            key = (row[0].strip(), _parse_date(row[1], rownum, "target_end_date"))
            if key in truth:
                raise ParseError(f"row {rownum}: duplicate truth for {key}")
            truth[key] = Observation(_parse_float(row[2], rownum, "value"))
    return truth


def format_float(value: float) -> str:
    """Render with 17 significant digits so values survive a CSV round trip."""
    return format(float(value), ".17g")


def _result_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def write_results(
    rows: Iterable[Mapping[str, object]],
    output: str,
    fmt: str = "csv",
    note: str | None = None,
) -> None:
    """Write result rows (keys from RESULT_HEADER) as CSV or JSON.

    ``output`` of ``-`` streams to standard output. Callers are responsible
    for row ordering; this function writes rows as given. An empty row list
    produces a header-only CSV (or an empty JSON row list). A ``note``
    becomes a ``#`` comment line above the CSV header.
    """
    rows = list(rows)
    if fmt == "csv":
        text = _results_csv(rows, note)
    elif fmt == "json":
        text = _results_json(rows, note)
    else:
        raise ValidationError(f"unknown output format {fmt!r}")
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _results_csv(rows: list[Mapping[str, object]], note: str | None) -> str:
    buf = io.StringIO()
    if note:
        buf.write(f"# {note}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_HEADER)
    for row in rows:
        writer.writerow([_result_cell(row.get(k)) for k in RESULT_HEADER])
    return buf.getvalue()


def _results_json(rows: list[Mapping[str, object]], note: str | None) -> str:
    out = []
    for row in rows:
        entry = {}
        for k in RESULT_HEADER:
            v = row.get(k)
            if v is None:
                continue
            entry[k] = v.isoformat() if isinstance(v, date) else v
        out.append(entry)
    payload = {"note": note, "rows": out}
    return json.dumps(payload, indent=2) + "\n"
