"""Hub-format CSV ingestion, array score panels, NA policies, and result output.

Forecast CSV header: ``model,forecast_date,location,horizon,target_end_date,quantile_level,value``
(one row per quantile). Truth CSV header: ``location,target_end_date,value``.
Dates are ISO-8601; locations are opaque string codes.

Reading parses each distinct spelling of a row's key fields once and groups
the rows into one validated :class:`ForecastRecord` per (model, task). From
there a panel is arrays: a :class:`ScorePanel` holds sorted models and
tasks, a (models, tasks) float64 ``values`` array and a ``present`` mask.
:func:`score_records` fills one with a single call to the array scorer, the
NA policies are column operations on it and the per-model means row
operations, and :func:`write_results` writes every table the package emits.
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

import numpy as np

from .ensembling import ForecastPool
from .scoring import (
    Metric,
    Observation,
    QuantileForecast,
    QuantileLevels,
    ValidationError,
    positive_scores,
    scored_values,
)

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
    "score_records",
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


@dataclass(frozen=True, eq=False)
class ScorePanel:
    """Model x task matrix of positively oriented values with explicit missing cells.

    ``values`` is (models, tasks) float64 and ``present`` the same-shaped
    mask of cells that hold a value; absent cells read NaN and are the NA
    cells. ``models`` and ``tasks`` are sorted and distinct. The same
    container holds -WIS/-SPE panels and importance panels.
    """

    models: tuple[str, ...]
    tasks: tuple[TaskKey, ...]
    values: np.ndarray
    present: np.ndarray

    def __post_init__(self) -> None:
        shape = (len(self.models), len(self.tasks))
        values = np.asarray(self.values, dtype=np.float64)
        present = np.array(self.present, dtype=bool)
        if values.shape != shape or present.shape != shape:
            raise ValidationError(f"panel arrays must be {shape}, got {values.shape} and {present.shape}")
        for ids in (self.models, self.tasks):
            if any(not a < b for a, b in zip(ids, ids[1:])):
                raise ValidationError("panel models and tasks must be sorted and distinct")
        bad = np.argwhere(present & ~np.isfinite(values))
        if len(bad):
            i, j = bad[0]
            raise ValidationError(f"cell ({self.models[i]!r}, {self.tasks[j]}) is not finite")
        values = np.where(present, values, np.nan)
        values.setflags(write=False)
        present.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "present", present)

    def cell(self, model: str, task: TaskKey) -> float | None:
        if model not in self.models or task not in self.tasks:
            return None
        i, j = self.models.index(model), self.tasks.index(task)
        return float(self.values[i, j]) if self.present[i, j] else None


def score_records(
    records: Sequence[ForecastRecord],
    truth: Mapping[tuple[str, date], Observation],
    metric: Metric,
) -> tuple[ScorePanel, ReadReport]:
    """Positively oriented score of every record whose task has a truth value.

    All records are scored in one array call, so they must share one
    quantile level set. Each task without truth is listed once in the report.
    """
    scored: list[ForecastRecord] = []
    y: list[float] = []
    untruthed: set[TaskKey] = set()
    for rec in sorted(records, key=lambda r: (r.model, r.task)):
        obs = truth.get((rec.task.location, rec.task.target_end_date))
        if obs is None:
            untruthed.add(rec.task)
        else:
            scored.append(rec)
            y.append(obs.value)
    report = ReadReport(excluded_tasks=[f"{task}: no truth value" for task in sorted(untruthed)])
    models = sorted({rec.model for rec in scored})
    tasks = sorted({rec.task for rec in scored})
    values = np.full((len(models), len(tasks)), np.nan)
    present = np.zeros(values.shape, dtype=bool)
    if scored:
        levels = scored[0].forecast.levels
        if any(rec.forecast.levels != levels for rec in scored):
            raise ValidationError("records to score must share one quantile level set")
        quantiles = np.asarray([rec.forecast.values for rec in scored], dtype=np.float64)
        model_index = {m: i for i, m in enumerate(models)}
        task_index = {t: j for j, t in enumerate(tasks)}
        rows = [model_index[rec.model] for rec in scored]
        cols = [task_index[rec.task] for rec in scored]
        values[rows, cols] = positive_scores(*scored_values(quantiles, levels, metric), np.asarray(y))
        present[rows, cols] = True
    return ScorePanel(tuple(models), tuple(tasks), values, present), report


def apply_na_policy(panel: ScorePanel, policy: NaPolicy) -> ScorePanel:
    """Resolve missing cells: leave absent (drop), or fill per task column.

    ``worst`` fills with the column minimum of present values, ``mean`` with
    the column average. Task columns with no present value at all cannot be
    filled and are removed under every policy.
    """
    kept = panel.present.any(axis=0)
    tasks = tuple(t for t, k in zip(panel.tasks, kept.tolist()) if k)
    values, present = panel.values[:, kept], panel.present[:, kept]
    if policy is not NaPolicy.DROP:
        fills = []
        for col, mask in zip(values.T, present.T):
            vals = col[mask].tolist()
            fills.append(min(vals) if policy is NaPolicy.WORST else math.fsum(vals) / len(vals))
        values = np.where(present, values, np.asarray(fills, dtype=np.float64))
        present = np.ones_like(present)
    return ScorePanel(panel.models, tasks, values, present)


def model_mean_scores(panel: ScorePanel) -> dict[str, float]:
    """Per-model mean over present cells, tasks in sorted order.

    Models with no present cell are omitted (reported missing, never zero).
    """
    means: dict[str, float] = {}
    for model, row, mask in zip(panel.models, panel.values, panel.present):
        vals = row[mask].tolist()
        if vals:
            means[model] = math.fsum(vals) / len(vals)
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


def _parse_key(row: Sequence[str], rownum: int) -> tuple[str, TaskKey]:
    model = row[0].strip()
    if not model:
        raise ParseError(f"row {rownum}: empty model id")
    task = TaskKey(
        forecast_date=_parse_date(row[1], rownum, "forecast_date"),
        location=row[2].strip(),
        horizon=_parse_int(row[3], rownum, "horizon"),
        target_end_date=_parse_date(row[4], rownum, "target_end_date"),
    )
    return model, task


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
    # Rows repeat their key fields once per level, so each distinct spelling
    # of a key is parsed once; spellings that parse alike share one group.
    by_text: dict[tuple[str, ...], tuple[tuple[str, TaskKey], dict[float, float]]] = {}
    with _open_reader(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _check_header(header, FORECAST_HEADER, path)
        for rownum, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) != len(FORECAST_HEADER):
                raise ParseError(f"row {rownum}: expected {len(FORECAST_HEADER)} fields, got {len(row)}")
            text = tuple(row[:5])
            entry = by_text.get(text)
            if entry is None:
                key = _parse_key(row, rownum)
                entry = by_text[text] = (key, groups.setdefault(key, {}))
            (model, task), body = entry
            level = _parse_float(row[5], rownum, "quantile_level")
            value = _parse_float(row[6], rownum, "value")
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
    for (model, task) in sorted(groups):
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
    header: Sequence[str] = RESULT_HEADER,
) -> None:
    """Write result rows as CSV or JSON; every table the package emits goes through here.

    Rows are mappings keyed by ``header`` (missing keys and None are empty
    cells). ``output`` of ``-`` streams to standard output. Callers are
    responsible for row ordering; this function writes rows as given. An
    empty row list produces a header-only CSV (or an empty JSON row list).
    A ``note`` becomes a ``#`` comment line above the CSV header; JSON
    output is the envelope ``{"note": ..., "rows": [...]}``, each row
    without its empty cells.
    """
    rows = list(rows)
    if fmt == "csv":
        text = _results_csv(rows, note, header)
    elif fmt == "json":
        text = _results_json(rows, note, header)
    else:
        raise ValidationError(f"unknown output format {fmt!r}")
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _results_csv(rows: list[Mapping[str, object]], note: str | None, header: Sequence[str]) -> str:
    buf = io.StringIO()
    if note:
        buf.write(f"# {note}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_result_cell(row.get(k)) for k in header])
    return buf.getvalue()


def _results_json(rows: list[Mapping[str, object]], note: str | None, header: Sequence[str]) -> str:
    out = []
    for row in rows:
        entry = {}
        for k in header:
            v = row.get(k)
            if v is None:
                continue
            entry[k] = v.isoformat() if isinstance(v, date) else v
        out.append(entry)
    payload = {"note": note, "rows": out}
    return json.dumps(payload, indent=2) + "\n"
