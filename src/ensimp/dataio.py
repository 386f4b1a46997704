"""Hub-format CSV ingestion, the array panel, NA policies, and result output.

Forecast CSV header: ``model,forecast_date,location,horizon,target_end_date,quantile_level,value``
(one row per quantile). Truth CSV header: ``location,target_end_date,value``.
Dates are ISO-8601; locations are opaque string codes.

One type carries data from the CSV to the kernels: a :class:`Panel` holds
sorted models and tasks, a ``present`` mask of the (models, tasks) cells
that hold a value, and ``values``, either (models, tasks) scores or, with
``levels`` set, (models, tasks, levels) quantile forecasts. Reading parses
each distinct spelling of a row's key fields once and fills a forecast panel
directly, checking monotonicity as one array check. :func:`build_task_pools`
keeps the tasks that can be scored, as a :class:`TaskPanel` with their truth;
:func:`score_records` scores every present cell in one call of the array
scorer; the NA policies are column operations and the per-model means row
operations; and :func:`write_results` writes every table the package emits.
The object API's :class:`TaskPool` list reaches the same path through
:func:`from_pools`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ensembling import ForecastPool
from .scoring import (
    Metric,
    Observation,
    QuantileLevels,
    ValidationError,
    positive_scores,
    scored_values,
)

__all__ = [
    "FORECAST_HEADER",
    "TRUTH_HEADER",
    "NaPolicy",
    "Panel",
    "ParseError",
    "ReadReport",
    "TaskKey",
    "TaskPanel",
    "TaskPool",
    "apply_na_policy",
    "build_task_pools",
    "from_pools",
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


@dataclass(frozen=True, eq=False)
class Panel:
    """Model x task cells with explicit missing ones: scores, or quantile forecasts.

    ``present`` is the (models, tasks) mask of the cells that hold a value.
    Without ``levels``, ``values`` is (models, tasks) float64, one score or
    point value per cell; with ``levels`` it is (models, tasks, levels)
    quantile values, non-decreasing in level. Absent cells read NaN and are
    the NA cells. ``models`` and ``tasks`` are sorted and distinct. The same
    container holds forecasts, -WIS/-SPE panels and importance panels;
    ``len()`` is the number of present cells.
    """

    models: tuple[str, ...]
    tasks: tuple[TaskKey, ...]
    values: np.ndarray
    present: np.ndarray
    levels: QuantileLevels | None = None

    def __post_init__(self) -> None:
        cells = (len(self.models), len(self.tasks))
        shape = cells if self.levels is None else cells + (len(self.levels),)
        values = np.asarray(self.values, dtype=np.float64)
        present = np.array(self.present, dtype=bool)
        if values.shape != shape or present.shape != cells:
            raise ValidationError(
                f"panel arrays must be {shape} and {cells}, got {values.shape} and {present.shape}"
            )
        for ids in (self.models, self.tasks):
            if any(not a < b for a, b in zip(ids, ids[1:])):
                raise ValidationError("panel models and tasks must be sorted and distinct")
        mask = present.reshape(cells + (1,) * (len(shape) - 2))
        bad = np.argwhere(mask & ~np.isfinite(values))
        if len(bad):
            i, j = bad[0][:2]
            raise ValidationError(f"cell ({self.models[i]!r}, {self.tasks[j]}) is not finite")
        if self.levels is not None:
            bad = np.argwhere(mask & (values[..., :-1] > values[..., 1:]))
            if len(bad):
                i, j, k = bad[0].tolist()
                p = self.levels.levels
                raise ValidationError(
                    f"({self.models[i]!r}, {self.tasks[j]}): quantile values must be "
                    f"non-decreasing in level; value {float(values[i, j, k])} at level {p[k]} "
                    f"exceeds {float(values[i, j, k + 1])} at level {p[k + 1]}"
                )
        values = np.where(mask, values, np.nan)
        values.setflags(write=False)
        present.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "present", present)

    def __len__(self) -> int:
        return int(self.present.sum())


def _fill(cells: Mapping[tuple[str, TaskKey], object], levels: QuantileLevels | None) -> Panel:
    """The panel of a map from (model, task) to the cell's value or quantile values."""
    models = sorted({model for model, _ in cells})
    tasks = sorted({task for _, task in cells})
    model_index = {m: i for i, m in enumerate(models)}
    task_index = {t: j for j, t in enumerate(tasks)}
    index = ([model_index[m] for m, _ in cells], [task_index[t] for _, t in cells])
    shape = (len(models), len(tasks))
    values = np.full(shape if levels is None else shape + (len(levels),), np.nan)
    present = np.zeros(shape, dtype=bool)
    values[index] = np.reshape(list(cells.values()), (len(cells),) + values.shape[2:])
    present[index] = True
    return Panel(tuple(models), tuple(tasks), values, present, levels)


def _columns(panel: Panel, cols: Sequence[int]) -> Panel:
    """The panel of the given task columns and the models present in them."""
    present = panel.present[:, cols]
    rows = present.any(axis=1)
    models = tuple(m for m, kept in zip(panel.models, rows.tolist()) if kept)
    tasks = tuple(panel.tasks[j] for j in cols)
    return Panel(models, tasks, panel.values[np.ix_(rows, cols)], present[rows], panel.levels)


@dataclass(frozen=True)
class TaskPanel:
    """The forecasts of the tasks to score and their truth; ``len()`` is the task count.

    ``truth`` is the (tasks,) float64 vector of observed values, aligned
    with ``forecasts.tasks``.
    """

    forecasts: Panel
    truth: np.ndarray

    def __post_init__(self) -> None:
        if self.truth.shape != (len(self.forecasts.tasks),):
            raise ValidationError(f"need one truth value per task, got shape {self.truth.shape}")

    def __len__(self) -> int:
        return len(self.forecasts.tasks)


def from_pools(task_pools: Sequence[TaskPool]) -> TaskPanel:
    """The task panel of a list of task pools: the object API's way onto the array path.

    One call takes one level set: every pool holds quantile forecasts at the
    same levels, or every pool point forecasts. A pool that differs from the
    first task's is rejected, naming its task.
    """
    pools = sorted(task_pools, key=lambda tp: tp.task)
    kinds = [tp.pool.levels if tp.pool.is_quantile else None for tp in pools]
    for k, (tp, kind) in enumerate(zip(pools, kinds)):
        if k and tp.task == pools[k - 1].task:
            raise ValidationError(f"duplicate task {tp.task}")
        if kind != kinds[0]:
            raise ValidationError(
                f"task {tp.task} has {kind or 'point forecasts'} where task {pools[0].task} "
                f"has {kinds[0] or 'point forecasts'}; one call takes one level set"
            )
    cells = {(model, tp.task): values for tp in pools
             for model, values in zip(tp.pool.model_ids, tp.pool.values_matrix().tolist())}
    forecasts = _fill(cells, kinds[0] if kinds else None)
    return TaskPanel(forecasts, np.asarray([tp.truth.value for tp in pools], dtype=np.float64))


def _join_truth(
    panel: Panel, truth: Mapping[tuple[str, date], Observation], min_models: int
) -> tuple[TaskPanel, ReadReport]:
    """The tasks with a truth value and ``min_models`` or more forecasts; the rest are reported."""
    report = ReadReport()
    kept: list[int] = []
    y: list[float] = []
    for j, (task, count) in enumerate(zip(panel.tasks, panel.present.sum(axis=0).tolist())):
        obs = truth.get((task.location, task.target_end_date))
        if obs is None:
            report.excluded_tasks.append(f"{task}: no truth value")
        elif count < min_models:
            report.excluded_tasks.append(f"{task}: fewer than {min_models} models")
        else:
            kept.append(j)
            y.append(obs.value)
    return TaskPanel(_columns(panel, kept), np.asarray(y, dtype=np.float64)), report


def build_task_pools(
    panel: Panel, truth: Mapping[tuple[str, date], Observation]
) -> tuple[TaskPanel, ReadReport]:
    """Join a forecast panel with truth into the panel of the tasks to score.

    Tasks without a truth value or with fewer than two models are excluded
    and listed in the report; nothing is dropped silently.
    """
    return _join_truth(panel, truth, 2)


def score_records(
    panel: Panel,
    truth: Mapping[tuple[str, date], Observation],
    metric: Metric,
) -> tuple[Panel, ReadReport]:
    """Positively oriented score of every present cell whose task has a truth value.

    All cells are scored in one array call. Each task without truth is
    listed once in the report.
    """
    tasks, report = _join_truth(panel, truth, 1)
    scored = tasks.forecasts
    values = np.full(scored.present.shape, np.nan)
    if len(scored):
        cells = scored.present
        ys = np.broadcast_to(tasks.truth, cells.shape)[cells]
        quantiles, levels = scored_values(scored.values[cells], scored.levels, metric)
        values[cells] = positive_scores(quantiles, levels, ys)
    return Panel(scored.models, scored.tasks, values, scored.present), report


def apply_na_policy(panel: Panel, policy: NaPolicy) -> Panel:
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
    return Panel(panel.models, tasks, values, present)


def model_mean_scores(panel: Panel) -> dict[str, float]:
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
    forecast_date = _parse_date(row[1], rownum, "forecast_date")
    horizon = _parse_int(row[3], rownum, "horizon")
    target_end_date = _parse_date(row[4], rownum, "target_end_date")
    try:
        return model, TaskKey(forecast_date, row[2].strip(), horizon, target_end_date)
    except ValidationError as exc:
        raise ParseError(f"row {rownum}: {exc}") from None


def read_forecasts(path: str) -> tuple[Panel, ReadReport]:
    """Read a hub-format forecast CSV into a (models, tasks, levels) forecast panel.

    Rows are grouped per (model, task); duplicate (model, task, level) rows
    are an error. A group whose level set differs from the declared one is
    flagged invalid and reported, not returned: the report names its levels
    outside the declared set, or else counts the declared levels it has.
    The declared set is inferred from the file: the most common signature,
    ties broken toward the one with more levels (an incomplete record is a
    subset of the declared set), then lexicographically. Non-monotone
    quantiles raise a validation error naming model, task and levels; an
    invalid task key raises a parse error naming its row, and a declared set
    outside (0, 1) one naming the file.
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

    signatures: dict[tuple[float, ...], int] = {}
    for body in groups.values():
        sig = tuple(sorted(body))
        signatures[sig] = signatures.get(sig, 0) + 1
    if not signatures:
        return _fill({}, None), report
    declared = max(sorted(signatures), key=lambda sig: (signatures[sig], len(sig)))
    try:
        levels = QuantileLevels(declared)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None

    kept: dict[tuple[str, TaskKey], list[float]] = {}
    for (model, task) in sorted(groups):
        body = groups[(model, task)]
        if tuple(sorted(body)) != declared:
            extra = sorted(set(body).difference(declared))
            if extra:
                problem = (
                    f"levels {', '.join(map(str, extra))} outside the "
                    f"{len(declared)} declared levels"
                )
            else:
                problem = f"incomplete quantile set ({len(body)} of {len(declared)} declared levels)"
            report.invalid.append(f"({model!r}, {task}): {problem}")
            continue
        # Day counts, not dates: a date ``horizon`` weeks on can overflow.
        if abs((task.target_end_date - task.forecast_date).days - 7 * task.horizon) > 6:
            report.warnings.append(
                f"({model!r}, {task}): target_end_date is inconsistent with "
                f"forecast_date + {task.horizon} week(s)"
            )
        kept[(model, task)] = [body[p] for p in declared]
    return _fill(kept, levels), report


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
                raise ParseError(f"row {rownum}: duplicate truth for location {key[0]!r} on {key[1]}")
            truth[key] = Observation(_parse_float(row[2], rownum, "value"))
    return truth


def _result_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        # 17 significant digits: the value survives a CSV round trip.
        return format(float(value), ".17g")
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
