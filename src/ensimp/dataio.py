"""Hub-format CSV ingestion, the array panel, NA policies, and result output.

Forecast CSV header: ``model,forecast_date,location,horizon,target_end_date,quantile_level,value``
(one row per quantile). Truth CSV header: ``location,target_end_date,value``.
Dates are ISO-8601; locations are opaque string codes.

One type carries data from the CSV to the kernels: a :class:`Panel` holds
sorted models and tasks, a ``present`` mask of the (models, tasks) cells
that hold a value, and ``values``, either (models, tasks) scores or, with
``levels`` set, (models, tasks, levels) quantile forecasts.

A plain forecast file, with no ``"`` and no carriage return, is read
column-wise in 1 MB blocks: each line is split once from the right into key
text, level and value, each distinct key text is parsed once, and each block's
levels and values are cast in one numpy call each. Anything irregular restarts
the read with the :mod:`csv` row reader, which also takes quoted fields and
CRLF and is the one source of row errors, each naming the file and row; one
dict from (key index, level) to value is both its duplicate check and its
store. Both readers skip rows that hold nothing but whitespace, so a blank row
keeps a file on the column-wise read, and both hand the same columns (the
(model, task) keys, and per row a key index, level and value) to one array back
half, which sorts the columns in place, finds repeated levels, infers the
declared level set from one tuple per distinct set, reports invalid groups and
calendar slips, and fills the forecast panel, checking monotonicity as one
array check. :func:`build_task_pools` keeps the tasks that can be scored, as a
:class:`TaskPanel` with their truth; :func:`score_records` and
:func:`score_tasks` score every present cell in one call of the array scorer;
the NA policies are column operations and the per-model means row operations;
and :func:`write_results` writes every table the package emits. The object
API's :class:`TaskPool` list reaches the same path through :func:`from_pools`.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from collections import Counter
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
    "score_tasks",
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

    def __str__(self) -> str:
        """How messages name the task, e.g. ``2021-11-15/46/h1/2021-11-20``."""
        return f"{self.forecast_date}/{self.location}/h{self.horizon}/{self.target_end_date}"


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


def _fill(
    keys: Sequence[tuple[str, TaskKey]], cells: object, levels: QuantileLevels | None
) -> Panel:
    """The panel of distinct (model, task) keys and, per key, its value or quantile values."""
    models = sorted({model for model, _ in keys})
    tasks = sorted({task for _, task in keys})
    model_index = {m: i for i, m in enumerate(models)}
    task_index = {t: j for j, t in enumerate(tasks)}
    index = ([model_index[m] for m, _ in keys], [task_index[t] for _, t in keys])
    shape = (len(models), len(tasks))
    values = np.full(shape if levels is None else shape + (len(levels),), np.nan)
    present = np.zeros(shape, dtype=bool)
    values[index] = np.reshape(cells, (len(keys),) + values.shape[2:])
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

    ``truth`` is the (tasks,) vector of observed values, aligned with
    ``forecasts.tasks``, kept as a read-only float64 copy.
    """

    forecasts: Panel
    truth: np.ndarray

    def __post_init__(self) -> None:
        truth = np.array(self.truth, dtype=np.float64)
        if truth.shape != (len(self.forecasts.tasks),):
            raise ValidationError(f"need one truth value per task, got shape {truth.shape}")
        bad = np.flatnonzero(~np.isfinite(truth))
        if len(bad):
            raise ValidationError(f"truth of task {self.forecasts.tasks[bad[0]]} is not finite")
        truth.setflags(write=False)
        object.__setattr__(self, "truth", truth)

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
    forecasts = _fill(list(cells), list(cells.values()), kinds[0] if kinds else None)
    return TaskPanel(forecasts, [tp.truth.value for tp in pools])


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
    return TaskPanel(_columns(panel, kept), y), report


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

    Each task without truth is listed once in the report.
    """
    tasks, report = _join_truth(panel, truth, 1)
    return score_tasks(tasks, metric), report


def score_tasks(tasks: TaskPanel, metric: Metric) -> Panel:
    """Positively oriented score of every present cell of a task panel, in one array call."""
    scored = tasks.forecasts
    values = np.full(scored.present.shape, np.nan)
    if len(scored):
        cells = scored.present
        ys = np.broadcast_to(tasks.truth, cells.shape)[cells]
        quantiles, levels = scored_values(scored.values[cells], scored.levels, metric)
        with np.errstate(over="ignore", invalid="ignore"):  # the Panel names a non-finite cell
            values[cells] = positive_scores(quantiles, levels, ys)
    return Panel(scored.models, scored.tasks, values, scored.present)


def apply_na_policy(panel: Panel, policy: NaPolicy) -> Panel:
    """Resolve missing cells: leave absent (drop), or fill per task column.

    ``worst`` fills with the column minimum of present values, ``mean`` with
    the column average. Only columns with a gap are filled: no fill is
    computed for a gap-free column. Task columns with no present value at
    all cannot be filled and are removed under every policy.
    """
    kept = panel.present.any(axis=0)
    tasks = tuple(t for t, k in zip(panel.tasks, kept.tolist()) if k)
    values, present = panel.values[:, kept], panel.present[:, kept]  # copies, filled in place
    if policy is not NaPolicy.DROP:
        for j in np.flatnonzero(~present.all(axis=0)).tolist():
            col, mask = values[:, j], present[:, j]
            vals = col[mask].tolist()
            col[~mask] = (min(vals) if policy is NaPolicy.WORST
                          else _mean(vals, "mean fill of task {}", tasks[j]))
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
            means[model] = _mean(vals, "mean of model {!r} over tasks", model)
    return means


def _mean(vals: list[float], what: str, name: object) -> float:
    """The correctly rounded sum of ``vals`` over their count. A sum that
    overflows, though every value is finite, is rejected as ``what`` of ``name``."""
    try:
        return math.fsum(vals) / len(vals)
    except OverflowError:
        raise ValidationError(f"{what.format(name)} overflows float64") from None


def _parse_date(text: str, where: str, col: str) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise ParseError(f"{where}: invalid ISO-8601 date in {col!r}: {text!r}") from None


def _parse_float(text: str, where: str, col: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{where}: invalid number in {col!r}: {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"{where}: non-finite number in {col!r}: {text!r}")
    return value


def _parse_int(text: str, where: str, col: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{where}: invalid integer in {col!r}: {text!r}") from None


def _open_reader(path: str):
    # utf-8-sig drops the byte-order mark spreadsheet exports put first.
    return open(path, newline="", encoding="utf-8-sig")


def _check_header(got: Sequence[str] | None, expected: tuple[str, ...], path: str) -> None:
    if got is None or tuple(got) != expected:
        raise ParseError(
            f"{path}: expected header {','.join(expected)}, got {','.join(got or ())}"
        )


def _csv_rows(fh, path: str, header: tuple[str, ...]):
    """``(where, row)`` for each row of a CSV file after its header, which must be ``header``.

    ``where`` names the file and row for messages. Rows that hold nothing
    but whitespace are skipped; any other row must have one field per header
    column. A byte that is not UTF-8, or a field :mod:`csv` refuses (such as
    one over its field size limit), raises a :class:`ParseError` naming the file.
    """
    reader = csv.reader(fh)
    try:
        _check_header(next(reader, None), header, path)
        for rownum, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            where = f"{path}: row {rownum}"
            if len(row) != len(header):
                raise ParseError(f"{where}: expected {len(header)} fields, got {len(row)}")
            yield where, row
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: row {reader.line_num}: {exc}") from None


def _parse_key(row: Sequence[str], where: str) -> tuple[str, TaskKey]:
    model = row[0].strip()
    if not model:
        raise ParseError(f"{where}: empty model id")
    forecast_date = _parse_date(row[1], where, "forecast_date")
    horizon = _parse_int(row[3], where, "horizon")
    target_end_date = _parse_date(row[4], where, "target_end_date")
    try:
        return model, TaskKey(forecast_date, row[2].strip(), horizon, target_end_date)
    except ValidationError as exc:
        raise ParseError(f"{where}: {exc}") from None


# Characters per block of the column-wise read: the text in memory at once.
_BLOCK_CHARS = 1 << 20

# The columns both forecast readers hand on: the distinct (model, task) keys
# in order of first appearance, then per data row its key's index, its
# quantile level and its value.
_Columns = tuple[list[tuple[str, TaskKey]], np.ndarray, np.ndarray, np.ndarray]


class _Irregular(Exception):
    """The file holds something only the row reader may judge or name."""


def _plain_block(
    lines: list[str], by_text: dict[str, int], by_key: dict[tuple[str, TaskKey], int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Key index, level and value of each non-blank line, or :class:`_Irregular`."""
    if max(map(len, lines), default=0) > csv.field_size_limit():
        raise _Irregular  # csv.reader refuses a field this long
    texts: list[str] = []
    levels: list[str] = []
    values: list[str] = []
    # A loop, not a comprehension: each split is freed at once, so the many
    # short-lived lists do not set off the cyclic garbage collector.
    for line in lines:
        try:
            text, level, value = line.rsplit(",", 2)
        except ValueError:
            if not line.strip():
                continue  # a whitespace-only line, which the row reader skips too
            raise _Irregular from None
        texts.append(text)
        levels.append(level)
        values.append(value)
    for text in dict.fromkeys(texts):
        if text not in by_text:
            fields = text.split(",")
            if len(fields) != 5:
                raise _Irregular
            try:
                key = _parse_key(fields, "")
            except ParseError:
                raise _Irregular from None
            by_text[text] = by_key.setdefault(key, len(by_key))
    gid = np.fromiter(map(by_text.__getitem__, texts), dtype=np.intp, count=len(texts))
    try:
        # Casting str to float64 parses each item as float() does.
        level = np.array(levels, dtype=np.float64)
        value = np.array(values, dtype=np.float64)
    except ValueError:
        raise _Irregular from None
    if not (np.isfinite(level).all() and np.isfinite(value).all()):
        raise _Irregular
    return gid, level, value


def _plain_columns(fh) -> _Columns:
    """The columns of a plain file (no quote, no carriage return), read column-wise.

    The text is split on ``\\n`` only, block by block, and each line once
    from the right into key text, level and value. Each distinct key text is
    parsed once; spellings that parse alike share one key. Lines that hold
    nothing but whitespace are skipped, as the row reader skips them. A wrong
    field count, a bad key or number, a non-finite value or a header mismatch
    raises :class:`_Irregular`.
    """
    if fh.readline().rstrip("\n") != ",".join(FORECAST_HEADER):
        raise _Irregular
    by_text: dict[str, int] = {}
    by_key: dict[tuple[str, TaskKey], int] = {}
    parts = [(np.empty(0, np.intp), np.empty(0), np.empty(0))]
    tail = ""
    while block := fh.read(_BLOCK_CHARS):
        if '"' in block or "\r" in block:
            raise _Irregular
        lines = (tail + block).split("\n")
        tail = lines.pop()  # the partial last line goes on to the next block
        parts.append(_plain_block(lines, by_text, by_key))
    if tail:
        parts.append(_plain_block([tail], by_text, by_key))
    gid, level, value = map(np.concatenate, zip(*parts))
    return list(by_key), gid, level, value


def _row_columns(fh, path: str) -> _Columns:
    """The columns of any forecast file, read row by row with :mod:`csv`.

    This reader takes quoted fields, carriage returns and blank rows, and is
    the one source of row errors, each naming the file and row. One dict from
    (key index, level) to value holds each row once: duplicate check and store.
    """
    by_text: dict[tuple[str, ...], int] = {}
    by_key: dict[tuple[str, TaskKey], int] = {}
    cells: dict[tuple[int, float], float] = {}
    for where, row in _csv_rows(fh, path, FORECAST_HEADER):
        text = tuple(row[:5])
        g = by_text.get(text)
        if g is None:
            g = by_text[text] = by_key.setdefault(_parse_key(row, where), len(by_key))
        p = _parse_float(row[5], where, "quantile_level")
        v = _parse_float(row[6], where, "value")
        if (g, p) in cells:
            model, task = list(by_key)[g]
            raise ParseError(f"{where}: duplicate quantile row for ({model!r}, {task}, {p})")
        cells[g, p] = v
    pairs = np.fromiter(cells, dtype=(np.float64, 2), count=len(cells))
    value = np.fromiter(cells.values(), dtype=np.float64, count=len(cells))
    return list(by_key), pairs[:, 0].astype(np.intp), pairs[:, 1], value


def _forecast_panel(
    path: str, keys: list[tuple[str, TaskKey]], gid: np.ndarray, level: np.ndarray,
    value: np.ndarray,
) -> tuple[Panel, ReadReport]:
    """The panel and report of a forecast file's columns (see ``_Columns``), sorted
    in place, one column at a time; equal level sets share one tuple."""
    report = ReadReport()
    if not keys:
        return _fill([], [], None), report
    order = np.lexsort((level, gid))
    for column in (gid, level, value):
        column[:] = column[order]
    same = gid[1:] == gid[:-1]
    if (same & (level[1:] == level[:-1])).any():
        raise _Irregular  # a repeated (key, level) pair: the row reader names its row
    # Every key has a row, so after the sort key g's levels are slice g.
    bounds = [0, *(np.flatnonzero(~same) + 1).tolist(), len(gid)]
    interned: dict[tuple[float, ...], tuple[float, ...]] = {}
    signatures = [interned.setdefault(sig, sig) for sig in
                  (tuple(level[a:b].tolist()) for a, b in zip(bounds, bounds[1:]))]
    counts = Counter(signatures)
    declared = max(sorted(counts), key=lambda sig: (counts[sig], len(sig)))
    try:
        levels = QuantileLevels(declared)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None

    valid = [sig == declared for sig in signatures]
    for g in sorted((g for g, ok in enumerate(valid) if not ok), key=keys.__getitem__):
        # The key's own levels: its interned tuple may spell a zero with the other sign.
        extra = sorted(set(level[bounds[g]:bounds[g + 1]].tolist()).difference(declared))
        if extra:
            problem = (f"levels {', '.join(map(str, extra))} outside the "
                       f"{len(declared)} declared levels")
        else:
            problem = (f"incomplete quantile set ({len(signatures[g])} of "
                       f"{len(declared)} declared levels)")
        model, task = keys[g]
        report.invalid.append(f"({model!r}, {task}): {problem}")
    kept = [keys[g] for g, ok in enumerate(valid) if ok]
    # Day counts, not dates: a date ``horizon`` weeks on can overflow.
    late = [(model, task) for model, task in kept
            if abs((task.target_end_date - task.forecast_date).days - 7 * task.horizon) > 6]
    for model, task in sorted(late):
        report.warnings.append(
            f"({model!r}, {task}): target_end_date is inconsistent with "
            f"forecast_date + {task.horizon} week(s)"
        )
    cells = value[np.repeat(valid, np.diff(bounds))]
    return _fill(kept, cells, levels), report


def read_forecasts(path: str) -> tuple[Panel, ReadReport]:
    """Read a hub-format forecast CSV into a (models, tasks, levels) forecast panel.

    Rows are grouped per (model, task); duplicate (model, task, level) rows
    are an error. A group whose level set differs from the declared one is
    flagged invalid and reported, not returned: the report names its levels
    outside the declared set, or else counts the declared levels it has.
    The declared set is inferred from the file: the most common signature,
    ties broken toward the one with more levels (an incomplete record is a
    subset of the declared set), then lexicographically. Non-monotone
    quantiles raise a validation error naming model, task and levels; a
    malformed row raises a parse error naming the file and row, and a
    declared set outside (0, 1) one naming the file.

    A plain file is read column-wise; anything irregular sends the read back
    to the start, through the row reader, which names the fault if there is one.
    """
    with _open_reader(path) as fh:
        try:
            return _forecast_panel(path, *_plain_columns(fh))
        except (_Irregular, UnicodeDecodeError):
            # A bad byte fails its whole block; the row reader reaches it only
            # after the rows before it, so an earlier row error still wins.
            fh.seek(0)
        return _forecast_panel(path, *_row_columns(fh, path))


def read_truth(path: str) -> dict[tuple[str, date], Observation]:
    """Read the ground-truth CSV into a (location, target_end_date) map."""
    truth: dict[tuple[str, date], Observation] = {}
    with _open_reader(path) as fh:
        for where, row in _csv_rows(fh, path, TRUTH_HEADER):
            key = (row[0].strip(), _parse_date(row[1], where, "target_end_date"))
            if key in truth:
                raise ParseError(f"{where}: duplicate truth for location {key[0]!r} on {key[1]}")
            truth[key] = Observation(_parse_float(row[2], where, "value"))
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
    cells), in any iterable, read once. ``output`` of ``-`` streams to
    standard output. Callers are responsible for row ordering; this function
    writes rows as given. An empty row list produces a header-only CSV (or an
    empty JSON row list). A ``note`` becomes a ``#`` comment line above the
    CSV header; JSON output is the envelope ``{"note": ..., "rows": [...]}``,
    each row without its empty cells. CSV rows are written as they are
    formatted and JSON is encoded into the target, with no copy of the
    table; an unknown format is refused before the output is opened.
    """
    writers = {"csv": _results_csv, "json": _results_json}
    if fmt not in writers:
        raise ValidationError(f"unknown output format {fmt!r}")
    if output == "-":
        writers[fmt](sys.stdout, rows, note, header)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            writers[fmt](fh, rows, note, header)


def _results_csv(fh, rows: Iterable[Mapping[str, object]], note: str | None,
                 header: Sequence[str]) -> None:
    if note:
        fh.write(f"# {note}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_result_cell(row.get(k)) for k in header] for row in rows)


def _results_json(fh, rows: Iterable[Mapping[str, object]], note: str | None,
                  header: Sequence[str]) -> None:
    out = []
    for row in rows:
        entry = {}
        for k in header:
            v = row.get(k)
            if v is None:
                continue
            entry[k] = v.isoformat() if isinstance(v, date) else v
        out.append(entry)
    json.dump({"note": note, "rows": out}, fh, indent=2)
    fh.write("\n")
