import csv
import json
import tempfile
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURES, ORACLES, perfbench_inputs, point_pool, quantile_pool, same_cells, task_key,
)

from ensimp import dataio
from ensimp.cli import main
from ensimp.dataio import (
    FORECAST_HEADER,
    NaPolicy,
    Panel,
    ParseError,
    TaskKey,
    TaskPanel,
    apply_na_policy,
    build_task_pools,
    from_pools,
    model_mean_scores,
    read_forecasts,
    read_truth,
    score_records,
    write_results,
)
from ensimp.scoring import CANONICAL_LEVELS, Metric, QuantileLevels, ValidationError

LEVELS = "0.25,0.5,0.75"


def forecast_csv(tmp_path, body, name="fc.csv"):
    path = tmp_path / name
    header = "model,forecast_date,location,horizon,target_end_date,quantile_level,value\n"
    path.write_text(header + body, encoding="utf-8")
    return str(path)


def truth_csv(tmp_path, body, name="truth.csv"):
    path = tmp_path / name
    path.write_text("location,target_end_date,value\n" + body, encoding="utf-8")
    return str(path)


def rows_for(model, fd, loc, h, end, level_values):
    return "".join(
        f"{model},{fd},{loc},{h},{end},{lvl},{val}\n" for lvl, val in level_values
    )


TRIPLE = [(0.25, 10.0), (0.5, 20.0), (0.75, 30.0)]


class TestReadForecasts:
    def test_groups_rows_into_forecasts(self, tmp_path):
        body = rows_for("alpha", "2021-11-06", "25", 1, "2021-11-13", TRIPLE)
        panel, report = read_forecasts(forecast_csv(tmp_path, body))
        assert len(panel) == 1
        assert panel.models == ("alpha",)
        assert panel.levels.levels == (0.25, 0.5, 0.75)
        assert panel.values[0, 0].tolist() == [10.0, 20.0, 30.0]
        assert not report.invalid

    def test_two_models_two_tasks(self, tmp_path):
        body = ""
        for m in ("alpha", "beta"):
            for fd, end in (("2021-11-06", "2021-11-13"), ("2021-11-13", "2021-11-20")):
                body += rows_for(m, fd, "25", 1, end, TRIPLE)
        panel, _ = read_forecasts(forecast_csv(tmp_path, body))
        assert len(panel) == 4

    def test_duplicate_level_row_is_an_error(self, tmp_path):
        body = rows_for("alpha", "2021-11-06", "25", 1, "2021-11-13", TRIPLE)
        body += "alpha,2021-11-06,25,1,2021-11-13,0.5,21.0\n"
        with pytest.raises(ParseError, match=r"0\.5"):
            read_forecasts(forecast_csv(tmp_path, body))

    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
    @pytest.mark.parametrize("duplicate_first", [True, False], ids=["duplicate", "number"])
    def test_the_earlier_of_two_faulty_rows_is_named(self, tmp_path, quote, duplicate_first):
        # A plain file is read column-wise, then again by the row reader; a
        # quoted one goes to the row reader from the start.
        duplicate = "alpha,2021-11-06,25,1,2021-11-13,0.5,21.0"
        bad_number = "beta,2021-11-06,25,1,2021-11-13,0.5,twenty"
        lines = rows_for("alpha", "2021-11-06", "25", 1, "2021-11-13", TRIPLE).splitlines()
        lines += [duplicate, bad_number] if duplicate_first else [bad_number, duplicate]
        body = "".join(",".join(f"{quote}{field}{quote}" for field in line.split(",")) + "\n"
                       for line in lines)
        path = forecast_csv(tmp_path, body)
        with pytest.raises(ParseError) as err:
            read_forecasts(path)
        task = TaskKey(date(2021, 11, 6), "25", 1, date(2021, 11, 13))
        fault = (f"duplicate quantile row for ('alpha', {task}, 0.5)" if duplicate_first
                 else "invalid number in 'value': 'twenty'")
        assert str(err.value) == f"{path}: row 5: {fault}"

    def test_incomplete_level_set_is_flagged_not_fatal(self, tmp_path):
        body = rows_for("alpha", "2021-11-06", "25", 1, "2021-11-13", TRIPLE)
        body += rows_for("beta", "2021-11-06", "25", 1, "2021-11-13", TRIPLE[:2])
        panel, report = read_forecasts(forecast_csv(tmp_path, body))
        assert len(panel) == 1 and panel.models == ("alpha",)
        assert report.invalid == [
            "('beta', 2021-11-06/25/h1/2021-11-13): "
            "incomplete quantile set (2 of 3 declared levels)"
        ]

    def test_levels_outside_the_declared_set_are_named(self, tmp_path):
        body = ""
        for m in ("alpha", "beta"):
            body += rows_for(m, "2021-11-06", "25", 1, "2021-11-13", [(0.5, 20.0)])
        body += rows_for("gamma", "2021-11-06", "25", 1, "2021-11-13", TRIPLE[:2])
        panel, report = read_forecasts(forecast_csv(tmp_path, body))
        task = TaskKey(date(2021, 11, 6), "25", 1, date(2021, 11, 13))
        assert panel.models == ("alpha", "beta")
        assert report.invalid == [
            f"('gamma', {task}): levels 0.25 outside the 1 declared levels"
        ]

    def test_non_monotone_quantiles_name_the_offender(self, tmp_path):
        body = rows_for(
            "alpha", "2021-11-06", "25", 1, "2021-11-13",
            [(0.25, 30.0), (0.5, 20.0), (0.75, 10.0)],
        )
        with pytest.raises(ValidationError, match="alpha"):
            read_forecasts(forecast_csv(tmp_path, body))

    def test_non_monotone_error_names_model_task_and_both_levels(self, tmp_path):
        body = rows_for("alpha", "2021-11-06", "25", 1, "2021-11-13", TRIPLE)
        body += rows_for(
            "beta", "2021-11-06", "25", 1, "2021-11-13",
            [(0.25, 10.0), (0.5, 30.0), (0.75, 20.0)],
        )
        task = TaskKey(date(2021, 11, 6), "25", 1, date(2021, 11, 13))
        with pytest.raises(ValidationError) as err:
            read_forecasts(forecast_csv(tmp_path, body))
        assert str(err.value) == (
            f"('beta', {task}): quantile values must be non-decreasing in level; "
            "value 30.0 at level 0.5 exceeds 20.0 at level 0.75"
        )

    def test_malformed_rows_carry_row_numbers(self, tmp_path):
        body = "alpha,not-a-date,25,1,2021-11-13,0.5,20.0\n"
        with pytest.raises(ParseError, match="row 2"):
            read_forecasts(forecast_csv(tmp_path, body))
        body = "alpha,2021-11-06,25,one,2021-11-13,0.5,20.0\n"
        with pytest.raises(ParseError, match="row 2"):
            read_forecasts(forecast_csv(tmp_path, body))
        body = "alpha,2021-11-06,25,1,2021-11-13,0.5,twenty\n"
        with pytest.raises(ParseError, match="row 2"):
            read_forecasts(forecast_csv(tmp_path, body))
        for body, col, text in (("alpha,2021-11-06,25,1,2021-11-13,0.5,inf\n", "value", "inf"),
                                ("alpha,2021-11-06,25,1,2021-11-13,nan,20.0\n",
                                 "quantile_level", "nan")):
            path = forecast_csv(tmp_path, body)
            with pytest.raises(ParseError) as err:
                read_forecasts(path)
            assert str(err.value) == f"{path}: row 2: non-finite number in {col!r}: {text!r}"

    def test_invalid_task_key_names_the_row(self, tmp_path):
        body = rows_for("alpha", "2021-11-06", "25", 1, "2021-11-13", TRIPLE[:1])
        body += rows_for("alpha", "2021-11-06", "25", 0, "2021-11-13", TRIPLE[:1])
        path = forecast_csv(tmp_path, body)
        with pytest.raises(ParseError) as err:
            read_forecasts(path)
        assert str(err.value) == f"{path}: row 3: horizon must be >= 1, got 0"
        body = rows_for("alpha", "2021-11-13", "25", 1, "2021-11-06", TRIPLE[:1])
        path = forecast_csv(tmp_path, body)
        with pytest.raises(ParseError) as err:
            read_forecasts(path)
        assert str(err.value) == (
            f"{path}: row 2: target_end_date 2021-11-06 precedes forecast_date 2021-11-13"
        )

    def test_declared_levels_outside_unit_interval_name_the_file(self, tmp_path):
        body = rows_for("alpha", "2021-11-06", "25", 1, "2021-11-13", [(1.5, 10.0)])
        body += rows_for("beta", "2021-11-06", "25", 1, "2021-11-13", [(1.5, 20.0)])
        path = forecast_csv(tmp_path, body)
        with pytest.raises(ParseError) as err:
            read_forecasts(path)
        assert str(err.value) == f"{path}: quantile level 1.5 outside open interval (0, 1)"

    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
    def test_declared_set_ties_go_to_more_levels_then_the_smaller_set(self, tmp_path, quote):
        """Two signatures held by equally many keys: the longer one is declared,
        and of two as long, the smaller. Levels join a signature by float
        equality, so ``-0`` counts with ``0``. Quoted model ids take the row
        reader."""

        def read(*key_levels):
            body = "".join(
                rows_for(f"{quote}m{i}{quote}", "2021-11-06", "25", 1, "2021-11-13",
                         [(p, 10.0 * k) for k, p in enumerate(levels)])
                for i, levels in enumerate(key_levels))
            return forecast_csv(tmp_path, body)

        def invalid(*models_problems):
            task = TaskKey(date(2021, 11, 6), "25", 1, date(2021, 11, 13))
            return [f"('{model}', {task}): {problem}" for model, problem in models_problems]

        triple, pair = ("0.25", "0.5", "0.75"), ("0.25", "0.5")
        panel, report = read_forecasts(read(pair, triple, pair, triple))
        assert panel.models == ("m1", "m3") and panel.levels.levels == (0.25, 0.5, 0.75)
        short = "incomplete quantile set (2 of 3 declared levels)"
        assert report.invalid == invalid(("m0", short), ("m2", short))

        panel, report = read_forecasts(read(("0.5", "0.75"), pair, ("0.5", "0.75"), pair))
        assert panel.models == ("m1", "m3") and panel.levels.levels == (0.25, 0.5)
        outside = "levels 0.75 outside the 2 declared levels"
        assert report.invalid == invalid(("m0", outside), ("m2", outside))

        path = read(("0", "0.5"), ("0", "0.5"), ("-0", "0.5"), triple, triple)
        with pytest.raises(ParseError) as err:
            read_forecasts(path)
        assert str(err.value) == f"{path}: quantile level 0.0 outside open interval (0, 1)"

        # A level outside the declared set is named as its own row spells it.
        panel, report = read_forecasts(read(("0", "0.5"), ("-0", "0.5"), triple, triple, triple))
        assert panel.models == ("m2", "m3", "m4")
        assert report.invalid == invalid(("m0", "levels 0.0 outside the 3 declared levels"),
                                         ("m1", "levels -0.0 outside the 3 declared levels"))

    def test_key_spellings_join_one_group(self, tmp_path):
        body = (
            "alpha,2021-11-06, 25,01,2021-11-13,0.25,10.0\n"
            "alpha,2021-11-06,25,1,2021-11-13,0.5,20.0\n"
            "alpha,2021-11-06, 25,1,2021-11-13,0.75,30.0\n"
        )
        panel, report = read_forecasts(forecast_csv(tmp_path, body))
        assert len(panel) == 1
        assert panel.models == ("alpha",)
        assert panel.tasks == (TaskKey(date(2021, 11, 6), "25", 1, date(2021, 11, 13)),)
        assert panel.values[0, 0].tolist() == [10.0, 20.0, 30.0]
        assert not report.invalid

    def test_level_repeated_across_spellings_names_the_row(self, tmp_path):
        body = rows_for("alpha", "2021-11-06", "25", 1, "2021-11-13", TRIPLE)
        body += "alpha,2021-11-06, 25,01,2021-11-13,0.5,21.0\n"
        with pytest.raises(ParseError, match=r"row 5: duplicate quantile row .*0\.5"):
            read_forecasts(forecast_csv(tmp_path, body))

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header"):
            read_forecasts(str(path))

    def test_calendar_inconsistency_warns(self, tmp_path):
        body = rows_for("alpha", "2021-11-06", "25", 1, "2021-12-25", TRIPLE)
        _, report = read_forecasts(forecast_csv(tmp_path, body))
        assert report.warnings

    def test_huge_horizon_warns_instead_of_overflowing(self, tmp_path):
        body = rows_for("alpha", "2021-11-06", "25", 999999, "2021-11-13", TRIPLE)
        panel, report = read_forecasts(forecast_csv(tmp_path, body))
        assert len(panel) == 1 and panel.tasks[0].horizon == 999999
        assert len(report.warnings) == 1
        assert "inconsistent with forecast_date + 999999 week(s)" in report.warnings[0]

    def test_fixture_reads_clean(self):
        panel, report = read_forecasts(str(FIXTURES / "forecasts.csv"))
        assert len(panel) == 22
        assert not report.invalid and not report.warnings


class TestColumnWiseRead:
    """Plain forecast files never reach the row reader; other files still read alike."""

    @pytest.fixture
    def no_row_reader(self, monkeypatch):
        real = csv.reader

        def reader(fh, *args, **kwargs):
            if Path(fh.name).name.startswith("forecasts"):
                raise AssertionError(f"row reader used on {fh.name}")
            return real(fh, *args, **kwargs)

        monkeypatch.setattr(dataio.csv, "reader", reader)

    def test_fixture_and_benchmark_panel(self, tmp_path, no_row_reader):
        panel, report = read_forecasts(str(FIXTURES / "forecasts.csv"))
        assert len(panel) == 22 and not report.invalid
        inputs = perfbench_inputs()
        shape = inputs.PanelShape(4, 3, 2, 2, 0.1, 0.0, 2)
        fc, truth = tmp_path / "forecasts.csv", tmp_path / "truth.csv"
        tallies = inputs.write_panel(shape, (0.1, 0.5, 0.9), 3, fc, truth)
        panel, report = read_forecasts(str(fc))
        assert len(panel) == tallies["groups"] - tallies["incomplete_groups"]
        assert len(report.invalid) == tallies["incomplete_groups"]

    def test_read_peak_is_under_110_bytes_per_row(self, tmp_path, no_row_reader):
        """The hub-panel read holds each row once: the columns are sorted in
        place and each key's levels are read as one tuple per level set,
        with no Python float per row."""
        inputs = perfbench_inputs()
        fc = tmp_path / "forecasts.csv"
        inputs.write_panel(inputs.HUB_PANEL, CANONICAL_LEVELS.levels, 3, fc, tmp_path / "truth.csv")
        rows = inputs.describe(fc)["rows"]
        tracemalloc.start()
        try:
            read_forecasts(str(fc))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == 218_940 and peak < 110 * rows

    def test_fixture_importance_matches_oracle(self, tmp_path, no_row_reader):
        out = tmp_path / "imp.csv"
        assert main(["importance", "--forecasts", str(FIXTURES / "forecasts.csv"),
                     "--truth", str(FIXTURES / "truth.csv"), "--na", "drop",
                     "--workers", "1", "--output", str(out)]) == 0
        assert out.read_bytes() == (ORACLES / "importance_drop.csv").read_bytes()

    def test_blank_lines_stay_on_the_column_wise_read(self, tmp_path, no_row_reader):
        src = FIXTURES / "forecasts.csv"
        lines = src.read_text(encoding="utf-8").splitlines(True)
        blank = tmp_path / "forecasts-blank.csv"
        blank.write_text("".join(lines[:5] + ["\n"] + lines[5:9] + [" \t \n"] + lines[9:] + ["\n"]),
                         encoding="utf-8")
        with open(blank, newline="", encoding="utf-8") as fh:
            dataio._plain_columns(fh)  # no _Irregular
        want, want_report = read_forecasts(str(src))
        got, got_report = read_forecasts(str(blank))
        assert same_cells(got, want) and got.levels == want.levels
        assert got_report == want_report

    def test_row_error_before_an_undecodable_byte_is_reported(self, tmp_path):
        good = rows_for("alpha", "2021-11-06", "25", 1, "2021-11-13", TRIPLE)
        path = forecast_csv(tmp_path, "alpha,2021-11-06,25,x,2021-11-13,0.5,20.0\n" + good * 300)
        with open(path, "ab") as fh:
            fh.write(b"\xff\n")
        with pytest.raises(ParseError) as err:
            read_forecasts(path)
        assert str(err.value) == f"{path}: row 2: invalid integer in 'horizon': 'x'"

    def test_quoted_crlf_copy_with_blank_rows_reads_identically(self, tmp_path):
        src = FIXTURES / "forecasts.csv"
        with open(src, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[3:3] = [[], ["   "], [""] * 7]
        quoted = tmp_path / "quoted.csv"
        with open(quoted, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(rows)
        want, want_report = read_forecasts(str(src))
        got, got_report = read_forecasts(str(quoted))
        assert same_cells(got, want) and got.levels == want.levels
        assert got_report == want_report


@st.composite
def hub_panels(draw):
    """A forecast panel of one level set."""
    levels = QuantileLevels(tuple(sorted(draw(
        st.lists(st.floats(0.001, 0.999), min_size=1, max_size=4, unique=True)
    ))))
    keys = draw(st.lists(
        st.tuples(st.sampled_from(["alpha", "beta", "m-3"]), st.integers(0, 60),
                  st.sampled_from(["25", "06", "MA"]), st.integers(1, 4)),
        min_size=1, max_size=6, unique=True,
    ))
    value = st.floats(-1e9, 1e9, allow_nan=False)
    cells = {}
    for model, day, location, horizon in keys:
        fd = date(2021, 11, 1) + timedelta(days=day)
        task = TaskKey(fd, location, horizon, fd + timedelta(days=7 * horizon))
        cells[(model, task)] = sorted(draw(st.lists(value, min_size=len(levels), max_size=len(levels))))
    models = sorted({model for model, _ in cells})
    tasks = sorted({task for _, task in cells})
    values = np.full((len(models), len(tasks), len(levels)), np.nan)
    present = np.zeros((len(models), len(tasks)), dtype=bool)
    for (model, task), quantiles in cells.items():
        i, j = models.index(model), tasks.index(task)
        values[i, j], present[i, j] = quantiles, True
    return Panel(tuple(models), tuple(tasks), values, present, levels)


@settings(max_examples=50, deadline=None)
@given(hub_panels(), st.randoms(use_true_random=False))
def test_hub_rows_round_trip(panel, shuffle):
    rows = [
        (model, task.forecast_date.isoformat(), task.location, str(task.horizon),
         task.target_end_date.isoformat(), repr(p), repr(v))
        for i, model in enumerate(panel.models)
        for j, task in enumerate(panel.tasks) if panel.present[i, j]
        for p, v in zip(panel.levels.levels, panel.values[i, j].tolist())
    ]
    shuffle.shuffle(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fc.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(FORECAST_HEADER)
            writer.writerows(rows)
        got, report = read_forecasts(str(path))
    assert got.levels == panel.levels
    assert same_cells(got, panel)
    assert not report.invalid and not report.warnings


class TestReadTruth:
    def test_single_row(self, tmp_path):
        truth = read_truth(truth_csv(tmp_path, "MA,2021-12-25,150\n"))
        assert truth[("MA", date(2021, 12, 25))].value == 150.0

    def test_duplicate_key_is_an_error(self, tmp_path):
        body = "MA,2021-12-25,150\nMA,2021-12-25,151\n"
        path = truth_csv(tmp_path, body)
        with pytest.raises(ParseError) as err:
            read_truth(path)
        assert str(err.value) == f"{path}: row 3: duplicate truth for location 'MA' on 2021-12-25"

    def test_bad_row_names_the_file(self, tmp_path):
        path = truth_csv(tmp_path, "MA,2021-12-25,inf\n")
        with pytest.raises(ParseError) as err:
            read_truth(path)
        assert str(err.value) == f"{path}: row 2: non-finite number in 'value': 'inf'"


class TestRowRule:
    """Both readers skip whitespace-only rows and check every other row's field count."""

    BLANK = "\n   \n, ,\t\n"

    def test_field_count_messages_name_file_and_row(self, tmp_path):
        for line, got in (("alpha,2021-11-06,25,1,2021-11-13,0.5\n", 6), ("alpha\n", 1)):
            path = forecast_csv(tmp_path, line)
            with pytest.raises(ParseError) as err:
                read_forecasts(path)
            assert str(err.value) == f"{path}: row 2: expected 7 fields, got {got}"
        path = truth_csv(tmp_path, "MA,2021-12-25,150\n" + self.BLANK + "MA,2021-12-26,1,2\n")
        with pytest.raises(ParseError) as err:
            read_truth(path)
        assert str(err.value) == f"{path}: row 6: expected 3 fields, got 4"

    def test_whitespace_only_rows_are_skipped(self, tmp_path):
        rows = rows_for("alpha", "2021-11-06", "25", 1, "2021-11-13", TRIPLE)
        plain = read_forecasts(forecast_csv(tmp_path, rows))[0]
        padded = read_forecasts(forecast_csv(tmp_path, self.BLANK + rows + self.BLANK, "pad.csv"))[0]
        assert same_cells(padded, plain)
        truth = read_truth(truth_csv(tmp_path, self.BLANK + "MA,2021-12-25,150\n" + self.BLANK))
        assert list(truth) == [("MA", date(2021, 12, 25))]
        assert truth[("MA", date(2021, 12, 25))].value == 150.0


class TestUnreadableInput:
    """A byte that is not UTF-8, or a field over csv's size limit, in either input
    file ends the command with an error naming the file, not a traceback."""

    FAULTS = {
        "undecodable": (b"\xff", "not UTF-8 text: invalid start byte"),
        "over_long": (b"9" * (csv.field_size_limit() + 1),
                      f"row 3: field larger than field limit ({csv.field_size_limit()})"),
    }

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("bad_file", ("forecasts", "truth"))
    def test_score_names_the_file(self, tmp_path, capsys, fault, bad_file):
        row = rows_for("alpha", "2021-11-06", "25", 1, "2021-11-13", TRIPLE[1:2])
        paths = {"forecasts": forecast_csv(tmp_path, row + row.replace("alpha", "beta")),
                 "truth": truth_csv(tmp_path, "25,2021-11-13,20.0\n26,2021-11-13,5.0\n")}
        junk, problem = self.FAULTS[fault]
        with open(paths[bad_file], "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"2021-11-13", b"2021-11-13" + junk, 1)
        with open(paths[bad_file], "wb") as fh:
            fh.write(b"".join(lines))
        assert main(["score", "--forecasts", paths["forecasts"], "--truth", paths["truth"],
                     "--output", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == f"error: {paths[bad_file]}: {problem}\n"


class TestBuildTaskPools:
    def test_missing_truth_excludes_task_with_report(self, tmp_path):
        body = rows_for("alpha", "2021-11-06", "25", 1, "2021-11-13", TRIPLE)
        body += rows_for("beta", "2021-11-06", "25", 1, "2021-11-13", TRIPLE)
        forecasts, _ = read_forecasts(forecast_csv(tmp_path, body))
        tasks, report = build_task_pools(forecasts, {})
        assert not tasks
        assert "no truth" in report.excluded_tasks[0]

    def test_single_model_task_excluded_with_report(self, tmp_path):
        body = rows_for("alpha", "2021-11-06", "25", 1, "2021-11-13", TRIPLE)
        forecasts, _ = read_forecasts(forecast_csv(tmp_path, body))
        truth = read_truth(truth_csv(tmp_path, "25,2021-11-13,20\n"))
        tasks, report = build_task_pools(forecasts, truth)
        assert not tasks
        assert "fewer than 2" in report.excluded_tasks[0]

    def test_joined_pool_carries_truth(self, tmp_path):
        body = rows_for("alpha", "2021-11-06", "25", 1, "2021-11-13", TRIPLE)
        body += rows_for("beta", "2021-11-06", "25", 1, "2021-11-13", TRIPLE)
        forecasts, _ = read_forecasts(forecast_csv(tmp_path, body))
        truth = read_truth(truth_csv(tmp_path, "25,2021-11-13,22\n"))
        tasks, report = build_task_pools(forecasts, truth)
        assert len(tasks) == 1
        assert tasks.truth.tolist() == [22.0]
        assert tasks.forecasts.models == ("alpha", "beta")
        assert tasks.forecasts.present.all()
        assert not report.excluded_tasks


class TestFromPools:
    LEVELS = QuantileLevels((0.25, 0.5, 0.75))

    def test_pools_with_different_level_sets_are_rejected_naming_the_task(self):
        pools = [
            quantile_pool({"a": (1.0, 2.0, 3.0), "b": (2.0, 3.0, 4.0)}, self.LEVELS, 2.0, i=0),
            quantile_pool({"a": (1.0, 3.0), "b": (2.0, 4.0)}, QuantileLevels((0.25, 0.75)), 2.0, i=1),
        ]
        with pytest.raises(ValidationError, match="one level set") as err:
            from_pools(pools)
        assert str(task_key(1)) in str(err.value)

    def test_point_and_quantile_pools_are_rejected_naming_the_task(self):
        pools = [
            quantile_pool({"a": (1.0, 2.0, 3.0), "b": (2.0, 3.0, 4.0)}, self.LEVELS, 2.0, i=0),
            point_pool({"a": 1.0, "b": 2.0}, 2.0, i=1),
        ]
        with pytest.raises(ValidationError, match="point forecasts") as err:
            from_pools(pools)
        assert str(task_key(1)) in str(err.value)

    def test_a_repeated_task_is_rejected_naming_it(self):
        pool = quantile_pool({"a": (1.0, 2.0, 3.0), "b": (2.0, 3.0, 4.0)}, self.LEVELS, 2.0, i=1)
        with pytest.raises(ValidationError) as err:
            from_pools([pool, pool])
        assert str(err.value) == f"duplicate task {task_key(1)}"


class TestTaskPanel:
    def panel(self, tasks=2):
        keys = tuple(task_key(j) for j in range(tasks))
        return Panel(("a", "b"), keys, np.ones((2, tasks)), np.ones((2, tasks), dtype=bool))

    def test_truth_list_is_held_as_read_only_float64(self):
        tasks = TaskPanel(self.panel(1), [1])
        assert tasks.truth.dtype == np.float64 and tasks.truth.tolist() == [1.0]
        with pytest.raises(ValueError):
            tasks.truth[0] = 2.0

    def test_truth_is_a_copy_of_the_callers_array(self):
        y = np.array([0.5, 1.5])
        tasks = TaskPanel(self.panel(), y)
        y[0] = 9.0
        assert tasks.truth.tolist() == [0.5, 1.5]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_truth_is_rejected_naming_the_task(self, bad):
        with pytest.raises(ValidationError, match=f"truth of task {task_key(1)} is not finite"):
            TaskPanel(self.panel(), [0.5, bad])

    def test_one_truth_value_per_task(self):
        with pytest.raises(ValidationError, match="one truth value per task"):
            TaskPanel(self.panel(), [0.5])

    def test_panel_arrays_are_checked_naming_the_fault(self):
        keys, ones = (task_key(0), task_key(1)), np.ones((2, 2))
        with pytest.raises(ValidationError) as err:
            Panel(("a", "b"), keys, np.ones((2, 3)), ones)
        assert str(err.value) == "panel arrays must be (2, 2) and (2, 2), got (2, 3) and (2, 2)"
        for models, tasks in ((("b", "a"), keys), (("a", "a"), keys), (("a", "b"), keys[::-1])):
            with pytest.raises(ValidationError) as err:
                Panel(models, tasks, ones, ones)
            assert str(err.value) == "panel models and tasks must be sorted and distinct"
        values = np.array([[1.0, 2.0], [np.inf, np.nan]])
        with pytest.raises(ValidationError) as err:
            Panel(("a", "b"), keys, values, ones)
        assert str(err.value) == f"cell ('b', {task_key(0)}) is not finite"
        assert len(Panel(("a", "b"), keys, values, [[True, True], [False, False]])) == 2


class TestScoreRecords:
    def test_task_without_truth_is_reported_once(self, tmp_path):
        body = ""
        for model in ("alpha", "beta"):
            body += rows_for(model, "2021-11-06", "25", 1, "2021-11-13", TRIPLE)
            body += rows_for(model, "2021-11-06", "25", 2, "2021-11-20", TRIPLE)
        forecasts, _ = read_forecasts(forecast_csv(tmp_path, body))
        truth = read_truth(truth_csv(tmp_path, "25,2021-11-20,22\n"))
        panel, report = score_records(forecasts, truth, Metric.WIS)
        _, join_report = build_task_pools(forecasts, truth)
        assert len(report.excluded_tasks) == 1
        assert report.excluded_tasks == join_report.excluded_tasks
        assert "no truth" in report.excluded_tasks[0]
        assert [t.horizon for t in panel.tasks] == [2]
        assert panel.present.all()


class TestTaskKey:
    def test_validation(self):
        with pytest.raises(ValidationError):
            TaskKey(date(2021, 1, 2), "25", 0, date(2021, 1, 9))
        with pytest.raises(ValidationError):
            TaskKey(date(2021, 1, 9), "25", 1, date(2021, 1, 2))

    def test_sort_order(self):
        keys = [task_key(2), task_key(0), task_key(1)]
        assert sorted(keys) == [task_key(0), task_key(1), task_key(2)]

    def test_messages_name_the_task_readably(self):
        key = TaskKey(date(2021, 11, 15), "46", 1, date(2021, 11, 20))
        assert str(key) == f"{key}" == "2021-11-15/46/h1/2021-11-20"
        assert repr(key).startswith("TaskKey(forecast_date=datetime.date(2021, 11, 15)")


class TestNaPolicy:
    def panel(self):
        return Panel(
            ("A", "B", "C"), (task_key(0),), [[-10.0], [-20.0], [np.nan]], [[True], [True], [False]]
        )

    def test_worst_fills_column_minimum(self):
        panel = self.panel()
        filled = apply_na_policy(panel, NaPolicy.WORST)
        assert filled.values[filled.models.index("C"), 0] == -20.0

    def test_mean_fills_column_average(self):
        panel = self.panel()
        filled = apply_na_policy(panel, NaPolicy.MEAN)
        assert filled.values[filled.models.index("C"), 0] == -15.0

    def test_drop_keeps_cell_missing(self):
        panel = self.panel()
        dropped = apply_na_policy(panel, NaPolicy.DROP)
        assert not dropped.present[dropped.models.index("C"), 0]
        assert "C" not in model_mean_scores(dropped)

    def test_empty_column_removed_under_every_policy(self):
        t0, t1 = task_key(0), task_key(1)
        panel = Panel(
            ("A", "B"), (t0, t1), [[1.0, np.nan], [2.0, np.nan]], [[True, False], [True, False]]
        )
        for policy in NaPolicy:
            out = apply_na_policy(panel, policy)
            assert out.tasks == (t0,)

    def test_full_panel_identical_under_all_policies(self, rng):
        tasks = tuple(task_key(i) for i in range(4))
        panel = Panel(("A", "B", "C"), tasks, rng.normal(size=(3, 4)), np.ones((3, 4), bool))
        means = [model_mean_scores(apply_na_policy(panel, p)) for p in NaPolicy]
        assert means[0] == means[1] == means[2]

    def test_worst_never_beats_mean(self, rng):
        tasks = tuple(task_key(i) for i in range(6))
        present = rng.random((4, 6)) < 0.7
        panel = Panel(("A", "B", "C", "D"), tasks, rng.normal(size=(4, 6)), present)
        worst = model_mean_scores(apply_na_policy(panel, NaPolicy.WORST))
        mean = model_mean_scores(apply_na_policy(panel, NaPolicy.MEAN))
        for m in worst:
            assert worst[m] <= mean[m] + 1e-12


class TestWriteResults:
    def test_empty_rows_give_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        write_results([], str(out), "csv")
        assert out.read_text().splitlines() == [
            "model,metric,forecast_date,location,horizon,target_end_date,value,n_predictions,pct_submitted"
        ]

    def test_csv_round_trip(self, tmp_path):
        rows = [
            {"model": "A", "metric": "neg_wis", "value": -40.2 / 7, "n_predictions": 3,
             "pct_submitted": 100.0 * 3 / 7},
            {"model": "A", "metric": "phi_task", "value": 0.1 + 0.2,
             "forecast_date": date(2021, 11, 6), "location": "25", "horizon": 1,
             "target_end_date": date(2021, 11, 13)},
        ]
        out = tmp_path / "r.csv"
        write_results(rows, str(out), "csv")
        with open(out, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert float(parsed[0]["value"]) == -40.2 / 7
        assert float(parsed[0]["pct_submitted"]) == 100.0 * 3 / 7
        assert float(parsed[1]["value"]) == 0.1 + 0.2
        assert parsed[1]["forecast_date"] == "2021-11-06"

    def test_json_round_trip(self, tmp_path):
        rows = [{"model": "A", "metric": "phi", "value": 1.0 / 3.0}]
        out = tmp_path / "r.json"
        write_results(rows, str(out), "json", note="hello")
        payload = json.loads(out.read_text())
        assert payload["note"] == "hello"
        assert payload["rows"][0]["value"] == 1.0 / 3.0

    @pytest.mark.parametrize("note", [None, "", 'a "quoted"\nnote \u00e9'])
    @pytest.mark.parametrize("rows", [
        [],
        [{}],
        [{"model": "A", "metric": "phi", "value": 1.0 / 3.0, "horizon": None},
         {"model": "line\nbreak", "value": float("nan"), "n_predictions": 3},
         {"location": None},
         {"value": -float("inf"), "forecast_date": date(2021, 11, 6), "pct_submitted": 1e-300}],
    ], ids=["empty", "one-empty-row", "mixed"])
    def test_json_is_the_envelope_json_dump_writes(self, tmp_path, rows, note):
        """Streamed a row at a time, the bytes of the one json.dump of the table."""
        out = tmp_path / "r.json"
        write_results(rows, str(out), "json", note=note)
        table = [{k: v.isoformat() if isinstance(v, date) else v
                  for k in dataio.RESULT_HEADER if (v := row.get(k)) is not None} for row in rows]
        assert out.read_text() == json.dumps({"note": note, "rows": table}, indent=2) + "\n"

    def test_json_rows_are_not_held(self, tmp_path):
        """Rows are encoded as they come: the writer holds one row, not the table.

        Each row's encoder leaves a little cyclic garbage until the collector
        runs, so the bound is set well under a tenth of the table's bytes."""
        row = {"model": "model00", "metric": "phi_task", "value": 1.0 / 3.0,
               "forecast_date": date(2021, 11, 1), "location": "01", "horizon": 1,
               "target_end_date": date(2021, 11, 6)}
        out = tmp_path / "r.json"
        with open(out, "w", encoding="utf-8") as sink:
            tracemalloc.start()
            try:
                dataio._results_json(sink, (dict(row) for _ in range(20_000)), "n",
                                     dataio.RESULT_HEADER)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert out.stat().st_size > 4e6
        assert peak < 1 << 20, peak

    def test_rewrite_is_byte_identical(self, tmp_path):
        rows = [{"model": "A", "metric": "phi", "value": 0.123456789123456789}]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results(rows, str(a), "csv")
        write_results(rows, str(b), "csv")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_one_shot_generator_writes_what_its_list_writes(self, fmt, tmp_path, capsys):
        rows = [
            {"model": "A", "metric": "neg_wis", "value": -40.2 / 7, "n_predictions": 3},
            {"model": "A", "metric": "phi_task", "value": 0.1 + 0.2, "horizon": None,
             "forecast_date": date(2021, 11, 6), "target_end_date": date(2021, 11, 13)},
        ]
        written = []
        for make in (lambda: rows, lambda: (row for row in rows)):
            out = tmp_path / f"r.{fmt}"
            write_results(make(), str(out), fmt, note="n")
            write_results(make(), "-", fmt, note="n")
            written.append((out.read_bytes(), capsys.readouterr().out.encode()))
        assert written[1] == written[0]
        assert written[0][1] == written[0][0]

    def test_unknown_format_leaves_the_output_untouched(self, tmp_path):
        out = tmp_path / "r.xml"
        out.write_bytes(b"old bytes\n")
        with pytest.raises(ValidationError, match="unknown output format 'xml'"):
            write_results([{"model": "A"}], str(out), "xml")
        assert out.read_bytes() == b"old bytes\n"

    def test_format_float_round_trips(self, rng, tmp_path):
        values = [0.1, 1 / 3, -40.2, 1e-300, 12345.6789e10] + list(rng.normal(size=200))
        out = tmp_path / "r.csv"
        write_results([{"value": x} for x in values], str(out), header=("value",))
        assert [float(cell) for cell in out.read_text().split()[1:]] == values
