"""Property tests for the importance kernels: the identities the paper proves
and the reproducibility the package documents, over generated pools; and for
the forecast reader, whose column-wise and row readers must agree."""

import math
import tempfile
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from conftest import mutated_decomposition, quantile_pool, same_cells

from ensimp import dataio, decomposition, importance
from ensimp.dataio import FORECAST_HEADER, TaskPool, from_pools, read_forecasts
from ensimp.importance import (
    Algorithm,
    WeightScheme,
    compute_importance,
    importance_by_subset_size,
    lasomo_all,
    lomo_all,
)
from ensimp.scoring import Metric, QuantileLevels, ValidationError

LEVELS = QuantileLevels((0.25, 0.5, 0.75))
SHAPE = (-1.0, 0.0, 1.0)

coordinate = st.floats(-100.0, 100.0, allow_nan=False)
spread = st.floats(0.0, 10.0, allow_nan=False)
member = st.tuples(coordinate, spread)
metric = st.sampled_from(Metric)
scheme = st.sampled_from(WeightScheme)
FEW = settings(max_examples=25, deadline=None)
# Block budgets of the subset table: the small ones score it in many slices,
# down to one subset per slice.
block_budget = st.sampled_from((1, 12, 1 << 17))


def make_pool(members, y, names=None, i=0) -> TaskPool:
    names = names or [f"m{j}" for j in range(len(members))]
    forecasts = {
        name: tuple(c + s * z for z in SHAPE) for name, (c, s) in zip(names, members)
    }
    return quantile_pool(forecasts, LEVELS, y, i)


def by_name(tp: TaskPool, values) -> dict[str, float]:
    return dict(zip(tp.pool.model_ids, values))


@st.composite
def panels(draw, max_models=5, max_tasks=6):
    """Tasks whose pools draw on one roster, so some share a signature."""
    n = draw(st.integers(2, max_models))
    pools = []
    for t in range(draw(st.integers(1, max_tasks))):
        ids = draw(st.sets(st.integers(0, n), min_size=2, max_size=n + 1))
        members = draw(st.lists(member, min_size=len(ids), max_size=len(ids)))
        names = [f"m{j}" for j in sorted(ids)]
        pools.append(make_pool(members, draw(coordinate), names, t))
    return pools


@pytest.mark.parametrize("n", range(2, 14))
@settings(max_examples=4, deadline=None)
@given(t=st.sampled_from((1, 3)), scheme=scheme, parts=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_table_readouts_equal_the_difference_array_oracle(n, t, scheme, parts, seed):
    """Every readout, gathered from the table by each size's listed masks
    with the sizes split among the parts, has the bits of the
    difference-array reading, at even and odd n - 1, so with one middle size
    and with two."""
    rng = np.random.default_rng(seed)
    # Mixed magnitudes make the summation order show in the low bits.
    scores = rng.normal(size=(1 << n, t)) * 10.0 ** rng.integers(-3, 4, size=(1 << n, t))
    scores[0] = np.nan
    # +0.0 without a model and -0.0 with it, in the full pool: its LOMO and its one
    # contribution of the largest size are -0.0, which swapped operands would make +0.0.
    full = (1 << n) - 1
    i = int(rng.integers(n))
    scores[full ^ (1 << i)], scores[full] = 0.0, -0.0
    got = importance._table_readouts(scores, scheme, parts)
    want = bf.table_readouts(scores, scheme)
    for name, a, b in zip(("phi", "lomo", "mos", "mean", "m2"), got, want):
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("n, budget", [(5, 1), (9, 1), (9, 12), (12, 12)])
def test_table_readouts_in_small_blocks_equal_the_oracle(n, budget):
    """Budgets of one and twelve values list each size's masks and gather its
    rows one or two at a time, through many listing calls and blocks, as the
    default budget does at 17 to 20 models; every readout keeps the bits of
    the difference-array reading at 1 to 3 parts. Fixed inputs, not drawn
    ones: shrinking a failure at these budgets would take minutes."""
    rng = np.random.default_rng(n)
    scores = rng.normal(size=(1 << n, 3)) * 10.0 ** rng.integers(-3, 4, size=(1 << n, 3))
    scores[0] = np.nan
    want = bf.table_readouts(scores, WeightScheme.EQUAL)  # phi from the sums, mos from the means
    for parts in (1, 2, 3):
        with mock.patch.object(importance, "_BLOCK_ELEMENTS", budget):
            got = importance._table_readouts(scores, WeightScheme.EQUAL, parts)
        for name, a, b in zip(("phi", "lomo", "mos", "mean", "m2"), got, want):
            assert a.tobytes() == b.tobytes(), (parts, name)


@FEW
@given(st.data(), st.integers(2, 6), metric, scheme)
def test_renaming_models_changes_nothing(data, n, metric, scheme):
    members = data.draw(st.lists(member, min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(n)))
    y = data.draw(coordinate)
    plain = make_pool(members, y)
    renamed = make_pool(members, y, [f"m{perm[j]}" for j in range(n)])
    for kernel, args in ((lasomo_all, (scheme,)), (lomo_all, ())):
        want = by_name(plain, kernel(plain, metric, *args))
        got = by_name(renamed, kernel(renamed, metric, *args))
        for j in range(n):
            assert got[f"m{perm[j]}"] == pytest.approx(want[f"m{j}"], rel=1e-9, abs=1e-8)


@FEW
@given(st.lists(member, min_size=2, max_size=7), coordinate, metric)
def test_mean_over_sizes_equals_permutation_lasomo(members, y, metric):
    tp = make_pool(members, y)
    phi = lasomo_all(tp, metric, WeightScheme.PERMUTATION)
    for i, m in enumerate(tp.pool.model_ids):
        stats = importance_by_subset_size(tp, metric, m)
        mos = math.fsum(s.mean for s in stats.values()) / len(stats)
        assert mos == pytest.approx(phi[i], rel=1e-9, abs=1e-8)


@FEW
@given(st.lists(member, min_size=2, max_size=2), coordinate, metric, scheme)
def test_lomo_equals_lasomo_at_two_models(members, y, metric, scheme):
    tp = make_pool(members, y)
    assert np.array_equal(lasomo_all(tp, metric, scheme), lomo_all(tp, metric))


@FEW
@given(panels(), metric)
def test_table_lomo_equals_lomo_kernel(pools, metric):
    table = compute_importance(from_pools(pools), metric, Algorithm.LASOMO)
    kernel = compute_importance(from_pools(pools), metric, Algorithm.LOMO)
    assert same_cells(table.lomo, kernel.per_task)
    panel = kernel.per_task
    for tp in pools:
        rows = [panel.models.index(m) for m in tp.pool.model_ids]
        column = panel.values[rows, panel.tasks.index(tp.task)]
        assert column.tolist() == lomo_all(tp, metric).tolist()


@FEW
@given(panels(), metric, scheme)
def test_cells_do_not_depend_on_worker_count(pools, metric, scheme):
    """Nor on the batch width: block budgets that put one task, two tasks or
    all of a signature's tasks in each batch, each with one and three workers."""
    widest = max(max(1 << len(tp.pool.model_ids), 2 * len(LEVELS)) for tp in pools)
    runs = []
    for budget in (1, 2 * widest, 1 << 30):
        with mock.patch.object(importance, "_BLOCK_ELEMENTS", budget):
            for workers in (1, 3):
                runs.append(tuple(
                    compute_importance(from_pools(pools), metric, algorithm, scheme,
                                       n_workers=workers)
                    for algorithm in (Algorithm.LASOMO, Algorithm.LOMO)
                ))
    one, lomo = runs[0]
    for other, other_lomo in runs[1:]:
        assert same_cells(one.per_task, other.per_task)
        assert same_cells(one.lomo, other.lomo)
        assert same_cells(one.mean_over_sizes, other.mean_over_sizes)
        assert one.by_subset_size == other.by_subset_size
        assert same_cells(lomo.per_task, other_lomo.per_task)
    panel = one.per_task
    for tp in pools:
        rows = [panel.models.index(m) for m in tp.pool.model_ids]
        column = panel.values[rows, panel.tasks.index(tp.task)]
        assert column.tolist() == lasomo_all(tp, metric, scheme).tolist()


def left_to_right_lomo(tp: TaskPool, y: float) -> list[float]:
    """LOMO under -WIS in pure Python, members summed left to right in canonical order."""
    rows = [list(f.values) for f in tp.pool.forecasts]

    def neg_wis(sub):
        return -bf.wis(LEVELS.levels, bf.ensemble_quantiles(sub), y)

    return [neg_wis(rows) - neg_wis(rows[:i] + rows[i + 1:]) for i in range(len(rows))]


@settings(max_examples=10, deadline=None)
@given(st.lists(member, min_size=40, max_size=40), coordinate)
def test_lomo_of_a_large_pool_sums_left_to_right(members, y):
    tp = make_pool(members, y)
    assert lomo_all(tp, Metric.WIS).tolist() == left_to_right_lomo(tp, y)


def test_lomo_of_33_members_sums_left_to_right():
    """One member past where sums were once compensated: 1e16 absorbs each
    1.0 that follows it, so only the left-to-right sum gives these bits."""
    members = [(1e16, 1.0)] + [(1.0, 1.0)] * 31 + [(-1e16, 1.0)]
    tp = make_pool(members, 0.5, names=[f"m{j:02d}" for j in range(33)])
    assert lomo_all(tp, Metric.WIS).tolist() == left_to_right_lomo(tp, 0.5)


@FEW
@given(st.lists(member, min_size=2, max_size=9), coordinate, metric, block_budget)
def test_permutation_lasomo_is_efficient(members, y, metric, budget):
    """Shapley efficiency with the empty coalition dropped and weights rescaled:
    ``sum_i phi_i == n/(n-1) * (v(N) - mean_i v({i}))``."""
    tp = make_pool(members, y)
    with mock.patch.object(importance, "_BLOCK_ELEMENTS", budget):
        phi = lasomo_all(tp, metric, WeightScheme.PERMUTATION)
    ids, n = tp.pool.model_ids, len(members)
    forecasts = {m: f.values for m, f in zip(ids, tp.pool.forecasts)}
    if metric is Metric.WIS:
        v = lambda sub: bf.neg_wis_score(forecasts, sub, LEVELS.levels, y)
    else:
        medians = {m: q[LEVELS.index_of(0.5)] for m, q in forecasts.items()}
        v = lambda sub: bf.neg_spe_score(medians, sub, y)
    singles = [v((m,)) for m in ids]
    want = n / (n - 1) * (v(ids) - math.fsum(singles) / n)
    scale = max(abs(x) for x in singles + [v(ids)])
    assert math.fsum(phi) == pytest.approx(want, rel=1e-9, abs=1e-12 * scale)


@FEW
@given(st.lists(member, min_size=1, max_size=8), st.data(), coordinate, metric, scheme, block_budget)
def test_identical_neighbours_get_identical_phi(members, data, y, metric, scheme, budget):
    """Symmetry: twins adjacent in canonical order take the same place in every
    left-to-right member sum, so their phi agree bit for bit."""
    k = data.draw(st.integers(0, len(members) - 1))
    tp = make_pool(members[: k + 1] + members[k:], y)
    with mock.patch.object(importance, "_BLOCK_ELEMENTS", budget):
        phi = lasomo_all(tp, metric, scheme)
    assert phi[k] == phi[k + 1]
    lomo = lomo_all(tp, metric)
    assert lomo[k] == lomo[k + 1]


@st.composite
def point_errors(draw):
    """The errors of a point-forecast pool of 2 to 20 models, few above 15.

    Both sides' rounding grows with the squared errors, so the 1e-13 floor of
    the tolerance below assumes errors of order one, as in the paper's
    setting: forecasts in [-1, 3] against standard-normal truth.
    """
    n = draw(st.sampled_from(list(range(2, 16)) * 2 + list(range(16, 21))))
    return np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n)))


@settings(max_examples=40, deadline=None)
@given(point_errors())
@example(np.linspace(-4.0, 4.0, 20))
@example(4.0 - np.arange(16) * 1e-4)  # near-equal errors: the scores cancel most
def test_closed_form_matches_subset_table(e):
    """``contributions_by_size`` of the error products, read as LOMO (its last
    column) and as LASOMO under both weight schemes, against the subset-score
    table of the pool with values -e and truth 0; and on pools of up to ten
    models each size's column against the brute-force per-size mean."""
    n = len(e)
    c = decomposition.contributions_by_size(np.outer(e, e))
    scores = importance._subset_scores(-e[:, None], None, np.zeros(1))
    counts = [math.comb(n - 1, s) for s in range(1, n)]
    for scheme, phi in ((WeightScheme.PERMUTATION, c.mean(axis=1)),
                        (WeightScheme.EQUAL, c @ counts / (2 ** (n - 1) - 1))):
        want, lomo = (a[:, 0] for a in importance._table_readouts(scores, scheme)[:2])
        tol = 1e-13 * max(1.0, np.abs(want).max(), np.abs(lomo).max())
        assert np.abs(c[:, -1] - lomo).max() <= tol
        assert np.abs(phi - want).max() <= tol
    if n <= 10:
        points = dict(enumerate(-e))
        for i in range(n):
            groups = bf.contributions_by_size(lambda sub: bf.neg_spe_score(points, sub, 0.0),
                                              range(n), i)
            means = [math.fsum(groups[s + 1]) / counts[s - 1] for s in range(1, n)]
            assert np.abs(c[i] - means).max() <= 1e-13 * max(1.0, max(map(abs, means)))


def test_wrong_coefficient_fails_the_closed_form_property(monkeypatch):
    fault = mutated_decomposition("/ (s + 1) ** 2", "/ s**2")
    monkeypatch.setattr(decomposition, "contributions_by_size", fault.contributions_by_size)
    with pytest.raises(Exception) as info:
        test_closed_form_matches_subset_table()
    # Hypothesis raises distinct failures together, as an exception group
    failures = getattr(info.value, "exceptions", (info.value,))
    assert all(isinstance(f, AssertionError) for f in failures)


# Number spellings float() reads, or refuses, that a hub file may hold.
ODD_NUMBERS = (" 1.5 ", "1_0", "+.5", "\uff11\uff12", "nan", "inf", "0x10", "1e400", "-0", "")
LEVEL_SPELLINGS = {0.25: ("0.25", ".25", "2.5e-1"), 0.5: ("0.5", " 0.50"),
                   0.75: ("0.75", "7.5e-1"), 0.9: ("0.9",)}
HORIZON_SPELLINGS = {1: ("1", "01", " 1", "\uff11"), 2: ("2", "02")}


# The kinds of fault a generated file may hold, each at one place; about half
# the files hold none.
FAULTS = ("quote", "crlf", "blank", "odd_number", "field_count", "duplicate", "bad_key", "header")
BAD_KEY_FIELDS = {0: " ", 1: "2021-13-01", 3: "0", 4: "2021-10-01"}


@st.composite
def hub_files(draw):
    """The bytes of a forecast file, with key spellings that parse alike, gaps,
    extra levels and calendar slips, and at most two kinds of fault."""
    faults = set()
    if draw(st.booleans()):
        faults = draw(st.sets(st.sampled_from(FAULTS), min_size=1, max_size=2))
    groups = draw(st.lists(st.tuples(st.sampled_from(("alpha", "beta")), st.integers(0, 1),
                                     st.sampled_from(("25", "MA")), st.sampled_from((1, 2))),
                           max_size=5, unique=True))
    rows = []
    for model, week, location, h in groups:
        fd = date(2021, 11, 1) + timedelta(days=7 * week)
        end = fd + timedelta(days=draw(st.sampled_from((7 * h - 2, 7 * h + 9))))
        levels = draw(st.sampled_from(([0.25, 0.5, 0.75], [0.25, 0.5], [0.5, 0.75],
                                       [0.25, 0.5, 0.75, 0.9])))
        values = sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=len(levels),
                                      max_size=len(levels))))
        for p, v in zip(levels, values):
            rows.append([
                draw(st.sampled_from(("", " "))) + model,
                draw(st.sampled_from(("", " "))) + fd.isoformat(),
                draw(st.sampled_from(("", " "))) + location,
                draw(st.sampled_from(HORIZON_SPELLINGS[h])),
                end.isoformat(),
                draw(st.sampled_from(LEVEL_SPELLINGS[p])),
                repr(v),
            ])
    rows = draw(st.permutations(rows))
    if rows:
        row = draw(st.sampled_from(rows))
        if "bad_key" in faults:
            k = draw(st.sampled_from(sorted(BAD_KEY_FIELDS)))
            row[k] = BAD_KEY_FIELDS[k]
        if "odd_number" in faults:
            row[draw(st.sampled_from((5, 6)))] = draw(st.sampled_from(ODD_NUMBERS))
        if "quote" in faults:
            k = draw(st.integers(0, 6))
            row[k] = f'"{row[k]}"'
        if "duplicate" in faults:
            rows.append(list(row))
        if "field_count" in faults:
            k = draw(st.integers(0, 6))
            if draw(st.booleans()):
                row.insert(k, "x")
            else:
                del row[k]
    if "blank" in faults:
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(([], ["   "], [""] * 7))))
    header = list(FORECAST_HEADER)
    if "header" in faults:
        header = draw(st.sampled_from((["model", "date"], [f'"{x}"' for x in header])))
    lines = [",".join(row) for row in [header] + rows]
    if "crlf" in faults:
        k = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            lines[k:] = ["\r\n".join(lines[k:])]  # CRLF line ends from line k on
        else:
            lines[k] = lines[k][:1] + "\r" + lines[k][1:]  # a lone carriage return
    text = "\n".join(lines) + ("\n" if draw(st.booleans()) else "")
    return ("\ufeff" if draw(st.booleans()) else "").encode("utf-8") + text.encode("utf-8")


def read_outcome(path):
    """Everything a read returns, values bit for bit, or its error."""
    try:
        panel, report = read_forecasts(path)
    except ValidationError as exc:
        return type(exc).__name__, str(exc)
    return (panel.models, panel.tasks, panel.levels, panel.present.tolist(),
            panel.values.shape, panel.values.tobytes(), report)


@settings(max_examples=300, deadline=None)
@given(hub_files())
def test_column_and_row_readers_agree(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fc.csv"
        path.write_bytes(data)
        got = read_outcome(str(path))
        with mock.patch.object(dataio, "_plain_columns", side_effect=dataio._Irregular):
            want = read_outcome(str(path))
    assert got == want
