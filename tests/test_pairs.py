"""The before/after pair driver: its sign test, and the outputs it compares."""

import shutil
from pathlib import Path

import pytest

import pairs

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("before, after, want", [
    # after lower in all 10 pairs: p = 2 / 2^10
    ([2.0] * 10, [1.0] * 10, (10, 0, 0, 2 / 1024)),
    # 9 to 1: p = 2 * (1 + 10) / 2^10
    ([2.0] * 9 + [1.0], [1.0] * 9 + [2.0], (9, 1, 0, 22 / 1024)),
    # ties count for neither side and leave the test
    ([1.0, 2.0, 3.0, 5.0], [1.0, 1.0, 4.0, 5.0], (1, 1, 2, 1.0)),
    ([1.0, 1.0], [1.0, 1.0], (0, 0, 2, 1.0)),
    ([3.0, 2.0, 4.0], [1.0, 1.0, 1.0], (3, 0, 0, 0.25)),
])
def test_sign_test_counts_wins_and_gives_the_exact_p(before, after, want):
    got = pairs.sign_test(before, after)
    assert (got["after_lower"], got["before_lower"], got["ties"], got["sign_p"]) == want


def test_quartiles_are_inclusive():
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_a_tree_that_prints_one_byte_differently_is_listed(tmp_path):
    after = tmp_path / "after"
    shutil.copytree(SRC, after, ignore=shutil.ignore_patterns("__pycache__"))
    cli = after / "ensimp" / "cli.py"
    text = cli.read_text()
    assert text.count('print(f"instances: ') == 1
    cli.write_text(text.replace('print(f"instances: ', 'print(f"Instances: '))
    work = tmp_path / "work"
    work.mkdir()
    record = pairs.run_pairs(SRC, after, "paper-sim", 2, 3, work, only=("decompose_check",))
    assert record["commands"] == ["decompose_check"]
    assert record["differing"] == ["decompose_check"]
    assert record["failed"] == {"before": [], "after": []}
    for metric, summary in record["summary"].items():
        assert summary["after_lower"] + summary["before_lower"] + summary["ties"] == 2, metric
    # The same tree on both sides differs in nothing.
    same = tmp_path / "same"
    same.mkdir()
    assert pairs.run_pairs(SRC, SRC, "paper-sim", 1, 3, same, only=("decompose_check",))[
        "differing"] == []
