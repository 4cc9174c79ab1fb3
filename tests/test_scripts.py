"""The experiment scripts under ``scripts/``, run in process through ``main``."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def survey_rows(capsys, *argv):
    code = load_script("survey_small_universes").main(list(argv))
    out = capsys.readouterr().out.splitlines()
    return code, out[2:]


def test_survey_skips_a_window_below_s_plus_one(capsys):
    code, rows = survey_rows(capsys, *"--s 3 --q 3 --dim 1 --bound 1".split())
    assert code == 0
    assert rows == [" 3  3   1  1         6 skipped: q must be at least s+1"]


@pytest.mark.parametrize(
    "argv, reason",
    [
        ("--s 3 --q 0 --dim 1 --bound 1", "q must be at least s+1"),
        ("--s 3 --q 4 --dim -1 --bound 1", "dim must be >= 1"),
        ("--s 3 --q 4 --dim 1 --bound -2", "bound must be >= 1"),
    ],
    ids=["q0", "dim_negative", "bound_negative"],
)
def test_survey_skips_a_cell_without_a_universe(capsys, argv, reason):
    # q < 1, dim < 0 and bound < 0 leave the universe undefined, so the row
    # shows "-" for its size, and the cell is refused as any invalid cell is.
    code, rows = survey_rows(capsys, *argv.split())
    assert code == 0
    [row] = rows
    assert row.split() == argv.split()[1::2] + ["-", "skipped:", *reason.split()]


def test_survey_skipped_cell_leaves_the_next_cell_and_exit_status(capsys):
    code, rows = survey_rows(capsys, *"--s 3 --q 3 4 --dim 1 --bound 1".split())
    assert code == 0
    assert rows[0].endswith("skipped: q must be at least s+1")
    assert rows[1].split()[:9] == "3 4 1 1 10 3 0:1,1:2 rank_below:3 True".split()


def test_survey_on_the_ci_grid(capsys):
    code, rows = survey_rows(capsys, *"--s 2 3 --dim 1 2 --bound 1".split())
    assert code == 0
    cells = [tuple(map(int, row.split()[:4])) for row in rows]
    assert cells == [
        (s, q, dim, 1)
        for s in (2, 3)
        for q in range(s + 1, 2 * s + 1)
        for dim in (1, 2)
    ]
    assert all(row.split()[8] == "True" for row in rows)
    assert rows[-1].split()[:8] == [
        "3", "6", "2", "1", "1287", "191", "0:1,1:56,2:134",
        "rank_below:57,type_a:24,type_b:110",
    ]
