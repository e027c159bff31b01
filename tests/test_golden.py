"""Golden outputs: `table1`, `eval` and `verify` stdout, the `table1` and `sweep` CSVs, byte for byte.

The files under ``tests/golden/`` were written by the commands below.
A refactor of the engine or the CLI must leave every byte in place;
regenerate the files only for a change that is meant to move a value,
with ``PYTHONPATH=src python tests/test_golden.py [NAME ...]``: the named
files, or every file when no name is given.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from thetasum.cli import main

GOLDEN = Path(__file__).parent / "golden"

TABLE1 = "table1.txt"
TABLE1_CSV = "table1.csv"

# every verify check by name, with its measured value and its bound
VERIFY = "verify_all.txt"

# name -> sweep arguments; together they cover all four methods and
# "auto" (at a non-integer and at an even w), both policies and
# complex a
SWEEPS = {
    "sweep_even_optimal.csv": ["--a", "0.1,0.25,0.5,1.0,2.0,0.5+0.3j", "--w", "4", "--methods", "even,direct"],
    "sweep_even_fixed.csv": ["--a", "0.25,0.5,1.0,0.5-0.4j", "--w", "4", "--methods", "even", "--policy", "fixed:3"],
    "sweep_generic_optimal.csv": ["--a", "0.01,0.05,0.1,0.05+0.02j", "--w", "1.5", "--methods", "generic,direct"],
    "sweep_generic_fixed.csv": ["--a", "0.01,0.05,0.1,0.05+0.02j", "--w", "3", "--methods", "generic", "--policy", "fixed:4"],
    "sweep_pj.csv": ["--a", "0.5,1.0,2.0,0.7+0.4j", "--w", "0", "--methods", "pj,direct"],
    "sweep_auto_generic.csv": ["--a", "0.02,0.1,0.05+0.03j", "--w", "1.5", "--methods", "auto,direct"],
    "sweep_auto_even.csv": ["--a", "0.25,1.0,0.6-0.2j", "--w", "4", "--methods", "auto,direct"],
}

# name -> eval arguments; the even cases print one j0 line per dual term
EVALS = {
    "eval_even_auto.txt": ["--a", "1.5+1j", "--w", "4"],
    "eval_even_fixed.txt": ["--a", "0.5", "--w", "4", "--method", "even", "--policy", "fixed:3"],
    "eval_generic_near_odd.txt": ["--a", "0.02", "--w", "3.03"],
    "eval_pj.txt": ["--a", "0.7+0.4j", "--w", "0", "--method", "pj"],
    "eval_direct.txt": ["--a", "0.3-0.2j", "--w", "1.5", "--method", "direct"],
}


def test_table1_stdout_matches_golden(capsys):
    assert main(["table1"]) == 0
    assert capsys.readouterr().out == (GOLDEN / TABLE1).read_text()


def test_table1_csv_matches_golden(tmp_path, capsys):
    target = tmp_path / TABLE1_CSV
    assert main(["table1", "--csv", str(target)]) == 0
    assert target.read_bytes() == (GOLDEN / TABLE1_CSV).read_bytes()


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csv_matches_golden(name, tmp_path, capsys):
    target = tmp_path / name
    assert main(["sweep", *SWEEPS[name], "--out", str(target)]) == 0
    assert target.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(EVALS))
def test_eval_stdout_matches_golden(name, capsys):
    assert main(["eval", *EVALS[name]]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_verify_stdout_matches_golden(capsys):
    assert main(["verify", "--suite", "all"]) == 0
    assert capsys.readouterr().out == (GOLDEN / VERIFY).read_text()


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _regenerate(name: str) -> None:
    path = GOLDEN / name
    if name == TABLE1:
        path.write_text(_stdout(["table1"]))
    elif name == TABLE1_CSV:
        _stdout(["table1", "--csv", str(path)])
    elif name == VERIFY:
        path.write_text(_stdout(["verify", "--suite", "all"]))
    elif name in EVALS:
        path.write_text(_stdout(["eval", *EVALS[name]]))
    else:
        _stdout(["sweep", *SWEEPS[name], "--out", str(path)])


if __name__ == "__main__":
    every = [TABLE1, TABLE1_CSV, *EVALS, VERIFY, *SWEEPS]
    names = sys.argv[1:] or every
    unknown = sorted(set(names) - set(every))
    if unknown:
        sys.exit(f"unknown golden {', '.join(unknown)}; known: {' '.join(every)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        _regenerate(name)
