"""tools/repr_dump.py: the bit-identity dump runs and repeats itself, and
its digest at ``--points 10`` is the committed one."""

import os
import re
import subprocess
import sys
from pathlib import Path

from thetasum import engine, errors

ROOT = Path(__file__).parents[1]
DIGEST = ROOT / "tests" / "golden" / "repr_digest.txt"


def _dump(points, *flags):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "repr_dump.py"), "--points", str(points), *flags],
        env={**os.environ, "PYTHONPATH": str(Path(engine.__file__).parents[1])},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_two_runs_print_the_same_lines():
    first = _dump(1)
    assert first == _dump(1)
    lines = first.splitlines()
    # the five specials and eight W4 rows follow the one seeded modulus
    assert len(lines) > 2000
    for kind in ("route direct", "route generic", "route even", "route pj", "tail_factor", "direct_sum"):
        assert any(line.startswith(kind + " ") for line in lines), kind
    # the special functions' own grid, which --points does not shrink
    for kind in ("gamma_real", "zeta_real", "digamma_int"):
        assert any(line.startswith(f"specfun {kind} ") for line in lines), kind
    # answers and refusals both appear
    assert any(" log=" in line for line in lines)
    assert any("| PrecisionError: " in line for line in lines)
    # every refusal, at the subnormal and huge specials too, is one of
    # the package's own, not an arithmetic error that leaked out
    refusals = {m.group(1) for line in lines if (m := re.search(r"\| (\w+): ", line))}
    assert refusals
    for name in refusals:
        assert issubclass(getattr(errors, name, type(None)), errors.ThetaSumError), name


def test_no_log_runs_match_the_logged_runs():
    # each route and tail_factor case runs with and without a TermLog;
    # the dump marks a no-log outcome that is not the logged one
    lines = _dump(1).splitlines()
    for kind in ("route direct", "route generic", "route even", "route pj", "tail_factor"):
        assert any(line.startswith(f"nolog {kind} ") for line in lines), kind
    assert [line for line in lines if line.startswith("NOLOG-DIFFERS ")] == []
    # an unmarked no-log line follows each logged line of a case
    for logged, plain in zip(lines, lines[1:]):
        if logged.startswith(("route ", "tail_factor ")):
            assert plain.startswith("nolog " + logged.split(" | ")[0] + " | "), logged


def test_digest_matches_the_committed_one():
    # bit identity of every section at --points 10; a change that is
    # meant to move values regenerates the file (the tool's docstring
    # has the command) and names the sections that moved
    got = _dump(10, "--digest").splitlines()
    want = DIGEST.read_text().splitlines()
    moved = [line.split(" | ")[0] for line in got if line not in want]
    assert got == want, f"moved sections: {moved}"
