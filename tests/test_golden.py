"""Golden outputs: short CLI runs reproduce the committed files.

`tests/golden/<case>/` holds every file the command wrote when the case was
recorded.  A run must write the same set of files; in each file the text
between numbers must match exactly and every number to a relative 1e-12.
A refactor that claims to leave the closed loop unchanged keeps this green.

`PYTHONPATH=src python tests/test_golden.py` re-records every case: it
prints each file's largest absolute and relative change against
`tests/golden/`, then overwrites the files with the new run.
"""

import re
from pathlib import Path

import pytest

from essmpc.cli import main
from essmpc.scenario import bundled_scenario_path

GOLDEN = Path(__file__).parent / "golden"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")
REL_TOL = 1e-12

CASES = {
    "compare_two_bus": ["compare", "two_bus", "--ttotal", "0.3"],
    # Two areas of one bus each: every bus is a tie-line end.
    "dmpc_two_bus": ["dmpc", "two_bus", "--ttotal", "0.3"],
    "dmpc_twelve_bus": ["dmpc", "twelve_bus", "--ttotal", "0.2"],
    # The n = 252 centralized program.
    "mpc_twelve_bus": ["mpc", "twelve_bus", "--ttotal", "0.04"],
}


def _split(text):
    """(non-number text pieces, numbers) of a file."""
    return NUMBER.split(text), [float(tok) for tok in NUMBER.findall(text)]


def _run(case, out):
    command, scenario, *rest = CASES[case]
    return main([command, str(bundled_scenario_path(scenario)),
                 f"--out={out}", *rest])


def _change(got, want):
    """(largest absolute, largest relative) change of the numbers, or None
    if the text between them differs."""
    got_text, got_nums = _split(got)
    want_text, want_nums = _split(want)
    if got_text != want_text or len(got_nums) != len(want_nums):
        return None
    pairs = [(a, b) for a, b in zip(got_nums, want_nums) if a != b]
    return (max((abs(a - b) for a, b in pairs), default=0.0),
            max((abs(a - b) / max(abs(a), abs(b)) for a, b in pairs), default=0.0))


def _mismatch(got, want):
    """First difference between two output texts, or None."""
    got_text, got_nums = _split(got)
    want_text, want_nums = _split(want)
    if got_text != want_text or len(got_nums) != len(want_nums):
        return "text differs"
    for i, (a, b) in enumerate(zip(got_nums, want_nums)):
        if a != b and not abs(a - b) <= REL_TOL * max(abs(a), abs(b)):
            return f"number {i}: {a!r} != {b!r}"
    return None


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case, tmp_path):
    out = tmp_path / case
    assert _run(case, out) == 0
    want_dir = GOLDEN / case
    names = sorted(p.name for p in want_dir.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        problem = _mismatch((out / name).read_text(),
                            (want_dir / name).read_text())
        assert problem is None, f"{case}/{name}: {problem}"


def test_comparison_catches_a_changed_digit():
    assert _mismatch("a,1.0\n", "a,1.0\n") is None
    assert _mismatch("a,1.0000000000001\n", "a,1.0\n") is None
    assert _mismatch("a,1.00000001\n", "a,1.0\n") is not None
    assert _mismatch("b,1.0\n", "a,1.0\n") is not None


if __name__ == "__main__":
    import shutil
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / case
            if _run(case, out) != 0:
                raise SystemExit(f"{case}: the command failed")
            want_dir = GOLDEN / case
            for path in sorted(out.iterdir()):
                old = want_dir / path.name
                change = (_change(path.read_text(), old.read_text())
                          if old.is_file() else None)
                print(f"{case}/{path.name}: " + ("text differs" if change is None
                      else "abs {:.3g} rel {:.3g}".format(*change)))
            shutil.rmtree(want_dir)
            shutil.copytree(out, want_dir)
