"""Golden outputs: two short CLI runs reproduce the committed files.

`tests/golden/<case>/` holds every file the command wrote when the case was
recorded.  A run must write the same set of files; in each file the text
between numbers must match exactly and every number to a relative 1e-12.
A refactor that claims to leave the closed loop unchanged keeps this green.
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
    "dmpc_twelve_bus": ["dmpc", "twelve_bus", "--ttotal", "0.2"],
}


def _split(text):
    """(non-number text pieces, numbers) of a file."""
    return NUMBER.split(text), [float(tok) for tok in NUMBER.findall(text)]


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
    command, scenario, *rest = CASES[case]
    out = tmp_path / case
    assert main([command, str(bundled_scenario_path(scenario)),
                 f"--out={out}", *rest]) == 0
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
