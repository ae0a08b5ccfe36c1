"""tools/ab_time.py: two source trees timed side by side in one process."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def ab_time():
    spec = importlib.util.spec_from_file_location("ab_time", ROOT / "tools" / "ab_time.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in [m for m in sys.modules if m.startswith("essmpc_ab")]:
        del sys.modules[name]


def test_runs_one_command_on_both_trees(ab_time, capsys):
    # Five steps of the two-bus MPC, two SQP iterations each: ten programs,
    # one factor each; six repeat the KKT layout of the factor before them
    # and reuse its column order.
    assert ab_time.main([str(ROOT), str(ROOT), "--pairs", "2",
                         "--", "mpc", "two_bus", "--ttotal", "0.05"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["old", "new", "new/old"]
    for line in lines[:2]:
        assert line.endswith("  splu 10 per command, 6 in a kept order  (n = 2)")
    assert "median paired ratio" in lines[2] and lines[2].endswith("of 2 pairs")
    # The trees are two packages, each with its own modules.
    old, new = sys.modules["essmpc_ab0.dynamics"], sys.modules["essmpc_ab1.dynamics"]
    assert old is not new and old.simulate is not new.simulate
    assert sys.modules["essmpc_ab0.qp"].splu is not sys.modules["essmpc_ab1.qp"].splu


def test_report_counts_wins_and_pairs_ratios(ab_time):
    text = ab_time.report([1.0, 2.0, 3.0], [0.5, 2.2, 2.7],
                          ([(3, 0)] * 3, [(1, 1), (2, 1), (1, 0)]))
    assert "new faster in 2 of 3 pairs" in text
    assert "median paired ratio 0.9000" in text
    old, new, _ = text.splitlines()
    assert old == ("old: median 2.0000 s  quartiles 1.5000 / 2.5000 s"
                   "  splu 3 per command, 0 in a kept order  (n = 3)")
    assert new.endswith("  splu 1 per command, 1 in a kept order  (n = 3)")
