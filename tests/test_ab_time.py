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


def direct_counts(monkeypatch, tmp_path, argv):
    """(factors, those in a kept order, KKT layouts built, dual steps) of
    one run of `argv` through this tree's `essmpc.cli.main`."""
    from essmpc import qp
    from essmpc.cli import main
    from essmpc.scenario import bundled_scenario_path
    counts = [0, 0, 0, 0]
    splu, csc_array, solve = qp.splu, qp.csc_array, qp.QpWorkspace.solve

    def counted_splu(*args, **kwargs):
        counts[0] += 1
        counts[1] += kwargs.get("permc_spec") == "NATURAL"
        return splu(*args, **kwargs)

    def counted_csc_array(*args, **kwargs):
        counts[2] += 1
        return csc_array(*args, **kwargs)

    def counted_solve(self, *args, **kwargs):
        report = solve(self, *args, **kwargs)
        counts[3] += report.iterations
        return report
    monkeypatch.setattr(qp, "splu", counted_splu)
    monkeypatch.setattr(qp, "csc_array", counted_csc_array)
    monkeypatch.setattr(qp.QpWorkspace, "solve", counted_solve)
    command, scenario, *rest = argv
    assert main([command, str(bundled_scenario_path(scenario)), f"--out={tmp_path}",
                 *rest]) == 0
    return tuple(counts)


def test_runs_one_command_on_both_trees(ab_time, capsys, monkeypatch, tmp_path):
    # Five steps of the two-bus MPC, two SQP iterations each: ten programs,
    # one factor each, some of them in a kept column order.
    argv = ["mpc", "two_bus", "--ttotal", "0.05"]
    assert ab_time.main([str(ROOT), str(ROOT), "--pairs", "2", "--", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["old", "new", "new/old"]
    splu, kept, layouts, steps = direct_counts(monkeypatch, tmp_path, argv)
    assert splu == 10 and 0 < kept < splu and layouts > 0
    for line in lines[:2]:
        assert line.endswith(f"  splu {splu} per command, {kept} in a kept order,"
                             f" {layouts} KKT layouts built, {steps} dual steps  (n = 2)")
    assert "median paired ratio" in lines[2] and lines[2].endswith("of 2 pairs")
    # The trees are two packages, each with its own modules.
    old, new = sys.modules["essmpc_ab0.dynamics"], sys.modules["essmpc_ab1.dynamics"]
    assert old is not new and old.simulate is not new.simulate
    assert sys.modules["essmpc_ab0.qp"].splu is not sys.modules["essmpc_ab1.qp"].splu


def test_report_counts_wins_and_pairs_ratios(ab_time):
    counts = ([ab_time.Counts(3, 0, 2, 5)] * 3,
              [ab_time.Counts(1, 1, 1, 2), ab_time.Counts(2, 1, 1, 4),
               ab_time.Counts(1, 0, 0, 2)])
    text = ab_time.report([1.0, 2.0, 3.0], [0.5, 2.2, 2.7], counts)
    assert "new faster in 2 of 3 pairs" in text
    assert "median paired ratio 0.9000" in text
    old, new, _ = text.splitlines()
    assert old == ("old: median 2.0000 s  quartiles 1.5000 / 2.5000 s"
                   "  splu 3 per command, 0 in a kept order, 2 KKT layouts built,"
                   " 5 dual steps  (n = 3)")
    assert new.endswith("  splu 1 per command, 1 in a kept order, 1 KKT layouts built,"
                        " 2 dual steps  (n = 3)")
