"""SuperLU factors per CLI command: one per loaded program.

A workspace factors one working set per load, its first solve's seed set
(the equality rows' if that set is singular or certifies nothing), and
solves every other set of that load by bordering that factor with a Schur
complement that rows enter and leave.  The counts come
from spies on `qp.splu`, `QpWorkspace.load` (which the constructor calls
too), `_Schur._enter` (rows entering the Schur complement) and
`qp.csc_array`, which builds each new KKT layout.
"""

import pytest

from essmpc import qp
from essmpc.cli import main
from essmpc.scenario import bundled_scenario_path


@pytest.fixture()
def events(monkeypatch):
    """The run's "load", "splu", "_enter" and "csc_array" calls, in order."""
    seen = []
    for owner, name in ((qp, "splu"), (qp.QpWorkspace, "load"), (qp._Schur, "_enter"),
                        (qp, "csc_array")):
        def spy(*args, _name=name, _call=getattr(owner, name), **kwargs):
            seen.append(_name)
            return _call(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    return seen


def run(tmp_path, command, scenario, *rest):
    assert main([command, str(bundled_scenario_path(scenario)),
                 f"--out={tmp_path}", *rest]) == 0


@pytest.mark.parametrize("argv, factors", [
    # Ten steps of three areas, one SQP iteration each: 30 programs.
    (("dmpc", "twelve_bus", "--ttotal", "0.2"), 30),
    # One step of the n = 252 program; its two dual steps are bordered.
    (("mpc", "twelve_bus", "--ttotal", "0.02"), 1),
], ids=["dmpc_twelve_bus", "mpc_twelve_bus"])
def test_one_factor_per_loaded_program(events, tmp_path, argv, factors):
    run(tmp_path, *argv)
    assert events.count("splu") == events.count("load") == factors
    assert events.count("_enter") > 0


def test_compare_borders_the_working_set_flips(events, tmp_path):
    # The cv regime's warm solves drop two degenerate rows and add them back
    # on the next step, two to three working sets per load; all but the
    # first of a load are bordered, not factored.
    run(tmp_path, "compare", "two_bus", "--ttotal", "0.1")
    loads = events.count("load")
    assert loads and events.count("splu") <= loads + 1
    assert events.count("_enter") > 0


def test_kkt_layouts_are_kept_across_loads(events, tmp_path):
    # Each area's direct factors mostly repeat the last one's working set
    # and non-zeros, so they refill its layout (16 built for 300 loads);
    # a layout built per factor would make 300.
    run(tmp_path, "dmpc", "twelve_bus", "--ttotal", "2.0")
    assert events.count("load") == events.count("splu") == 300
    assert 0 < events.count("csc_array") <= 20
