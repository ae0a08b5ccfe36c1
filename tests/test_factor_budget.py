"""SuperLU factors per CLI command: one per loaded program.

A workspace factors one working set per load, its first solve's seed set
(that seed repaired if the set is singular or certifies nothing), and
solves every other set of that load by bordering that factor with a Schur
complement that rows enter and leave.  The counts come
from spies on `qp.splu`, `QpWorkspace.load` (which the constructor calls
too), `_Schur._enter` (rows entering the Schur complement),
`qp.csc_array`, which builds each new KKT layout, and `QpWorkspace.solve`
(dual active-set steps).  Every factor takes one-column panels and
supernodes relaxed to two columns; a layout's first factor takes
SuperLU's default column order, and every repeat of the layout the order
that first factor chose (`permc_spec="NATURAL"` on the columns permuted).
Each area keeps one warm start, multipliers and KKT layout, per SQP
iteration: iteration i of a control step starts from iteration i of the
step before, so its factors repeat that iteration's layout.
"""

import pytest

from essmpc import qp
from essmpc.cli import main
from essmpc.scenario import bundled_scenario_path


@pytest.fixture()
def splu_options():
    """The keyword arguments of each "splu" call the `events` spy saw."""
    return []


@pytest.fixture()
def events(monkeypatch, splu_options):
    """The run's "load", "splu", "_enter" and "csc_array" calls, in order."""
    seen = []
    for owner, name in ((qp, "splu"), (qp.QpWorkspace, "load"), (qp._Schur, "_enter"),
                        (qp, "csc_array")):
        def spy(*args, _name=name, _call=getattr(owner, name), **kwargs):
            seen.append(_name)
            if _name == "splu":
                splu_options.append(kwargs)
            return _call(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    return seen


FIRST = {"panel_size": 1, "relax": 2}
REPEAT = {"permc_spec": "NATURAL", **FIRST}


def kept_order_options(events, options):
    """Each factor's options: FIRST right after its layout is built, else REPEAT."""
    first, fresh = [], False
    for name in events:
        if name == "splu":
            first.append(fresh)
        if name in ("csc_array", "splu"):
            fresh = name == "csc_array"
    return bool(options) and all(kw == (FIRST if f else REPEAT)
                                 for kw, f in zip(options, first, strict=True))


def run(tmp_path, command, scenario, *rest):
    assert main([command, str(bundled_scenario_path(scenario)),
                 f"--out={tmp_path}", *rest]) == 0


@pytest.mark.parametrize("argv, factors", [
    # Ten steps of three areas, one SQP iteration each: 30 programs.
    (("dmpc", "twelve_bus", "--ttotal", "0.2"), 30),
    # One step of the n = 252 program; its two dual steps are bordered.
    (("mpc", "twelve_bus", "--ttotal", "0.02"), 1),
], ids=["dmpc_twelve_bus", "mpc_twelve_bus"])
def test_one_factor_per_loaded_program(events, splu_options, tmp_path, argv, factors):
    run(tmp_path, *argv)
    assert events.count("splu") == events.count("load") == factors
    assert events.count("_enter") > 0
    assert kept_order_options(events, splu_options)


def test_compare_borders_the_working_set_flips(events, splu_options, tmp_path):
    # The warm solves that take dual steps (cc's steps 1 and 2, vc's steps
    # 1 to 3, and step 0 of cv and vv) add and drop rows, two to eight
    # working sets per load; all but the first of a load are bordered, not
    # factored.
    run(tmp_path, "compare", "two_bus", "--ttotal", "0.1")
    loads = events.count("load")
    assert loads and events.count("splu") <= loads + 1
    assert events.count("_enter") > 0
    assert kept_order_options(events, splu_options)


def test_kkt_layouts_are_kept_across_loads(events, splu_options, tmp_path):
    # Each area's direct factors mostly repeat the working set and non-zeros
    # of its one SQP iteration a step earlier, so they refill that layout
    # (16 built for 300 loads); a layout built per factor would make 300.
    # Each repeat factors in its layout's kept column order.
    run(tmp_path, "dmpc", "twelve_bus", "--ttotal", "2.0")
    assert events.count("load") == events.count("splu") == 300
    assert 0 < events.count("csc_array") <= 20
    assert sum(kw == REPEAT for kw in splu_options) >= 280
    assert kept_order_options(events, splu_options)


@pytest.fixture()
def dual_steps(monkeypatch):
    """The dual active-set steps of each `QpWorkspace.solve` call."""
    steps, solve = [], qp.QpWorkspace.solve

    def spy(self, *args, **kwargs):
        report = solve(self, *args, **kwargs)
        steps.append(report.iterations)
        return report
    monkeypatch.setattr(qp.QpWorkspace, "solve", spy)
    return steps


@pytest.mark.parametrize("argv, factors, layouts, kept, steps", [
    # Four regimes of 50 steps, one or two SQP iterations each.  Iteration 0
    # is bound by the trust region around the shifted plan and iteration 1
    # is not; seeded by each other, they took 83 dual steps and built 117
    # layouts, of which 187 factors repeated one.
    (("compare", "two_bus", "--ttotal", "0.5"), 304, 30, 270, 40),
    # Two areas, 50 steps of two SQP iterations: 101 layouts, 99 repeats.
    (("dmpc", "two_bus", "--ttotal", "0.5"), 200, 10, 185, None),
], ids=["compare_two_bus", "dmpc_two_bus"])
def test_each_sqp_iteration_repeats_its_own_layout(events, splu_options, dual_steps,
                                                   tmp_path, argv, factors, layouts,
                                                   kept, steps):
    run(tmp_path, *argv)
    assert events.count("splu") == factors
    assert 0 < events.count("csc_array") <= layouts
    assert sum(kw == REPEAT for kw in splu_options) >= kept
    assert kept_order_options(events, splu_options)
    assert steps is None or sum(dual_steps) <= steps
