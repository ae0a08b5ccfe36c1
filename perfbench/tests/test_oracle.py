"""HiGHS oracle, pinned to today's twelve-bus step-0 facts.

The DMPC pin records a known defect: the three-area controller reports
convergence after one round with M0 = 6.998, while the centralized optimum
is M0 = 5.0.  A fix of that defect changes this test on purpose.
"""

import numpy as np
import pytest

from essmpc.dmpc import DistributedMpcController, partition_grid
from essmpc.qp import QpWorkspace
from essmpc.scenario import bundled_scenario_path, parse_scenario
from perfbench import oracle


@pytest.fixture(scope="module")
def twelve():
    return parse_scenario(bundled_scenario_path("twelve_bus"))


@pytest.fixture(scope="module")
def step0(twelve):
    hp = oracle.step0_program(twelve)
    return hp, oracle.optimal_first_inputs(hp)


def test_twelve_bus_step0_optimum_and_first_inertia(step0):
    hp, (best, low, high) = step0
    assert best == pytest.approx(-6.0723e-4, rel=1e-4)
    n_s = hp.n_u // 2
    np.testing.assert_allclose(low[n_s:], 5.0, atol=1e-6)
    np.testing.assert_allclose(high[n_s:], 5.0, atol=1e-6)
    np.testing.assert_allclose(low[:n_s], 0.0, atol=1e-6)
    np.testing.assert_allclose(high[:n_s], 0.0, atol=1e-6)


def test_dmpc_reports_convergence_far_from_the_optimum(twelve, step0):
    _hp, (_best, low, high) = step0
    ctrl = DistributedMpcController(twelve.grid, twelve.mpc,
                                    partition_grid(twelve.grid, twelve.areas),
                                    twelve.admm, twelve.events)
    u = ctrl(0, twelve.initial_state())
    assert ctrl.log[0].converged
    gap = oracle.input_gap(np.concatenate([u.power, u.inertia]), low, high)
    assert gap == pytest.approx(1.998, abs=2e-3)


def test_input_gap_is_infinity_norm_distance_to_the_box():
    low, high = np.array([0.0, 5.0]), np.array([1.0, 5.0])
    assert oracle.input_gap([0.5, 5.0], low, high) == 0.0
    assert oracle.input_gap([1.5, 4.0], low, high) == 1.0


def test_objective_gap_of_two_bus_qp_solution_is_small():
    hp = oracle.step0_program(parse_scenario(bundled_scenario_path("two_bus")))
    report = QpWorkspace(hp.prog).solve()
    assert report.status == "optimal"
    assert abs(oracle.objective_gap(hp.prog, report.x)) < 1e-3
