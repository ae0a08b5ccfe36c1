"""Distributed consensus MPC: partitioning, coupling, ADMM, equivalence."""

from dataclasses import replace

import numpy as np
import pytest

from essmpc.dmpc import (AdmmSettings, AreaProgram, ConsensusState,
                         CouplingEquality, DistributedMpcController,
                         PartitionError, area_subproblem_solve, build_coupling,
                         distributed_mpc_run, partition_grid, pdc_admm_step)
from essmpc.dynamics import SystemState
from essmpc.grid import solve_equilibrium
from essmpc.mpc import MpcConfig, SqpSettings, receding_horizon_run
from essmpc.qp import ConvexProgram


def equilibrium_state(grid, storage_power):
    angles = solve_equilibrium(grid, storage_power)
    energy = np.array([grid.storage_role(b).initial_energy
                       for b in grid.storage_buses])
    return SystemState(angles, np.zeros(len(grid.inertia_buses)), energy, 0.0)


class TestPartition:
    def test_twelve_bus_three_areas(self, twelve_bus_scenario):
        sc = twelve_bus_scenario
        partition = partition_grid(sc.grid, sc.areas)
        assert partition.n_areas == 3
        assert partition.owned[0] == (0, 1, 2, 3)
        assert partition.owned[1] == (4, 5, 6, 7)
        assert partition.owned[2] == (8, 9, 10, 11)
        assert len(partition.tie_lines) == 3

    def test_single_area_has_no_ties(self, two_bus_grid):
        partition = partition_grid(two_bus_grid, [0, 0])
        assert partition.n_areas == 1
        assert partition.tie_lines == ()
        assert partition.boundary_foreign == ((),)

    def test_two_bus_split(self, two_bus_grid):
        partition = partition_grid(two_bus_grid, [0, 1])
        assert len(partition.tie_lines) == 1
        assert partition.boundary_foreign == ((1,), (0,))

    def test_missing_bus_rejected(self, two_bus_grid):
        with pytest.raises(PartitionError, match="covers"):
            partition_grid(two_bus_grid, [0])

    def test_empty_area_rejected(self, two_bus_grid):
        with pytest.raises(PartitionError, match="contiguous"):
            partition_grid(two_bus_grid, [0, 2])


class TestCoupling:
    def test_no_ties_no_equalities(self, two_bus_grid):
        partition = partition_grid(two_bus_grid, [0, 0])
        assert build_coupling(partition, 10) == ()

    def test_two_bus_split_count(self, two_bus_grid):
        partition = partition_grid(two_bus_grid, [0, 1])
        assert len(build_coupling(partition, 10)) == 20

    def test_twelve_bus_count(self, twelve_bus_scenario):
        sc = twelve_bus_scenario
        partition = partition_grid(sc.grid, sc.areas)
        coupling = build_coupling(partition, 6)
        assert len(coupling) == 2 * len(partition.tie_lines) * 6


def scalar_toy(a1, t1, a2, t2, rho, tau):
    """One shared scalar: area 0 owns it, area 1 works on its copy.

    Area 0 minimizes a1/2 (x - t1)^2 over its own variable; area 1 minimizes
    a2/2 (w - t2)^2 over its duplicate; the single coupling equality enforces
    w = x.  Saddle point: x = (a1 t1 + a2 t2) / (a1 + a2).
    """
    prog0 = ConvexProgram(q=np.array([-a1 * t1]), Q=np.array([[a1]]))
    prog1 = ConvexProgram(q=np.array([-a2 * t2]), Q=np.array([[a2]]))
    programs = [AreaProgram(0, prog0, own_entries=[(0, 0, 0.0)]),
                AreaProgram(1, prog1, copy_entries=[(0, 0, 0.0)])]
    couplings = (CouplingEquality(bus=0, own_area=0, copy_area=1, k=1),)
    consensus = ConsensusState(couplings, np.zeros(1), np.zeros(1),
                               np.zeros(1), rho, tau)
    return programs, consensus


def toy_reference_iteration(a1, t1, a2, t2, rho, tau, rounds):
    """Closed-form two-block consensus recursion, derived by hand.

    Per round each holder minimizes its quadratic plus the signed dual term
    and (rho/2)(v - z)^2 with z the previous barrier's average, plus the
    proximal anchor; then z re-averages and the copy-side dual ascends by
    rho times its mismatch from z.  Every update is a scalar ratio.
    """
    v = w = 0.0    # area 0's own value, area 1's copy
    lam = 0.0
    history = []
    for _ in range(rounds):
        z = 0.5 * (v + w)
        v_new = (a1 * t1 + lam + rho * z + tau * v) / (a1 + rho + tau)
        w_new = (a2 * t2 - lam + rho * z + tau * w) / (a2 + rho + tau)
        v, w = v_new, w_new
        lam = lam + rho * 0.5 * (w - v)
        history.append((v, w, lam, abs(w - v)))
    return history


class TestScalarConsensusToy:
    A1, T1, A2, T2 = 2.0, 1.0, 3.0, -0.5
    SADDLE = (A1 * T1 + A2 * T2) / (A1 + A2)

    def test_converges_to_hand_solved_saddle(self):
        programs, consensus = scalar_toy(self.A1, self.T1, self.A2, self.T2,
                                         rho=1.0, tau=0.1)
        x_prev = {0: np.zeros(1), 1: np.zeros(1)}
        for _ in range(400):
            solutions, resid = pdc_admm_step(programs, consensus, x_prev)
            x_prev = solutions
        assert resid < 1e-8
        assert solutions[0][0] == pytest.approx(self.SADDLE, abs=1e-6)
        assert solutions[1][0] == pytest.approx(self.SADDLE, abs=1e-6)

    def test_matches_closed_form_iteration(self):
        rho, tau = 1.0, 0.1
        programs, consensus = scalar_toy(self.A1, self.T1, self.A2, self.T2,
                                         rho, tau)
        reference = toy_reference_iteration(self.A1, self.T1, self.A2, self.T2,
                                            rho, tau, rounds=30)
        x_prev = {0: np.zeros(1), 1: np.zeros(1)}
        for (v_ref, w_ref, lam_ref, resid_ref) in reference:
            solutions, resid = pdc_admm_step(programs, consensus, x_prev,
                                             tol=1e-12)
            x_prev = solutions
            assert solutions[0][0] == pytest.approx(v_ref, abs=1e-8)
            assert solutions[1][0] == pytest.approx(w_ref, abs=1e-8)
            assert consensus.duals[0] == pytest.approx(lam_ref, abs=1e-8)
            assert resid == pytest.approx(resid_ref, abs=1e-8)

    def test_residual_decreases_geometrically_after_burn_in(self):
        reference = toy_reference_iteration(self.A1, self.T1, self.A2, self.T2,
                                            1.0, 0.1, rounds=60)
        residuals = np.array([r[3] for r in reference])
        late = residuals[5:40]
        ratios = late[1:] / late[:-1]
        assert np.all(ratios < 1.0)
        # geometric: the contraction factor stabilizes
        assert np.std(ratios[-20:]) < 0.08


class TestAdmmStep:
    def test_consistent_copies_leave_duals_unchanged(self):
        programs, consensus = scalar_toy(1.0, 0.7, 1.0, 0.7, 1.0, 0.1)
        # Both areas already agree at the optimum 0.7 (symmetric targets).
        x_prev = {0: np.array([0.7]), 1: np.array([0.7])}
        consensus.own_values[:] = 0.7
        consensus.copy_values[:] = 0.7
        _solutions, resid = pdc_admm_step(programs, consensus, x_prev)
        assert resid < 1e-9
        assert np.max(np.abs(consensus.duals)) < 1e-8

    def test_dual_step_is_rho_times_consensus_mismatch(self):
        # Copy at 0.2, owner at 0.0: consensus value 0.1, so the copy side's
        # mismatch is 0.1 and with rho = 1 its dual rises by exactly 0.1.
        consensus = ConsensusState(
            (CouplingEquality(0, 0, 1, 1),), np.array([0.0]),
            np.array([0.2]), np.zeros(1), rho=1.0, tau=0.1)
        consensus.update_duals()
        assert consensus.duals[0] == pytest.approx(0.1, abs=1e-15)

    def test_round_is_order_independent(self):
        programs, consensus_a = scalar_toy(2.0, 1.0, 3.0, -0.5, 1.0, 0.1)
        programs_b, consensus_b = scalar_toy(2.0, 1.0, 3.0, -0.5, 1.0, 0.1)
        x_prev_a = {0: np.zeros(1), 1: np.zeros(1)}
        x_prev_b = {0: np.zeros(1), 1: np.zeros(1)}
        for _ in range(5):
            sol_a, _ = pdc_admm_step(programs, consensus_a, x_prev_a,
                                     order=[0, 1])
            sol_b, _ = pdc_admm_step(programs_b, consensus_b, x_prev_b,
                                     order=[1, 0])
            x_prev_a, x_prev_b = sol_a, sol_b
        assert np.array_equal(consensus_a.own_values, consensus_b.own_values)
        assert np.array_equal(consensus_a.copy_values, consensus_b.copy_values)
        assert np.array_equal(consensus_a.duals, consensus_b.duals)

    def test_exchange_record_contains_only_boundary_values_and_duals(
            self, twelve_bus_scenario):
        sc = twelve_bus_scenario
        partition = partition_grid(sc.grid, sc.areas)
        coupling = build_coupling(partition, sc.mpc.k_steps)
        boundary_buses = {bus for area in partition.boundary_foreign
                          for bus in area}
        assert all(c.bus in boundary_buses for c in coupling)
        state = ConsensusState.initialize(coupling, np.zeros(12), 1.0, 0.1)
        # The record is exactly: one own value, one copy value, one dual per
        # boundary-angle equality; nothing else crosses area lines.
        assert state.own_values.shape == (len(coupling),)
        assert state.copy_values.shape == (len(coupling),)
        assert state.duals.shape == (len(coupling),)


class TestAreaSubproblem:
    def test_proximal_only_perturbation_when_consistent(self):
        programs, consensus = scalar_toy(2.0, 1.0, 2.0, 1.0, 1.0, 0.5)
        consensus.own_values[:] = 1.0
        consensus.copy_values[:] = 1.0
        # With zero duals and neighbour copies at the optimum, the solution
        # is pulled off 1.0 only by the proximal term anchored at x_prev.
        x = area_subproblem_solve(programs[0], consensus,
                                  x_prev=np.array([0.0]))
        expected_own = (2.0 * 1.0 + 1.0 * 1.0) / (2.0 + 1.0 + 0.5)
        assert x[0] == pytest.approx(expected_own, abs=1e-8)

    def test_no_coupling_solves_exact_local_problem(self):
        prog = AreaProgram(0, ConvexProgram(q=np.array([-2.0]),
                                            Q=2.0 * np.eye(1)))
        consensus = ConsensusState((), np.zeros(0), np.zeros(0), np.zeros(0),
                                   1.0, 0.1)
        x = area_subproblem_solve(prog, consensus)
        assert x[0] == pytest.approx(1.0, abs=1e-8)


class TestClosedLoopEquivalence:
    @pytest.mark.parametrize("absolute_effort", [False, True])
    def test_single_area_matches_centralized(self, two_bus_scenario, absolute_effort):
        sc = two_bus_scenario
        st = sc.initial_state()
        cfg = replace(sc.mpc, absolute_effort=absolute_effort)
        traj_c, log_c = receding_horizon_run(sc.grid, st, cfg, 1.0, sc.events)
        partition = partition_grid(sc.grid, [0, 0])
        traj_d, reports = distributed_mpc_run(sc.grid, partition, cfg, st, 1.0,
                                              sc.admm, sc.events)
        # Both controllers run the same SQP loop: step by step it takes the
        # same iterations, certifies every solve and saturates the same
        # storages.
        assert len(log_c) == len(reports)
        for c, d in zip(log_c, reports):
            assert d.sqp_iterations == c.sqp_iterations
            assert d.non_optimal_solves == c.non_optimal_solves == 0
            assert d.saturated == c.saturated
        for a, b in zip(traj_c.states, traj_d.states):
            assert np.max(np.abs(a.angles - b.angles)) <= 1e-8
            assert np.max(np.abs(a.omega - b.omega)) <= 1e-8
            assert np.max(np.abs(a.energy - b.energy)) <= 1e-8
        # The storage bus starts balanced, so its inertia barely moves the
        # states: compare the applied set-points too.
        assert np.max(np.abs(traj_c.power_matrix() - traj_d.power_matrix())) <= 1e-8
        assert np.max(np.abs(traj_c.inertia_matrix()
                             - traj_d.inertia_matrix())) <= 1e-8

    def test_two_area_split_tracks_centralized(self, two_bus_scenario):
        sc = two_bus_scenario
        st = sc.initial_state()
        traj_c, _ = receding_horizon_run(sc.grid, st, sc.mpc, 2.0, sc.events)
        partition = partition_grid(sc.grid, [0, 1])
        traj_d, reports = distributed_mpc_run(sc.grid, partition, sc.mpc, st,
                                              2.0, sc.admm, sc.events)
        assert all(r.final_residual < sc.admm.tolerance for r in reports)
        assert all(r.iterations <= sc.admm.max_iterations for r in reports)
        j_c = traj_c.frequency_integral()
        j_d = traj_d.frequency_integral()
        assert j_d == pytest.approx(j_c, rel=0.01)

    def test_consensus_stitching_satisfies_network_dynamics(self, two_bus_scenario):
        # At convergence the stitched closed-loop trajectory obeys the full
        # network model: re-simulating with the applied inputs reproduces it.
        from essmpc.dynamics import euler_step, ControlInput
        sc = two_bus_scenario
        st = sc.initial_state()
        partition = partition_grid(sc.grid, [0, 1])
        traj, _ = distributed_mpc_run(sc.grid, partition, sc.mpc, st, 0.5,
                                      sc.admm, sc.events)
        for k in range(len(traj) - 1):
            nxt = euler_step(sc.grid, traj.states[k], traj.inputs[k],
                             traj.ts, sc.events)
            assert np.max(np.abs(nxt.angles - traj.states[k + 1].angles)) < 1e-12
            assert np.max(np.abs(nxt.omega - traj.states[k + 1].omega)) < 1e-12


class TestRoundBudget:
    def test_spent_budget_applies_the_last_solved_plan(self, two_bus_scenario):
        # One round in total: later SQP iterations have nothing to solve
        # with, so they must not move the applied set-points.
        sc = two_bus_scenario
        st = sc.initial_state()
        st.omega = st.omega + np.array([0.02, -0.01])
        partition = partition_grid(sc.grid, [0, 1])
        settings = replace(sc.admm, max_iterations=1)
        applied = []
        for outer in (1, 2, 3):
            cfg = replace(sc.mpc, sqp=replace(sc.mpc.sqp, outer_iterations=outer,
                                              tolerance=0.0))
            controller = DistributedMpcController(sc.grid, cfg, partition, settings,
                                                  sc.events)
            u = controller(0, st)
            assert controller.log[0].iterations == 1
            applied.append((u.power, u.inertia))
        for power, inertia in applied[1:]:
            assert np.array_equal(power, applied[0][0])
            assert np.array_equal(inertia, applied[0][1])
