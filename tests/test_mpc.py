"""Centralized MPC: linearization, horizon assembly, solving, closed loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from essmpc.dynamics import ControlInput, SystemState, euler_step, simulate, swing_rhs
from essmpc.grid import DisturbanceEvent, solve_equilibrium
from essmpc.dmpc import DistributedMpcController, partition_grid
from essmpc.mpc import (_REGULARIZATION, HorizonProgram, MpcConfig, MpcConfigError,
                        MpcController, SqpSettings, StorageRegime, _AreaView,
                        _HorizonStructure, _stage_cost, assemble_horizon_program,
                        linearize_dynamics)
from essmpc.qp import QpWorkspace, kkt_residual
from essmpc.scenario import bundled_scenario_path, parse_scenario


def equilibrium_state(grid, storage_power):
    angles = solve_equilibrium(grid, storage_power)
    energy = np.array([grid.storage_role(b).initial_energy
                       for b in grid.storage_buses])
    return SystemState(angles, np.zeros(len(grid.inertia_buses)), energy, 0.0)


def base_config(grid, **kwargs):
    return MpcConfig.create(grid, horizon=0.1, step=0.01,
                            reference_power=-3.0, reference_inertia=8.0,
                            **kwargs)


def stack_state(state):
    return np.concatenate([state.angles, state.omega])


def rhs_vector(grid, state, u, events=()):
    d = swing_rhs(grid, state, u, state.t, events)
    return np.concatenate([d.angles, d.omega])


def first_step(grid, state, cfg, events=()):
    """Step record of one control step of a fresh centralized controller."""
    ctrl = MpcController(grid, cfg, events)
    ctrl(0, state)
    return ctrl.log[-1]


def close_two_bus_loop(*edits):
    """The bundled two-bus scenario, each (old, new) text edit applied, run
    for 0.2 s under the centralized controller; every solve is certified."""
    text = bundled_scenario_path("two_bus").read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    sc = parse_scenario(text)
    ctrl = MpcController(sc.grid, sc.mpc, sc.events)
    traj = simulate(sc.grid, sc.initial_state(), ctrl, 0.2, sc.sim_step, sc.events,
                    sc.clamp_storage_power_at_energy_limit)
    assert len(ctrl.log) == 20 and sum(r.non_optimal_solves for r in ctrl.log) == 0
    return ctrl, traj


def rollout(grid, state, plan, ts, events=()):
    """Nonlinear Euler states under a (K, 2*n_s) plan, the initial one first."""
    n_s = len(grid.storage_buses)
    states = [state]
    for row in plan:
        states.append(euler_step(grid, states[-1],
                                 ControlInput(row[:n_s], row[n_s:]), ts, events))
    return states


class TestLinearize:
    def test_zero_deviation_reproduces_nominal_rollout(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        cfg = base_config(two_bus_grid)
        ltv = linearize_dynamics(two_bus_grid, st, cfg.reference_matrix(), 0.01)
        # Propagating zero deviations must land exactly on the stored nominal.
        dx = np.zeros(ltv.states.shape[1])
        for k in range(cfg.k_steps):
            dx = ltv.A[k] @ dx
            assert np.max(np.abs(dx)) == 0.0

    def test_small_perturbation_second_order_error(self, two_bus_grid):
        rng = np.random.default_rng(5)
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        u_row = np.array([-3.0, 8.0])
        ltv = linearize_dynamics(two_bus_grid, st, u_row[None, :], 0.01)
        eps = 1e-6
        delta = rng.normal(size=2) * eps
        pert = st.copy()
        pert.angles = st.angles + delta
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        exact = stack_state(euler_step(two_bus_grid, pert, u, 0.01))
        dx0 = np.concatenate([delta, np.zeros(2)])
        predicted = ltv.states[1] + ltv.A[0] @ dx0
        assert np.max(np.abs(exact - predicted)) < 1e-10

    def test_inertia_sensitivity_vanishes_at_balance(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        ltv = linearize_dynamics(two_bus_grid, st,
                                 np.array([[-3.0, 8.0]]), 0.01)
        # Column of the inertia input: zero because the storage bus is balanced.
        storage_row = 2 + 1   # angles (2) then omega of bus 1
        assert ltv.B[0][storage_row, 1] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_jacobians_match_central_differences(self, three_bus_grid, seed):
        from essmpc.dynamics import swing_jacobian
        rng = np.random.default_rng(seed)
        grid = three_bus_grid
        n, n_w, n_s = 3, 2, 1
        for _ in range(50):
            state = SystemState(rng.uniform(-0.5, 0.5, n),
                                rng.uniform(-0.3, 0.3, n_w),
                                np.zeros(n_s), 0.0)
            u = ControlInput(rng.uniform(-1.5, 1.5, n_s),
                             rng.uniform(3.0, 11.0, n_s))
            j_x, j_u = swing_jacobian(grid, state, u)
            h = 1e-6
            nx = n + n_w
            fd_x = np.zeros_like(j_x)
            for j in range(nx):
                up, dn = state.copy(), state.copy()
                if j < n:
                    up.angles[j] += h
                    dn.angles[j] -= h
                else:
                    up.omega[j - n] += h
                    dn.omega[j - n] -= h
                fd_x[:, j] = (rhs_vector(grid, up, u)
                              - rhs_vector(grid, dn, u)) / (2 * h)
            fd_u = np.zeros_like(j_u)
            for j in range(2 * n_s):
                up = ControlInput(u.power.copy(), u.inertia.copy())
                dn = ControlInput(u.power.copy(), u.inertia.copy())
                if j < n_s:
                    up.power[j] += h
                    dn.power[j] -= h
                else:
                    up.inertia[j - n_s] += h
                    dn.inertia[j - n_s] -= h
                fd_u[:, j] = (rhs_vector(grid, state, up)
                              - rhs_vector(grid, state, dn)) / (2 * h)
            scale = max(1.0, np.max(np.abs(j_x)))
            assert np.max(np.abs(j_x - fd_x)) / scale < 1e-6
            scale_u = max(1.0, np.max(np.abs(j_u)))
            assert np.max(np.abs(j_u - fd_u)) / scale_u < 1e-6

    def test_stacked_jacobian_is_bitwise_the_per_state_jacobians(self, three_bus_grid):
        from essmpc.dynamics import swing_jacobian
        grid = three_bus_grid
        rng = np.random.default_rng(7)
        k, n, n_w, n_s = 9, 3, 2, 1
        angles = rng.uniform(-0.5, 0.5, (k, n))
        omega = rng.uniform(-0.3, 0.3, (k, n_w))
        power = rng.uniform(-1.5, 1.5, (k, n_s))
        inertia = rng.uniform(3.0, 11.0, (k, n_s))
        times = np.linspace(0.0, 0.4, k)
        # Disturbances switch on inside the stack, so stages see different injections.
        events = (DisturbanceEvent(0, 0.1, 0.3), DisturbanceEvent(2, 0.25, -0.2))
        j_x, j_u = swing_jacobian(grid, SystemState(angles, omega, np.zeros((k, n_s))),
                                  ControlInput(power, inertia), times, events)
        assert j_x.shape == (k, n + n_w, n + n_w) and j_u.shape == (k, n + n_w, 2 * n_s)
        for i in range(k):
            state = SystemState(angles[i], omega[i], np.zeros(n_s), times[i])
            one_x, one_u = swing_jacobian(grid, state, ControlInput(power[i], inertia[i]),
                                          events=events)
            assert one_x.shape == (n + n_w, n + n_w) and one_u.shape == (n + n_w, 2 * n_s)
            assert one_x.tobytes() == j_x[i].tobytes()
            assert one_u.tobytes() == j_u[i].tobytes()

    @pytest.mark.parametrize("forcing, got", [
        (None, "no forcing"),
        (np.zeros((10, 2)), r"forcing of shape \(10, 2\)"),
        (np.zeros((9, 1)), r"forcing of shape \(9, 1\)")])
    def test_foreign_buses_need_forcing_of_shape_k_by_n_f(
            self, two_bus_grid, forcing, got):
        # Area {0} has bus 1 as its one foreign bus, over K = 10 steps.
        grid = two_bus_grid
        cfg = base_config(grid)
        st = equilibrium_state(grid, np.array([-3.0]))
        area = _AreaView(grid, [0], [1])
        with pytest.raises(ValueError, match=got + r".*expected \(K, n_f\) = \(10, 1\)"):
            linearize_dynamics(grid, st, cfg.reference_matrix(), 0.01, (), [area], forcing)


class TestAssemble:
    def test_zero_cost_equilibrium_has_zero_objective(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        cfg = base_config(two_bus_grid)
        ltv = linearize_dynamics(two_bus_grid, st, cfg.reference_matrix(), 0.01)
        hp = assemble_horizon_program(two_bus_grid, ltv, cfg)
        report = QpWorkspace(hp.prog).solve(tol=1e-10)
        assert report.status == "optimal"
        assert abs(report.objective) < 1e-12

    def test_ten_control_stages_from_horizon(self, two_bus_grid):
        cfg = base_config(two_bus_grid)
        assert cfg.k_steps == 10
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        ltv = linearize_dynamics(two_bus_grid, st, cfg.reference_matrix(), 0.01)
        hp = assemble_horizon_program(two_bus_grid, ltv, cfg)
        # 10 stages x (2 controls) leading columns.
        assert hp.off_x == 10 * 2

    def test_signed_effort_term_value(self, two_bus_grid):
        # One stage, power cost 1, base 1: a -3 p.u. set-point contributes
        # -0.03 to the effort sum at ts = 0.01.
        from essmpc.mpc import horizon_objective
        cfg = MpcConfig.create(two_bus_grid, horizon=0.01, step=0.01,
                               reference_power=-3.0, reference_inertia=8.0,
                               power_cost=1.0, inertia_cost=0.0,
                               power_base=1.0)
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        controls = np.array([[-3.0, 8.0]])
        omega = euler_step(two_bus_grid, st, ControlInput(np.array([-3.0]),
                                                          np.array([8.0])), 0.01).omega
        effort, _perf = horizon_objective(two_bus_grid, cfg, controls, omega[None])
        assert effort == pytest.approx(-0.03, abs=1e-12)

    @pytest.mark.parametrize("energy, overshoot", [(-44.72, 0.0), (-44.9, 0.05)])
    def test_energy_rows_bind_in_prediction(self, two_bus_grid, energy, overshoot):
        # Charging at -3 p.u. for the 0.1 s horizon would take the energy
        # 0.3 below its start.  From -44.72 the plan keeps it at the lower
        # allowance.  From -44.9 no plan can within three SQP trust regions
        # (power at most -1.5 p.u.), so the plan overshoots by 0.05, and the
        # step reports that as its slack.
        angles = solve_equilibrium(two_bus_grid, np.array([-3.0]))
        st = SystemState(angles, np.zeros(2), np.array([energy]), 0.0)
        cfg = base_config(two_bus_grid)
        record = first_step(two_bus_grid, st, cfg)
        predicted = rollout(two_bus_grid, st, record.plan, cfg.step)
        energies = np.array([s.energy[0] for s in predicted])
        assert record.slack == pytest.approx(overshoot, abs=1e-12)
        assert np.min(energies) == pytest.approx(-45.0 - overshoot, abs=1e-12)

    @pytest.mark.parametrize("regime", [StorageRegime(False, False),
                                        StorageRegime(False, True)], ids=["cc", "vc"])
    def test_fixed_set_points_are_pinned_once(self, two_bus_grid, regime):
        # Each fixed column is pinned by its equality rows alone.  A box with
        # lb == ub would pin it twice: HiGHS marks both rows, and the cold
        # solve's seed is then dependent and restarts from the equality rows.
        angles = solve_equilibrium(two_bus_grid, np.array([-3.0]))
        st = SystemState(angles, np.array([0.05, -0.02]), np.zeros(1), 0.0)
        events = [DisturbanceEvent(0, 0.0, 0.2)]
        cfg = base_config(two_bus_grid, regime=regime)
        ltv = linearize_dynamics(two_bus_grid, st, cfg.reference_matrix(), 0.01,
                                 events)
        hp = assemble_horizon_program(two_bus_grid, ltv, cfg)
        fixed = [0] if regime.inertia_free else [0, 1]
        cols = [hp.u_col(k, j) for k in range(cfg.k_steps) for j in fixed]
        assert np.all(hp.prog.lb[cols] == -np.inf)
        assert np.all(hp.prog.ub[cols] == np.inf)
        report = QpWorkspace(hp.prog).solve(tol=cfg.qp_tol)
        assert report.status == "optimal" and report.iterations == 0
        u = hp.controls_from(report.x)
        assert np.allclose(u[:, fixed], cfg.reference_matrix()[:, fixed], atol=1e-9)

    def test_pinned_value_outside_box_rejected(self, two_bus_grid):
        with pytest.raises(MpcConfigError, match="reference power"):
            MpcConfig.create(two_bus_grid, horizon=0.1, step=0.01,
                             reference_power=-5.0, reference_inertia=8.0)

    @pytest.mark.parametrize("field, value, message", [
        ("qp_tol", 0.0, "qp_tol"), ("qp_tol", np.nan, "qp_tol"),
        ("power_cost", np.array([np.nan]), "cost coefficients"),
        ("inertia_cost", np.array([np.nan]), "cost coefficients"),
        ("frequency_cost", np.nan, "cost coefficients"),
        ("power_base", np.nan, "power base"), ("inertia_base", np.nan, "inertia base"),
        ("omega_limits", {0: np.nan}, "omega limit")])
    def test_config_built_in_code_meets_the_range_checks(self, two_bus_grid, field,
                                                          value, message):
        # The parser rejects these values; a config replaced in code must be
        # rejected as well, NaN included, before any solve runs with it.
        cfg = replace(base_config(two_bus_grid), **{field: value})
        with pytest.raises(MpcConfigError, match=message):
            MpcController(two_bus_grid, cfg)

    @pytest.mark.parametrize("field, value", [
        ("outer_iterations", 0), ("power_trust_region", np.nan),
        ("inertia_trust_region", np.nan), ("tolerance", np.nan)])
    def test_sqp_setting_out_of_range_is_rejected(self, two_bus_grid, field, value):
        cfg = replace(base_config(two_bus_grid), sqp=SqpSettings(**{field: value}))
        with pytest.raises(MpcConfigError, match=f"^{field}: "):
            MpcController(two_bus_grid, cfg)

    @pytest.mark.parametrize("split", [None, [0, 1]],
                             ids=["centralized", "two_area"])
    def test_pinned_storage_at_its_bound_is_commanded_what_the_plant_clamp_applies(
            self, two_bus_grid, split):
        # Pinned charging at -3 p.u. from 0.01 above the lower energy bound:
        # the plant applies -3 p.u. once, which overshoots the bound by 0.02,
        # and clamps the power to 0 from then on.  Either controller commands
        # just that, and its energy slack holds the overshoot.
        angles = solve_equilibrium(two_bus_grid, np.array([-3.0]))
        st = SystemState(angles, np.zeros(2), np.array([-44.99]), 0.0)
        cfg = base_config(two_bus_grid,
                          regime=StorageRegime(power_free=False, inertia_free=False))
        if split is None:
            ctrl = MpcController(two_bus_grid, cfg)
        else:
            ctrl = DistributedMpcController(two_bus_grid, cfg,
                                            partition_grid(two_bus_grid, split))
        traj = simulate(two_bus_grid, st, ctrl, 5 * cfg.step, cfg.step)
        commanded = [r.applied.power[0] for r in ctrl.log]
        assert commanded == pytest.approx([-3.0, 0.0, 0.0, 0.0, 0.0], abs=1e-9)
        assert commanded == pytest.approx(traj.power[:-1, 0].tolist(), abs=1e-9)
        assert traj.energy[-1, 0] == pytest.approx(-45.02, abs=1e-12)
        assert [r.slack for r in ctrl.log] == pytest.approx([0.02] * 5, abs=1e-9)
        assert sum(r.non_optimal_solves for r in ctrl.log) == 0


class TestProgramMeaning:
    """The assembled rows and costs mean what they claim, whatever the layout.

    A point is built from the program's index maps alone: controls drawn in
    their boxes, copies drawn freely, states by the LTV recursion, and every
    other column (the epigraph slacks) at the least value its rows allow.
    """

    @pytest.mark.parametrize("absolute_effort", [False, True])
    @pytest.mark.parametrize("case", ["two_bus", "twelve_bus_area_1"])
    def test_predicted_trajectory_satisfies_rows_and_prices_stage_cost(
            self, two_bus_scenario, twelve_bus_scenario, foreign_buses, case,
            absolute_effort):
        sc = two_bus_scenario if case == "two_bus" else twelve_bus_scenario
        grid = sc.grid
        rng = np.random.default_rng(3)
        n_s = len(grid.storage_buses)
        cfg = replace(sc.mpc, absolute_effort=absolute_effort,
                      power_cost=rng.uniform(0.1, 1.0, n_s),
                      inertia_cost=rng.uniform(0.1, 1.0, n_s))
        state = sc.initial_state()
        state.omega = state.omega + rng.uniform(-0.05, 0.05, state.omega.size)
        area = _AreaView(grid)
        if case != "two_bus":
            area = _AreaView(grid, [b for b, a in enumerate(sc.areas) if a == 1],
                             foreign_buses(grid, sc.areas)[1], 1)
        k_steps = cfg.k_steps
        forcing = state.angles[area.foreign] \
            + rng.uniform(-0.01, 0.01, (k_steps, area.n_f))
        [ltv] = linearize_dynamics(grid, state, cfg.reference_matrix(), cfg.step,
                                   sc.events, [area], forcing)
        hp = _HorizonStructure(grid, area, cfg).fill(ltv)
        prog = hp.prog

        z = np.full(prog.n, np.nan)
        dx = np.zeros(area.nx)
        for k in range(k_steps):
            cols = [hp.u_col(k, j) for j in range(area.nu)]
            du = rng.uniform(prog.lb[cols], prog.ub[cols])
            df = np.zeros(area.n_f) if k == 0 else \
                z[[hp.copy_col(k, f) for f in range(area.n_f)]]
            z[cols] = du
            z[[hp.copy_col(k + 1, f) for f in range(area.n_f)]] = \
                rng.uniform(-0.01, 0.01, area.n_f)
            dx = ltv.A[k] @ dx + ltv.A_foreign[k] @ df + ltv.B[k] @ du
            z[[hp.x_col(k + 1, i) for i in range(area.nx)]] = dx
        # Each remaining column is an epigraph or soft slack: -1 in each of
        # its rows.  The soft slacks, one per storage, come to 0.
        slacks = np.flatnonzero(np.isnan(z))
        assert np.all(prog.A_in[:, slacks][prog.A_in[:, slacks] != 0] == -1.0)
        known = np.nan_to_num(z)
        for c in slacks:
            rows = prog.A_in[:, c] == -1.0
            z[c] = max(np.max(prog.A_in[rows] @ known - prog.b_in[rows]), 0.0)

        assert np.max(np.abs(prog.A_eq @ z - prog.b_eq)) <= 1e-12
        assert np.all(prog.A_in @ z <= prog.b_in + 1e-12)
        assert np.all(z >= prog.lb) and np.all(z <= prog.ub)
        assert hp.soft_slack(z) == 0.0
        controls, omega = hp.controls_from(z), hp.omega_from(z)
        expected = sum(_stage_cost(grid, cfg, area, controls, omega))
        if not absolute_effort:
            expected -= _stage_cost(grid, cfg, area, ltv.controls, omega)[0]
        assert float(prog.q @ z) == pytest.approx(expected, rel=1e-12, abs=1e-15)

        # Frequency limits add rows, and one soft slack column per limited
        # bus.  With those slacks at 0: at each monitored bus's predicted
        # peak |w| the rows all hold; 0.1% below it one row per bus fails.
        peak = np.max(np.abs(omega), axis=0)
        for scale, holds in ((1.0, True), (0.999, False)):
            limits = dict(zip(area.monitored, scale * peak))
            limited = _HorizonStructure(grid, area, replace(cfg, omega_limits=limits)
                                        ).fill(ltv).prog
            assert limited.n == prog.n + area.n_w
            met = limited.A_in @ np.concatenate([z, np.zeros(area.n_w)]) \
                <= limited.b_in + 1e-12
            assert met.all() == holds
            assert np.sum(~met) == (0 if holds else area.n_w)


class TestSolveHorizon:
    def test_null_case_applies_reference(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        cfg = base_config(two_bus_grid)
        result = first_step(two_bus_grid, st, cfg)
        assert result.applied.power[0] == pytest.approx(-3.0, abs=1e-9)
        assert result.applied.inertia[0] == pytest.approx(8.0, abs=1e-9)
        predicted = rollout(two_bus_grid, st, result.plan, cfg.step)
        worst = max(np.max(np.abs(s.omega)) for s in predicted)
        assert worst < 1e-9

    def test_applied_controls_respect_boxes_exactly(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        events = [DisturbanceEvent(0, 0.0, 1.5)]
        cfg = base_config(two_bus_grid)
        result = first_step(two_bus_grid, st, cfg, events)
        role = two_bus_grid.storage_role(1)
        assert role.power_bounds[0] <= result.applied.power[0] <= role.power_bounds[1]
        assert role.inertia_bounds[0] <= result.applied.inertia[0] \
            <= role.inertia_bounds[1]

    def test_regime_dominance_on_matched_state(self, two_bus_grid):
        # Freeing a variable can only improve the one-shot horizon objective.
        angles = solve_equilibrium(two_bus_grid, np.array([-3.0]))
        st = SystemState(angles, np.array([0.05, -0.02]), np.zeros(1), 0.0)
        events = [DisturbanceEvent(0, 0.0, 0.2)]
        objectives = {}
        for key, regime in {
            "cc": StorageRegime(False, False), "cv": StorageRegime(True, False),
            "vc": StorageRegime(False, True), "vv": StorageRegime(True, True),
        }.items():
            cfg = base_config(two_bus_grid, regime=regime,
                              sqp=SqpSettings(outer_iterations=1))
            result = first_step(two_bus_grid, st, cfg, events)
            objectives[key] = result.qp_report.objective
        assert objectives["cv"] <= objectives["cc"] + 1e-6
        assert objectives["vc"] <= objectives["cc"] + 1e-6
        assert objectives["vv"] <= objectives["cv"] + 1e-6
        assert objectives["vv"] <= objectives["vc"] + 1e-6


class TestTwelveBusHorizon:
    # A tolerance below the regularization still seeds the cold solve from
    # the HiGHS vertex, so it takes a few dual steps, not a walk of 166.
    @pytest.mark.parametrize("qp_tol", [1e-8, 1e-9])
    def test_step_zero_solve_is_certified(self, twelve_bus_scenario, qp_tol):
        sc = twelve_bus_scenario
        cfg = replace(sc.mpc, qp_tol=qp_tol)
        result = first_step(sc.grid, sc.initial_state(), cfg, sc.events)
        rep = result.qp_report
        assert rep.status == "optimal" and rep.iterations <= 10
        hp = assemble_horizon_program(
            sc.grid, linearize_dynamics(sc.grid, sc.initial_state(),
                                        cfg.reference_matrix(), cfg.step,
                                        sc.events), cfg)
        assert max(kkt_residual(hp.prog, rep.x, rep.duals)) <= qp_tol
        # The optimum pushes every storage to the edge of its inertia trust
        # region below the 7 s reference.
        assert np.allclose(result.applied.inertia, 5.0, rtol=0.0, atol=1e-6)
        assert result.non_optimal_solves == 0

    def test_first_four_steps_are_certified(self, twelve_bus_scenario):
        # The bulk exact step cycles on step 3 from both its warm and its
        # HiGHS seed; the dual active set has to certify it.
        sc = twelve_bus_scenario
        ctrl = MpcController(sc.grid, sc.mpc, sc.events)
        simulate(sc.grid, sc.initial_state(), ctrl, 4 * sc.mpc.step, sc.mpc.step,
                 sc.events, sc.clamp_storage_power_at_energy_limit)
        assert [r.non_optimal_solves for r in ctrl.log] == [0, 0, 0, 0]


def _lp_solution(prog):
    """Independent HiGHS optimum of the program's linear part."""
    res = linprog(prog.q, A_ub=prog.A_in, b_ub=prog.b_in, A_eq=prog.A_eq,
                  b_eq=prog.b_eq, bounds=np.column_stack([prog.lb, prog.ub]),
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return res.fun, res.x


class TestLpSeededSolve:
    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(twelve=st.booleans(),
           regime=st.sampled_from([StorageRegime(p, m) for p in (False, True)
                                   for m in (False, True)]),
           omega_amp=st.floats(0.0, 0.05),
           disturbance_scale=st.floats(0.0, 3.0),
           seed=st.integers(0, 2 ** 16))
    def test_matches_highs_on_perturbed_horizon_programs(
            self, two_bus_scenario, twelve_bus_scenario, twelve, regime,
            omega_amp, disturbance_scale, seed):
        sc = twelve_bus_scenario if twelve else two_bus_scenario
        cfg = replace(sc.mpc, regime=regime)
        state = sc.initial_state()
        rng = np.random.default_rng(seed)
        state.omega = state.omega + omega_amp * rng.uniform(-1.0, 1.0,
                                                            state.omega.size)
        events = [DisturbanceEvent(e.bus, e.time, e.delta_p * disturbance_scale)
                  for e in sc.events]
        ltv = linearize_dynamics(sc.grid, state, cfg.reference_matrix(),
                                 cfg.step, events)
        prog = assemble_horizon_program(sc.grid, ltv, cfg).prog
        rep = QpWorkspace(prog).solve(tol=cfg.qp_tol)
        assert rep.status == "optimal"
        assert max(kkt_residual(prog, rep.x, rep.duals)) <= cfg.qp_tol
        # Optimality of x for q'x + eps/2 |x|^2 against the feasible LP
        # optimum x_lp bounds the linear objective from both sides.
        lp_value, x_lp = _lp_solution(prog)
        gap = float(prog.q @ rep.x) - lp_value
        assert -1e-9 <= gap <= 0.5 * _REGULARIZATION * float(
            x_lp @ x_lp - rep.x @ rep.x) + 1e-9


class TestClosedLoop:
    def test_zero_disturbance_matches_constant_policy(self, two_bus_grid):
        from essmpc.dynamics import constant_policy
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        cfg = base_config(two_bus_grid)
        traj_mpc = simulate(two_bus_grid, st, MpcController(two_bus_grid, cfg), 1.0,
                            cfg.step)
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        traj_ref = simulate(two_bus_grid, st, constant_policy(u), 1.0, 0.01)
        assert np.max(np.abs(traj_mpc.angles - traj_ref.angles)) < 1e-9
        assert np.max(np.abs(traj_mpc.omega - traj_ref.omega)) < 1e-9

    def test_one_step_optimum_is_disturbance_balance(self, two_bus_grid):
        # Oracle: the only zero-frequency stationary point with the +0.2 step
        # active has the storage absorbing 3.2 p.u.  Posed at that operating
        # point, the one-step controller must hold it.
        from essmpc.grid import GridModel
        events = [DisturbanceEvent(0, 0.0, 0.2)]
        # Equilibrium angles under the shifted injection (3.2 at the generator).
        shifted = GridModel(two_bus_grid.roles, two_bus_grid.lines,
                            [3.2, 0.0], reference_bus=1)
        angles = solve_equilibrium(shifted, np.array([-3.2]))
        st = SystemState(angles, np.zeros(2), np.zeros(1), 0.0)
        cfg = MpcConfig.create(two_bus_grid, horizon=0.01, step=0.01,
                               reference_power=-3.0, reference_inertia=8.0,
                               regime=StorageRegime(power_free=True,
                                                    inertia_free=False))
        result = first_step(two_bus_grid, st, cfg, events)
        assert result.applied.power[0] == pytest.approx(-3.2, abs=1e-3)

    def test_free_power_moves_toward_disturbance_balance(self, two_bus_grid):
        # Closed loop from the old equilibrium: the applied power shifts by
        # about the disturbance size (charging 0.2 p.u. harder), hunting
        # around the balance point under the short-horizon objective.
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        events = [DisturbanceEvent(0, 0.0, 0.2)]
        cfg = base_config(two_bus_grid,
                          regime=StorageRegime(power_free=True, inertia_free=False),
                          sqp=SqpSettings(outer_iterations=2, tolerance=1e-5))
        traj = simulate(two_bus_grid, st, MpcController(two_bus_grid, cfg, events), 6.0,
                        cfg.step, events)
        tail = traj.power[-200:, 0]
        assert np.mean(tail) == pytest.approx(-3.2, abs=0.05)
        assert np.max(np.abs(traj.omega[-1])) < 2e-2

    @pytest.mark.parametrize("option", [{"absolute_effort": True},
                                        {"omega_limits": {0: 0.016}}],
                             ids=["absolute_effort", "omega_limits"])
    def test_two_bus_options_close_the_loop(self, two_bus_scenario, option):
        # Each option adds inequality rows to every program: the effort
        # epigraphs, or |w| <= 0.016 at bus 0 over the horizon, just above
        # the 0.015 peak the disturbance drives (a tighter limit binds, and
        # its soft slack relaxes it: `TestSoftLimits`).  Every solve of 30
        # steps is certified, and the limit holds on the simulated trajectory.
        from essmpc.dynamics import monitor_constraints
        sc = two_bus_scenario
        cfg = replace(sc.mpc, **option)
        plain, ctrl = (MpcController(sc.grid, c, sc.events) for c in (sc.mpc, cfg))
        for c in (plain, ctrl):
            traj = simulate(sc.grid, sc.initial_state(), c, 30 * cfg.step, cfg.step,
                            sc.events, sc.clamp_storage_power_at_energy_limit)
        log = ctrl.log
        assert plain.log[0].qp_report.y_stacked.size < log[0].qp_report.y_stacked.size
        assert len(log) == 30 and sum(r.non_optimal_solves for r in log) == 0
        violations = monitor_constraints(sc.grid, traj, cfg.omega_limits)
        assert not [v for v in violations if v.kind == "frequency"]

    @pytest.mark.parametrize("absolute, inertia", [("false", 4.0), ("true", 8.0)])
    def test_absolute_effort_flag_keeps_inertia_at_reference(self, absolute, inertia):
        # A signed effort cost pays for lowering the inertia, so the first
        # step moves it down both SQP trust regions (2 x 2 s) from its 8 s
        # reference; an absolute one charges any move, and it stays.
        _, traj = close_two_bus_loop(
            ("power_cost: 0.0", "power_cost: 0.01"),
            ("inertia_cost: 0.0", "inertia_cost: 0.01"),
            ("absolute_effort: false", f"absolute_effort: {absolute}"))
        assert traj.inertia[0, 0] == pytest.approx(inertia, abs=1e-9)

    def test_slack_omega_limit_leaves_the_run_unchanged(self):
        # The run peaks at |w_0| = 0.0117, so limit rows at 0.02 are posed
        # but never bind.
        plain_ctrl, plain = close_two_bus_loop()
        ctrl, traj = close_two_bus_loop(
            ("frequency_cost: 1.0", "frequency_cost: 1.0\n  omega_limits: {0: 0.02}"))
        assert np.max(np.abs(plain.omega[:, 0])) == pytest.approx(0.0117, abs=1e-4)
        assert plain_ctrl.log[0].qp_report.y_stacked.size \
            < ctrl.log[0].qp_report.y_stacked.size
        for name in ("omega", "power", "inertia"):
            assert np.array_equal(getattr(plain, name), getattr(traj, name))


FOUND_LIMITS = [0.005, 0.01, 0.0105, 0.011, 0.0113, 0.0116, 0.0118, 0.012]


def limited_two_bus_run(monkeypatch, tmp_path, command, limit):
    """`command` on two_bus for 0.3 s with |w_0| <= limit, through the CLI:
    (exit code, non-optimal solves from the objective file, controller)."""
    from essmpc import cli
    text = bundled_scenario_path("two_bus").read_text().replace(
        "frequency_cost: 1.0", f"frequency_cost: 1.0\n  omega_limits: {{0: {limit}}}")
    path = tmp_path / "limited.scn"
    path.write_text(text)
    name = "MpcController" if command == "mpc" else "DistributedMpcController"
    built = []

    class Kept(getattr(cli, name)):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cli, name, Kept)
    code = cli.main([command, str(path), f"--out={tmp_path}", "--ttotal=0.3"])
    lines = (tmp_path / f"{command}_objective.txt").read_text().splitlines()
    [count] = [int(ln.split()[1]) for ln in lines if ln.startswith("non_optimal_solves")]
    return code, count, built[0]


def hard_program(hp):
    """`hp` with its soft slacks held at 0: the program of hard limits."""
    ub = hp.prog.ub.copy()
    ub[hp.structure.off_soft:] = 0.0
    return HorizonProgram(replace(hp.prog, ub=ub), hp.ltv, hp.structure)


class TestSoftLimits:
    """Energy allowances and frequency limits are soft: every program is
    feasible.  A program whose energy rows can hold is solved with its soft
    slacks at 0, on the optimal face of the hard program; a frequency limit
    the hard rows can hold is not yet held (`_PENALTY`)."""

    # Every value below the run's 0.015 peak aborted the run while the
    # limit rows were hard; 0.016 never binds.
    @pytest.mark.parametrize("limit", FOUND_LIMITS + [0.016])
    @pytest.mark.parametrize("command", ["mpc", "dmpc"])
    def test_every_limit_closes_the_loop_and_reports_its_slack(
            self, monkeypatch, tmp_path, command, limit):
        code, non_optimal, ctrl = limited_two_bus_run(monkeypatch, tmp_path, command,
                                                      limit)
        assert code == 0 and non_optimal == 0
        assert len(ctrl.log) == 30
        largest = max(r.slack for r in ctrl.log)
        assert (largest > ctrl.cfg.qp_tol) == (limit in FOUND_LIMITS)

    @pytest.mark.parametrize("case", [
        "two_bus_energy", "twelve_bus",
        pytest.param("two_bus_limit", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="the limit rows need a multiplier of 0.72, above the slack's 0.1"))])
    def test_soft_solve_lies_on_the_hard_optimal_face(self, two_bus_grid,
                                                      twelve_bus_scenario, case):
        # The two-bus program starts where the energy rows bind and can
        # hold (`test_energy_rows_bind_in_prediction`); the twelve-bus one
        # is its bundled step 0.  The limited one is the bundled two-bus
        # step 0 with |w_0| limited to 0.999 times its predicted peak, which
        # the hard rows hold (the oracle solves the hard program).
        from perfbench import oracle
        if case == "twelve_bus":
            hp = oracle.step0_program(twelve_bus_scenario)
        elif case == "two_bus_limit":
            scenario = parse_scenario(bundled_scenario_path("two_bus"))
            free = oracle.step0_program(scenario)
            peak = np.max(np.abs(free.omega_from(QpWorkspace(free.prog).solve().x)[:, 0]))
            cfg = replace(scenario.mpc, omega_limits={0: 0.999 * peak})
            hp = assemble_horizon_program(scenario.grid, free.ltv, cfg)
        else:
            angles = solve_equilibrium(two_bus_grid, np.array([-3.0]))
            st = SystemState(angles, np.zeros(2), np.array([-44.72]), 0.0)
            cfg = base_config(two_bus_grid)
            hp = assemble_horizon_program(two_bus_grid, linearize_dynamics(
                two_bus_grid, st, cfg.reference_matrix(), cfg.step), cfg)
        report = QpWorkspace(hp.prog).solve(tol=hp.cfg.qp_tol)
        assert report.status == "optimal"
        assert np.all(report.x[hp.structure.off_soft:] == 0.0)
        _best, low, high = oracle.optimal_first_inputs(hard_program(hp))
        assert oracle.input_gap(hp.controls_from(report.x)[0], low, high) <= 1e-9


class TestKeptStructure:
    """Controllers keep one program structure and workspace per area, and
    keep them only as long as they live themselves."""

    def test_one_structure_build_per_area(self, monkeypatch, tmp_path):
        from collections import Counter

        from essmpc import mpc
        from essmpc.cli import main
        from essmpc.scenario import bundled_scenario_path
        builds = Counter()
        build = mpc._HorizonStructure.__init__

        def spy(self, grid, area, cfg, penalty=None):
            builds[area.index] += 1
            build(self, grid, area, cfg, penalty)

        fills = Counter()
        fill = mpc._HorizonStructure.fill

        def fill_spy(self, ltv):
            fills[self.area.index] += 1
            return fill(self, ltv)

        monkeypatch.setattr(mpc._HorizonStructure, "__init__", spy)
        monkeypatch.setattr(mpc._HorizonStructure, "fill", fill_spy)
        assert main(["dmpc", str(bundled_scenario_path("twelve_bus")),
                     f"--out={tmp_path}", "--ttotal=0.2"]) == 0
        assert builds == {0: 1, 1: 1, 2: 1}
        # At least one fill per area and control step, of the one structure.
        assert len(fills) == 3 and min(fills.values()) >= 10

    @pytest.mark.parametrize("split", [None, [0, 1]], ids=["centralized", "two_area"])
    def test_one_structure_and_workspace_while_a_pinned_storage_saturates(
            self, monkeypatch, two_bus_grid, split):
        # Pinned charging from 0.2 above the lower energy bound exhausts the
        # allowance at step 7, after which the power is clamped to 0.  The
        # area keeps the structure and the workspace it started with, and
        # only each workspace's first solve starts cold.
        from essmpc import mpc
        builds = []
        build = mpc._HorizonStructure.__init__
        monkeypatch.setattr(mpc._HorizonStructure, "__init__", lambda self, *args: (
            builds.append(self) or build(self, *args)))
        solves = []
        solve = QpWorkspace.solve
        monkeypatch.setattr(QpWorkspace, "solve", lambda self, tol=1e-8, y0=None: (
            solves.append((self, y0 is None)) or solve(self, tol=tol, y0=y0)))
        angles = solve_equilibrium(two_bus_grid, np.array([-3.0]))
        st = SystemState(angles, np.zeros(2), np.array([-44.8]), 0.0)
        cfg = base_config(two_bus_grid, regime=StorageRegime(power_free=False))
        ctrl = MpcController(two_bus_grid, cfg) if split is None else \
            DistributedMpcController(two_bus_grid, cfg, partition_grid(two_bus_grid, split))
        traj = simulate(two_bus_grid, st, ctrl, 12 * cfg.step, cfg.step)
        assert traj.power[:-1, 0].tolist() == pytest.approx(
            [-3.0] * 7 + [0.0] * 5, abs=1e-9)
        assert sum(r.non_optimal_solves for r in ctrl.log) == 0
        assert len(builds) == len(ctrl.areas)
        cold = {}
        for workspace, starts_cold in solves:   # the spy keeps each workspace alive
            cold.setdefault(id(workspace), []).append(starts_cold)
        assert len(cold) == len(ctrl.areas)
        assert all(c[0] and not any(c[1:]) for c in cold.values())

    def test_controller_dies_with_its_run(self, monkeypatch, tmp_path):
        import weakref

        from essmpc import cli
        from essmpc.scenario import bundled_scenario_path
        refs = []

        class Watched(MpcController):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(cli, "MpcController", Watched)
        assert cli.main(["mpc", str(bundled_scenario_path("two_bus")), f"--out={tmp_path}",
                         "--ttotal=0.05"]) == 0
        # Five steps ran: a header and six states in the trajectory.
        assert len((tmp_path / "mpc_trajectory.csv").read_text().splitlines()) == 7
        assert len(refs) == 1
        assert refs[0]() is None

    def test_repeated_commands_hold_no_memory(self, tmp_path):
        import tracemalloc

        from essmpc.cli import main
        from essmpc.scenario import bundled_scenario_path
        argv = ["mpc", str(bundled_scenario_path("twelve_bus")), f"--out={tmp_path}",
                "--ttotal=0.02"]
        tracemalloc.start()
        try:
            for run in range(30):
                assert main(argv) == 0
                if run == 4:
                    settled = tracemalloc.get_traced_memory()[0]
            grown = tracemalloc.get_traced_memory()[0] - settled
        finally:
            tracemalloc.stop()
        assert grown < 2**20
