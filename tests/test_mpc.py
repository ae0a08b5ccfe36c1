"""Centralized MPC: linearization, horizon assembly, solving, closed loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from essmpc.dynamics import ControlInput, SystemState, euler_step, simulate, swing_rhs
from essmpc.grid import DisturbanceEvent, solve_equilibrium
from essmpc.dmpc import DistributedMpcController, partition_grid
from essmpc.mpc import (_REGULARIZATION, MpcConfig, MpcConfigError, MpcController,
                        SqpSettings, StorageRegime, _AreaView, _assemble_program,
                        _stage_cost, assemble_horizon_program, linearize_dynamics,
                        receding_horizon_run)
from essmpc.qp import QpWorkspace, kkt_residual


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
        states = [st, euler_step(two_bus_grid, st,
                                 ControlInput(np.array([-3.0]),
                                              np.array([8.0])), 0.01)]
        effort, _perf = horizon_objective(two_bus_grid, cfg, states, controls)
        assert effort == pytest.approx(-0.03, abs=1e-12)

    def test_energy_rows_bind_in_prediction(self, two_bus_grid):
        # Start close to the lower allowance: predicted energies must respect it.
        angles = solve_equilibrium(two_bus_grid, np.array([-3.0]))
        st = SystemState(angles, np.zeros(2), np.array([-44.9]), 0.0)
        cfg = base_config(two_bus_grid)
        record = first_step(two_bus_grid, st, cfg)
        predicted = rollout(two_bus_grid, st, record.plan, cfg.step)
        energies = np.array([s.energy[0] for s in predicted])
        assert np.all(energies >= -45.0 - 1e-6)

    @pytest.mark.parametrize("regime", [StorageRegime(False, False),
                                        StorageRegime(False, True)], ids=["cc", "vc"])
    def test_fixed_set_points_are_pinned_once(self, two_bus_grid, regime):
        # Each fixed column is pinned by its equality rows alone.  A box with
        # lb == ub would pin it twice: HiGHS marks both rows, and the cold
        # solve's seed is then dependent and restarts from the equality rows.
        angles = solve_equilibrium(two_bus_grid, np.array([-3.0]))
        st = SystemState(angles, np.array([0.05, -0.02]), np.zeros(1), 0.0)
        events = [DisturbanceEvent(0, 0.0, 0.2)]
        cfg = base_config(two_bus_grid, regimes=(regime,))
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

    @pytest.mark.parametrize("split", [None, [0, 1]],
                             ids=["centralized", "two_area"])
    def test_saturated_pin_overridden_to_feasible_extreme(self, two_bus_grid,
                                                          split):
        # Pinned charging at the lower energy bound cannot continue; the
        # assembler reports saturation and moves the pin to zero.  Either
        # controller reports it in grid storage indices.
        angles = solve_equilibrium(two_bus_grid, np.array([-3.0]))
        st = SystemState(angles, np.zeros(2), np.array([-45.0]), 0.0)
        cfg = base_config(two_bus_grid,
                          regimes=(StorageRegime(power_free=False,
                                                 inertia_free=False),))
        if split is None:
            ctrl = MpcController(two_bus_grid, cfg)
        else:
            ctrl = DistributedMpcController(two_bus_grid, cfg,
                                            partition_grid(two_bus_grid, split))
        applied = ctrl(0, st)
        assert ctrl.log[-1].saturated == (0,)
        assert applied.power[0] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("p_bound", [4.0, np.inf])
    def test_widened_trust_region_keeps_the_structure_unless_a_box_side_opens(
            self, p_bound):
        # Charging 0.01 above the lower energy bound, the trust region around
        # -3 p.u. cannot keep the energy rows feasible, so it is widened to
        # the power bounds.  With finite bounds the box rows stay and the
        # structure is filled again; an infinite bound drops them.
        from essmpc.grid import GeneratorBus, GridModel, Line, StorageBus
        grid = GridModel([GeneratorBus(3.0, 1.0),
                          StorageBus(1.0, (1.0, 15.0), (-p_bound, p_bound),
                                     (-45.0, 10.0), 0.0)],
                         [Line(0, 1, 50.0)], [3.0, 0.0], reference_bus=1)
        cfg = base_config(grid)
        angles = solve_equilibrium(grid, np.array([-3.0]))
        area = _AreaView(grid)
        hps = []
        for energy in (-44.99, 0.0):
            st = SystemState(angles, np.zeros(2), np.array([energy]), 0.0)
            ltv = linearize_dynamics(grid, st, cfg.reference_matrix(), cfg.step)
            hps.append(_assemble_program(grid, area, ltv, cfg,
                                         hps[-1].structure if hps else None))
        widened, kept = hps
        assert widened.prog.lb[0] == -p_bound + 3.0 and kept.prog.lb[0] == -0.5
        assert (kept.structure is widened.structure) == np.isfinite(p_bound)
        assert kept.saturated == widened.saturated == ()


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
            partition = partition_grid(grid, sc.areas)
            area = _AreaView(grid, partition.owned[1],
                             foreign_buses(grid, sc.areas)[1], 1)
        k_steps = cfg.k_steps
        forcing = state.angles[area.foreign] \
            + rng.uniform(-0.01, 0.01, (k_steps, area.n_f))
        [ltv] = linearize_dynamics(grid, state, cfg.reference_matrix(), cfg.step,
                                   sc.events, [area], forcing)
        hp = _assemble_program(grid, area, ltv, cfg)
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
        # Each remaining column is an epigraph slack: -1 in each of its rows.
        slacks = np.flatnonzero(np.isnan(z))
        assert np.all(prog.A_in[:, slacks][prog.A_in[:, slacks] != 0] == -1.0)
        known = np.nan_to_num(z)
        for c in slacks:
            rows = prog.A_in[:, c] == -1.0
            z[c] = max(np.max(prog.A_in[rows] @ known - prog.b_in[rows]), 0.0)

        assert np.max(np.abs(prog.A_eq @ z - prog.b_eq)) <= 1e-12
        assert np.all(prog.A_in @ z <= prog.b_in + 1e-12)
        assert np.all(z >= prog.lb) and np.all(z <= prog.ub)
        controls, omega = hp.controls_from(z), hp.omega_from(z)
        expected = sum(_stage_cost(grid, cfg, area, controls, omega))
        if not absolute_effort:
            expected -= _stage_cost(grid, cfg, area, ltv.controls, omega)[0]
        assert float(prog.q @ z) == pytest.approx(expected, rel=1e-12, abs=1e-15)

        # Frequency limits add rows only.  At each monitored bus's predicted
        # peak |w| they all hold; 0.1% below it one row per bus fails.
        peak = np.max(np.abs(omega), axis=0)
        for scale, holds in ((1.0, True), (0.999, False)):
            limits = dict(zip(area.monitored, scale * peak))
            limited = _assemble_program(grid, area, ltv,
                                        replace(cfg, omega_limits=limits)).prog
            assert limited.n == prog.n
            met = limited.A_in @ z <= limited.b_in + 1e-12
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
            cfg = base_config(two_bus_grid, regimes=(regime,),
                              sqp=SqpSettings(outer_iterations=1))
            result = first_step(two_bus_grid, st, cfg, events)
            objectives[key] = result.qp_report.objective
        assert objectives["cv"] <= objectives["cc"] + 1e-6
        assert objectives["vc"] <= objectives["cc"] + 1e-6
        assert objectives["vv"] <= objectives["cv"] + 1e-6
        assert objectives["vv"] <= objectives["vc"] + 1e-6


class TestTwelveBusHorizon:
    def test_step_zero_solve_is_certified(self, twelve_bus_scenario):
        sc = twelve_bus_scenario
        result = first_step(sc.grid, sc.initial_state(), sc.mpc, sc.events)
        rep = result.qp_report
        assert rep.status == "optimal"
        hp = assemble_horizon_program(
            sc.grid, linearize_dynamics(sc.grid, sc.initial_state(),
                                        sc.mpc.reference_matrix(), sc.mpc.step,
                                        sc.events), sc.mpc)
        assert max(kkt_residual(hp.prog, rep.x, rep.duals)) <= sc.mpc.qp_tol
        # The optimum pushes every storage to the edge of its inertia trust
        # region below the 7 s reference.
        assert np.allclose(result.applied.inertia, 5.0, rtol=0.0, atol=1e-6)
        assert result.non_optimal_solves == 0

    def test_first_four_steps_are_certified(self, twelve_bus_scenario):
        # The bulk exact step cycles on step 3 from both its warm and its
        # HiGHS seed; the dual active set has to certify it.
        sc = twelve_bus_scenario
        _, log = receding_horizon_run(sc.grid, sc.initial_state(), sc.mpc,
                                      4 * sc.mpc.step, sc.events,
                                      sc.clamp_storage_power_at_energy_limit)
        assert [r.non_optimal_solves for r in log] == [0, 0, 0, 0]


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
        cfg = replace(sc.mpc, regimes=tuple(regime for _ in sc.mpc.regimes))
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
        traj_mpc, _ = receding_horizon_run(two_bus_grid, st, cfg, 1.0)
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        traj_ref = simulate(two_bus_grid, st, constant_policy(u), 1.0, 0.01)
        for a, b in zip(traj_mpc.states, traj_ref.states):
            assert np.max(np.abs(a.angles - b.angles)) < 1e-9
            assert np.max(np.abs(a.omega - b.omega)) < 1e-9

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
                               regimes=(StorageRegime(power_free=True,
                                                      inertia_free=False),))
        result = first_step(two_bus_grid, st, cfg, events)
        assert result.applied.power[0] == pytest.approx(-3.2, abs=1e-3)

    def test_free_power_moves_toward_disturbance_balance(self, two_bus_grid):
        # Closed loop from the old equilibrium: the applied power shifts by
        # about the disturbance size (charging 0.2 p.u. harder), hunting
        # around the balance point under the short-horizon objective.
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        events = [DisturbanceEvent(0, 0.0, 0.2)]
        cfg = base_config(two_bus_grid,
                          regimes=(StorageRegime(power_free=True,
                                                 inertia_free=False),),
                          sqp=SqpSettings(outer_iterations=2, tolerance=1e-5))
        traj, _ = receding_horizon_run(two_bus_grid, st, cfg, 6.0, events)
        tail = traj.power_matrix()[-200:, 0]
        assert np.mean(tail) == pytest.approx(-3.2, abs=0.05)
        assert np.max(np.abs(traj.states[-1].omega)) < 2e-2

    @pytest.mark.parametrize("option", [{"absolute_effort": True},
                                        {"omega_limits": {0: 0.016}}],
                             ids=["absolute_effort", "omega_limits"])
    def test_two_bus_options_close_the_loop(self, two_bus_scenario, option):
        # Each option adds inequality rows to every program: the effort
        # epigraphs, or |w| <= 0.016 at bus 0 over the horizon, just above
        # the 0.015 peak the disturbance drives (a tighter limit has no
        # feasible plan).  Every solve of 30 steps is certified, and the
        # limit holds on the simulated trajectory.
        from essmpc.dynamics import monitor_constraints
        sc = two_bus_scenario
        cfg = replace(sc.mpc, **option)
        runs = [receding_horizon_run(sc.grid, sc.initial_state(), c, 30 * c.step, sc.events,
                                     sc.clamp_storage_power_at_energy_limit)
                for c in (sc.mpc, cfg)]
        (_, plain), (traj, log) = runs
        assert plain[0].qp_report.y_stacked.size < log[0].qp_report.y_stacked.size
        assert len(log) == 30 and sum(r.non_optimal_solves for r in log) == 0
        report = monitor_constraints(sc.grid, traj, cfg.omega_limits)
        assert not [v for v in report.violations if v.kind == "frequency"]


class TestKeptStructure:
    """Controllers keep one program structure and workspace per area, and
    keep them only as long as they live themselves."""

    def test_one_structure_build_per_area_and_key(self, monkeypatch, tmp_path):
        from collections import Counter

        from essmpc import mpc
        from essmpc.cli import main
        from essmpc.scenario import bundled_scenario_path
        builds = Counter()
        build = mpc._HorizonStructure.__init__

        def spy(self, grid, area, cfg, key, penalty=None):
            builds[area.index, key] += 1
            build(self, grid, area, cfg, key, penalty)

        fills = Counter()
        fill = mpc._HorizonStructure.fill

        def fill_spy(self, ltv, widened):
            fills[self.area.index] += 1
            return fill(self, ltv, widened)

        monkeypatch.setattr(mpc._HorizonStructure, "__init__", spy)
        monkeypatch.setattr(mpc._HorizonStructure, "fill", fill_spy)
        assert main(["dmpc", str(bundled_scenario_path("twelve_bus")),
                     f"--out={tmp_path}", "--ttotal=0.2"]) == 0
        assert sorted(area for area, _key in builds) == [0, 1, 2]
        assert set(builds.values()) == {1}
        # At least one fill per area and control step, of the one structure.
        assert len(fills) == 3 and min(fills.values()) >= 10

    def test_controller_dies_with_its_run(self, monkeypatch, two_bus_grid):
        import weakref

        from essmpc import mpc
        refs = []

        class Watched(MpcController):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(mpc, "MpcController", Watched)
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        traj, log = mpc.receding_horizon_run(two_bus_grid, st, base_config(two_bus_grid),
                                             0.05, [DisturbanceEvent(0, 0.0, 0.2)])
        assert len(refs) == 1 and len(log) == 5
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
