"""Distributed consensus MPC: partitioning, the exchange record, ADMM, equivalence."""

from dataclasses import replace

import numpy as np
import pytest

from essmpc.dmpc import (AdmmSettings, AreaProgram, ConsensusState,
                         DistributedMpcController, PartitionError, _Hooks,
                         area_subproblem_solve, partition_grid, pdc_admm_step)
from essmpc.dynamics import ControlInput, SystemState, euler_step, simulate, swing_jacobian
from essmpc.grid import solve_equilibrium
from essmpc.mpc import MpcConfig, MpcController, SqpSettings, linearize_dynamics
from essmpc.qp import ConvexProgram, QpWorkspace


def equilibrium_state(grid, storage_power):
    angles = solve_equilibrium(grid, storage_power)
    energy = np.array([grid.storage_role(b).initial_energy
                       for b in grid.storage_buses])
    return SystemState(angles, np.zeros(len(grid.inertia_buses)), energy, 0.0)


def owned(grid, cfg, assignment):
    """Each area's buses, as the controller of `assignment` groups them."""
    controller = DistributedMpcController(grid, cfg, partition_grid(grid, assignment))
    return [tuple(area.buses) for area in controller.areas]


class TestPartition:
    def test_twelve_bus_three_areas(self, twelve_bus_scenario):
        sc = twelve_bus_scenario
        assert owned(sc.grid, sc.mpc, sc.areas) == [(0, 1, 2, 3), (4, 5, 6, 7),
                                                    (8, 9, 10, 11)]

    def test_single_area_owns_every_bus(self, two_bus_scenario):
        sc = two_bus_scenario
        assert owned(sc.grid, sc.mpc, [0, 0]) == [(0, 1)]

    def test_two_bus_split(self, two_bus_scenario):
        sc = two_bus_scenario
        assert owned(sc.grid, sc.mpc, [0, 1]) == [(0,), (1,)]

    def test_missing_bus_rejected(self, two_bus_grid):
        with pytest.raises(PartitionError, match="covers"):
            partition_grid(two_bus_grid, [0])

    def test_empty_area_rejected(self, two_bus_grid):
        with pytest.raises(PartitionError, match="contiguous"):
            partition_grid(two_bus_grid, [0, 2])


def started_controller(sc, assignment, state=None):
    """A distributed controller of `sc` with its exchange record started
    from `state` (default: the scenario's initial state)."""
    controller = DistributedMpcController(sc.grid, sc.mpc,
                                          partition_grid(sc.grid, assignment), sc.admm)
    controller._start(sc.initial_state() if state is None else state)
    return controller


class TestExchangeRecord:
    """The split grid's ghosts are the reference's foreign buses, and the
    record holds one entry per step and ghost."""

    @pytest.mark.parametrize("case, size", [("two_bus_one_area", 0),
                                            ("two_bus_split", 20), ("twelve_bus", 36)])
    def test_ghosts_are_the_foreign_buses_and_size_the_record(
            self, two_bus_scenario, twelve_bus_scenario, foreign_buses, case, size):
        sc = twelve_bus_scenario if case == "twelve_bus" else two_bus_scenario
        assignment = {"two_bus_one_area": [0, 0], "two_bus_split": [0, 1],
                      "twelve_bus": sc.areas}[case]
        controller = started_controller(sc, assignment)
        ghosts = controller._ghosts
        for a, foreign in enumerate(foreign_buses(sc.grid, assignment)):
            assert tuple(ghosts[ghosts[:, 0] == a, 1]) == foreign
        record = controller._consensus
        assert sc.mpc.k_steps * len(ghosts) == size
        assert record.n_ghosts == len(ghosts)
        assert record.own_values.shape == record.copy_values.shape \
            == record.duals.shape == (size,)


def scalar_toy(a1, t1, a2, t2, rho, tau):
    """One shared scalar: area 0 owns it, area 1 works on its copy.

    Area 0 minimizes a1/2 (x - t1)^2 over its own variable; area 1 minimizes
    a2/2 (w - t2)^2 over its duplicate; the record's single entry ties w to
    x.  Saddle point: x = (a1 t1 + a2 t2) / (a1 + a2).  Each program's
    curvature is the coupled one, a + rho + tau, as a coupled area's
    program structure holds it.
    """
    prog0 = ConvexProgram(q=np.array([-a1 * t1]), curvature=np.array([a1 + rho + tau]))
    prog1 = ConvexProgram(q=np.array([-a2 * t2]), curvature=np.array([a2 + rho + tau]))
    hook = _Hooks(np.array([0]), np.array([0]), np.array([0.0]))
    programs = [AreaProgram(0, prog0, own_hooks=hook),
                AreaProgram(1, prog1, copy_hooks=hook)]
    consensus = ConsensusState(1, np.zeros(1), np.zeros(1), np.zeros(1), rho, tau)
    return programs, consensus


def kept(programs):
    """Per area: a workspace and a warm record, kept across rounds as a controller does."""
    return {p.area: QpWorkspace(p.prog) for p in programs}, {p.area: {} for p in programs}


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
        workspaces, warm = kept(programs)
        for _ in range(400):
            solutions, resid = pdc_admm_step(programs, consensus, x_prev, workspaces, warm)
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
        workspaces, warm = kept(programs)
        for (v_ref, w_ref, lam_ref, resid_ref) in reference:
            solutions, resid = pdc_admm_step(programs, consensus, x_prev, workspaces, warm,
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
        _solutions, resid = pdc_admm_step(programs, consensus, x_prev, *kept(programs))
        assert resid < 1e-9
        assert np.max(np.abs(consensus.duals)) < 1e-8

    def test_dual_step_is_rho_times_consensus_mismatch(self):
        # Copy at 0.2, owner at 0.0: consensus value 0.1, so the copy side's
        # mismatch is 0.1 and with rho = 1 its dual rises by exactly 0.1.
        consensus = ConsensusState(1, np.array([0.0]), np.array([0.2]), np.zeros(1),
                                   rho=1.0, tau=0.1)
        consensus.update_duals()
        assert consensus.duals[0] == pytest.approx(0.1, abs=1e-15)

    def test_round_is_order_independent(self):
        programs, consensus_a = scalar_toy(2.0, 1.0, 3.0, -0.5, 1.0, 0.1)
        programs_b, consensus_b = scalar_toy(2.0, 1.0, 3.0, -0.5, 1.0, 0.1)
        x_prev_a = {0: np.zeros(1), 1: np.zeros(1)}
        x_prev_b = {0: np.zeros(1), 1: np.zeros(1)}
        kept_a, kept_b = kept(programs), kept(programs_b)
        for _ in range(5):
            sol_a, _ = pdc_admm_step(programs, consensus_a, x_prev_a, *kept_a)
            sol_b, _ = pdc_admm_step(programs_b[::-1], consensus_b, x_prev_b, *kept_b)
            x_prev_a, x_prev_b = sol_a, sol_b
        assert np.array_equal(consensus_a.own_values, consensus_b.own_values)
        assert np.array_equal(consensus_a.copy_values, consensus_b.copy_values)
        assert np.array_equal(consensus_a.duals, consensus_b.duals)

    def test_exchange_record_contains_only_boundary_values_and_duals(
            self, twelve_bus_scenario, foreign_buses):
        sc = twelve_bus_scenario
        start = sc.initial_state()
        angles = start.angles = np.arange(12) * 0.125
        state = started_controller(sc, sc.areas, start)._consensus
        boundary = np.concatenate(foreign_buses(sc.grid, sc.areas))
        # The record is exactly: per step, one own value, one copy value and
        # one dual per foreign bus of each area; nothing else crosses area
        # lines.
        rows = (sc.mpc.k_steps, boundary.size)
        for values in (state.own_values, state.copy_values):
            assert np.array_equal(values.reshape(rows),
                                  np.broadcast_to(angles[boundary], rows))
        assert np.array_equal(state.duals, np.zeros(rows).ravel())

    @pytest.mark.parametrize("k_steps, n_ghosts", [(4, 3), (1, 2), (5, 0)])
    def test_shift_moves_each_step_up_and_keeps_the_last(self, k_steps, n_ghosts):
        rng = np.random.default_rng(k_steps)
        own, copy, duals = rng.normal(size=(3, k_steps * n_ghosts))
        state = ConsensusState(n_ghosts, own.copy(), copy.copy(), duals.copy(), 2.0, 0.5)
        shifted = state.shifted()
        assert (shifted.n_ghosts, shifted.rho, shifted.tau) == (n_ghosts, 2.0, 0.5)
        for name, before in (("own_values", own), ("copy_values", copy),
                             ("duals", duals)):
            after = getattr(shifted, name)
            assert after.shape == before.shape
            for k in range(1, k_steps + 1):
                src = min(k + 1, k_steps)
                for g in range(n_ghosts):
                    assert after[(k - 1) * n_ghosts + g] == before[(src - 1) * n_ghosts + g]
            # The record shifted from is left as it was.
            assert np.array_equal(getattr(state, name), before)


class TestAreaSubproblem:
    def test_proximal_only_perturbation_when_consistent(self):
        programs, consensus = scalar_toy(2.0, 1.0, 2.0, 1.0, 1.0, 0.5)
        consensus.own_values[:] = 1.0
        consensus.copy_values[:] = 1.0
        # With zero duals and neighbour copies at the optimum, the solution
        # is pulled off 1.0 only by the proximal term anchored at x_prev.
        x = area_subproblem_solve(programs[0], consensus, np.array([0.0]),
                                  QpWorkspace(programs[0].prog), {})
        expected_own = (2.0 * 1.0 + 1.0 * 1.0) / (2.0 + 1.0 + 0.5)
        assert x[0] == pytest.approx(expected_own, abs=1e-8)

    def test_no_coupling_solves_exact_local_problem(self):
        prog = AreaProgram(0, ConvexProgram(q=np.array([-2.0]),
                                            curvature=np.array([2.0])))
        consensus = ConsensusState(0, np.zeros(0), np.zeros(0), np.zeros(0), 1.0, 0.1)
        x = area_subproblem_solve(prog, consensus, np.zeros(1), QpWorkspace(prog.prog), {})
        assert x[0] == pytest.approx(1.0, abs=1e-8)


class TestClosedLoopEquivalence:
    @pytest.mark.parametrize("case, absolute_effort, t_total", [
        ("two_bus", False, 1.0), ("two_bus", True, 1.0), ("twelve_bus", False, 0.4)])
    def test_single_area_matches_centralized(self, two_bus_scenario, twelve_bus_scenario,
                                             case, absolute_effort, t_total):
        sc = two_bus_scenario if case == "two_bus" else twelve_bus_scenario
        st = sc.initial_state()
        cfg = replace(sc.mpc, absolute_effort=absolute_effort)
        central = MpcController(sc.grid, cfg, sc.events)
        traj_c = simulate(sc.grid, st, central, t_total, cfg.step, sc.events)
        partition = partition_grid(sc.grid, [0] * sc.grid.n_buses)
        one_area = DistributedMpcController(sc.grid, cfg, partition, sc.admm, sc.events)
        traj_d = simulate(sc.grid, st, one_area, t_total, cfg.step, sc.events)
        # Both controllers run the same SQP loop on the same program: step by
        # step it takes the same iterations, certifies every solve, relaxes
        # the soft limits by the same slack and applies the same set-points,
        # to the bit.
        assert len(central.log) == len(one_area.log)
        for c, d in zip(central.log, one_area.log):
            assert d.sqp_iterations == c.sqp_iterations
            assert d.non_optimal_solves == c.non_optimal_solves == 0
            assert d.slack == c.slack
        for name in ("angles", "omega", "energy", "power", "inertia"):
            assert np.array_equal(getattr(traj_c, name), getattr(traj_d, name))

    def test_two_area_split_tracks_centralized(self, two_bus_scenario):
        sc = two_bus_scenario
        st = sc.initial_state()
        traj_c = simulate(sc.grid, st, MpcController(sc.grid, sc.mpc, sc.events), 2.0,
                          sc.mpc.step, sc.events)
        partition = partition_grid(sc.grid, [0, 1])
        controller = DistributedMpcController(sc.grid, sc.mpc, partition, sc.admm,
                                              sc.events)
        traj_d = simulate(sc.grid, st, controller, 2.0, sc.mpc.step, sc.events)
        reports = controller.log
        assert all(r.final_residual < sc.admm.tolerance for r in reports)
        assert all(r.iterations <= sc.admm.max_iterations for r in reports)
        j_c = traj_c.frequency_integral()
        j_d = traj_d.frequency_integral()
        assert j_d == pytest.approx(j_c, rel=0.01)

    def test_consensus_stitching_satisfies_network_dynamics(self, two_bus_scenario):
        # At convergence the stitched closed-loop trajectory obeys the full
        # network model: re-simulating with the applied inputs reproduces it.
        from essmpc.dynamics import euler_step, ControlInput, SystemState
        sc = two_bus_scenario
        st = sc.initial_state()
        partition = partition_grid(sc.grid, [0, 1])
        traj = simulate(sc.grid, st, DistributedMpcController(sc.grid, sc.mpc, partition,
                                                              sc.admm, sc.events),
                        0.5, sc.mpc.step, sc.events)
        for k in range(len(traj) - 1):
            state = SystemState(traj.angles[k], traj.omega[k], traj.energy[k], traj.t[k])
            nxt = euler_step(sc.grid, state, ControlInput(traj.power[k], traj.inertia[k]),
                             traj.ts, sc.events)
            assert np.max(np.abs(nxt.angles - traj.angles[k + 1])) < 1e-12
            assert np.max(np.abs(nxt.omega - traj.omega[k + 1])) < 1e-12


class TestRoundBudget:
    @pytest.mark.parametrize("field", ["rho", "tau", "tolerance", "max_iterations"])
    def test_nan_setting_is_rejected(self, two_bus_scenario, field):
        sc = two_bus_scenario
        with pytest.raises(PartitionError, match=f"^{field}: "):
            DistributedMpcController(sc.grid, sc.mpc, partition_grid(sc.grid, [0, 1]),
                                     replace(sc.admm, **{field: np.nan}))

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


class TestAreaPrograms:
    def test_one_program_per_area_and_sqp_iteration(self, twelve_bus_scenario,
                                                    monkeypatch):
        # The program the structure fills is the one solved: no second,
        # re-curved copy per area.
        sc = twelve_bus_scenario
        built = []
        post_init = ConvexProgram.__post_init__
        monkeypatch.setattr(ConvexProgram, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        controller = DistributedMpcController(sc.grid, sc.mpc,
                                              partition_grid(sc.grid, sc.areas),
                                              sc.admm, sc.events)
        simulate(sc.grid, sc.initial_state(), controller, 0.1, sc.mpc.step, sc.events)
        assert len(controller.areas) == 3
        assert len(built) == 3 * sum(r.sqp_iterations for r in controller.log) > 0


def reference_area_model(grid, state, controls, ts, events, owned, foreign, forcing):
    """One area's LtvModel fields, built alone from the whole grid: per
    step a Jacobian at the step's start, an Euler step, then the foreign
    angles overwritten with the forcing."""
    n, n_s = grid.n_buses, len(grid.storage_buses)
    nx = n + len(grid.inertia_buses)
    rows = list(owned) + [n + k for k, b in enumerate(grid.inertia_buses) if b in owned]
    storages = [s for s, b in enumerate(grid.storage_buses) if b in owned]
    u_cols = storages + [n_s + s for s in storages]
    current = state.copy()
    fields = {"A": [], "A_foreign": [], "B": [], "controls": controls[:, u_cols],
              "states": [np.concatenate([state.angles, state.omega])[rows]],
              "energies": [state.energy[storages]], "forcing": forcing}
    for k, row in enumerate(controls):
        u = ControlInput(row[:n_s], row[n_s:])
        j_x, j_u = swing_jacobian(grid, current, u, current.t, events)
        a = np.eye(nx) + ts * j_x
        fields["A"].append(a[np.ix_(rows, rows)])
        fields["A_foreign"].append(a[np.ix_(rows, foreign)])
        fields["B"].append((ts * j_u)[np.ix_(rows, u_cols)])
        current = euler_step(grid, current, u, ts, events)
        current.angles[list(foreign)] = forcing[k]
        fields["states"].append(np.concatenate([current.angles, current.omega])[rows])
        fields["energies"].append(current.energy[storages])
    return {name: np.array(value) for name, value in fields.items()}


def shared_linearization(controller, state, plan, forcing):
    """Every area's model from the controller's one split-grid linearization."""
    return linearize_dynamics(controller.split, controller._split_state(state), plan,
                              controller.cfg.step, controller.events, controller.areas,
                              forcing)


class TestSharedLinearization:
    @pytest.mark.parametrize("case", ["twelve_bus", "two_bus_split"])
    def test_each_area_model_is_bitwise_its_own_linearization(
            self, two_bus_scenario, twelve_bus_scenario, foreign_buses, case):
        sc = twelve_bus_scenario if case == "twelve_bus" else two_bus_scenario
        grid, cfg = sc.grid, sc.mpc
        partition = partition_grid(grid, sc.areas if case == "twelve_bus" else [0, 1])
        foreign = foreign_buses(grid, partition.assignment)
        controller = DistributedMpcController(grid, cfg, partition, sc.admm, sc.events)
        rng = np.random.default_rng(5)
        state = sc.initial_state()
        state.omega = state.omega + rng.uniform(-0.05, 0.05, state.omega.size)
        plan = cfg.reference_matrix()
        n_s = len(grid.storage_buses)
        plan[:, :n_s] += rng.uniform(-0.3, 0.3, (cfg.k_steps, n_s))
        plan[:, n_s:] += rng.uniform(-0.5, 0.5, (cfg.k_steps, n_s))
        ghost_bus = controller._ghosts[:, 1]
        forcing = state.angles[ghost_bus] \
            + rng.uniform(-0.02, 0.02, (cfg.k_steps, ghost_bus.size))
        models = shared_linearization(controller, state, plan, forcing)
        assert len(models) == len(foreign)
        for a, (area, ltv) in enumerate(zip(controller.areas, models)):
            ghosts = area.foreign - grid.n_buses
            assert tuple(ghost_bus[ghosts]) == foreign[a]
            buses = [b for b, owner in enumerate(partition.assignment) if owner == a]
            want = reference_area_model(grid, state, plan, cfg.step, sc.events,
                                        buses, foreign[a], forcing[:, ghosts])
            for name, value in want.items():
                got = getattr(ltv, name)
                assert got.shape == value.shape, (a, name)
                assert got.tobytes() == value.tobytes(), (a, name)
            assert ltv.ts == cfg.step

    def test_one_jacobian_per_sqp_iteration(self, twelve_bus_scenario, monkeypatch):
        from essmpc import mpc
        sc = twelve_bus_scenario
        calls = []
        jacobian = mpc.swing_jacobian
        monkeypatch.setattr(mpc, "swing_jacobian",
                            lambda *a, **k: calls.append(a[0]) or jacobian(*a, **k))
        controller = DistributedMpcController(sc.grid, sc.mpc,
                                              partition_grid(sc.grid, sc.areas),
                                              sc.admm, sc.events)
        simulate(sc.grid, sc.initial_state(), controller, 0.1, sc.mpc.step, sc.events)
        log = controller.log
        # The round budget is never spent, so every linearization is solved.
        assert all(r.iterations < sc.admm.max_iterations for r in log)
        assert len(controller.areas) == 3
        assert len(calls) == sum(r.sqp_iterations for r in log)
        assert all(g.n_buses > sc.grid.n_buses for g in calls)

    def test_ring_linearizes_all_areas_in_one_bounded_pass(self):
        import time
        import tracemalloc
        from perfbench.ring import ring_scenario
        sc = ring_scenario(7)
        partition = partition_grid(sc.grid, sc.areas)
        controller = DistributedMpcController(sc.grid, sc.mpc, partition, sc.admm,
                                              sc.events)
        state = sc.initial_state()
        forcing = np.tile(state.angles[controller._ghosts[:, 1]], (sc.mpc.k_steps, 1))
        plan = sc.mpc.reference_matrix()
        t0 = time.perf_counter()
        models = shared_linearization(controller, state, plan, forcing)
        elapsed = time.perf_counter() - t0
        del models
        tracemalloc.start()
        try:
            models = shared_linearization(controller, state, plan, forcing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(models) == len(controller.areas) == 100
        # One area of the whole grid alone took 90 ms and peaked at 172 MB.
        assert elapsed < 1.0
        assert peak < 172e6
