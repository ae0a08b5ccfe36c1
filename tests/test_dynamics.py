"""Bus dynamics: right-hand side, Euler stepping, simulation, monitoring."""

import numpy as np
import pytest

from essmpc.dynamics import (ControlInput, SimulationAbort, SystemState,
                             constant_policy, euler_step, monitor_constraints,
                             simulate, swing_rhs)
from essmpc.grid import DisturbanceEvent, solve_equilibrium


def equilibrium_state(grid, storage_power):
    angles = solve_equilibrium(grid, storage_power)
    energy = np.array([grid.storage_role(b).initial_energy
                       for b in grid.storage_buses])
    return SystemState(angles, np.zeros(len(grid.inertia_buses)), energy, 0.0)


class TestSwingRhs:
    def test_equilibrium_is_fixed_point(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        d = swing_rhs(two_bus_grid, st, u)
        assert np.max(np.abs(d.angles)) <= 1e-12
        assert np.max(np.abs(d.omega)) <= 1e-12

    def test_generator_acceleration(self, two_bus_grid):
        st = SystemState(np.zeros(2), np.zeros(2), np.zeros(1), 0.0)
        u = ControlInput(np.array([0.0]), np.array([8.0]))
        d = swing_rhs(two_bus_grid, st, u)
        # Gen bus: (1/M)(P0 - D*w - outflow) = (1/3)(3 - 0 - 0)
        assert d.omega[0] == pytest.approx(1.0, abs=1e-15)

    def test_balanced_storage_bus(self, two_bus_grid):
        # Angle difference produces 3 p.u. of inflow at the storage bus.
        angles = solve_equilibrium(two_bus_grid, np.array([-3.0]))
        st = SystemState(angles, np.zeros(2), np.zeros(1), 0.0)
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        d = swing_rhs(two_bus_grid, st, u)
        assert d.omega[1] == pytest.approx(0.0, abs=1e-12)
        assert d.energy[0] == -3.0

    def test_first_order_load_bus(self, three_bus_grid):
        st = SystemState(np.zeros(3), np.zeros(2), np.zeros(1), 0.0)
        u = ControlInput(np.array([0.0]), np.array([4.0]))
        d = swing_rhs(three_bus_grid, st, u)
        # Load bus 1: (1/D)(P0 - outflow) = (1/2)(-1.5)
        assert d.angles[1] == pytest.approx(-0.75, abs=1e-15)


class TestEulerStep:
    def test_zero_derivative_only_advances_time(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        nxt = euler_step(two_bus_grid, st, u, 0.01)
        assert np.allclose(nxt.angles, st.angles, atol=1e-14)
        assert np.allclose(nxt.omega, st.omega, atol=1e-14)
        assert nxt.t == pytest.approx(0.01)

    def test_energy_linear_update(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        nxt = euler_step(two_bus_grid, st, u, 0.01)
        assert nxt.energy[0] == pytest.approx(-0.03, abs=1e-15)

    def test_energy_reaches_allowance_after_1500_steps(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        state = st
        for _ in range(1500):
            state = euler_step(two_bus_grid, state, u, 0.01)
        assert state.energy[0] == pytest.approx(-45.0, abs=1e-9)

    def test_energy_integration_bit_stable(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        runs = []
        for _ in range(2):
            state = st.copy()
            for _ in range(700):
                state = euler_step(two_bus_grid, state, u, 0.01)
            runs.append(state.energy[0])
        assert runs[0] == runs[1]

    def test_nonpositive_step_rejected(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        with pytest.raises(ValueError):
            euler_step(two_bus_grid, st, u, 0.0)


class TestSimulate:
    def test_equilibrium_holds(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        traj = simulate(two_bus_grid, st, constant_policy(u), 1.0, 0.01)
        assert len(traj) == 101
        assert np.max(np.abs(traj.omega)) < 1e-12

    def test_energy_crosses_allowance_near_fifteen_seconds(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        events = [DisturbanceEvent(0, 0.0, 0.2)]
        traj = simulate(two_bus_grid, st, constant_policy(u), 16.0, 0.01,
                        events, clamp_storage_power_at_energy_limit=True)
        hit = np.argmax(traj.energy[:, 0] <= -45.0 + 1e-9)
        t_hit = traj.t[hit]
        assert 14.9 <= t_hit <= 15.1
        # After the clamp engages the generator surplus has no sink:
        # frequencies rise.
        assert traj.omega[-1, 0] > 0.01

    def test_euler_first_order_convergence(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        events = [DisturbanceEvent(0, 0.0, 0.2)]

        def terminal(ts):
            traj = simulate(two_bus_grid, st, constant_policy(u), 1.0, ts,
                            events, clamp_storage_power_at_energy_limit=False)
            return np.concatenate([traj.angles[-1], traj.omega[-1]])

        ref = terminal(1e-5)
        err_h = np.linalg.norm(terminal(0.004) - ref)
        err_h2 = np.linalg.norm(terminal(0.002) - ref)
        assert 1.8 <= err_h / err_h2 <= 2.2

    def test_kinetic_energy_decays_without_disturbance(self, two_bus_grid):
        # Common-mode frequency offset at equilibrium angles, tiny step.
        angles = solve_equilibrium(two_bus_grid, np.array([-3.0]))
        st = SystemState(angles, np.array([0.1, 0.1]), np.zeros(1), 0.0)
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        inertias = np.array([3.0, 8.0])
        traj = simulate(two_bus_grid, st, constant_policy(u), 0.5, 1e-4,
                        clamp_storage_power_at_energy_limit=False)
        kinetic = np.sum(inertias * traj.omega ** 2, axis=1)
        assert np.all(np.diff(kinetic) <= 1e-15)

    def test_disturbance_time_rounds_down_to_step(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        # Event between grid points becomes active at the step containing it.
        events = [DisturbanceEvent(0, 0.014, 0.2)]
        traj = simulate(two_bus_grid, st, constant_policy(u), 0.05, 0.01, events)
        omegas = traj.omega[:, 0]
        assert omegas[1] == 0.0          # state after step over [0, 0.01)
        assert omegas[2] == 0.0          # [0.01, 0.02) evaluated at t=0.01 < 0.014
        assert omegas[3] > 0.0           # [0.02, 0.03) sees the event

    def test_controller_failure_aborts_with_partial(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        good = ControlInput(np.array([-3.0]), np.array([8.0]))

        def controller(step, _state):
            if step == 3:
                raise RuntimeError("deliberate failure")
            return good.copy()

        with pytest.raises(SimulationAbort) as info:
            simulate(two_bus_grid, st, controller, 1.0, 0.01)
        assert info.value.step == 3
        partial = info.value.partial
        assert len(partial) == 4 and partial.power.shape == (4, 1)

    def test_zero_duration_run(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        traj = simulate(two_bus_grid, st, constant_policy(u), 0.0, 0.01)
        assert len(traj) == 1 and traj.power.shape == (1, 1)


def of_kind(violations, kind):
    return [v for v in violations if v.kind == kind]


class TestMonitorConstraints:
    def test_equilibrium_trajectory_clean(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        traj = simulate(two_bus_grid, st, constant_policy(u), 1.0, 0.01)
        violations = monitor_constraints(two_bus_grid, traj, {0: 0.5, 1: 0.5})
        assert not violations

    def test_single_frequency_spike_flagged_once(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        traj = simulate(two_bus_grid, st, constant_policy(u), 0.02, 0.01)
        traj.omega[1, 0] = 0.6
        violations = monitor_constraints(two_bus_grid, traj, {0: 0.5})
        freq = of_kind(violations, "frequency")
        assert len(freq) == 1
        assert freq[0].bus == 0 and freq[0].value == 0.6 and freq[0].limit == 0.5

    def test_energy_saturation_flagged_from_fifteen_seconds(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        events = [DisturbanceEvent(0, 0.0, 0.2)]
        traj = simulate(two_bus_grid, st, constant_policy(u), 20.0, 0.01, events)
        violations = monitor_constraints(two_bus_grid, traj)
        energy = of_kind(violations, "energy")
        assert energy[0].t == pytest.approx(15.0, abs=0.01)
        # saturated for every step afterwards
        assert len(energy) == len(traj) - 1500

    def test_power_outside_box_flagged(self, two_bus_grid):
        st = equilibrium_state(two_bus_grid, np.array([-3.0]))
        u = ControlInput(np.array([-3.0]), np.array([8.0]))
        traj = simulate(two_bus_grid, st, constant_policy(u), 0.02, 0.01)
        traj.power[0, 0] = -4.5
        violations = monitor_constraints(two_bus_grid, traj)
        assert len(of_kind(violations, "power")) == 1
