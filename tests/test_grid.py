"""Network model: susceptance, flows, equilibrium, balance, validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from essmpc.dynamics import ControlInput, SystemState, swing_jacobian, swing_rhs
from essmpc.grid import (GeneratorBus, GridError, GridModel, Line, LoadBus,
                         StorageBus, line_susceptance, solve_equilibrium)


class TestLineSusceptance:
    def test_pure_line(self):
        assert line_susceptance(0.001, 10, 0) == pytest.approx(100.0)

    def test_transformer_only(self):
        assert line_susceptance(0.001, 0, 0.15) == pytest.approx(1.0 / 0.15)

    def test_line_plus_transformer(self):
        assert line_susceptance(0.001, 25, 0.15) == pytest.approx(1.0 / 0.175)

    def test_nonpositive_reactance_rejected(self):
        with pytest.raises(GridError):
            line_susceptance(0.0, 0.0, 0.0)
        with pytest.raises(GridError):
            line_susceptance(-0.001, 10, 0)


class TestNetworkInjection:
    """The power each bus sends into the network, `GridModel.outflow`."""

    def test_equal_angles_no_flow(self, two_bus_grid):
        assert two_bus_grid.outflow(np.zeros(2))[0] == 0.0

    def test_two_bus_flow_value(self, two_bus_grid):
        flow = two_bus_grid.outflow(np.array([0.06, 0.0]))[0]
        assert flow == pytest.approx(50.0 * math.sin(0.06), abs=1e-12)

    def test_total_injection_is_zero(self, three_bus_grid):
        rng = np.random.default_rng(7)
        for _ in range(20):
            angles = rng.uniform(-1.0, 1.0, size=3)
            assert abs(sum(three_bus_grid.outflow(angles).tolist())) < 1e-12

    def test_per_line_antisymmetry(self, three_bus_grid):
        angles = np.array([0.3, -0.1, 0.2])
        for ln in three_bus_grid.lines:
            f_ij = ln.susceptance * math.sin(angles[ln.from_bus] - angles[ln.to_bus])
            f_ji = ln.susceptance * math.sin(angles[ln.to_bus] - angles[ln.from_bus])
            assert f_ij == pytest.approx(-f_ji, abs=1e-15)


@st.composite
def connected_grids(draw):
    """A random spanning tree plus extra lines, each drawn in a random direction,
    over 2-8 buses of mixed roles with at least one generator."""
    n = draw(st.integers(2, 8))
    value = st.floats(0.5, 10.0)
    kinds = draw(st.lists(st.sampled_from("gls"), min_size=n, max_size=n))
    kinds[draw(st.integers(0, n - 1))] = "g"
    roles = [GeneratorBus(draw(value), draw(value)) if k == "g"
             else LoadBus(draw(value)) if k == "l"
             else StorageBus(draw(value), (1.0, 15.0), (-4.0, 4.0), (-45.0, 10.0))
             for k in kinds]
    order = draw(st.permutations(range(n)))
    pairs = {frozenset((order[i], order[draw(st.integers(0, i - 1))]))
             for i in range(1, n)}
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n)):
        if i != j:
            pairs.add(frozenset((i, j)))
    lines = []
    for pair in sorted(pairs, key=sorted):
        i, j = sorted(pair)
        if draw(st.booleans()):
            i, j = j, i
        lines.append(Line(i, j, draw(st.floats(1.0, 50.0))))
    grid = GridModel(roles, lines, draw(st.lists(value, min_size=n, max_size=n)))
    n_w, n_s = len(grid.inertia_buses), len(grid.storage_buses)
    angle = st.floats(-1.0, 1.0)
    state = SystemState(np.array(draw(st.lists(angle, min_size=n, max_size=n))),
                        np.array(draw(st.lists(angle, min_size=n_w, max_size=n_w))),
                        np.zeros(n_s))
    u = ControlInput(np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n_s,
                                            max_size=n_s))),
                     np.array(draw(st.lists(st.floats(1.0, 15.0), min_size=n_s,
                                            max_size=n_s))))
    return grid, state, u


def rhs_vector(grid, state, u):
    d = swing_rhs(grid, state, u)
    return np.concatenate([d.angles, d.omega])


class TestFlowLawOnRandomGrids:
    @settings(max_examples=60, deadline=None)
    @given(connected_grids())
    def test_injections_match_a_per_line_sum(self, case):
        grid, state, _u = case
        angles = state.angles
        expected = np.zeros(grid.n_buses)
        for ln in grid.lines:
            expected[ln.from_bus] += ln.susceptance * math.sin(
                angles[ln.from_bus] - angles[ln.to_bus])
            expected[ln.to_bus] += ln.susceptance * math.sin(
                angles[ln.to_bus] - angles[ln.from_bus])
        got = grid.outflow(angles)
        assert np.max(np.abs(got - expected)) <= 1e-12
        assert abs(float(np.sum(got))) <= 1e-12 * sum(ln.susceptance for ln in grid.lines)

    @settings(max_examples=60, deadline=None)
    @given(connected_grids())
    def test_jacobian_matches_central_differences(self, case):
        grid, state, u = case
        n, n_s = grid.n_buses, len(grid.storage_buses)
        j_x, j_u = swing_jacobian(grid, state, u)
        h = 1e-6
        fd_x = np.zeros_like(j_x)
        for j in range(j_x.shape[1]):
            up, dn = state.copy(), state.copy()
            part_up, part_dn, k = ((up.angles, dn.angles, j) if j < n
                                   else (up.omega, dn.omega, j - n))
            part_up[k] += h
            part_dn[k] -= h
            fd_x[:, j] = (rhs_vector(grid, up, u) - rhs_vector(grid, dn, u)) / (2 * h)
        fd_u = np.zeros_like(j_u)
        for j in range(2 * n_s):
            up, dn = u.copy(), u.copy()
            part_up, part_dn, k = ((up.power, dn.power, j) if j < n_s
                                   else (up.inertia, dn.inertia, j - n_s))
            part_up[k] += h
            part_dn[k] -= h
            fd_u[:, j] = (rhs_vector(grid, state, up)
                          - rhs_vector(grid, state, dn)) / (2 * h)
        assert np.max(np.abs(j_x - fd_x)) / max(1.0, np.max(np.abs(j_x))) < 1e-6
        assert np.max(np.abs(j_u - fd_u), initial=0.0) \
            / max(1.0, np.max(np.abs(j_u), initial=0.0)) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(connected_grids(), st.data())
    def test_split_grid_flows_are_bitwise_the_grid_flows(self, case, data):
        # With every ghost at its foreign bus's angle, each bus sends the
        # same flows, summed in the same order, and folding the ghosts'
        # Jacobian columns back into their buses gives the grid's Jacobian.
        grid, state, _u = case
        n = grid.n_buses
        area = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        split, ghosts = grid.split(area)
        ends = {(area[i], j) for ln in grid.lines
                for i, j in ((ln.from_bus, ln.to_bus), (ln.to_bus, ln.from_bus))
                if area[i] != area[j]}
        assert [tuple(g) for g in ghosts.tolist()] == sorted(ends)
        assert (split is grid) == (not ends)
        assert split.n_buses == n + len(ends)
        angles = np.concatenate([state.angles, state.angles[ghosts[:, 1]]])
        assert split.outflow(angles)[:n].tobytes() == grid.outflow(state.angles).tobytes()
        jac = split.outflow_jacobian(angles)
        folded = jac[:n, :n].copy()
        for g, bus in enumerate(ghosts[:, 1]):
            folded[:, bus] += jac[:n, n + g]
        assert folded.tobytes() == grid.outflow_jacobian(state.angles).tobytes()

    def test_split_grid_extends_every_per_bus_field(self, three_bus_grid):
        # The split grid is the grid's fields with the ghosts appended: a
        # field with one entry per bus gains one per ghost, the load lists
        # gain the ghosts, the line ends are rewired and the rest is kept.
        # Every role holds fewer than all buses, so a field of length N is
        # one entry per bus.
        grid = three_bus_grid
        n = grid.n_buses
        split, ghosts = grid.split([0, 0, 1])
        n_g = len(ghosts)
        assert n_g > 0 and split.n_buses == n + n_g
        rewired = {"lines", "edge_bus", "edge_nbr", "edge_b", "_jac_index"}
        per_bus = set()
        for name, value in vars(grid).items():
            got = vars(split)[name]
            if not isinstance(value, (tuple, np.ndarray)) or name in rewired:
                continue
            if len(value) == n:
                per_bus.add(name)
                assert len(got) == n + n_g, name
                assert np.array_equal(got[:n], value), name
            elif name in ("load_buses", "load_idx"):
                assert tuple(got) == tuple(value) + tuple(range(n, n + n_g)), name
            else:
                assert np.array_equal(got, value), name
        assert {"roles", "injections", "damping"} <= per_bus
        assert set(vars(split)) == set(vars(grid))


class TestEquilibrium:
    def test_two_bus_closed_form(self, two_bus_grid):
        angles = solve_equilibrium(two_bus_grid, np.array([-3.0]))
        assert angles[1] == 0.0
        assert angles[0] == pytest.approx(math.asin(0.06), abs=1e-10)

    def test_zero_injection_gives_flat_angles(self, three_bus_grid):
        grid = GridModel(three_bus_grid.roles, three_bus_grid.lines,
                         np.zeros(3), reference_bus=0)
        angles = solve_equilibrium(grid)
        assert np.max(np.abs(angles)) == 0.0

    def test_residual_bound_and_single_iteration_reconvergence(self, three_bus_grid):
        angles = solve_equilibrium(three_bus_grid, np.array([0.5]))
        p = three_bus_grid.net_injections(np.array([0.5]))
        for i in range(3):
            if i == three_bus_grid.reference_bus:
                continue
            resid = p[i] - three_bus_grid.outflow(angles)[i]
            assert abs(resid) < 1e-9

    def test_imbalance_rejected(self, two_bus_grid):
        with pytest.raises(GridError, match="balance"):
            solve_equilibrium(two_bus_grid, np.array([-2.0]))

    def test_twelve_bus_matches_published_initial_angles(self, twelve_bus_scenario):
        sc = twelve_bus_scenario
        angles = solve_equilibrium(sc.grid, sc.reference_power)
        published = np.array([-0.1931, -0.0452, -0.2552, -0.3340,
                              -0.1146, -0.3681, -0.4381, -0.4960,
                              0.0, -0.1750, -0.3150, -0.4150])
        assert np.max(np.abs(angles - published)) < 0.02


class TestPowerBalance:
    """Generation and load are the sums of the positive and negative net injections."""

    def test_twelve_bus_table(self, twelve_bus_scenario):
        p = twelve_bus_scenario.grid.net_injections(twelve_bus_scenario.reference_power)
        generation, load = float(np.sum(p[p > 0.0])), float(-np.sum(p[p < 0.0]))
        assert generation == pytest.approx(36.57, abs=1e-12)
        assert load == pytest.approx(36.57, abs=1e-12)
        assert abs(generation - load) < 1e-9

    def test_empty_grid(self):
        p = GridModel([], [], []).net_injections()
        assert p.shape == (0,) and float(np.sum(p)) == 0.0

    def test_two_bus_totals(self, two_bus_grid):
        p = two_bus_grid.net_injections(np.array([-3.0]))
        assert (float(np.sum(p[p > 0.0])), float(-np.sum(p[p < 0.0]))) == (3.0, 3.0)
        assert float(np.sum(p)) == 0.0


class TestValidation:
    def test_negative_inertia_rejected(self):
        with pytest.raises(GridError, match="inertia"):
            GridModel([GeneratorBus(-3.0, 1.0), LoadBus(1.0)],
                      [Line(0, 1, 10.0)], [1.0, -1.0])

    def test_negative_damping_rejected(self):
        with pytest.raises(GridError, match="damping"):
            GridModel([GeneratorBus(3.0, -1.0), LoadBus(1.0)],
                      [Line(0, 1, 10.0)], [1.0, -1.0])

    def test_bound_order_rejected(self):
        bad = StorageBus(1.0, (5.0, 2.0), (-1.0, 1.0), (-10.0, 10.0), 0.0)
        with pytest.raises(GridError, match="inertia bounds"):
            GridModel([GeneratorBus(3.0, 1.0), bad], [Line(0, 1, 10.0)],
                      [1.0, -1.0])

    def test_initial_energy_outside_bounds_rejected(self):
        bad = StorageBus(1.0, (1.0, 5.0), (-1.0, 1.0), (-10.0, 10.0), 11.0)
        with pytest.raises(GridError, match="initial energy"):
            GridModel([GeneratorBus(3.0, 1.0), bad], [Line(0, 1, 10.0)],
                      [1.0, -1.0])

    def test_disconnected_graph_rejected(self):
        with pytest.raises(GridError, match="connected"):
            GridModel([GeneratorBus(3.0, 1.0), LoadBus(1.0), LoadBus(1.0)],
                      [Line(0, 1, 10.0)], [1.0, -0.5, -0.5])

    def test_duplicate_line_rejected(self):
        with pytest.raises(GridError, match="duplicate"):
            GridModel([GeneratorBus(3.0, 1.0), LoadBus(1.0)],
                      [Line(0, 1, 10.0), Line(1, 0, 5.0)], [1.0, -1.0])

    def test_self_loop_rejected(self):
        with pytest.raises(GridError, match="itself"):
            Line(0, 0, 10.0).validate()

    def test_nonpositive_susceptance_rejected(self):
        with pytest.raises(GridError, match="susceptance"):
            GridModel([GeneratorBus(3.0, 1.0), LoadBus(1.0)],
                      [Line(0, 1, -10.0)], [1.0, -1.0])
