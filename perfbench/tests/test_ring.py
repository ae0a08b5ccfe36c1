"""The synthetic ring: a valid scenario file that depends on the seed only."""

import numpy as np
import pytest

from essmpc.grid import solve_equilibrium
from essmpc.scenario import parse_scenario, write_scenario
from perfbench.ring import AREAS, BUSES_PER_AREA, ring_text


@pytest.fixture(scope="module")
def text():
    return ring_text(7)


def test_round_trips_through_parse_scenario(text):
    # Parsing builds the GridModel, which also rejects a disconnected graph.
    scenario = parse_scenario(text)
    assert write_scenario(scenario) == text
    assert scenario.grid.n_buses == BUSES_PER_AREA * AREAS
    assert len(scenario.grid.lines) == BUSES_PER_AREA * AREAS
    assert {ev.time for ev in scenario.events} == {0.0}
    assert sum(ev.delta_p for ev in scenario.events) == pytest.approx(-0.2)


def test_balanced_and_equilibrium_converges_at_benchmark_size(text):
    scenario = parse_scenario(text)
    net = scenario.grid.net_injections(scenario.reference_power)
    assert abs(net.sum()) < 1e-9
    angles = solve_equilibrium(scenario.grid, scenario.reference_power)
    assert np.all(np.isfinite(angles))
    spread = max(abs(angles[ln.from_bus] - angles[ln.to_bus])
                 for ln in scenario.grid.lines)
    assert spread < 0.5


def test_seed_alone_determines_the_file(text):
    assert ring_text(7) == text
    assert ring_text(8) != text
