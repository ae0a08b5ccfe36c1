"""Shared fixtures: the bundled scenarios and frequently used grids."""

from __future__ import annotations

import numpy as np
import pytest

from essmpc.grid import GeneratorBus, GridModel, Line, LoadBus, StorageBus
from essmpc.scenario import bundled_scenario_path, parse_scenario


@pytest.fixture(scope="session")
def two_bus_scenario():
    return parse_scenario(bundled_scenario_path("two_bus"))


@pytest.fixture(scope="session")
def twelve_bus_scenario():
    return parse_scenario(bundled_scenario_path("twelve_bus"))


@pytest.fixture(scope="session")
def foreign_buses():
    """(grid, assignment) -> per area, sorted: the buses of other areas at the
    far ends of its lines.  A reference for the split grid's ghosts."""
    def of(grid, assignment):
        foreign: list[set[int]] = [set() for _ in range(max(assignment) + 1)]
        for ln in grid.lines:
            a, b = assignment[ln.from_bus], assignment[ln.to_bus]
            if a != b:
                foreign[a].add(ln.to_bus)
                foreign[b].add(ln.from_bus)
        return [tuple(sorted(f)) for f in foreign]
    return of


@pytest.fixture()
def two_bus_grid():
    """Standalone copy of the two-bus system (generator + storage, b = 50)."""
    roles = [GeneratorBus(3.0, 1.0),
             StorageBus(1.0, (1.0, 15.0), (-4.0, 4.0), (-45.0, 10.0), 0.0)]
    return GridModel(roles, [Line(0, 1, 50.0)], [3.0, 0.0], reference_bus=1)


@pytest.fixture()
def three_bus_grid():
    """Small mixed system with a first-order load bus in the middle."""
    roles = [GeneratorBus(4.0, 1.5),
             LoadBus(2.0),
             StorageBus(0.5, (2.0, 12.0), (-2.0, 2.0), (-20.0, 20.0), 1.0)]
    lines = [Line(0, 1, 30.0), Line(1, 2, 25.0)]
    return GridModel(roles, lines, [1.0, -1.5, 0.0], reference_bus=0)
