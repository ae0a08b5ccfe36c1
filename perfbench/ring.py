"""Seeded synthetic ring grid, emitted as a scenario file.

Each area holds three generators star-connected to one storage bus, and the
storage buses of consecutive areas are tied into a ring, so the graph is
connected by construction and has O(N) lines.  Injections are drawn in
integer units of 1e-4 p.u. and balance exactly.  At t = 0 a -0.2 p.u.
generation step applies, shared by one seeded generator in each area.
The program only ever sees the emitted text.
"""

from __future__ import annotations

import numpy as np

from essmpc.dmpc import AdmmSettings
from essmpc.grid import DisturbanceEvent, GeneratorBus, GridModel, Line, StorageBus
from essmpc.mpc import MpcConfig
from essmpc.scenario import Scenario, write_scenario

AREAS = 100          # 400 buses
BUSES_PER_AREA = 4   # three generators, then the storage bus
STEP = 0.01          # simulation and control step, s
DURATION = 4.0       # simulated window, s: 400 steps
_UNIT = 1e-4         # p.u. per injection draw unit
# Total step, spread over all areas: a step at a single bus makes the
# closed-loop cost depend on that bus's neighbourhood, so seeds would not be
# comparable (31% spread of the cost over ten seeds, against 3% here).
DISTURBANCE = -0.2


def ring_scenario(seed: int) -> Scenario:
    """Validated ring scenario with `AREAS` areas of four buses each."""
    rng = np.random.default_rng(seed)
    n = BUSES_PER_AREA * AREAS
    roles, lines = [], []
    units = np.zeros(n, dtype=np.int64)
    # Per-area imbalance makes the ties carry flow; it sums to zero.
    imbalance = rng.integers(-500, 501, AREAS)
    imbalance[-1] -= imbalance.sum()
    for a in range(AREAS):
        first = BUSES_PER_AREA * a
        storage = first + 3
        gen = rng.integers(5000, 15001, 3)
        for g in range(3):
            roles.append(GeneratorBus(inertia=round(float(rng.uniform(5.0, 20.0)), 3),
                                      damping=round(float(rng.uniform(2.0, 5.0)), 3)))
            lines.append(Line(first + g, storage,
                              round(float(rng.uniform(10.0, 40.0)), 3)))
        roles.append(StorageBus(damping=1.0, inertia_bounds=(4.0, 10.0),
                                power_bounds=(-3.0, 3.0),
                                energy_bounds=(-45.0, 10.0), initial_energy=0.0))
        units[first:storage] = gen
        units[storage] = -gen.sum() + imbalance[a]
        lines.append(Line(storage, (storage + BUSES_PER_AREA) % n,
                          round(float(rng.uniform(10.0, 20.0)), 3)))
    grid = GridModel(roles, lines, units * _UNIT)

    n_s = len(grid.storage_buses)
    disturbed = [BUSES_PER_AREA * a + int(rng.integers(3)) for a in range(AREAS)]
    cfg = MpcConfig.create(grid, horizon=10 * STEP, step=STEP,
                           reference_power=0.0, reference_inertia=7.0,
                           power_cost=0.0, inertia_cost=0.0, frequency_cost=1.0)
    return Scenario(
        name=f"ring{n}", description=f"Synthetic {AREAS}-area ring, seed {seed}.",
        grid=grid,
        events=tuple(DisturbanceEvent(bus, 0.0, DISTURBANCE / len(disturbed))
                     for bus in disturbed),
        sim_step=STEP, sim_duration=DURATION,
        clamp_storage_power_at_energy_limit=True, mpc=cfg,
        areas=tuple(b // BUSES_PER_AREA for b in range(n)),
        admm=AdmmSettings(rho=20.0, tau=0.01, tolerance=1e-4, max_iterations=500),
        reference_power=np.zeros(n_s), reference_inertia=np.full(n_s, 7.0))


def ring_text(seed: int) -> str:
    """Scenario document text for `ring_scenario`."""
    return write_scenario(ring_scenario(seed))
