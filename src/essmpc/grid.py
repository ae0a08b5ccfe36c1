"""Static network description: buses, lines, injections, and steady state.

Buses carry one of three roles. Generator-type buses (synchronous machines
and motor loads) obey second-order rotor dynamics, plain load buses are
first-order, and storage buses are second-order with a controllable power
injection and virtual inertia. Angles are in radians, powers in p.u.,
inertias in seconds, energies in p.u.*s.

`GridModel` holds the network physics: read-only per-line and per-bus arrays
(damping, inertia, index arrays, storage bounds), and `outflow` and
`outflow_jacobian`, the flow law sum_j b_ij sin(d_i - d_j) and its Jacobian,
for one state or a stack of them.  `split` cuts the tie lines of an area
assignment at ghost buses, so that all areas can be linearized as one grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "GridError",
    "EquilibriumError",
    "GeneratorBus",
    "LoadBus",
    "StorageBus",
    "Line",
    "DisturbanceEvent",
    "GridModel",
    "line_susceptance",
    "solve_equilibrium",
]


class GridError(ValueError):
    """Raised when a grid description violates a structural invariant."""


class EquilibriumError(RuntimeError):
    """Raised when the steady-state solve cannot produce a valid solution."""


@dataclass(frozen=True)
class GeneratorBus:
    """Second-order bus: synchronous machine or motor load with inertia."""

    inertia: float      # M_i, seconds
    damping: float      # D_i, p.u., stored as a positive magnitude

    def validate(self, bus: int) -> None:
        if self.inertia <= 0.0:
            raise GridError(f"bus {bus}: generator inertia must be > 0, got {self.inertia}")
        if self.damping <= 0.0:
            raise GridError(f"bus {bus}: generator damping must be > 0, got {self.damping}")


@dataclass(frozen=True)
class LoadBus:
    """First-order bus without inertia; angle driven by damping alone."""

    damping: float      # D_i, p.u.

    def validate(self, bus: int) -> None:
        if self.damping <= 0.0:
            raise GridError(f"bus {bus}: load damping must be > 0, got {self.damping}")


@dataclass(frozen=True)
class StorageBus:
    """Second-order storage bus with controllable power and virtual inertia."""

    damping: float                      # D_e, p.u.
    inertia_bounds: tuple[float, float]  # [M_e_min, M_e_max], seconds
    power_bounds: tuple[float, float]    # [P_e_min, P_e_max], p.u.
    energy_bounds: tuple[float, float]   # [E_al_l, E_al_u], p.u.*s
    initial_energy: float = 0.0          # E_0, p.u.*s

    def validate(self, bus: int) -> None:
        if self.damping <= 0.0:
            raise GridError(f"bus {bus}: storage damping must be > 0, got {self.damping}")
        m_lo, m_hi = self.inertia_bounds
        if m_lo <= 0.0 or m_lo > m_hi:
            raise GridError(f"bus {bus}: invalid inertia bounds [{m_lo}, {m_hi}]")
        p_lo, p_hi = self.power_bounds
        if p_lo > p_hi:
            raise GridError(f"bus {bus}: invalid power bounds [{p_lo}, {p_hi}]")
        e_lo, e_hi = self.energy_bounds
        if e_lo > e_hi:
            raise GridError(f"bus {bus}: invalid energy bounds [{e_lo}, {e_hi}]")
        if not e_lo <= self.initial_energy <= e_hi:
            raise GridError(
                f"bus {bus}: initial energy {self.initial_energy} outside "
                f"bounds [{e_lo}, {e_hi}]"
            )


BusRole = GeneratorBus | LoadBus | StorageBus


def line_susceptance(reactance_per_km: float, length_km: float,
                     transformer_reactance: float = 0.0) -> float:
    """Susceptance of a lossless line from series reactance data.

    Total reactance is reactance_per_km * length_km + transformer_reactance;
    the resistive part of the impedance is discarded.
    """
    x_total = reactance_per_km * length_km + transformer_reactance
    if x_total <= 0.0:
        raise GridError(f"total line reactance must be > 0, got {x_total}")
    return 1.0 / x_total


@dataclass(frozen=True)
class Line:
    """Lossless transmission line between two buses."""

    from_bus: int
    to_bus: int
    susceptance: float  # b_ij, p.u.

    def validate(self) -> None:
        if self.from_bus == self.to_bus:
            raise GridError(f"line connects bus {self.from_bus} to itself")
        if self.susceptance <= 0.0:
            raise GridError(
                f"line {self.from_bus}-{self.to_bus}: susceptance must be > 0, "
                f"got {self.susceptance}"
            )


@dataclass(frozen=True)
class DisturbanceEvent:
    """Step change of the nominal injection at one bus, active from `time` on.

    A time a few ulps short of `time` has reached it (`onset`): the plant's
    clock, (k + 1) ts + t0, and a rollout's, t + j ts, round one step's
    time apart.
    """

    bus: int
    time: float      # seconds
    delta_p: float   # p.u., added to P_i^0

    @property
    def onset(self) -> float:
        return self.time - 4 * np.spacing(self.time)

    def validate(self, n_buses: int) -> None:
        if not 0 <= self.bus < n_buses:
            raise GridError(f"disturbance references unknown bus {self.bus}")
        if self.time < 0.0:
            raise GridError(f"disturbance time must be >= 0, got {self.time}")


class GridModel:
    """Immutable network model: bus roles, lines, and nominal injections.

    Buses are indexed densely 0..N-1.  The reference bus pins the angle
    origin for the steady-state solve; it defaults to the first
    generator-type bus.
    """

    def __init__(self, roles: Sequence[BusRole], lines: Sequence[Line],
                 injections: Sequence[float], reference_bus: Optional[int] = None):
        self.roles: tuple[BusRole, ...] = tuple(roles)
        self.lines: tuple[Line, ...] = tuple(lines)
        self.injections = np.asarray(injections, dtype=float).copy()
        self.injections.flags.writeable = False
        n = len(self.roles)
        if self.injections.shape != (n,):
            raise GridError(
                f"injections has shape {self.injections.shape}, expected ({n},)"
            )

        self.generator_buses = tuple(
            i for i, r in enumerate(self.roles) if isinstance(r, GeneratorBus))
        self.load_buses = tuple(
            i for i, r in enumerate(self.roles) if isinstance(r, LoadBus))
        self.storage_buses = tuple(
            i for i, r in enumerate(self.roles) if isinstance(r, StorageBus))
        # Second-order buses (everything with a frequency state), in bus order.
        self.inertia_buses = tuple(
            i for i, r in enumerate(self.roles) if not isinstance(r, LoadBus))

        if reference_bus is None:
            if self.generator_buses:
                reference_bus = self.generator_buses[0]
            elif n > 0:
                reference_bus = 0
        self.reference_bus = reference_bus

        self._validate()

        def storage_bounds(name: str) -> np.ndarray:   # (2, n_s): lower, upper
            return _frozen(np.reshape([getattr(self.roles[i], name)
                                       for i in self.storage_buses], (-1, 2)).T)

        # Every line once from each end, sorted by bus and then neighbour: each
        # bus adds up its flows in neighbour order.  Runs that lose synchronism
        # amplify rounding, so the summation order is fixed on purpose.
        edges = sorted((i, j, ln.susceptance) for ln in self.lines
                       for i, j in ((ln.from_bus, ln.to_bus), (ln.to_bus, ln.from_bus)))
        self._set_edges(*np.reshape(edges, (-1, 3)).T)
        if n > 1 and not self._connected():
            raise GridError("network graph is not connected")
        self.damping = _frozen([r.damping for r in self.roles])
        self.inertia_idx = _frozen(self.inertia_buses, int)
        self.load_idx = _frozen(self.load_buses, int)
        self.storage_idx = _frozen(self.storage_buses, int)
        # Each storage's position in omega (storage buses are inertia buses).
        self.storage_pos = _frozen(np.searchsorted(self.inertia_idx, self.storage_idx),
                                   int)
        # Machine inertia per inertia bus.  A storage's inertia is a control
        # input, so its entry is a 0 placeholder the caller must overwrite.
        self.generator_inertia = _frozen([getattr(self.roles[i], "inertia", 0.0)
                                          for i in self.inertia_buses])
        self.power_bounds = storage_bounds("power_bounds")
        self.inertia_bounds = storage_bounds("inertia_bounds")
        self.energy_bounds = storage_bounds("energy_bounds")
        self.initial_energy = _frozen([self.roles[i].initial_energy
                                       for i in self.storage_buses])

    def _set_edges(self, bus, nbr, b) -> None:
        """Line ends in summation order: each bus adds up its flows in this order."""
        n = self.n_buses
        self.edge_bus = _frozen(bus, int)
        self.edge_nbr = _frozen(nbr, int)
        self.edge_b = _frozen(b)
        # Flat (N, N) positions of each end's Jacobian entries: -b cos at
        # (bus, neighbour), then +b cos on the bus's diagonal.
        self._jac_index = np.concatenate([self.edge_bus * n + self.edge_nbr,
                                          self.edge_bus * (n + 1)])

    def split(self, assignment: Sequence[int]) -> tuple["GridModel", np.ndarray]:
        """This grid with its tie lines cut: (split grid, (area, bus) per ghost).

        `assignment` maps each bus to an area; a tie line joins two areas.
        Each area gets one ghost bus per foreign bus at the far end of its
        tie lines, numbered from N in (area, bus) order: a load bus with no
        injection.  Every tie end's line leads to its ghost instead, at the
        same place in the bus's summation order, so a bus whose ghosts hold
        the foreign angles has bitwise the flows it has here.  The ghosts'
        own lines come after all others.  The split grid skips the
        connectivity check: each area and its ghosts are one component.
        Without tie lines the split grid is this grid.
        """
        n, area = self.n_buses, [int(a) for a in assignment]
        bus, nbr, b = self.edge_bus.tolist(), self.edge_nbr.tolist(), self.edge_b.tolist()
        ties = [e for e, (i, j) in enumerate(zip(bus, nbr)) if area[i] != area[j]]
        if not ties:
            return self, np.zeros((0, 2), dtype=int)
        ghosts = sorted({(area[bus[e]], nbr[e]) for e in ties})
        ghost_of = {end: n + g for g, end in enumerate(ghosts)}
        for e in ties:
            nbr[e] = ghost_of[(area[bus[e]], nbr[e])]
        # The ghosts' ends, by ghost and then bus.
        ends = sorted((nbr[e], bus[e], b[e]) for e in ties)
        n_g = len(ghosts)
        split = GridModel.__new__(GridModel)
        split.__dict__.update(self.__dict__)
        split.roles = self.roles + (LoadBus(1.0),) * n_g
        split.injections = _frozen(np.concatenate([self.injections, np.zeros(n_g)]))
        split.load_buses = self.load_buses + tuple(range(n, n + n_g))
        split.load_idx = _frozen(split.load_buses, int)
        split.damping = _frozen(np.concatenate([self.damping, np.ones(n_g)]))
        g_bus, g_nbr, g_b = map(list, zip(*ends))
        split._set_edges(bus + g_bus, nbr + g_nbr, b + g_b)
        split.lines = tuple(ln for ln in self.lines
                            if area[ln.from_bus] == area[ln.to_bus]) \
            + tuple(Line(i, g, x) for g, i, x in ends)
        return split, np.array(ghosts, dtype=int)

    # -- structure -----------------------------------------------------

    @property
    def n_buses(self) -> int:
        return len(self.roles)

    def storage_role(self, bus: int) -> StorageBus:
        role = self.roles[bus]
        if not isinstance(role, StorageBus):
            raise GridError(f"bus {bus} is not a storage bus")
        return role

    def _validate(self) -> None:
        n = self.n_buses
        for i, role in enumerate(self.roles):
            role.validate(i)
        seen: set[frozenset[int]] = set()
        for ln in self.lines:
            ln.validate()
            if not (0 <= ln.from_bus < n and 0 <= ln.to_bus < n):
                raise GridError(
                    f"line {ln.from_bus}-{ln.to_bus} references an unknown bus")
            key = frozenset((ln.from_bus, ln.to_bus))
            if key in seen:
                raise GridError(
                    f"duplicate line between buses {ln.from_bus} and {ln.to_bus}; "
                    "parallel lines must be pre-aggregated")
            seen.add(key)
        if n > 0 and (self.reference_bus is None or not 0 <= self.reference_bus < n):
            raise GridError(f"reference bus {self.reference_bus} is not a valid bus")

    def _connected(self) -> bool:
        start = np.searchsorted(self.edge_bus, np.arange(self.n_buses + 1))
        seen, stack = {0}, [0]
        while stack:
            i = stack.pop()
            new = set(self.edge_nbr[start[i]:start[i + 1]].tolist()) - seen
            seen |= new
            stack.extend(new)
        return len(seen) == self.n_buses

    # -- injections ----------------------------------------------------

    def injections_at(self, t, events: Sequence[DisturbanceEvent] = ()) -> np.ndarray:
        """Nominal injections with every disturbance active at time t applied.

        An array of times gives one row of injections per time.
        """
        if isinstance(t, np.ndarray):
            p = np.tile(self.injections, t.shape + (1,))
            for ev in events:
                p[t >= ev.onset, ev.bus] += ev.delta_p
            return p
        p = self.injections.copy()
        for ev in events:
            if t >= ev.onset:
                p[ev.bus] += ev.delta_p
        return p

    def net_injections(self, storage_power: Optional[np.ndarray] = None) -> np.ndarray:
        """P^0 plus the given storage powers added at the storage buses."""
        p = self.injections.copy()
        if storage_power is not None:
            sp = np.asarray(storage_power, dtype=float)
            if sp.shape != (len(self.storage_buses),):
                raise GridError(
                    f"storage_power has shape {sp.shape}, expected "
                    f"({len(self.storage_buses)},)")
            p[self.storage_idx] += sp
        return p

    # -- flows ---------------------------------------------------------

    def outflow(self, angles: np.ndarray) -> np.ndarray:
        """Power each bus sends into the network: sum_j b_ij sin(d_i - d_j).

        `angles` (..., N) may stack states along leading axes.
        """
        flow = self.edge_b * np.sin(angles.take(self.edge_bus, -1)
                                   - angles.take(self.edge_nbr, -1))
        return _bincount(self.edge_bus, flow, self.n_buses)

    def outflow_jacobian(self, angles: np.ndarray) -> np.ndarray:
        """(..., N, N) derivative of `outflow` with respect to the angles."""
        n = self.n_buses
        c = self.edge_b * np.cos(angles.take(self.edge_bus, -1) - angles.take(self.edge_nbr, -1))
        jac = _bincount(self._jac_index, np.concatenate([-c, c], axis=-1), n * n)
        return jac.reshape(jac.shape[:-1] + (n, n))


def _frozen(values, dtype=float) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


def _bincount(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """np.bincount(index, w, size) of every row w of `weights` (..., len(index)).

    Each row is summed alone and in index order, so a stacked state gives
    bitwise the sums of the single states.
    """
    if weights.ndim == 1:
        return np.bincount(index, weights, size)
    lead = weights.shape[:-1]
    rows = int(np.prod(lead))
    bins = (size * np.arange(rows)[:, None] + index).ravel()
    return np.bincount(bins, weights.ravel(), rows * size).reshape(lead + (size,))


def solve_equilibrium(grid: GridModel, storage_power: Optional[np.ndarray] = None,
                      tol: float = 1e-12, max_iter: int = 50) -> np.ndarray:
    """Angles at which every bus's net injection matches its network outflow.

    Solves the lossless power-flow equations by damped Newton iteration with
    the reference-bus angle pinned to zero.  `storage_power` gives the
    operating-point injection of each storage bus (zero if omitted).
    """
    n = grid.n_buses
    if n == 0:
        return np.zeros(0)
    p = grid.net_injections(storage_power)
    if abs(float(np.sum(p))) > 1e-9:
        raise GridError(
            f"net injections sum to {float(np.sum(p)):.3e}; a lossless steady "
            "state requires balance within 1e-9")

    ref = grid.reference_bus
    free = np.array([i for i in range(n) if i != ref], dtype=int)
    angles = np.zeros(n)
    if free.size == 0:
        return angles

    def residual(a: np.ndarray) -> np.ndarray:
        return (p - grid.outflow(a))[free]

    r = residual(angles)
    for _ in range(max_iter):
        if float(np.max(np.abs(r))) < tol:
            return angles
        jac = grid.outflow_jacobian(angles)[np.ix_(free, free)]
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise EquilibriumError(f"singular power-flow Jacobian: {exc}") from exc
        # Damping by halving until the residual norm decreases.
        norm = float(np.linalg.norm(r))
        scale = 1.0
        for _ in range(30):
            trial = angles.copy()
            trial[free] += scale * step
            r_trial = residual(trial)
            if float(np.linalg.norm(r_trial)) < norm:
                angles, r = trial, r_trial
                break
            scale *= 0.5
        else:
            raise EquilibriumError("Newton step failed to reduce the residual")
    if float(np.max(np.abs(r))) < tol:
        return angles
    raise EquilibriumError(
        f"power flow did not converge in {max_iter} iterations "
        f"(residual {float(np.max(np.abs(r))):.3e})")
