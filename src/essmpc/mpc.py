"""Receding-horizon control of storage power and virtual inertia.

Each control step linearizes the discretized dynamics around a nominal
rollout, solves a convex program for the storage set-points over K steps
(sequential linearization with trust regions), applies the first step, and
repeats.  Frequency magnitudes enter the cost through epigraph slacks.  The
energy allowance (running-sum rows) and any frequency limits are soft, so
every horizon program is feasible; only the energy penalty is exact.

The horizon program is posed for an area: a set of own buses, plus the
foreign buses at the far end of its tie lines, whose angles drive it as a
given forcing.  The SQP outer loop is written once (`_SqpController`), over
a list of areas; a controller supplies only the solve of the linearized
areas.  The centralized controller here is the one-area case: the whole
grid, with no foreign buses, solved as one program.  The distributed
controller (`dmpc`) assembles the same program per area, where the foreign
angles become copy columns that its consensus rounds tie to the
neighbours' own angles.  Both log one `StepRecord` per control step.

A controller's areas live on the split grid (`GridModel.split`), where each
tie line ends at a ghost bus of the area instead of the foreign bus, and
the ghosts carry the forcing.  So one rollout and one stacked Jacobian of
the split grid per SQP iteration give every area bitwise the model it
would get alone; each area's `LtvModel` is a slice of it.  Without tie
lines the split grid is the grid.

A horizon program is built in two parts.  Its structure (`_HorizonStructure`)
depends only on the area and the configuration: column offsets, costs,
constant rows, and where each linearization's values go, and a distributed
area's consensus hooks.  Every inequality row's right-hand side is the one
formula sign * (c - v[at]): per row a sign, a constant and an index into the
vector v of the linearization's nominal frequencies, energies and controls.
A fill writes one linearization's values into a new program of that
structure.  A controller builds one structure per area and keeps it, with
one `QpWorkspace` per area and one warm start per area and SQP iteration,
for its own lifetime, so an SQP iteration computes values only: the
workspace factors one KKT matrix per loaded program as a rule, laid out
from its non-zeros, and borders that factor for every other working set.
The linearization differentiates its K Euler steps as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .dynamics import (ControlInput, SystemState, _clamp_power, _first_outside,
                       euler_step, swing_jacobian)
from .grid import DisturbanceEvent, GridModel
from .qp import TIE_BREAK, ConvexProgram, QpWorkspace, SolveReport, WarmStart

__all__ = [
    "MpcConfigError",
    "SqpSettings",
    "StorageRegime",
    "MpcConfig",
    "LtvModel",
    "HorizonProgram",
    "StepRecord",
    "linearize_dynamics",
    "assemble_horizon_program",
    "MpcController",
]

# Tiny diagonal cost keeping the subproblem strictly convex, so a non-unique
# LP optimum resolves to one deterministic point; qp.py's dual active set
# requires every curvature > 0.  As qp.py's tie-break, it also makes a cold
# solve seed the dual active set from the HiGHS vertex of the linear part.
_REGULARIZATION = TIE_BREAK
# Cost per unit of a soft slack, as a multiple of the program's largest linear
# cost (of the tie-break when every cost is 0): above a storage's energy-row
# multiplier sum (under 3 times that cost on the bundled runs), so exact there,
# but below a binding frequency limit's (72 times at two-bus step 0), which the
# solve relaxes.  At 100 and 1000 times such warm solves end uncertified.
_PENALTY = 10.0


class MpcConfigError(ValueError):
    """Raised for self-contradictory controller configuration."""


@dataclass(frozen=True)
class SqpSettings:
    outer_iterations: int = 3
    power_trust_region: float = 0.5    # p.u. per subproblem
    inertia_trust_region: float = 2.0  # seconds per subproblem
    tolerance: float = 1e-6            # control change declaring convergence

    def validate(self) -> None:
        """Reject an out-of-range (or NaN) setting; the message starts with its name."""
        if not self.outer_iterations >= 1:
            raise MpcConfigError("outer_iterations: must be >= 1")
        for name in ("power_trust_region", "inertia_trust_region"):
            if not getattr(self, name) > 0.0:
                raise MpcConfigError(f"{name}: must be > 0")
        if not self.tolerance >= 0.0:
            raise MpcConfigError("tolerance: must be >= 0")


@dataclass(frozen=True)
class StorageRegime:
    """Which storage set-points the optimizer may move."""

    power_free: bool = True
    inertia_free: bool = True


@dataclass
class MpcConfig:
    """Horizon, costs, bases, solver settings and one storage regime, which
    every storage of the controller follows."""

    horizon: float                     # T_h, seconds
    step: float                        # T_s, seconds
    reference_power: np.ndarray        # per storage, p.u.
    reference_inertia: np.ndarray      # per storage, seconds
    power_cost: np.ndarray             # c_p per storage
    inertia_cost: np.ndarray           # c_m per storage
    frequency_cost: float = 1.0        # c_g, shared by all monitored buses
    power_base: Optional[float] = None     # P_b; default max |power bound|
    inertia_base: Optional[float] = None   # M_b; default max M_e_max
    omega_limits: dict[int, float] = field(default_factory=dict)
    regime: StorageRegime = StorageRegime()
    sqp: SqpSettings = field(default_factory=SqpSettings)
    absolute_effort: bool = False
    qp_tol: float = 1e-8

    @property
    def k_steps(self) -> int:
        return int(round(self.horizon / self.step))

    @classmethod
    def create(cls, grid: GridModel, horizon: float, step: float,
               reference_power, reference_inertia,
               power_cost=0.0, inertia_cost=0.0, frequency_cost: float = 1.0,
               **kwargs) -> "MpcConfig":
        """Build a config, broadcasting scalars over the grid's storages."""
        n_s = len(grid.storage_buses)

        def arr(v):
            a = np.asarray(v, dtype=float)
            return np.full(n_s, float(a)) if a.ndim == 0 else a.copy()

        cfg = cls(horizon=horizon, step=step,
                  reference_power=arr(reference_power),
                  reference_inertia=arr(reference_inertia),
                  power_cost=arr(power_cost), inertia_cost=arr(inertia_cost),
                  frequency_cost=float(frequency_cost), **kwargs)
        cfg.validate(grid)
        return cfg

    def validate(self, grid: GridModel) -> None:
        n_s = len(grid.storage_buses)
        for name in ("horizon", "step"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise MpcConfigError(f"{name}: must be finite and > 0")
        if self.k_steps < 1:
            raise MpcConfigError(
                f"horizon: {self.horizon} with step {self.step} yields no stages")
        for name in ("reference_power", "reference_inertia", "power_cost",
                     "inertia_cost"):
            v = getattr(self, name)
            if np.asarray(v).shape != (n_s,):
                raise MpcConfigError(f"{name}: must have one entry per storage bus")
        for name in ("power_cost", "inertia_cost", "frequency_cost"):
            if not np.all(np.asarray(getattr(self, name)) >= 0.0):
                raise MpcConfigError(f"{name}: must be >= 0")
        for name in ("power_base", "inertia_base", "qp_tol"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise MpcConfigError(f"{name}: must be > 0")
        self.sqp.validate()
        for what, values, bounds in (("power", self.reference_power, grid.power_bounds),
                                     ("inertia", self.reference_inertia,
                                      grid.inertia_bounds)):
            s = _first_outside(values, bounds)
            if s is not None:
                raise MpcConfigError(
                    f"reference {what} {values[s]} for bus {grid.storage_buses[s]} "
                    f"outside bounds [{bounds[0, s]}, {bounds[1, s]}]")
        for bus, lim in self.omega_limits.items():
            if bus not in grid.inertia_buses:
                raise MpcConfigError(f"omega_limits[{bus}]: bus has no frequency state")
            if not lim > 0.0:
                raise MpcConfigError(f"omega_limits[{bus}]: must be > 0")

    def resolved_bases(self, grid: GridModel) -> tuple[float, float]:
        p_b = self.power_base
        if p_b is None:
            p_b = float(np.max(np.abs(grid.power_bounds), initial=0.0)) or 1.0
        m_b = self.inertia_base
        if m_b is None:
            m_b = float(np.max(grid.inertia_bounds[1], initial=0.0)) or 1.0
        return p_b, m_b

    def reference_matrix(self) -> np.ndarray:
        """Nominal control sequence (K, 2*n_s) holding the references."""
        row = np.concatenate([self.reference_power, self.reference_inertia])
        return np.tile(row, (self.k_steps, 1))


class _AreaView:
    """Index maps of one area: its own buses and storages, and its foreign buses.

    Foreign buses are the other areas' ends of its tie lines, or on a split
    grid the area's ghosts of them.  `rows` and `u_cols` are the area's
    positions in the whole-grid state [angles, omega] and control [power,
    inertia].  `copied` are the positions among its own buses of those that
    other areas' ghosts copy, one per ghost, in ghost order.  The whole grid
    is the one area that owns every bus and has no foreign buses.
    """

    def __init__(self, grid: GridModel, buses: Optional[Sequence[int]] = None,
                 foreign: Sequence[int] = (), index: int = 0, copied: Sequence[int] = ()):
        self.index = index
        self.buses = list(range(grid.n_buses)) if buses is None else list(buses)
        self.foreign = np.array(foreign, dtype=int)
        self.copied = np.array(copied, dtype=int)
        own = set(self.buses)
        omega_pos = [k for k, b in enumerate(grid.inertia_buses) if b in own]
        self.monitored = [grid.inertia_buses[k] for k in omega_pos]
        self.storages = np.array([s for s, b in enumerate(grid.storage_buses)
                                  if b in own], dtype=int)
        self.n, self.n_w = len(self.buses), len(omega_pos)
        self.n_f, self.n_s = self.foreign.size, self.storages.size
        self.nx, self.nu = self.n + self.n_w, 2 * self.n_s
        n_grid = grid.n_buses
        self.rows = np.array(self.buses + [n_grid + k for k in omega_pos], dtype=int)
        self.u_cols = np.concatenate([self.storages,
                                      len(grid.storage_buses) + self.storages])


@dataclass
class LtvModel:
    """Linear time-varying deviation model of one area around a nominal Euler rollout.

    x(k+1) = nominal(k+1) + A[k] dx(k) + A_foreign[k] df(k) + B[k] du(k), with
    dx(0) = 0 and df(0) = 0 by construction; df(k) is the deviation of the
    foreign angles from `forcing` at step k.  `states` holds the area's
    nominal trajectory (K+1 entries) and `energies` the exactly integrated
    nominal storage energy.  For the whole grid `A_foreign` and `forcing`
    have no columns.
    """

    A: np.ndarray          # (K, nx, nx)
    A_foreign: np.ndarray  # (K, nx, nf)
    B: np.ndarray          # (K, nx, nu)
    states: np.ndarray     # (K+1, nx) nominal [own angles, own omega]
    energies: np.ndarray   # (K+1, n_s)
    controls: np.ndarray   # (K, nu) nominal [power, inertia] of the area's storages
    forcing: np.ndarray    # (K, nf) foreign angles at steps 1..K
    ts: float


def linearize_dynamics(grid: GridModel, state: SystemState,
                       controls: np.ndarray, ts: float,
                       events: Sequence[DisturbanceEvent] = (),
                       area: Optional[list[_AreaView]] = None,
                       forcing: Optional[np.ndarray] = None
                       ) -> LtvModel | list[LtvModel]:
    """Roll out the nominal controls, then differentiate every Euler step at once.

    `state` and `controls` (K, 2*n_s) cover the whole grid.  Without
    `area` the result is the model of the whole grid.  Otherwise `area` is
    a list of areas that own none of each other's foreign buses, as on a
    split grid (`GridModel.split`), whose foreign buses are ghosts, and the
    result is one model per area, each bitwise the model of its area alone:
    the area's rows and storages.  After each step the foreign angles are
    overwritten with `forcing` (K, n_f), the areas' foreign angles side by
    side, so an area sees its neighbours only through them.  The K states
    the steps start from go to `swing_jacobian` as one stack.
    """
    areas = [_AreaView(grid)] if area is None else area
    foreign = np.concatenate([a.foreign for a in areas])
    n, n_s = grid.n_buses, len(grid.storage_buses)
    controls = np.asarray(controls, dtype=float)
    k_steps = controls.shape[0]
    expected = (k_steps, foreign.size)
    if forcing is None and not foreign.size:
        forcing = np.zeros(expected)
    if forcing is None or np.shape(forcing) != expected:
        got = "no forcing" if forcing is None else f"forcing of shape {np.shape(forcing)}"
        raise ValueError(f"{got} for {foreign.size} foreign buses over {k_steps} "
                         f"steps; expected (K, n_f) = {expected}")
    forcing = np.asarray(forcing, dtype=float)
    nx = n + len(grid.inertia_buses)

    states = np.empty((k_steps + 1, nx))
    energies = np.empty((k_steps + 1, n_s))
    times = np.empty(k_steps)
    current = state.copy()
    states[0] = np.concatenate([current.angles, current.omega])
    energies[0] = current.energy
    for k in range(k_steps):
        times[k] = current.t
        u = ControlInput(controls[k, :n_s], controls[k, n_s:])
        current = euler_step(grid, current, u, ts, events)
        current.t = (k + 1) * ts + state.t      # the plant's clock, not a running sum
        current.angles[foreign] = forcing[k]
        states[k + 1] = np.concatenate([current.angles, current.omega])
        energies[k + 1] = current.energy
    starts = SystemState(states[:-1, :n], states[:-1, n:], energies[:-1])
    j_x, j_u = swing_jacobian(grid, starts,
                              ControlInput(controls[:, :n_s], controls[:, n_s:]),
                              times, events)
    # I + ts J_x and ts J_u in place: a split grid's stack is the largest
    # array here, and every area keeps only its slice.
    j_x *= ts
    j_x += np.eye(nx)
    j_u *= ts
    models, first = [], 0
    for a in areas:
        rows = a.rows[:, None]
        models.append(LtvModel(j_x[:, rows, a.rows], j_x[:, rows, a.foreign],
                               j_u[:, rows, a.u_cols], states[:, a.rows],
                               energies[:, a.storages], controls[:, a.u_cols],
                               forcing[:, first:first + a.n_f].copy(), ts))
        first += a.n_f
    return models[0] if area is None else models


class _HorizonStructure:
    """What every program of one area shares: all but the values.

    Holds the column offsets, the costs, the inequality rows, the identity
    and pin entries of the equality rows, and where each linearization's
    values go: the A_k, A_foreign_k and B_k blocks, the pin right-hand
    sides, the inequality right-hand sides and the boxes.  `fill` writes one
    linearization into a new program, whose values alone give the kept
    `QpWorkspace` its KKT layouts.  The arrays programs share are
    read-only.  The hook columns hold, by step, the area's copied angles
    (`own_cols`) and its ghosts' copies (`copy_cols`); with a consensus
    `penalty` (rho, tau) and hooks, the curvature holds tau on every column
    and rho per hook, the quadratic part of the consensus terms.

    Inequality row i has the right-hand side b_in[i] = in_sign[i] *
    (in_c[i] - v[in_at[i]]), where v = [the area's omega at steps 1..K |
    its storage energies at steps 1..K | its controls at steps 0..K-1], each
    part step-major.  The constant `in_c` is 0 for epigraph and power-effort
    rows, sign * limit for frequency-limit rows, the bound for energy rows and
    m_ref for inertia-effort rows.

    Energy allowances and frequency limits are soft: one slack column per
    storage relaxes all its energy rows, and one per limited bus all its
    limit rows, at `_PENALTY` times the largest linear cost per unit, so
    every program is feasible.  The penalty is exact where that price exceeds
    the hard rows' multipliers (Kerrigan and Maciejowski, UKACC Control 2000):
    for the energy rows, whose slacks are 0 where the rows can hold, but not
    for a binding frequency limit, whose slack says how far it is exceeded.
    """

    def __init__(self, grid: GridModel, area: _AreaView, cfg: MpcConfig,
                 penalty: Optional[tuple[float, float]] = None):
        self.area, self.cfg = area, cfg
        k_steps, ts = cfg.k_steps, cfg.step
        n_s, n_u, n_x, n_f, n_mon = area.n_s, area.nu, area.nx, area.n_f, area.n_w
        power_bounds = grid.power_bounds[:, area.storages]
        inertia_bounds = grid.inertia_bounds[:, area.storages]
        self.energy_bounds = energy_bounds = grid.energy_bounds[:, area.storages]
        p_base, m_base = cfg.resolved_bases(grid)
        # Per monitored bus: its |w| limit, or 0 for none (a limit is > 0).
        limit = np.array([cfg.omega_limits.get(bus, 0.0) for bus in area.monitored])

        self.n_u, self.n_x = n_u, n_x
        self.off_x = off_x = k_steps * n_u
        self.off_copy = off_copy = off_x + k_steps * n_x
        off_slack = off_copy + k_steps * n_f
        off_ep = off_slack + k_steps * n_mon
        off_em = off_ep + k_steps * n_s
        self.off_soft = off_soft = off_em + k_steps * n_s if cfg.absolute_effort else off_ep
        n_total = off_soft + n_s + np.count_nonzero(limit)

        # -- cost -------------------------------------------------------------
        c_p = cfg.power_cost[area.storages] * ts / p_base
        c_m = cfg.inertia_cost[area.storages] * ts / m_base
        q = np.zeros(n_total)
        if cfg.absolute_effort:
            q[off_ep:off_soft] = np.concatenate([np.tile(c_p, k_steps),
                                                 np.tile(c_m, k_steps)])
        else:
            q[:off_x] = np.tile(np.concatenate([c_p, c_m]), k_steps)
        q[off_slack:off_ep] = cfg.frequency_cost * ts
        q[off_soft:] = _PENALTY * max(np.max(np.abs(q)), _REGULARIZATION)
        self.q = _frozen(q)
        k = np.arange(1, k_steps + 1)[:, None]
        self.own_cols = self.x_col(k, area.copied).ravel()
        self.copy_cols = self.copy_col(k, np.arange(n_f)).ravel()
        hooks = np.concatenate([self.own_cols, self.copy_cols])
        curvature = np.full(n_total, _REGULARIZATION)
        if penalty is not None and hooks.size:
            curvature += penalty[1]
            np.add.at(curvature, hooks, penalty[0])    # in turn where a column repeats
        self.curvature = _frozen(curvature)

        # -- equalities: dynamics, then pinned power and fixed inertia ---------
        self.fixed_cols = np.flatnonzero(np.repeat([not cfg.regime.power_free,
                                                    not cfg.regime.inertia_free], n_s))
        self.reference = cfg.reference_matrix()[:, area.u_cols]
        self.n_dyn = n_dyn = k_steps * n_x
        self.eq_shape = (n_dyn + k_steps * self.fixed_cols.size, n_total)
        # Flat positions in A_eq of the ones: the identity on dx, then the pins.
        self.ones_at = np.concatenate([
            np.arange(n_dyn) * (n_total + 1) + off_x,
            (n_dyn + np.arange(self.fixed_cols.size * k_steps)) * n_total
            + (self.fixed_cols[:, None] + n_u * np.arange(k_steps)).ravel()])
        # Flat positions in A_eq of -A_k and -A_foreign_k (k >= 1), then -B_k.
        k = np.arange(k_steps)[:, None, None]
        i = np.arange(n_x)[:, None]
        row = (k * n_x + i) * n_total
        self.dynamics_at = np.concatenate([
            (row + off_x + (k - 1) * n_x + np.arange(n_x))[1:].ravel(),
            (row + off_copy + (k - 1) * n_f + np.arange(n_f))[1:].ravel(),
            (row + k * n_u + np.arange(n_u)).ravel()])

        # -- inequalities, one block at a time from index arrays ---------------
        v_energy = k_steps * n_mon
        v_controls = v_energy + k_steps * n_s
        entries, per_row = [], []
        m_in = 0

        def add_block(row, col, value, slack_col, sign, c, at) -> None:
            """Row i of a block holds the entries (col, value) where row == i
            and -1 at slack_col[i]; its right-hand side is sign[i] * (c[i] -
            v[at[i]]) (see `fill`)."""
            nonlocal m_in
            r = m_in + np.arange(sign.size)
            entries.append((np.concatenate([m_in + row, r]), np.concatenate([col, slack_col]),
                            np.concatenate([value, -np.ones(r.size)])))
            per_row.append((sign, c, at))
            m_in += sign.size

        # Per step and monitored bus: |w| <= epigraph slack, then |w| <= limit
        # + soft slack if the bus is limited.
        k, i_mon, t = np.indices((k_steps, n_mon, 4)).reshape(3, -1)
        keep = (t < 2) | (limit[i_mon] > 0.0)
        k, i_mon, t = k[keep], i_mon[keep], t[keep]
        sign, epi = np.where(t % 2 == 0, 1.0, -1.0), t < 2
        soft_col = off_soft + n_s + np.cumsum(limit > 0.0) - 1
        add_block(np.arange(k.size), off_x + k * n_x + area.n + i_mon, sign,
                  np.where(epi, off_slack + k * n_mon + i_mon, soft_col[i_mon]),
                  sign, np.where(epi, 0.0, sign * limit[i_mon]), k * n_mon + i_mon)

        # Per storage, step k and finite side: +-ts * sum(du_p(0..k)) - soft
        # slack <= +-(E bound - E_nom(k + 1)).
        j, k, side = np.indices((n_s, k_steps, 2)).reshape(3, -1)
        bound = energy_bounds[1 - side, j]
        keep = np.isfinite(bound)
        j, k, side, bound = j[keep], k[keep], side[keep], bound[keep]
        sign = np.where(side == 0, 1.0, -1.0)
        row, term = np.nonzero(np.arange(k_steps) <= k[:, None])
        add_block(row, term * n_u + j[row], sign[row] * ts, off_soft + j,
                  sign, bound, v_energy + k * n_s + j)

        # Per step and storage: |p| <= e_p and |m - m_ref| <= e_m.
        if cfg.absolute_effort:
            k, j, t = np.indices((k_steps, n_s, 4)).reshape(3, -1)
            inertia, sign = t >= 2, np.where(t % 2 == 0, 1.0, -1.0)
            col = k * n_u + j + n_s * inertia
            add_block(np.arange(k.size), col, sign,
                      np.where(inertia, off_em, off_ep) + k * n_s + j, sign,
                      np.where(inertia, cfg.reference_inertia[area.storages][j], 0.0),
                      v_controls + col)

        a_in = np.zeros((m_in, n_total))
        for rows, cols, values in entries:
            a_in[rows, cols] = values
        self.a_in = _frozen(a_in)
        self.in_sign, self.in_c, self.in_at = (np.concatenate(x) for x in zip(*per_row))

        # -- boxes ------------------------------------------------------------------
        self.phys = np.hstack([power_bounds, inertia_bounds])
        lb = np.full(n_total, -np.inf)
        lb[off_slack:] = 0.0
        self.lb = _frozen(lb)

    # Column maps; k and the position may be index arrays.
    def x_col(self, k, i):
        if np.any(np.asarray(k) < 1):
            raise IndexError("state deviations start at k=1")
        return self.off_x + (k - 1) * self.n_x + i

    def copy_col(self, k, f):
        if np.any(np.asarray(k) < 1):
            raise IndexError("foreign-angle copies start at k=1")
        return self.off_copy + (k - 1) * self.area.n_f + f

    def fill(self, ltv: LtvModel) -> "HorizonProgram":
        """A new program of this structure holding the linearization's values.

        A pinned power follows the plant's clamp (`dynamics._clamp_power`)
        along the nominal energies, so the model commands what the plant
        applies at an exhausted allowance.
        """
        sqp, n_s = self.cfg.sqp, self.area.n_s
        a_eq = np.zeros(self.eq_shape)
        a_eq.reshape(-1)[self.ones_at] = 1.0
        a_eq.reshape(-1)[self.dynamics_at] = -np.concatenate(
            [ltv.A[1:].ravel(), ltv.A_foreign[1:].ravel(), ltv.B.ravel()])
        target = self.reference.copy()
        target[:, :n_s] = _clamp_power(target[:, :n_s], ltv.energies[:-1],
                                       self.energy_bounds)
        b_eq = np.zeros(a_eq.shape[0])
        b_eq[self.n_dyn:] = (target - ltv.controls)[:, self.fixed_cols].T.ravel()
        v = np.concatenate([ltv.states[1:, self.area.n:].ravel(), ltv.energies[1:].ravel(),
                            ltv.controls.ravel()])
        b_in = self.in_sign * (self.in_c - v[self.in_at])

        nom = ltv.controls
        phys_lo, phys_hi = self.phys
        radius = np.repeat([sqp.power_trust_region, sqp.inertia_trust_region], n_s)
        box_lo = np.maximum(phys_lo - nom, -radius)
        box_hi = np.minimum(phys_hi - nom, radius)
        # A fixed column is pinned by its equality rows alone: an lb == ub box
        # would pin it twice and make a working set holding both dependent.
        box_lo[:, self.fixed_cols] = -np.inf
        box_hi[:, self.fixed_cols] = np.inf
        lb = self.lb.copy()
        ub = np.full(lb.size, np.inf)
        lb[:self.off_x] = box_lo.ravel()
        ub[:self.off_x] = box_hi.ravel()

        prog = ConvexProgram(q=self.q, curvature=self.curvature, A_eq=a_eq, b_eq=b_eq,
                             A_in=self.a_in, b_in=b_in, lb=lb, ub=ub)
        return HorizonProgram(prog, ltv, self)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass
class HorizonProgram:
    """Assembled convex subproblem of one area plus the index maps back to physical names.

    Columns: [controls du(0..K-1) | own states dx(1..K) | foreign-angle
    copies df(1..K) | frequency slacks | effort slacks (absolute effort only)
    | soft slacks: one per storage, then one per limited bus].
    `prog` holds one linearization's values; `structure` is what it shares
    with the other programs of its area.
    """

    prog: ConvexProgram
    ltv: LtvModel
    structure: _HorizonStructure

    area = property(lambda self: self.structure.area)
    cfg = property(lambda self: self.structure.cfg)
    n_u = property(lambda self: self.structure.n_u)
    off_x = property(lambda self: self.structure.off_x)
    x_col = property(lambda self: self.structure.x_col)
    copy_col = property(lambda self: self.structure.copy_col)

    def u_col(self, k: int, j: int) -> int:
        return k * self.n_u + j

    def controls_from(self, z: np.ndarray) -> np.ndarray:
        """Physical control sequence (K, nu) from a solution vector."""
        k_steps = self.cfg.k_steps
        du = z[: k_steps * self.n_u].reshape(k_steps, self.n_u)
        return self.ltv.controls + du

    def soft_slack(self, z: np.ndarray) -> float:
        """The largest soft slack of a solution vector: how far it relaxes
        an energy allowance (p.u.*s) or a frequency limit."""
        return float(np.max(z[self.structure.off_soft:], initial=0.0))

    def omega_from(self, z: np.ndarray) -> np.ndarray:
        """Predicted frequency deviations (K, n_mon) at steps 1..K from a solution vector."""
        dx = z[self.off_x: self.structure.off_copy].reshape(self.cfg.k_steps,
                                                            self.structure.n_x)
        return (self.ltv.states[1:] + dx)[:, self.area.n:]


def assemble_horizon_program(grid: GridModel, ltv: LtvModel, cfg: MpcConfig,
                             structure: Optional[_HorizonStructure] = None
                             ) -> HorizonProgram:
    """Build the centralized K-step convex program in deviation variables:
    the one area that is the whole grid.

    Dynamics enter as one equality row per own state per step, and each
    pinned set-point as one equality per step, its column left unboxed.
    Inequality rows come in this order: frequency epigraph and limit rows
    (by step, then monitored bus), energy running sums (by storage, then
    step), and absolute-effort epigraph rows (by step, then storage).

    A controller passes its structure, of the same grid and configuration,
    to fill it again.
    """
    if structure is None:
        structure = _HorizonStructure(grid, _AreaView(grid), cfg)
    return structure.fill(ltv)


def _project_controls(grid: GridModel, controls: np.ndarray) -> np.ndarray:
    return np.clip(controls, *np.hstack([grid.power_bounds, grid.inertia_bounds]))


def _stage_cost(grid: GridModel, cfg: MpcConfig, area: _AreaView,
                controls: np.ndarray, omega: np.ndarray) -> tuple[float, float]:
    """(effort, performance) terms of the stage cost of one area over a horizon.

    `controls` (K, 2*n_s) are the area's [power, inertia] set-points and
    `omega` (K, n_w) its frequency deviations after each of the K steps.
    Each term adds its K stages up one at a time, in step order.
    """
    n_s = area.n_s
    p_base, m_base = cfg.resolved_bases(grid)
    ts = cfg.step
    c_p = cfg.power_cost[area.storages]
    c_m = cfg.inertia_cost[area.storages]
    p, m = controls[:, :n_s], controls[:, n_s:]
    if cfg.absolute_effort:
        p, m = np.abs(p), np.abs(m - cfg.reference_inertia[area.storages])
    effort = np.sum(c_p * p, axis=1) / p_base * ts + np.sum(c_m * m, axis=1) / m_base * ts
    performance = cfg.frequency_cost * ts * sum(np.sum(np.abs(omega), axis=1).tolist(), 0.0)
    return sum(effort.tolist(), 0.0), performance


def horizon_objective(grid: GridModel, cfg: MpcConfig, controls: np.ndarray,
                      omega: np.ndarray) -> tuple[float, float]:
    """(effort, performance) terms of the stage cost on a whole-grid run:
    `controls` (K, 2*n_s) and the frequencies `omega` (K, n_w) after each step."""
    return _stage_cost(grid, cfg, _AreaView(grid), controls, omega)


@dataclass
class StepRecord:
    """What one control step of either controller did.

    `residual_history`, one residual per consensus round (`iterations`
    counts them), stays empty for the centralized controller, and
    `qp_report` stays None for the distributed one.
    """

    applied: Optional[ControlInput] = None
    plan: Optional[np.ndarray] = None      # accepted control sequence (K, 2*n_s)
    sqp_iterations: int = 0                # SQP iterations that solved
    # Centralized: the SQP test (the plan moved less than
    # SqpSettings.tolerance).  Distributed: the last consensus round's
    # residual is below AdmmSettings.tolerance, whatever the SQP did.
    converged: bool = False
    non_optimal_solves: int = 0            # solves applied without a certificate
    slack: float = 0.0                     # largest `HorizonProgram.soft_slack` solved
    residual_history: list[float] = field(default_factory=list)
    area_objectives: list[float] = field(default_factory=list)  # F_a per area
    qp_report: Optional[SolveReport] = None    # the whole-grid solve's report

    @property
    def iterations(self) -> int:           # consensus rounds
        return len(self.residual_history)

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1] if self.residual_history else 0.0


class _SqpController:
    """The SQP outer loop over a controller's areas; subclasses supply `_solve`.

    The areas live on the split grid of `assignment` (default: one area,
    the whole grid), where each area's foreign buses are ghosts.  Each
    area's program structure is built once, with the consensus `penalty`
    (rho, tau) of a distributed controller.  Each iteration linearizes all
    areas at once against the forcing of the ghosts, has `_solve` return one
    (program, solution) pair per area, or None to keep the last plan, and
    writes the areas' controls back into the projected plan.
    """

    def __init__(self, grid: GridModel, cfg: MpcConfig,
                 events: Sequence[DisturbanceEvent] = (),
                 assignment: Optional[Sequence[int]] = None,
                 penalty: Optional[tuple[float, float]] = None):
        cfg.validate(grid)
        self.grid = grid
        self.cfg = cfg
        self.events = tuple(events)
        assignment = [0] * grid.n_buses if assignment is None else list(assignment)
        # (area, bus) of each ghost, split bus grid.n_buses + g; by area.
        self.split, self._ghosts = grid.split(assignment)
        owned: list[list[int]] = [[] for _ in range(max(assignment, default=0) + 1)]
        for bus, a in enumerate(assignment):
            owned[a].append(bus)
        # Per area: the ghosts that copy its buses, in ghost order.
        owner = np.asarray(assignment, dtype=int)[self._ghosts[:, 1]]
        self._copied = [np.flatnonzero(owner == a) for a in range(len(owned))]
        first = np.searchsorted(self._ghosts[:, 0], np.arange(len(owned) + 1))
        self.areas = [_AreaView(self.split, buses,
                                grid.n_buses + np.arange(first[a], first[a + 1]), a,
                                np.searchsorted(buses, self._ghosts[self._copied[a], 1]))
                      for a, buses in enumerate(owned)]
        self.log: list[StepRecord] = []
        self._plan: Optional[np.ndarray] = None
        self._penalty = penalty
        # Per area index, from its first program on: the workspace laid out
        # for it and one warm start per SQP iteration reached.
        self._kept: dict[int, tuple[QpWorkspace, list[WarmStart]]] = {}

    @cached_property
    def _structures(self) -> list[_HorizonStructure]:
        """Each area's program structure, built at the first solve and kept."""
        return [_HorizonStructure(self.grid, area, self.cfg, self._penalty)
                for area in self.areas]

    def _start(self, state: SystemState) -> None:
        """Set-up of one control step, before its first linearization."""

    def _forcing(self) -> Optional[np.ndarray]:
        """The ghosts' angles (K, n_ghosts) at steps 1..K."""
        return None

    def _split_state(self, state: SystemState) -> SystemState:
        """`state` on the split grid: each ghost starts at its bus's angle."""
        angles = np.concatenate([state.angles, state.angles[self._ghosts[:, 1]]])
        return SystemState(angles, state.omega, state.energy, state.t)

    def _solve(self, ltvs: list[LtvModel], record: StepRecord
               ) -> Optional[list[tuple[HorizonProgram, np.ndarray]]]:
        raise NotImplementedError

    def _converged(self, record: StepRecord, sqp_converged: bool) -> bool:
        return sqp_converged

    def _workspace(self, hp: HorizonProgram, iteration: int
                   ) -> tuple[QpWorkspace, WarmStart]:
        """The area's workspace loaded with `hp.prog`, and the warm start of
        SQP iteration `iteration`, whose KKT layout the workspace takes.

        Iteration i of a control step starts from what iteration i of the
        step before left: its multipliers and its KKT layout with their
        kept column order.  An iteration reached for the first time starts
        from the area's latest multipliers, those of iteration i - 1 in
        this step, with no layout.  The area's first program gets the
        workspace, laid out from the program's non-zeros, and its first
        solve starts cold.
        """
        kept = self._kept.get(hp.area.index)
        if kept is None:
            kept = self._kept[hp.area.index] = (QpWorkspace(hp.prog), [])
        else:
            kept[0].load(hp.prog)
        workspace, starts = kept
        if iteration == len(starts):
            starts.append(WarmStart(starts[-1].y if starts else None))
        workspace.layout = starts[iteration].layout
        return workspace, starts[iteration]

    def __call__(self, step: int, state: SystemState) -> ControlInput:
        grid, cfg = self.grid, self.cfg
        self._start(state)
        plan = cfg.reference_matrix() if self._plan is None else self._plan
        record = StepRecord()
        split_state = self._split_state(state)
        solved: list[tuple[HorizonProgram, np.ndarray]] = []
        sqp_converged = False
        for _ in range(cfg.sqp.outer_iterations):
            ltvs = linearize_dynamics(self.split, split_state, plan, cfg.step,
                                      self.events, self.areas, self._forcing())
            result = self._solve(ltvs, record)
            if result is None:
                break
            solved = result
            record.sqp_iterations += 1
            new_plan = plan.copy()
            for hp, x in solved:
                new_plan[:, hp.area.u_cols] = hp.controls_from(x)
            new_plan = _project_controls(grid, new_plan)
            change = float(np.max(np.abs(new_plan - plan), initial=0.0))
            plan = new_plan
            if change < cfg.sqp.tolerance:
                sqp_converged = True
                break

        record.converged = self._converged(record, sqp_converged)
        record.slack = max((hp.soft_slack(x) for hp, x in solved), default=0.0)
        # F_a on the area's solved horizon: the accepted plan and the
        # QP-predicted frequencies.
        record.area_objectives = [
            sum(_stage_cost(grid, cfg, hp.area, plan[:, hp.area.u_cols],
                            hp.omega_from(x)))
            for hp, x in solved]
        n_s = len(grid.storage_buses)
        record.plan = plan
        record.applied = ControlInput(plan[0, :n_s].copy(), plan[0, n_s:].copy())
        self.log.append(record)
        self._plan = np.vstack([plan[1:], plan[-1:]])
        return record.applied


class MpcController(_SqpController):
    """Centralized controller: one warm-started solve of the whole-grid program.

    Each SQP iteration's solve starts from the same iteration's one control
    step earlier (see `_workspace`).
    """

    def _solve(self, ltvs: list[LtvModel], record: StepRecord
               ) -> list[tuple[HorizonProgram, np.ndarray]]:
        hp = assemble_horizon_program(self.grid, ltvs[0], self.cfg, self._structures[0])
        workspace, start = self._workspace(hp, record.sqp_iterations)
        report = workspace.solve(tol=self.cfg.qp_tol, y0=start.y)
        record.non_optimal_solves += report.status != "optimal"
        record.qp_report = report
        start.y, start.status = report.y_stacked, report.status
        return [(hp, report.x)]
