"""Receding-horizon control of storage power and virtual inertia.

Each control step linearizes the discretized dynamics around a nominal
rollout, solves a convex program for the storage set-points over K steps
(sequential linearization with trust regions), applies the first step, and
repeats.  Frequency magnitudes enter the cost through epigraph slacks; the
energy allowance is enforced with running-sum rows.

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
depends only on the area, the configuration and which storages are
saturated: column offsets, costs, constant rows, and where each
linearization's values go, and a distributed area's consensus hooks.  A
fill writes one linearization's values into a new program of that
structure.  A controller keeps one structure and one `QpWorkspace` per
area for its own lifetime, so an SQP iteration computes values only: the
workspace factors one KKT matrix per loaded program as a rule, laid out
from its non-zeros, and borders that factor for every other working set.
The linearization differentiates its K Euler steps as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import (ControlInput, SystemState, Trajectory, _first_outside,
                       euler_step, simulate, swing_jacobian)
from .grid import DisturbanceEvent, GridModel
from .qp import ConvexProgram, QpWorkspace, SolveReport

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
    "receding_horizon_run",
]

# Tiny diagonal cost keeping the subproblem strictly convex, so a non-unique
# LP optimum resolves to one deterministic point; qp.py's dual active set
# requires every curvature > 0.  At or below qp_tol it also makes a cold solve
# seed the dual active set from the HiGHS vertex of the linear part.
_REGULARIZATION = 1e-8


class MpcConfigError(ValueError):
    """Raised for self-contradictory controller configuration."""


@dataclass(frozen=True)
class SqpSettings:
    outer_iterations: int = 3
    power_trust_region: float = 0.5    # p.u. per subproblem
    inertia_trust_region: float = 2.0  # seconds per subproblem
    tolerance: float = 1e-6            # control change declaring convergence

    def validate(self) -> None:
        """Reject an out-of-range setting; the message starts with its name."""
        if self.outer_iterations < 1:
            raise MpcConfigError("outer_iterations: must be >= 1")
        for name in ("power_trust_region", "inertia_trust_region"):
            if getattr(self, name) <= 0.0:
                raise MpcConfigError(f"{name}: must be > 0")
        if self.tolerance < 0.0:
            raise MpcConfigError("tolerance: must be >= 0")


@dataclass(frozen=True)
class StorageRegime:
    """Which storage set-points the optimizer may move."""

    power_free: bool = True
    inertia_free: bool = True


@dataclass
class MpcConfig:
    """Horizon, costs, bases, regimes, and solver settings for one controller."""

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
    regimes: tuple[StorageRegime, ...] = ()
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

        regimes = kwargs.pop("regimes", None)
        regimes = (StorageRegime(),) * n_s if regimes is None else tuple(regimes)
        cfg = cls(horizon=horizon, step=step,
                  reference_power=arr(reference_power),
                  reference_inertia=arr(reference_inertia),
                  power_cost=arr(power_cost), inertia_cost=arr(inertia_cost),
                  frequency_cost=float(frequency_cost), regimes=regimes, **kwargs)
        cfg.validate(grid)
        return cfg

    def validate(self, grid: GridModel) -> None:
        n_s = len(grid.storage_buses)
        if self.k_steps < 1:
            raise MpcConfigError(
                f"horizon {self.horizon} with step {self.step} yields no stages")
        for name in ("reference_power", "reference_inertia", "power_cost",
                     "inertia_cost"):
            v = getattr(self, name)
            if np.asarray(v).shape != (n_s,):
                raise MpcConfigError(f"{name} must have one entry per storage bus")
        if len(self.regimes) != n_s:
            raise MpcConfigError("regimes must have one entry per storage bus")
        if np.any(self.power_cost < 0.0) or np.any(self.inertia_cost < 0.0) \
                or self.frequency_cost < 0.0:
            raise MpcConfigError("cost coefficients must be >= 0")
        if self.power_base is not None and self.power_base <= 0.0:
            raise MpcConfigError("power base must be > 0")
        if self.inertia_base is not None and self.inertia_base <= 0.0:
            raise MpcConfigError("inertia base must be > 0")
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
                raise MpcConfigError(f"omega limit on bus {bus}, which has no "
                                     "frequency state")
            if lim <= 0.0:
                raise MpcConfigError(f"omega limit at bus {bus} must be > 0")

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


def _energy_rows_feasible(e0: float, bounds: tuple[float, float],
                          lo: np.ndarray, hi: np.ndarray, ts: float) -> bool:
    """Interval arithmetic over the horizon: can the running sum stay in bounds?"""
    e_lo, e_hi = bounds
    reach_lo, reach_hi = e0, e0
    for k in range(lo.size):
        reach_lo = max(reach_lo + ts * lo[k], e_lo)
        reach_hi = min(reach_hi + ts * hi[k], e_hi)
        if reach_lo > reach_hi + 1e-12:
            return False
    return True


def _energy_key(grid: GridModel, area: _AreaView, ltv: LtvModel, cfg: MpcConfig
                ) -> tuple[tuple[int, ...], tuple]:
    """(widened, key) of one linearization of an area.

    `widened` are the area storages whose power trust region is dropped:
    the power channel is linear in the model, so trust regions never get to
    make the energy rows infeasible.  Storages no power can keep feasible
    are saturated: their energy rows are dropped and their power is pinned.
    The key is everything the program's structure depends on beyond the
    area and the configuration: the step, the saturated storages, and any
    widened storage with an infinite power bound, whose box side then has
    no row.
    """
    k_steps, ts = cfg.k_steps, ltv.ts
    power_bounds = grid.power_bounds[:, area.storages]
    energy_bounds = grid.energy_bounds[:, area.storages]
    widened: list[int] = []
    saturated: list[int] = []
    for j, s in enumerate(area.storages):
        p_lo, p_hi = power_bounds[:, j]
        e_bounds = energy_bounds[:, j]
        e0 = float(ltv.energies[0, j])
        if cfg.regimes[s].power_free:
            nomin = ltv.controls[:, j]
            r_p = cfg.sqp.power_trust_region
            box_lo = np.maximum(p_lo, nomin - r_p)
            box_hi = np.minimum(p_hi, nomin + r_p)
            if not _energy_rows_feasible(e0, e_bounds, box_lo, box_hi, ts):
                widened.append(j)
                if not _energy_rows_feasible(e0, e_bounds, np.full(k_steps, p_lo),
                                             np.full(k_steps, p_hi), ts):
                    saturated.append(j)
        else:
            pin = float(cfg.reference_power[s])
            if not _energy_rows_feasible(e0, e_bounds, np.full(k_steps, pin),
                                         np.full(k_steps, pin), ts):
                saturated.append(j)
    unbounded = tuple(j for j in widened if not np.all(np.isfinite(power_bounds[:, j])))
    return tuple(widened), (ts, tuple(saturated), unbounded)


class _HorizonStructure:
    """What every program of one area and key shares: all but the values.

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
    """

    def __init__(self, grid: GridModel, area: _AreaView, cfg: MpcConfig, key: tuple,
                 penalty: Optional[tuple[float, float]] = None):
        ts, saturated, _unbounded = key
        self.area, self.cfg, self.key, self.saturated = area, cfg, key, saturated
        k_steps = cfg.k_steps
        n_s, n_u, n_x, n_f, n_mon = area.n_s, area.nu, area.nx, area.n_f, area.n_w
        power_bounds = grid.power_bounds[:, area.storages]
        inertia_bounds = grid.inertia_bounds[:, area.storages]
        energy_bounds = grid.energy_bounds[:, area.storages]
        p_base, m_base = cfg.resolved_bases(grid)

        self.n_u, self.n_x = n_u, n_x
        self.off_x = off_x = k_steps * n_u
        self.off_copy = off_copy = off_x + k_steps * n_x
        off_slack = off_copy + k_steps * n_f
        off_ep = off_slack + k_steps * n_mon
        off_em = off_ep + k_steps * n_s
        n_total = off_em + k_steps * n_s if cfg.absolute_effort else off_ep

        # -- cost -------------------------------------------------------------
        step = cfg.step
        c_p = cfg.power_cost[area.storages] * step / p_base
        c_m = cfg.inertia_cost[area.storages] * step / m_base
        q = np.zeros(n_total)
        if cfg.absolute_effort:
            q[off_ep:] = np.concatenate([np.tile(c_p, k_steps), np.tile(c_m, k_steps)])
        else:
            q[:off_x] = np.tile(np.concatenate([c_p, c_m]), k_steps)
        q[off_slack:off_ep] = cfg.frequency_cost * step
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
        pinned = {j: min(max(0.0, power_bounds[0, j]), power_bounds[1, j])
                  if j in saturated else float(cfg.reference_power[s])
                  for j, s in enumerate(area.storages)
                  if j in saturated or not cfg.regimes[s].power_free}
        fixed = [(j, pinned[j]) for j in sorted(pinned)] \
            + [(n_s + j, cfg.reference_inertia[s]) for j, s in enumerate(area.storages)
               if not cfg.regimes[s].inertia_free]
        self.fixed_cols = np.array([c for c, _ in fixed], dtype=int)
        self.target = np.array([v for _, v in fixed])
        self.n_dyn = n_dyn = k_steps * n_x
        self.eq_shape = (n_dyn + k_steps * len(fixed), n_total)
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
        # Per block: entries (row, col, value) and its right-hand side as a
        # function of the linearization.
        entries: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.rhs: list[Callable[[LtvModel], np.ndarray]] = []
        m_in = 0

        def add_block(rows, cols, values, size, rhs) -> None:
            nonlocal m_in
            entries.append((m_in + rows, cols, values))
            self.rhs.append(rhs)
            m_in += size

        # Per step and monitored bus: |w| <= slack, then |w| <= limit if set.
        per_step = []    # (monitored index, sign, epigraph row?) for one step
        limit = np.zeros(n_mon)
        for i, bus in enumerate(area.monitored):
            per_step += [(i, 1.0, True), (i, -1.0, True)]
            if bus in cfg.omega_limits:
                limit[i] = cfg.omega_limits[bus]
                per_step += [(i, 1.0, False), (i, -1.0, False)]
        if per_step:
            i_mon, sign, epi = (np.tile(np.array(v), k_steps) for v in zip(*per_step))
            k = np.repeat(np.arange(k_steps), len(per_step))     # step k + 1
            r = np.arange(i_mon.size)

            def frequency_rhs(ltv: LtvModel, at=(k + 1, area.n + i_mon), sign=sign,
                              epi=epi, limit=limit[i_mon]) -> np.ndarray:
                w_nom = ltv.states[at]
                return np.where(epi, -sign * w_nom, limit - sign * w_nom)

            add_block(np.concatenate([r, r[epi]]),
                      np.concatenate([off_x + k * n_x + area.n + i_mon,
                                      off_slack + (k * n_mon + i_mon)[epi]]),
                      np.concatenate([sign, -np.ones(int(epi.sum()))]),
                      i_mon.size, frequency_rhs)

        # Per storage and step k: +-ts * sum(du_p(0..k-1)) <= +-(E bound - E_nom(k)).
        k_row, k_term = np.tril_indices(k_steps)
        for j in range(n_s):
            if j in saturated:
                continue
            e_lo, e_hi = energy_bounds[:, j]
            sides = [(sgn, e) for sgn, e in ((1.0, e_hi), (-1.0, e_lo)) if np.isfinite(e)]
            if not sides:
                continue
            sign, bound = np.array(sides).T

            def energy_rhs(ltv: LtvModel, j=j, sign=sign, bound=bound) -> np.ndarray:
                return (sign * (bound - ltv.energies[1:, j, None])).ravel()

            add_block((k_row[:, None] * sign.size + np.arange(sign.size)).ravel(),
                      np.repeat(k_term * n_u + j, sign.size),
                      np.tile(sign * ts, k_row.size),
                      k_steps * sign.size, energy_rhs)

        # Per step and storage: |p| <= e_p and |m - m_ref| <= e_m.
        if cfg.absolute_effort:
            k, j, t = (a.ravel() for a in np.meshgrid(
                np.arange(k_steps), np.arange(n_s), np.arange(4), indexing="ij"))
            inertia = t >= 2
            sign = np.where(t % 2 == 0, 1.0, -1.0)
            r = np.arange(k.size)

            def effort_rhs(ltv: LtvModel, k=k, j=j, inertia=inertia, sign=sign,
                           m_ref=cfg.reference_inertia[area.storages][j]) -> np.ndarray:
                nominal = np.where(inertia, ltv.controls[k, n_s + j] - m_ref,
                                   ltv.controls[k, j])
                return -sign * nominal

            add_block(np.concatenate([r, r]),
                      np.concatenate([k * n_u + j + n_s * inertia,
                                      np.where(inertia, off_em, off_ep) + k * n_s + j]),
                      np.concatenate([sign, -np.ones(r.size)]),
                      k.size, effort_rhs)

        a_in = np.zeros((m_in, n_total))
        for rows, cols, values in entries:
            a_in[rows, cols] = values
        self.a_in = _frozen(a_in)

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

    def fill(self, ltv: LtvModel, widened: Sequence[int]) -> "HorizonProgram":
        """A new program of this structure holding the linearization's values."""
        cfg, n_s = self.cfg, self.area.n_s
        a_eq = np.zeros(self.eq_shape)
        a_eq.reshape(-1)[self.ones_at] = 1.0
        a_eq.reshape(-1)[self.dynamics_at] = -np.concatenate(
            [ltv.A[1:].ravel(), ltv.A_foreign[1:].ravel(), ltv.B.ravel()])
        b_eq = np.zeros(a_eq.shape[0])
        b_eq[self.n_dyn:] = (self.target[:, None]
                             - ltv.controls[:, self.fixed_cols].T).ravel()
        b_in = np.concatenate([rhs(ltv) for rhs in self.rhs]) if self.rhs \
            else np.zeros(0)

        nom = ltv.controls
        phys_lo, phys_hi = self.phys
        radius = np.array([np.inf if j in widened else cfg.sqp.power_trust_region
                           for j in range(n_s)] + [cfg.sqp.inertia_trust_region] * n_s)
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
    copies df(1..K) | frequency slacks | effort slacks (absolute effort only)].
    `prog` holds one linearization's values; `structure` is what it shares
    with the other programs of its area and key.
    """

    prog: ConvexProgram
    ltv: LtvModel
    structure: _HorizonStructure

    area = property(lambda self: self.structure.area)
    cfg = property(lambda self: self.structure.cfg)
    n_u = property(lambda self: self.structure.n_u)
    off_x = property(lambda self: self.structure.off_x)
    # Area storage indices whose energy rows were dropped.
    saturated = property(lambda self: self.structure.saturated)
    x_col = property(lambda self: self.structure.x_col)
    copy_col = property(lambda self: self.structure.copy_col)

    def u_col(self, k: int, j: int) -> int:
        return k * self.n_u + j

    def controls_from(self, z: np.ndarray) -> np.ndarray:
        """Physical control sequence (K, nu) from a solution vector."""
        k_steps = self.cfg.k_steps
        du = z[: k_steps * self.n_u].reshape(k_steps, self.n_u)
        return self.ltv.controls + du

    def omega_from(self, z: np.ndarray) -> np.ndarray:
        """Predicted frequency deviations (K, n_mon) at steps 1..K from a solution vector."""
        dx = z[self.off_x: self.structure.off_copy].reshape(self.cfg.k_steps,
                                                            self.structure.n_x)
        return (self.ltv.states[1:] + dx)[:, self.area.n:]


def _assemble_program(grid: GridModel, area: _AreaView, ltv: LtvModel,
                      cfg: MpcConfig,
                      structure: Optional[_HorizonStructure] = None,
                      penalty: Optional[tuple[float, float]] = None) -> HorizonProgram:
    """Build the K-step convex program of one area in deviation variables.

    Dynamics enter as one equality row per own state per step, and each
    pinned set-point as one equality per step, its column left unboxed.
    Inequality rows come in this order: frequency epigraph and limit rows
    (by step, then monitored bus), energy running sums (by storage, then
    step), and absolute-effort epigraph rows (by step, then storage).

    `structure`, that of an earlier program of the same area and
    configuration, is filled again if the linearization has its key;
    otherwise a new one is built first.
    """
    widened, key = _energy_key(grid, area, ltv, cfg)
    if structure is None or structure.key != key or structure.area is not area \
            or structure.cfg is not cfg:
        structure = _HorizonStructure(grid, area, cfg, key, penalty)
    return structure.fill(ltv, widened)


def assemble_horizon_program(grid: GridModel, ltv: LtvModel, cfg: MpcConfig,
                             structure: Optional[_HorizonStructure] = None
                             ) -> HorizonProgram:
    """Build the centralized K-step program: the one area that is the whole grid.

    A controller passes the structure of its last program to fill it again.
    """
    area = _AreaView(grid) if structure is None else structure.area
    return _assemble_program(grid, area, ltv, cfg, structure)


def _project_controls(grid: GridModel, controls: np.ndarray) -> np.ndarray:
    return np.clip(controls, *np.hstack([grid.power_bounds, grid.inertia_bounds]))


def _stage_cost(grid: GridModel, cfg: MpcConfig, area: _AreaView,
                controls: np.ndarray, omega) -> tuple[float, float]:
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
    w = np.abs(np.asarray(omega, dtype=float)).reshape(len(omega), area.n_w)
    performance = cfg.frequency_cost * ts * sum(np.sum(w, axis=1).tolist(), 0.0)
    return sum(effort.tolist(), 0.0), performance


def horizon_objective(grid: GridModel, cfg: MpcConfig, states: list[SystemState],
                      controls: np.ndarray) -> tuple[float, float]:
    """(effort, performance) terms of the stage cost on a whole-grid rollout."""
    return _stage_cost(grid, cfg, _AreaView(grid), controls,
                       [st.omega for st in states[1:]])


@dataclass
class StepRecord:
    """What one control step of either controller did.

    The consensus fields (`iterations`, `residual_history`) stay empty for
    the centralized controller, and `qp_report` stays None for the
    distributed one.
    """

    applied: Optional[ControlInput] = None
    plan: Optional[np.ndarray] = None      # accepted control sequence (K, 2*n_s)
    sqp_iterations: int = 0                # SQP iterations that solved
    # Centralized: the SQP test (the plan moved less than
    # SqpSettings.tolerance).  Distributed: the last consensus round's
    # residual is below AdmmSettings.tolerance, whatever the SQP did.
    converged: bool = False
    non_optimal_solves: int = 0            # solves applied without a certificate
    saturated: tuple[int, ...] = ()        # grid storage indices whose energy rows were dropped
    iterations: int = 0                    # consensus rounds
    residual_history: list[float] = field(default_factory=list)
    area_objectives: list[float] = field(default_factory=list)  # F_a per area
    qp_report: Optional[SolveReport] = None    # the whole-grid solve's report

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1] if self.residual_history else 0.0


class _SqpController:
    """The SQP outer loop over a controller's areas; subclasses supply `_solve`.

    The areas live on the split grid of `assignment` (default: one area,
    the whole grid), where each area's foreign buses are ghosts.  Each
    iteration linearizes all areas at once against the forcing of the
    ghosts, has `_solve` return one (program, solution) pair per area, or
    None to keep the last plan, and writes the areas' controls back into
    the projected plan.
    """

    def __init__(self, grid: GridModel, cfg: MpcConfig,
                 events: Sequence[DisturbanceEvent],
                 assignment: Optional[Sequence[int]] = None):
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
        # Per area index: the structure of its last program and the
        # workspace laid out for it, kept for the controller's lifetime.
        self._kept: dict[int, tuple[_HorizonStructure, QpWorkspace]] = {}

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

    def _structure(self, area: _AreaView) -> Optional[_HorizonStructure]:
        """The structure of the area's last program, to fill again."""
        kept = self._kept.get(area.index)
        return None if kept is None else kept[0]

    def _workspace(self, hp: HorizonProgram) -> QpWorkspace:
        """The area's workspace loaded with `hp.prog`.

        A new structure gets a new workspace; its KKT layouts come from the
        loaded program's non-zeros.
        """
        kept = self._kept.get(hp.area.index)
        if kept is not None and kept[0] is hp.structure:
            kept[1].load(hp.prog)
            return kept[1]
        workspace = QpWorkspace(hp.prog)
        self._kept[hp.area.index] = (hp.structure, workspace)
        return workspace

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
        record.saturated = tuple(sorted(int(hp.area.storages[j])
                                        for hp, _ in solved for j in hp.saturated))
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

    The last multipliers warm-start the next solve; the solver drops
    multipliers whose row count no longer matches.
    """

    def __init__(self, grid: GridModel, cfg: MpcConfig,
                 events: Sequence[DisturbanceEvent] = ()):
        super().__init__(grid, cfg, events)
        self._warm_y: Optional[np.ndarray] = None

    def _solve(self, ltvs: list[LtvModel], record: StepRecord
               ) -> list[tuple[HorizonProgram, np.ndarray]]:
        hp = assemble_horizon_program(self.grid, ltvs[0], self.cfg,
                                      self._structure(self.areas[0]))
        report = self._workspace(hp).solve(tol=self.cfg.qp_tol, y0=self._warm_y)
        if report.status == "infeasible":
            raise RuntimeError("horizon subproblem reported infeasible")
        record.non_optimal_solves += report.status != "optimal"
        record.qp_report = report
        self._warm_y = report.y_stacked
        return [(hp, report.x)]


def receding_horizon_run(grid: GridModel, initial: SystemState, cfg: MpcConfig,
                         t_total: float,
                         events: Sequence[DisturbanceEvent] = (),
                         clamp_storage_power_at_energy_limit: bool = True,
                         name: str = "") -> tuple[Trajectory, list[StepRecord]]:
    """Closed-loop simulation with the centralized controller in the loop."""
    controller = MpcController(grid, cfg, events)
    traj = simulate(grid, initial, controller, t_total, cfg.step, events,
                    clamp_storage_power_at_energy_limit, name)
    return traj, controller.log
