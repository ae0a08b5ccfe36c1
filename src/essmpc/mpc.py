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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

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
# LP optimum resolves to one deterministic point and the dual active set of
# qp.py applies.  At or below qp_tol it also makes a cold solve seed the
# dual active set from the HiGHS vertex of the linear part (see qp.py).
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
        if self.outer_iterations < 1:
            raise MpcConfigError("outer_iterations must be >= 1")
        if self.power_trust_region <= 0.0 or self.inertia_trust_region <= 0.0:
            raise MpcConfigError("trust-region radii must be > 0")


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
        if regimes is None:
            regimes = tuple(StorageRegime() for _ in range(n_s))
        elif isinstance(regimes, StorageRegime):
            regimes = tuple(regimes for _ in range(n_s))
        else:
            regimes = tuple(regimes)
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

    Foreign buses are the other areas' ends of its tie lines.  `rows` and
    `u_cols` are the area's positions in the whole-grid state [angles, omega]
    and control [power, inertia].  The whole grid is the one area that owns
    every bus and has no foreign buses.
    """

    def __init__(self, grid: GridModel, buses: Optional[Sequence[int]] = None,
                 foreign: Sequence[int] = (), index: int = 0):
        self.index = index
        self.buses = list(range(grid.n_buses)) if buses is None else list(buses)
        self.foreign = np.array(foreign, dtype=int)
        self.bus_pos = {b: i for i, b in enumerate(self.buses)}
        self.foreign_pos = {b: f for f, b in enumerate(foreign)}
        omega_pos = [k for k, b in enumerate(grid.inertia_buses) if b in self.bus_pos]
        self.monitored = [grid.inertia_buses[k] for k in omega_pos]
        self.storages = np.array([s for s, b in enumerate(grid.storage_buses)
                                  if b in self.bus_pos], dtype=int)
        self.n, self.n_w = len(self.buses), len(omega_pos)
        self.n_f, self.n_s = self.foreign.size, self.storages.size
        self.nx, self.nu = self.n + self.n_w, 2 * self.n_s
        self.rows = np.array(self.buses + [grid.n_buses + k for k in omega_pos],
                             dtype=int)
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
                       area: Optional[_AreaView] = None,
                       forcing: Optional[np.ndarray] = None) -> LtvModel:
    """Roll out the nominal controls and differentiate each Euler step.

    `state` and `controls` (K, 2*n_s) cover the whole grid; the model keeps
    the rows and storages of `area` (default: the whole grid).  After each
    step the foreign angles are overwritten with `forcing` (K, n_f), so the
    area sees its neighbours only through them.  Buses outside the area and
    its foreign set have no line to it and do not enter its rows.
    """
    area = _AreaView(grid) if area is None else area
    n_s = len(grid.storage_buses)
    controls = np.asarray(controls, dtype=float)
    k_steps = controls.shape[0]
    forcing = np.zeros((k_steps, 0)) if forcing is None \
        else np.asarray(forcing, dtype=float)
    nx = grid.n_buses + len(grid.inertia_buses)

    a_mats = np.empty((k_steps, nx, nx))
    b_mats = np.empty((k_steps, nx, 2 * n_s))
    states = np.empty((k_steps + 1, nx))
    energies = np.empty((k_steps + 1, n_s))
    current = state.copy()
    states[0] = np.concatenate([current.angles, current.omega])
    energies[0] = current.energy
    eye = np.eye(nx)
    for k in range(k_steps):
        u = ControlInput(controls[k, :n_s], controls[k, n_s:])
        j_x, j_u = swing_jacobian(grid, current, u, current.t, events)
        a_mats[k] = eye + ts * j_x
        b_mats[k] = ts * j_u
        current = euler_step(grid, current, u, ts, events)
        current.angles[area.foreign] = forcing[k]
        states[k + 1] = np.concatenate([current.angles, current.omega])
        energies[k + 1] = current.energy
    rows = area.rows[:, None]
    return LtvModel(a_mats[:, rows, area.rows], a_mats[:, rows, area.foreign],
                    b_mats[:, rows, area.u_cols], states[:, area.rows],
                    energies[:, area.storages], controls[:, area.u_cols],
                    forcing.copy(), ts)


@dataclass
class HorizonProgram:
    """Assembled convex subproblem of one area plus the index maps back to physical names.

    Columns: [controls du(0..K-1) | own states dx(1..K) | foreign-angle
    copies df(1..K) | frequency slacks | effort slacks (absolute effort only)].
    """

    prog: ConvexProgram
    ltv: LtvModel
    cfg: MpcConfig
    area: _AreaView
    n_u: int
    n_x: int
    off_x: int
    off_copy: int
    saturated: tuple[int, ...]   # area storage indices whose energy rows were dropped

    def u_col(self, k: int, j: int) -> int:
        return k * self.n_u + j

    def x_col(self, k: int, i: int) -> int:
        if k < 1:
            raise IndexError("state deviations start at k=1")
        return self.off_x + (k - 1) * self.n_x + i

    def copy_col(self, k: int, f: int) -> int:
        if k < 1:
            raise IndexError("foreign-angle copies start at k=1")
        return self.off_copy + (k - 1) * self.area.n_f + f

    def controls_from(self, z: np.ndarray) -> np.ndarray:
        """Physical control sequence (K, nu) from a solution vector."""
        k_steps = self.cfg.k_steps
        du = z[: k_steps * self.n_u].reshape(k_steps, self.n_u)
        return self.ltv.controls + du

    def omega_from(self, z: np.ndarray) -> np.ndarray:
        """Predicted frequency deviations (K, n_mon) at steps 1..K from a solution vector."""
        dx = z[self.off_x: self.off_copy].reshape(self.cfg.k_steps, self.n_x)
        return (self.ltv.states[1:] + dx)[:, self.area.n:]


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


def _assemble_program(grid: GridModel, area: _AreaView, ltv: LtvModel,
                      cfg: MpcConfig) -> HorizonProgram:
    """Build the K-step convex program of one area in deviation variables.

    Dynamics enter as one equality row per own state per step, and each
    pinned set-point as one equality per step, its column left unboxed.
    Inequality rows come in this order: frequency epigraph and limit rows
    (by step, then monitored bus), energy running sums (by storage, then
    step), and absolute-effort epigraph rows (by step, then storage).
    """
    k_steps, ts = cfg.k_steps, ltv.ts
    n_s, n_u, n_x, n_f, n_mon = area.n_s, area.nu, area.nx, area.n_f, area.n_w
    power_bounds = grid.power_bounds[:, area.storages]
    inertia_bounds = grid.inertia_bounds[:, area.storages]
    energy_bounds = grid.energy_bounds[:, area.storages]
    p_base, m_base = cfg.resolved_bases(grid)

    off_x = k_steps * n_u
    off_copy = off_x + k_steps * n_x
    off_slack = off_copy + k_steps * n_f
    off_ep = off_slack + k_steps * n_mon
    off_em = off_ep + k_steps * n_s
    n_total = off_em + k_steps * n_s if cfg.absolute_effort else off_ep

    # -- resolve energy-row feasibility and power pins -------------------
    relax_trust: set[int] = set()
    pinned: dict[int, float] = {}
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
                # Trust regions never get to make the energy rows infeasible:
                # the power channel is linear in the model, so widen it first.
                relax_trust.add(j)
                if not _energy_rows_feasible(e0, e_bounds, np.full(k_steps, p_lo),
                                             np.full(k_steps, p_hi), ts):
                    saturated.append(j)
                    pinned[j] = min(max(0.0, p_lo), p_hi)
        else:
            pin = float(cfg.reference_power[s])
            pinned[j] = pin
            if not _energy_rows_feasible(e0, e_bounds, np.full(k_steps, pin),
                                         np.full(k_steps, pin), ts):
                saturated.append(j)
                pinned[j] = min(max(0.0, p_lo), p_hi)

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
    curvature = np.full(n_total, _REGULARIZATION)

    # -- equalities: dynamics, then pinned power and fixed inertia ---------
    fixed = [(j, pinned[j]) for j in sorted(pinned)] \
        + [(n_s + j, cfg.reference_inertia[s]) for j, s in enumerate(area.storages)
           if not cfg.regimes[s].inertia_free]
    n_dyn = k_steps * n_x
    a_eq = np.zeros((n_dyn + k_steps * len(fixed), n_total))
    b_eq = np.zeros(a_eq.shape[0])
    a_eq[:n_dyn, off_x:off_copy] = np.eye(n_dyn)
    for k in range(k_steps):
        rows = slice(k * n_x, (k + 1) * n_x)
        if k > 0:
            a_eq[rows, off_x + (k - 1) * n_x: off_x + k * n_x] = -ltv.A[k]
            a_eq[rows, off_copy + (k - 1) * n_f: off_copy + k * n_f] = -ltv.A_foreign[k]
        a_eq[rows, k * n_u: (k + 1) * n_u] = -ltv.B[k]
    fixed_cols = np.array([c for c, _ in fixed], dtype=int)
    target = np.array([v for _, v in fixed])
    a_eq[n_dyn + np.arange(fixed_cols.size * k_steps),
         (fixed_cols[:, None] + n_u * np.arange(k_steps)).ravel()] = 1.0
    b_eq[n_dyn:] = (target[:, None] - ltv.controls[:, fixed_cols].T).ravel()

    # -- inequalities, one block at a time from index arrays ---------------
    entries: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (row, col, value)
    rhs: list[np.ndarray] = []
    m_in = 0

    def add_block(rows, cols, values, b) -> None:
        nonlocal m_in
        entries.append((m_in + rows, cols, values))
        rhs.append(b)
        m_in += b.size

    # Per step and monitored bus: |w| <= slack, then |w| <= limit if set.
    pattern = []    # (monitored index, sign, epigraph row?) for one step
    limit = np.zeros(n_mon)
    for i, bus in enumerate(area.monitored):
        pattern += [(i, 1.0, True), (i, -1.0, True)]
        if bus in cfg.omega_limits:
            limit[i] = cfg.omega_limits[bus]
            pattern += [(i, 1.0, False), (i, -1.0, False)]
    if pattern:
        i_mon, sign, epi = (np.tile(np.array(v), k_steps) for v in zip(*pattern))
        k = np.repeat(np.arange(k_steps), len(pattern))     # step k + 1
        w_nom = ltv.states[k + 1, area.n + i_mon]
        r = np.arange(i_mon.size)
        add_block(np.concatenate([r, r[epi]]),
                  np.concatenate([off_x + k * n_x + area.n + i_mon,
                                  off_slack + (k * n_mon + i_mon)[epi]]),
                  np.concatenate([sign, -np.ones(int(epi.sum()))]),
                  np.where(epi, -sign * w_nom, limit[i_mon] - sign * w_nom))

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
        add_block((k_row[:, None] * sign.size + np.arange(sign.size)).ravel(),
                  np.repeat(k_term * n_u + j, sign.size),
                  np.tile(sign * ts, k_row.size),
                  (sign * (bound - ltv.energies[1:, j, None])).ravel())

    # Per step and storage: |p| <= e_p and |m - m_ref| <= e_m.
    if cfg.absolute_effort:
        k, j, t = (a.ravel() for a in np.meshgrid(
            np.arange(k_steps), np.arange(n_s), np.arange(4), indexing="ij"))
        inertia = t >= 2
        sign = np.where(t % 2 == 0, 1.0, -1.0)
        nominal = np.where(inertia, ltv.controls[k, n_s + j]
                           - cfg.reference_inertia[area.storages][j],
                           ltv.controls[k, j])
        r = np.arange(k.size)
        add_block(np.concatenate([r, r]),
                  np.concatenate([k * n_u + j + n_s * inertia,
                                  np.where(inertia, off_em, off_ep) + k * n_s + j]),
                  np.concatenate([sign, -np.ones(r.size)]),
                  -sign * nominal)

    a_in = np.zeros((m_in, n_total))
    for rows, cols, values in entries:
        a_in[rows, cols] = values
    b_in = np.concatenate(rhs) if rhs else np.zeros(0)

    # -- boxes ------------------------------------------------------------------
    nom = ltv.controls
    phys_lo, phys_hi = np.hstack([power_bounds, inertia_bounds])
    radius = np.array([np.inf if j in relax_trust else cfg.sqp.power_trust_region
                       for j in range(n_s)] + [cfg.sqp.inertia_trust_region] * n_s)
    box_lo = np.maximum(phys_lo - nom, -radius)
    box_hi = np.minimum(phys_hi - nom, radius)
    # A fixed column is pinned by its equality rows alone: an lb == ub box
    # would pin it twice and make a working set holding both dependent.
    box_lo[:, fixed_cols] = -np.inf
    box_hi[:, fixed_cols] = np.inf
    lb = np.full(n_total, -np.inf)
    ub = np.full(n_total, np.inf)
    lb[:off_x] = box_lo.ravel()
    ub[:off_x] = box_hi.ravel()
    lb[off_slack:] = 0.0

    prog = ConvexProgram(q=q, curvature=curvature, A_eq=a_eq, b_eq=b_eq,
                         A_in=a_in, b_in=b_in, lb=lb, ub=ub)
    return HorizonProgram(prog, ltv, cfg, area, n_u, n_x, off_x, off_copy,
                          tuple(saturated))


def assemble_horizon_program(grid: GridModel, ltv: LtvModel,
                             cfg: MpcConfig) -> HorizonProgram:
    """Build the centralized K-step program: the one area that is the whole grid."""
    return _assemble_program(grid, _AreaView(grid), ltv, cfg)


def _project_controls(grid: GridModel, controls: np.ndarray) -> np.ndarray:
    return np.clip(controls, *np.hstack([grid.power_bounds, grid.inertia_bounds]))


def _stage_cost(grid: GridModel, cfg: MpcConfig, area: _AreaView,
                controls: np.ndarray, omega: np.ndarray) -> tuple[float, float]:
    """(effort, performance) terms of the stage cost of one area over a horizon.

    `controls` (K, 2*n_s) are the area's [power, inertia] set-points and
    `omega` (K, n_w) its frequency deviations after each of the K steps.
    """
    n_s = area.n_s
    p_base, m_base = cfg.resolved_bases(grid)
    ts = cfg.step
    c_p = cfg.power_cost[area.storages]
    c_m = cfg.inertia_cost[area.storages]
    m_ref = cfg.reference_inertia[area.storages]
    effort = 0.0
    for k in range(controls.shape[0]):
        p = controls[k, :n_s]
        m = controls[k, n_s:]
        if cfg.absolute_effort:
            p, m = np.abs(p), np.abs(m - m_ref)
        effort += float(np.sum(c_p * p) / p_base * ts
                        + np.sum(c_m * m) / m_base * ts)
    performance = cfg.frequency_cost * ts * float(
        sum(np.sum(np.abs(w)) for w in omega))
    return effort, performance


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

    Each iteration linearizes every area against its forcing, has `_solve`
    return one (program, solution) pair per area, or None to keep the last
    plan, and writes the areas' controls back into the projected plan.
    """

    def __init__(self, grid: GridModel, cfg: MpcConfig,
                 events: Sequence[DisturbanceEvent], areas: list[_AreaView]):
        cfg.validate(grid)
        self.grid = grid
        self.cfg = cfg
        self.events = tuple(events)
        self.areas = areas
        self.log: list[StepRecord] = []
        self._plan: Optional[np.ndarray] = None

    def _start(self, state: SystemState) -> None:
        """Set-up of one control step, before its first linearization."""

    def _forcing(self, area: _AreaView) -> Optional[np.ndarray]:
        return None

    def _solve(self, ltvs: list[LtvModel], record: StepRecord
               ) -> Optional[list[tuple[HorizonProgram, np.ndarray]]]:
        raise NotImplementedError

    def _converged(self, record: StepRecord, sqp_converged: bool) -> bool:
        return sqp_converged

    def __call__(self, step: int, state: SystemState) -> ControlInput:
        grid, cfg = self.grid, self.cfg
        self._start(state)
        plan = cfg.reference_matrix() if self._plan is None else self._plan
        record = StepRecord()
        solved: list[tuple[HorizonProgram, np.ndarray]] = []
        sqp_converged = False
        for _ in range(cfg.sqp.outer_iterations):
            ltvs = [linearize_dynamics(grid, state, plan, cfg.step, self.events,
                                       area, self._forcing(area))
                    for area in self.areas]
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
        super().__init__(grid, cfg, events, [_AreaView(grid)])
        self._warm_y: Optional[np.ndarray] = None

    def _solve(self, ltvs: list[LtvModel], record: StepRecord
               ) -> list[tuple[HorizonProgram, np.ndarray]]:
        hp = assemble_horizon_program(self.grid, ltvs[0], self.cfg)
        report = QpWorkspace(hp.prog).solve(tol=self.cfg.qp_tol, y0=self._warm_y)
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
