"""Centralized receding-horizon control of storage power and virtual inertia.

Each control step linearizes the discretized dynamics around a nominal
rollout, solves a convex program for the storage set-points over K steps
(sequential linearization with trust regions), applies the first step, and
repeats.  Frequency magnitudes enter the cost through epigraph slacks; the
energy allowance is enforced with running-sum rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dynamics import (ControlInput, SystemState, Trajectory, euler_step,
                       simulate, swing_jacobian)
from .grid import DisturbanceEvent, GridModel
from .qp import ConvexProgram, QpWorkspace, SolveReport

__all__ = [
    "MpcConfigError",
    "SqpSettings",
    "StorageRegime",
    "MpcConfig",
    "LtvModel",
    "HorizonProgram",
    "MpcStepResult",
    "linearize_dynamics",
    "assemble_horizon_program",
    "mpc_solve_horizon",
    "MpcController",
    "receding_horizon_run",
]

# Tiny diagonal cost keeping the subproblem strictly convex, so a non-unique
# LP optimum resolves to one deterministic point.  A tie-break at or below
# qp_tol is what the splitting iteration cannot resolve; the QP solver
# finishes such programs from an exact LP vertex instead (see qp.py).
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
    qp_max_iter: int = 20000

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
        for s, bus in enumerate(grid.storage_buses):
            role = grid.storage_role(bus)
            p_lo, p_hi = role.power_bounds
            m_lo, m_hi = role.inertia_bounds
            if not p_lo <= self.reference_power[s] <= p_hi:
                raise MpcConfigError(
                    f"reference power {self.reference_power[s]} for bus {bus} "
                    f"outside bounds [{p_lo}, {p_hi}]")
            if not m_lo <= self.reference_inertia[s] <= m_hi:
                raise MpcConfigError(
                    f"reference inertia {self.reference_inertia[s]} for bus {bus} "
                    f"outside bounds [{m_lo}, {m_hi}]")
        for bus, lim in self.omega_limits.items():
            if bus not in grid.inertia_buses:
                raise MpcConfigError(f"omega limit on bus {bus}, which has no "
                                     "frequency state")
            if lim <= 0.0:
                raise MpcConfigError(f"omega limit at bus {bus} must be > 0")

    def resolved_bases(self, grid: GridModel) -> tuple[float, float]:
        p_b = self.power_base
        if p_b is None:
            bounds = [max(abs(b) for b in grid.storage_role(bus).power_bounds)
                      for bus in grid.storage_buses]
            p_b = max(bounds) if bounds else 1.0
            p_b = p_b if p_b > 0 else 1.0
        m_b = self.inertia_base
        if m_b is None:
            tops = [grid.storage_role(bus).inertia_bounds[1]
                    for bus in grid.storage_buses]
            m_b = max(tops) if tops else 1.0
        return p_b, m_b

    def reference_matrix(self) -> np.ndarray:
        """Nominal control sequence (K, 2*n_s) holding the references."""
        row = np.concatenate([self.reference_power, self.reference_inertia])
        return np.tile(row, (self.k_steps, 1))


@dataclass
class LtvModel:
    """Linear time-varying deviation model around a nominal Euler rollout.

    x(k+1) = nominal(k+1) + A[k] dx(k) + B[k] du(k), with dx(0) = 0 by
    construction.  `states` holds the nominal trajectory (K+1 entries) and
    `energies` the exactly integrated nominal storage energy.
    """

    A: np.ndarray          # (K, nx, nx)
    B: np.ndarray          # (K, nx, nu)
    states: np.ndarray     # (K+1, nx) nominal [angles, omega]
    energies: np.ndarray   # (K+1, n_s)
    controls: np.ndarray   # (K, nu) nominal [power, inertia]
    ts: float
    t0: float


def _state_vector(grid: GridModel, state: SystemState) -> np.ndarray:
    return np.concatenate([state.angles, state.omega])


def linearize_dynamics(grid: GridModel, state: SystemState,
                       controls: np.ndarray, ts: float,
                       events: Sequence[DisturbanceEvent] = ()) -> LtvModel:
    """Roll out the nominal controls and differentiate each Euler step."""
    n_s = len(grid.storage_buses)
    controls = np.asarray(controls, dtype=float)
    k_steps = controls.shape[0]
    nx = grid.n_buses + len(grid.inertia_buses)
    nu = 2 * n_s

    a_mats = np.empty((k_steps, nx, nx))
    b_mats = np.empty((k_steps, nx, nu))
    states = np.empty((k_steps + 1, nx))
    energies = np.empty((k_steps + 1, n_s))
    current = state.copy()
    states[0] = _state_vector(grid, current)
    energies[0] = current.energy
    eye = np.eye(nx)
    for k in range(k_steps):
        u = ControlInput(controls[k, :n_s], controls[k, n_s:])
        j_x, j_u = swing_jacobian(grid, current, u, current.t, events)
        a_mats[k] = eye + ts * j_x
        b_mats[k] = ts * j_u
        current = euler_step(grid, current, u, ts, events)
        states[k + 1] = _state_vector(grid, current)
        energies[k + 1] = current.energy
    return LtvModel(a_mats, b_mats, states, energies, controls.copy(), ts, state.t)


@dataclass
class HorizonProgram:
    """Assembled convex subproblem plus the index maps back to physical names."""

    prog: ConvexProgram
    ltv: LtvModel
    grid: GridModel
    cfg: MpcConfig
    n_u: int
    n_x: int
    n_mon: int
    off_x: int
    off_slack: int
    saturated: tuple[int, ...]   # storage indices whose energy rows were dropped
    pinned_power: dict[int, float]  # storage index -> overridden pin value

    def u_col(self, k: int, j: int) -> int:
        return k * self.n_u + j

    def x_col(self, k: int, i: int) -> int:
        if k < 1:
            raise IndexError("state deviations start at k=1")
        return self.off_x + (k - 1) * self.n_x + i

    def slack_col(self, k: int, i_mon: int) -> int:
        return self.off_slack + (k - 1) * self.n_mon + i_mon

    def controls_from(self, z: np.ndarray) -> np.ndarray:
        """Physical control sequence (K, nu) from a solution vector."""
        k_steps = self.cfg.k_steps
        du = z[: k_steps * self.n_u].reshape(k_steps, self.n_u)
        return self.ltv.controls + du


def _control_boxes(grid: GridModel, cfg: MpcConfig, nominal: np.ndarray,
                   relax_power_trust: set[int],
                   pinned_power: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """Per-step deviation bounds combining physical boxes and trust regions."""
    k_steps, n_s = cfg.k_steps, len(grid.storage_buses)
    lb = np.empty((k_steps, 2 * n_s))
    ub = np.empty((k_steps, 2 * n_s))
    for s, bus in enumerate(grid.storage_buses):
        role = grid.storage_role(bus)
        p_lo, p_hi = role.power_bounds
        m_lo, m_hi = role.inertia_bounds
        for k in range(k_steps):
            p_nom = nominal[k, s]
            m_nom = nominal[k, n_s + s]
            if s in pinned_power:
                lb[k, s] = ub[k, s] = pinned_power[s] - p_nom
            else:
                r_p = np.inf if s in relax_power_trust else cfg.sqp.power_trust_region
                lb[k, s] = max(p_lo - p_nom, -r_p)
                ub[k, s] = min(p_hi - p_nom, r_p)
            r_m = cfg.sqp.inertia_trust_region
            lb[k, n_s + s] = max(m_lo - m_nom, -r_m)
            ub[k, n_s + s] = min(m_hi - m_nom, r_m)
    return lb, ub


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


def assemble_horizon_program(grid: GridModel, ltv: LtvModel,
                             cfg: MpcConfig) -> HorizonProgram:
    """Build the K-step convex program in deviation variables.

    Layout: [controls du(0..K-1) | states dx(1..K) | frequency slacks |
    optional effort slacks].  Dynamics enter as one equality row per state
    per step; the energy allowance as running-sum inequality pairs.
    """
    k_steps = cfg.k_steps
    n_s = len(grid.storage_buses)
    n_u = 2 * n_s
    n_x = grid.n_buses + len(grid.inertia_buses)
    mon = list(grid.inertia_buses)
    n_mon = len(mon)
    p_base, m_base = cfg.resolved_bases(grid)

    off_x = k_steps * n_u
    off_slack = off_x + k_steps * n_x
    n_core = off_slack + k_steps * n_mon
    n_total = n_core
    off_ep = off_em = -1
    if cfg.absolute_effort:
        off_ep = n_total
        n_total += k_steps * n_s
        off_em = n_total
        n_total += k_steps * n_s

    # -- resolve energy-row feasibility and power pins -------------------
    relax_trust: set[int] = set()
    pinned: dict[int, float] = {}
    saturated: list[int] = []
    for s, bus in enumerate(grid.storage_buses):
        role = grid.storage_role(bus)
        p_lo, p_hi = role.power_bounds
        e_lo, e_hi = role.energy_bounds
        e0 = float(ltv.energies[0, s])
        if cfg.regimes[s].power_free:
            nomin = ltv.controls[:, s]
            r_p = cfg.sqp.power_trust_region
            box_lo = np.maximum(p_lo, nomin - r_p)
            box_hi = np.minimum(p_hi, nomin + r_p)
            if not _energy_rows_feasible(e0, (e_lo, e_hi), box_lo, box_hi, ltv.ts):
                # Trust regions never get to make the energy rows infeasible:
                # the power channel is linear in the model, so widen it first.
                relax_trust.add(s)
                if not _energy_rows_feasible(e0, (e_lo, e_hi),
                                             np.full(k_steps, p_lo),
                                             np.full(k_steps, p_hi), ltv.ts):
                    saturated.append(s)
                    pinned[s] = min(max(0.0, p_lo), p_hi)
        else:
            pin = float(cfg.reference_power[s])
            pinned[s] = pin
            if not _energy_rows_feasible(e0, (e_lo, e_hi),
                                         np.full(k_steps, pin),
                                         np.full(k_steps, pin), ltv.ts):
                saturated.append(s)
                pinned[s] = min(max(0.0, p_lo), p_hi)

    # -- cost -------------------------------------------------------------
    q = np.zeros(n_total)
    ts = cfg.step
    for k in range(k_steps):
        for s in range(n_s):
            if cfg.absolute_effort:
                q[off_ep + k * n_s + s] = cfg.power_cost[s] * ts / p_base
                q[off_em + k * n_s + s] = cfg.inertia_cost[s] * ts / m_base
            else:
                q[k * n_u + s] = cfg.power_cost[s] * ts / p_base
                q[k * n_u + n_s + s] = cfg.inertia_cost[s] * ts / m_base
        for i in range(n_mon):
            q[off_slack + k * n_mon + i] = cfg.frequency_cost * ts
    q_mat = _REGULARIZATION * np.eye(n_total)

    # -- dynamics equalities ------------------------------------------------
    m_eq = k_steps * n_x + sum(k_steps for s in pinned) \
        + sum(k_steps for s in range(n_s) if not cfg.regimes[s].inertia_free)
    a_eq = np.zeros((m_eq, n_total))
    b_eq = np.zeros(m_eq)
    row = 0
    for k in range(k_steps):
        rows = slice(row, row + n_x)
        a_eq[rows, off_x + k * n_x: off_x + (k + 1) * n_x] = np.eye(n_x)
        if k > 0:
            a_eq[rows, off_x + (k - 1) * n_x: off_x + k * n_x] = -ltv.A[k]
        a_eq[rows, k * n_u: (k + 1) * n_u] = -ltv.B[k]
        row += n_x
    for s in sorted(pinned):
        for k in range(k_steps):
            a_eq[row, k * n_u + s] = 1.0
            b_eq[row] = pinned[s] - ltv.controls[k, s]
            row += 1
    for s in range(n_s):
        if not cfg.regimes[s].inertia_free:
            for k in range(k_steps):
                a_eq[row, k * n_u + n_s + s] = 1.0
                b_eq[row] = cfg.reference_inertia[s] - ltv.controls[k, n_s + s]
                row += 1

    # -- inequalities ---------------------------------------------------------
    omega_off = grid.n_buses
    ineq_rows: list[np.ndarray] = []
    ineq_rhs: list[float] = []

    def add_row(cols: dict[int, float], rhs: float) -> None:
        r = np.zeros(n_total)
        for c, v in cols.items():
            r[c] = v
        ineq_rows.append(r)
        ineq_rhs.append(rhs)

    for k in range(1, k_steps + 1):
        for i in range(n_mon):
            w_col = off_x + (k - 1) * n_x + omega_off + i
            s_col = off_slack + (k - 1) * n_mon + i
            w_nom = ltv.states[k, omega_off + i]
            add_row({w_col: 1.0, s_col: -1.0}, -w_nom)
            add_row({w_col: -1.0, s_col: -1.0}, w_nom)
            bus = mon[i]
            if bus in cfg.omega_limits:
                lim = cfg.omega_limits[bus]
                add_row({w_col: 1.0}, lim - w_nom)
                add_row({w_col: -1.0}, lim + w_nom)

    for s, bus in enumerate(grid.storage_buses):
        if s in saturated:
            continue
        e_lo, e_hi = grid.storage_role(bus).energy_bounds
        for k in range(1, k_steps + 1):
            e_nom = float(ltv.energies[k, s])
            cols = {j * n_u + s: ltv.ts for j in range(k)}
            if np.isfinite(e_hi):
                add_row(dict(cols), e_hi - e_nom)
            if np.isfinite(e_lo):
                add_row({c: -v for c, v in cols.items()}, e_nom - e_lo)

    if cfg.absolute_effort:
        for k in range(k_steps):
            for s in range(n_s):
                p_col = k * n_u + s
                ep_col = off_ep + k * n_s + s
                p_nom = ltv.controls[k, s]
                add_row({p_col: 1.0, ep_col: -1.0}, -p_nom)
                add_row({p_col: -1.0, ep_col: -1.0}, p_nom)
                m_col = k * n_u + n_s + s
                em_col = off_em + k * n_s + s
                m_dev_nom = ltv.controls[k, n_s + s] - cfg.reference_inertia[s]
                add_row({m_col: 1.0, em_col: -1.0}, -m_dev_nom)
                add_row({m_col: -1.0, em_col: -1.0}, m_dev_nom)

    a_in = np.vstack(ineq_rows) if ineq_rows else None
    b_in = np.array(ineq_rhs) if ineq_rows else None

    # -- boxes ------------------------------------------------------------------
    lb = np.full(n_total, -np.inf)
    ub = np.full(n_total, np.inf)
    box_lo, box_hi = _control_boxes(grid, cfg, ltv.controls, relax_trust, pinned)
    lb[: k_steps * n_u] = box_lo.ravel()
    ub[: k_steps * n_u] = box_hi.ravel()
    lb[off_slack: off_slack + k_steps * n_mon] = 0.0
    if cfg.absolute_effort:
        lb[off_ep:] = 0.0

    prog = ConvexProgram(q=q, Q=q_mat, A_eq=a_eq, b_eq=b_eq, A_in=a_in,
                         b_in=b_in, lb=lb, ub=ub)
    return HorizonProgram(prog, ltv, grid, cfg, n_u, n_x, n_mon, off_x,
                          off_slack, tuple(saturated), pinned)


@dataclass
class MpcStepResult:
    """Outcome of one receding-horizon solve."""

    applied: ControlInput
    plan: np.ndarray               # accepted control sequence (K, 2*n_s)
    predicted_states: list[SystemState]
    effort: float
    performance: float
    objective: float
    sqp_iterations: int
    qp_report: SolveReport
    saturated: tuple[int, ...]
    converged: bool
    non_optimal_solves: int        # SQP subproblems applied without certificate


def _project_controls(grid: GridModel, controls: np.ndarray) -> np.ndarray:
    n_s = len(grid.storage_buses)
    out = controls.copy()
    for s, bus in enumerate(grid.storage_buses):
        role = grid.storage_role(bus)
        out[:, s] = np.clip(out[:, s], *role.power_bounds)
        out[:, n_s + s] = np.clip(out[:, n_s + s], *role.inertia_bounds)
    return out


def _rollout(grid: GridModel, state: SystemState, controls: np.ndarray,
             ts: float, events: Sequence[DisturbanceEvent]) -> list[SystemState]:
    n_s = len(grid.storage_buses)
    out = [state.copy()]
    current = state
    for k in range(controls.shape[0]):
        u = ControlInput(controls[k, :n_s].copy(), controls[k, n_s:].copy())
        current = euler_step(grid, current, u, ts, events)
        out.append(current)
    return out


def horizon_objective(grid: GridModel, cfg: MpcConfig, states: list[SystemState],
                      controls: np.ndarray) -> tuple[float, float]:
    """(effort, performance) terms of the stage cost on a rollout."""
    n_s = len(grid.storage_buses)
    p_base, m_base = cfg.resolved_bases(grid)
    ts = cfg.step
    effort = 0.0
    for k in range(controls.shape[0]):
        p = controls[k, :n_s]
        m = controls[k, n_s:]
        if cfg.absolute_effort:
            effort += float(np.sum(cfg.power_cost * np.abs(p)) / p_base * ts
                            + np.sum(cfg.inertia_cost
                                     * np.abs(m - cfg.reference_inertia)) / m_base * ts)
        else:
            effort += float(np.sum(cfg.power_cost * p) / p_base * ts
                            + np.sum(cfg.inertia_cost * m) / m_base * ts)
    performance = cfg.frequency_cost * ts * float(
        sum(np.sum(np.abs(st.omega)) for st in states[1:]))
    return effort, performance


def mpc_solve_horizon(grid: GridModel, state: SystemState, cfg: MpcConfig,
                      events: Sequence[DisturbanceEvent] = (),
                      warm_controls: Optional[np.ndarray] = None,
                      warm_qp: Optional[dict] = None) -> MpcStepResult:
    """Sequential linearization around the current state; returns the first input."""
    nominal = cfg.reference_matrix() if warm_controls is None \
        else _project_controls(grid, np.asarray(warm_controls, dtype=float).copy())
    report: Optional[SolveReport] = None
    hp: Optional[HorizonProgram] = None
    converged = False
    iterations = 0
    non_optimal = 0
    for _ in range(cfg.sqp.outer_iterations):
        iterations += 1
        ltv = linearize_dynamics(grid, state, nominal, cfg.step, events)
        hp = assemble_horizon_program(grid, ltv, cfg)
        ws = QpWorkspace(hp.prog)
        x0 = y0 = None
        if warm_qp is not None and warm_qp.get("n") == hp.prog.n \
                and warm_qp.get("m") is not None:
            x0 = warm_qp.get("x")
            y0 = warm_qp.get("y") if warm_qp.get("m") == ws.m else None
        report = ws.solve(tol=cfg.qp_tol, max_iter=cfg.qp_max_iter, x0=x0, y0=y0)
        if report.status == "infeasible":
            raise RuntimeError("horizon subproblem reported infeasible")
        non_optimal += report.status != "optimal"
        if warm_qp is not None:
            warm_qp.update(n=hp.prog.n, m=ws.m, x=report.x.copy(),
                           y=report.y_stacked.copy())
        new_controls = _project_controls(grid, hp.controls_from(report.x))
        change = float(np.max(np.abs(new_controls - nominal)))
        nominal = new_controls
        if change < cfg.sqp.tolerance:
            converged = True
            break

    predicted = _rollout(grid, state, nominal, cfg.step, events)
    effort, performance = horizon_objective(grid, cfg, predicted, nominal)
    n_s = len(grid.storage_buses)
    applied = ControlInput(nominal[0, :n_s].copy(), nominal[0, n_s:].copy())
    return MpcStepResult(applied, nominal.copy(), predicted, effort, performance,
                         effort + performance, iterations, report,
                         hp.saturated, converged, non_optimal)


class MpcController:
    """Stateful closed-loop controller: warm starts carry across steps."""

    def __init__(self, grid: GridModel, cfg: MpcConfig,
                 events: Sequence[DisturbanceEvent] = ()):
        cfg.validate(grid)
        self.grid = grid
        self.cfg = cfg
        self.events = tuple(events)
        self.log: list[MpcStepResult] = []
        self._warm: Optional[np.ndarray] = None
        self._warm_qp: dict = {}

    def __call__(self, step: int, state: SystemState) -> ControlInput:
        result = mpc_solve_horizon(self.grid, state, self.cfg, self.events,
                                   warm_controls=self._warm,
                                   warm_qp=self._warm_qp)
        self.log.append(result)
        # Shift the accepted plan one step for the next warm start.
        self._warm = np.vstack([result.plan[1:], result.plan[-1:]])
        return result.applied


def receding_horizon_run(grid: GridModel, initial: SystemState, cfg: MpcConfig,
                         t_total: float,
                         events: Sequence[DisturbanceEvent] = (),
                         clamp_storage_power_at_energy_limit: bool = True,
                         name: str = "") -> tuple[Trajectory, list[MpcStepResult]]:
    """Closed-loop simulation with the centralized controller in the loop."""
    controller = MpcController(grid, cfg, events)
    traj = simulate(grid, initial, controller, t_total, cfg.step, events,
                    clamp_storage_power_at_energy_limit, name)
    return traj, controller.log
