"""Distributed receding-horizon control by boundary-angle consensus ADMM.

The grid is split into non-overlapping areas.  Each area keeps local copies
of the boundary angles it needs from its neighbours, solves its own horizon
subproblem with dual and quadratic penalty terms on the copies plus a
proximal term, and the areas exchange only boundary-angle trajectories and
multipliers between rounds.  Rounds are Jacobi style: every area solves
against the previous round's exchange, so the outcome is independent of the
order in which areas are processed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import ControlInput, SystemState, Trajectory, euler_step, simulate
from .grid import DisturbanceEvent, GridModel, Line
from .mpc import (MpcConfig, _energy_rows_feasible, _REGULARIZATION,
                  horizon_objective)
from .qp import ConvexProgram, QpWorkspace

__all__ = [
    "PartitionError",
    "AreaPartition",
    "partition_grid",
    "CouplingEquality",
    "build_coupling",
    "ConsensusState",
    "AdmmSettings",
    "AreaProgram",
    "area_subproblem_solve",
    "pdc_admm_step",
    "AdmmReport",
    "DistributedMpcController",
    "distributed_mpc_run",
]


class PartitionError(ValueError):
    """Raised when an area assignment does not cover the grid cleanly."""


@dataclass(frozen=True)
class AreaPartition:
    """Non-overlapping cover of the buses plus derived coupling structure."""

    assignment: tuple[int, ...]                 # bus -> area, areas 0..A-1
    owned: tuple[tuple[int, ...], ...]          # per area: its buses
    tie_lines: tuple[Line, ...]                 # lines crossing areas
    boundary_foreign: tuple[tuple[int, ...], ...]  # per area: referenced foreign buses

    @property
    def n_areas(self) -> int:
        return len(self.owned)


def partition_grid(grid: GridModel, assignment: Sequence[int]) -> AreaPartition:
    """Validate a bus->area map and derive tie lines and boundary sets."""
    assignment = tuple(int(a) for a in assignment)
    if len(assignment) != grid.n_buses:
        raise PartitionError(
            f"assignment covers {len(assignment)} buses, grid has {grid.n_buses}")
    areas = sorted(set(assignment))
    if areas != list(range(len(areas))):
        raise PartitionError(f"area ids must be contiguous from 0, got {areas}")
    n_areas = len(areas)
    owned: list[list[int]] = [[] for _ in range(n_areas)]
    for bus, a in enumerate(assignment):
        owned[a].append(bus)
    for a, buses in enumerate(owned):
        if not buses:
            raise PartitionError(f"area {a} owns no buses")
    ties = [ln for ln in grid.lines
            if assignment[ln.from_bus] != assignment[ln.to_bus]]
    foreign: list[set[int]] = [set() for _ in range(n_areas)]
    for ln in ties:
        a, b = assignment[ln.from_bus], assignment[ln.to_bus]
        foreign[a].add(ln.to_bus)
        foreign[b].add(ln.from_bus)
    return AreaPartition(assignment, tuple(tuple(b) for b in owned), tuple(ties),
                         tuple(tuple(sorted(f)) for f in foreign))


@dataclass(frozen=True)
class CouplingEquality:
    """copy_area's duplicate of `bus` must equal own_area's value at step k."""

    bus: int
    own_area: int
    copy_area: int
    k: int   # horizon step, 1..K


def build_coupling(partition: AreaPartition, k_steps: int) -> tuple[CouplingEquality, ...]:
    """One consensus equality per duplicated boundary angle per horizon step."""
    if k_steps < 1:
        raise PartitionError("horizon must have at least one step")
    pairs: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    for ln in partition.tie_lines:
        a = partition.assignment[ln.from_bus]
        b = partition.assignment[ln.to_bus]
        for bus, own, copy in ((ln.to_bus, b, a), (ln.from_bus, a, b)):
            key = (bus, own, copy)
            if key not in seen:
                seen.add(key)
                pairs.append(key)
    return tuple(CouplingEquality(bus, own, copy, k)
                 for (bus, own, copy) in pairs for k in range(1, k_steps + 1))


@dataclass
class ConsensusState:
    """Exchange record between areas: boundary values and multipliers only."""

    couplings: tuple[CouplingEquality, ...]
    own_values: np.ndarray    # physical angle held by the owning area
    copy_values: np.ndarray   # physical angle held by the copying area
    duals: np.ndarray
    rho: float
    tau: float

    @classmethod
    def initialize(cls, couplings: Sequence[CouplingEquality], angles: np.ndarray,
                   rho: float, tau: float) -> "ConsensusState":
        vals = np.array([angles[c.bus] for c in couplings], dtype=float)
        return cls(tuple(couplings), vals.copy(), vals.copy(),
                   np.zeros(len(couplings)), rho, tau)

    def residual(self) -> float:
        if self.duals.size == 0:
            return 0.0
        return float(np.max(np.abs(self.copy_values - self.own_values)))

    def consensus_values(self) -> np.ndarray:
        """Agreed value per equality: the average of the two holders."""
        return 0.5 * (self.own_values + self.copy_values)

    def update_duals(self) -> None:
        # Dual ascent by rho times each holder's mismatch from the consensus
        # value; the two holders' multipliers stay antisymmetric, so one
        # number per equality suffices (stored for the copying side).
        self.duals += self.rho * (self.copy_values - self.consensus_values())

    def shifted(self) -> "ConsensusState":
        """Warm start for the next control step: move every k to k-1."""
        by_key: dict[tuple[int, int, int, int], int] = {
            (c.bus, c.own_area, c.copy_area, c.k): i
            for i, c in enumerate(self.couplings)}
        own = self.own_values.copy()
        copy = self.copy_values.copy()
        duals = self.duals.copy()
        for i, c in enumerate(self.couplings):
            j = by_key.get((c.bus, c.own_area, c.copy_area, c.k + 1))
            if j is not None:
                own[i] = self.own_values[j]
                copy[i] = self.copy_values[j]
                duals[i] = self.duals[j]
        return ConsensusState(self.couplings, own, copy, duals, self.rho, self.tau)


@dataclass(frozen=True)
class AdmmSettings:
    rho: float = 1.0
    tau: float = 0.1
    tolerance: float = 1e-4
    max_iterations: int = 500

    def validate(self) -> None:
        if self.rho <= 0.0 or self.tau <= 0.0:
            raise PartitionError("rho and tau must be > 0")
        if self.tolerance <= 0.0 or self.max_iterations < 1:
            raise PartitionError("tolerance must be > 0 and max_iterations >= 1")


@dataclass
class AreaProgram:
    """Local convex subproblem plus hooks tying columns to coupling equalities.

    `own_entries` and `copy_entries` list (coupling index, column, nominal
    offset): the physical value is offset + x[col].  The base program never
    contains coupling terms; they are added per round from the consensus.
    """

    area: int
    prog: ConvexProgram
    own_entries: list[tuple[int, int, float]] = field(default_factory=list)
    copy_entries: list[tuple[int, int, float]] = field(default_factory=list)
    objective_eval: Optional[Callable[[np.ndarray], float]] = None

    @property
    def has_coupling(self) -> bool:
        return bool(self.own_entries or self.copy_entries)


def _augmented_workspace(program: AreaProgram, consensus: ConsensusState) -> QpWorkspace:
    """Workspace whose quadratic part already carries penalty and prox terms."""
    base = program.prog
    q_mat = base.Q.copy()
    if program.has_coupling:
        n = base.n
        q_mat = q_mat + consensus.tau * np.eye(n)
        for _, col, _ in program.own_entries + program.copy_entries:
            q_mat[col, col] += consensus.rho
    prog = ConvexProgram(q=base.q.copy(), Q=q_mat, A_eq=base.A_eq, b_eq=base.b_eq,
                         A_in=base.A_in, b_in=base.b_in, lb=base.lb, ub=base.ub)
    return QpWorkspace(prog)


def _round_linear_term(program: AreaProgram, consensus: ConsensusState,
                       x_prev: np.ndarray) -> np.ndarray:
    """Linear cost for this round: base + dual terms + penalty/prox centers."""
    q = program.prog.q.copy()
    if not program.has_coupling:
        return q
    q += consensus.tau * (-x_prev)
    rho = consensus.rho
    z = consensus.consensus_values()
    # Both holders are penalized toward the consensus value from the last
    # barrier; the copying side carries +lambda, the owning side -lambda.
    for idx, col, offset in program.copy_entries:
        q[col] += consensus.duals[idx] + rho * (offset - z[idx])
    for idx, col, offset in program.own_entries:
        q[col] += -consensus.duals[idx] + rho * (offset - z[idx])
    return q


def area_subproblem_solve(program: AreaProgram, consensus: ConsensusState,
                          x_prev: Optional[np.ndarray] = None,
                          workspace: Optional[QpWorkspace] = None,
                          warm: Optional[dict] = None,
                          tol: float = 1e-8, max_iter: int = 20000) -> np.ndarray:
    """Minimize F_a plus coupling dual, penalty, and proximal terms."""
    if x_prev is None:
        x_prev = np.zeros(program.prog.n)
    if workspace is None:
        workspace = _augmented_workspace(program, consensus)
    workspace.update_linear(q=_round_linear_term(program, consensus, x_prev))
    x0 = y0 = None
    if warm is not None and warm.get("x") is not None:
        x0, y0 = warm.get("x"), warm.get("y")
    report = workspace.solve(tol=tol, max_iter=max_iter, x0=x0, y0=y0)
    if report.status == "infeasible":
        raise RuntimeError(f"area {program.area} subproblem reported infeasible")
    if warm is not None:
        warm["x"] = report.x.copy()
        warm["y"] = report.y_stacked.copy()
    return report.x


def pdc_admm_step(programs: Sequence[AreaProgram], consensus: ConsensusState,
                  x_prev: Optional[dict[int, np.ndarray]] = None,
                  workspaces: Optional[dict[int, QpWorkspace]] = None,
                  warm: Optional[dict[int, dict]] = None,
                  order: Optional[Sequence[int]] = None,
                  tol: float = 1e-8, max_iter: int = 20000
                  ) -> tuple[dict[int, np.ndarray], float]:
    """One synchronous round: all areas solve, then values and duals update.

    Every area reads the same consensus snapshot, so any processing order
    yields the same post-barrier state.
    """
    order = list(range(len(programs))) if order is None else list(order)
    solutions: dict[int, np.ndarray] = {}
    for i in order:
        program = programs[i]
        prev = None if x_prev is None else x_prev.get(program.area)
        ws = None if workspaces is None else workspaces.get(program.area)
        wm = None if warm is None else warm.setdefault(program.area, {})
        solutions[program.area] = area_subproblem_solve(
            program, consensus, prev, ws, wm, tol=tol, max_iter=max_iter)
    # Barrier: publish boundary values, then ascend the duals.
    for program in programs:
        x = solutions[program.area]
        for idx, col, offset in program.own_entries:
            consensus.own_values[idx] = offset + x[col]
        for idx, col, offset in program.copy_entries:
            consensus.copy_values[idx] = offset + x[col]
    consensus.update_duals()
    return solutions, consensus.residual()


@dataclass
class AdmmReport:
    """Per-control-step record of the consensus iteration."""

    iterations: int
    residual_history: list[float]
    area_objectives: list[float]
    converged: bool

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1] if self.residual_history else 0.0


# ---------------------------------------------------------------------------
# Closed-loop distributed controller
# ---------------------------------------------------------------------------


class _AreaView:
    """Index bookkeeping for one area's slice of the grid."""

    def __init__(self, grid: GridModel, partition: AreaPartition, area: int):
        self.area = area
        self.buses = list(partition.owned[area])
        self.foreign = list(partition.boundary_foreign[area])
        self.bus_pos = {b: i for i, b in enumerate(self.buses)}
        self.foreign_pos = {b: i for i, b in enumerate(self.foreign)}
        self.inertia = [b for b in grid.inertia_buses if b in self.bus_pos]
        self.inertia_pos = {b: i for i, b in enumerate(self.inertia)}
        self.storages = [s for s, b in enumerate(grid.storage_buses)
                         if b in self.bus_pos]   # global storage indices
        self.n = len(self.buses)
        self.n_w = len(self.inertia)
        self.n_f = len(self.foreign)
        self.n_s = len(self.storages)
        self.nx = self.n + self.n_w
        self.nu = 2 * self.n_s
        # Rows/cols of this area inside the full-grid state vector.
        n_all = grid.n_buses
        omega_index = {b: n_all + k for k, b in enumerate(grid.inertia_buses)}
        self.full_rows = [b for b in self.buses] + [omega_index[b] for b in self.inertia]
        self.full_foreign_cols = [b for b in self.foreign]
        self.full_u_cols = ([s for s in self.storages]
                            + [len(grid.storage_buses) + s for s in self.storages])

@dataclass
class _AreaLtv:
    """Deviation model of one area driven by boundary-angle forcing."""

    A_own: np.ndarray      # (K, nxa, nxa)
    A_foreign: np.ndarray  # (K, nxa, nf)
    B: np.ndarray          # (K, nxa, nua)
    states: np.ndarray     # (K+1, nxa) nominal [own angles, own omegas]
    energies: np.ndarray   # (K+1, n_sa)
    controls: np.ndarray   # (K, nua) nominal
    forcing: np.ndarray    # (K+1, nf) boundary angles used for the rollout
    ts: float


def _area_ltv(grid: GridModel, view: _AreaView, state: SystemState,
              controls: np.ndarray, forcing: np.ndarray, ts: float,
              events: Sequence[DisturbanceEvent]) -> _AreaLtv:
    """Nominal rollout of the area with frozen foreign angles, plus Jacobians.

    The area's buses are embedded in a full-grid state whose non-neighbour
    entries are irrelevant (zero susceptance), so the full-grid dynamics
    routines serve unchanged; foreign angles are overwritten with the forcing
    trajectory after every step.
    """
    from .dynamics import swing_jacobian  # local import avoids cycle at module load

    n_all = grid.n_buses
    n_s_all = len(grid.storage_buses)
    k_steps = controls.shape[0]
    storage_pos = {b: i for i, b in enumerate(grid.storage_buses)}

    angles = np.zeros(n_all)
    omega = np.zeros(len(grid.inertia_buses))
    energy = np.zeros(n_s_all)
    inertia_pos_all = {b: i for i, b in enumerate(grid.inertia_buses)}
    for i, b in enumerate(view.buses):
        angles[b] = state.angles[i] if state.angles.shape == (view.n,) else state.angles[b]
    for b in view.inertia:
        k_all = inertia_pos_all[b]
        omega[k_all] = state.omega[view.inertia_pos[b]] \
            if state.omega.shape == (view.n_w,) else state.omega[k_all]
    for j, s in enumerate(view.storages):
        energy[s] = state.energy[j] if state.energy.shape == (view.n_s,) \
            else state.energy[s]
    for f, b in enumerate(view.foreign):
        angles[b] = forcing[0, f]
    full = SystemState(angles, omega, energy, state.t)

    a_own = np.empty((k_steps, view.nx, view.nx))
    a_for = np.empty((k_steps, view.nx, view.n_f))
    b_mat = np.empty((k_steps, view.nx, view.nu))
    states = np.empty((k_steps + 1, view.nx))
    energies = np.empty((k_steps + 1, view.n_s))
    rows = np.array(view.full_rows, dtype=int)
    u_cols = np.array(view.full_u_cols, dtype=int)
    f_cols = np.array(view.full_foreign_cols, dtype=int)
    eye = np.eye(n_all + len(grid.inertia_buses))

    def pack(fs: SystemState) -> np.ndarray:
        vec = np.concatenate([fs.angles, fs.omega])
        return vec[rows]

    states[0] = pack(full)
    energies[0] = full.energy[view.storages] if view.n_s else np.zeros(0)
    for k in range(k_steps):
        u_full = ControlInput(np.zeros(n_s_all), np.ones(n_s_all))
        for j, s in enumerate(view.storages):
            u_full.power[s] = controls[k, j]
            u_full.inertia[s] = controls[k, view.n_s + j]
        j_x, j_u = swing_jacobian(grid, full, u_full, full.t, events)
        a_full = eye + ts * j_x
        a_own[k] = a_full[np.ix_(rows, rows)]
        a_for[k] = a_full[np.ix_(rows, f_cols)] if view.n_f else \
            np.zeros((view.nx, 0))
        b_mat[k] = ts * j_u[np.ix_(rows, u_cols)] if view.n_s else \
            np.zeros((view.nx, 0))
        full = euler_step(grid, full, u_full, ts, events)
        for f, b in enumerate(view.foreign):
            full.angles[b] = forcing[k + 1, f]
        states[k + 1] = pack(full)
        energies[k + 1] = full.energy[view.storages] if view.n_s else np.zeros(0)
    return _AreaLtv(a_own, a_for, b_mat, states, energies, controls.copy(),
                    forcing.copy(), ts)


def _assemble_area_program(grid: GridModel, view: _AreaView, cfg: MpcConfig,
                           ltv: _AreaLtv,
                           coupling_index: dict[tuple[int, int, int], int],
                           area: int) -> tuple[AreaProgram, dict]:
    """Area analogue of the central horizon program, plus coupling hooks.

    Layout: [controls | own states | copies | frequency slacks].  With a
    single all-bus area the copies vanish and the matrices coincide with the
    centralized assembly.
    """
    k_steps = cfg.k_steps
    n_sa, n_u, n_x, n_f = view.n_s, view.nu, view.nx, view.n_f
    mon = view.inertia
    n_mon = len(mon)
    p_base, m_base = cfg.resolved_bases(grid)
    ts = cfg.step

    off_x = k_steps * n_u
    off_copy = off_x + k_steps * n_x
    off_slack = off_copy + k_steps * n_f
    n_total = off_slack + k_steps * n_mon

    regimes = [cfg.regimes[s] for s in view.storages]
    ref_p = cfg.reference_power[view.storages] if n_sa else np.zeros(0)
    ref_m = cfg.reference_inertia[view.storages] if n_sa else np.zeros(0)
    c_p = cfg.power_cost[view.storages] if n_sa else np.zeros(0)
    c_m = cfg.inertia_cost[view.storages] if n_sa else np.zeros(0)

    # Energy feasibility / pins, mirroring the central assembler.
    relax_trust: set[int] = set()
    pinned: dict[int, float] = {}
    saturated: list[int] = []
    for j, s in enumerate(view.storages):
        bus = grid.storage_buses[s]
        role = grid.storage_role(bus)
        p_lo, p_hi = role.power_bounds
        e_lo, e_hi = role.energy_bounds
        e0 = float(ltv.energies[0, j])
        if regimes[j].power_free:
            nomin = ltv.controls[:, j]
            r_p = cfg.sqp.power_trust_region
            box_lo = np.maximum(p_lo, nomin - r_p)
            box_hi = np.minimum(p_hi, nomin + r_p)
            if not _energy_rows_feasible(e0, (e_lo, e_hi), box_lo, box_hi, ts):
                relax_trust.add(j)
                if not _energy_rows_feasible(e0, (e_lo, e_hi),
                                             np.full(k_steps, p_lo),
                                             np.full(k_steps, p_hi), ts):
                    saturated.append(j)
                    pinned[j] = min(max(0.0, p_lo), p_hi)
        else:
            pin = float(ref_p[j])
            pinned[j] = pin
            if not _energy_rows_feasible(e0, (e_lo, e_hi),
                                         np.full(k_steps, pin),
                                         np.full(k_steps, pin), ts):
                saturated.append(j)
                pinned[j] = min(max(0.0, p_lo), p_hi)

    q = np.zeros(n_total)
    for k in range(k_steps):
        for j in range(n_sa):
            q[k * n_u + j] = c_p[j] * ts / p_base
            q[k * n_u + n_sa + j] = c_m[j] * ts / m_base
        for i in range(n_mon):
            q[off_slack + k * n_mon + i] = cfg.frequency_cost * ts
    q_mat = _REGULARIZATION * np.eye(n_total)

    m_eq = k_steps * n_x + k_steps * len(pinned) \
        + k_steps * sum(1 for r in regimes if not r.inertia_free)
    a_eq = np.zeros((m_eq, n_total))
    b_eq = np.zeros(m_eq)
    row = 0
    for k in range(k_steps):
        rows_sl = slice(row, row + n_x)
        a_eq[rows_sl, off_x + k * n_x: off_x + (k + 1) * n_x] = np.eye(n_x)
        if k > 0:
            a_eq[rows_sl, off_x + (k - 1) * n_x: off_x + k * n_x] = -ltv.A_own[k]
            if n_f:
                a_eq[rows_sl, off_copy + (k - 1) * n_f: off_copy + k * n_f] = \
                    -ltv.A_foreign[k]
        if n_sa:
            a_eq[rows_sl, k * n_u: (k + 1) * n_u] = -ltv.B[k]
        row += n_x
    for j in sorted(pinned):
        for k in range(k_steps):
            a_eq[row, k * n_u + j] = 1.0
            b_eq[row] = pinned[j] - ltv.controls[k, j]
            row += 1
    for j in range(n_sa):
        if not regimes[j].inertia_free:
            for k in range(k_steps):
                a_eq[row, k * n_u + n_sa + j] = 1.0
                b_eq[row] = ref_m[j] - ltv.controls[k, n_sa + j]
                row += 1

    omega_off = view.n
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
    for j, s in enumerate(view.storages):
        if j in saturated:
            continue
        bus = grid.storage_buses[s]
        e_lo, e_hi = grid.storage_role(bus).energy_bounds
        for k in range(1, k_steps + 1):
            e_nom = float(ltv.energies[k, j])
            cols = {kk * n_u + j: ts for kk in range(k)}
            if np.isfinite(e_hi):
                add_row(dict(cols), e_hi - e_nom)
            if np.isfinite(e_lo):
                add_row({c: -v for c, v in cols.items()}, e_nom - e_lo)

    a_in = np.vstack(ineq_rows) if ineq_rows else None
    b_in = np.array(ineq_rhs) if ineq_rows else None

    lb = np.full(n_total, -np.inf)
    ub = np.full(n_total, np.inf)
    for j, s in enumerate(view.storages):
        bus = grid.storage_buses[s]
        role = grid.storage_role(bus)
        p_lo, p_hi = role.power_bounds
        m_lo, m_hi = role.inertia_bounds
        for k in range(k_steps):
            p_nom = ltv.controls[k, j]
            m_nom = ltv.controls[k, n_sa + j]
            if j in pinned:
                lb[k * n_u + j] = ub[k * n_u + j] = pinned[j] - p_nom
            else:
                r_p = np.inf if j in relax_trust else cfg.sqp.power_trust_region
                lb[k * n_u + j] = max(p_lo - p_nom, -r_p)
                ub[k * n_u + j] = min(p_hi - p_nom, r_p)
            r_m = cfg.sqp.inertia_trust_region
            lb[k * n_u + n_sa + j] = max(m_lo - m_nom, -r_m)
            ub[k * n_u + n_sa + j] = min(m_hi - m_nom, r_m)
    lb[off_slack:] = 0.0

    prog = ConvexProgram(q=q, Q=q_mat, A_eq=a_eq, b_eq=b_eq, A_in=a_in,
                         b_in=b_in, lb=lb, ub=ub)
    own_entries: list[tuple[int, int, float]] = []
    copy_entries: list[tuple[int, int, float]] = []
    for (bus, copy_area, k), idx in coupling_index.items():
        if copy_area == area and bus in view.foreign_pos:
            col = off_copy + (k - 1) * n_f + view.foreign_pos[bus]
            copy_entries.append((idx, col, float(ltv.forcing[k, view.foreign_pos[bus]])))
        elif copy_area != area and bus in view.bus_pos:
            # This area owns `bus`; the entry exists for each neighbour copy.
            col = off_x + (k - 1) * n_x + view.bus_pos[bus]
            own_entries.append((idx, col, float(ltv.states[k, view.bus_pos[bus]])))

    program = AreaProgram(area, prog, own_entries, copy_entries)
    meta = {"off_x": off_x, "off_copy": off_copy, "off_slack": off_slack,
            "saturated": tuple(saturated), "pinned": dict(pinned)}
    return program, meta


class DistributedMpcController:
    """Closed-loop plant controller running the per-step consensus iteration."""

    def __init__(self, grid: GridModel, cfg: MpcConfig, partition: AreaPartition,
                 settings: AdmmSettings = AdmmSettings(),
                 events: Sequence[DisturbanceEvent] = ()):
        cfg.validate(grid)
        settings.validate()
        self.grid = grid
        self.cfg = cfg
        self.partition = partition
        self.settings = settings
        self.events = tuple(events)
        self.views = [_AreaView(grid, partition, a)
                      for a in range(partition.n_areas)]
        self.couplings = build_coupling(partition, cfg.k_steps)
        # Lookup: (bus, copy_area, k) -> coupling row (own_area implied by bus).
        self.coupling_index = {(c.bus, c.copy_area, c.k): i
                               for i, c in enumerate(self.couplings)}
        self.log: list[AdmmReport] = []
        self._consensus: Optional[ConsensusState] = None
        self._plans: dict[int, np.ndarray] = {}
        self._warm: dict[int, dict] = {v.area: {} for v in self.views}
        self._storage_owner = {s: self.partition.assignment[b]
                               for s, b in enumerate(grid.storage_buses)}

    # -- helpers ---------------------------------------------------------

    def _area_state(self, view: _AreaView, state: SystemState) -> SystemState:
        inertia_pos_all = {b: i for i, b in enumerate(self.grid.inertia_buses)}
        return SystemState(
            angles=np.array([state.angles[b] for b in view.buses]),
            omega=np.array([state.omega[inertia_pos_all[b]] for b in view.inertia]),
            energy=np.array([state.energy[s] for s in view.storages]),
            t=state.t)

    def _forcing(self, view: _AreaView, state: SystemState) -> np.ndarray:
        """Boundary-angle trajectory for the area's nominal rollout."""
        k_steps = self.cfg.k_steps
        out = np.empty((k_steps + 1, view.n_f))
        for f, bus in enumerate(view.foreign):
            out[0, f] = state.angles[bus]
            for k in range(1, k_steps + 1):
                idx = self.coupling_index[(bus, view.area, k)]
                out[k, f] = self._consensus.own_values[idx]
        return out

    def _reference_plan(self, view: _AreaView) -> np.ndarray:
        row = np.concatenate([self.cfg.reference_power[view.storages],
                              self.cfg.reference_inertia[view.storages]]) \
            if view.n_s else np.zeros(0)
        return np.tile(row, (self.cfg.k_steps, 1))

    def _project_plan(self, view: _AreaView, plan: np.ndarray) -> np.ndarray:
        out = plan.copy()
        for j, s in enumerate(view.storages):
            role = self.grid.storage_role(self.grid.storage_buses[s])
            out[:, j] = np.clip(out[:, j], *role.power_bounds)
            out[:, view.n_s + j] = np.clip(out[:, view.n_s + j],
                                           *role.inertia_bounds)
        return out

    # -- one control step ---------------------------------------------------

    def __call__(self, step: int, state: SystemState) -> ControlInput:
        cfg, settings = self.cfg, self.settings
        k_steps = cfg.k_steps
        if self._consensus is None:
            self._consensus = ConsensusState.initialize(
                self.couplings, state.angles, settings.rho, settings.tau)
        else:
            self._consensus = self._consensus.shifted()
            self._consensus.rho = settings.rho
            self._consensus.tau = settings.tau

        plans = {v.area: self._plans.get(v.area, self._reference_plan(v))
                 for v in self.views}
        residual_history: list[float] = []
        total_rounds = 0
        converged = False
        solutions: dict[int, np.ndarray] = {}
        programs: list[AreaProgram] = []
        ltvs: dict[int, _AreaLtv] = {}

        for _outer in range(cfg.sqp.outer_iterations):
            programs = []
            ltvs = {}
            for view in self.views:
                forcing = self._forcing(view, state)
                area_state = self._area_state(view, state)
                ltv = _area_ltv(self.grid, view, area_state, plans[view.area],
                                forcing, cfg.step, self.events)
                program, _meta = _assemble_area_program(
                    self.grid, view, cfg, ltv, self.coupling_index, view.area)
                programs.append(program)
                ltvs[view.area] = ltv
            workspaces = {p.area: _augmented_workspace(p, self._consensus)
                          for p in programs}
            x_prev: dict[int, np.ndarray] = {p.area: np.zeros(p.prog.n)
                                             for p in programs}
            rounds = 0
            resid = np.inf
            z_prev = self._consensus.consensus_values()
            # One iteration budget covers the whole control step.
            while total_rounds + rounds < settings.max_iterations:
                solutions, resid = pdc_admm_step(
                    programs, self._consensus, x_prev, workspaces, self._warm,
                    tol=cfg.qp_tol, max_iter=cfg.qp_max_iter)
                x_prev = solutions
                z_new = self._consensus.consensus_values()
                dual_move = settings.rho * float(
                    np.max(np.abs(z_new - z_prev), initial=0.0))
                z_prev = z_new
                rounds += 1
                residual_history.append(resid)
                # Two-block stopping: boundary disagreement (primal) and the
                # movement of the agreed values (dual) both below tolerance.
                if resid < settings.tolerance \
                        and dual_move < settings.tolerance:
                    break
            total_rounds += rounds

            change = 0.0
            for program in programs:
                view = self.views[program.area]
                if view.n_s == 0:
                    continue
                du = solutions[program.area][: k_steps * view.nu] \
                    .reshape(k_steps, view.nu)
                new_plan = self._project_plan(view, plans[view.area] + du)
                change = max(change, float(np.max(np.abs(new_plan
                                                         - plans[view.area]))))
                plans[view.area] = new_plan
            if change < cfg.sqp.tolerance:
                converged = resid < settings.tolerance
                break
        converged = converged or (residual_history
                                  and residual_history[-1] < settings.tolerance)

        area_objectives = []
        for program in programs:
            view = self.views[program.area]
            obj = self._area_objective(view, ltvs[view.area],
                                       solutions.get(program.area), plans[view.area])
            area_objectives.append(obj)
        self.log.append(AdmmReport(total_rounds, residual_history,
                                   area_objectives, bool(converged)))
        self._plans = {a: np.vstack([p[1:], p[-1:]]) if p.size else p
                       for a, p in plans.items()}

        n_s = len(self.grid.storage_buses)
        power = np.zeros(n_s)
        inertia = np.zeros(n_s)
        for view in self.views:
            for j, s in enumerate(view.storages):
                power[s] = plans[view.area][0, j]
                inertia[s] = plans[view.area][0, view.n_s + j]
        return ControlInput(power, inertia)

    def _area_objective(self, view: _AreaView, ltv: _AreaLtv,
                        solution: Optional[np.ndarray], plan: np.ndarray) -> float:
        """F_a evaluated on the area's solved horizon (QP-predicted states)."""
        cfg = self.cfg
        k_steps = cfg.k_steps
        p_base, m_base = cfg.resolved_bases(self.grid)
        effort = 0.0
        for k in range(k_steps):
            for j, s in enumerate(view.storages):
                effort += (cfg.power_cost[s] * plan[k, j] / p_base
                           + cfg.inertia_cost[s] * plan[k, view.n_s + j] / m_base) \
                    * cfg.step
        perf = 0.0
        if solution is not None and view.n_w:
            off_x = k_steps * view.nu
            for k in range(1, k_steps + 1):
                base = off_x + (k - 1) * view.nx + view.n
                dw = solution[base: base + view.n_w]
                w_nom = ltv.states[k, view.n: view.n + view.n_w]
                perf += cfg.frequency_cost * cfg.step * float(np.sum(np.abs(w_nom + dw)))
        return effort + perf


def distributed_mpc_run(grid: GridModel, partition: AreaPartition, cfg: MpcConfig,
                        initial: SystemState, t_total: float,
                        settings: AdmmSettings = AdmmSettings(),
                        events: Sequence[DisturbanceEvent] = (),
                        clamp_storage_power_at_energy_limit: bool = True,
                        name: str = "") -> tuple[Trajectory, list[AdmmReport]]:
    """Closed-loop simulation with the distributed controller in the loop."""
    controller = DistributedMpcController(grid, cfg, partition, settings, events)
    traj = simulate(grid, initial, controller, t_total, cfg.step, events,
                    clamp_storage_power_at_energy_limit, name)
    return traj, controller.log
