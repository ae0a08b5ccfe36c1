"""Distributed receding-horizon control by boundary-angle consensus ADMM.

The grid is split into non-overlapping areas.  Each area's horizon program
is the centralized one (`mpc`) posed for that area: its own states, plus
copy columns for the angles of the foreign buses it needs from its
neighbours.  With a single area there are no copies and the program is the
centralized program.  Per round each area adds dual and quadratic penalty
terms on its copies and on its own boundary angles, plus a proximal term,
and the areas exchange only boundary-angle trajectories and multipliers.
Rounds are Jacobi style: every area solves against the previous round's
exchange, so the outcome is independent of the order in which areas are
processed.

The controller runs the SQP outer loop of `mpc` unchanged, which
linearizes all areas at once on the split grid, the ghosts held at the
owners' published angles; its solve step is the consensus iteration on the
linearized areas, and it logs the same `StepRecord` as the centralized
controller.  Where each area's copies and own boundary angles sit in the
exchange record is worked out once per controller, as index arrays; a
round and its barrier are array operations on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .dynamics import SystemState, Trajectory, simulate
from .grid import DisturbanceEvent, GridModel, Line
from .mpc import (HorizonProgram, LtvModel, MpcConfig, StepRecord, _SqpController,
                  _assemble_program)
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
    # (i, j): entry i takes entry j's values in a shift.  Derived from
    # `couplings` at the first shift and handed on to the shifted states.
    _shift: Optional[tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False)

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
        if self._shift is None:
            at = {(c.bus, c.own_area, c.copy_area, c.k): i
                  for i, c in enumerate(self.couplings)}
            nxt = np.array([at.get((c.bus, c.own_area, c.copy_area, c.k + 1), -1)
                            for c in self.couplings], dtype=int)
            i = np.flatnonzero(nxt >= 0)
            self._shift = (i, nxt[i])
        i, j = self._shift
        own, copy, duals = (v.copy() for v in (self.own_values, self.copy_values,
                                               self.duals))
        own[i], copy[i], duals[i] = self.own_values[j], self.copy_values[j], self.duals[j]
        state = ConsensusState(self.couplings, own, copy, duals, self.rho, self.tau)
        state._shift = self._shift
        return state


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


class _Hooks(NamedTuple):
    """Coupling hooks as arrays: coupling row idx[e] holds offset[e] + x[col[e]]."""

    idx: np.ndarray
    col: np.ndarray
    offset: np.ndarray

    @classmethod
    def of(cls, entries) -> "_Hooks":
        """Hooks from a list of (coupling index, column, nominal offset)."""
        if isinstance(entries, _Hooks):
            return entries
        idx, col, offset = zip(*entries) if len(entries) else ((), (), ())
        return cls(np.array(idx, dtype=int), np.array(col, dtype=int),
                   np.array(offset, dtype=float))


class AreaProgram:
    """Local convex subproblem plus hooks tying columns to coupling equalities.

    `own_entries` and `copy_entries` list (coupling index, column, nominal
    offset): the physical value is offset + x[col].  They are held as
    arrays (`own_hooks`, `copy_hooks`), which the controller passes in
    directly.  The base program never contains coupling terms; they are
    added per round from the consensus.
    """

    def __init__(self, area: int, prog: ConvexProgram,
                 own_entries: Sequence[tuple[int, int, float]] | _Hooks = (),
                 copy_entries: Sequence[tuple[int, int, float]] | _Hooks = ()):
        self.area = area
        self.prog = prog
        self.own_hooks = _Hooks.of(own_entries)
        self.copy_hooks = _Hooks.of(copy_entries)

    own_entries = property(lambda self: list(zip(*(h.tolist() for h in self.own_hooks))))
    copy_entries = property(lambda self: list(zip(*(h.tolist() for h in self.copy_hooks))))

    @property
    def has_coupling(self) -> bool:
        return bool(self.own_hooks.idx.size or self.copy_hooks.idx.size)


def _augmented_program(program: AreaProgram, consensus: ConsensusState) -> ConvexProgram:
    """The area program whose quadratic part carries the penalty and prox terms."""
    base = program.prog
    curvature = base.curvature.copy()
    if program.has_coupling:
        curvature += consensus.tau
        # One rho per hook, added in turn where a column has several.
        np.add.at(curvature, np.concatenate([program.own_hooks.col,
                                             program.copy_hooks.col]), consensus.rho)
    return ConvexProgram(q=base.q.copy(), curvature=curvature,
                         A_eq=base.A_eq, b_eq=base.b_eq,
                         A_in=base.A_in, b_in=base.b_in, lb=base.lb, ub=base.ub)


def _round_linear_term(program: AreaProgram, consensus: ConsensusState,
                       x_prev: np.ndarray) -> np.ndarray:
    """Linear cost for this round: base + dual terms + penalty/prox centers."""
    q = program.prog.q.copy()
    if not program.has_coupling:
        return q
    q += consensus.tau * (-x_prev)
    rho, duals = consensus.rho, consensus.duals
    z = consensus.consensus_values()
    # Both holders are penalized toward the consensus value from the last
    # barrier; the copying side carries +lambda, the owning side -lambda.
    copy, own = program.copy_hooks, program.own_hooks
    np.add.at(q, copy.col, duals[copy.idx] + rho * (copy.offset - z[copy.idx]))
    np.add.at(q, own.col, -duals[own.idx] + rho * (own.offset - z[own.idx]))
    return q


def area_subproblem_solve(program: AreaProgram, consensus: ConsensusState,
                          x_prev: Optional[np.ndarray] = None,
                          workspace: Optional[QpWorkspace] = None,
                          warm: Optional[dict] = None,
                          tol: float = 1e-8) -> np.ndarray:
    """Minimize F_a plus coupling dual, penalty, and proximal terms.

    `warm`, if given, seeds the solve and records its multipliers y and status.
    """
    if x_prev is None:
        x_prev = np.zeros(program.prog.n)
    if workspace is None:
        workspace = QpWorkspace(_augmented_program(program, consensus))
    workspace.update_linear(q=_round_linear_term(program, consensus, x_prev))
    report = workspace.solve(tol=tol, y0=None if warm is None else warm.get("y"))
    if report.status == "infeasible":
        raise RuntimeError(f"area {program.area} subproblem reported infeasible")
    if warm is not None:
        warm.update(y=report.y_stacked.copy(), status=report.status)
    return report.x


def pdc_admm_step(programs: Sequence[AreaProgram], consensus: ConsensusState,
                  x_prev: Optional[dict[int, np.ndarray]] = None,
                  workspaces: Optional[dict[int, QpWorkspace]] = None,
                  warm: Optional[dict[int, dict]] = None,
                  order: Optional[Sequence[int]] = None,
                  tol: float = 1e-8) -> tuple[dict[int, np.ndarray], float]:
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
            program, consensus, prev, ws, wm, tol=tol)
    # Barrier: publish boundary values, then ascend the duals.
    for program in programs:
        x = solutions[program.area]
        own, copy = program.own_hooks, program.copy_hooks
        consensus.own_values[own.idx] = own.offset + x[own.col]
        consensus.copy_values[copy.idx] = copy.offset + x[copy.col]
    consensus.update_duals()
    return solutions, consensus.residual()


# ---------------------------------------------------------------------------
# Closed-loop distributed controller
# ---------------------------------------------------------------------------


class DistributedMpcController(_SqpController):
    """Closed-loop controller whose SQP solve step is the consensus iteration.

    One round budget (`AdmmSettings.max_iterations`) covers the whole
    control step; once it is spent, later SQP iterations have nothing to
    solve with and the last plan stands.
    """

    def __init__(self, grid: GridModel, cfg: MpcConfig, partition: AreaPartition,
                 settings: AdmmSettings = AdmmSettings(),
                 events: Sequence[DisturbanceEvent] = ()):
        super().__init__(grid, cfg, events, partition.assignment)
        settings.validate()
        self.settings = settings
        self.couplings = build_coupling(partition, cfg.k_steps)
        # Where the exchange record meets each area, worked out once: per
        # step and ghost, the coupling row of its published angle; per area,
        # (coupling rows, k, positions) of its own boundary angles and of its
        # copies, a position being the bus's among the area's buses or ghosts.
        n, ghosts = grid.n_buses, self._ghosts
        bus, own, copy, k = np.array([(c.bus, c.own_area, c.copy_area, c.k)
                                      for c in self.couplings], dtype=int).reshape(-1, 4).T
        rows = np.arange(bus.size)
        g = np.searchsorted(ghosts[:, 0] * n + ghosts[:, 1], copy * n + bus)
        self._forcing_rows = np.zeros((cfg.k_steps, len(ghosts)), dtype=int)
        self._forcing_rows[k - 1, g] = rows
        pos = np.empty(n, dtype=int)
        for area in self.areas:
            pos[area.buses] = np.arange(area.n)
        f = g - np.searchsorted(ghosts[:, 0], copy)
        self._hooks = [((rows[o], k[o], pos[bus[o]]), (rows[c], k[c], f[c]))
                       for o, c in ((own == a, copy == a) for a in range(len(self.areas)))]
        self._consensus: Optional[ConsensusState] = None
        self._warm: dict[int, dict] = {a.index: {} for a in self.areas}

    def _start(self, state: SystemState) -> None:
        if self._consensus is None:
            self._consensus = ConsensusState.initialize(
                self.couplings, state.angles, self.settings.rho, self.settings.tau)
        else:
            self._consensus = self._consensus.shifted()

    def _forcing(self) -> np.ndarray:
        """Ghost angles (K, n_ghosts) at steps 1..K: the owners' published values."""
        return self._consensus.own_values[self._forcing_rows]

    def _area_program(self, hp: HorizonProgram) -> AreaProgram:
        """The area's horizon program with its copies and own boundary angles
        tied to the coupling equalities."""
        (own, k_own, i), (copies, k_copy, f) = self._hooks[hp.area.index]
        return AreaProgram(hp.area.index, hp.prog,
                           _Hooks(own, hp.x_col(k_own, i), hp.ltv.states[k_own, i]),
                           _Hooks(copies, hp.copy_col(k_copy, f),
                                  hp.ltv.forcing[k_copy - 1, f]))

    def _solve(self, ltvs: list[LtvModel], record: StepRecord
               ) -> Optional[list[tuple[HorizonProgram, np.ndarray]]]:
        """Consensus rounds on the area programs, within the round budget."""
        settings = self.settings
        if record.iterations >= settings.max_iterations:
            return None
        horizons = [_assemble_program(self.grid, area, ltv, self.cfg,
                                      self._structure(area))
                    for area, ltv in zip(self.areas, ltvs)]
        programs = [self._area_program(hp) for hp in horizons]
        workspaces = {p.area: self._workspace(hp, _augmented_program(p, self._consensus))
                      for hp, p in zip(horizons, programs)}
        x_prev: dict[int, np.ndarray] = {p.area: np.zeros(p.prog.n)
                                         for p in programs}
        z_prev = self._consensus.consensus_values()
        while record.iterations < settings.max_iterations:
            x_prev, resid = pdc_admm_step(programs, self._consensus, x_prev,
                                          workspaces, self._warm, tol=self.cfg.qp_tol)
            record.non_optimal_solves += sum(self._warm[p.area]["status"] != "optimal"
                                             for p in programs)
            z_new = self._consensus.consensus_values()
            dual_move = settings.rho * float(np.max(np.abs(z_new - z_prev), initial=0.0))
            z_prev = z_new
            record.iterations += 1
            record.residual_history.append(resid)
            # Two-block stopping: boundary disagreement (primal) and the
            # movement of the agreed values (dual) both below tolerance.
            if resid < settings.tolerance and dual_move < settings.tolerance:
                break
        return [(hp, x_prev[hp.area.index]) for hp in horizons]

    def _converged(self, record: StepRecord, sqp_converged: bool) -> bool:
        # The consensus verdict: the boundary angles agreed in the last round.
        return bool(record.residual_history) \
            and record.final_residual < self.settings.tolerance


def distributed_mpc_run(grid: GridModel, partition: AreaPartition, cfg: MpcConfig,
                        initial: SystemState, t_total: float,
                        settings: AdmmSettings = AdmmSettings(),
                        events: Sequence[DisturbanceEvent] = (),
                        clamp_storage_power_at_energy_limit: bool = True,
                        name: str = "") -> tuple[Trajectory, list[StepRecord]]:
    """Closed-loop simulation with the distributed controller in the loop."""
    controller = DistributedMpcController(grid, cfg, partition, settings, events)
    traj = simulate(grid, initial, controller, t_total, cfg.step, events,
                    clamp_storage_power_at_energy_limit, name)
    return traj, controller.log
