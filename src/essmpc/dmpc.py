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

The controller runs the SQP outer loop of `mpc` unchanged; its solve step
is the consensus iteration on the linearized areas, and it logs the same
`StepRecord` as the centralized controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dynamics import SystemState, Trajectory, simulate
from .grid import DisturbanceEvent, GridModel, Line
from .mpc import (HorizonProgram, LtvModel, MpcConfig, StepRecord, _AreaView,
                  _SqpController, _assemble_program)
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
                          tol: float = 1e-8) -> np.ndarray:
    """Minimize F_a plus coupling dual, penalty, and proximal terms.

    `warm`, if given, seeds the solve and records its multipliers y and status.
    """
    if x_prev is None:
        x_prev = np.zeros(program.prog.n)
    if workspace is None:
        workspace = _augmented_workspace(program, consensus)
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
        for idx, col, offset in program.own_entries:
            consensus.own_values[idx] = offset + x[col]
        for idx, col, offset in program.copy_entries:
            consensus.copy_values[idx] = offset + x[col]
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
        super().__init__(grid, cfg, events,
                         [_AreaView(grid, partition.owned[a],
                                    partition.boundary_foreign[a], a)
                          for a in range(partition.n_areas)])
        settings.validate()
        self.settings = settings
        self.couplings = build_coupling(partition, cfg.k_steps)
        # Lookup: (bus, copy_area, k) -> coupling row (own_area implied by bus).
        self.coupling_index = {(c.bus, c.copy_area, c.k): i
                               for i, c in enumerate(self.couplings)}
        self._consensus: Optional[ConsensusState] = None
        self._warm: dict[int, dict] = {a.index: {} for a in self.areas}

    def _start(self, state: SystemState) -> None:
        if self._consensus is None:
            self._consensus = ConsensusState.initialize(
                self.couplings, state.angles, self.settings.rho, self.settings.tau)
        else:
            self._consensus = self._consensus.shifted()

    def _forcing(self, area: _AreaView) -> np.ndarray:
        """Foreign angles (K, n_f) at steps 1..K: the owners' published values."""
        rows = [[self.coupling_index[(bus, area.index, k)] for bus in area.foreign]
                for k in range(1, self.cfg.k_steps + 1)]
        return self._consensus.own_values[np.array(rows, dtype=int)
                                          .reshape(self.cfg.k_steps, area.n_f)]

    def _area_program(self, hp: HorizonProgram) -> AreaProgram:
        """The area's horizon program with its copies and own boundary angles
        tied to the coupling equalities."""
        area = hp.area
        own_entries: list[tuple[int, int, float]] = []
        copy_entries: list[tuple[int, int, float]] = []
        for (bus, copy_area, k), idx in self.coupling_index.items():
            if copy_area == area.index:
                f = area.foreign_pos[bus]
                copy_entries.append((idx, hp.copy_col(k, f),
                                     float(hp.ltv.forcing[k - 1, f])))
            elif bus in area.bus_pos:
                # This area owns `bus`; the entry exists for each neighbour copy.
                i = area.bus_pos[bus]
                own_entries.append((idx, hp.x_col(k, i), float(hp.ltv.states[k, i])))
        return AreaProgram(area.index, hp.prog, own_entries, copy_entries)

    def _solve(self, ltvs: list[LtvModel], record: StepRecord
               ) -> Optional[list[tuple[HorizonProgram, np.ndarray]]]:
        """Consensus rounds on the area programs, within the round budget."""
        settings = self.settings
        if record.iterations >= settings.max_iterations:
            return None
        horizons = [_assemble_program(self.grid, area, ltv, self.cfg)
                    for area, ltv in zip(self.areas, ltvs)]
        programs = [self._area_program(hp) for hp in horizons]
        workspaces = {p.area: _augmented_workspace(p, self._consensus)
                      for p in programs}
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
