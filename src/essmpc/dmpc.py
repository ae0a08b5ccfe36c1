"""Distributed receding-horizon control by boundary-angle consensus ADMM.

The grid is split into non-overlapping areas.  Each area's horizon program
is the centralized one (`mpc`) posed for that area: its own states, plus
copy columns for the angles of the foreign buses it needs from its
neighbours.  With a single area there are no copies and the program is the
centralized program.  Each area adds dual and quadratic penalty terms on
its copies and on its own boundary angles, plus a proximal term.  Their
quadratic part is fixed and is in the area's program; per round only the
linear cost changes, in the area's workspace.  The areas exchange only
boundary-angle trajectories and multipliers.  Rounds are Jacobi style:
every area solves against the previous round's exchange, so the outcome is
independent of the order in which areas are processed.

The split grid (`GridModel.split`) names each shared angle once, as a
ghost: one area's copy of one foreign bus.  The exchange record has one
entry per horizon step and ghost, entry (k - 1) * n_ghosts + g for ghost g
at step k, so it reads as a (K, n_ghosts) array.  The controller runs the
SQP outer loop of `mpc` unchanged, which linearizes all areas at once on
the split grid, the ghosts held at the owners' published angles; its solve
step is the consensus iteration on the linearized areas, and it logs the
same `StepRecord` as the centralized controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .dynamics import SystemState
from .grid import DisturbanceEvent, GridModel
from .mpc import HorizonProgram, LtvModel, MpcConfig, StepRecord, _SqpController
from .qp import ConvexProgram, QpWorkspace, WarmStart

__all__ = [
    "PartitionError",
    "AreaPartition",
    "partition_grid",
    "ConsensusState",
    "AdmmSettings",
    "AreaProgram",
    "area_subproblem_solve",
    "pdc_admm_step",
    "DistributedMpcController",
]


class PartitionError(ValueError):
    """Raised when an area assignment does not cover the grid cleanly."""


@dataclass(frozen=True)
class AreaPartition:
    """Non-overlapping cover of the buses."""

    assignment: tuple[int, ...]                 # bus -> area, areas 0..A-1


def partition_grid(grid: GridModel, assignment: Sequence[int]) -> AreaPartition:
    """Validate a bus->area map: every bus in one area, area ids 0..A-1."""
    assignment = tuple(int(a) for a in assignment)
    if len(assignment) != grid.n_buses:
        raise PartitionError(
            f"assignment covers {len(assignment)} buses, grid has {grid.n_buses}")
    areas = sorted(set(assignment))
    if areas != list(range(len(areas))):
        raise PartitionError(f"area ids must be contiguous from 0, got {areas}")
    return AreaPartition(assignment)


@dataclass
class ConsensusState:
    """Exchange record between areas: boundary values and multipliers only.

    One entry per horizon step k = 1..K and ghost g, at (k - 1) * n_ghosts
    + g: the ghost's owner holds the bus's angle (`own_values`), the area
    of the ghost its copy (`copy_values`), and one multiplier ties the two.
    """

    n_ghosts: int
    own_values: np.ndarray    # physical angle held by the owning area
    copy_values: np.ndarray   # physical angle held by the copying area
    duals: np.ndarray
    rho: float
    tau: float

    @classmethod
    def initialize(cls, ghost_buses: np.ndarray, k_steps: int, angles: np.ndarray,
                   rho: float, tau: float) -> "ConsensusState":
        """Both holders at the bus's angle in `angles` at every step; no multiplier."""
        vals = np.tile(np.asarray(angles, dtype=float)[ghost_buses], k_steps)
        return cls(len(ghost_buses), vals, vals.copy(), np.zeros(vals.size), rho, tau)

    def residual(self) -> float:
        if self.duals.size == 0:
            return 0.0
        return float(np.max(np.abs(self.copy_values - self.own_values)))

    def consensus_values(self) -> np.ndarray:
        """Agreed value per entry: the average of the two holders."""
        return 0.5 * (self.own_values + self.copy_values)

    def update_duals(self) -> None:
        # Dual ascent by rho times each holder's mismatch from the consensus
        # value; the two holders' multipliers stay antisymmetric, so one
        # number per entry suffices (stored for the copying side).
        self.duals += self.rho * (self.copy_values - self.consensus_values())

    def shifted(self) -> "ConsensusState":
        """Warm start for the next control step: step k takes step k+1's
        entries, and the last step keeps its own."""
        n = self.n_ghosts

        def shift(v: np.ndarray) -> np.ndarray:
            return np.concatenate([v[n:], v[v.size - n:]])

        return ConsensusState(n, shift(self.own_values), shift(self.copy_values),
                              shift(self.duals), self.rho, self.tau)


@dataclass(frozen=True)
class AdmmSettings:
    rho: float = 1.0
    tau: float = 0.1
    tolerance: float = 1e-4
    max_iterations: int = 500

    def validate(self) -> None:
        """Reject an out-of-range (or NaN) setting; the message starts with its name."""
        for name in ("rho", "tau", "tolerance"):
            if not getattr(self, name) > 0.0:
                raise PartitionError(f"{name}: must be > 0")
        if not self.max_iterations >= 1:
            raise PartitionError("max_iterations: must be >= 1")


class _Hooks(NamedTuple):
    """Record entry idx[e] holds offset[e] + x[col[e]]."""

    idx: np.ndarray
    col: np.ndarray
    offset: np.ndarray


_NO_HOOKS = _Hooks(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))


@dataclass(frozen=True)
class AreaProgram:
    """Local convex subproblem plus hooks tying columns to the exchange record.

    `own_hooks` place the area's own angles that other areas' ghosts copy,
    and `copy_hooks` the area's ghosts; each holds (record entry, column,
    nominal offset) arrays, the physical value being offset + x[col].  A
    coupled program's curvature holds tau on every column and rho per hook;
    the consensus's linear terms are added per round, to a copy of `q`.
    """

    area: int
    prog: ConvexProgram
    own_hooks: _Hooks = _NO_HOOKS
    copy_hooks: _Hooks = _NO_HOOKS

    @property
    def has_coupling(self) -> bool:
        return bool(self.own_hooks.idx.size or self.copy_hooks.idx.size)


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
                          x_prev: np.ndarray, workspace: QpWorkspace, warm: WarmStart,
                          tol: float = 1e-8) -> np.ndarray:
    """Minimize F_a plus coupling dual, penalty, and proximal terms.

    `x_prev` is the area's last solution, the proximal centre.  `workspace`
    holds the area's program; `warm` seeds the solve with its multipliers y
    and takes the solve's y and status, so each round starts from the last.
    """
    workspace.update_linear(q=_round_linear_term(program, consensus, x_prev))
    report = workspace.solve(tol=tol, y0=warm.y)
    if report.status == "infeasible":
        raise RuntimeError(f"area {program.area} subproblem reported infeasible")
    warm.y, warm.status = report.y_stacked, report.status
    return report.x


def pdc_admm_step(programs: Sequence[AreaProgram], consensus: ConsensusState,
                  x_prev: dict[int, np.ndarray], workspaces: dict[int, QpWorkspace],
                  warm: dict[int, WarmStart],
                  tol: float = 1e-8) -> tuple[dict[int, np.ndarray], float]:
    """One synchronous round: all areas solve, then values and duals update.

    `x_prev`, `workspaces` and `warm` hold, per area index, the arguments of
    its `area_subproblem_solve`.  Every area reads the same consensus
    snapshot, so the order of `programs` does not change the post-barrier
    state.
    """
    solutions: dict[int, np.ndarray] = {}
    for program in programs:
        solutions[program.area] = area_subproblem_solve(
            program, consensus, x_prev[program.area], workspaces[program.area],
            warm[program.area], tol=tol)
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
        settings.validate()
        super().__init__(grid, cfg, events, partition.assignment,
                         (settings.rho, settings.tau))
        self.settings = settings
        # Per area, record entries by step: the ghosts copying its buses, then its own.
        step_first = len(self._ghosts) * np.arange(cfg.k_steps)[:, None]
        self._hooks = [((step_first + self._copied[area.index]).ravel(),
                        (step_first + area.foreign - grid.n_buses).ravel())
                       for area in self.areas]
        self._consensus: Optional[ConsensusState] = None

    def _start(self, state: SystemState) -> None:
        if self._consensus is None:
            self._consensus = ConsensusState.initialize(
                self._ghosts[:, 1], self.cfg.k_steps, state.angles,
                self.settings.rho, self.settings.tau)
        else:
            self._consensus = self._consensus.shifted()

    def _forcing(self) -> np.ndarray:
        """Ghost angles (K, n_ghosts) at steps 1..K: the owners' published values."""
        return self._consensus.own_values.reshape(self.cfg.k_steps, len(self._ghosts))

    def _area_program(self, hp: HorizonProgram) -> AreaProgram:
        """The area's program, its copied angles and its ghosts hooked to the record."""
        own, copies = self._hooks[hp.area.index]
        return AreaProgram(hp.area.index, hp.prog,
                           _Hooks(own, hp.structure.own_cols,
                                  hp.ltv.states[1:, hp.area.copied].ravel()),
                           _Hooks(copies, hp.structure.copy_cols, hp.ltv.forcing.ravel()))

    def _solve(self, ltvs: list[LtvModel], record: StepRecord
               ) -> Optional[list[tuple[HorizonProgram, np.ndarray]]]:
        """Consensus rounds on the area programs, within the round budget."""
        settings = self.settings
        if record.iterations >= settings.max_iterations:
            return None
        horizons = [structure.fill(ltv) for structure, ltv in zip(self._structures, ltvs)]
        programs = [self._area_program(hp) for hp in horizons]
        workspaces: dict[int, QpWorkspace] = {}
        warm: dict[int, WarmStart] = {}
        for hp in horizons:
            workspaces[hp.area.index], warm[hp.area.index] = self._workspace(
                hp, record.sqp_iterations)
        x_prev: dict[int, np.ndarray] = {p.area: np.zeros(p.prog.n)
                                         for p in programs}
        z_prev = self._consensus.consensus_values()
        while record.iterations < settings.max_iterations:
            x_prev, resid = pdc_admm_step(programs, self._consensus, x_prev,
                                          workspaces, warm, tol=self.cfg.qp_tol)
            record.non_optimal_solves += sum(warm[p.area].status != "optimal"
                                             for p in programs)
            z_new = self._consensus.consensus_values()
            dual_move = settings.rho * float(np.max(np.abs(z_new - z_prev), initial=0.0))
            z_prev = z_new
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
