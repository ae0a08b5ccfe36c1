"""Continuous-time bus dynamics, forward-Euler stepping, and monitoring.

State layout: one angle per bus, one frequency deviation per second-order
(generator or storage) bus, one cumulative-energy entry per storage bus.
Energy tracks the time integral of the storage injection, so charging
(negative power) drives it toward the lower allowance bound.

The flow law (`GridModel.outflow`, `outflow_jacobian`) and the per-bus
arrays live in `GridModel`; the functions here are array expressions over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import DisturbanceEvent, GridModel

__all__ = [
    "SystemState",
    "ControlInput",
    "Trajectory",
    "Violation",
    "ConstraintReport",
    "SimulationAbort",
    "swing_rhs",
    "swing_jacobian",
    "euler_step",
    "simulate",
    "monitor_constraints",
    "constant_policy",
    "schedule_policy",
]

# A storage power pushing outward is zeroed once the energy integral is this
# close to its bound (clamped mode only).
ENERGY_CLAMP_TOL = 1e-9


@dataclass
class SystemState:
    """Snapshot of the network at time t."""

    angles: np.ndarray    # rad, one per bus
    omega: np.ndarray     # rad/s deviation, one per inertia-bearing bus
    energy: np.ndarray    # p.u.*s, one per storage bus
    t: float = 0.0

    def copy(self) -> "SystemState":
        return SystemState(self.angles.copy(), self.omega.copy(),
                           self.energy.copy(), self.t)

    def validate(self, grid: GridModel) -> None:
        if self.angles.shape != (grid.n_buses,):
            raise ValueError(f"angles shape {self.angles.shape} mismatches grid")
        if self.omega.shape != (len(grid.inertia_buses),):
            raise ValueError(f"omega shape {self.omega.shape} mismatches grid")
        if self.energy.shape != (len(grid.storage_buses),):
            raise ValueError(f"energy shape {self.energy.shape} mismatches grid")


@dataclass
class ControlInput:
    """Storage set-points for one step: reference power and virtual inertia."""

    power: np.ndarray    # p.u., one per storage bus
    inertia: np.ndarray  # seconds, one per storage bus

    def copy(self) -> "ControlInput":
        return ControlInput(self.power.copy(), self.inertia.copy())

    def validate(self, grid: GridModel) -> None:
        n_s = len(grid.storage_buses)
        if self.power.shape != (n_s,) or self.inertia.shape != (n_s,):
            raise ValueError("control arrays mismatch the number of storage buses")
        for what, values, bounds in (("storage power", self.power, grid.power_bounds),
                                     ("virtual inertia", self.inertia,
                                      grid.inertia_bounds)):
            s = _first_outside(values, bounds, 1e-9)
            if s is not None:
                raise ValueError(
                    f"{what} {values[s]} at bus {grid.storage_buses[s]} outside "
                    f"[{bounds[0, s]}, {bounds[1, s]}]")


def _first_outside(values: np.ndarray, bounds: np.ndarray,
                   tol: float = 0.0) -> Optional[int]:
    """First storage whose value is not within (2, n_s) `bounds` +- tol (NaN is not)."""
    bad = np.flatnonzero(~((bounds[0] - tol <= values) & (values <= bounds[1] + tol)))
    return int(bad[0]) if bad.size else None


@dataclass
class Trajectory:
    """Uniformly spaced closed- or open-loop run: states and applied inputs."""

    states: list[SystemState]
    inputs: list[ControlInput]
    ts: float
    name: str = ""

    def __len__(self) -> int:
        return len(self.states)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    def angle_matrix(self) -> np.ndarray:
        return np.array([s.angles for s in self.states])

    def omega_matrix(self) -> np.ndarray:
        return np.array([s.omega for s in self.states])

    def energy_matrix(self) -> np.ndarray:
        return np.array([s.energy for s in self.states])

    def power_matrix(self) -> np.ndarray:
        return np.array([u.power for u in self.inputs])

    def inertia_matrix(self) -> np.ndarray:
        return np.array([u.inertia for u in self.inputs])

    def frequency_integral(self) -> float:
        """Left Riemann sum of sum_i |omega_i| dt over the whole run."""
        w = self.omega_matrix()
        if len(w) <= 1:
            return 0.0
        return float(np.sum(np.abs(w[:-1])) * self.ts)


@dataclass(frozen=True)
class Violation:
    step: int
    t: float
    kind: str      # "frequency" | "power" | "energy"
    bus: int
    value: float
    limit: float


@dataclass
class ConstraintReport:
    """Every step/bus pair at which a frequency, power, or energy bound fails."""

    violations: list[Violation] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.violations)

    def by_kind(self, kind: str) -> list[Violation]:
        return [v for v in self.violations if v.kind == kind]

    def first_time(self, kind: str) -> Optional[float]:
        hits = self.by_kind(kind)
        return hits[0].t if hits else None


class SimulationAbort(RuntimeError):
    """Controller failure mid-run; carries the trajectory built so far."""

    def __init__(self, message: str, partial: Trajectory, step: int):
        super().__init__(message)
        self.partial = partial
        self.step = step


def swing_rhs(grid: GridModel, state: SystemState, u: ControlInput,
              t: Optional[float] = None,
              events: Sequence[DisturbanceEvent] = ()) -> SystemState:
    """Time derivative of the state under the structure-preserving model.

    Generator buses:  d_dot = w,  w_dot = (P0 - D w - outflow) / M
    Load buses:       d_dot = (P0 - outflow) / D
    Storage buses:    d_dot = w,  w_dot = (P0 + P_e - D_e w - outflow) / M_e,
                      E_dot = P_e
    """
    if t is None:
        t = state.t
    p = grid.injections_at(t, events)
    p[grid.storage_idx] += u.power
    d_angles = np.zeros(grid.n_buses)
    d_angles[grid.inertia_idx] = state.omega
    # Net power of every bus over its divisor; a load bus has w = 0 here.
    rate = (p - grid.damping * d_angles - grid.outflow(state.angles)) / _divisors(grid, u)
    d_angles[grid.load_idx] = rate[grid.load_idx]
    return SystemState(d_angles, rate[grid.inertia_idx], u.power.copy(), t)


def _divisors(grid: GridModel, u: ControlInput) -> np.ndarray:
    """Per bus: the inertia of an inertia bus (storages: the set-point), else the damping."""
    div = grid.damping.copy()
    div[grid.inertia_idx] = grid.generator_inertia
    div[grid.storage_idx] = u.inertia
    return div


def swing_jacobian(grid: GridModel, state: SystemState, u: ControlInput,
                   t: Optional[float] = None,
                   events: Sequence[DisturbanceEvent] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Analytic Jacobians of the continuous right-hand side.

    Returns (J_x, J_u) for the stacked state x = [angles, omega] and control
    u = [power, inertia].  The sin terms linearize through cos at the current
    angles; the 1/M_e factors contribute -(f/M_e^2) sensitivities to inertia.
    """
    if t is None:
        t = state.t
    n, n_w, n_s = grid.n_buses, len(grid.inertia_buses), len(grid.storage_buses)
    inertia, storage = grid.inertia_idx, grid.storage_idx
    div = _divisors(grid, u)
    w_rows = np.arange(n, n + n_w)
    rows = np.arange(n)         # the row of each bus's power balance
    rows[inertia] = w_rows

    j_x = np.zeros((n + n_w, n + n_w))
    j_x[rows, :n] = grid.outflow_jacobian(state.angles) / -div[:, None]
    j_x[inertia, w_rows] = 1.0
    j_x[w_rows, w_rows] = -grid.damping[inertia] / div[inertia]

    # Storage rows: w_dot = f / M_e, so 1/M_e per unit power, -f/M_e^2 per unit inertia.
    p = grid.injections_at(t, events)
    f = (p[storage] + u.power - grid.damping[storage] * state.omega[grid.storage_pos]
         - grid.outflow(state.angles)[storage])
    s_rows, cols = w_rows[grid.storage_pos], np.arange(n_s)
    j_u = np.zeros((n + n_w, 2 * n_s))
    j_u[s_rows, cols] = 1.0 / u.inertia
    j_u[s_rows, n_s + cols] = -f / (u.inertia * u.inertia)
    return j_x, j_u


def euler_step(grid: GridModel, state: SystemState, u: ControlInput, ts: float,
               events: Sequence[DisturbanceEvent] = ()) -> SystemState:
    """One explicit Euler step; the energy integral is updated exactly."""
    if ts <= 0.0:
        raise ValueError(f"step size must be > 0, got {ts}")
    deriv = swing_rhs(grid, state, u, state.t, events)
    return SystemState(
        angles=state.angles + ts * deriv.angles,
        omega=state.omega + ts * deriv.omega,
        energy=state.energy + ts * u.power,
        t=state.t + ts,
    )


def _clamp_power(grid: GridModel, state: SystemState, u: ControlInput) -> ControlInput:
    """Zero any storage power that keeps pushing energy past its bound."""
    power = u.power.copy()
    e_lo, e_hi = grid.energy_bounds
    power[((power < 0.0) & (state.energy <= e_lo + ENERGY_CLAMP_TOL))
          | ((power > 0.0) & (state.energy >= e_hi - ENERGY_CLAMP_TOL))] = 0.0
    return ControlInput(power, u.inertia.copy())


def simulate(grid: GridModel, initial: SystemState,
             controller: Callable[[int, SystemState], ControlInput],
             t_total: float, ts: float,
             events: Sequence[DisturbanceEvent] = (),
             clamp_storage_power_at_energy_limit: bool = True,
             name: str = "") -> Trajectory:
    """Run floor(t_total/ts) Euler steps under the given control policy.

    The controller is invoked once per step with the step index and current
    state.  With clamping enabled (the default), a storage that has exhausted
    its energy allowance stops charging or discharging, which breaks the
    power balance exactly as a saturated device would.
    """
    initial.validate(grid)
    n_steps = int(np.floor(t_total / ts + 1e-9)) if t_total > 0 else 0
    states = [initial.copy()]
    inputs: list[ControlInput] = []
    state = states[0]
    for k in range(n_steps):
        try:
            u = controller(k, state)
            u.validate(grid)
        except Exception as exc:
            paired = inputs + [inputs[-1].copy()] if inputs else []
            partial = Trajectory(states, paired, ts, name)
            raise SimulationAbort(
                f"controller failed at step {k} (t={state.t:.6g}): {exc}",
                partial, k) from exc
        if clamp_storage_power_at_energy_limit:
            u = _clamp_power(grid, state, u)
        state = euler_step(grid, state, u, ts, events)
        state.t = (k + 1) * ts + initial.t
        inputs.append(u)
        states.append(state)
    # Pair the final state with the last applied input for uniform export; a
    # zero-step run pairs the initial state with the controller's first input.
    if inputs:
        inputs = inputs + [inputs[-1].copy()]
    else:
        u0 = controller(0, state)
        u0.validate(grid)
        inputs = [u0]
    return Trajectory(states, inputs, ts, name)


def monitor_constraints(grid: GridModel, traj: Trajectory,
                        omega_limits: Optional[dict[int, float]] = None) -> ConstraintReport:
    """List every frequency/power violation and energy saturation.

    Touching an energy bound (within the clamp tolerance) counts as
    saturation: a clamped storage sits exactly on its bound, and that is the
    condition worth reporting.
    """
    report = ConstraintReport()
    omega_limits = omega_limits or {}
    inertia_pos = {bus: k for k, bus in enumerate(grid.inertia_buses)}
    (e_lo, e_hi), (p_lo, p_hi) = grid.energy_bounds.tolist(), grid.power_bounds.tolist()
    for step, state in enumerate(traj.states):
        for bus, limit in omega_limits.items():
            if bus in inertia_pos:
                w = float(state.omega[inertia_pos[bus]])
                if abs(w) > limit:
                    report.violations.append(
                        Violation(step, state.t, "frequency", bus, w, limit))
        for s, bus in enumerate(grid.storage_buses):
            e = float(state.energy[s])
            if e <= e_lo[s] + ENERGY_CLAMP_TOL or e >= e_hi[s] - ENERGY_CLAMP_TOL:
                report.violations.append(
                    Violation(step, state.t, "energy", bus, e,
                              e_lo[s] if e - e_lo[s] <= e_hi[s] - e else e_hi[s]))
            if step < len(traj.inputs):
                p = float(traj.inputs[step].power[s])
                if p < p_lo[s] - 1e-9 or p > p_hi[s] + 1e-9:
                    report.violations.append(
                        Violation(step, state.t, "power", bus, p,
                                  p_lo[s] if p < p_lo[s] else p_hi[s]))
    return report


def constant_policy(u: ControlInput) -> Callable[[int, SystemState], ControlInput]:
    """Controller that applies the same input at every step."""
    def policy(_step: int, _state: SystemState) -> ControlInput:
        return u.copy()
    return policy


def schedule_policy(times: Sequence[float], inputs: Sequence[ControlInput]
                    ) -> Callable[[int, SystemState], ControlInput]:
    """Piecewise-constant controller: at time t, the input with the largest
    schedule time <= t applies (the first entry before any schedule time)."""
    if len(times) != len(inputs) or not times:
        raise ValueError("schedule requires matching, non-empty times and inputs")
    order = np.argsort(times)
    times_sorted = [times[i] for i in order]
    inputs_sorted = [inputs[i] for i in order]

    def policy(_step: int, state: SystemState) -> ControlInput:
        chosen = inputs_sorted[0]
        for t_k, u_k in zip(times_sorted, inputs_sorted):
            if state.t >= t_k - 1e-12:
                chosen = u_k
            else:
                break
        return chosen.copy()
    return policy
