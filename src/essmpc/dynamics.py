"""Continuous-time bus dynamics, forward-Euler stepping, and monitoring.

State layout: one angle per bus, one frequency deviation per second-order
(generator or storage) bus, one cumulative-energy entry per storage bus.
Energy tracks the time integral of the storage injection, so charging
(negative power) drives it toward the lower allowance bound.

The flow law (`GridModel.outflow`, `outflow_jacobian`) and the per-bus
arrays live in `GridModel`; the functions here are array expressions over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import DisturbanceEvent, GridModel

__all__ = [
    "SystemState",
    "ControlInput",
    "Trajectory",
    "Violation",
    "SimulationAbort",
    "swing_rhs",
    "swing_jacobian",
    "euler_step",
    "simulate",
    "monitor_constraints",
    "constant_policy",
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
    """Uniformly spaced closed- or open-loop run, one array per quantity.

    Row k holds the state at t[k] and the input applied from it; the last
    row repeats the last input.  A run aborted at its first step has no
    input rows.
    """

    t: np.ndarray         # (T+1,)
    angles: np.ndarray    # (T+1, N)
    omega: np.ndarray     # (T+1, n_w)
    energy: np.ndarray    # (T+1, n_s)
    power: np.ndarray     # (T+1, n_s)
    inertia: np.ndarray   # (T+1, n_s)
    ts: float

    def __len__(self) -> int:
        return len(self.t)

    def frequency_integral(self) -> float:
        """Left Riemann sum of sum_i |omega_i| dt over the whole run."""
        return float(np.sum(np.abs(self.omega[:-1])) * self.ts)


@dataclass(frozen=True)
class Violation:
    step: int
    t: float
    kind: str      # "frequency" | "power" | "energy"
    bus: int
    value: float
    limit: float


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
    """Per bus: the inertia of an inertia bus (storages: the set-point), else the damping.

    Controls stacked along a leading axis give one row of divisors each.
    """
    div = grid.damping.copy()
    div[grid.inertia_idx] = grid.generator_inertia
    if u.inertia.ndim == 1:
        div[grid.storage_idx] = u.inertia
        return div
    div = np.tile(div, (len(u.inertia), 1))
    div[:, grid.storage_idx] = u.inertia
    return div


def swing_jacobian(grid: GridModel, state: SystemState, u: ControlInput,
                   t: Optional[float | np.ndarray] = None,
                   events: Sequence[DisturbanceEvent] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Analytic Jacobians of the continuous right-hand side.

    Returns (J_x, J_u) for the stacked state x = [angles, omega] and control
    u = [power, inertia].  The sin terms linearize through cos at the current
    angles; the 1/M_e factors contribute -(f/M_e^2) sensitivities to inertia.

    A stack of K states (angles (K, N), omega (K, n_w), times (K,)) and
    controls (power and inertia (K, n_s)) gives J_x (K, nx, nx) and J_u
    (K, nx, 2*n_s), bitwise the per-state Jacobians; a single state gives
    (nx, nx) and (nx, 2*n_s).
    """
    if t is None:
        t = state.t
    n, n_w, n_s = grid.n_buses, len(grid.inertia_buses), len(grid.storage_buses)
    inertia, storage = grid.inertia_idx, grid.storage_idx
    div = _divisors(grid, u)
    lead = div.shape[:-1]
    w_rows = np.arange(n, n + n_w)
    rows = np.arange(n)         # the row of each bus's power balance
    rows[inertia] = w_rows

    j_x = np.zeros(lead + (n + n_w, n + n_w))
    flows = grid.outflow_jacobian(state.angles)
    flows /= -div[..., :, None]
    j_x[..., rows, :n] = flows
    j_x[..., inertia, w_rows] = 1.0
    j_x[..., w_rows, w_rows] = -grid.damping[inertia] / div[..., inertia]

    # Storage rows: w_dot = f / M_e, so 1/M_e per unit power, -f/M_e^2 per unit inertia.
    p = grid.injections_at(t, events)
    f = (p[..., storage] + u.power
         - grid.damping[storage] * state.omega[..., grid.storage_pos]
         - grid.outflow(state.angles)[..., storage])
    s_rows, cols = w_rows[grid.storage_pos], np.arange(n_s)
    j_u = np.zeros(lead + (n + n_w, 2 * n_s))
    j_u[..., s_rows, cols] = 1.0 / u.inertia
    j_u[..., s_rows, n_s + cols] = -f / (u.inertia * u.inertia)
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


def _clamp_power(power, energy, energy_bounds) -> np.ndarray:
    """`power` zeroed wherever it keeps pushing `energy` past its bound (broadcast)."""
    e_lo, e_hi = energy_bounds
    return np.where(((power < 0.0) & (energy <= e_lo + ENERGY_CLAMP_TOL))
                    | ((power > 0.0) & (energy >= e_hi - ENERGY_CLAMP_TOL)), 0.0, power)


def simulate(grid: GridModel, initial: SystemState,
             controller: Callable[[int, SystemState], ControlInput],
             t_total: float, ts: float,
             events: Sequence[DisturbanceEvent] = (),
             clamp_storage_power_at_energy_limit: bool = True) -> Trajectory:
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
            raise SimulationAbort(
                f"controller failed at step {k} (t={state.t:.6g}): {exc}",
                _stack(states, inputs, ts), k) from exc
        if clamp_storage_power_at_energy_limit:
            u = ControlInput(_clamp_power(u.power, state.energy, grid.energy_bounds),
                             u.inertia.copy())
        state = euler_step(grid, state, u, ts, events)
        state.t = (k + 1) * ts + initial.t
        inputs.append(u)
        states.append(state)
    # A zero-step run pairs the initial state with the controller's first input.
    if not inputs:
        u0 = controller(0, state)
        u0.validate(grid)
        inputs = [u0]
    return _stack(states, inputs, ts)


def _stack(states: list[SystemState], inputs: list[ControlInput], ts: float) -> Trajectory:
    """The run as one array per quantity, the last input repeated up to the last state."""
    inputs = inputs + inputs[-1:] * (len(states) - len(inputs))
    shape = (len(inputs), len(states[0].energy))
    return Trajectory(np.array([s.t for s in states]), np.array([s.angles for s in states]),
                      np.array([s.omega for s in states]), np.array([s.energy for s in states]),
                      np.reshape([u.power for u in inputs], shape),
                      np.reshape([u.inertia for u in inputs], shape), ts)


def monitor_constraints(grid: GridModel, traj: Trajectory,
                        omega_limits: Optional[dict[int, float]] = None) -> list[Violation]:
    """Every frequency/power violation and energy saturation, by step.

    Within a step the frequency limits come first, then each storage's
    energy and power.  Touching an energy bound (within the clamp
    tolerance) counts as saturation: a clamped storage sits exactly on its
    bound, and that is the condition worth reporting.
    """
    violations = []
    omega_limits = omega_limits or {}
    inertia_pos = {bus: k for k, bus in enumerate(grid.inertia_buses)}
    (e_lo, e_hi), (p_lo, p_hi) = grid.energy_bounds.tolist(), grid.power_bounds.tolist()
    power = traj.power.tolist()
    for step, (t, omega, energy) in enumerate(zip(traj.t.tolist(), traj.omega.tolist(),
                                                  traj.energy.tolist())):
        for bus, limit in omega_limits.items():
            if bus in inertia_pos and abs(omega[inertia_pos[bus]]) > limit:
                violations.append(
                    Violation(step, t, "frequency", bus, omega[inertia_pos[bus]], limit))
        for s, bus in enumerate(grid.storage_buses):
            e = energy[s]
            if e <= e_lo[s] + ENERGY_CLAMP_TOL or e >= e_hi[s] - ENERGY_CLAMP_TOL:
                violations.append(
                    Violation(step, t, "energy", bus, e,
                              e_lo[s] if e - e_lo[s] <= e_hi[s] - e else e_hi[s]))
            if step < len(power):
                p = power[step][s]
                if p < p_lo[s] - 1e-9 or p > p_hi[s] + 1e-9:
                    violations.append(
                        Violation(step, t, "power", bus, p,
                                  p_lo[s] if p < p_lo[s] else p_hi[s]))
    return violations


def constant_policy(u: ControlInput) -> Callable[[int, SystemState], ControlInput]:
    """Controller that applies the same input at every step."""
    def policy(_step: int, _state: SystemState) -> ControlInput:
        return u.copy()
    return policy
