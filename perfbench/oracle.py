"""Exact reference for the centralized horizon program, by HiGHS.

The assembled horizon program is a linear program apart from a 1e-8
diagonal regularizer, so `scipy.optimize.linprog(method="highs")` on its
linear part is an independent exact solver for it.  LP optima may be
non-unique, so the first-input check compares against the whole optimal
face, coordinate by coordinate, not against one optimal point.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from essmpc.mpc import HorizonProgram, assemble_horizon_program, linearize_dynamics
from essmpc.qp import ConvexProgram
from essmpc.scenario import Scenario

# Tight tolerances: the cost scale is ~1e-4, far below HiGHS's 1e-7 defaults.
_HIGHS = {"primal_feasibility_tolerance": 1e-10,
          "dual_feasibility_tolerance": 1e-10}
# Objective level, relative to the optimum, that still counts as optimal.
_LEVEL_REL = 1e-8


class OracleError(RuntimeError):
    """HiGHS did not certify an optimum."""


def _linprog(prog: ConvexProgram, c: np.ndarray, extra_row=None):
    a_ub, b_ub = prog.A_in, prog.b_in
    if extra_row is not None:
        a_ub = np.vstack([a_ub, extra_row[0]])
        b_ub = np.append(b_ub, extra_row[1])
    res = linprog(c, A_ub=a_ub if a_ub.shape[0] else None,
                  b_ub=b_ub if a_ub.shape[0] else None,
                  A_eq=prog.A_eq if prog.A_eq.shape[0] else None,
                  b_eq=prog.b_eq if prog.A_eq.shape[0] else None,
                  bounds=np.column_stack([prog.lb, prog.ub]),
                  method="highs", options=_HIGHS)
    if res.status != 0:
        raise OracleError(f"HiGHS status {res.status}: {res.message}")
    return res


def lp_optimum(prog: ConvexProgram) -> float:
    """Optimal value of the program's linear part."""
    return float(_linprog(prog, prog.q).fun)


def objective_gap(prog: ConvexProgram, x: np.ndarray) -> float:
    """Relative excess of q'x over the exact LP optimum (may be < 0 if x is infeasible)."""
    best = lp_optimum(prog)
    return (float(prog.q @ x) - best) / max(abs(best), 1e-300)


def step0_program(scenario: Scenario) -> HorizonProgram:
    """Centralized horizon program the controller assembles first at t = 0."""
    cfg = scenario.mpc
    ltv = linearize_dynamics(scenario.grid, scenario.initial_state(),
                             cfg.reference_matrix(), cfg.step, scenario.events)
    return assemble_horizon_program(scenario.grid, ltv, cfg)


def optimal_first_inputs(hp: HorizonProgram) -> tuple[float, np.ndarray, np.ndarray]:
    """(optimum, low, high): per-coordinate range of optimal first inputs.

    Ranges are physical [power..., inertia...] values, found by minimizing
    and maximizing each first-step control under the extra row
    q'x <= optimum + |optimum| * 1e-8.
    """
    prog = hp.prog
    best = lp_optimum(prog)
    scale = float(np.max(np.abs(prog.q)))
    level = (prog.q / scale, (best + _LEVEL_REL * abs(best)) / scale)
    low = np.empty(hp.n_u)
    high = np.empty(hp.n_u)
    for j in range(hp.n_u):
        c = np.zeros(prog.n)
        c[hp.u_col(0, j)] = 1.0
        low[j] = _linprog(prog, c, level).fun
        high[j] = -_linprog(prog, -c, level).fun
    nominal = hp.ltv.controls[0]
    return best, nominal + low, nominal + high


def input_gap(applied: np.ndarray, low: np.ndarray, high: np.ndarray) -> float:
    """Infinity-norm distance from an applied first input to the box [low, high]."""
    applied = np.asarray(applied, dtype=float)
    return float(np.max(np.maximum(np.maximum(low - applied, applied - high), 0.0)))
