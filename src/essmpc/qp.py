"""Convex quadratic programming by exact active sets.

Solves  min 0.5 x'Qx + q'x  subject to  A_eq x = b_eq, A_in x <= b_in,
lb <= x <= ub.  The rows are stacked as l <= C x <= u.  A working set pins
rows at one of their bounds, and the KKT system of the pinned rows is
solved exactly.  A point is accepted only when its exactly recomputed KKT
residuals meet the tolerance.

A solve tries, in order, and stops at the first certified point:

1. the bulk exact step from a caller's warm multipliers y0: each round
   adds every violated row and drops every wrong-sign multiplier;
2. when max|Q| <= tol (an LP up to a tie-break), the bulk exact step from
   the HiGHS optimum of the linear part; HiGHS proving the rows
   infeasible ends the solve as "infeasible";
3. the Goldfarb-Idnani dual active set (Math. Prog. 27, 1983), which
   needs Q positive definite.  It starts from the HiGHS rows, or from the
   equality rows, and adds one violated row at a time, dropping working
   rows whose multiplier reaches zero on the way.  The objective rises at
   every step, so it ends after finitely many: at the optimum, or
   "infeasible" when no finite step can satisfy a violated row.  The
   exact pinned solve of its final working set is the returned point.

A solve that certifies no point ends "max_iter" with its best point.
Residuals in the report are always recomputed from the returned point,
never taken from an iteration or from HiGHS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve, solve_triangular
from scipy.optimize import linprog

__all__ = [
    "QpError",
    "ConvexProgram",
    "DualSet",
    "SolveReport",
    "QpWorkspace",
    "solve_qp",
    "kkt_residual",
]

# A row a whose step z has curvature z'Qz below this share of a'Q^-1 a lies
# in the span of the working set: adding it has no finite primal step.
_DEPENDENT = 1e-12
# HiGHS's default 1e-7 feasibility tolerances leave a primal residual the
# exact step cannot certify at 1e-8; the seed has to be tighter than tol.
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10}


class QpError(ValueError):
    """Raised for malformed programs."""


def _as_2d(a: Optional[np.ndarray], n: int) -> np.ndarray:
    if a is None:
        return np.zeros((0, n))
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != n:
        raise QpError(f"constraint matrix shape {a.shape} incompatible with n={n}")
    return a


def _as_1d(v: Optional[np.ndarray], m: int, name: str) -> np.ndarray:
    if v is None:
        return np.zeros(m)
    v = np.asarray(v, dtype=float).ravel()
    if v.shape != (m,):
        raise QpError(f"{name} has shape {v.shape}, expected ({m},)")
    return v


@dataclass
class ConvexProgram:
    """QP data.  Q may be omitted (pure LP) or any PSD matrix."""

    q: np.ndarray
    Q: Optional[np.ndarray] = None
    A_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    A_in: Optional[np.ndarray] = None
    b_in: Optional[np.ndarray] = None
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=float).ravel()
        n = self.q.size
        if self.Q is None:
            self.Q = np.zeros((n, n))
        else:
            self.Q = np.asarray(self.Q, dtype=float)
            if self.Q.shape != (n, n):
                raise QpError(f"Q has shape {self.Q.shape}, expected ({n}, {n})")
            if not np.allclose(self.Q, self.Q.T, atol=1e-10):
                raise QpError("Q must be symmetric")
            diag = np.diag(self.Q)
            if np.count_nonzero(self.Q) == np.count_nonzero(diag):
                if np.any(diag < -1e-12):
                    raise QpError("Q is not positive semidefinite")
            else:
                # PSD check by attempted factorization with a tiny shift.
                try:
                    np.linalg.cholesky(0.5 * (self.Q + self.Q.T)
                                       + 1e-10 * np.eye(n))
                except np.linalg.LinAlgError as exc:
                    raise QpError("Q is not positive semidefinite") from exc
        self.A_eq = _as_2d(self.A_eq, n)
        self.b_eq = _as_1d(self.b_eq, self.A_eq.shape[0], "b_eq")
        self.A_in = _as_2d(self.A_in, n)
        self.b_in = _as_1d(self.b_in, self.A_in.shape[0], "b_in")
        self.lb = np.full(n, -np.inf) if self.lb is None \
            else np.asarray(self.lb, dtype=float).ravel()
        self.ub = np.full(n, np.inf) if self.ub is None \
            else np.asarray(self.ub, dtype=float).ravel()
        if self.lb.shape != (n,) or self.ub.shape != (n,):
            raise QpError("box bounds must have one entry per variable")
        if np.any(self.lb > self.ub + 1e-12):
            raise QpError("box lower bound exceeds upper bound")

    @property
    def n(self) -> int:
        return self.q.size

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.Q @ x + self.q @ x)


@dataclass
class DualSet:
    """Multipliers split by constraint family (inequality duals >= 0)."""

    eq: np.ndarray
    ineq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass
class SolveReport:
    x: np.ndarray
    duals: DualSet
    status: str                 # "optimal" | "max_iter" | "infeasible"
    iterations: int             # dual active-set steps; 0 if the bulk step certified
    stationarity: float
    primal_feasibility: float
    complementarity: float
    objective: float
    # Stacked-row multipliers (> 0 at an upper bound), the warm start y0.
    y_stacked: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def polished(self) -> bool:
        """Every certified point is an exact solve of a pinned KKT system."""
        return self.status == "optimal"


def kkt_residual(prog: ConvexProgram, x: np.ndarray, duals: DualSet
                 ) -> tuple[float, float, float]:
    """Exact (stationarity, primal, complementarity) infinity norms."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (prog.n,):
        raise QpError(f"x has shape {x.shape}, expected ({prog.n},)")
    grad = prog.Q @ x + prog.q
    if prog.A_eq.shape[0]:
        grad = grad + prog.A_eq.T @ duals.eq
    if prog.A_in.shape[0]:
        grad = grad + prog.A_in.T @ duals.ineq
    grad = grad - duals.lower + duals.upper
    stationarity = float(np.max(np.abs(grad))) if grad.size else 0.0

    feas = [0.0]
    comp = [0.0]
    if prog.A_eq.shape[0]:
        feas.append(float(np.max(np.abs(prog.A_eq @ x - prog.b_eq))))
    if prog.A_in.shape[0]:
        slack = prog.A_in @ x - prog.b_in
        feas.append(float(np.max(np.maximum(slack, 0.0))))
        comp.append(float(np.max(np.abs(duals.ineq * slack))))
    lo = np.where(np.isfinite(prog.lb), prog.lb - x, -np.inf)
    hi = np.where(np.isfinite(prog.ub), x - prog.ub, -np.inf)
    feas.append(float(np.max(np.maximum(lo, 0.0), initial=0.0)))
    feas.append(float(np.max(np.maximum(hi, 0.0), initial=0.0)))
    comp.append(float(np.max(np.abs(duals.lower * np.where(np.isfinite(prog.lb), lo, 0.0)),
                             initial=0.0)))
    comp.append(float(np.max(np.abs(duals.upper * np.where(np.isfinite(prog.ub), hi, 0.0)),
                             initial=0.0)))
    return stationarity, max(feas), max(comp)


class QpWorkspace:
    """Reusable solver state: the program's rows stacked as l <= C x <= u.

    `update_linear` swaps in a new linear cost, so repeated solves of
    programs that differ only in q share one workspace.
    """

    def __init__(self, prog: ConvexProgram):
        self.prog = prog
        n = prog.n
        self._box_vars = np.where(np.isfinite(prog.lb) | np.isfinite(prog.ub))[0]
        m_eq, m_in, m_box = prog.A_eq.shape[0], prog.A_in.shape[0], self._box_vars.size
        rows = [prog.A_eq, prog.A_in]
        if m_box:
            box = np.zeros((m_box, n))
            box[np.arange(m_box), self._box_vars] = 1.0
            rows.append(box)
        self.C = np.vstack(rows) if any(r.shape[0] for r in rows) else np.zeros((0, n))
        self.l = np.concatenate([prog.b_eq, np.full(m_in, -np.inf),
                                 prog.lb[self._box_vars]])
        self.u = np.concatenate([prog.b_eq, prog.b_in, prog.ub[self._box_vars]])
        self.m = self.C.shape[0]
        self._m_eq, self._m_in = m_eq, m_in
        self._eq = np.arange(self.m) < m_eq
        self._Qs = 0.5 * (prog.Q + prog.Q.T)
        self._q_max = float(np.max(np.abs(self._Qs), initial=0.0))

    def update_linear(self, q: np.ndarray) -> None:
        self.prog.q = np.asarray(q, dtype=float).ravel()

    def solve(self, tol: float = 1e-8, y0: Optional[np.ndarray] = None
              ) -> SolveReport:
        """Solve to `tol` on the exactly recomputed KKT residuals.

        Order: the bulk exact step from the warm multipliers y0; then, if
        max|Q| <= tol, the bulk exact step from the HiGHS optimum of the
        linear part; then the dual active set.
        """
        n, m = self.prog.n, self.m
        if y0 is not None and np.asarray(y0).shape == (m,):
            # Warm multipliers usually carry the previous active set: one
            # exact solve often lands on the new optimum immediately.
            refined = self._try_polish(np.asarray(y0, dtype=float), tol)
            if refined is not None:
                return refined
        x_best, y_seed = np.zeros(n), np.zeros(m)
        # A quadratic term at or below tol is a tie-break: the exact LP
        # vertex carries the active set of the program up to it.
        if self._q_max <= tol:
            status, x_lp, y_lp = self._lp_seed()
            if status == 2:
                return self._finish(x_best, y_seed, "infeasible", 0)
            if status == 0:
                x_best, y_seed = x_lp, y_lp
                # HiGHS multipliers are exact: any non-zero one marks a row
                # at its bound, however small the program's cost scale.
                refined = self._try_polish(y_seed, tol, act_tol=0.0)
                if refined is not None:
                    return refined
        report = self._dual_active_set(y_seed, tol)
        if report is None:
            return self._finish(x_best, y_seed, "max_iter", 0)
        return report

    # -- reporting -------------------------------------------------------------

    def _split_duals(self, y: np.ndarray) -> DualSet:
        prog = self.prog
        m_eq, m_in = self._m_eq, self._m_in
        lam = y[:m_eq].copy()
        mu = np.maximum(y[m_eq:m_eq + m_in], 0.0)
        lower = np.zeros(prog.n)
        upper = np.zeros(prog.n)
        y_box = y[m_eq + m_in:]
        lower[self._box_vars] = np.maximum(-y_box, 0.0)
        upper[self._box_vars] = np.maximum(y_box, 0.0)
        return DualSet(lam, mu, lower, upper)

    def _finish(self, x: np.ndarray, y: np.ndarray, status: str,
                iterations: int) -> SolveReport:
        duals = self._split_duals(y)
        stat, feas, comp = kkt_residual(self.prog, x, duals)
        return SolveReport(x.copy(), duals, status, iterations, stat, feas, comp,
                           self.prog.objective(x), y_stacked=y.copy())

    def _certified(self, x: np.ndarray, y: np.ndarray, tol: float,
                   iterations: int) -> Optional[SolveReport]:
        """The exact point as an optimal report, or None above tol."""
        rp = self._finish(x, y, "optimal", iterations)
        if max(rp.stationarity, rp.primal_feasibility, rp.complementarity) <= tol:
            return rp
        return None

    # -- LP seed -------------------------------------------------------------------

    def _lp_seed(self) -> tuple[int, Optional[np.ndarray], Optional[np.ndarray]]:
        """HiGHS on the linear part: (status, x, stacked y), x and y if optimal."""
        prog = self.prog
        res = linprog(prog.q,
                      A_ub=prog.A_in if self._m_in else None,
                      b_ub=prog.b_in if self._m_in else None,
                      A_eq=prog.A_eq if self._m_eq else None,
                      b_eq=prog.b_eq if self._m_eq else None,
                      bounds=np.column_stack([prog.lb, prog.ub]),
                      method="highs", options=_HIGHS_OPTIONS)
        if res.status != 0:
            return res.status, None, None
        # HiGHS marginals are d(objective)/d(rhs); the stacked multipliers
        # enter the stationarity condition with the opposite sign.
        y = -np.concatenate([res.eqlin.marginals, res.ineqlin.marginals,
                             (res.lower.marginals
                              + res.upper.marginals)[self._box_vars]])
        return 0, np.asarray(res.x, dtype=float), y

    # -- bulk exact step -------------------------------------------------------------

    def _try_polish(self, y: np.ndarray, tol: float, act_tol: float = 1e-5
                    ) -> Optional[SolveReport]:
        """Exact refinement seeded by y; accept only a tol-true result."""
        refined = self._active_set_refine(y, act_tol)
        if refined is None:
            return None
        return self._certified(*refined, tol, 0)

    def _pinned_solve(self, at_upper: np.ndarray, at_lower: np.ndarray
                      ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Exact (x, y) with the equality and working-set rows pinned.

        The +-1e-12 shift keeps an over-determined working set solvable.
        """
        n, m = self.prog.n, self.m
        idx = np.where(self._eq | at_upper | at_lower)[0]
        bound = np.where(at_lower, self.l, self.u)
        k = idx.size
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = self._Qs + 1e-12 * np.eye(n)
        if k:
            kkt[:n, n:] = self.C[idx].T
            kkt[n:, :n] = self.C[idx]
            kkt[n:, n:] = -1e-12 * np.eye(k)
        rhs = np.concatenate([-self.prog.q, bound[idx]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        xp = sol[:n]
        if not np.all(np.isfinite(xp)):
            return None
        yp = np.zeros(m)
        yp[idx] = sol[n:]
        return xp, yp

    def _active_set_refine(self, y: np.ndarray, act_tol: float = 1e-5,
                           max_rounds: int = 25
                           ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Iteratively fix the working set: add violated rows, drop wrong duals.

        Each round solves the equality-pinned KKT system exactly.  The seed
        working set comes from the multipliers y; a repeat of a previous
        working set aborts (cycle guard).
        """
        eq = self._eq
        # Seed from dual magnitudes: constraints that were active stay
        # recognizable even after the linear data moved under the iterate.
        at_upper = (~eq) & (y > act_tol)
        at_lower = (~eq) & (y < -act_tol)
        ftol, dtol = 1e-9, 1e-9
        seen: set[bytes] = set()
        for _ in range(max_rounds):
            key = at_upper.tobytes() + at_lower.tobytes()
            if key in seen:
                return None
            seen.add(key)
            solved = self._pinned_solve(at_upper, at_lower)
            if solved is None:
                return None
            xp, yp = solved
            z = self.C @ xp
            free = ~eq & ~at_upper & ~at_lower
            viol_u = free & (z > self.u + ftol)
            viol_l = free & (z < self.l - ftol)
            wrong_u = at_upper & (yp < -dtol)
            wrong_l = at_lower & (yp > dtol)
            if not (np.any(viol_u) or np.any(viol_l)
                    or np.any(wrong_u) or np.any(wrong_l)):
                return xp, yp
            at_upper = (at_upper & ~wrong_u) | viol_u
            at_lower = (at_lower & ~wrong_l) | viol_l
        return None

    # -- dual active set -------------------------------------------------------------

    def _factor_working_set(self, work: np.ndarray):
        """(rows, LU) of the unshifted KKT matrix of the working-set rows."""
        n = self.prog.n
        idx = np.where(work)[0]
        kkt = np.zeros((n + idx.size, n + idx.size))
        kkt[:n, :n] = self._Qs
        kkt[:n, n:] = self.C[idx].T
        kkt[n:, :n] = self.C[idx]
        return idx, lu_factor(kkt, check_finite=False)

    def _dual_active_set(self, y_seed: np.ndarray, tol: float
                         ) -> Optional[SolveReport]:
        """Goldfarb-Idnani dual active set; None unless Q is positive definite.

        Every iterate minimizes the objective on its working set with
        multipliers of the right sign.  Each iteration moves toward the most
        violated row: a full step makes it active and adds it, a partial
        step stops where a working multiplier reaches zero and drops that
        row.  The objective rises monotonically, so no working set repeats.
        """
        prog, n, m = self.prog, self.prog.n, self.m
        try:
            chol = np.linalg.cholesky(self._Qs)
        except np.linalg.LinAlgError:
            return None
        eq, C = self._eq, self.C
        at_upper = ~eq & (y_seed > 0.0)
        at_lower = ~eq & (y_seed < 0.0)
        # Start at the minimum on the seed rows; drop wrong-sign rows until
        # the working set is dual feasible (the equality rows alone are).
        while True:
            idx, lu = self._factor_working_set(eq | at_upper | at_lower)
            bound = np.where(at_lower, self.l, self.u)
            sol = lu_solve(lu, np.concatenate([-prog.q, bound[idx]]),
                           check_finite=False)
            x, y = sol[:n], np.zeros(m)
            y[idx] = sol[n:]
            wrong = (at_upper & (y < 0.0)) | (at_lower & (y > 0.0))
            if not wrong.any():
                break
            at_upper &= ~wrong
            at_lower &= ~wrong
        ftol = 0.1 * tol
        # Finite in exact arithmetic; the limit only stops rounding cycles.
        limit = 3 * (n + m)
        iterations = 0
        while iterations < limit:
            cx = C @ x
            over, under = cx - self.u, self.l - cx
            viol = np.where(eq | at_upper | at_lower, 0.0, np.maximum(over, under))
            if np.max(viol, initial=0.0) <= ftol:
                pinned = self._pinned_solve(at_upper, at_lower)
                done = None if pinned is None \
                    else self._certified(*pinned, tol, iterations)
                return done or self._finish(x, y, "max_iter", iterations)
            p = int(np.argmax(viol))
            side = 1.0 if over[p] > under[p] else -1.0
            a_p = side * C[p]
            b_p = side * (self.u[p] if side > 0.0 else self.l[p])
            # a_p' Q^-1 a_p: the curvature of a row independent of the set.
            h_p = float(np.sum(solve_triangular(chol, a_p, lower=True) ** 2))
            t_p = 0.0
            while iterations < limit:
                iterations += 1
                sol = lu_solve(lu, np.concatenate([-a_p, np.zeros(idx.size)]),
                               check_finite=False)
                step, r = sol[:n], sol[n:]
                sign = at_upper[idx].astype(float) - at_lower[idx]
                falling = sign * r < 0.0
                t1, drop = np.inf, -1
                if falling.any():
                    ratios = np.maximum(sign * y[idx], 0.0)[falling] \
                        / -(sign * r)[falling]
                    j = int(np.argmin(ratios))
                    t1, drop = float(ratios[j]), int(idx[falling][j])
                curvature = -float(a_p @ step)
                t2 = np.inf
                if curvature > _DEPENDENT * h_p:
                    t2 = max(float(a_p @ x) - b_p, 0.0) / curvature
                t = min(t1, t2)
                if not np.isfinite(t):
                    return self._finish(x, y, "infeasible", iterations)
                x = x + t * step
                y[idx] += t * r
                t_p += t
                if t2 <= t1:
                    y[p] = side * t_p
                    (at_upper if side > 0.0 else at_lower)[p] = True
                else:
                    y[drop] = 0.0
                    at_upper[drop] = at_lower[drop] = False
                idx, lu = self._factor_working_set(eq | at_upper | at_lower)
                if t2 <= t1:
                    break
        return self._finish(x, y, "max_iter", iterations)


def solve_qp(prog: ConvexProgram, tol: float = 1e-8,
             y0: Optional[np.ndarray] = None) -> SolveReport:
    """One-shot solve; see QpWorkspace for warm-started repeat solves."""
    return QpWorkspace(prog).solve(tol=tol, y0=y0)
