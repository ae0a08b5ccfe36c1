"""Convex quadratic programming by operator splitting.

Solves  min 0.5 x'Qx + q'x  subject to  A_eq x = b_eq, A_in x <= b_in,
lb <= x <= ub.  The workhorse is an ADMM splitting with over-relaxation,
per-row penalties, Ruiz equilibration of the problem data, and a cached KKT
factorization.  An exact active-set refinement ("polish") finishes a solve
from a seed point; a refined point is accepted only when its exactly
recomputed KKT residuals meet the tolerance.

A solve tries, in order, and stops at the first certified point:

1. the exact step from a caller's warm start (x0, y0);
2. when max|Q| <= tol (an LP up to a tie-break the splitting cannot
   resolve), the exact step from the HiGHS optimum of the linear part;
3. the splitting iteration, polished at checkpoints and at its end.

Residuals in the report are always recomputed from the returned point,
never taken from the iteration or from HiGHS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve
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

_SIGMA = 1e-6      # primal regularization inside the splitting
_ALPHA = 1.6       # over-relaxation
_RHO = 0.1         # initial splitting penalty, adapted during the iteration
_RHO_EQ_SCALE = 1e3
_CHECK_EVERY = 25
_ADAPT_EVERY = 100
_RUIZ_ITERS = 10
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
    iterations: int
    stationarity: float
    primal_feasibility: float
    complementarity: float
    objective: float
    polished: bool = False
    # Raw stacked-row multipliers (unscaled), useful for warm starting.
    y_stacked: np.ndarray = field(default_factory=lambda: np.zeros(0))


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
    """Reusable solver state: stacked constraints, scaling, factorization.

    Rebuilding only the linear data (`update_linear`) keeps the cached
    factorization, which makes repeated solves of structurally identical
    programs cheap.
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
        self._Qs = 0.5 * (prog.Q + prog.Q.T)
        self._q_max = float(np.max(np.abs(self._Qs), initial=0.0))
        self._scaled_ready = False
        self._set_rho(_RHO)

    # -- scaling -----------------------------------------------------------

    def _ensure_scaled(self) -> None:
        """Equilibration is deferred until the splitting iteration is needed."""
        if not self._scaled_ready:
            self._equilibrate()
            self._scaled_ready = True

    def _equilibrate(self) -> None:
        """Modified Ruiz scaling of (Q, q, C, l, u); identity when m == 0."""
        n, m = self.prog.n, self.m
        d = np.ones(n)
        e = np.ones(m)
        c = 1.0
        qs = self._Qs.copy()
        cs = self.C.copy()
        qv = self.prog.q.copy()
        for _ in range(_RUIZ_ITERS if m else 0):
            col_q = np.max(np.abs(qs), axis=0) if n else np.zeros(0)
            col_c = np.max(np.abs(cs), axis=0) if m else np.zeros(n)
            col = np.maximum(col_q, col_c)
            col[col < 1e-12] = 1.0
            delta_d = 1.0 / np.sqrt(col)
            row = np.max(np.abs(cs), axis=1) if m else np.zeros(0)
            row[row < 1e-12] = 1.0
            delta_e = 1.0 / np.sqrt(row)
            qs = qs * delta_d[:, None] * delta_d[None, :]
            cs = cs * delta_e[:, None] * delta_d[None, :]
            qv = qv * delta_d
            d *= delta_d
            e *= delta_e
            # Cost scaling keeps the quadratic and linear parts comparable.
            col_q = np.max(np.abs(qs), axis=0)
            denom = max(float(np.mean(col_q)), float(np.max(np.abs(qv), initial=0.0)))
            if denom > 1e-12:
                gamma = 1.0 / denom
                qs *= gamma
                qv *= gamma
                c *= gamma
        self._d, self._e, self._c = d, e, c
        self._Qs_s = qs
        self._C_s = cs
        self._refresh_scaled_vectors()

    def _refresh_scaled_vectors(self) -> None:
        self._q_s = self._c * self._d * self.prog.q
        self._l_s = self._e * self.l
        self._u_s = self._e * self.u

    # -- factorization -----------------------------------------------------

    def _set_rho(self, rho: float) -> None:
        self._rho = rho
        self._rho_vec = np.full(self.m, rho)
        self._rho_vec[: self._m_eq] = rho * _RHO_EQ_SCALE
        self._factor = None

    def _factorize(self) -> None:
        n, m = self.prog.n, self.m
        kkt = np.zeros((n + m, n + m))
        kkt[:n, :n] = self._Qs_s + _SIGMA * np.eye(n)
        if m:
            kkt[:n, n:] = self._C_s.T
            kkt[n:, :n] = self._C_s
            kkt[n:, n:] = -np.diag(1.0 / self._rho_vec)
        self._factor = lu_factor(kkt, check_finite=False)

    def update_linear(self, q: Optional[np.ndarray] = None,
                      b_eq: Optional[np.ndarray] = None,
                      b_in: Optional[np.ndarray] = None,
                      lb: Optional[np.ndarray] = None,
                      ub: Optional[np.ndarray] = None) -> None:
        prog = self.prog
        if q is not None:
            prog.q = np.asarray(q, dtype=float).ravel()
        if b_eq is not None:
            prog.b_eq = np.asarray(b_eq, dtype=float).ravel()
            self.l[: self._m_eq] = prog.b_eq
            self.u[: self._m_eq] = prog.b_eq
        if b_in is not None:
            prog.b_in = np.asarray(b_in, dtype=float).ravel()
            self.u[self._m_eq: self._m_eq + self._m_in] = prog.b_in
        if lb is not None or ub is not None:
            if lb is not None:
                prog.lb = np.asarray(lb, dtype=float).ravel()
            if ub is not None:
                prog.ub = np.asarray(ub, dtype=float).ravel()
            new_box = np.where(np.isfinite(prog.lb) | np.isfinite(prog.ub))[0]
            if not np.array_equal(new_box, self._box_vars):
                raise QpError("bound update changes the finite-bound pattern; "
                              "build a fresh workspace instead")
            off = self._m_eq + self._m_in
            self.l[off:] = prog.lb[self._box_vars]
            self.u[off:] = prog.ub[self._box_vars]
        if self._scaled_ready:
            self._refresh_scaled_vectors()

    # -- main iteration ------------------------------------------------------

    def solve(self, tol: float = 1e-8, max_iter: int = 20000,
              x0: Optional[np.ndarray] = None, y0: Optional[np.ndarray] = None
              ) -> SolveReport:
        """Solve to `tol` on the exactly recomputed KKT residuals.

        Order: the exact step from (x0, y0); then, if max|Q| <= tol, the
        exact step from the HiGHS optimum of the linear part; then the
        splitting iteration.
        """
        prog, n, m = self.prog, self.prog.n, self.m
        if m == 0:
            return self._solve_unconstrained(tol)
        if x0 is not None and np.asarray(x0).shape != (n,):
            x0 = None
        if y0 is not None and np.asarray(y0).shape != (m,):
            y0 = None
        # Warm starts usually carry the previous active set: one exact solve
        # often lands on the new optimum immediately.
        if x0 is not None and y0 is not None:
            refined = self._try_polish(np.asarray(x0, dtype=float),
                                       np.asarray(y0, dtype=float), tol, 0)
            if refined is not None:
                return refined
        # A quadratic term at or below tol is a tie-break the splitting
        # cannot resolve to tol; an exact LP vertex seeds the exact step.
        if self._q_max <= tol:
            seed = self._lp_seed()
            if seed is not None:
                # HiGHS multipliers are exact: any non-zero one marks a row
                # at its bound, however small the program's cost scale.
                refined = self._try_polish(*seed, tol, 0, act_tol=0.0)
                if refined is not None:
                    return refined

        self._ensure_scaled()
        d, e, c = self._d, self._e, self._c
        x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float) / d
        y = np.zeros(m) if y0 is None else c * np.asarray(y0, dtype=float) / e
        z = np.clip(self._C_s @ x, self._l_s, self._u_s)

        if self._factor is None:
            self._factorize()
        rho_vec = self._rho_vec
        status = "max_iter"
        iterations = max_iter
        dy_acc = np.zeros(m)
        rhs = np.empty(n + m)
        polish_trigger = max(100.0 * tol, 1e-4)
        last_polish_res = np.inf
        next_forced_polish = _CHECK_EVERY
        q_s, l_s, u_s = self._q_s, self._l_s, self._u_s
        c_s, qs_s = self._C_s, self._Qs_s
        for k in range(1, max_iter + 1):
            rhs[:n] = _SIGMA * x - q_s
            rhs[n:] = z - y / rho_vec
            sol = lu_solve(self._factor, rhs, check_finite=False)
            x_t = sol[:n]
            nu = sol[n:]
            z_t = z + (nu - y) / rho_vec
            x = _ALPHA * x_t + (1.0 - _ALPHA) * x
            z_relaxed = _ALPHA * z_t + (1.0 - _ALPHA) * z
            z_new = np.clip(z_relaxed + y / rho_vec, l_s, u_s)
            dy = rho_vec * (z_relaxed - z_new)
            y = y + dy
            z = z_new
            dy_acc += dy

            if k % _CHECK_EVERY == 0:
                # Residuals of the ORIGINAL problem, from unscaled iterates.
                r_prim = float(np.max(np.abs((c_s @ x - z) / e)))
                r_dual = float(np.max(np.abs((qs_s @ x + q_s + c_s.T @ y) / d))) / c
                if r_prim <= tol and r_dual <= tol:
                    status = "optimal"
                    iterations = k
                    break
                res = max(r_prim, r_dual)
                forced = k >= next_forced_polish
                if forced or (res <= polish_trigger and res < 0.5 * last_polish_res):
                    last_polish_res = min(last_polish_res, res)
                    if forced:
                        next_forced_polish *= 2
                    refined = self._try_polish(d * x, e * y / c, tol, k)
                    if refined is not None:
                        return refined
                if self._certify_infeasible(dy_acc):
                    status = "infeasible"
                    iterations = k
                    break
                if k % _ADAPT_EVERY == 0:
                    scale = np.sqrt(r_prim / max(r_dual, 1e-16))
                    if scale > 5.0 or scale < 0.2:
                        new_rho = float(np.clip(self._rho * np.clip(scale, 0.02, 50.0),
                                                1e-4, 1e4))
                        if new_rho != self._rho:
                            self._set_rho(new_rho)
                            self._factorize()
                            rho_vec = self._rho_vec
                    dy_acc[:] = 0.0

        x_u = self._d * x
        y_u = self._e * y / self._c
        report = self._finish(x_u, y_u, status, iterations)
        if status in ("optimal", "max_iter"):
            refined = self._try_polish(x_u, y_u, tol, iterations)
            if refined is not None:
                return refined
        return report

    def _solve_unconstrained(self, tol: float) -> SolveReport:
        prog = self.prog
        shifted = self._Qs + _SIGMA * np.eye(prog.n)
        x = np.linalg.solve(shifted, -prog.q)
        # Refine away the sigma shift against the true stationarity system.
        for _ in range(3):
            x = x - np.linalg.solve(shifted, self._Qs @ x + prog.q)
        duals = DualSet(np.zeros(0), np.zeros(0), np.zeros(prog.n), np.zeros(prog.n))
        stat, feas, comp = kkt_residual(prog, x, duals)
        status = "optimal" if stat <= max(tol, 1e-6) else "max_iter"
        return SolveReport(x, duals, status, 1, stat, feas, comp,
                           prog.objective(x), y_stacked=np.zeros(0))

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
                iterations: int, polished: bool = False) -> SolveReport:
        duals = self._split_duals(y)
        stat, feas, comp = kkt_residual(self.prog, x, duals)
        return SolveReport(x.copy(), duals, status, iterations, stat, feas, comp,
                           self.prog.objective(x), polished=polished,
                           y_stacked=y.copy())

    # -- infeasibility certificate ----------------------------------------------

    def _certify_infeasible(self, dy: np.ndarray, eps: float = 1e-10) -> bool:
        norm = float(np.max(np.abs(dy), initial=0.0))
        if norm <= eps:
            return False
        d = dy / norm
        if float(np.max(np.abs(self._C_s.T @ d))) > 1e-8:
            return False
        pos = np.maximum(d, 0.0)
        neg = np.minimum(d, 0.0)
        # A valid certificate cannot push on an infinite bound.
        if np.any(pos[np.isinf(self._u_s)] > 1e-10) \
                or np.any(neg[np.isinf(self._l_s)] < -1e-10):
            return False
        u_f = np.where(np.isfinite(self._u_s), self._u_s, 0.0)
        l_f = np.where(np.isfinite(self._l_s), self._l_s, 0.0)
        support = float(u_f @ pos + l_f @ neg)
        return support < -1e-10

    # -- LP seed -------------------------------------------------------------------

    def _lp_seed(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """(x, stacked y) from HiGHS on the linear part; None unless optimal."""
        prog = self.prog
        res = linprog(prog.q,
                      A_ub=prog.A_in if self._m_in else None,
                      b_ub=prog.b_in if self._m_in else None,
                      A_eq=prog.A_eq if self._m_eq else None,
                      b_eq=prog.b_eq if self._m_eq else None,
                      bounds=np.column_stack([prog.lb, prog.ub]),
                      method="highs", options=_HIGHS_OPTIONS)
        if res.status != 0:
            return None
        # HiGHS marginals are d(objective)/d(rhs); the stacked multipliers
        # enter the stationarity condition with the opposite sign.
        y = -np.concatenate([res.eqlin.marginals, res.ineqlin.marginals,
                             (res.lower.marginals
                              + res.upper.marginals)[self._box_vars]])
        return np.asarray(res.x, dtype=float), y

    # -- active-set polish ---------------------------------------------------------

    def _try_polish(self, x: np.ndarray, y: np.ndarray, tol: float,
                    iterations: int, act_tol: float = 1e-5
                    ) -> Optional[SolveReport]:
        """Exact refinement seeded by (x, y); accept only a tol-true result."""
        refined = self._active_set_refine(x, y, act_tol)
        if refined is None:
            return None
        xp, yp = refined
        rp = self._finish(xp, yp, "optimal", iterations, polished=True)
        if max(rp.stationarity, rp.primal_feasibility, rp.complementarity) <= tol:
            return rp
        return None

    def _active_set_refine(self, x: np.ndarray, y: np.ndarray,
                           act_tol: float = 1e-5, max_rounds: int = 25
                           ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Iteratively fix the working set: add violated rows, drop wrong duals.

        Each round solves the equality-pinned KKT system exactly.  The seed
        working set comes from the splitting iterate; a repeat of a previous
        working set aborts (cycle guard).
        """
        n, m = self.prog.n, self.m
        eq = np.zeros(m, dtype=bool)
        eq[: self._m_eq] = True
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
            idx = np.where(eq | at_upper | at_lower)[0]
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
            z = self.C @ xp
            viol_u = (~eq) & ~at_upper & ~at_lower & (z > self.u + ftol)
            viol_l = (~eq) & ~at_upper & ~at_lower & (z < self.l - ftol)
            wrong_u = at_upper & (yp < -dtol)
            wrong_l = at_lower & (yp > dtol)
            if not (np.any(viol_u) or np.any(viol_l)
                    or np.any(wrong_u) or np.any(wrong_l)):
                return xp, yp
            at_upper = (at_upper & ~wrong_u) | viol_u
            at_lower = (at_lower & ~wrong_l) | viol_l
        return None


def solve_qp(prog: ConvexProgram, tol: float = 1e-8, max_iter: int = 20000,
             x0: Optional[np.ndarray] = None, y0: Optional[np.ndarray] = None
             ) -> SolveReport:
    """One-shot solve; see QpWorkspace for warm-started repeat solves."""
    return QpWorkspace(prog).solve(tol=tol, max_iter=max_iter, x0=x0, y0=y0)
