"""Convex quadratic programming by an exact dual active set.

Solves  min 0.5 sum_i c_i x_i^2 + q'x  subject to  A_eq x = b_eq,
A_in x <= b_in, lb <= x <= ub, with diagonal curvatures c > 0: a strictly
convex program, the domain of the dual method below.  The rows are stacked
as l <= C x <= u.  A working set W pins rows at one of their bounds, and
its KKT system [[diag(c), C_W'], [C_W, 0]] is solved exactly, unshifted.  A
point is accepted only when its exactly recomputed KKT residuals meet the
tolerance.
A working set's KKT matrix is laid out in CSC form from the non-zeros of
its rows in the loaded program; a layout whose set and non-zeros repeat the
last one's is kept and refilled with values.  SuperLU factors one working
set per load, the first a solve factors: the base.  Later sets border it
with a small dense Schur complement of the rows they add and drop (Bartlett
and Biegler's QPSchur, Optim. Eng. 2006), each solve refined once against
the set's exact KKT product; a Schur pivot too small for that, or a set too
far from the base, falls back to a direct factor, which becomes the base.

A solve is one sequence: seed, dual active set, settle.

* The seed is the rows with non-zero warm multipliers y0.  Without y0 it
  is the rows of the HiGHS optimum of the linear part when max c <= tol
  (the quadratic term a tie-break; HiGHS proving the rows infeasible ends
  the solve "infeasible"), and otherwise the equality rows.
* The Goldfarb-Idnani dual active set (Math. Prog. 27, 1983) starts at
  the minimum on the seed rows, less any of wrong sign, and adds one
  violated row at a time, dropping a working row whose multiplier reaches
  zero on the way.  The objective rises at every step, so it ends after
  finitely many: at the optimum, or "infeasible" when no finite step can
  satisfy a violated row.  A dependent row shows zero curvature, and a
  dependent seed restarts from the equality rows.
* The settle is the exact solve of the final working set.  A start point
  that is already optimal is that exact solve, and is certified as it is.

A solve that certifies no point ends "max_iter" with its last iterate.
Dependent equality rows make every working set's KKT matrix singular, so
such a program ends "max_iter" at once.
Residuals in the report are always recomputed from the returned point,
never taken from an iteration or from HiGHS: from the stacked rows, with
one product by C and one by its transpose; `kkt_residual` is the
independent check per constraint family.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.optimize import linprog
from scipy.sparse import csc_array
from scipy.sparse.linalg import SuperLU, splu

__all__ = [
    "QpError",
    "ConvexProgram",
    "DualSet",
    "SolveReport",
    "QpWorkspace",
    "kkt_residual",
]

# A row a whose step z has curvature z'diag(c)z below this share of
# a'diag(c)^-1 a lies in the span of the working set: adding it has no
# finite primal step.
_DEPENDENT = 1e-12
# A scaled Schur pivot below this marks a border row dependent, or so nearly
# that a bordered solve would lose half its digits: the set is factored directly.
_PIVOT = np.sqrt(np.finfo(float).eps)
# Each bordered set rebuilds and factors its dense Schur complement, which
# costs O(b^2 size) for b rows that differ from the base: a set further than
# this from the base is factored directly and becomes the base.
_MAX_BORDER = 64
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
    """QP data: min 0.5 sum_i curvature_i x_i^2 + q'x over the rows.

    `curvature` is the diagonal of the quadratic term, one finite entry
    > 0 per variable, and is required.
    """

    q: np.ndarray
    curvature: Optional[np.ndarray] = None
    A_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    A_in: Optional[np.ndarray] = None
    b_in: Optional[np.ndarray] = None
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=float).ravel()
        n = self.q.size
        if self.curvature is None:
            raise QpError("curvature must be finite and > 0")
        self.curvature = np.asarray(self.curvature, dtype=float)
        if self.curvature.shape != (n,):
            raise QpError(f"curvature has shape {self.curvature.shape}, expected ({n},)")
        if not np.all(np.isfinite(self.curvature) & (self.curvature > 0.0)):
            raise QpError("curvature must be finite and > 0")
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
    iterations: int             # dual active-set steps; 0 if the seed was optimal
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
    grad = prog.curvature * x + prog.q
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


class _Base:
    """A load's base factor K0, of its first factored working set.

    A later set's KKT system is K0's bordered by one row and column per row
    added or dropped: an added row a brings u = [a; 0] and its multiplier,
    a dropped row the unit u of its multiplier, which pins that multiplier
    to zero and frees the row's equation.  Each border row's u and K0^-1 u
    are kept, scaled by a'diag(c)^-1 a to the power -1/2 (added) or 1/2
    (dropped), so the Schur complement's pivots are relative to one.
    """

    def __init__(self, work: np.ndarray, lu: SuperLU, C: np.ndarray, c: np.ndarray):
        self.key, self.work, self.lu, self.C, self.c = work.tobytes(), work, lu, C, c
        self.slot = None

    def border(self, work: np.ndarray, idx: np.ndarray) -> Optional[_Bordered]:
        """The set's solver, or None if more than `_MAX_BORDER` rows differ
        from the base or a Schur pivot is too small."""
        n, size = self.c.size, self.lu.shape[0]
        if self.slot is None:
            self.at = n - 1 + np.cumsum(self.work)      # base rows' places in K0
            self.based, self.head = np.flatnonzero(self.work), np.arange(n)
            self.slot, self.scale = np.full(self.work.size, -1), np.empty(0)
            self.u, self.z = np.empty((0, size)), np.empty((0, size))
        rows = np.flatnonzero(work != self.work)
        if rows.size > _MAX_BORDER:
            return None
        fresh = rows[self.slot[rows] < 0]
        if fresh.size:
            h = self.C[fresh] ** 2 @ (1.0 / self.c)
            if not h.min() > 0.0:
                return None
            dropped = self.work[fresh]
            u = np.zeros((fresh.size, size))
            u[~dropped, :n] = self.C[fresh[~dropped]]
            u[np.flatnonzero(dropped), self.at[fresh[dropped]]] = 1.0
            self.slot[fresh] = self.scale.size + np.arange(fresh.size)
            scale = np.where(dropped, h, 1.0 / h) ** 0.5
            self.scale = np.concatenate([self.scale, scale])
            self.u = np.vstack([self.u, scale[:, None] * u])
            self.z = np.vstack([self.z, scale[:, None] * self.lu.solve(u.T).T])
        slots = self.slot[rows]
        u, z = self.u[slots], self.z[slots]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            lu_s = lu_factor(-(u @ z.T), check_finite=False)
        pivots = np.abs(lu_s[0].diagonal())
        if not pivots.min() > _PIVOT:
            return None
        # Where the bordered rhs comes from in (rhs, 0), and the set's solution in its.
        source = np.where(work, n - 1 + np.cumsum(work), n + idx.size)
        place = self.at.copy()
        place[rows] = size + np.arange(rows.size)
        return _Bordered(self.lu, u, z.T, lu_s, self.scale[slots], self.C[idx], self.c,
                         np.concatenate([self.head, source[self.based], source[rows]]),
                         np.concatenate([self.head, place[idx]]))


class _Bordered:
    """Solves of one working set's KKT system by the base factor, bordered;
    each is refined once against the set's exact KKT product."""

    def __init__(self, lu, u, z, lu_s, scale, rows, c, into, outof):
        self.lu, self.u, self.z, self.lu_s, self.scale = lu, u, z, lu_s, scale
        self.rows, self.c, self.into, self.outof = rows, c, into, outof

    def _once(self, rhs: np.ndarray) -> np.ndarray:
        bordered = np.append(rhs, 0.0)[self.into]
        z = self.lu.solve(bordered[:self.lu.shape[0]])
        w = lu_solve(self.lu_s, self.scale * bordered[self.lu.shape[0]:] - self.u @ z,
                     check_finite=False)
        z -= self.z @ w
        return np.concatenate([z, self.scale * w])[self.outof]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        sol = self._once(rhs)
        x, y = sol[:self.c.size], sol[self.c.size:]
        return sol + self._once(rhs - np.concatenate([self.c * x + self.rows.T @ y,
                                                      self.rows @ x]))


class QpWorkspace:
    """Reusable solver state: the program's rows stacked as l <= C x <= u.

    `load` swaps in another program with the same rows and box columns, so
    repeated solves of programs that differ only in values share one
    workspace.  The linear cost solved is the workspace's own `q`: `load`
    takes the program's, and `update_linear` replaces only the workspace's,
    so a loaded program is never written to.  A working set's KKT matrix
    holds the loaded program's non-zeros: an entry exactly zero is left
    out.  Every solve is of one system, the unshifted KKT matrix of a
    working set; it does not depend on q.  The load's base factor and each
    border row's solve with it last until the next load, and the last
    working set's solver is kept for a repeat.  A direct factor that
    repeats the last one's set and non-zeros refills its CSC values.
    """

    def __init__(self, prog: ConvexProgram):
        self._box_vars = np.where(np.isfinite(prog.lb) | np.isfinite(prog.ub))[0]
        m_eq, m_in, m_box = prog.A_eq.shape[0], prog.A_in.shape[0], self._box_vars.size
        self._m_eq, self._m_in = m_eq, m_in
        self.m = m_eq + m_in + m_box
        self.C = np.zeros((self.m, prog.n))
        self.C[m_eq + m_in + np.arange(m_box), self._box_vars] = 1.0
        self._eq = np.arange(self.m) < m_eq
        self._csc = (None,)                # the last direct factor's layout, keyed
        self.load(prog)

    def load(self, prog: ConvexProgram) -> None:
        """Make `prog` the program solved: its values in the workspace's rows.

        `prog` must have the rows and box columns of the first program.  The
        kept LU belongs to the last program's values and is dropped.
        """
        m_eq, m_in = self._m_eq, self._m_in
        if prog.A_eq.shape != (m_eq, self.C.shape[1]) or prog.A_in.shape[0] != m_in \
                or not np.array_equal(np.flatnonzero(np.isfinite(prog.lb)
                                                     | np.isfinite(prog.ub)),
                                      self._box_vars):
            raise QpError("program does not have the workspace's rows and box columns")
        self.C[:m_eq] = prog.A_eq
        self.C[m_eq:m_eq + m_in] = prog.A_in
        self.prog, self.q = prog, prog.q
        self.l = np.concatenate([prog.b_eq, np.full(m_in, -np.inf),
                                 prog.lb[self._box_vars]])
        self.u = np.concatenate([prog.b_eq, prog.b_in, prog.ub[self._box_vars]])
        self._finite_l, self._finite_u = np.isfinite(self.l), np.isfinite(self.u)
        self._kept = (None, None, None)   # working set, rows, solver: the last
        self._base: Optional[_Base] = None

    def update_linear(self, q: np.ndarray) -> None:
        self.q = np.asarray(q, dtype=float).ravel()

    def solve(self, tol: float = 1e-8, y0: Optional[np.ndarray] = None
              ) -> SolveReport:
        """Solve to `tol` on the exactly recomputed KKT residuals.

        The working set is seeded from the rows with non-zero warm
        multipliers y0; without y0, from the HiGHS optimum of the linear part
        if max curvature <= tol, else from the equality rows.  The dual
        active set finishes the solve from there.
        """
        y_seed = np.zeros(self.m)
        if y0 is not None and np.asarray(y0).shape == (self.m,):
            y_seed = np.asarray(y0, dtype=float)
        elif np.max(self.prog.curvature, initial=0.0) <= tol:
            # A quadratic term at or below tol is a tie-break: the exact LP
            # vertex carries the active set of the program up to it.
            status, y_lp = self._lp_seed()
            if status == 2:
                return self._finish(np.zeros(self.prog.n), y_seed, "infeasible", 0)
            if status == 0:
                y_seed = y_lp
        return self._dual_active_set(y_seed, tol)

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

    def _residuals(self, x: np.ndarray, y: np.ndarray, cx: np.ndarray
                   ) -> tuple[float, float, float]:
        """`kkt_residual` of (x, y) from the stacked rows, given cx = C x.

        The multipliers are those `_split_duals` states: an inequality
        row's is clipped at zero, a box row's sign picks its side.
        """
        m_eq, m_in = self._m_eq, self._m_in
        mult = y.copy()
        mult[m_eq:m_eq + m_in] = np.maximum(mult[m_eq:m_eq + m_in], 0.0)
        grad = self.prog.curvature * x + self.q + self.C.T @ mult
        over, under = cx - self.u, self.l - cx
        at_u = np.maximum(mult[m_eq:], 0.0) * np.where(self._finite_u, over, 0.0)[m_eq:]
        at_l = np.maximum(-mult[m_eq:], 0.0) * np.where(self._finite_l, under, 0.0)[m_eq:]
        return (float(np.abs(grad).max(initial=0.0)),
                float(np.maximum(over, under).max(initial=0.0)),
                float(np.abs(np.concatenate([at_u, at_l])).max(initial=0.0)))

    def _finish(self, x: np.ndarray, y: np.ndarray, status: str,
                iterations: int, cx: Optional[np.ndarray] = None) -> SolveReport:
        stat, feas, comp = self._residuals(x, y, self.C @ x if cx is None else cx)
        objective = float(0.5 * x * self.prog.curvature @ x + self.q @ x)
        return SolveReport(x.copy(), self._split_duals(y), status, iterations,
                           stat, feas, comp, objective, y_stacked=y.copy())

    def _certified(self, x: np.ndarray, y: np.ndarray, tol: float,
                   iterations: int, cx: Optional[np.ndarray] = None
                   ) -> Optional[SolveReport]:
        """The exact point as an optimal report, or None above tol."""
        rp = self._finish(x, y, "optimal", iterations, cx)
        if max(rp.stationarity, rp.primal_feasibility, rp.complementarity) <= tol:
            return rp
        return None

    # -- LP seed -------------------------------------------------------------------

    def _lp_seed(self) -> tuple[int, Optional[np.ndarray]]:
        """HiGHS on the linear part: (status, stacked y if optimal).

        HiGHS multipliers are exact: any non-zero one marks a row at its
        bound, however small the program's cost scale.
        """
        prog = self.prog
        res = linprog(self.q,
                      A_ub=prog.A_in if self._m_in else None,
                      b_ub=prog.b_in if self._m_in else None,
                      A_eq=prog.A_eq if self._m_eq else None,
                      b_eq=prog.b_eq if self._m_eq else None,
                      bounds=np.column_stack([prog.lb, prog.ub]),
                      method="highs", options=_HIGHS_OPTIONS)
        if res.status != 0:
            return res.status, None
        # HiGHS marginals are d(objective)/d(rhs); the stacked multipliers
        # enter the stationarity condition with the opposite sign.
        y = -np.concatenate([res.eqlin.marginals, res.ineqlin.marginals,
                             (res.lower.marginals
                              + res.upper.marginals)[self._box_vars]])
        return 0, y

    # -- KKT factor ------------------------------------------------------------------

    def _factor(self, work: np.ndarray
                ) -> tuple[np.ndarray, Optional[SuperLU | _Bordered]]:
        """(rows W, solver or None if singular) of [[diag(c), C_W'], [C_W, 0]]:
        the base factor, the base bordered, or else a direct factor."""
        key = work.tobytes()
        if self._kept[0] != key:
            idx, lu = np.flatnonzero(work), None
            # More rows than variables are dependent: singular, whatever
            # pivots rounding leaves.
            if idx.size <= self.prog.n:
                base = self._base
                lu = (None if base is None else base.lu if key == base.key
                      else base.border(work, idx)) or self._direct(work)
            self._kept = (key, idx, lu)
        return self._kept[1], self._kept[2]

    def _direct(self, work: np.ndarray) -> Optional[SuperLU]:
        """SuperLU of the set's unshifted KKT matrix, None if singular; it
        becomes the base (see `_Base`).  The layout is that of the working
        rows' non-zeros in the loaded program, and is kept: a repeat of the
        last factor's set and non-zeros refills its CSC matrix's values."""
        n, c, rows = self.prog.n, self.prog.curvature, self.C[work]
        live = rows != 0.0
        key = (work.tobytes(), live.tobytes())
        if key != self._csc[0]:
            # The entries: c_j at (j, j), and C_W's e-th non-zero (r, j) at
            # (n + r, j) and (j, n + r); each one's value is at `src` in
            # (c, C_W's non-zeros row by row).  CSC orders them by column,
            # rows ascending.
            r, j = np.divmod(np.flatnonzero(live), n)
            diag, e = np.arange(n), n + np.arange(r.size)
            row, col = np.concatenate([diag, n + r, j]), np.concatenate([diag, j, n + r])
            order = np.lexsort((row, col))
            indptr = np.zeros(n + len(rows) + 1, dtype=np.intc)
            indptr[1:] = np.cumsum(np.bincount(col, minlength=indptr.size - 1))
            kkt = csc_array((np.empty(order.size), row[order].astype(np.intc), indptr),
                            shape=(indptr.size - 1,) * 2)
            self._csc = (key, kkt, np.concatenate([diag, e, e])[order])
        kkt, src = self._csc[1:]
        kkt.data[:] = np.concatenate([c, rows[live]])[src]
        try:
            # One-column panels, no relaxed supernodes: 15-30% faster here.
            lu = splu(kkt, panel_size=1, relax=1)
        except RuntimeError:    # "Factor is exactly singular"
            return None
        self._base = _Base(work.copy(), lu, self.C, c)
        return lu

    # -- exact solves ------------------------------------------------------------------

    def _pinned_solve(self, at_upper: np.ndarray, at_lower: np.ndarray
                      ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Exact (x, y) with the equality and working-set rows pinned, or None
        if the KKT matrix is singular (always so with more rows than variables).
        """
        idx, lu = self._factor(self._eq | at_upper | at_lower)
        if lu is None:
            return None
        sol = lu.solve(np.concatenate([-self.q,
                                       np.where(at_lower, self.l, self.u)[idx]]))
        xp, yp = sol[:self.prog.n], np.zeros(self.m)
        if not np.isfinite(xp).all():
            return None
        yp[idx] = sol[self.prog.n:]
        return xp, yp

    # -- dual active set -------------------------------------------------------------

    def _dual_active_set(self, y_seed: np.ndarray, tol: float) -> SolveReport:
        """Goldfarb-Idnani dual active set from the rows the seed marks.

        Every iterate minimizes the objective on its working set with
        multipliers of the right sign.  Each iteration moves toward the most
        violated row: a full step makes it active and adds it, a partial
        step stops where a working multiplier reaches zero and drops that
        row.  The objective rises monotonically, so no working set repeats.
        """
        n, m = self.prog.n, self.m
        eq, C, c = self._eq, self.C, self.prog.curvature
        at_upper = ~eq & (y_seed > 0.0)
        at_lower = ~eq & (y_seed < 0.0)
        x, y = np.zeros(n), np.zeros(m)
        root = np.sqrt(c)
        # Start at the minimum on the seed rows and drop wrong-sign rows
        # until the working set is dual feasible.  A singular seed restarts
        # from the equality rows; singular equality rows end max_iter.
        while True:
            solved = self._pinned_solve(at_upper, at_lower)
            if solved is None:
                if not (at_upper.any() or at_lower.any()):
                    return self._finish(x, y, "max_iter", 0)
                at_upper[:] = at_lower[:] = False
                continue
            x, y = solved
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
            if viol.max(initial=0.0) <= ftol:
                if not iterations:
                    # (x, y) is the exact solve of the working set that
                    # settling would repeat: certify it as it is.
                    return self._certified(x, y, tol, 0, cx) \
                        or self._finish(x, y, "max_iter", 0, cx)
                return self._settle(at_upper, at_lower, x, y, tol, iterations)
            p = int(np.argmax(viol))
            side = 1.0 if over[p] > under[p] else -1.0
            a_p = side * C[p]
            b_p = side * (self.u[p] if side > 0.0 else self.l[p])
            # a_p' diag(c)^-1 a_p: the curvature of a row independent of the set.
            w = a_p / root
            h_p = float(w @ w)
            t_p = 0.0
            while iterations < limit:
                # The set the last step left; the start set's factor is kept.
                idx, lu = self._factor(eq | at_upper | at_lower)
                if lu is None:
                    return self._finish(x, y, "max_iter", iterations)
                iterations += 1
                sol = lu.solve(np.concatenate([-a_p, np.zeros(idx.size)]))
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
                    break
                y[drop] = 0.0
                at_upper[drop] = at_lower[drop] = False
        return self._finish(x, y, "max_iter", iterations)

    def _settle(self, at_upper: np.ndarray, at_lower: np.ndarray, x: np.ndarray,
                y: np.ndarray, tol: float, iterations: int) -> SolveReport:
        """The working set's exact, unshifted solve if certified, else
        max_iter at (x, y); the factor is kept for a repeat of the set."""
        pinned = self._pinned_solve(at_upper, at_lower)
        done = None if pinned is None else self._certified(*pinned, tol, iterations)
        return done or self._finish(x, y, "max_iter", iterations)
