"""Convex quadratic programming by an exact dual active set.

Solves  min 0.5 sum_i c_i x_i^2 + q'x  subject to  A_eq x = b_eq,
A_in x <= b_in, lb <= x <= ub, with diagonal curvatures c > 0: a strictly
convex program, the domain of the dual method below.  The rows are stacked
as l <= C x <= u.  A working set W pins rows at one of their bounds, and
its KKT system [[diag(c), C_W'], [C_W, 0]] is solved exactly, unshifted.  A
point is accepted only when its exactly recomputed KKT residuals meet the
tolerance.
SuperLU factors one working set per load, the base: the set the load's
first walk starts from.  A walk that certifies no point, SuperLU finding
its first set singular among the causes, starts again from its seed
repaired, and that set's factor is the base.  A factor's KKT layout is
kept with the multipliers in a `WarmStart`, one per kind of solve: the
controllers keep one per SQP iteration, so iteration i of a control step
starts from what iteration i of the step before left.  A factor that
repeats its warm start's layout keeps the column order of the layout's
first factor instead of ordering again (X. S. Li, ACM TOMS 31(3), 2005,
on reusing Pc).  Every other set borders the base with the Schur
complement S of the rows it adds and drops (Bartlett and Biegler's
QPSchur, Optim. Eng. 2006), which lasts the load: its QR factor changes
by one row and column per row that enters or leaves.  The dependence
test is the scaled pivot of a row entering S, or a step's row, against
the set: at or below `_PIVOT`, the row is dependent.  The base's own
rows are tested by the certificate.

A solve is one sequence: seed, dual active set, settle.

* The seed is the rows with non-zero warm multipliers y0.  Without y0 it
  is the rows of the HiGHS optimum of the linear part when max c <=
  TIE_BREAK (the quadratic term a tie-break; HiGHS proving the rows
  infeasible ends the solve "infeasible"), and otherwise the equality
  rows.  The repair borders K0, the equality rows' factor, to the seed,
  which leaves out each dependent row: the seed is repaired, not restarted.
* The Goldfarb-Idnani dual active set (Math. Prog. 27, 1983) starts at
  the minimum on the seed rows, less any of wrong sign, and adds one
  violated row at a time, dropping a working row whose multiplier reaches
  zero on the way.  The objective rises at every step, so it ends after
  finitely many: at the optimum, or "infeasible" when no finite step can
  satisfy a violated row.  A row dependent on the set has zero curvature.
* The settle is the exact solve of the final working set.  A start point
  that is already optimal is that exact solve, and is certified as it is.

A solve that certifies no point ends "max_iter" with its last iterate.
Dependent equality rows leave no base, so such a program ends "max_iter"
at once.  Residuals in the report are always recomputed from the returned
point, never taken from an iteration or from HiGHS: from the stacked rows,
with one product by C and one by its transpose; `kkt_residual` is the
independent check per constraint family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
# Unused here; perfbench/tests/test_trace.py:66 asserts qp.lu_factor is scipy's.
from scipy.linalg import get_lapack_funcs, lu_factor, qr_delete, qr_insert  # noqa: F401
from scipy.optimize import linprog
from scipy.sparse import csc_array
from scipy.sparse.linalg import SuperLU, splu

__all__ = [
    "QpError",
    "ConvexProgram",
    "DualSet",
    "SolveReport",
    "QpWorkspace",
    "KktLayout",
    "WarmStart",
    "kkt_residual",
]

# A scaled pivot at or below this marks a row dependent, or so nearly that a
# solve with it would lose half its digits.
_PIVOT = np.sqrt(np.finfo(float).eps)
_NONE = np.empty(0, dtype=int)
_geqrf, _orgqr, _pstrf, _trtrs = get_lapack_funcs(("geqrf", "orgqr", "pstrf", "trtrs"),
                                                  dtype=float)

# Curvatures all at or below this make the quadratic term a tie-break, whatever
# the solve's tolerance: the exact LP vertex carries the program's active set.
TIE_BREAK = 1e-8

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


def _unit(h: np.ndarray) -> np.ndarray:
    """A power of two s with h s^2 in [1/2, 2), 0 for h = 0: a scale that
    rounds nothing."""
    return np.ldexp(1.0, -(np.frexp(h)[1] >> 1)) * (h > 0.0)


def _times(at: np.ndarray, col: np.ndarray, val: np.ndarray, z: np.ndarray,
           rows: int) -> np.ndarray:
    """M z for the rows x len(z) matrix M of non-zeros (at, col, val)."""
    k = z[0].size
    terms = (val[:, None] * z[col].reshape(col.size, k)).ravel()
    places = (k * at[:, None] + np.arange(k)).ravel()
    return np.bincount(places, terms, minlength=rows * k).reshape((rows,) + z.shape[1:])


class _Ordered:
    """SuperLU of K P, P's column perm[k] the unit vector e_k, solving with
    K: x = P y for (K P) y = rhs, of one or more columns."""

    def __init__(self, lu: SuperLU, perm: np.ndarray):
        self.lu, self.perm, self.shape = lu, perm, lu.shape

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.lu.solve(rhs)[self.perm]


class KktLayout:
    """The KKT matrix K of one working set in CSC, laid out from its rows'
    non-zeros and kept for a repeat of the set and non-zeros, with the
    column order perm of its first factor: a repeat factors the columns
    permuted, K P, in their order and solves through `_Ordered`.  Another
    set or pattern replaces it."""

    def __init__(self) -> None:
        self.key: Optional[tuple[bytes, bytes]] = None

    def factor(self, work: np.ndarray, rows: np.ndarray, c: np.ndarray
               ) -> tuple[csc_array, SuperLU | _Ordered]:
        """K of the set `work`, whose rows are `rows`, with curvatures c, and
        its SuperLU factor; RuntimeError if SuperLU finds K singular."""
        n, live = c.size, rows != 0.0
        key = (work.tobytes(), live.tobytes())
        if key != self.key:
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
            self.kkt = csc_array((np.empty(order.size), row[order].astype(np.intc), indptr),
                                 shape=(indptr.size - 1,) * 2)
            self.key, self.src = key, np.concatenate([diag, e, e])[order]
            self.perm = self.kept = self.at = None
        kkt = self.kkt
        kkt.data[:] = np.concatenate([c, rows[live]])[self.src]
        # One-column panels: 15-30% faster here.  Supernodes relaxed to two
        # columns, because with one SuperLU prints BLAS errors on some
        # singular matrices.
        if self.perm is None:       # the layout's first factor orders its columns
            lu = splu(kkt, panel_size=1, relax=2)
            self.perm = lu.perm_c.copy()
            return kkt, lu
        if self.kept is None:       # K P, K's column k moved to perm[k]
            counts = np.diff(kkt.indptr)
            self.at = np.argsort(np.repeat(self.perm, counts), kind="stable")
            self.kept = kkt.copy()
            self.kept.indices = kkt.indices[self.at]
            self.kept.indptr[1:] = np.cumsum(counts[np.argsort(self.perm)])
        self.kept.data[:] = kkt.data[self.at]
        return kkt, _Ordered(splu(self.kept, permc_spec="NATURAL", panel_size=1, relax=2),
                             self.perm)


@dataclass
class WarmStart:
    """What a solve leaves for the next solve of its kind: its stacked
    multipliers `y` (None before the first, a cold start), its `status`,
    and the KKT `layout` of its last direct factor."""

    y: Optional[np.ndarray] = None
    status: str = ""
    layout: KktLayout = field(default_factory=KktLayout)


class _Schur:
    """A load's one SuperLU factor, of the base set B, bordered to any set.

    A set W is K, B's KKT matrix, bordered by a row and column per row of
    W ^ B: an added row brings [a_r; 0] and its multiplier, a dropped base
    row the unit vector of its multiplier, which pins it to zero and frees
    the row's equation.  Each is scaled by a power of two near h^-1/2 (added)
    or h^1/2 (dropped), h_r = a_r'diag(c)^-1 a_r, so the pivots of the
    border's Schur complement S = -U K^-1 U' are relative to one: in [-2, 0]
    for an added row, minus its relative curvature, and at least 1/2 for a
    dropped one.  S's QR factor lasts the load and changes by a row and
    column per row in or out; a row whose pivot is at or below `_PIVOT`
    stays out.  B is the set a load's first walk, or a repair, starts from;
    K0, the equality rows' factor, takes a whole seed into S only to repair.
    """

    def __init__(self, base: np.ndarray, kkt: csc_array, lu: SuperLU | _Ordered,
                 C: np.ndarray, c: np.ndarray):
        self.base, self.work, self.kkt, self.lu, self.C, self.c = base, base.copy(), kkt, lu, C, c
        self.rows, self.scale = _NONE, _NONE.astype(float)  # S's rows in order, their scales
        self.Q = self.R = np.empty((0, 0))
        self.nz = (_NONE, _NONE, self.scale)        # U's (row of S, column, value)

    def border(self, work: np.ndarray) -> np.ndarray:
        """Border K to `work`, rows that leave first: the set bordered,
        `work` less the rows that are dependent on the rest."""
        if work.tobytes() != self.work.tobytes():
            now, base = self.work.copy(), self.base
            for r in np.flatnonzero(now & ~work & ~base):
                self._leave(r)
            self._enter(np.flatnonzero(now & ~work & base), added=False)
            for r in np.flatnonzero(~now & work & base):
                self._leave(r)
            self._enter(np.flatnonzero(~now & work & ~base), added=True)
        return self.work

    def _leave(self, r: int) -> None:
        """Take row r out of S; a base row comes back to the set only if
        its pivot, on S^-1's diagonal, is above `_PIVOT`."""
        k = int(np.flatnonzero(self.rows == r)[0])
        if self.base[r] and not abs(self._s(np.eye(1, self.rows.size, k)[0])[k]) > _PIVOT:
            return
        if self.rows.size > 1:      # scipy's qr_delete crashes on a 0 x 1 R
            self.Q, self.R = qr_delete(self.Q, self.R, k, 1, "row", True, False)
            self.Q, self.R = qr_delete(self.Q, self.R, k, 1, "col", True, False)
        else:
            self.Q = self.R = np.empty((0, 0))
        at, col, val = self.nz
        self.nz = (at[at != k] - (at[at != k] > k), col[at != k], val[at != k])
        self.rows, self.scale = np.delete(self.rows, k), np.delete(self.scale, k)
        self.work[r] = self.base[r]

    def _enter(self, rows: np.ndarray, added: bool) -> None:
        """Border the rows, all added or all dropped, in one pass: their Schur
        complement's pivoted Cholesky factor leaves out each dependent row."""
        if not rows.size:
            return
        a = self.C[rows]
        s = _unit(a * a @ (1.0 / self.c))
        if added:
            i, j = np.nonzero(a)
            val = a[i, j] * s[i]
        else:       # the unit vectors of the rows' multipliers in K
            i, j, val = np.arange(rows.size), self.c.size - 1 + np.cumsum(self.base)[rows], 1 / s
        u = np.zeros((self.lu.shape[0], rows.size), order="F")
        u[j, i] = val
        z = self.lu.solve(u)
        # S's new columns, in the rows already in and in the new ones.
        b, own = self.rows.size, -_times(i, j, val, z, rows.size)
        cross = -_times(*self.nz, z, b)
        sign = -1.0 if added else 1.0
        factor, piv, rank, _ = _pstrf(sign * (own - cross.T @ self._s(cross) if b else own),
                                      tol=_PIVOT)
        if not (rank and factor[0, 0] ** 2 > _PIVOT):   # pstrf tests the later pivots
            return
        keep = piv[:rank] - 1
        cross, own = cross[:, keep], own[np.ix_(keep, keep)]
        if b:
            self.Q, self.R = qr_insert(self.Q, self.R, cross, b, "col", check_finite=False)
            self.Q, self.R = qr_insert(self.Q, self.R, np.hstack([cross.T, own]), b, "row",
                                       check_finite=False)
        else:
            f, tau = _geqrf(own)[:2]
            self.Q, self.R = _orgqr(f, tau)[0], np.triu(f)
        at = np.full(rows.size, -1)
        at[keep] = b + np.arange(rank)
        on = at[i] >= 0
        self.nz = tuple(np.concatenate(p) for p in zip(self.nz, (at[i][on], j[on], val[on])))
        self.rows = np.concatenate([self.rows, rows[keep]])
        self.scale = np.concatenate([self.scale, s[keep]])
        self.work[rows[keep]] = added

    def _s(self, t: np.ndarray) -> np.ndarray:
        """S^-1 t."""
        return _trtrs(self.R, self.Q.T @ t)[0]

    def _ut(self, w: np.ndarray) -> np.ndarray:
        """U' w."""
        return np.bincount(self.nz[1], self.nz[2] * w[self.nz[0]], minlength=self.lu.shape[0])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The bordered set's KKT solution: x, then one multiplier per row
        of the set in stacked order, for rhs laid out alike.  A bordered
        solve is refined once against the bordered matrix."""
        if not self.rows.size:                      # the set is B
            return self.lu.solve(rhs)
        n = self.c.size
        y = np.zeros(self.work.size)
        y[self.work] = rhs[n:]
        r, t = np.concatenate([rhs[:n], y[self.base]]), self.scale * y[self.rows]
        z, w = self._once(r, t)
        dz, dw = self._once(r - self.kkt @ z - self._ut(w), t - _times(*self.nz, z, t.size))
        z, w = z + dz, w + dw
        y[self.base], y[self.rows] = z[n:], self.scale * w     # a dropped row's is not kept
        return np.concatenate([z[:n], y[self.work]])

    def _once(self, r: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = self._s(t - _times(*self.nz, self.lu.solve(r), t.size))
        return self.lu.solve(r - self._ut(w)), w


class QpWorkspace:
    """Reusable solver state: the program's rows stacked as l <= C x <= u.

    `load` swaps in another program with the same rows and box columns, so
    repeated solves of programs that differ only in values share one
    workspace.  The linear cost solved is the workspace's own `q`: `load`
    takes the program's, and `update_linear` replaces only the workspace's,
    so a loaded program is never written to.  A KKT matrix holds the
    loaded program's non-zeros: an entry exactly zero is left out.  Every
    solve is of one system, the unshifted KKT matrix of a working set; it
    does not depend on q.  The load's base factor, of its first solve's
    seed set or of a seed repaired, and its bordering, the last set's,
    last until the next load (see `_Schur`).  A direct factor lays out its
    matrix in `layout`, which a caller may swap for one it keeps in a
    `WarmStart`.
    """

    def __init__(self, prog: ConvexProgram):
        self._box_vars = np.where(np.isfinite(prog.lb) | np.isfinite(prog.ub))[0]
        m_eq, m_in, m_box = prog.A_eq.shape[0], prog.A_in.shape[0], self._box_vars.size
        self._m_eq, self._m_in = m_eq, m_in
        self.m = m_eq + m_in + m_box
        self.C = np.zeros((self.m, prog.n))
        self.C[m_eq + m_in + np.arange(m_box), self._box_vars] = 1.0
        self._eq = np.arange(self.m) < m_eq
        self.layout = KktLayout()
        self.load(prog)

    def load(self, prog: ConvexProgram) -> None:
        """Make `prog` the program solved: its values in the workspace's rows.

        `prog` must have the rows and box columns of the first program.
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
        self._schur: Optional[_Schur] = None

    def update_linear(self, q: np.ndarray) -> None:
        self.q = np.asarray(q, dtype=float).ravel()

    def solve(self, tol: float = 1e-8, y0: Optional[np.ndarray] = None
              ) -> SolveReport:
        """Solve to `tol` on the exactly recomputed KKT residuals.

        The working set is seeded from the rows with non-zero warm
        multipliers y0; without y0, from the HiGHS optimum of the linear part
        if max curvature <= TIE_BREAK, else from the equality rows.  The dual
        active set finishes the solve from there.  A y0 of another shape than
        (m,) is a QpError.
        """
        warm = y0 is not None
        if warm and np.shape(y0) != (self.m,):
            raise QpError(f"y0 has shape {np.shape(y0)}, expected ({self.m},)")
        y_seed = np.asarray(y0, dtype=float) if warm else np.zeros(self.m)
        if not warm and np.max(self.prog.curvature, initial=0.0) <= TIE_BREAK:
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

    def _factor(self, work: np.ndarray) -> Optional[_Schur]:
        """The solver of [[diag(c), C_W'], [C_W, 0]]: the load's base, or W's
        own factor as the base, bordered to W; None if a row of W is dependent."""
        self._schur = self._schur or self._direct(work)
        if self._schur and self._schur.border(work).tobytes() == work.tobytes():
            return self._schur
        return None

    def _direct(self, work: np.ndarray) -> Optional[_Schur]:
        """SuperLU of the set's unshifted KKT matrix, in `layout`: the load's
        base, or K0 to repair a seed; None if SuperLU finds it singular.  A
        set of more rows than variables is singular unfactored: SuperLU can
        corrupt memory on one."""
        if np.count_nonzero(work) > self.prog.n:
            return None
        c = self.prog.curvature
        try:
            kkt, lu = self.layout.factor(work, self.C[work], c)
        except RuntimeError:    # "Factor is exactly singular"
            return None
        return _Schur(work.copy(), kkt, lu, self.C, c)

    # -- exact solves ------------------------------------------------------------------

    def _pinned_solve(self, at_upper: np.ndarray, at_lower: np.ndarray
                      ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Exact (x, y) with the equality and working-set rows pinned, or None
        if a row of the set is dependent."""
        work = self._eq | at_upper | at_lower
        solver = self._factor(work)
        if solver is None:
            return None
        sol = solver.solve(np.concatenate([-self.q, np.where(at_lower, self.l, self.u)[work]]))
        yp = np.zeros(self.m)
        yp[work] = sol[self.prog.n:]
        return sol[:self.prog.n], yp

    # -- dual active set -------------------------------------------------------------

    def _dual_active_set(self, y_seed: np.ndarray, tol: float) -> SolveReport:
        """The walk from the seed on the load's base, which a load's first
        walk factors from its own first set.  If the walk certifies no point,
        K0 bordered to the seed repairs it, leaving out each dependent row,
        and the walk starts again from the repaired seed on its own factor."""
        eq = self._eq
        at_upper = ~eq & (y_seed > 0.0) & self._finite_u
        at_lower = ~eq & (y_seed < 0.0) & self._finite_l
        done = self._walk(at_upper.copy(), at_lower.copy(), tol)
        # With the seed and the base both K0, a repair would repeat the walk.
        rows = at_upper | at_lower | (self._schur.base if self._schur else eq)
        k0 = done.status != "optimal" and rows[~eq].any() and self._direct(eq)
        if k0:
            kept = k0.border(eq | at_upper | at_lower)
            self._schur = None
            done = self._walk(at_upper & kept, at_lower & kept, tol)
        return done

    def _walk(self, at_upper: np.ndarray, at_lower: np.ndarray, tol: float) -> SolveReport:
        """Goldfarb-Idnani dual active set from the seed rows pinned.

        Every iterate minimizes the objective on its working set with
        multipliers of the right sign.  Each iteration moves toward the most
        violated row: a full step makes it active and adds it, a partial step
        stops where a working multiplier reaches zero and drops that row.
        The objective rises monotonically, so no working set repeats.
        """
        n, m = self.prog.n, self.m
        eq, C, c = self._eq, self.C, self.prog.curvature
        x, y = np.zeros(n), np.zeros(m)
        # Start at the minimum on the seed rows and drop wrong-sign rows
        # until the working set is dual feasible.
        while True:
            solved = self._pinned_solve(at_upper, at_lower)
            if solved is None:
                return self._finish(x, y, "max_iter", 0)
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
                # Settle: the working set's exact solve, which (x, y) is
                # before any step, reported optimal if it meets tol.
                exact = self._pinned_solve(at_upper, at_lower) if iterations else (x, y)
                done = exact and self._finish(*exact, "optimal", iterations,
                                              None if iterations else cx)
                if done and max(done.stationarity, done.primal_feasibility,
                                done.complementarity) <= tol:
                    return done
                return self._finish(x, y, "max_iter", iterations, cx)
            p = int(np.argmax(viol))
            side = 1.0 if over[p] > under[p] else -1.0
            a_p = side * C[p]
            b_p = side * (self.u[p] if side > 0.0 else self.l[p])
            # a_p' diag(c)^-1 a_p: the curvature of a row independent of the set.
            h_p = float(a_p * a_p @ (1.0 / c))
            t_p = 0.0
            while iterations < limit:
                work = eq | at_upper | at_lower
                solver = self._factor(work)
                if solver is None:
                    return self._finish(x, y, "max_iter", iterations)
                idx = np.flatnonzero(work)
                iterations += 1
                sol = solver.solve(np.concatenate([-a_p, np.zeros(idx.size)]))
                step, r = sol[:n], sol[n:]
                sign = at_upper[idx].astype(float) - at_lower[idx]
                falling = sign * r < 0.0
                t1, drop = np.inf, -1
                if falling.any():
                    ratios = np.maximum(sign * y[idx], 0.0)[falling] \
                        / -(sign * r)[falling]
                    j = int(np.argmin(ratios))
                    t1, drop = float(ratios[j]), int(idx[falling][j])
                # Its scaled pivot against the set: zero curvature at or below _PIVOT.
                curvature = -float(a_p @ step)
                t2 = max(float(a_p @ x) - b_p, 0.0) / curvature \
                    if curvature > _PIVOT * h_p else np.inf
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
