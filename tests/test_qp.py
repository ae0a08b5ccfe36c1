"""QP solver against hand cases and an exhaustive active-set oracle."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from essmpc import qp
from essmpc.qp import ConvexProgram, DualSet, QpError, QpWorkspace, kkt_residual


def enumerate_qp_oracle(c, q, A, b, A_eq=None, b_eq=None, tol=1e-8):
    """Brute force over inequality active sets for a strictly convex QP.

    Solves min 0.5 sum c_i x_i^2 + q'x s.t. Ax <= b, A_eq x = b_eq by testing
    every subset of inequality rows as the active set, with the equality rows
    always active: solve the equality KKT system, keep the point iff it is
    primal feasible with nonnegative multipliers on the active inequality
    rows.
    """
    n = q.size
    m = A.shape[0]
    if A_eq is None:
        A_eq, b_eq = np.zeros((0, n)), np.zeros(0)
    m_eq = A_eq.shape[0]
    best = None
    for r in range(0, min(m, n - m_eq) + 1):
        for subset in itertools.combinations(range(m), r):
            rows = np.vstack([A_eq, A[list(subset)]])
            k = rows.shape[0]
            kkt = np.zeros((n + k, n + k))
            kkt[:n, :n] = np.diag(c)
            if k:
                kkt[:n, n:] = rows.T
                kkt[n:, :n] = rows
            rhs = np.concatenate([-q, b_eq, b[list(subset)]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            mu = sol[n + m_eq:]
            if np.any(A @ x - b > tol):
                continue
            if r and np.any(mu < -tol):
                continue
            obj = 0.5 * c @ x**2 + q @ x
            if best is None or obj < best[1] - 1e-12:
                best = (x, obj)
    assert best is not None, "oracle found no KKT point"
    return best[0]


def random_qp(rng, n, m, m_eq=0, box=False):
    """ConvexProgram fields of a feasible, strictly convex QP.

    The curvature is the diagonal of G G' + n I for a normal G.  m
    inequality rows, m_eq equality rows and, with `box`, finite bounds on
    about half of the variables, all satisfied by one random point.
    """
    curvature = np.sum(rng.normal(size=(n, n))**2, axis=1) + n
    q = rng.normal(size=n) * 2.0
    A = rng.normal(size=(m, n))
    x_feas = rng.normal(size=n) * 0.5
    A_eq = rng.normal(size=(m_eq, n))
    lb, ub = np.full(n, -np.inf), np.full(n, np.inf)
    if box:
        boxed = rng.random(n) < 0.5
        lb[boxed] = x_feas[boxed] - rng.uniform(0.05, 1.0, size=boxed.sum())
        ub[boxed] = x_feas[boxed] + rng.uniform(0.05, 1.0, size=boxed.sum())
    return dict(curvature=curvature, q=q, A_in=A,
                b_in=A @ x_feas + rng.uniform(0.1, 1.5, size=m),
                A_eq=A_eq, b_eq=A_eq @ x_feas, lb=lb, ub=ub)


def oracle_rows(kw):
    """Inequality rows of the program with its finite bounds folded in."""
    eye = np.eye(kw["q"].size)
    lo, hi = np.isfinite(kw["lb"]), np.isfinite(kw["ub"])
    A = np.vstack([kw["A_in"], -eye[lo], eye[hi]])
    b = np.concatenate([kw["b_in"], -kw["lb"][lo], kw["ub"][hi]])
    return A, b


SEEDS = ("cold", "warm", "adversarial")


def seeded_solve(kw, seed, rng, tol=1e-9):
    """Solve the program from one of three seeds of the working set.

    "cold" passes no multipliers; "warm" passes the optimal multipliers of
    the same program with q perturbed; "adversarial" puts a random +-1 on
    every row that is not an equality.
    """
    ws = QpWorkspace(ConvexProgram(**kw))
    y0 = None
    if seed == "warm":
        near = {**kw, "q": kw["q"] + 0.5 * rng.normal(size=kw["q"].size)}
        y0 = QpWorkspace(ConvexProgram(**near)).solve(tol=tol).y_stacked
    elif seed == "adversarial":
        y0 = np.where(ws._eq, 0.0, rng.choice([-1.0, 1.0], size=ws.m))
    return ws.solve(tol=tol, y0=y0)


class TestHandCases:
    def test_active_bound(self):
        prog = ConvexProgram(q=np.zeros(1), curvature=np.array([2.0]),
                             lb=np.array([1.0]))
        report = QpWorkspace(prog).solve()
        assert report.status == "optimal"
        assert report.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_absolute_value_epigraph(self):
        # min s subject to -s <= w <= s with w pinned to -0.3, the 1e-8
        # diagonal of the controllers making it strictly convex.
        prog = ConvexProgram(
            q=np.array([0.0, 1.0]), curvature=np.full(2, 1e-8),
            A_eq=np.array([[1.0, 0.0]]), b_eq=np.array([-0.3]),
            A_in=np.array([[1.0, -1.0], [-1.0, -1.0]]), b_in=np.zeros(2))
        report = QpWorkspace(prog).solve()
        assert report.status == "optimal"
        assert report.x[1] == pytest.approx(0.3, abs=1e-9)

    def test_equality_constrained(self):
        prog = ConvexProgram(q=np.array([1.0, 1.0]), curvature=np.ones(2),
                             A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([2.0]))
        report = QpWorkspace(prog).solve(tol=1e-10)
        assert np.allclose(report.x, [1.0, 1.0], atol=1e-8)

    def test_infeasible_detected(self):
        prog = ConvexProgram(q=np.zeros(1), curvature=np.array([2.0]),
                             A_in=np.array([[-1.0], [1.0]]),
                             b_in=np.array([-1.0, 0.0]))
        report = QpWorkspace(prog).solve()
        assert report.status == "infeasible"

    def test_infeasible_lp_falls_back_to_certificate(self):
        # With max c <= tol the cold solve runs HiGHS, whose phase 1 proves
        # the rows infeasible.
        prog = ConvexProgram(q=np.zeros(1), curvature=np.array([1e-8]),
                             A_in=np.array([[-1.0], [1.0]]), b_in=np.array([-1.0, 0.0]))
        report = QpWorkspace(prog).solve()
        assert report.status == "infeasible"

    def test_dependent_equality_rows(self):
        # Both rows say x1 + x2 = 1, so every working set's KKT matrix is
        # exactly singular: the solve has no certificate and says so.
        prog = ConvexProgram(q=np.zeros(2), curvature=np.ones(2),
                             A_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
                             b_eq=np.array([1.0, 1.0]))
        report = QpWorkspace(prog).solve()
        assert report.status == "max_iter" and not report.polished

    def test_lp_tie_break_is_kept(self):
        # Every point of x1 + x2 = 1 in the unit box is an LP optimum; the
        # 1e-8 diagonal picks the least-norm one, not the HiGHS vertex.
        prog = ConvexProgram(q=np.array([-1.0, -1.0]), curvature=np.full(2, 1e-8),
                             A_in=np.array([[1.0, 1.0]]), b_in=np.array([1.0]),
                             lb=np.zeros(2), ub=np.ones(2))
        report = QpWorkspace(prog).solve()
        assert report.status == "optimal" and report.iterations == 0
        assert np.allclose(report.x, [0.5, 0.5], atol=1e-9)

    def test_variable_pinned_twice_in_the_seed(self):
        # x0 = 0.2 both by an equality row and by lb == ub; a seed holding
        # the box row as well makes the working set's KKT matrix singular.
        prog = ConvexProgram(q=np.array([1.0, -1.0]), curvature=np.ones(2),
                             A_eq=np.array([[1.0, 0.0]]), b_eq=np.array([0.2]),
                             A_in=np.array([[1.0, 1.0]]), b_in=np.array([1.0]),
                             lb=np.array([0.2, -np.inf]), ub=np.array([0.2, np.inf]))
        ws = QpWorkspace(prog)
        y0 = np.zeros(ws.m)
        y0[2] = 1.0                      # the box row of x0, at its upper bound
        report = ws.solve(tol=1e-9, y0=y0)
        assert report.status == "optimal"
        assert np.allclose(report.x, [0.2, 0.8], atol=1e-9)


class TestOracleSweep:
    def test_fifty_random_qps_match_enumeration(self):
        rng, seed_rng = np.random.default_rng(42), np.random.default_rng(142)
        for trial in range(50):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            kw = random_qp(rng, n, m)
            expected = enumerate_qp_oracle(kw["curvature"], kw["q"],
                                           kw["A_in"], kw["b_in"])
            for seed in SEEDS:
                report = seeded_solve(kw, seed, seed_rng)
                assert report.status == "optimal", f"trial {trial}, {seed}"
                assert np.max(np.abs(report.x - expected)) < 1e-6, f"trial {trial}, {seed}"
                assert report.stationarity < 1e-6
                assert report.primal_feasibility < 1e-6
                assert report.complementarity < 1e-6

    def test_equality_rows_and_boxes_match_enumeration(self):
        rng, seed_rng = np.random.default_rng(43), np.random.default_rng(143)
        for trial in range(50):
            n = int(rng.integers(1, 7))
            m_eq = int(rng.integers(0, min(n, 3)))
            kw = random_qp(rng, n, int(rng.integers(0, 6)), m_eq, box=True)
            A, b = oracle_rows(kw)
            expected = enumerate_qp_oracle(kw["curvature"], kw["q"], A, b,
                                           kw["A_eq"], kw["b_eq"])
            for seed in SEEDS:
                report = seeded_solve(kw, seed, seed_rng)
                assert report.status == "optimal", f"trial {trial}, {seed}"
                assert np.max(np.abs(report.x - expected)) < 1e-6, f"trial {trial}, {seed}"
                assert max(report.stationarity, report.primal_feasibility,
                           report.complementarity) < 1e-9, f"trial {trial}, {seed}"


class TestKktResidual:
    def test_hand_solved_optimum_is_exact(self):
        # min (x-2)^2 s.t. x <= 1: optimum x=1, dual mu = 2.
        prog = ConvexProgram(q=np.array([-4.0]), curvature=np.array([2.0]),
                             A_in=np.array([[1.0]]), b_in=np.array([1.0]))
        duals = DualSet(np.zeros(0), np.array([2.0]), np.zeros(1), np.zeros(1))
        stat, feas, comp = kkt_residual(prog, np.array([1.0]), duals)
        assert stat < 1e-12 and feas < 1e-12 and comp < 1e-12

    def test_perturbed_point_has_residual(self):
        prog = ConvexProgram(q=np.array([-4.0]), curvature=np.array([2.0]),
                             A_in=np.array([[1.0]]), b_in=np.array([1.0]))
        duals = DualSet(np.zeros(0), np.array([2.0]), np.zeros(1), np.zeros(1))
        stat, _feas, _comp = kkt_residual(prog, np.array([1.1]), duals)
        assert stat > 0.1

    def test_solver_reports_match_recomputation(self):
        rng = np.random.default_rng(3)
        prog = ConvexProgram(**random_qp(rng, 5, 6))
        report = QpWorkspace(prog).solve(tol=1e-9)
        stat, feas, comp = kkt_residual(prog, report.x, report.duals)
        assert stat == pytest.approx(report.stationarity, abs=1e-12)
        assert feas == pytest.approx(report.primal_feasibility, abs=1e-12)
        assert comp == pytest.approx(report.complementarity, abs=1e-12)
        assert stat < 1e-8


class TestProperties:
    def test_resolve_is_deterministic(self):
        rng = np.random.default_rng(11)
        kw = random_qp(rng, 6, 7)
        prog1 = ConvexProgram(**{k: v.copy() for k, v in kw.items()})
        prog2 = ConvexProgram(**{k: v.copy() for k, v in kw.items()})
        r1 = QpWorkspace(prog1).solve()
        r2 = QpWorkspace(prog2).solve()
        assert r1.status == r2.status
        assert np.array_equal(r1.x, r2.x)
        assert abs(r1.stationarity - r2.stationarity) < 1e-12

    def test_cost_scaling_invariance(self):
        rng = np.random.default_rng(12)
        kw = random_qp(rng, 5, 5)
        base = QpWorkspace(ConvexProgram(**kw)).solve(tol=1e-10)
        scaled = QpWorkspace(ConvexProgram(**{**kw, "q": 7.3 * kw["q"],
                                              "curvature": 7.3 * kw["curvature"]})
                             ).solve(tol=1e-10)
        assert np.max(np.abs(base.x - scaled.x)) < 1e-7

    def test_redundant_inequality_changes_nothing(self):
        rng = np.random.default_rng(13)
        kw = random_qp(rng, 4, 4)
        c, q, A, b = kw["curvature"], kw["q"], kw["A_in"], kw["b_in"]
        lb, ub = -3.0 * np.ones(4), 3.0 * np.ones(4)
        base = QpWorkspace(ConvexProgram(q=q, curvature=c, A_in=A, b_in=b,
                                         lb=lb, ub=ub)).solve(tol=1e-10)
        # x_0 <= 5 is implied by the box.
        extra_row = np.zeros((1, 4))
        extra_row[0, 0] = 1.0
        augmented = QpWorkspace(
            ConvexProgram(q=q, curvature=c, A_in=np.vstack([A, extra_row]),
                          b_in=np.concatenate([b, [5.0]]), lb=lb, ub=ub)
        ).solve(tol=1e-10)
        assert np.max(np.abs(base.x - augmented.x)) < 1e-7

    def test_warm_start_accepted(self):
        rng = np.random.default_rng(14)
        kw = random_qp(rng, 5, 5)
        cold = QpWorkspace(ConvexProgram(**kw)).solve()
        ws = QpWorkspace(ConvexProgram(**kw))
        warm = ws.solve(y0=cold.y_stacked)
        assert warm.status == "optimal"
        assert np.max(np.abs(warm.x - cold.x)) < 1e-7

    def test_workspace_linear_update_reuses_structure(self):
        rng = np.random.default_rng(15)
        kw = random_qp(rng, 5, 5)
        ws = QpWorkspace(ConvexProgram(**kw))
        first = ws.solve(tol=1e-9)
        q2 = kw["q"] + 0.1
        ws.update_linear(q=q2)
        second = ws.solve(tol=1e-9, y0=first.y_stacked)
        direct = QpWorkspace(ConvexProgram(**{**kw, "q": q2})).solve(tol=1e-9)
        assert np.max(np.abs(second.x - direct.x)) < 1e-6

    def test_linear_update_leaves_the_loaded_program(self):
        rng = np.random.default_rng(15)
        kw = random_qp(rng, 5, 5)
        prog = ConvexProgram(**kw)
        q = prog.q
        before = q.copy()
        ws = QpWorkspace(prog)
        q2 = kw["q"] + 0.1
        ws.update_linear(q=q2)
        report = ws.solve(tol=1e-9)
        assert report.status == "optimal"
        assert prog.q is q and np.array_equal(q, before)
        # The report prices the workspace's cost, not the program's.
        x = report.x
        assert report.objective == pytest.approx(0.5 * x * prog.curvature @ x + q2 @ x,
                                                 rel=1e-12, abs=1e-15)


@st.composite
def pinned_cases(draw):
    """A strictly convex program with sparse rows and a working set of them.

    Half the cases pin every inequality row of a program with more of them
    than variables, so the working set is over-determined (k > n).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m_eq = draw(st.integers(1, 6)), draw(st.integers(0, 2))
    over = draw(st.booleans())
    m_in = n + draw(st.integers(1, 4)) if over else draw(st.integers(0, n + 4))
    g2 = np.sum(rng.normal(size=(n, n))**2, axis=1)     # diag(G G')
    x0 = rng.normal(size=n)
    A_eq = rng.normal(size=(m_eq, n))
    A_in = rng.normal(size=(m_in, n)) * (rng.random((m_in, n)) < 0.6)
    consistent = draw(st.booleans())
    boxed = rng.random(n) < 0.5 if draw(st.booleans()) else np.zeros(n, dtype=bool)
    prog = ConvexProgram(
        q=rng.normal(size=n), curvature=g2 + draw(st.floats(0.01, 2.0)),
        A_eq=A_eq, b_eq=A_eq @ x0 if consistent else rng.normal(size=m_eq),
        A_in=A_in, b_in=A_in @ x0 if consistent else rng.normal(size=m_in),
        lb=np.where(boxed, x0 - 1.0, -np.inf), ub=np.where(boxed, x0 + 1.0, np.inf))
    ws = QpWorkspace(prog)
    picked = (np.ones(ws.m, dtype=bool) if over
              else rng.random(ws.m) < draw(st.floats(0, 1)))
    upper = np.where(np.isfinite(ws.l), rng.random(ws.m) < 0.5, True)
    at_upper = ~ws._eq & picked & upper & np.isfinite(ws.u)
    at_lower = ~ws._eq & picked & ~at_upper & np.isfinite(ws.l)
    return ws, at_upper, at_lower


def dense_pinned_system(ws, at_upper, at_lower):
    """Reference: (KKT matrix, rhs, pinned rows, solution) of the same
    system, assembled dense and solved by np.linalg.solve."""
    n = ws.prog.n
    idx = np.flatnonzero(ws._eq | at_upper | at_lower)
    kkt = np.zeros((n + idx.size, n + idx.size))
    kkt[:n, :n] = np.diag(ws.prog.curvature)
    kkt[:n, n:] = ws.C[idx].T
    kkt[n:, :n] = ws.C[idx]
    rhs = np.concatenate([-ws.prog.q, np.where(at_lower, ws.l, ws.u)[idx]])
    return kkt, rhs, idx, np.linalg.solve(kkt, rhs)


class TestKeptFactor:
    @settings(max_examples=150, deadline=None)
    @given(pinned_cases())
    def test_pinned_solve_matches_dense_reference(self, case):
        ws, at_upper, at_lower = case
        idx = np.flatnonzero(ws._eq | at_upper | at_lower)
        solved = ws._pinned_solve(at_upper, at_lower)
        if idx.size > ws.prog.n:
            # More rows than variables are dependent: no solver, no point.
            assert solved is None
            return
        # Fewer rows may still be dependent (a zero row, or a row on one
        # boxed column); the KKT matrix is regular exactly when they are not.
        assume(np.linalg.matrix_rank(ws.C[idx]) == idx.size)
        kkt, rhs, idx, ref = dense_pinned_system(ws, at_upper, at_lower)
        x, y = solved
        got = np.concatenate([x, y[idx]])
        assert not np.any(np.delete(y, idx))
        # Two backward-stable solves of one system agree to its condition
        # number times the unit roundoff.
        bound = 10 * kkt.shape[0] * np.finfo(float).eps * np.linalg.cond(kkt)
        assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))
        assert np.max(np.abs(kkt @ got - rhs)) <= 1e-14 * (
            np.max(np.abs(kkt)) * np.max(np.abs(got)) + np.max(np.abs(rhs)))

    def test_repeat_working_set_reuses_the_factor(self, monkeypatch):
        rng = np.random.default_rng(16)
        kw = random_qp(rng, 6, 8, box=True)
        calls = []
        splu = qp.splu
        monkeypatch.setattr(qp, "splu", lambda *a, **k: calls.append(a) or splu(*a, **k))
        ws = QpWorkspace(ConvexProgram(**kw))
        first = ws.solve(tol=1e-9)
        assert first.status == "optimal" and calls
        calls.clear()
        q2 = kw["q"] + 1e-3
        ws.update_linear(q=q2)
        second = ws.solve(tol=1e-9, y0=first.y_stacked)
        assert second.status == "optimal" and not calls
        fresh = QpWorkspace(ConvexProgram(**{**kw, "q": q2})).solve(
            tol=1e-9, y0=first.y_stacked)
        assert np.max(np.abs(second.x - fresh.x)) <= 1e-12
        assert np.max(np.abs(second.y_stacked - fresh.y_stacked)) <= 1e-12

    def test_optimal_warm_start_solves_once(self, monkeypatch):
        # A warm start on the optimal working set takes no step: its start
        # solve is the answer and is certified without settling again.
        rng = np.random.default_rng(16)
        kw = random_qp(rng, 6, 8, box=True)
        solves = []
        factor = QpWorkspace._factor

        class Counted:
            """A working set's KKT solver, counting its solves."""

            def __init__(self, solver):
                self.solver = solver

            def solve(self, rhs):
                solves.append(rhs)
                return self.solver.solve(rhs)

        def counted(ws, work):
            solver = factor(ws, work)
            return solver and Counted(solver)

        monkeypatch.setattr(QpWorkspace, "_factor", counted)
        ws = QpWorkspace(ConvexProgram(**kw))
        first = ws.solve(tol=1e-9)
        solves.clear()
        again = ws.solve(tol=1e-9, y0=first.y_stacked)
        assert again.status == "optimal" and again.iterations == 0
        assert len(solves) == 1
        assert np.array_equal(again.x, first.x)
        assert np.array_equal(again.y_stacked, first.y_stacked)


def agrees_with_dense(ws, at_upper, at_lower, x, y):
    """(x, y) matches the dense solve of the same pinned system to the
    condition number times the unit roundoff."""
    kkt, _rhs, idx, ref = dense_pinned_system(ws, at_upper, at_lower)
    got = np.concatenate([x, y[idx]])
    bound = 10 * kkt.shape[0] * np.finfo(float).eps * np.linalg.cond(kkt)
    return (not np.any(np.delete(y, idx))
            and np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref)))


@st.composite
def bordered_cases(draw):
    """A strictly convex program, a base working set of its rows and a walk
    from it, each set one row added to or dropped from the last.

    The curvature is scaled down by up to 1e-8, as in the LP-like programs
    of the controllers.  No set holds more rows than variables.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m_eq = draw(st.integers(2, 7)), draw(st.integers(0, 2))
    kw = random_qp(rng, n, draw(st.integers(1, 8)), m_eq, box=draw(st.booleans()))
    kw["curvature"] = kw["curvature"] * 10.0 ** draw(st.integers(-8, 0))
    ws = QpWorkspace(ConvexProgram(**kw))
    free = np.flatnonzero(~ws._eq)
    work = np.zeros(ws.m, dtype=bool)
    work[rng.permutation(free)[:draw(st.integers(0, n - m_eq))]] = True
    walk = [work]
    for _ in range(draw(st.integers(1, 8))):
        work = work.copy()
        r = rng.choice(free)
        work[r] = not work[r] and np.count_nonzero(work) < n - m_eq
        walk.append(work)
    return ws, walk


class TestBorderedSolve:
    @staticmethod
    def sides(ws, work):
        at_upper = work & np.isfinite(ws.u)
        return at_upper, work & ~at_upper

    @settings(max_examples=150, deadline=None)
    @given(bordered_cases())
    def test_walk_matches_dense_reference(self, case):
        ws, walk = case
        for work in walk:
            at_upper, at_lower = self.sides(ws, work)
            solved = ws._pinned_solve(at_upper, at_lower)
            assert solved is not None
            assert agrees_with_dense(ws, at_upper, at_lower, *solved)

    def test_walk_keeps_the_base_factor(self, monkeypatch):
        rng = np.random.default_rng(18)
        ws = QpWorkspace(ConvexProgram(**random_qp(rng, 8, 10, 2, box=True)))
        calls = []
        splu = qp.splu
        monkeypatch.setattr(qp, "splu", lambda *a, **k: calls.append(a) or splu(*a, **k))
        work = np.zeros(ws.m, dtype=bool)
        for r in (3, 5, 7, 4, 9, 3, 12, 5):      # adds, then drops and adds back
            work[r] = not work[r]
            at_upper, at_lower = self.sides(ws, work)
            solved = ws._pinned_solve(at_upper, at_lower)
            assert agrees_with_dense(ws, at_upper, at_lower, *solved)
        assert len(calls) == 1
        # Without a solve, the base is the first set's own factor; the last
        # set borders it with its own rows and base row 3 dropped.
        schur = ws._factor(ws._eq | work)
        assert np.flatnonzero(schur.base & ~ws._eq).tolist() == [3]
        assert sorted(schur.rows.tolist()) == [3, 4, 7, 9, 12]

    def test_long_walk_borders_one_factor(self, monkeypatch):
        # A cold solve that pushes 80-odd of 90 variables onto their bounds
        # adds one row per dual step; every set borders the one factor of
        # the equality rows, S growing by a row per step.
        rng = np.random.default_rng(20)
        n = 90
        ws = QpWorkspace(ConvexProgram(
            q=-10.0 - rng.random(n), curvature=1.0 + rng.random(n),
            A_eq=rng.normal(size=(2, n)), b_eq=np.zeros(2),
            lb=np.full(n, -1.0), ub=np.full(n, 1.0)))
        calls = []
        splu = qp.splu
        monkeypatch.setattr(qp, "splu", lambda *a, **k: calls.append(a) or splu(*a, **k))
        report = ws.solve(tol=1e-9)
        assert report.status == "optimal" and report.iterations > 64
        assert len(calls) == 1
        y = report.y_stacked
        at_upper, at_lower = ~ws._eq & (y > 0.0), ~ws._eq & (y < 0.0)
        assert np.array_equal(ws._eq | at_upper | at_lower, ws._schur.work)
        assert ws._schur.rows.size == np.count_nonzero(at_upper | at_lower) > 64
        assert agrees_with_dense(ws, at_upper, at_lower, report.x, y)

    def test_dependent_added_row_has_no_solve(self, monkeypatch):
        # Row 1 repeats row 0: the Schur pivot of adding it to a set that
        # holds row 0 is zero, so the set has no solve, and nothing is
        # factored again.
        rng = np.random.default_rng(19)
        kw = random_qp(rng, 5, 4)
        kw["A_in"][1], kw["b_in"][1] = kw["A_in"][0], kw["b_in"][0]
        ws = QpWorkspace(ConvexProgram(**kw))
        calls = []
        splu = qp.splu
        monkeypatch.setattr(qp, "splu", lambda *a, **k: calls.append(a) or splu(*a, **k))
        none, base, both = (np.zeros(ws.m, dtype=bool) for _ in range(3))
        base[0] = both[0] = both[1] = True
        assert ws._pinned_solve(base, none) is not None
        assert len(calls) == 1
        assert ws._pinned_solve(both, none) is None
        assert len(calls) == 1
        # The set without the copy still solves from the same factor.
        assert agrees_with_dense(ws, base, none, *ws._pinned_solve(base, none))
        assert len(calls) == 1

    @pytest.mark.parametrize("later", [False, True], ids=["first_solve", "later_solve"])
    def test_warm_seed_with_dependent_rows_is_repaired(self, monkeypatch, later):
        # The warm seed pins a copy of row 0 and a sum of rows 2 and 3
        # scaled by 1 + 1e-15: its own KKT matrix is singular, so the
        # equality rows' factor bordered to the seed leaves its dependent
        # rows out, and the rows left are factored as the base.  A later
        # solve of the load borders the seed on the cold solve's base, finds
        # it dependent there, and is repaired the same way.
        rng = np.random.default_rng(21)
        kw = random_qp(rng, 7, 8, 1)
        A, b = kw["A_in"], kw["b_in"]
        A[1], b[1] = A[0], b[0]
        A[4], b[4] = (A[2] + A[3]) * (1.0 + 1e-15), b[2] + b[3]
        ws = QpWorkspace(ConvexProgram(**kw))
        if later:
            assert ws.solve(tol=1e-9).status == "optimal"
        y0 = np.zeros(ws.m)
        y0[1:6] = 1.0                       # rows 0 to 4 of A_in
        calls = []
        splu = qp.splu
        monkeypatch.setattr(qp, "splu", lambda *a, **k: calls.append(a) or splu(*a, **k))
        report = ws.solve(tol=1e-9, y0=y0)
        assert report.status == "optimal"
        A_all, b_all = oracle_rows(kw)
        expected = enumerate_qp_oracle(kw["curvature"], kw["q"], A_all, b_all,
                                       kw["A_eq"], kw["b_eq"])
        assert np.max(np.abs(report.x - expected)) <= 1e-7
        # The seed's own factor unless the load has a base, then K0's and the
        # repaired set's: no restart.
        assert len(calls) == (2 if later else 3)
        assert ws._schur.base[~ws._eq].sum() == 3 and not ws._schur.base[6:].any()

    def test_warm_seed_dependent_along_any_direction_is_repaired(self):
        # Row 4 of A_in is w rows 2 and 3, w chosen so that the seed set's
        # null vector (0, 0, 0, w2, w3, -1) on its multipliers is orthogonal
        # to cos(0..5): a test that solves once with that right-hand side
        # would see no dependence.  The base's certificate does, and the
        # repair leaves one of the three rows out of the base.
        rng = np.random.default_rng(21)
        kw = random_qp(rng, 7, 8, 1)
        A, b = kw["A_in"], kw["b_in"]
        w2, w3 = (np.cos(5.0) - np.cos(4.0)) / np.cos(3.0), 1.0
        A[4], b[4] = (w2 * A[2] + w3 * A[3]) * (1.0 + 1e-15), w2 * b[2] + w3 * b[3]
        ws = QpWorkspace(ConvexProgram(**kw))
        y0 = np.zeros(ws.m)
        y0[1:6] = 1.0                       # rows 0 to 4 of A_in
        report = ws.solve(tol=1e-9, y0=y0)
        assert report.status == "optimal"
        A_all, b_all = oracle_rows(kw)
        expected = enumerate_qp_oracle(kw["curvature"], kw["q"], A_all, b_all,
                                       kw["A_eq"], kw["b_eq"])
        assert np.max(np.abs(report.x - expected)) <= 1e-7
        assert np.max(np.abs(report.y_stacked)) < 1e6
        base = ws._schur.base
        assert base[~ws._eq].sum() == 4 and base[1:3].all() and not base[6:].any()


@st.composite
def points_on_rows(draw):
    """A program, any point and any stacked multipliers, over every mix of
    row families: mixed rows with infinite bound sides, equality rows only,
    or no rows (boxes at most)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["mixed", "equality_only", "no_rows"]))
    n = draw(st.integers(1, 6))
    m_eq = 0 if kind == "no_rows" \
        else draw(st.integers(1 if kind == "equality_only" else 0, 3))
    m_in = draw(st.integers(0, 4)) if kind == "mixed" else 0
    # Per variable: free, lower only, upper only or both sides.
    sides = rng.integers(0, 4, n) if kind != "equality_only" else np.zeros(n, dtype=int)
    centre = rng.normal(size=n)
    prog = ConvexProgram(
        q=rng.normal(size=n), curvature=rng.uniform(1e-8, 3.0, n),
        A_eq=rng.normal(size=(m_eq, n)), b_eq=rng.normal(size=m_eq),
        A_in=rng.normal(size=(m_in, n)) * (rng.random((m_in, n)) < 0.7),
        b_in=rng.normal(size=m_in),
        lb=np.where(sides % 2 == 1, centre - 1.0, -np.inf),
        ub=np.where(sides >= 2, centre + 1.0, np.inf))
    ws = QpWorkspace(prog)
    return ws, rng.normal(size=n) * 2.0, rng.normal(size=ws.m) * (rng.random(ws.m) < 0.7)


class TestStackedResiduals:
    @settings(max_examples=200, deadline=None)
    @given(points_on_rows())
    def test_report_residuals_agree_with_kkt_residual(self, case):
        ws, x, y = case
        report = ws._finish(x, y, "optimal", 0)
        want = kkt_residual(ws.prog, x, ws._split_duals(y))
        got = (report.stationarity, report.primal_feasibility, report.complementarity)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w))


def patterned_pair(rng, n=7, m_eq=2, m_in=9):
    """Two feasible programs with non-zeros on one pattern of [A_eq; A_in].

    Both have the same boxed columns; the second has other values and an
    exact zero at about a third of the pattern's positions.
    """
    pattern = rng.random((m_eq + m_in, n)) < 0.6
    boxed = rng.random(n) < 0.5
    curvature = np.sum(rng.normal(size=(n, n))**2, axis=1) + n

    def program(zeros):
        rows = rng.normal(size=pattern.shape) * pattern * ~zeros
        x_feas = rng.normal(size=n) * 0.5
        a_eq, a_in = rows[:m_eq], rows[m_eq:]
        return dict(q=rng.normal(size=n) * 2.0, curvature=curvature,
                    A_eq=a_eq, b_eq=a_eq @ x_feas, A_in=a_in,
                    b_in=a_in @ x_feas + rng.uniform(0.1, 1.5, size=m_in),
                    lb=np.where(boxed, x_feas - rng.uniform(0.05, 1.0, n), -np.inf),
                    ub=np.where(boxed, x_feas + rng.uniform(0.05, 1.0, n), np.inf))

    first = program(np.zeros(pattern.shape, dtype=bool))
    second = program(pattern & (rng.random(pattern.shape) < 0.35))
    return first, second


class TestReload:
    # Reversed, the program with the extra zeros is loaded first, and the
    # second has non-zeros where the first had zeros.  A cold second solve
    # factors the equality rows first, as the first solve did: the same
    # working set with other non-zeros.
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["dense_first", "zeros_first"])
    @pytest.mark.parametrize("seed", range(6))
    def test_loaded_program_solves_as_in_a_fresh_workspace(self, seed, reverse, warm):
        first, second = patterned_pair(np.random.default_rng(seed))
        if reverse:
            first, second = second, first
        ws = QpWorkspace(ConvexProgram(**first))
        y_first = ws.solve(tol=1e-9).y_stacked
        prog = ConvexProgram(**second)
        ws.load(prog)
        assert ws.prog is prog
        y0 = y_first if warm else None
        got = ws.solve(tol=1e-9, y0=y0)
        fresh = QpWorkspace(ConvexProgram(**second)).solve(tol=1e-9, y0=y0)
        assert (got.status, got.iterations) == (fresh.status, fresh.iterations)
        assert got.status == "optimal"
        assert got.x.tobytes() == fresh.x.tobytes()
        assert got.y_stacked.tobytes() == fresh.y_stacked.tobytes()

    def test_other_box_columns_are_rejected(self):
        first, second = patterned_pair(np.random.default_rng(1))
        ws = QpWorkspace(ConvexProgram(**first))
        second["lb"] = np.full(second["q"].size, -np.inf)
        second["ub"] = np.full(second["q"].size, np.inf)
        with pytest.raises(QpError, match="box columns"):
            ws.load(ConvexProgram(**second))


class TestValidation:
    def test_tiny_curvature_boxed_program(self):
        # c = 1e-8 as in the controllers: the optimum is the LP's box vertex.
        boxed = ConvexProgram(q=np.array([1.0, -2.0]), curvature=np.full(2, 1e-8),
                              lb=np.array([3.0, 0.0]), ub=np.array([4.0, 1.0]))
        report = QpWorkspace(boxed).solve()
        assert report.status == "optimal" and np.array_equal(report.x, [3.0, 1.0])
        assert report.objective == pytest.approx(1.0 + 5e-8, rel=1e-15)

    @pytest.mark.parametrize("curvature", [np.eye(2), np.ones(3), np.ones((2, 1))],
                             ids=["matrix", "long", "column"])
    def test_wrong_shape_curvature_rejected(self, curvature):
        with pytest.raises(QpError, match="curvature has shape"):
            ConvexProgram(q=np.zeros(2), curvature=curvature)

    @pytest.mark.parametrize("bad", [None, 0.0, -1e-12, np.nan, np.inf])
    def test_negative_or_non_finite_curvature_rejected(self, bad):
        # None leaves the curvature out: the program would not be strictly convex.
        kw = {} if bad is None else {"curvature": np.array([1.0, bad])}
        with pytest.raises(QpError, match="curvature must be finite and > 0"):
            ConvexProgram(q=np.zeros(2), **kw)

    def test_crossed_box_rejected(self):
        with pytest.raises(QpError, match="box"):
            ConvexProgram(q=np.zeros(1), curvature=np.full(1, 1e-8),
                          lb=np.array([1.0]), ub=np.array([0.0]))

    @pytest.mark.parametrize("extra", [3, -1])
    def test_wrong_shape_warm_start_rejected(self, extra):
        # A warm start of another program's rows is an error, not a cold solve.
        kw = random_qp(np.random.default_rng(14), 5, 5)
        ws = QpWorkspace(ConvexProgram(**kw))
        with pytest.raises(QpError, match="y0 has shape"):
            ws.solve(y0=np.ones(ws.m + extra))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(QpError, match="incompatible"):
            ConvexProgram(q=np.zeros(2), curvature=np.full(2, 1e-8),
                          A_in=np.ones((1, 3)), b_in=np.ones(1))


class TestCapturedProgram:
    """Step 426 of `mpc twelve_bus.scn --ttotal 10`: its horizon program and
    warm multipliers, taken from a spy on `QpWorkspace.solve` in that run.

    Both solves replay on a fresh workspace.  The warm one shows the Schur
    pivot test refusing an independent row on the 1e-8 tie-break curvature.
    """

    @pytest.fixture(scope="class")
    def captured(self):
        with np.load(Path(__file__).parent / "twelve_bus_step426.npz") as data:
            y0 = data["y0"]
            prog = ConvexProgram(**{k: data[k] for k in data.files if k != "y0"})
        assert (prog.n, prog.A_eq.shape[0], prog.A_in.shape[0]) == (255, 144, 180)
        return prog, y0

    def test_cold_solve_certifies(self, captured):
        prog, _y0 = captured
        report = QpWorkspace(prog).solve(tol=1e-8)
        assert (report.status, report.iterations) == ("optimal", 0)
        assert max(kkt_residual(prog, report.x, report.duals)) <= 1e-8

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the warm walk ends max_iter after 35 dual steps, "
                              "primal residual 0.52")
    def test_warm_solve_certifies(self, captured):
        prog, y0 = captured
        report = QpWorkspace(prog).solve(tol=1e-8, y0=y0)
        assert report.status == "optimal"
        assert max(kkt_residual(prog, report.x, report.duals)) <= 1e-8
