"""QP solver against hand cases and an exhaustive active-set oracle."""

import itertools

import numpy as np
import pytest

from essmpc.qp import (ConvexProgram, DualSet, QpError, QpWorkspace,
                       kkt_residual, solve_qp)


def enumerate_qp_oracle(Q, q, A, b, A_eq=None, b_eq=None, tol=1e-8):
    """Brute force over inequality active sets for a strictly convex QP.

    Solves min 0.5 x'Qx + q'x s.t. Ax <= b, A_eq x = b_eq by testing every
    subset of inequality rows as the active set, with the equality rows
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
            kkt[:n, :n] = Q
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
            obj = 0.5 * x @ Q @ x + q @ x
            if best is None or obj < best[1] - 1e-12:
                best = (x, obj)
    assert best is not None, "oracle found no KKT point"
    return best[0]


def random_qp(rng, n, m, m_eq=0, box=False):
    """ConvexProgram fields of a feasible, strictly convex QP.

    m inequality rows, m_eq equality rows and, with `box`, finite bounds on
    about half of the variables, all satisfied by one random point.
    """
    Q = rng.normal(size=(n, n))
    Q = Q @ Q.T + n * np.eye(n)
    q = rng.normal(size=n) * 2.0
    A = rng.normal(size=(m, n))
    x_feas = rng.normal(size=n) * 0.5
    A_eq = rng.normal(size=(m_eq, n))
    lb, ub = np.full(n, -np.inf), np.full(n, np.inf)
    if box:
        boxed = rng.random(n) < 0.5
        lb[boxed] = x_feas[boxed] - rng.uniform(0.05, 1.0, size=boxed.sum())
        ub[boxed] = x_feas[boxed] + rng.uniform(0.05, 1.0, size=boxed.sum())
    return dict(Q=Q, q=q, A_in=A, b_in=A @ x_feas + rng.uniform(0.1, 1.5, size=m),
                A_eq=A_eq, b_eq=A_eq @ x_feas, lb=lb, ub=ub)


def oracle_rows(kw):
    """Inequality rows of the program with its finite bounds folded in."""
    eye = np.eye(kw["q"].size)
    lo, hi = np.isfinite(kw["lb"]), np.isfinite(kw["ub"])
    A = np.vstack([kw["A_in"], -eye[lo], eye[hi]])
    b = np.concatenate([kw["b_in"], -kw["lb"][lo], kw["ub"][hi]])
    return A, b


class TestHandCases:
    def test_active_bound(self):
        prog = ConvexProgram(q=np.zeros(1), Q=2.0 * np.eye(1), lb=np.array([1.0]))
        report = solve_qp(prog)
        assert report.status == "optimal"
        assert report.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_absolute_value_epigraph(self):
        # min s subject to -s <= w <= s with w pinned to -0.3.
        prog = ConvexProgram(
            q=np.array([0.0, 1.0]),
            A_eq=np.array([[1.0, 0.0]]), b_eq=np.array([-0.3]),
            A_in=np.array([[1.0, -1.0], [-1.0, -1.0]]), b_in=np.zeros(2))
        report = solve_qp(prog)
        assert report.status == "optimal"
        assert report.x[1] == pytest.approx(0.3, abs=1e-9)

    def test_equality_constrained(self):
        prog = ConvexProgram(q=np.array([1.0, 1.0]), Q=np.eye(2),
                             A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([2.0]))
        report = solve_qp(prog, tol=1e-10)
        assert np.allclose(report.x, [1.0, 1.0], atol=1e-8)

    def test_infeasible_detected(self):
        prog = ConvexProgram(q=np.zeros(1), Q=2.0 * np.eye(1),
                             A_in=np.array([[-1.0], [1.0]]),
                             b_in=np.array([-1.0, 0.0]))
        report = solve_qp(prog)
        assert report.status == "infeasible"

    def test_infeasible_lp_falls_back_to_certificate(self):
        # HiGHS phase 1 proves the rows infeasible.
        prog = ConvexProgram(q=np.zeros(1), A_in=np.array([[-1.0], [1.0]]),
                             b_in=np.array([-1.0, 0.0]))
        report = solve_qp(prog)
        assert report.status == "infeasible"

    def test_lp_tie_break_is_kept(self):
        # Every point of x1 + x2 = 1 in the unit box is an LP optimum; the
        # 1e-8 diagonal picks the least-norm one, not the HiGHS vertex.
        prog = ConvexProgram(q=np.array([-1.0, -1.0]), Q=1e-8 * np.eye(2),
                             A_in=np.array([[1.0, 1.0]]), b_in=np.array([1.0]),
                             lb=np.zeros(2), ub=np.ones(2))
        report = solve_qp(prog)
        assert report.status == "optimal" and report.iterations == 0
        assert np.allclose(report.x, [0.5, 0.5], atol=1e-9)


class TestOracleSweep:
    def test_fifty_random_qps_match_enumeration(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            kw = random_qp(rng, n, m)
            expected = enumerate_qp_oracle(kw["Q"], kw["q"], kw["A_in"], kw["b_in"])
            report = solve_qp(ConvexProgram(**kw), tol=1e-9)
            assert report.status == "optimal", f"trial {trial}"
            assert np.max(np.abs(report.x - expected)) < 1e-6, f"trial {trial}"
            assert report.stationarity < 1e-6
            assert report.primal_feasibility < 1e-6
            assert report.complementarity < 1e-6

    def test_equality_rows_and_boxes_match_enumeration(self):
        rng = np.random.default_rng(43)
        for trial in range(50):
            n = int(rng.integers(1, 7))
            m_eq = int(rng.integers(0, min(n, 3)))
            kw = random_qp(rng, n, int(rng.integers(0, 6)), m_eq, box=True)
            A, b = oracle_rows(kw)
            expected = enumerate_qp_oracle(kw["Q"], kw["q"], A, b,
                                           kw["A_eq"], kw["b_eq"])
            report = solve_qp(ConvexProgram(**kw), tol=1e-9)
            assert report.status == "optimal", f"trial {trial}"
            assert np.max(np.abs(report.x - expected)) < 1e-6, f"trial {trial}"
            assert max(report.stationarity, report.primal_feasibility,
                       report.complementarity) < 1e-9, f"trial {trial}"


class TestKktResidual:
    def test_hand_solved_optimum_is_exact(self):
        # min (x-2)^2 s.t. x <= 1: optimum x=1, dual mu = 2.
        prog = ConvexProgram(q=np.array([-4.0]), Q=2.0 * np.eye(1),
                             A_in=np.array([[1.0]]), b_in=np.array([1.0]))
        duals = DualSet(np.zeros(0), np.array([2.0]), np.zeros(1), np.zeros(1))
        stat, feas, comp = kkt_residual(prog, np.array([1.0]), duals)
        assert stat < 1e-12 and feas < 1e-12 and comp < 1e-12

    def test_perturbed_point_has_residual(self):
        prog = ConvexProgram(q=np.array([-4.0]), Q=2.0 * np.eye(1),
                             A_in=np.array([[1.0]]), b_in=np.array([1.0]))
        duals = DualSet(np.zeros(0), np.array([2.0]), np.zeros(1), np.zeros(1))
        stat, _feas, _comp = kkt_residual(prog, np.array([1.1]), duals)
        assert stat > 0.1

    def test_solver_reports_match_recomputation(self):
        rng = np.random.default_rng(3)
        prog = ConvexProgram(**random_qp(rng, 5, 6))
        report = solve_qp(prog, tol=1e-9)
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
        r1 = solve_qp(prog1)
        r2 = solve_qp(prog2)
        assert r1.status == r2.status
        assert np.array_equal(r1.x, r2.x)
        assert abs(r1.stationarity - r2.stationarity) < 1e-12

    def test_cost_scaling_invariance(self):
        rng = np.random.default_rng(12)
        kw = random_qp(rng, 5, 5)
        base = solve_qp(ConvexProgram(**kw), tol=1e-10)
        scaled = solve_qp(ConvexProgram(**{**kw, "q": 7.3 * kw["q"],
                                           "Q": 7.3 * kw["Q"]}), tol=1e-10)
        assert np.max(np.abs(base.x - scaled.x)) < 1e-7

    def test_redundant_inequality_changes_nothing(self):
        rng = np.random.default_rng(13)
        kw = random_qp(rng, 4, 4)
        Q, q, A, b = kw["Q"], kw["q"], kw["A_in"], kw["b_in"]
        lb, ub = -3.0 * np.ones(4), 3.0 * np.ones(4)
        base = solve_qp(ConvexProgram(q=q, Q=Q, A_in=A, b_in=b, lb=lb, ub=ub),
                        tol=1e-10)
        # x_0 <= 5 is implied by the box.
        extra_row = np.zeros((1, 4))
        extra_row[0, 0] = 1.0
        augmented = solve_qp(
            ConvexProgram(q=q, Q=Q, A_in=np.vstack([A, extra_row]),
                          b_in=np.concatenate([b, [5.0]]), lb=lb, ub=ub),
            tol=1e-10)
        assert np.max(np.abs(base.x - augmented.x)) < 1e-7

    def test_warm_start_accepted(self):
        rng = np.random.default_rng(14)
        kw = random_qp(rng, 5, 5)
        cold = solve_qp(ConvexProgram(**kw))
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
        direct = solve_qp(ConvexProgram(**{**kw, "q": q2}), tol=1e-9)
        assert np.max(np.abs(second.x - direct.x)) < 1e-6


class TestValidation:
    def test_asymmetric_q_rejected(self):
        with pytest.raises(QpError, match="symmetric"):
            ConvexProgram(q=np.zeros(2), Q=np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_indefinite_q_rejected(self):
        with pytest.raises(QpError, match="semidefinite"):
            ConvexProgram(q=np.zeros(2), Q=np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_crossed_box_rejected(self):
        with pytest.raises(QpError, match="box"):
            ConvexProgram(q=np.zeros(1), lb=np.array([1.0]), ub=np.array([0.0]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(QpError):
            ConvexProgram(q=np.zeros(2), A_in=np.ones((1, 3)), b_in=np.ones(1))
