import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qprelax import oracle
from qprelax.analysis import check_copositivity_desk_scale, check_psd_on_nullspace
from qprelax.core import TOL_CURVATURE, curvature_tolerance, slope_tolerance
from qprelax.errors import DeskScaleLimit, PointInfeasible
from qprelax.generators import HornFamilyParams, horn_family
from qprelax.numerics import nullspace_basis
from qprelax.oracle import (
    ORACLE_INCONCLUSIVE,
    ORACLE_INFEASIBLE,
    ORACLE_OPTIMAL,
    ORACLE_UNBOUNDED,
    OracleResult,
    basic_feasible_points,
    enum_cap,
    enumerate_vertices,
    global_solve,
    minimize_quad_over_polytope,
    recession_analysis,
    second_order_minimum,
    verify_local_minimizer,
    verify_ray_certificate,
)

from conftest import feasible_samples, make_corpus, make_qp


class TestVertexEnumeration:
    def test_simplex(self):
        inst = make_qp(np.eye(3), [0, 0, 0], [[1, 1, 1]], [1])
        verts = sorted(tuple(v) for v in enumerate_vertices(inst))
        assert verts == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_infeasible(self):
        inst = make_qp(np.eye(2), [0, 0], [[1, 1]], [-1])
        assert enumerate_vertices(inst) == []

    def test_horn_single_column_solutions(self, horn):
        inst, _ = horn
        verts = [tuple(np.round(v, 6)) for v in enumerate_vertices(inst)]
        # column 2 has coefficient 1, so 9 e2 is a basic feasible point
        assert (0, 9, 0, 0, 0) in verts
        assert (0, 0, 0, 0, 4.5) in verts

    def test_deduplication(self):
        # degenerate vertex reachable through several bases appears once
        inst = make_qp(np.eye(2), [0, 0], [[1, 0], [0, 1]], [1, 0])
        verts = enumerate_vertices(inst)
        assert len(verts) == 1

    def test_cap(self, monkeypatch):
        # 5 column subsets of size 1 exceed 2^2
        inst = make_qp(np.eye(5), np.zeros(5), [np.ones(5)], [1])
        monkeypatch.setenv("QPRELAX_ENUM_CAP", "2")
        with pytest.raises(DeskScaleLimit, match="5 column subsets"):
            enumerate_vertices(inst)
        monkeypatch.delenv("QPRELAX_ENUM_CAP")
        assert enum_cap() == 16

    @pytest.mark.parametrize("raw", ["abc", "2.5", "-1"])
    def test_malformed_cap_is_rejected(self, monkeypatch, raw):
        inst = make_qp(np.eye(2), np.zeros(2), [np.ones(2)], [1])
        monkeypatch.setenv("QPRELAX_ENUM_CAP", raw)
        with pytest.raises(ValueError, match="QPRELAX_ENUM_CAP"):
            enum_cap()
        with pytest.raises(ValueError, match="QPRELAX_ENUM_CAP"):
            enumerate_vertices(inst)


class TestQuadMinimization:
    def test_convex_simplex(self):
        res = minimize_quad_over_polytope(
            np.eye(2), np.zeros(2), np.ones((1, 2)), np.array([1.0])
        )
        assert res.value == pytest.approx(0.5)
        assert np.allclose(res.minimizers[0], [0.5, 0.5])
        assert res.status == ORACLE_OPTIMAL

    def test_concave_vertices(self):
        res = minimize_quad_over_polytope(
            -np.eye(3), np.zeros(3), np.ones((1, 3)), np.array([1.0])
        )
        assert res.value == pytest.approx(-1.0)
        assert len(res.minimizers) == 3

    def test_bilinear_two_minimizers(self):
        res = minimize_quad_over_polytope(
            np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2),
            np.ones((1, 2)), np.array([1.0]),
        )
        assert res.value == pytest.approx(0.0, abs=1e-12)
        mins = sorted(tuple(np.round(m, 8)) for m in res.minimizers)
        assert mins == [(0, 1), (1, 0)]

    def test_unchecked_ray_is_not_certified(self):
        # the ray is returned unchecked: only global_solve's check proves it
        Q, c, A, b = -np.eye(2), np.array([2.0, 2.0]), np.array([[1.0, -1.0]]), np.array([1.0])
        res = minimize_quad_over_polytope(Q, c, A, b)
        assert res.status == ORACLE_UNBOUNDED and res.ray is not None
        assert res.ray_check is None and not res.certified
        solved = global_solve(make_qp(Q, c, A, b))
        assert solved.status == ORACLE_UNBOUNDED and solved.ray_check.ok and solved.certified


class TestNearlyDependentRows:
    """``A = [e^T; e^T + delta (0, 1, -1)]``, ``b = A (0.2, 0.5, 0.3)`` and
    ``q = -x_1^2``: the feasible set is the segment ``x_2 - x_3 = 0.2`` of
    the simplex, from (0.8, 0.2, 0) to (0, 0.6, 0.4), and the optimum is
    -0.64 at its first end for every ``delta``.  From ``delta = 1e-7`` the
    oracle's rank and feasibility rules read the two rows as one and
    certify the simplex vertex's -1 instead (ROADMAP item 1).
    """

    @pytest.mark.parametrize("delta", [
        1e-4,
        1e-6,
        *(pytest.param(d, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1"))
          for d in (1e-7, 1e-8, 1e-9)),
    ])
    def test_optimum(self, delta):
        A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0 + delta, 1.0 - delta]])
        inst = make_qp(np.diag([-1.0, 0.0, 0.0]), np.zeros(3), A, A @ np.array([0.2, 0.5, 0.3]))
        res = global_solve(inst)
        assert res.status == ORACLE_OPTIMAL and res.certified
        assert abs(res.value + 0.64) <= 1e-9 * 0.64


class TestGlobalSolve:
    def test_infeasible(self):
        inst = make_qp(np.eye(2), [0, 0], [[1, 1]], [-1])
        res = global_solve(inst)
        assert res.value == math.inf
        assert res.status == ORACLE_INFEASIBLE

    def test_bilinear(self, simplex_bilinear):
        res = global_solve(simplex_bilinear)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_negative_curvature_ray(self):
        inst = make_qp(-np.eye(2), [0, 0], [[1, -1]], [1])
        res = global_solve(inst)
        assert res.value == -math.inf
        assert res.status == ORACLE_UNBOUNDED
        d = res.ray.d
        assert float(d @ inst.Q @ d) < 0
        assert np.abs(inst.A @ d).max() <= 1e-8

    def test_negative_curvature_ray_with_ascent(self):
        # the direction of negative curvature starts at the first vertex,
        # where q first rises along it: the check accepts any slope then
        inst = make_qp(-np.eye(2), [2, 2], [[1, -1]], [1])
        res = global_solve(inst)
        assert res.status == ORACLE_UNBOUNDED and res.value == -math.inf
        assert np.array_equal(res.ray.x0, [1.0, 0.0])
        assert res.ray.d == pytest.approx([0.5, 0.5], abs=1e-15)
        assert res.ray_check.curvature == pytest.approx(-0.5, abs=1e-15)
        assert res.ray_check.slope == pytest.approx(1.5, abs=1e-15)
        assert res.ray_check.ok

    def test_failed_ray_is_inconclusive(self, monkeypatch):
        inst = make_qp(-np.eye(2), [2, 2], [[1, -1]], [1])
        off = oracle.RayCertificate(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
        monkeypatch.setattr(oracle, "ray_witness", lambda *args: off)
        res = global_solve(inst)
        assert res.status == ORACLE_INCONCLUSIVE and not res.certified
        assert res.ray is off and not res.ray_check.ok
        assert res.ray_check.feasibility_residual > 0

    @staticmethod
    def unbounded_candidate(seed):
        """A feasible instance with a nonnegative recession direction ``d0``
        and an indefinite Q: rows of A projected off ``d0``, ``b = A x0``."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 5))
        m = int(rng.integers(1, n))
        d0 = rng.random(n) * (rng.random(n) < 0.7)
        d0[rng.integers(n)] += 0.5
        A = rng.normal(size=(m, n))
        A -= np.outer(A @ d0, d0) / (d0 @ d0)
        x0 = rng.random(n) + 0.1
        G = rng.normal(size=(n, n))
        Q = G @ np.diag(rng.normal(size=n)) @ G.T
        return make_qp(0.5 * (Q + Q.T), rng.normal(size=n), A, A @ x0, f"scan{seed}")

    def test_seeded_scan_rays_verify(self):
        unbounded = 0
        for seed in range(30):
            inst = self.unbounded_candidate(seed)
            res = global_solve(inst)
            if res.status != ORACLE_UNBOUNDED:
                assert res.ray_check is None or not res.ray_check.ok
                continue
            unbounded += 1
            assert res.ray_check.ok
            assert oracle.verify_ray_certificate(inst, res.ray) == res.ray_check
        assert unbounded >= 10

    def test_zero_curvature_linear_decrease(self):
        inst = make_qp(np.zeros((2, 2)), [-1, -1], [[1, -1]], [0])
        res = global_solve(inst)
        assert res.value == -math.inf

    @pytest.mark.parametrize("ratio", [1.01, 0.99])
    def test_ray_witness_and_check_share_the_slope_tolerance(self, ratio):
        # q = 2 c^T x on {x1 = x2 >= 0}: the ray d = (1/2, 1/2) from the
        # vertex 0 has zero curvature and slope c^T d = -k, which is ratio
        # times the slope tolerance 1e-9 (1 + k): 1% past it, or 1% inside
        t = ratio * TOL_CURVATURE
        k = t / (1.0 - t)
        inst = make_qp(np.zeros((2, 2)), [-k, -k], [[1, -1]], [0])
        assert k == pytest.approx(ratio * slope_tolerance(inst.Q, inst.c), rel=1e-12)
        verts = basic_feasible_points(inst.A, inst.b)
        recession = oracle.recession_analysis(inst.Q, inst.A)
        ray = oracle.ray_witness(inst.Q, inst.c, verts, recession)
        candidate = oracle.RayCertificate(verts[0], np.array([0.5, 0.5]))
        check = oracle.verify_ray_certificate(inst, candidate if ray is None else ray)
        assert check.curvature == 0.0 and check.slope == -k
        assert (ray is not None) == check.ok == (ratio > 1.0)

    def test_horn_certified_finite(self, horn):
        inst, _ = horn
        res = global_solve(inst)
        assert res.status == ORACLE_OPTIMAL
        assert res.certified and res.attained
        assert res.value == pytest.approx(27.0)

    def test_never_above_samples(self):
        for seed in range(3):
            from qprelax.generators import random_instance

            inst = random_instance("BOUNDED", 4, 2, seed)
            res = global_solve(inst)
            from qprelax.core import evaluate_objective

            for x in feasible_samples(inst, 1000, seed=seed):
                assert res.value <= evaluate_objective(inst, x) + 1e-9 * (1 + abs(res.value))


class TestLocalMinimizer:
    def test_vertex_of_bilinear(self, simplex_bilinear):
        verdict = verify_local_minimizer(simplex_bilinear, np.array([1.0, 0.0]))
        assert verdict.is_local_min
        assert np.allclose(verdict.kkt.y, [0.0], atol=1e-9)
        assert np.allclose(verdict.kkt.s, [0.0, 1.0], atol=1e-9)
        assert verdict.second_order_min >= -1e-9

    def test_convex_global(self, simplex_convex):
        verdict = verify_local_minimizer(simplex_convex, np.array([0.5, 0.5]))
        assert verdict.is_local_min

    def test_concave_interior_fails_second_order(self):
        inst = make_qp(-np.eye(2), [0, 0], [[1, 1]], [1])
        verdict = verify_local_minimizer(inst, np.array([0.5, 0.5]))
        assert not verdict.is_local_min
        assert verdict.kkt is not None  # first-order holds with y = -1/2
        assert np.allclose(verdict.kkt.y, [-0.5], atol=1e-9)
        # d = (1/2, -1/2) on the slice e^T z = 1 of the split cone
        assert verdict.second_order_min == pytest.approx(-0.5, abs=1e-6)

    def test_infeasible_point(self, simplex_convex):
        with pytest.raises(PointInfeasible):
            verify_local_minimizer(simplex_convex, np.array([2.0, 2.0]))

    def test_second_order_sign(self):
        x = np.array([0.5, 0.5])
        assert second_order_minimum(make_qp(-np.eye(2), [0, 0], [[1, 1]], [1]), x) < 0
        assert second_order_minimum(make_qp(np.eye(2), [0, 0], [[1, 1]], [1]), x) == 0.0

    @pytest.mark.parametrize("b, is_min, second", [(1.0, True, 0.0), (-1.0, False, -0.125)])
    def test_degenerate_complementarity(self, b, is_min, second):
        # at x = e1 the multiplier s vanishes on the zero support, so the
        # critical cone keeps d2, d3 >= 0: Q is copositive on it for b = 1
        # without being PSD on its span; for b = -1, d = (-1/2, 1/4, 1/4)
        inst = make_qp([[0, 0, 0], [0, 0, b], [0, b, 0]], [0, 0, 0], [[1, 1, 1]], [1])
        verdict = verify_local_minimizer(inst, np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(verdict.kkt.s, np.zeros(3))
        assert verdict.is_local_min == is_min
        assert verdict.second_order_min == pytest.approx(second, abs=1e-12)

    def test_interior_minimizer_with_six_positive_entries(self):
        # all six entries positive: 12 split variables, 2^12 slice faces
        n = 6
        inst = make_qp(np.eye(n), -2 * np.ones(n), [np.ones(n)], [n])
        verdict = verify_local_minimizer(inst, np.ones(n))
        assert verdict.is_local_min and verdict.second_order_min == 0.0

    def test_oracle_minimizers_are_local_minimizers(self):
        from qprelax.generators import random_instance

        for seed in range(4):
            inst = random_instance("BOUNDED", 3, 1, seed)
            res = global_solve(inst)
            for x in res.minimizers:
                assert verify_local_minimizer(inst, x).is_local_min


class TestBasicFeasiblePoints:
    def test_zero_system(self):
        pts = basic_feasible_points(np.zeros((1, 3)), np.zeros(1))
        assert len(pts) == 1 and np.allclose(pts[0], 0.0)

    def test_inconsistent_zero_system(self):
        assert basic_feasible_points(np.zeros((1, 3)), np.array([1.0])) == []


def reference_minimize(Q, c, A, b):
    """The per-face loop the stacked face engine replaced, as its reference.

    One ``lstsq``, one SVD (``nullspace_basis``) and one ``eigh`` per face,
    through numpy's public wrappers.  The recession analysis, the singular
    fallback and the result assembly are the oracle's own.
    """
    Q, c, A, b = (np.asarray(v, dtype=float) for v in (Q, c, A, b))
    n = Q.shape[0]
    certified = True
    recession = oracle.recession_analysis(Q, A)
    if recession.l_nontrivial:
        verts = oracle.basic_feasible_points(A, b)
        if not verts:
            return OracleResult(math.inf, (), False, 0, ORACLE_INFEASIBLE)
        if oracle.ray_witness(Q, c, verts, recession) is not None:
            return OracleResult(-math.inf, (), False, 0, ORACLE_UNBOUNDED)
        certified = recession.min_curvature > recession.tolerance

    scale = 1.0 + float(np.abs(b).max(initial=0.0)) + float(np.abs(A).max(initial=0.0))
    tol_eq = oracle._TOL_EQ * scale
    tol_bound = oracle._TOL_BOUND * scale
    candidates = []
    faces = 0
    for states in itertools.product((0, 1), repeat=n):
        faces += 1
        free_idx = [j for j in range(n) if states[j] == 1]

        if not free_idx:
            if float(np.abs(b).max(initial=0.0)) <= tol_eq:
                x = np.zeros(n)
                candidates.append((float(x @ Q @ x + 2 * c @ x), x))
            continue

        AF = A[:, free_idx]
        x0, *_ = np.linalg.lstsq(AF, b, rcond=None)
        if float(np.abs(AF @ x0 - b).max(initial=0.0)) > tol_eq:
            continue
        N = nullspace_basis(AF)
        QFF = Q[np.ix_(free_idx, free_idx)]
        cF = c[free_idx]

        if N.shape[1] == 0:
            xF = x0
        else:
            H = N.T @ QFF @ N
            H = 0.5 * (H + H.T)
            g = N.T @ (QFF @ x0 + cF)
            w, V = np.linalg.eigh(H)
            hscale = max(1.0, float(np.abs(w).max(initial=0.0)))
            if w[0] < -oracle._TOL_PSD * hscale:
                continue
            gp = V.T @ g
            singular = np.abs(w) <= 1e-10 * hscale
            gscale = max(1.0, float(np.abs(gp).max(initial=0.0)))
            if np.any(singular & (np.abs(gp) > 1e-8 * gscale)):
                continue
            t = np.where(singular, 0.0, -gp / np.where(singular, 1.0, w))
            xF = x0 + N @ (V @ t)
            inside = float(xF.min(initial=0.0)) >= -tol_bound
            if not inside and singular.any():
                # the objective is constant on the stationary set
                # {AF x = b, N^T (QFF x + cF) = 0}: its first basic point
                alt = oracle._feasible_point(np.vstack([AF, N.T @ QFF]),
                                             np.concatenate([b, -N.T @ cF]))
                if alt is None:
                    continue
                xF = alt
            elif not inside:
                continue

        if float(xF.min(initial=0.0)) < -tol_bound:
            continue
        x = np.zeros(n)
        x[free_idx] = np.clip(xF, 0.0, None)
        candidates.append((float(x @ Q @ x + 2 * c @ x), x))

    if not candidates:
        return OracleResult(math.inf, (), False, faces, ORACLE_INFEASIBLE)
    vmin = min(v for v, _ in candidates)
    vtol = 1e-9 * (1.0 + abs(vmin))
    mins = []
    seen = set()
    for v, x in candidates:
        if v <= vmin + vtol:
            key = tuple(np.round(x, oracle._DEDUP_DECIMALS))
            if key not in seen:
                seen.add(key)
                mins.append(x)
    status = ORACLE_OPTIMAL if certified else ORACLE_INCONCLUSIVE
    return OracleResult(vmin, tuple(mins), certified, faces, status, certified)


def assert_same_result(res, ref):
    assert res.status == ref.status
    assert res.faces_explored == ref.faces_explored
    if math.isinf(ref.value):
        assert res.value == ref.value
    else:
        assert abs(res.value - ref.value) <= 1e-12 * max(1.0, abs(ref.value))
    assert len(res.minimizers) == len(ref.minimizers)
    for x, y in zip(res.minimizers, ref.minimizers):
        assert np.allclose(x, y, rtol=0.0, atol=1e-9)


#: Entries with exact sums and products, so that ties and degenerate faces
#: are common.
ENTRIES = st.sampled_from([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@st.composite
def face_problems(draw):
    """Small QPs whose faces vary in emptiness, rank and curvature."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 3))

    def matrix(rows, cols):
        return np.array(draw(st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols)),
                        dtype=float).reshape(rows, cols)

    kind = draw(st.sampled_from(["indefinite", "psd", "rank-deficient", "zero"]))
    if kind == "zero":
        Q = np.zeros((n, n))
    elif kind == "indefinite":
        B = matrix(n, n)
        Q = B + B.T
    else:
        B = matrix(n, 1 if kind == "rank-deficient" else n)
        Q = B @ B.T
    A = matrix(m, n)
    if n > 1 and m:
        # a repeated or zero column lets the rank vary among faces with the
        # same number of free variables
        j, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        A[:, k] = draw(st.sampled_from([A[:, j], np.zeros(m), A[:, k]]))
    if draw(st.booleans()):
        b = A @ np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n)))
    else:
        b = matrix(m, 1)[:, 0]
    c = matrix(n, 1)[:, 0] if draw(st.booleans()) else np.zeros(n)
    return Q, c, A, b


class TestStackedFaceEngine:
    """The stacked face engine against the per-face loop it replaced."""

    @settings(max_examples=300)
    @given(face_problems())
    def test_matches_per_face_loop(self, problem):
        res = minimize_quad_over_polytope(*problem)
        assert_same_result(res, reference_minimize(*problem))

    def test_singular_face_fallback(self, monkeypatch):
        # the objective is flat; on the faces with three or four free
        # variables the min-norm point has a negative entry, so only the
        # singular fallback finds a nonnegative representative
        faces = []
        fallback = oracle._feasible_points

        def counted(A, b):
            faces.extend(A)
            return fallback(A, b)

        monkeypatch.setattr(oracle, "_feasible_points", counted)
        problem = (np.zeros((4, 4)), np.zeros(4), np.array([[1.0, 1, 1, 1], [3, -1, 0, 0]]),
                   np.array([1.0, -0.5]))
        res = minimize_quad_over_polytope(*problem)
        assert len(faces) == 2
        assert res.value == 0.0 and res.status == ORACLE_OPTIMAL
        assert_same_result(res, reference_minimize(*problem))

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_face_counts(self, n):
        Q, c, A, b = -np.eye(n), np.zeros(n), np.ones((1, n)), np.array([1.0])
        assert minimize_quad_over_polytope(Q, c, A, b).faces_explored == 2 ** n

    def test_zero_row_constraints(self):
        A, b = np.zeros((0, 3)), np.zeros(0)
        res = minimize_quad_over_polytope(np.eye(3), np.ones(3), A, b)
        assert res.value == 0.0 and res.faces_explored == 8
        assert res.status == ORACLE_OPTIMAL

    def test_slices_change_no_bit(self, monkeypatch):
        # slices of 7 cut every group with more than 7 faces at n = 6
        rng = np.random.default_rng(3)
        g = rng.normal(size=(6, 6))
        Q, c = g + g.T, rng.normal(size=6)
        A = np.vstack([np.ones(6), rng.normal(size=6)])
        b = A @ rng.uniform(0.0, 1.0, size=6)
        assert_slices_change_no_bit(monkeypatch, Q, c, A, b)

    def test_lapack_failure_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "_svd", unconverged)
        with pytest.raises(np.linalg.LinAlgError):
            minimize_quad_over_polytope(np.eye(2), np.zeros(2), np.ones((1, 2)), np.array([1.0]))

    @pytest.mark.parametrize("solve", [basic_feasible_points, oracle._feasible_point],
                             ids=["basic_feasible_points", "feasible_point"])
    def test_lapack_failure_raises_in_basic_solutions(self, monkeypatch, solve):
        monkeypatch.setattr(oracle, "_svd", unconverged)
        with pytest.raises(np.linalg.LinAlgError):
            solve(np.ones((1, 2)), np.array([1.0]))


def unconverged(a, signature=None):
    """What the SVD gufunc does when LAPACK fails: NaN outputs and the
    floating-point invalid flag."""
    m, n = a.shape[-2:]
    nan = np.divide(np.zeros(a.shape[:-2] + (1, 1)), 0.0)
    return nan + np.zeros((m, m)), nan[..., 0] + np.zeros(min(m, n)), nan + np.zeros((n, n))


def assert_slices_change_no_bit(monkeypatch, Q, c, A, b):
    """Slices of 7 faces give the candidates and the result of whole groups."""
    whole = oracle._face_candidates(Q, c, A, b, 3.0)
    res = minimize_quad_over_polytope(Q, c, A, b)
    monkeypatch.setattr(oracle, "FACE_SLICE", 7)
    sliced = oracle._face_candidates(Q, c, A, b, 3.0)
    assert len(whole) > 7 and np.array_equal(sliced, whole)
    again = minimize_quad_over_polytope(Q, c, A, b)
    assert again.value == res.value and again.status == res.status
    assert len(again.minimizers) == len(res.minimizers)
    assert all(np.array_equal(u, v) for u, v in zip(again.minimizers, res.minimizers))


def horn_problems(n):
    """The Horn family instance's own problem, its recession slice and the
    copositivity problem over the simplex, as ``(Q, c, A, b)``."""
    inst = horn_family(HornFamilyParams(n=n, seed=0))
    zero = np.zeros(n)
    return [(inst.Q, inst.c, inst.A, inst.b),
            (inst.Q, zero, *oracle._recession_slice(inst.A)),
            (inst.Q, zero, np.ones((1, n)), np.array([1.0]))]


class TestIndefiniteSkip:
    """Faces containing an indefinite face are skipped without a solve."""

    def test_band_keeps_every_minimizer(self):
        # the edge x3 = 0 curves by -1.5e-9: below -1e-9 times its own
        # Hessian scale 1, above -1e-9 |Q|_F.  The whole simplex, of scale
        # 2.5, passes its own PSD test and gives the minimizer (1/3, 1/3,
        # 1/3), which flagging the edge against its own scale would skip.
        u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        v = np.array([1.0, 1.0, -2.0]) / np.sqrt(6)
        Q = -1.5e-9 * np.outer(u, u) + 2.5 * np.outer(v, v)
        problem = (Q, np.zeros(3), np.ones((1, 3)), np.array([1.0]))
        res = minimize_quad_over_polytope(*problem)
        assert len(res.minimizers) == 3
        assert any(np.allclose(x, 1.0 / 3.0, rtol=0.0, atol=1e-12) for x in res.minimizers)
        assert_same_result(res, reference_minimize(*problem))

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_horn_family_matches_per_face_loop(self, n):
        for problem in horn_problems(n):
            assert_same_result(minimize_quad_over_polytope(*problem), reference_minimize(*problem))

    def test_slices_change_no_bit_across_skips(self, monkeypatch):
        # faces flagged in one slice skip faces that the next group puts in
        # other slices
        assert_slices_change_no_bit(monkeypatch, *horn_problems(7)[2])

    def test_horn_simplex_solves_fewer_faces(self, monkeypatch):
        rows = []
        interior = oracle._interior_points

        def counted(Q, c, null_rows, *args):
            rows.append(len(null_rows))
            return interior(Q, c, null_rows, *args)

        monkeypatch.setattr(oracle, "_interior_points", counted)
        res = minimize_quad_over_polytope(*horn_problems(8)[2])
        # 247 faces were eigensolved before faces containing an indefinite
        # face were skipped
        assert sum(rows) == 102 and res.faces_explored == 256


def bitwise_equal(u, v):
    """Field for field equality of results, with arrays and floats compared
    bit for bit."""
    if dataclasses.is_dataclass(u):
        return type(u) is type(v) and all(
            bitwise_equal(getattr(u, f.name), getattr(v, f.name))
            for f in dataclasses.fields(u))
    if isinstance(u, np.ndarray):
        return (isinstance(v, np.ndarray) and u.dtype == v.dtype and u.shape == v.shape
                and u.tobytes() == v.tobytes())
    if isinstance(u, (tuple, list)):
        return (type(u) is type(v) and len(u) == len(v)
                and all(bitwise_equal(x, y) for x, y in zip(u, v)))
    if isinstance(u, float):
        return isinstance(v, float) and u.hex() == v.hex()
    return u == v


class TestFacePlan:
    """The cached grouping of the face patterns of one ``n``."""

    def test_groups_follow_product_order(self):
        n = 4
        patterns = list(itertools.product((0, 1), repeat=n))
        for f, (faces, cols, subfaces) in enumerate(oracle._plan(n), start=1):
            assert faces.tolist() == [i for i, p in enumerate(patterns) if sum(p) == f]
            for face, cs, subs in zip(faces, cols, subfaces):
                assert cs.tolist() == [j for j in range(n) if patterns[face][j]]
                for j, sub in zip(cs, subs):
                    assert patterns[sub] == patterns[face][:j] + (0,) + patterns[face][j + 1:]

    @pytest.mark.parametrize("n,dtype", [(5, np.uint8), (8, np.uint8), (9, np.uint16)])
    def test_plan_is_read_only_and_compact(self, n, dtype):
        plan = oracle._plan(n)
        assert len(plan) == n
        for group in plan:
            for v in group:
                assert v.dtype == dtype
                with pytest.raises(ValueError):
                    v[...] = 0

    def test_evicted_plan_gives_the_same_candidates(self):
        # one plan is cached per n, so enumerations at n = 5, 6, 5 build two
        problems = [horn_problems(n)[k] for n in (5, 6, 5) for k in (0, 2)]

        def candidates(Q, c, A, b):
            with np.errstate(call=oracle._lapack_failed, invalid="call"):
                return oracle._face_candidates(Q, c, A, b, 3.0)

        oracle._plan.cache_clear()
        cached = [candidates(*problem) for problem in problems]
        assert oracle._plan.cache_info().misses == 2
        for problem, X in zip(problems, cached):
            oracle._plan.cache_clear()
            assert len(X) and bitwise_equal(candidates(*problem), X)

    def test_every_n_keeps_its_plan(self):
        oracle._plan.cache_clear()
        plans = []
        for n in (5, 6, 5):
            minimize_quad_over_polytope(*horn_problems(n)[0])
            plans.append(oracle._plan(n))
        assert oracle._plan.cache_info().misses == 2
        assert plans[2] is plans[0]

    def test_every_n_keeps_its_simplex_geometry(self):
        oracle._simplex_hulls.cache_clear()
        hulls = []
        for n in (5, 6, 5):
            oracle.simplex_minimum(horn_family(HornFamilyParams(n=n, seed=0)).Q)
            hulls.append(oracle._simplex_hulls(n))
        assert oracle._simplex_hulls.cache_info().misses == 2
        assert hulls[2] is hulls[0]


class TestGivenVertices:
    """The oracle reads vertices its caller has already enumerated."""

    def test_global_solve_over_the_corpus(self):
        for inst in make_corpus():
            given = global_solve(inst, vertices=enumerate_vertices(inst))
            assert bitwise_equal(given, global_solve(inst)), inst.name

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_global_solve_on_the_horn_problems(self, n):
        for Q, c, A, b in horn_problems(n):
            inst = make_qp(Q, c, A, b)
            given = global_solve(inst, vertices=enumerate_vertices(inst))
            assert bitwise_equal(given, global_solve(inst))

    def test_vertices_are_keyword_only(self):
        inst = make_corpus()[0]
        with pytest.raises(TypeError):
            global_solve(inst, None, enumerate_vertices(inst))
        with pytest.raises(TypeError):
            minimize_quad_over_polytope(inst.Q, inst.c, inst.A, inst.b,
                                        enumerate_vertices(inst))


class TestSimplexMinimum:
    """The standard simplex's cached face geometry gives the bits of the
    generic enumeration, which stays the reference."""

    @staticmethod
    def assert_generic(Q):
        n = Q.shape[0]
        ref = minimize_quad_over_polytope(Q, np.zeros(n), np.ones((1, n)), np.array([1.0]))
        assert bitwise_equal(oracle.simplex_minimum(Q), ref)
        check = check_copositivity_desk_scale(Q)
        assert check.min_value.hex() == ref.value.hex()
        assert check.minimizer.tobytes() == ref.minimizers[0].tobytes()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_random_symmetric(self, n):
        rng = np.random.default_rng(n)
        for k in range(6):
            M = rng.standard_normal((n, n))
            if k % 3 == 1:
                M = np.round(M)  # ties and degenerate faces
            elif k % 3 == 2:
                M[:, : n // 2] = 0.0  # singular faces
            self.assert_generic(M + M.T)

    @pytest.mark.parametrize("n", range(5, 11))
    def test_horn_family(self, n):
        for seed in range(3):
            self.assert_generic(horn_family(HornFamilyParams(n=n, seed=seed)).Q)

    def test_geometry_is_read_only(self):
        hulls = oracle._simplex_hulls(6)
        assert len(hulls) == 6
        for f, hull in enumerate(hulls, start=1):
            AF, x0, vt, kept, nonempty = hull
            assert AF.shape == (1, 1, f) and x0.shape == (1, f, 1) and vt.shape == (1, f, f)
            assert kept.sum() == 1 and nonempty.all()
            for v in hull:
                with pytest.raises(ValueError):
                    v[...] = 0

    def test_refused_before_the_geometry_is_built(self):
        oracle._simplex_hulls.cache_clear()
        with pytest.raises(DeskScaleLimit, match="face patterns"):
            oracle.simplex_minimum(np.eye(enum_cap() + 1))
        assert oracle._simplex_hulls.cache_info().misses == 0


class TestCurvatureTolerance:
    """Curvature reports record the scaled tolerance they were checked at."""

    def test_reports_on_a_scaled_q(self):
        Q = 3.0 * np.diag([1.0, -1.0])
        tol = curvature_tolerance(Q)
        assert tol == 3.0 * TOL_CURVATURE
        # {x1 - x2 = 1}: a nontrivial cone along (1, 1)/2; x1 + x2 = 1: trivial
        ray = make_qp(Q, [0, 0], [[1, -1]], [1])
        segment = make_qp(Q, [0, 0], [[1, 1]], [1])
        for inst in (ray, segment):
            assert recession_analysis(inst.Q, inst.A).tolerance == tol
            assert check_psd_on_nullspace(inst).tolerance == tol
        assert recession_analysis(ray.Q, ray.A).l_nontrivial
        assert not recession_analysis(segment.Q, segment.A).l_nontrivial
        corner = make_qp(Q, [0, 0], np.eye(2), [1, 1])
        assert check_psd_on_nullspace(corner).tolerance == tol
        concave = make_qp(-Q @ Q, [1, 1], [[1, -1]], [1])
        res = global_solve(concave)
        assert res.status == ORACLE_UNBOUNDED
        assert res.ray_check.tolerance == curvature_tolerance(concave.Q) == 9.0 * TOL_CURVATURE
        assert verify_ray_certificate(concave, res.ray).tolerance == 9.0 * TOL_CURVATURE


@st.composite
def degenerate_systems(draw):
    """A ``(k, m, n)`` stack of systems ``{A x = b, x >= 0}`` with repeated
    rows and columns, so that ranks differ within the stack and the first
    feasible basis is often not the first column subset."""
    k, m, n = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    A = np.array(draw(st.lists(ENTRIES, min_size=k * m * n, max_size=k * m * n)),
                 dtype=float).reshape(k, m, n)
    for i in range(k):
        if n > 1 and draw(st.booleans()):
            j, l = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            A[i, :, l] = draw(st.sampled_from([A[i, :, j], np.zeros(m), -A[i, :, j]]))
        if m > 1 and draw(st.booleans()):
            A[i, -1] = draw(st.sampled_from([A[i, 0], np.zeros(n), 2.0 * A[i, 0]]))
    b = np.array(draw(st.lists(ENTRIES, min_size=k * m, max_size=k * m))).reshape(k, m)
    for i in range(k):
        if draw(st.booleans()):
            b[i] = A[i] @ np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                                 min_size=n, max_size=n)))
    return A, b


class TestStackedFallback:
    """The stacked search for nonnegative stationary points of singular faces."""

    @settings(max_examples=300)
    @given(degenerate_systems())
    def test_matches_feasible_point_bitwise(self, systems):
        A, b = systems
        with np.errstate(call=oracle._lapack_failed, invalid="call"):
            points, found = oracle._feasible_points(A, b)
        for i in range(len(A)):
            ref = oracle._feasible_point(A[i], b[i])
            assert found[i] == (ref is not None)
            if ref is not None:
                assert np.array_equal(points[i], ref)

    def test_small_slices_change_no_point(self, monkeypatch):
        # only the last of the six column pairs of the rank-2 system is
        # feasible; at FACE_SLICE = 2 its three copies try one subset per
        # round, split over two calls, and the rank-1 system takes its
        # first two subsets in one call
        A = np.array([[[2.0, 1, -1, 1], [0, 0, -1, 2]]] * 3 + [[[1.0, 1, 1, 1], [2, 2, 2, 2]]])
        b = np.array([[0.0, 1]] * 3 + [[1.0, 2]])
        expected = [oracle._feasible_point(a, r) for a, r in zip(A, b)]
        rows = []
        basic = oracle._basic_solutions

        def counted(A, b, subsets, *args):
            rows.append(len(subsets))
            return basic(A, b, subsets, *args)

        monkeypatch.setattr(oracle, "_basic_solutions", counted)
        monkeypatch.setattr(oracle, "FACE_SLICE", 2)
        points, found = oracle._feasible_points(A, b)
        assert rows == [2] + [2, 1] * 6
        assert found.all()
        for x, ref in zip(points, expected):
            assert np.array_equal(x, ref)
        assert np.allclose(points, [[0, 0, 1, 1]] * 3 + [[1, 0, 0, 0]])

    def test_builds_subsets_only_for_ranks_present(self, monkeypatch):
        # three systems of three rows, each of rank 1: ranks 2 and 3 hold none
        rows = np.array([[1.0, 2, 0, 1], [0, 1, 1, 3], [2, 0, 1, 1]])
        A = np.stack([np.outer([1.0, 2, -1], row) for row in rows])
        b = np.outer([1.0, 2, 3], [1.0, 2, -1])
        expected = [oracle._feasible_point(a, r) for a, r in zip(A, b)]
        sizes = []
        combinations = itertools.combinations

        def counted(pool, size):
            sizes.append(size)
            return combinations(pool, size)

        monkeypatch.setattr(itertools, "combinations", counted)
        with np.errstate(call=oracle._lapack_failed, invalid="call"):
            points, found = oracle._feasible_points(A, b)
        assert sizes == [1]
        assert found.all()
        for x, ref in zip(points, expected):
            assert np.array_equal(x, ref)


def per_row_first_occurrences(rows, seen, dropped):
    """The reference de-duplication, rounding each row alone; counts in
    ``dropped`` the rows it drops."""
    for x in rows:
        key = tuple(np.round(x, oracle._DEDUP_DECIMALS))
        if key in seen:
            dropped.append(key)
        else:
            seen.add(key)
            yield x


class TestDeduplication:
    """Rounding each table in one call keeps the points the per-row
    rounding kept, with the same bytes and in the same order."""

    @staticmethod
    def per_row(fn, *args):
        """``fn(*args)`` with the per-row de-duplication, and the rows it dropped."""
        dropped = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_first_occurrences",
                       lambda rows, seen: per_row_first_occurrences(rows, seen, dropped))
            return fn(*args), dropped

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_basic_points_of_horn_slices(self, n):
        for seed in range(3):
            A = horn_family(HornFamilyParams(n=n, seed=seed)).A
            cut = oracle._recession_slice(A)
            ref, dropped = self.per_row(basic_feasible_points, *cut)
            assert dropped  # the slice repeats basic solutions
            assert bitwise_equal(basic_feasible_points(*cut), ref)

    @settings(max_examples=100)
    @given(degenerate_systems())
    def test_basic_points_of_degenerate_systems(self, systems):
        for A, b in zip(*systems):
            ref, _ = self.per_row(basic_feasible_points, A, b)
            assert bitwise_equal(basic_feasible_points(A, b), ref)

    def test_minimizers_on_tied_faces(self):
        dropped = []
        for n in range(2, 9):
            rng = np.random.default_rng(n)
            for _ in range(6):
                M = np.round(rng.standard_normal((n, n)))
                args = (M + M.T, np.zeros(n), np.ones((1, n)), np.array([1.0]))
                ref, lost = self.per_row(minimize_quad_over_polytope, *args)
                dropped += lost
                assert bitwise_equal(minimize_quad_over_polytope(*args), ref)
        assert dropped  # ties reach the de-duplication

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_zero_directions_of_horn_family(self, n):
        for seed in range(3):
            inst = horn_family(HornFamilyParams(n=n, seed=seed))
            ref, _ = self.per_row(recession_analysis, inst.Q, inst.A)
            got = recession_analysis(inst.Q, inst.A)
            assert ref.zero_directions
            assert bitwise_equal(got, ref)
