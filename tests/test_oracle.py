import math

import numpy as np
import pytest

from qprelax.errors import DeskScaleLimit, PointInfeasible
from qprelax.oracle import (
    ORACLE_INFEASIBLE,
    ORACLE_OPTIMAL,
    ORACLE_UNBOUNDED,
    basic_feasible_points,
    enum_cap,
    enumerate_vertices,
    global_solve,
    minimize_quad_over_polytope,
    second_order_minimum,
    verify_local_minimizer,
)

from conftest import feasible_samples, make_qp


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
        inst = make_qp(np.eye(5), np.zeros(5), [np.ones(5)], [1])
        monkeypatch.setenv("QPRELAX_ENUM_CAP", "4")
        with pytest.raises(DeskScaleLimit):
            enumerate_vertices(inst)
        monkeypatch.delenv("QPRELAX_ENUM_CAP")
        assert enum_cap() == 16


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

    def test_box_restricts(self):
        # linear decrease stopped by the upper bound
        res = minimize_quad_over_polytope(
            np.zeros((1, 1)), np.array([-1.0]), np.zeros((1, 1)), np.array([0.0]),
            box=np.array([2.0]),
        )
        assert res.value == pytest.approx(-4.0)  # q = 2 c x at x = 2
        assert np.allclose(res.minimizers[0], [2.0])

    def test_mixed_box_rejected(self):
        with pytest.raises(ValueError):
            minimize_quad_over_polytope(
                np.zeros((2, 2)), np.array([-1.0, -1.0]), np.zeros((1, 2)), np.array([0.0]),
                box=np.array([2.0, np.inf]),
            )


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
        d = res.unbounded_witness["direction"]
        assert float(d @ inst.Q @ d) < 0
        assert np.abs(inst.A @ d).max() <= 1e-8

    def test_zero_curvature_linear_decrease(self):
        inst = make_qp(np.zeros((2, 2)), [-1, -1], [[1, -1]], [0])
        res = global_solve(inst)
        assert res.value == -math.inf

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
        assert verdict.second_order_min == pytest.approx(-2.0, abs=1e-6)

    def test_infeasible_point(self, simplex_convex):
        with pytest.raises(PointInfeasible):
            verify_local_minimizer(simplex_convex, np.array([2.0, 2.0]))

    def test_box_doubling_keeps_sign(self):
        inst = make_qp(-np.eye(2), [0, 0], [[1, 1]], [1])
        x = np.array([0.5, 0.5])
        m1 = second_order_minimum(inst, x, box_radius=1.0)
        m2 = second_order_minimum(inst, x, box_radius=2.0)
        assert m1 < 0 and m2 < 0
        inst2 = make_qp(np.eye(2), [0, 0], [[1, 1]], [1])
        p1 = second_order_minimum(inst2, np.array([0.5, 0.5]), box_radius=1.0)
        p2 = second_order_minimum(inst2, np.array([0.5, 0.5]), box_radius=2.0)
        assert p1 >= -1e-12 and p2 >= -1e-12

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
