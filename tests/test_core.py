import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qprelax import core
from qprelax.conic import FEASIBILITY, recession_certificate_search, verify_certificate
from qprelax.core import (
    DNN,
    PSD0,
    MixtureCertificate,
    construct_lifted_from_mixture,
    evaluate_objective,
    index_sets,
    lift_instance,
    load_instance,
    save_instance,
    validate_lifted_point,
)
from qprelax.errors import (
    AsymmetricQ,
    DimensionMismatch,
    InfeasibleMixturePoint,
    NegativeComponent,
    NonFinite,
    ParseError,
    RayNotInRecessionCone,
    WeightsNotSimplex,
)
from conftest import make_qp


class TestInstanceModel:
    def test_horn_round_trip(self, tmp_path, horn):
        inst, _ = horn
        path = tmp_path / "horn5.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert loaded.n == 5 and loaded.m == 1
        assert loaded.b.tolist() == [9.0]
        assert np.array_equal(loaded.Q, inst.Q)
        assert np.array_equal(loaded.A, inst.A)

    def test_asymmetric_rejected(self, tmp_path):
        data = {
            "name": "bad", "n": 3, "m": 1,
            "Q": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            "c": [0, 0, 0], "A": [[1, 1, 1]], "b": [1],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(AsymmetricQ):
            load_instance(path)
        with pytest.warns(UserWarning):
            inst = load_instance(path, symmetrize=True)
        assert inst.Q[0, 1] == inst.Q[1, 0] == 0.5

    def test_dimension_mismatch(self, tmp_path):
        data = {
            "name": "bad", "n": 3, "m": 2,
            "Q": np.eye(3).tolist(), "c": [0, 0, 0],
            "A": [[1, 1, 1], [1, 0, 0]], "b": [1],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DimensionMismatch):
            load_instance(path)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_instance(path)
        path2 = tmp_path / "missing.json"
        path2.write_text(json.dumps({"name": "x", "n": 1}))
        with pytest.raises(ParseError):
            load_instance(path2)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            make_qp([[np.nan, 0], [0, 1]], [0, 0], [[1, 1]], [1])

    def test_arrays_read_only(self, horn):
        inst, _ = horn
        with pytest.raises(ValueError):
            inst.Q[0, 0] = 5.0


class TestObjective:
    def test_zero_vector(self, horn):
        inst, _ = horn
        assert evaluate_objective(inst, np.zeros(5)) == 0.0

    def test_horn_point(self, horn):
        # direct arithmetic on the Horn data: x^T Q x = 1, 2 c^T x = 6
        inst, _ = horn
        assert evaluate_objective(inst, np.array([0, 1, 1, 1, 0.0])) == pytest.approx(7.0)

    def test_convex_midpoint(self, simplex_convex):
        assert evaluate_objective(simplex_convex, [0.5, 0.5]) == pytest.approx(0.5)

    def test_dimension_check(self, simplex_convex):
        with pytest.raises(DimensionMismatch):
            evaluate_objective(simplex_convex, [1.0, 2.0, 3.0])

    def test_matches_lifted_inner_product(self, horn):
        inst, _ = horn
        lp = lift_instance(inst, DNN)
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.uniform(-3, 3, size=5)
            v = np.concatenate(([1.0], x))
            lifted = float(np.tensordot(lp.qhat, np.outer(v, v)))
            # 9 is the largest entry of the Horn data
            assert abs(lifted - evaluate_objective(inst, x)) <= 1e-10 * 9.0 * 100


class TestLifting:
    def test_horn_lift_blocks(self, horn):
        inst, _ = horn
        lp = lift_instance(inst, DNN)
        assert lp.qhat[0, 0] == 0.0
        assert lp.qhat[0, 1:].tolist() == [1.0] * 5
        assert np.array_equal(lp.qhat[1:, 1:], inst.Q)
        assert lp.rows[0, 0] == 9.0  # b
        assert np.array_equal(lp.rows[:, 1:], -inst.A)

    def test_zero_rhs_zero_row(self):
        inst = make_qp(np.eye(2), [0, 0], [[1, -1]], [0])
        lp = lift_instance(inst, PSD0)
        assert np.all(lp.rows[:, 0] == 0.0)

    def test_bad_cone(self, simplex_convex):
        with pytest.raises(ValueError):
            lift_instance(simplex_convex, "NOT_A_CONE")


class TestIndexSets:
    def test_mixed_pattern(self):
        s = index_sets([0, 1, 1, 1, 0], tol=1e-9)
        assert s.positive == (2, 3, 4)
        assert s.zero == (1, 5)

    def test_zero_vector(self):
        s = index_sets(np.zeros(4))
        assert s.positive == ()
        assert s.zero == (1, 2, 3, 4)

    def test_below_tolerance(self):
        s = index_sets([1e-12, 1.0], tol=1e-9)
        assert s.positive == (2,)
        assert s.zero == (1,)

    def test_negative_component(self):
        with pytest.raises(NegativeComponent):
            index_sets([-1.0, 1.0], tol=1e-9)

    @given(
        st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=12),
        st.floats(min_value=1e-12, max_value=1e-3),
    )
    def test_partition_property(self, xs, tol):
        s = index_sets(np.array(xs), tol=tol)
        assert sorted(s.positive + s.zero) == list(range(1, len(xs) + 1))
        assert not set(s.positive) & set(s.zero)


class TestValidation:
    def test_rank_one_lift_accepted_both_cones(self, horn):
        inst, _ = horn
        xt = np.array([0, 1, 0, 0, 4.0])
        v = np.concatenate(([1.0], xt))
        for cone in (DNN, PSD0):
            report = validate_lifted_point(inst, np.outer(v, v), tol=1e-9, cone=cone)
            assert report.ok
            assert report.delta_min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_certificate_block_accepted(self, horn):
        inst, dtilde = horn
        xt = np.array([0, 1, 0, 0, 4.0])
        v = np.concatenate(([1.0], xt))
        y = np.outer(v, v)
        y[1:, 1:] += dtilde
        report = validate_lifted_point(inst, y, tol=1e-9, cone=DNN)
        assert report.ok

    def test_infeasible_extraction_fails(self, horn):
        inst, _ = horn
        x_bad = np.array([1, 1, 1, 1, 1.0])
        v = np.concatenate(([1.0], x_bad))
        report = validate_lifted_point(inst, np.outer(v, v), tol=1e-9, cone=DNN)
        assert not report.x_feasible
        assert not report.ok

    def test_corner_check(self, horn):
        inst, _ = horn
        xt = np.array([0, 1, 0, 0, 4.0])
        v = np.concatenate(([2.0], xt))
        report = validate_lifted_point(inst, np.outer(v, v), tol=1e-9, cone=DNN)
        assert not report.corner_ok

    def test_unconverged_eigensolve_fails_both_checks(self, horn, monkeypatch):
        # where LAPACK does not converge the eigenvalue gufunc returns NaN
        # (numpy.linalg.eigvalsh would raise): no cone check may pass it
        inst, _ = horn
        v = np.array([1, 0, 1, 0, 0, 4.0])
        cert = recession_certificate_search(inst, DNN, FEASIBILITY).certificate
        assert validate_lifted_point(inst, np.outer(v, v), tol=1e-9).ok
        assert verify_certificate(inst, cert).ok
        monkeypatch.setattr(core, "_eigvalsh",
                            lambda a, signature: np.full(a.shape[:-1], np.nan))
        for cone in (DNN, PSD0):
            report = validate_lifted_point(inst, np.outer(v, v), tol=1e-9, cone=cone)
            assert not (report.ok or report.delta_psd or report.cone_ok)
            assert math.isnan(report.cone_violation)
        check = verify_certificate(inst, cert)
        assert not check.ok and math.isnan(check.cone_violation)


class TestMixture:
    def test_single_point(self, horn):
        inst, _ = horn
        xt = np.array([0, 1, 0, 0, 4.0])
        mix = MixtureCertificate(weights=[1.0], points=(xt,))
        point = construct_lifted_from_mixture(inst, mix)
        v = np.concatenate(([1.0], xt))
        assert np.allclose(point.y, np.outer(v, v))

    def test_two_point_midpoint(self, simplex_convex):
        mix = MixtureCertificate(
            weights=[0.5, 0.5],
            points=(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        )
        point = construct_lifted_from_mixture(simplex_convex, mix)
        assert np.allclose(point.x, [0.5, 0.5])

    def test_bad_ray_rejected(self, horn):
        # two genuine recession rays plus the sign-violating third vector
        inst, _ = horn
        xt = np.array([0, 1, 0, 0, 4.0])
        good1 = np.array([1, 1, 0, 0, 1.0])
        good2 = np.array([0, 1, 1, 1, 0.0])
        bad = np.array([0, 1, 0, -1, -1.0])
        ok = MixtureCertificate(weights=[1.0], points=(xt,), rays=(good1, good2))
        construct_lifted_from_mixture(inst, ok)
        with pytest.raises(RayNotInRecessionCone):
            construct_lifted_from_mixture(
                inst,
                MixtureCertificate(weights=[1.0], points=(xt,), rays=(good1, good2, bad)),
            )

    def test_weights_not_simplex(self, simplex_convex):
        with pytest.raises(WeightsNotSimplex):
            construct_lifted_from_mixture(
                simplex_convex,
                MixtureCertificate(weights=[0.7, 0.7],
                                   points=(np.array([1.0, 0]), np.array([0, 1.0]))),
            )

    def test_infeasible_point_rejected(self, simplex_convex):
        with pytest.raises(InfeasibleMixturePoint):
            construct_lifted_from_mixture(
                simplex_convex,
                MixtureCertificate(weights=[1.0], points=(np.array([2.0, 0.0]),)),
            )

    def test_round_trip_validates(self, horn):
        inst, _ = horn
        rng = np.random.default_rng(3)
        xt1 = np.array([0, 9, 0, 0, 0.0])
        xt2 = np.array([0, 1, 0, 0, 4.0])
        rays = (np.array([1, 1, 0, 0, 1.0]), np.array([0, 1, 1, 1, 0.0]))
        for _ in range(5):
            w = rng.dirichlet([1, 1])
            mix = MixtureCertificate(weights=w, points=(xt1, xt2), rays=rays)
            point = construct_lifted_from_mixture(inst, mix)
            report = validate_lifted_point(inst, point, tol=1e-8, cone=DNN)
            assert report.ok
            # lifted objective equals the mixture objective identity
            lp = lift_instance(inst, DNN)
            expected = (
                w[0] * evaluate_objective(inst, xt1)
                + w[1] * evaluate_objective(inst, xt2)
                + sum(float(d @ inst.Q @ d) for d in rays)
            )
            assert float(np.tensordot(lp.qhat, point.y)) == pytest.approx(expected, rel=1e-10)
