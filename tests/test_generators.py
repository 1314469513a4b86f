import numpy as np
import pytest

from qprelax.analysis import (
    analyze_recession_cone,
    check_copositivity_desk_scale,
    check_psd_on_nullspace,
)
from qprelax.errors import DeskScaleLimit, InvalidDimension
from qprelax.generators import (
    BOUNDED,
    CONVEX_ON_NULLSPACE,
    HORN_CERT_FACTORS,
    INFEASIBLE,
    UNBOUNDED_SAFE,
    HornFamilyParams,
    horn_certificate,
    horn_family,
    horn_instance,
    random_instance,
)
from qprelax.oracle import enumerate_vertices

EXPECTED_HORN_Q = np.array(
    [
        [1, -1, 1, 1, -1],
        [-1, 1, -1, 1, 1],
        [1, -1, 1, -1, 1],
        [1, 1, -1, 1, -1],
        [-1, 1, 1, -1, 1],
    ],
    dtype=float,
)

EXPECTED_DTILDE = np.array(
    [
        [5, 5, 0, 0, 5],
        [5, 15, 5, 0, 0],
        [0, 5, 5, 5, 0],
        [0, 0, 5, 10, 5],
        [5, 0, 0, 5, 10],
    ],
    dtype=float,
)


class TestHornInstance:
    def test_bit_identical_reference_data(self):
        inst, dtilde = horn_instance()
        assert np.array_equal(inst.Q, EXPECTED_HORN_Q)
        assert np.array_equal(inst.c, np.ones(5))
        assert np.array_equal(inst.A, np.array([[-3, 1, 0, -1, 2]], dtype=float))
        assert np.array_equal(inst.b, np.array([9.0]))
        assert np.array_equal(dtilde, EXPECTED_DTILDE)
        # deterministic across calls
        inst2, dtilde2 = horn_instance()
        assert np.array_equal(inst2.Q, inst.Q) and np.array_equal(dtilde2, dtilde)

    def test_exact_integer_identities(self):
        inst, dtilde = horn_instance()
        Qi = inst.Q.astype(np.int64)
        Ai = inst.A.astype(np.int64)
        Di = dtilde.astype(np.int64)
        assert int((Qi * Di).sum()) == -5
        assert int(np.abs(Ai @ Di).max()) == 0
        assert int(np.trace(Di)) == 45

    def test_certificate_is_doubly_nonnegative(self):
        _, dtilde = horn_instance()
        assert dtilde.min() >= 0
        assert np.linalg.eigvalsh(dtilde).min() >= -1e-9

    def test_certificate_matches_factors(self):
        d = np.zeros((5, 5))
        for f in HORN_CERT_FACTORS:
            v = np.array(f, dtype=float)
            d += np.outer(v, v)
        assert np.array_equal(5.0 * d, horn_certificate())

    def test_factors_in_constraint_nullspace(self):
        inst, _ = horn_instance()
        for f in HORN_CERT_FACTORS:
            assert float((inst.A @ np.array(f, dtype=float))[0]) == 0.0

    def test_objective_bounded_below_certification(self):
        inst, _ = horn_instance()
        assert check_copositivity_desk_scale(inst.Q).min_value >= -1e-9
        assert inst.c.min() >= 0


class TestHornFamily:
    def test_n5_degenerate_member(self):
        head, _ = horn_instance()
        inst = horn_family(HornFamilyParams(n=5, seed=3))
        assert np.array_equal(inst.Q, head.Q)
        assert np.array_equal(inst.A, head.A)

    def test_embedded_certificate_exact(self):
        _, dtilde = horn_instance()
        for n, seed in ((6, 0), (7, 1), (8, 2)):
            inst = horn_family(HornFamilyParams(n=n, seed=seed))
            D = np.zeros((n, n), dtype=np.int64)
            D[:5, :5] = dtilde.astype(np.int64)
            Qi = inst.Q.astype(np.int64)
            Ai = inst.A.astype(np.int64)
            assert int((Qi * D).sum()) == -5
            assert int(np.abs(Ai @ D).max()) == 0

    def test_structure_keeps_value_finite(self):
        inst = horn_family(HornFamilyParams(n=7, seed=4))
        # head is the Horn matrix, coupling block nonnegative, tail copositive
        assert check_copositivity_desk_scale(inst.Q[:5, :5]).min_value >= -1e-9
        assert inst.Q[:5, 5:].min() >= 0
        assert check_copositivity_desk_scale(inst.Q[5:, 5:]).min_value >= -1e-9
        assert inst.c.min() >= 0
        assert enumerate_vertices(inst)

    def test_deterministic(self):
        a = horn_family(HornFamilyParams(n=7, seed=9))
        b = horn_family(HornFamilyParams(n=7, seed=9))
        assert np.array_equal(a.Q, b.Q) and np.array_equal(a.A, b.A)

    def test_dimension_guard(self):
        with pytest.raises(InvalidDimension):
            HornFamilyParams(n=4)


class TestRandomInstances:
    def test_bounded(self):
        inst, meta = random_instance(BOUNDED, 4, 2, 7, with_metadata=True)
        assert enumerate_vertices(inst)
        report = analyze_recession_cone(inst)
        assert not report.l_nontrivial  # polytope
        eigs = np.linalg.eigvalsh(inst.Q)
        assert eigs.min() < 0 < eigs.max()
        assert meta["kind"] == BOUNDED

    def test_convex_on_nullspace(self):
        inst = random_instance(CONVEX_ON_NULLSPACE, 4, 2, 3)
        assert check_psd_on_nullspace(inst).holds
        assert enumerate_vertices(inst)
        assert np.linalg.eigvalsh(inst.Q).min() < -1e-9  # indefinite overall

    def test_unbounded_safe(self):
        inst, meta = random_instance(UNBOUNDED_SAFE, 4, 2, 1, with_metadata=True)
        report = analyze_recession_cone(inst)
        assert report.l_nontrivial
        assert report.min_curvature >= -1e-9
        d = np.array(meta["recession_direction"])
        assert np.abs(inst.A @ d).max() <= 1e-8 * max(1, np.abs(inst.A).max())

    def test_infeasible_with_farkas_certificate(self):
        inst, meta = random_instance(INFEASIBLE, 3, 2, 5, with_metadata=True)
        assert enumerate_vertices(inst) == []
        y = np.array(meta["farkas_certificate"])
        assert float((inst.A.T @ y).max()) <= 1e-9
        assert float(inst.b @ y) > 0

    def test_infeasible_screen_keeps_enumeration_cap(self, monkeypatch):
        # 6 column subsets of size 2 exceed 2^2; 3 do not
        monkeypatch.setenv("QPRELAX_ENUM_CAP", "2")
        with pytest.raises(DeskScaleLimit, match="6 column subsets"):
            random_instance(INFEASIBLE, 4, 2, 0)
        random_instance(INFEASIBLE, 3, 2, 0)

    def test_deterministic(self):
        a = random_instance(BOUNDED, 3, 1, 42)
        b = random_instance(BOUNDED, 3, 1, 42)
        assert np.array_equal(a.Q, b.Q) and np.array_equal(a.b, b.b)

    def test_kinds_disjoint_streams(self):
        a = random_instance(BOUNDED, 3, 1, 0)
        b = random_instance(CONVEX_ON_NULLSPACE, 3, 1, 0)
        assert not np.array_equal(a.Q, b.Q)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            random_instance("MYSTERY", 3, 1, 0)

    def test_dimension_guard(self):
        with pytest.raises(InvalidDimension):
            random_instance(BOUNDED, 1, 1, 0)
