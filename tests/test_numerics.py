import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from qprelax import conic, numerics, oracle
from qprelax.conic import SolveOptions, _consensus, _strict_triu
from qprelax.core import DNN, PSD0, lift_instance
from qprelax.errors import DimensionMismatch, NonFinite, PointInfeasible
from qprelax.generators import BOUNDED, UNBOUNDED_SAFE, random_instance
from qprelax.numerics import (
    NONNEG,
    PSD,
    ROW0NONNEG,
    AffineProjector,
    FaceProjector,
    build_affine_projector,
    cone_projection_for,
    cone_violation,
    nullspace_basis,
    project_cone,
)

from conftest import make_corpus, make_qp


def sym_matrices(n, elements=st.floats(min_value=-5, max_value=5)):
    return arrays(np.float64, (n, n), elements=elements).map(lambda m: 0.5 * (m + m.T))


def eigh(m):
    """The eigensolver the PSD kernel calls: LAPACK's driver, lower triangle."""
    return numerics._eigh(m, signature="d->dd")


def reference_psd(m):
    """PSD projection as an eigenvalue clip through ``numpy.linalg.eigh``."""
    values, vectors = np.linalg.eigh(m)
    out = (vectors * np.maximum(values, 0.0)) @ vectors.T
    return 0.5 * (out + out.T)


def nan_eigh(m, signature=None):
    """What the gufunc returns when LAPACK does not converge."""
    k = m.shape[0]
    return np.full(k, np.nan), np.full((k, k), np.nan)


orders = st.integers(min_value=1, max_value=13)


class TestEigen:
    """The private LAPACK gufunc behind the PSD kernel.

    It is not public numpy API, so these tests pin what the kernel relies
    on: a numpy upgrade that moves or changes it fails here.
    """

    def test_identity(self):
        values, _ = eigh(np.eye(3))
        assert np.allclose(values, [1, 1, 1])

    def test_diagonal(self):
        values, _ = eigh(np.diag([-2.0, 5.0]))
        assert np.allclose(values, [-2, 5])

    def test_off_diagonal(self):
        values, _ = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(values, [-1, 1])

    def test_nonfinite(self, monkeypatch):
        with pytest.raises(NonFinite):
            project_cone(np.array([[np.inf, 0.0], [0.0, 1.0]]), PSD)
        # an unconverged eigensolve returns NaN without raising
        monkeypatch.setattr(numerics, "_eigh", nan_eigh)
        with pytest.raises(NonFinite, match="did not converge"):
            project_cone(np.eye(3), PSD)

    @given(sym_matrices(4))
    def test_invariants(self, m):
        values, vectors = eigh(m)
        scale = max(1.0, float(np.abs(m).max()))
        for lam, v in zip(values, vectors.T):
            assert np.linalg.norm(m @ v - lam * v) <= 1e-9 * scale
        assert np.allclose(vectors.T @ vectors, np.eye(4), atol=1e-10)

    @given(orders.flatmap(sym_matrices))
    def test_matches_numpy_eigh_bitwise(self, m):
        values, vectors = eigh(m)
        ref_values, ref_vectors = np.linalg.eigh(m)
        assert values.dtype == vectors.dtype == np.float64
        assert np.array_equal(values, ref_values)
        assert np.array_equal(vectors, ref_vectors)


class TestPsdKernel:
    @given(orders.flatmap(sym_matrices))
    def test_matches_eigenvalue_clip(self, m):
        out = numerics._psd(m)
        scale = max(1.0, float(np.abs(m).max()))
        assert np.abs(out - reference_psd(m)).max() <= 1e-12 * scale
        assert np.array_equal(out, out.T)

    @given(orders.flatmap(sym_matrices))
    def test_idempotent_on_psd_input(self, m):
        psd = reference_psd(m)
        scale = max(1.0, float(np.abs(m).max()))
        assert np.abs(numerics._psd(psd) - psd).max() <= 1e-12 * scale

    def test_loop_stops_before_eigensolver_sees_nonfinite(self, monkeypatch):
        inst = random_instance(BOUNDED, 4, 2, 2)
        lp = lift_instance(inst)
        calls = []
        lapack = numerics._eigh

        def failing_eigh(m, signature=None):
            assert np.isfinite(m).all(), "eigensolver got a non-finite entry"
            calls.append(signature)
            if len(calls) == 3:
                return nan_eigh(m)
            return lapack(m, signature=signature)

        monkeypatch.setattr(numerics, "_eigh", failing_eigh)
        with pytest.raises(NonFinite, match="iteration 4"):
            _consensus(lp.qhat, build_affine_projector(lp), cone_projection_for(DNN),
                       SolveOptions())
        assert calls == ["d->dd"] * 3


@st.composite
def matrix_stacks(draw):
    """A ``(k, m, f)`` stack of small matrices, with zero and repeated columns."""
    k, m, f = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    stack = draw(arrays(np.float64, (k, m, f), elements=st.floats(min_value=-5, max_value=5)))
    if f > 1 and draw(st.booleans()):
        stack[:, :, -1] = stack[:, :, 0]
    return stack


class TestStackedGufuncs:
    """The private SVD and eigen gufuncs behind the oracle's face engine.

    Each slice of a stack must give exactly what numpy's public wrapper
    gives for that matrix alone, so a numpy upgrade that moves or changes
    them fails here.
    """

    @given(matrix_stacks())
    def test_svdvals_matches_numpy_per_slice_bitwise(self, a):
        s = numerics._svdvals(a, signature="d->d")
        assert s.dtype == np.float64 and s.shape == (a.shape[0], min(a.shape[1:]))
        for i in range(a.shape[0]):
            assert np.array_equal(s[i], np.linalg.svd(a[i], compute_uv=False))

    @given(matrix_stacks())
    def test_svd_matches_numpy_per_slice_bitwise(self, a):
        u, s, vt = numerics._svd(a, signature="d->ddd")
        for i in range(a.shape[0]):
            ref_u, ref_s, ref_vt = np.linalg.svd(a[i], full_matrices=True)
            assert np.array_equal(u[i], ref_u)
            assert np.array_equal(s[i], ref_s)
            assert np.array_equal(vt[i], ref_vt)

    def test_eigh_matches_numpy_per_slice_bitwise(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(6, 4, 4))
        stack = m + m.transpose(0, 2, 1)
        values, vectors = numerics._eigh(stack, signature="d->dd")
        for i in range(len(stack)):
            ref_values, ref_vectors = np.linalg.eigh(stack[i])
            assert np.array_equal(values[i], ref_values)
            assert np.array_equal(vectors[i], ref_vectors)


@pytest.mark.parametrize("r", range(1, 14))
def test_strict_triu_memo_matches_numpy(r):
    rows, cols = _strict_triu(r)
    ref_rows, ref_cols = np.triu_indices(r, k=1)
    assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)
    assert _strict_triu(r)[0] is rows and not rows.flags.writeable


class TestNullspace:
    def test_row(self):
        n = nullspace_basis(np.array([[1.0, 1.0]]))
        assert n.shape == (2, 1)
        assert abs(abs(n[0, 0]) - 1 / np.sqrt(2)) < 1e-12
        assert np.allclose(np.array([[1.0, 1.0]]) @ n, 0.0)

    def test_full_rank(self):
        assert nullspace_basis(np.eye(3)).shape == (3, 0)

    def test_horn_row(self, horn):
        inst, _ = horn
        n = nullspace_basis(inst.A)
        assert n.shape == (5, 4)
        assert np.abs(inst.A @ n).max() <= 1e-10 * np.abs(inst.A).max()
        assert np.allclose(n.T @ n, np.eye(4), atol=1e-10)

    def test_zero_matrix(self):
        n = nullspace_basis(np.zeros((2, 3)))
        assert n.shape == (3, 3)


class TestConeProjections:
    def test_psd_clip(self):
        out = project_cone(np.diag([-1.0, 2.0]), PSD)
        assert np.allclose(out, np.diag([0.0, 2.0]))

    def test_nonneg(self):
        out = project_cone(np.array([[1.0, -3.0], [-3.0, 1.0]]), NONNEG)
        assert np.allclose(out, np.eye(2))

    def test_row0_only(self):
        m = np.zeros((3, 3))
        m[0, 2] = m[2, 0] = -5.0
        m[1, 2] = m[2, 1] = -5.0
        out = project_cone(m, ROW0NONNEG)
        assert out[0, 2] == 0.0 and out[2, 0] == 0.0
        assert out[1, 2] == -5.0

    @given(sym_matrices(3), sym_matrices(3))
    def test_idempotent_and_nonexpansive(self, m1, m2):
        for cone in (PSD, NONNEG, ROW0NONNEG):
            p1 = project_cone(m1, cone)
            assert np.abs(project_cone(p1, cone) - p1).max() <= 1e-10
            d_before = np.linalg.norm(m1 - m2)
            d_after = np.linalg.norm(p1 - project_cone(m2, cone))
            assert d_after <= d_before + 1e-10

    @given(sym_matrices(4))
    def test_psd_output_psd(self, m):
        out = project_cone(m, PSD)
        scale = max(1.0, float(np.abs(m).max()))
        assert np.linalg.eigvalsh(out).min() >= -1e-10 * scale


class TestAffineProjector:
    def test_direct_constraints_idempotent(self):
        g1 = np.eye(3)
        g2 = np.zeros((3, 3))
        g2[0, 0] = 1.0
        proj = AffineProjector([g1, g2], [1.0, 0.25], 3)
        m = np.random.default_rng(0).normal(size=(3, 3))
        m = 0.5 * (m + m.T)
        once = proj.apply(m)
        assert np.abs(proj.apply(once) - once).max() <= 1e-10
        assert abs(np.trace(once) - 1.0) <= 1e-10
        assert abs(once[0, 0] - 0.25) <= 1e-10

    def test_zero_matrix_gets_unit_corner(self, horn):
        inst, _ = horn
        lp = lift_instance(inst)
        proj = build_affine_projector(lp)
        out = proj.apply(np.zeros((6, 6)))
        assert out[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(lp.rows @ out).max() <= 1e-8

    def test_feasible_point_unchanged(self, horn):
        inst, _ = horn
        lp = lift_instance(inst)
        proj = build_affine_projector(lp)
        v = np.concatenate(([1.0], [0, 1, 0, 0, 4.0]))
        y = np.outer(v, v)
        assert np.abs(proj.apply(y) - y).max() <= 1e-9


def _structured_apply(proj, m):
    """Face projection through the checked reduced ``AffineProjector.apply``."""
    if proj.rank == 0:
        return np.zeros_like(m)
    v = proj.basis
    out = v @ proj.reduced.apply(v.T @ m @ v) @ v.T
    return 0.5 * (out + out.T)


def _trace_projector(inst):
    """Projector onto the unit-trace slice of the recession-certificate face
    ``[0; N]``, ``N`` the basis of null(A)."""
    N = nullspace_basis(inst.A)
    basis = np.vstack([np.zeros((1, N.shape[1])), N])
    return FaceProjector(basis, [np.eye(basis.shape[1])], [1.0])


def _face_projectors():
    unbounded = random_instance(UNBOUNDED_SAFE, 5, 2, 0)
    box = random_instance(BOUNDED, 4, 2, 2)
    point = make_qp(np.eye(2), [0, 0], [[1, 0], [0, 1]], [1, 1], "point")
    return {
        "unpinned": build_affine_projector(lift_instance(unbounded)),
        "bounded": build_affine_projector(lift_instance(box)),
        "certificate": _trace_projector(unbounded),
        "rank-0 certificate": _trace_projector(point),
    }


FACE_PROJECTORS = _face_projectors()


class TestKernels:
    """The unchecked face map and the cone kernels against the checked paths."""

    def test_rank0_face_is_trivial(self):
        assert FACE_PROJECTORS["rank-0 certificate"].rank == 0

    @given(st.sampled_from(sorted(FACE_PROJECTORS)), st.data())
    def test_face_map_matches_checked_path(self, name, data):
        proj = FACE_PROJECTORS[name]
        m = data.draw(sym_matrices(proj.order))
        once = proj.affine(m)
        assert np.abs(once - _structured_apply(proj, m)).max() <= 1e-12
        assert np.abs(proj.affine(once) - once).max() <= 1e-12
        assert np.array_equal(proj.apply(m), once)
        assert np.array_equal(once, once.T)

    @given(sym_matrices(4))
    def test_cone_kernels_match_project_cone(self, m):
        for cone, cones in ((DNN, (PSD, NONNEG)), (PSD0, (PSD, ROW0NONNEG))):
            for kernel, selector in zip(cone_projection_for(cone), cones):
                assert np.array_equal(kernel(m), project_cone(m, selector))

    def test_public_projections_validate(self):
        proj = FACE_PROJECTORS["rank-0 certificate"]
        bad = np.eye(proj.order)
        bad[0, 1] = np.nan
        with pytest.raises(NonFinite):
            proj.apply(bad)
        with pytest.raises(DimensionMismatch):
            proj.apply(np.eye(proj.order + 1))
        with pytest.raises(NonFinite):
            project_cone(bad, PSD)
        with pytest.raises(DimensionMismatch):
            project_cone(np.ones((2, 3)), NONNEG)


class TestDegenerateConstraints:
    def test_dependent_rows_warn_and_solve_least_norm(self):
        from qprelax.errors import DegenerateConstraints

        g = np.zeros((2, 2))
        g[0, 0] = 1.0
        with pytest.warns(DegenerateConstraints):
            proj = AffineProjector([g, 2.0 * g], [1.0, 2.0], 2)
        assert proj.degenerate
        out = proj.apply(np.zeros((2, 2)))
        assert out[0, 0] == pytest.approx(1.0)
        assert np.abs(proj.apply(out) - out).max() <= 1e-10


class TestConeViolation:
    def test_dnn(self, horn):
        _, dtilde = horn
        d = np.zeros((6, 6))
        d[1:, 1:] = dtilde
        assert cone_violation(d, DNN) <= 1e-9

    def test_detects_negative_entry(self):
        m = np.eye(3)
        m[1, 2] = m[2, 1] = -0.5
        assert cone_violation(m, DNN) >= 0.5


def _same_bits(u, v):
    """Equality of nested results, with arrays and floats compared bit for bit."""
    if isinstance(u, np.ndarray):
        return (isinstance(v, np.ndarray) and u.dtype == v.dtype and u.shape == v.shape
                and u.tobytes() == v.tobytes())
    if isinstance(u, (tuple, list)):
        return (type(u) is type(v) and len(u) == len(v)
                and all(_same_bits(x, y) for x, y in zip(u, v)))
    if isinstance(u, float):
        return isinstance(v, float) and u.hex() == v.hex()
    if hasattr(u, "__dataclass_fields__"):
        return type(u) is type(v) and all(_same_bits(getattr(u, f), getattr(v, f))
                                          for f in u.__dataclass_fields__)
    return u == v


def _failed(*args, signature=None):
    """What a LAPACK gufunc does where numpy's wrapper raises: NaN outputs
    and the floating-point invalid flag."""
    return np.divide(np.zeros(args[0].shape), 0.0)


@st.composite
def _systems(draw):
    """A matrix with 0 to 5 rows and 1 to 5 columns, of full or deficient
    rank, and a right-hand side."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    k = draw(st.integers(0, min(m, n)))
    values = st.floats(-4.0, 4.0, allow_nan=False, width=64)
    left = draw(arrays(float, (m, k), elements=values))
    right = draw(arrays(float, (k, n), elements=values))
    b = draw(arrays(float, (m,), elements=values))
    return left @ right if draw(st.booleans()) else draw(
        arrays(float, (m, n), elements=values)), b


class TestLapackHandles:
    """The sites that call a LAPACK gufunc without numpy's wrapper give the
    wrapper's bits, and raise ``LinAlgError`` where it would."""

    @given(_systems())
    def test_least_squares_is_the_wrapper(self, system):
        a, b = system
        ref = np.linalg.lstsq(a, b, rcond=None)[0]
        assert _same_bits(numerics._least_squares(a, b), ref)

    @given(_systems())
    def test_nullspace_basis_is_the_wrapper(self, system):
        a, _ = system
        _, s, vt = np.linalg.svd(a, full_matrices=True)
        smax = s[0] if s.size else 0.0
        rank = int(np.sum(s > numerics.RANK_TOL * smax)) if smax > 0 else 0
        assert _same_bits(nullspace_basis(a), vt[rank:].T.copy())

    @staticmethod
    def sites():
        """What every converted site gives over the make_corpus.py corpus."""
        out = []
        for inst in make_corpus():
            prep = conic._Prepared(inst)
            out.append((prep.N, prep.curvature, prep.v))
            if prep.rays and prep.N.shape[1]:
                out.append(conic._search_start(prep))
            if prep.x0 is not None and prep.holds:
                found = conic._convex_qp(inst, prep.x0)
                out.append(found)
                if found is not None and found[1] is None:
                    try:
                        out.append(oracle.first_order_certificate(inst, found[0]))
                    except PointInfeasible:
                        out.append(None)
        return out

    def test_sites_are_the_wrappers_over_the_corpus(self, monkeypatch):
        handles = self.sites()
        with monkeypatch.context() as patch:
            patch.setattr(numerics, "_svd", lambda a, signature: np.linalg.svd(a))
            patch.setattr(conic, "_eigh", lambda a, signature: np.linalg.eigh(a))
            patch.setattr(conic, "_eigvalsh", lambda a, signature: np.linalg.eigvalsh(a))
            for module in (conic, oracle):
                patch.setattr(module, "_least_squares",
                              lambda a, b: np.linalg.lstsq(a, b, rcond=None)[0])
            wrappers = self.sites()
        assert len(handles) > 40 and _same_bits(handles, wrappers)

    def test_a_failed_handle_raises(self, monkeypatch):
        corpus = make_corpus()
        horn = corpus[0]
        convex = next(i for i in corpus if conic._Prepared(i).holds
                      and conic._Prepared(i).x0 is not None
                      and conic._convex_qp(i, conic._Prepared(i).x0)[1] is None)
        search = next(i for i in corpus if conic._Prepared(i).rays
                      and conic._search_start(conic._Prepared(i)) is not None)
        x0 = conic._Prepared(convex).x0
        x = conic._convex_qp(convex, x0)[0]
        prep = conic._Prepared(search)
        calls = [
            (numerics, "_svd", lambda: nullspace_basis(horn.A)),
            (numerics, "_lstsq", lambda: numerics._least_squares(np.eye(2), np.ones(2))),
            (conic, "_eigh", lambda: conic._Prepared(horn)),
            (conic, "_eigh", lambda: conic._convex_qp(convex, x0)),
            (conic, "_eigvalsh", lambda: conic._search_start(prep)),
            (numerics, "_lstsq", lambda: oracle.first_order_certificate(convex, x)),
        ]
        for module, name, call in calls:
            with monkeypatch.context() as patch:
                if name == "_eigh":
                    patch.setattr(module, name, lambda a, signature: (_failed(a)[0], _failed(a)))
                else:
                    patch.setattr(module, name, _failed)
                with pytest.raises(np.linalg.LinAlgError):
                    call()
