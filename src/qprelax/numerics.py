"""Dense symmetric linear algebra: nullspaces and projections.

Everything here operates on small dense matrices.  Every LAPACK call in
the package goes through a gufunc of ``numpy.linalg._umath_linalg``, the
handle that numpy's own wrapper calls, without the wrapper: at the orders
used here (below ~200, mostly below 10) the wrapper's type dispatch,
``errstate`` context and ``astype`` copies cost as much as the
decomposition, and the inputs are already float64 and finite.  The
handles and their callers:

- ``core._eigh`` (``eigh_lo``, ``numpy.linalg.eigh``): the PSD projection
  ``_psd``; the interior-point step ``ipm._ipm_step``, twice per step, for
  ``S`` and ``Z`` and to invert its Schur matrix; the oracle's reduced
  Hessians ``oracle._interior_points``; and the curvature of the record
  ``conic._Prepared`` and the reduced Hessians of ``conic._convex_qp``.
- ``core._eigvalsh`` (``eigvalsh_lo``, ``numpy.linalg.eigvalsh``):
  lifted-point validation (``core.validate_lifted_point``,
  ``core.cone_violation``), the interior-point start test and step lengths
  (``ipm._interior``, ``ipm._steps_to_boundary``) and the DNN search's
  start (``conic._search_start``).
- ``_svd`` (``svd_f``, ``numpy.linalg.svd``): ``nullspace_basis``, and the
  oracle's stacked basic solutions and face hulls
  (``oracle._basic_solutions``, ``oracle._hull_points``).
- ``_svdvals`` (``svd``, ``numpy.linalg.svd(compute_uv=False)``): the
  oracle's system rank (``oracle._system_ranks``).
- ``_lstsq`` (``lstsq``, ``numpy.linalg.lstsq``), through
  ``_least_squares``: the multipliers of ``conic._convex_qp`` and of
  ``oracle.first_order_certificate``.

Each returns the arrays numpy's wrapper returns, bit for bit, and where
the wrapper raises ``LinAlgError`` it returns NaN and sets the invalid
floating-point flag.  The failure rule: the oracle, ``nullspace_basis``,
``_least_squares`` and the ``conic`` sites call their handle under
``_lapack_errors()``, which turns that flag into ``LinAlgError`` as the
wrappers do; the kernels that call theirs bare (``_psd``, the
interior-point method, lifted-point validation) read the NaN instead and
fail their own checks: ``project_cone`` raises ``NonFinite``, the method
stops at MAX_ITER, and a NaN fails every validation test.

Public projections (``project_cone``, ``AffineProjector.apply``,
``FaceProjector.apply``) validate their input: shape, finiteness, and
symmetrization; ``project_cone`` also rejects a non-finite result.  The
kernels they share with the splitting loop (``_psd``, ``_nonneg``,
``_row0nonneg`` and ``FaceProjector.affine``) assume finite, symmetric,
correctly sized input and check nothing; the loop (which no solve runs any
more) checks finiteness once per iteration.
"""
from __future__ import annotations

import warnings

import numpy as np
from numpy.linalg import _umath_linalg

from .core import DNN, PSD0, LiftedProblem, _eigh, cone_violation  # noqa: F401 (re-exported)
from .errors import DegenerateConstraints, DimensionMismatch, NonFinite

#: Cone selectors for matrix projections.
PSD = "PSD"
NONNEG = "NONNEG"
ROW0NONNEG = "ROW0NONNEG"

#: Relative singular-value threshold deciding numerical rank.
RANK_TOL = 1e-10

#: LAPACK's full SVD driver behind ``numpy.linalg.svd(full_matrices=True)``:
#: with ``signature="d->ddd"`` it returns ``U``, the singular values and
#: ``V^T``, on stacks slice by slice, and NaNs where LAPACK does not
#: converge.
_svd = _umath_linalg.svd_f
#: The singular values alone, descending, behind
#: ``numpy.linalg.svd(compute_uv=False)``: called with ``signature="d->d"``
#: on a stack it returns one row per slice, and NaNs where LAPACK does not
#: converge.
_svdvals = _umath_linalg.svd
#: The least-squares driver behind ``numpy.linalg.lstsq``: with
#: ``signature="ddd->ddid"`` it returns the solution, the residuals, the
#: rank and the singular values; read through ``_least_squares``.
_lstsq = _umath_linalg.lstsq

_EPS = float(np.finfo(float).eps)


def _lapack_failed(err, flag):
    raise np.linalg.LinAlgError("LAPACK did not converge")


def _lapack_errors() -> np.errstate:
    """The context every raising LAPACK call runs under: a handle's invalid
    flag (its NaN where LAPACK fails) raises ``LinAlgError``."""
    return np.errstate(call=_lapack_failed, invalid="call")


def _least_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``numpy.linalg.lstsq(a, b, rcond=None)[0]`` for a float64 matrix ``a``
    and vector ``b``, bit for bit: the same driver at the same cutoff
    ``eps * max(m, n)``, and numpy's zero solution for a system with no
    rows, where the driver leaves its output unwritten."""
    m, n = a.shape
    with _lapack_errors():
        x = _lstsq(a, b[:, None], _EPS * max(m, n), signature="ddd->ddid")[0][:, 0]
    if m == 0:
        x[...] = 0.0
    return x


def _check_symmetric(m, name="matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFinite(f"{name} contains non-finite entries")
    return 0.5 * (m + m.T)


def nullspace_basis(a) -> np.ndarray:
    """Orthonormal basis of null(a) as an ``n x r`` matrix.

    Rank is decided by singular values above ``RANK_TOL`` times the largest one.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch("nullspace_basis expects a matrix")
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains non-finite entries")
    with _lapack_errors():
        _, s, vt = _svd(a, signature="d->ddd")
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > RANK_TOL * smax)) if smax > 0 else 0
    return vt[rank:].T.copy()


def _psd(m: np.ndarray) -> np.ndarray:
    # V diag(max(w, 0)) V^T as F F^T with F = V diag(sqrt(max(w, 0))):
    # numpy evaluates a @ a.T as a symmetric rank-k update, so the result
    # is exactly symmetric without a final symmetrization
    values, vectors = _eigh(m, signature="d->dd")
    vectors *= np.sqrt(np.maximum(values, 0.0))
    return vectors @ vectors.T


def _nonneg(m: np.ndarray) -> np.ndarray:
    return np.maximum(m, 0.0)


def _row0nonneg(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    out[0, :] = np.maximum(out[0, :], 0.0)
    out[:, 0] = out[0, :]
    return out


_CONE_KERNELS = {PSD: _psd, NONNEG: _nonneg, ROW0NONNEG: _row0nonneg}


def project_cone(m, cone: str) -> np.ndarray:
    """Frobenius-nearest point of a symmetric matrix in the selected cone.

    PSD clips negative eigenvalues, NONNEG clips negative entries, and
    ROW0NONNEG clips negative entries of the 0th row and column only.
    Raises ``NonFinite`` for a non-finite input, and for a non-finite
    result, which is how an unconverged eigensolve shows.
    """
    m = _check_symmetric(m)
    if cone not in _CONE_KERNELS:
        raise ValueError(f"unknown projection cone {cone!r}")
    out = _CONE_KERNELS[cone](m)
    if not np.isfinite(out).all():
        raise NonFinite(f"{cone} projection is non-finite: the eigensolver did not converge")
    return out


class AffineProjector:
    """Orthogonal projector onto an affine slice of the symmetric matrices.

    The slice is ``{Y : <G_i, Y> = r_i for all i}`` with symmetric G_i.  The
    projection subtracts the least-norm combination of the G_i that restores
    the constraints; with a rank-deficient Gram matrix a pseudoinverse is
    used and the projector is flagged degenerate.
    """

    def __init__(self, constraints, rhs, order: int):
        self.order = order
        mats = [_check_symmetric(g, "constraint matrix") for g in constraints]
        if any(g.shape != (order, order) for g in mats):
            raise DimensionMismatch("constraint matrices must match the projector order")
        self.matrices = tuple(mats)
        self.rhs = np.asarray(rhs, dtype=float)
        self._basis = np.array([g.ravel() for g in mats])  # k x order^2
        self._rhs = self.rhs
        if self._rhs.shape != (len(mats),):
            raise DimensionMismatch("one right-hand side per constraint matrix is required")
        gram = self._basis @ self._basis.T
        k = gram.shape[0]
        rank = int(np.linalg.matrix_rank(gram, tol=RANK_TOL * max(1.0, float(np.abs(gram).max()))))
        self.degenerate = rank < k
        if self.degenerate:
            warnings.warn(
                "affine constraint system is numerically singular; "
                "using least-norm correction",
                DegenerateConstraints,
                stacklevel=2,
            )
        self._gram_pinv = np.linalg.pinv(gram, rcond=1e-12)

    def apply(self, m) -> np.ndarray:
        """Project a symmetric matrix onto the affine slice."""
        m = _check_symmetric(m)
        if m.shape != (self.order, self.order):
            raise DimensionMismatch(f"expected order {self.order}, got {m.shape}")
        violation = self._basis @ m.ravel() - self._rhs
        correction = self._gram_pinv @ violation
        out = m - (self._basis.T @ correction).reshape(self.order, self.order)
        return 0.5 * (out + out.T)


class FaceProjector:
    """Projector onto an affine slice of the face ``{V S V^T}``.

    For a positive semidefinite Y the lifted constraint ``rows Y = 0`` is
    equivalent to range(Y) lying in null(rows); restricting to that face
    removes the constraint that would otherwise destroy strict
    feasibility.  The projection of M is
    ``V P(V^T M V) V^T`` where P is the affine projection in the reduced
    space: for an orthonormal V this is the Frobenius-nearest point of the
    sliced face.

    For symmetric M the same map reads, in the full space,
    ``Pi M Pi - sum_i y_i H_i`` with ``Pi = V V^T``, lifted constraints
    ``H_i = V G_i V^T`` and ``y = Gram^+ (<H_i, M> - r_i)``; ``affine``
    evaluates this form.  With at most k reduced constraints it takes
    O(k^3) work per call and O(k^3) storage, where a dense ``(k^2, k^2)``
    matrix for the same affine map would take O(k^4) in both.
    """

    def __init__(self, basis: np.ndarray, reduced_constraints, reduced_rhs):
        self.basis = np.asarray(basis, dtype=float)
        self.order = self.basis.shape[0]
        self.rank = self.basis.shape[1]
        if self.rank == 0:
            # trivial face: the only member is the zero matrix
            self.reduced = None
            self.matrices = ()
            self.rhs = np.zeros(0)
            self.degenerate = False
            k = self.order
            self._range = np.zeros((k, k))
            self._lifted = self._weights = np.zeros((0, k * k))
            self._offset = np.zeros(0)
            return
        self.reduced = AffineProjector(reduced_constraints, reduced_rhs, self.rank)
        self.matrices = self.reduced.matrices
        self.rhs = self.reduced.rhs
        self.degenerate = self.reduced.degenerate
        v = self.basis
        k = self.order
        h = v @ np.array(self.matrices) @ v.T
        # Pi, the rows vec(H_i), and Gram^+ applied to them and to r
        self._range = v @ v.T
        self._lifted = (0.5 * (h + h.transpose(0, 2, 1))).reshape(len(h), k * k)
        self._weights = self.reduced._gram_pinv @ self._lifted
        self._offset = self.reduced._gram_pinv @ self.rhs

    def affine(self, m: np.ndarray) -> np.ndarray:
        """The projection of a finite symmetric ``k x k`` matrix, unchecked."""
        p = self._range
        y = self._weights @ m.ravel() - self._offset
        out = p @ m @ p - (y @ self._lifted).reshape(self.order, self.order)
        return 0.5 * (out + out.T)

    def apply(self, m) -> np.ndarray:
        m = _check_symmetric(m)
        if m.shape != (self.order, self.order):
            raise DimensionMismatch(f"expected order {self.order}, got {m.shape}")
        return self.affine(m)


def build_affine_projector(lp: LiftedProblem) -> FaceProjector:
    """Face-restricted projector for the lifted relaxation constraints.

    Enforces range(Y) in null(rows) (equivalent to ``rows Y = 0`` for
    positive semidefinite Y) and ``Y[0,0] = 1``.
    """
    basis = nullspace_basis(lp.rows)  # the face null(rows) carrying all feasible Y
    v0 = basis[0]
    return FaceProjector(basis, [np.outer(v0, v0)], [1.0])


def cone_projection_for(cone: str):
    """The pair of factor projections whose intersection is the cone.

    These are the unchecked kernels: inputs must be finite and symmetric.
    """
    if cone == DNN:
        return (_psd, _nonneg)
    if cone == PSD0:
        return (_psd, _row0nonneg)
    raise ValueError(f"unknown cone selector {cone!r}")
