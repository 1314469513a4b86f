"""Instance model, objective evaluation, lifting, and lifted-point checks.

The problem class is minimization of ``x^T Q x + 2 c^T x`` over the
polyhedron ``{x : A x = b, x >= 0}``.  Lifted objects live in the space of
symmetric ``(n+1) x (n+1)`` matrices whose rows and columns are labelled
``0..n``; row 0 is the homogenization row and entries ``1..n`` carry the
original variables.  Variable labels in reports and index sets are 1-based
to match that layout.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    AsymmetricQ,
    DimensionMismatch,
    InfeasibleMixturePoint,
    NegativeComponent,
    NonFinite,
    ParseError,
    RayNotInRecessionCone,
    WeightsNotSimplex,
)

#: Scaled feasibility tolerance: ``x`` is feasible when
#: ``|A x - b|_inf <= FEAS_TOL * (1 + |b|_inf)`` and ``x >= -FEAS_TOL``.
FEAS_TOL = 1e-8

#: Scaled curvature tolerance: Q counts as positive semidefinite on a
#: subspace (null(A), a recession ray, a face) when its least curvature
#: there is at least ``-curvature_tolerance(Q)``.
TOL_CURVATURE = 1e-9

#: Cone selectors for the lifted relaxations.  DNN is the doubly nonnegative
#: cone (positive semidefinite and entrywise nonnegative); PSD0 is the cone
#: of positive semidefinite matrices with a nonnegative 0th row and column.
DNN = "DNN"
PSD0 = "PSD0"
CONES = (DNN, PSD0)

#: The LAPACK gufuncs of ``numpy.linalg.eigvalsh`` (``signature="d->d"``) and
#: ``numpy.linalg.eigh`` (``signature="d->dd"``): the same arrays, and NaN where those raise
_eigvalsh = _umath_linalg.eigvalsh_lo
_eigh = _umath_linalg.eigh_lo


def _frozen_array(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class QpInstance:
    """A quadratic program ``min x^T Q x + 2 c^T x  s.t.  A x = b, x >= 0``.

    Immutable after construction; all arrays are read-only float64.
    """

    n: int
    m: int
    Q: np.ndarray
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    name: str = "instance"

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DimensionMismatch(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")
        object.__setattr__(self, "Q", _frozen_array(self.Q))
        object.__setattr__(self, "c", _frozen_array(self.c))
        object.__setattr__(self, "A", _frozen_array(self.A))
        object.__setattr__(self, "b", _frozen_array(self.b))
        if self.Q.shape != (self.n, self.n):
            raise DimensionMismatch(f"Q has shape {self.Q.shape}, expected {(self.n, self.n)}")
        if self.c.shape != (self.n,):
            raise DimensionMismatch(f"c has shape {self.c.shape}, expected {(self.n,)}")
        if self.A.shape != (self.m, self.n):
            raise DimensionMismatch(f"A has shape {self.A.shape}, expected {(self.m, self.n)}")
        if self.b.shape != (self.m,):
            raise DimensionMismatch(f"b has shape {self.b.shape}, expected {(self.m,)}")
        for label, arr in (("Q", self.Q), ("c", self.c), ("A", self.A), ("b", self.b)):
            if not np.isfinite(arr).all():
                raise NonFinite(f"{label} contains non-finite entries")
        if not np.array_equal(self.Q, self.Q.T):
            raise AsymmetricQ("Q must equal its transpose entrywise as stored")


@dataclass(frozen=True, eq=False)
class LiftedProblem:
    """Objective and constraint data of the lifted conic relaxation.

    ``qhat`` carries the quadratic objective, symmetric of order ``n + 1``.
    ``rows`` is the ``m x (n + 1)`` matrix ``[b, -A]``: a positive
    semidefinite Y satisfies the lifted constraint ``<rows^T rows, Y> = 0``
    exactly when ``rows Y = 0``.  Both are the same for every cone.
    """

    qhat: np.ndarray
    rows: np.ndarray
    n: int

    def __post_init__(self):
        object.__setattr__(self, "qhat", _frozen_array(self.qhat))
        object.__setattr__(self, "rows", _frozen_array(self.rows))
        k = self.n + 1
        if self.qhat.shape != (k, k) or self.rows.ndim != 2 or self.rows.shape[1] != k:
            raise DimensionMismatch("qhat must be (n+1) x (n+1) and rows have n+1 columns")


@dataclass(frozen=True, eq=False)
class LiftedPoint:
    """A symmetric ``(n+1) x (n+1)`` candidate or solution matrix.

    ``x`` is the extracted candidate point, the 0th row without the corner.
    """

    y: np.ndarray
    x: np.ndarray = field(init=False)

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        if y.ndim != 2 or y.shape[0] != y.shape[1] or y.shape[0] < 2:
            raise DimensionMismatch(f"lifted point must be square of order >= 2, got {y.shape}")
        if not np.isfinite(y).all():
            raise NonFinite("lifted point contains non-finite entries")
        y = 0.5 * (y + y.T)
        y.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", y[0, 1:])

    @property
    def n(self) -> int:
        return self.y.shape[0] - 1

    @property
    def X(self) -> np.ndarray:
        """The lower-right ``n x n`` block standing in for ``x x^T``."""
        return self.y[1:, 1:]


@dataclass(frozen=True)
class IndexSets:
    """Partition of the 1-based variable labels into positive and zero parts."""

    positive: tuple[int, ...]
    zero: tuple[int, ...]
    tolerance: float


@dataclass(frozen=True, eq=False)
class MixtureCertificate:
    """Convex combination of feasible points plus recession rays.

    Encodes ``Y = sum_j w_j [1; x^j][1; x^j]^T + sum_j [0; d^j][0; d^j]^T``.
    """

    weights: np.ndarray
    points: tuple[np.ndarray, ...]
    rays: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        object.__setattr__(self, "points", tuple(_frozen_array(p) for p in self.points))
        object.__setattr__(self, "rays", tuple(_frozen_array(d) for d in self.rays))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the lifted-point feasibility decomposition checks.

    ``corner_ok``      the (0, 0) entry equals 1;
    ``x_feasible``     the extracted x satisfies ``Ax = b, x >= 0``;
    ``delta_psd``      ``X - x x^T`` is positive semidefinite;
    ``delta_nullspace``every column of ``X - x x^T`` lies in null(A);
    ``cone_ok``        membership of Y in the requested cone;
    ``ok``             all five hold.
    """

    corner_ok: bool
    x_feasible: bool
    delta_psd: bool
    delta_nullspace: bool
    cone_ok: bool
    corner_error: float
    feasibility_error: float
    delta_min_eigenvalue: float
    nullspace_residual: float
    cone_violation: float
    tolerance: float
    cone: str
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok", self.corner_ok and self.x_feasible and self.delta_psd
                           and self.delta_nullspace and self.cone_ok)


# ---------------------------------------------------------------------------
# serialization


_INSTANCE_FIELDS = ("name", "n", "m", "Q", "c", "A", "b")


def load_instance(path, symmetrize: bool = False) -> QpInstance:
    """Load an instance from its JSON file format.

    The schema is ``{"name": str, "n": int, "m": int, "Q": [[num]],
    "c": [num], "A": [[num]], "b": [num]}`` with row-major matrices.  With
    ``symmetrize`` a non-symmetric Q is replaced by ``(Q + Q^T) / 2`` and a
    warning is issued; otherwise asymmetry is an error.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot parse instance file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"instance file {path} must contain a JSON object")
    missing = [k for k in _INSTANCE_FIELDS if k not in raw]
    if missing:
        raise ParseError(f"instance file {path} misses fields: {', '.join(missing)}")
    try:
        Q = np.array(raw["Q"], dtype=float)
        c = np.array(raw["c"], dtype=float)
        A = np.array(raw["A"], dtype=float)
        b = np.array(raw["b"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"non-numeric data in instance file {path}: {exc}") from exc
    if symmetrize and Q.ndim == 2 and Q.shape[0] == Q.shape[1] and not np.array_equal(Q, Q.T):
        warnings.warn(f"instance {raw['name']!r}: Q symmetrized as (Q + Q^T) / 2", stacklevel=2)
        Q = 0.5 * (Q + Q.T)
    return QpInstance(n=int(raw["n"]), m=int(raw["m"]), Q=Q, c=c, A=A, b=b, name=str(raw["name"]))


def jsonable(x):
    """``x`` made ready for ``json.dumps``: a dataclass instance becomes the
    object of its fields, numpy arrays and scalars become Python lists,
    numbers and bools, tuples become lists, and non-finite floats become the
    strings ``"inf"``, ``"-inf"`` and ``"nan"``, recursively."""
    if isinstance(x, (float, np.floating)):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return float(x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, np.ndarray):
        return jsonable(x.tolist())
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


def save_instance(inst: QpInstance, path) -> None:
    """Write ``inst`` in the schema of ``load_instance``, as ``jsonable`` renders it."""
    Path(path).write_text(json.dumps(jsonable(inst), indent=2) + "\n")


def load_vector(path) -> np.ndarray:
    """Load a plain vector file ``{"x": [num, ...]}``."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
        return np.array(raw["x"], dtype=float)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"cannot parse vector file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# basic operations


def curvature_tolerance(Q) -> float:
    """``TOL_CURVATURE * max(1, |Q|_max)``: every curvature test counts a
    curvature of Q at or above minus this as nonnegative, and one of
    magnitude at most this as zero."""
    return TOL_CURVATURE * max(1.0, float(np.abs(Q).max(initial=0.0)))


def slope_tolerance(Q, c) -> float:
    """``TOL_CURVATURE * (max(1, |Q|_max) + |c|_max)``: a ray of zero
    curvature descends when the slope of q along it is below minus this."""
    return TOL_CURVATURE * (max(1.0, float(np.abs(Q).max(initial=0.0)))
                            + float(np.abs(c).max(initial=0.0)))


def _check_point(inst: QpInstance, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.n,):
        raise DimensionMismatch(f"point has shape {x.shape}, expected {(inst.n,)}")
    if not np.isfinite(x).all():
        raise NonFinite("point contains non-finite entries")
    return x


def evaluate_objective(inst: QpInstance, x) -> float:
    """Evaluate ``x^T Q x + 2 c^T x``."""
    x = _check_point(inst, x)
    return float(x @ inst.Q @ x + 2.0 * inst.c @ x)


def feasibility_residual(inst: QpInstance, x) -> float:
    """Scaled constraint violation: max of the equality and sign residuals.

    Zero means feasible at tolerance 0; compare against FEAS_TOL-style
    thresholds scaled by ``1 + |b|_inf``.
    """
    x = _check_point(inst, x)
    bscale = 1.0 + float(np.abs(inst.b).max())
    eq = float(np.abs(inst.A @ x - inst.b).max()) / bscale
    sign = max(0.0, float(-(x.min()))) if inst.n else 0.0
    return max(eq, sign)


def is_feasible(inst: QpInstance, x, tol: float = FEAS_TOL) -> bool:
    return feasibility_residual(inst, x) <= tol


def in_recession_cone(inst: QpInstance, d) -> bool:
    """Membership of d in ``{d : A d = 0, d >= 0}`` at the scaled tolerance."""
    d = _check_point(inst, d)
    dscale = 1.0 + float(np.abs(d).max())
    ascale = 1.0 + float(np.abs(inst.A).max())
    if float(np.abs(inst.A @ d).max()) > FEAS_TOL * dscale * ascale:
        return False
    return float(d.min()) >= -FEAS_TOL * dscale


def lift_instance(inst: QpInstance) -> LiftedProblem:
    """Assemble the lifted objective and constraint of the conic relaxation,
    the same for every cone.

    ``qhat`` has zero corner, c on the borders and Q inside; ``rows`` is
    ``[b, -A]``.
    """
    n = inst.n
    qhat = np.zeros((n + 1, n + 1))
    qhat[0, 1:] = inst.c
    qhat[1:, 0] = inst.c
    qhat[1:, 1:] = inst.Q
    rows = np.concatenate((inst.b[:, None], -inst.A), axis=1)
    return LiftedProblem(qhat=qhat, rows=rows, n=n)


def index_sets(x, tol: float = 1e-9) -> IndexSets:
    """Split 1-based labels of a nonnegative vector into positive and zero sets.

    Components strictly above ``tol`` are positive, the rest are zero; any
    component below ``-tol`` is rejected.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch("index_sets expects a vector")
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    if x.size and float(x.min()) < -tol:
        raise NegativeComponent(f"component {int(x.argmin()) + 1} is below -tol")
    positive = tuple(int(j) + 1 for j in np.flatnonzero(x > tol))
    zero = tuple(j for j in range(1, x.size + 1) if j not in set(positive))
    return IndexSets(positive=positive, zero=zero, tolerance=tol)


def cone_violation(point: LiftedPoint | np.ndarray, cone: str) -> float:
    """Worst violation of cone membership, in absolute terms: the negative
    parts of the least eigenvalue and of the entries the cone signs (every
    entry for DNN, the 0th row for PSD0); NaN if the eigensolve fails."""
    if cone not in CONES:
        raise ValueError(f"unknown cone selector {cone!r}")
    if not isinstance(point, LiftedPoint):
        point = LiftedPoint(point)
    y = point.y
    least = float(_eigvalsh(y, signature="d->d")[0])
    if math.isnan(least):
        return math.nan
    return max(0.0, -least, -float((y if cone == DNN else y[0]).min()))


def validate_lifted_point(
    inst: QpInstance,
    point: LiftedPoint | np.ndarray,
    tol: float = 1e-7,
    cone: str = DNN,
) -> ValidationReport:
    """Check a lifted point against the feasibility decomposition.

    A feasible lifted point has unit corner, a feasible extracted x, and a
    positive semidefinite ``X - x x^T`` whose columns lie in null(A); cone
    membership is checked for the requested selector.  All comparisons use
    ``tol`` scaled by the data magnitude.
    """
    if cone not in CONES:
        raise ValueError(f"unknown cone selector {cone!r}")
    if not isinstance(point, LiftedPoint):
        point = LiftedPoint(point)
    if point.n != inst.n:
        raise DimensionMismatch(f"lifted point order {point.n + 1} does not match n={inst.n}")
    y = point.y
    x = point.x
    yscale = max(1.0, float(np.abs(y).max()))

    corner_error = abs(float(y[0, 0]) - 1.0)
    corner_ok = corner_error <= tol

    feas_err = feasibility_residual(inst, x)
    x_feasible = feas_err <= tol

    delta = point.X - np.outer(x, x)
    delta = 0.5 * (delta + delta.T)
    dscale = max(1.0, float(np.abs(delta).max()))
    delta_min_eig = float(_eigvalsh(delta, signature="d->d")[0])
    # a cone violation of eps on Y can push the Schur block down by
    # eps * (1 + |x|^2), so the PSD threshold carries that factor
    delta_psd = delta_min_eig >= -tol * max(dscale, 1.0 + float(x @ x))

    resid = inst.A @ delta
    ns_resid = math.sqrt(np.vdot(resid, resid)) / (
        (1.0 + math.sqrt(np.vdot(inst.A, inst.A))) * dscale)
    delta_nullspace = ns_resid <= tol

    violation = cone_violation(point, cone)
    cone_ok = violation <= tol * yscale

    return ValidationReport(
        corner_ok=corner_ok,
        x_feasible=x_feasible,
        delta_psd=delta_psd,
        delta_nullspace=delta_nullspace,
        cone_ok=cone_ok,
        corner_error=corner_error,
        feasibility_error=feas_err,
        delta_min_eigenvalue=delta_min_eig,
        nullspace_residual=ns_resid,
        cone_violation=violation,
        tolerance=tol,
        cone=cone,
    )


def construct_lifted_from_mixture(inst: QpInstance, mix: MixtureCertificate) -> LiftedPoint:
    """Assemble the lifted point encoded by a mixture certificate.

    Validates the certificate: weights on the unit simplex, every point
    feasible, every ray in the recession cone.
    """
    w = np.asarray(mix.weights, dtype=float)
    if len(mix.points) != w.size:
        raise DimensionMismatch("one weight per mixture point is required")
    if w.size == 0:
        raise WeightsNotSimplex("a mixture needs at least one point")
    wscale = max(1.0, float(np.abs(w).sum()))
    if float(w.min()) < -FEAS_TOL or abs(float(w.sum()) - 1.0) > FEAS_TOL * wscale:
        raise WeightsNotSimplex(f"weights {w.tolist()} are not a convex combination")
    for k, p in enumerate(mix.points):
        p = _check_point(inst, p)
        if not is_feasible(inst, p):
            raise InfeasibleMixturePoint(
                f"mixture point {k} violates the constraints "
                f"(residual {feasibility_residual(inst, p):.3e})"
            )
    for k, d in enumerate(mix.rays):
        d = _check_point(inst, d)
        if not in_recession_cone(inst, d):
            raise RayNotInRecessionCone(f"ray {k} is not a recession direction")
    y = np.zeros((inst.n + 1, inst.n + 1))
    for wk, p in zip(w, mix.points):
        v = np.concatenate(([1.0], p))
        y += wk * np.outer(v, v)
    for d in mix.rays:
        v = np.concatenate(([0.0], d))
        y += np.outer(v, v)
    return LiftedPoint(y)
