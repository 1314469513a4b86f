"""Ground-truth engine: exact global quadratic minimization over polyhedra.

The core is exhaustive face enumeration.  If q is bounded below on
``P = {A x = b, x >= 0}``, it attains its minimum there (Frank & Wolfe
1956), and some minimizer is a vertex or the stationary point of a face
whose reduced Hessian ``Z_F^T Q_FF Z_F`` (``Z_F`` spanning null(A_F)) is
positive definite.  Take a minimizer with support F: q is constant on the
stationary set T of the affine hull of F, and ``T ∩ P`` has an extreme
point y; a kernel vector of the reduced Hessian of y's support would be a
direction of T, supported there, that contradicts y being extreme.  So the
candidates are the vertices and the one stationary point of each positive
definite face; a face whose reduced Hessian is singular or indefinite gives
none.  The recession cone is analyzed first (``recession_analysis``, then
the ray test ``ray_witness``) so that unbounded problems are flagged
instead of silently returning a wrong finite value.  The flag is a
``RayCertificate``, and ``global_solve`` reads UNBOUNDED_BELOW only when
``verify_ray_certificate`` accepts it.

The faces are solved in groups, not one by one (``_face_candidates``): the
patterns are grouped by their number of free variables, and each group is
cut into slices of at most ``FACE_SLICE`` faces.  The grouping depends on
``n`` alone, so it is built once per ``n``, read-only, and kept for every
``n`` (``_plan``: per group the patterns, their free columns and their
subfaces with one variable fewer free).  It is built only after
``_face_patterns`` accepts ``n <= enum_cap()``, so the plans a process
holds are bounded.  Their arrays are numpy's index type ``intp``, which
the face walk indexes with as they are (a smaller type would be cast on
every group visit): ``8 (2^n - 1) + 8 n 2^n`` bytes per ``n`` on a 64-bit
platform, 8 912 888 B at the cap ``n = 16``, 16 777 088 B for every ``n``
up to it, and 32 344 B for the corpus's ``n = 4 .. 8``.  A slice takes
one stacked SVD, which gives both the min-norm points and the null-space
bases, then one stacked eigensolve of the reduced Hessians per null-space
dimension.
The positive definiteness and sign tests run as masks over the whole
slice.  Each face writes its candidate into its own row of one
``(2^n, n)`` table, whose marked rows are the candidates in pattern order.
Every member of a stack is the matrix that face alone would pass to
LAPACK, so neither grouping nor slicing changes a result; the slices bound
the engine's memory at the cap.

Every face of the standard simplex ``{e^T x = 1, x >= 0}`` with ``f``
free variables has the constraint row ``e^T`` of length ``f``, so its
affine-hull geometry (the SVD, min-norm point and null-space basis) is one
per group.  ``_simplex_hulls(n)`` builds it once per ``n`` and keeps it
beside the plan, and ``simplex_minimum``, the copositivity test of
``global_solve`` and ``analysis.check_copositivity_desk_scale``, reads it
instead of one SVD per face; the generic enumeration gives the same bits.

A face is positive definite when the least eigenvalue of its reduced
Hessian is above ``1e-10`` times its own scale, the largest eigenvalue
modulus or 1.  A face that fails this test is flagged, and so is, without
a solve, every face that contains a flagged face: the groups run by
increasing number of free variables, so all subfaces are decided first.
The skip is exact.  If the free set of F lies in that of G, null(A_F),
padded with zeros, lies in null(A_G), so by Cauchy interlacing the least
reduced eigenvalue of G is at most that of F and its largest modulus, so
its scale, is at least F's.  G then fails its own test and could not give
a candidate; one test decides both.

Basic feasible points are found the same way: the column subsets of size
rank(A) are solved in stacks, one SVD per stack (``_basic_solutions``),
each member the matrix ``numpy.linalg`` would receive for that subset.
The ray test of an unbounded polyhedron starts from its basic feasible
points; a caller that has enumerated them already passes the list as the
keyword ``vertices`` of ``global_solve`` or
``minimize_quad_over_polytope``, so ``report.compare_report`` enumerates
each instance once; it hands the same list, and the ``rays`` of the
recession analysis, to the relaxations, whose feasible point is the
list's first point and whose DNN search starts from the rays' mean.  A
LAPACK failure, in the faces or in the bases, raises
``numpy.linalg.LinAlgError`` as numpy's own wrappers do.

Every enumeration is capped at ``2 ** enum_cap()`` members (``enum_cap()``
is 16 unless the QPRELAX_ENUM_CAP environment variable says otherwise),
checked before the work it bounds: ``_basic_feasible_iter`` refuses more
column subsets, and ``minimize_quad_over_polytope`` more face patterns,
that is ``n > enum_cap()`` variables.  Both raise ``DeskScaleLimit``.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (
    FEAS_TOL,
    QpInstance,
    curvature_tolerance,
    feasibility_residual,
    in_recession_cone,
    index_sets,
    slope_tolerance,
)
from .errors import DeskScaleLimit, DimensionMismatch, NonFinite, PointInfeasible
from .numerics import RANK_TOL, _eigh, _lapack_errors, _least_squares, _svd, _svdvals

ORACLE_OPTIMAL = "OPTIMAL"
ORACLE_INFEASIBLE = "INFEASIBLE"
ORACLE_UNBOUNDED = "UNBOUNDED_BELOW"
ORACLE_INCONCLUSIVE = "INCONCLUSIVE"

DEFAULT_ENUM_CAP = 16

_TOL_EQ = 1e-8
_TOL_BOUND = 1e-9
_DEDUP_DECIMALS = 8

#: Faces of one free-set group, and column subsets of one basic-solution
#: stack, solved per stacked call; the cap bounds the memory of one call.
#: The corpus (n <= 8) never reaches it; at the n = 16 cap the largest
#: group has 12 870 faces before those containing a face that is not
#: positive definite are skipped.
FACE_SLICE = 2048


def enum_cap() -> int:
    """The enumeration cap: QPRELAX_ENUM_CAP, else ``DEFAULT_ENUM_CAP``.

    The base-2 logarithm of the largest enumeration allowed, of column
    subsets or of face patterns; not a limit on ``n`` itself.  The one
    place the variable is read.  Raises ValueError unless it is unset or a
    nonnegative integer.
    """
    raw = os.environ.get("QPRELAX_ENUM_CAP")
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        value = int(raw)
    except ValueError:
        pass
    else:
        if value >= 0:
            return value
    raise ValueError(f"QPRELAX_ENUM_CAP must be a nonnegative integer, got {raw!r}")


@dataclass(frozen=True)
class RecessionReport:
    """Curvature analysis of the recession cone ``{A d = 0, d >= 0}``.

    ``min_curvature`` is the exact minimum of ``d^T Q d`` over the recession
    directions normalized to the unit simplex (+inf when the cone is
    trivial); ``zero_directions`` samples normalized directions of zero
    curvature; ``rays`` are the extreme normalized directions.
    ``tolerance`` is ``core.curvature_tolerance(Q)``, the one the
    curvatures were compared at.
    """

    l_nontrivial: bool
    min_curvature: float
    neg_direction: Optional[np.ndarray]
    zero_directions: tuple[np.ndarray, ...]
    tolerance: float
    rays: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class OracleResult:
    """Exact minimization outcome.

    ``value`` is the optimal value with +inf / -inf sentinels for infeasible
    and unbounded problems; ``minimizers`` holds the optimal vertices and
    stationary points of positive definite faces, which sample the optimal
    set (a face of optimal points is represented by its extreme points); the
    ``certified`` flag records whether the verdict is proved.  A -inf value
    carries its ``ray`` of descent, uncertified until ``global_solve``
    adds its raw-data ``ray_check``.
    ``recession`` is the analysis of the recession cone ``{A d = 0, d >= 0}``.
    """

    value: float
    minimizers: tuple[np.ndarray, ...]
    attained: bool
    faces_explored: int
    status: str
    certified: bool = True
    ray: Optional[RayCertificate] = None
    ray_check: Optional[RayCheck] = None
    recession: Optional[RecessionReport] = None


@dataclass(frozen=True)
class KktCertificate:
    """First-order multipliers at a candidate point.

    ``s`` is forced to zero on the positive support; residuals are the
    stationarity, sign, and complementarity violations.
    """

    y: np.ndarray
    s: np.ndarray
    stationarity_residual: float
    min_multiplier: float
    complementarity_residual: float


@dataclass(frozen=True)
class RayCertificate:
    """A feasible point ``x0`` and a recession direction ``d``, ``e^T d = 1``,
    along which q decreases without bound: ``d^T Q d < 0``, or
    ``d^T Q d = 0`` and a negative slope ``(Q x0 + c)^T d``."""

    x0: np.ndarray
    d: np.ndarray


@dataclass(frozen=True)
class RayCheck:
    """Re-verification of a ``RayCertificate`` from raw instance data;
    ``tolerance`` is the curvature tolerance ``core.curvature_tolerance(Q)``."""

    ok: bool
    feasibility_residual: float
    recession_direction: bool
    normalization_error: float
    curvature: float
    slope: float
    tolerance: float


@dataclass(frozen=True)
class LocalMinVerdict:
    is_local_min: bool
    kkt: Optional[KktCertificate]
    second_order_min: float


# ---------------------------------------------------------------------------
# basic feasible point enumeration


def basic_feasible_points(A, b):
    """All basic feasible solutions of ``{A x = b, x >= 0}``, deduplicated.

    Enumerates column subsets of size rank(A); a nonempty result is
    equivalent to feasibility of the system, and for bounded systems the
    result is the vertex set.
    """
    return list(_basic_feasible_iter(A, b, FACE_SLICE))


def _basic_feasible_iter(A, b, stack: int):
    """Generator behind ``basic_feasible_points``: one stack of column subsets at a time.

    The subsets are taken in ``itertools.combinations`` order, ``stack`` of
    them first, then twice as many per stack up to ``FACE_SLICE``; each
    stack is solved in one call of ``_basic_solutions``.  A point is yielded
    once its stack is solved, so ``_feasible_point``, which starts at one
    subset and takes only the first point, examines
    ``(1 << p.bit_length()) - 1`` subsets, capped at their number, when the
    first feasible basis is the ``p``-th.  Input errors and
    ``DeskScaleLimit`` are raised when the first point is requested, before
    any subset is examined.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise DimensionMismatch("basic_feasible_points expects A (m x n) and b (m,)")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise NonFinite("non-finite constraint data")
    n = A.shape[1]
    with _lapack_errors():
        tol, smax, rank = _system_ranks(A, b)

    if rank == 0:
        if float(np.abs(b).max(initial=0.0)) <= tol:
            yield np.zeros(n)
        return

    count, cap = math.comb(n, rank), enum_cap()
    if count > 1 << cap:
        raise DeskScaleLimit(
            f"{count} column subsets exceed the enumeration cap 2^{cap} (QPRELAX_ENUM_CAP)")

    seen = set()
    subsets = itertools.combinations(range(n), rank)
    while part := list(itertools.islice(subsets, stack)):
        with _lapack_errors():
            points, ok = _basic_solutions(A, b, np.array(part), smax, tol)
        yield from _first_occurrences(points[ok], seen)
        stack = min(2 * stack, FACE_SLICE)


def _first_occurrences(rows, seen: set):
    """The rows (a table, or a list of equal-length points) whose rounding
    to ``_DEDUP_DECIMALS`` decimals is not in ``seen``, in order, each
    adding its key.  All rows are rounded in one call; Python floats hash
    and compare as the ``float64`` scalars do, so the same rows survive as
    when each row is rounded alone."""
    for x, key in zip(rows, np.round(rows, _DEDUP_DECIMALS).tolist()):
        key = tuple(key)
        if key not in seen:
            seen.add(key)
            yield x


def _feasible_point(A, b) -> Optional[np.ndarray]:
    """The first basic feasible point of ``{A x = b, x >= 0}``, or None.

    The emptiness test of a solve that has no enumeration to read: its
    stacks of column subsets start at one and double, so it stops within
    twice the position of the first feasible basis instead of enumerating
    them all, and only an empty system costs every column subset.  It is
    the first point of ``basic_feasible_points(A, b)``, bit for bit, so a
    caller holding that list (``report.compare_report`` hands the instance's
    vertices and the recession rays of ``recession_analysis`` to the
    relaxations) takes its first point instead.
    """
    return next(_basic_feasible_iter(A, b, 1), None)


def _system_scale(A, b):
    """The feasibility scale ``1 + |b|_max + |A|_max`` of the system ``{A x = b}``."""
    return 1.0 + np.abs(b).max(initial=0.0) + np.abs(A).max(initial=0.0)


def _feasibility_tol(A, b):
    """``_TOL_EQ * _system_scale(A, b)``: every basic point, face and
    emptiness test, here and in ``conic``, accepts a point of
    ``{A x = b, x >= 0}`` within it (ranks are decided at ``RANK_TOL``)."""
    return _TOL_EQ * _system_scale(A, b)


def _system_ranks(A, b):
    """The feasibility tolerance (``_feasibility_tol``), the largest
    singular value and the numerical rank (singular values above
    ``RANK_TOL`` times the largest) of the system ``{A x = b}``."""
    svals = _svdvals(A, signature="d->d")
    smax = svals[0] if svals.size else 0.0
    return _feasibility_tol(A, b), smax, int((svals > RANK_TOL * smax).sum())


def _basic_solutions(A, b, subsets, smax, tol):
    """The basic solutions of ``{A x = b}`` on a stack of column subsets,
    and the mask of the feasible ones.

    Row ``i`` solves the system on the columns ``subsets[i]``; ``smax`` and
    ``tol`` are the system's largest singular value and feasibility
    tolerance.  One stacked SVD drops the linearly dependent bases and
    gives the solutions of the others; a solution is feasible when it
    solves the system and is nonnegative, both within ``tol``.  Every slice
    is built and solved the same way whatever the stack, so stacking
    changes no bit.  A LAPACK failure shows as a NaN with the invalid flag
    set, which the caller's ``numpy.errstate`` turns into an error.
    """
    k, rank = subsets.shape
    sub = A.T[subsets].transpose(0, 2, 1)
    r = b[None, :, None]
    u, s, vt = _svd(sub, signature="d->ddd")
    ok = s[:, -1] > RANK_TOL * max(smax, 1e-300)
    coef = np.divide(u[:, :, :rank].transpose(0, 2, 1) @ r, s[:, :, None],
                     out=np.zeros((k, rank, 1)), where=ok[:, None, None])
    xb = vt.transpose(0, 2, 1) @ coef
    ok &= (np.abs(sub @ xb - r).max(axis=(1, 2)) <= tol) & (xb.min(axis=(1, 2)) >= -tol)
    x = np.zeros((k, A.shape[1]))
    x[np.arange(k)[:, None], subsets] = np.maximum(xb[:, :, 0], 0.0)
    return x, ok


def enumerate_vertices(inst: QpInstance):
    """Basic feasible solutions of the instance polyhedron, in stacks of
    ``FACE_SLICE`` column subsets (``basic_feasible_points``)."""
    return basic_feasible_points(inst.A, inst.b)


# ---------------------------------------------------------------------------
# face enumeration engine


def _split_by(keys: np.ndarray, size: int) -> list[np.ndarray]:
    """Positions of ``keys`` grouped by value ``0 .. size-1``, ascending in each."""
    return [np.flatnonzero(keys == v) for v in range(size)]


def _nonnegative(xF: np.ndarray, tol: float) -> np.ndarray:
    """Row mask of ``xF >= -tol``."""
    return xF.min(axis=1, initial=0.0) >= -tol


@lru_cache(maxsize=None)
def _plan(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The face patterns of ``n`` variables with a free variable, grouped
    for ``_face_candidates``.

    A pattern's index reads its variables as bits, the first variable
    highest and 1 for a free variable, so the indices run in
    ``itertools.product`` order; pattern 0, every variable at zero, has no
    group.  The ``f``-th group, ``f = 1 .. n``, holds the patterns with
    ``f`` free variables, ascending, as ``(faces, cols, subfaces)``: the
    pattern indices, each face's free columns, and per free column the
    index of the subface that fixes it at zero, which sits in the group
    before.  The arrays are read-only and of numpy's index type ``intp``,
    so the face walk indexes with them as they are.  One plan is kept per
    ``n``: a ``compare`` pass over instances of several sizes builds each
    once.  Callers check ``_face_patterns(n)`` first, which bounds what is
    kept.
    """
    bits = 1 << np.arange(n - 1, -1, -1)
    free = (np.arange(2 ** n)[:, None] & bits) != 0
    count = free.sum(axis=1)
    groups = []
    for f in range(1, n + 1):
        faces = np.flatnonzero(count == f)
        cols = np.nonzero(free[faces])[1].reshape(faces.size, f)
        subfaces = faces[:, None] ^ bits[cols]
        group = tuple(v.astype(np.intp, copy=False) for v in (faces, cols, subfaces))
        for v in group:
            v.setflags(write=False)
        groups.append(group)
    return tuple(groups)


@lru_cache(maxsize=None)
def _simplex_hulls(n: int):
    """The affine-hull geometry of the standard simplex's faces, one entry
    per group of ``_plan(n)``, kept per ``n`` as the plan is
    (``simplex_minimum`` checks ``_face_patterns(n)`` first).

    A face with ``f`` free variables has the constraint row ``e^T`` of
    length ``f`` whichever variables are free, so every face of the group
    has the geometry ``_hull_points`` gives for one of them: the group's
    entry is that, read-only, with a leading axis of length 1 that
    ``_group_candidates`` broadcasts over the group.  The SVD of each
    stack member is the one LAPACK gives that member alone, so reading the
    entry changes no bit of what the faces would compute.
    """
    hulls = []
    with _lapack_errors():
        for f in range(1, n + 1):
            A, b = np.ones((1, f)), np.ones(1)
            hull = _hull_points(A, b, np.arange(f)[None], _system_scale(A, b))
            for v in hull:
                v.setflags(write=False)
            hulls.append(hull)
    return tuple(hulls)


def _face_candidates(Q, c, A, b, scale, hulls=None) -> np.ndarray:
    """Candidate minimizers of all faces, as rows in pattern order.

    A face's candidate is its vertex (no free variable) or, when its
    reduced Hessian is positive definite, the stationary point of the
    quadratic on its affine hull, kept when it is nonnegative.  Faces are
    solved together per number of free variables (the groups of ``_plan``),
    in slices of at most ``FACE_SLICE`` faces (``_group_candidates``), and
    each writes its candidate into its own row of one ``(2^n, n)`` table;
    ``has`` marks the candidates.  A face that contains a face whose reduced
    Hessian is not positive definite is flagged in turn and skipped: its own
    test would fail (see the module docstring).  ``hulls``, when given,
    holds per group the affine-hull geometry its faces share
    (``_simplex_hulls``), read instead of computed.
    """
    n = A.shape[1]
    X = np.zeros((2 ** n, n))
    has = np.zeros(2 ** n, dtype=bool)
    # the vertex x = 0 of the pattern with every variable fixed
    has[0] = float(np.abs(b).max(initial=0.0)) <= _TOL_EQ * scale
    not_pd = np.zeros(2 ** n, dtype=bool)
    for f, (faces, cols, subfaces) in enumerate(_plan(n)):
        hull = None if hulls is None else hulls[f]
        skip = not_pd[subfaces].any(axis=1)
        if skip.any():
            not_pd[faces[skip]] = True
            faces, cols = faces[~skip], cols[~skip]
        for start in range(0, faces.size, FACE_SLICE):
            part = slice(start, start + FACE_SLICE)
            _group_candidates(Q, c, A, b, faces[part], cols[part], scale, X, has, not_pd, hull)
    return X[has]


def _hull_points(A, b, cols, scale):
    """The affine hull ``{A_F x = b}`` of each face free on the columns
    ``cols``: ``(x0, vt, kept, nonempty)``, the min-norm points ``x0``
    (singular values above ``RANK_TOL`` times the largest), ``V^T`` and the
    mask of kept singular values from one stacked SVD of the constraint
    matrices ``A_F``, and the faces where ``x0`` solves ``A_F x = b``.
    """
    r = b[:, None]  # every face has the right-hand side b
    AF = A[:, cols].transpose(1, 0, 2).copy()
    u, s, vt = _svd(AF, signature="d->ddd")
    kept = s > RANK_TOL * s[:, :1]
    # x0 = V diag(1/s) U^T b over the kept singular values
    q = s.shape[1]
    coef = np.divide(u[:, :, :q].transpose(0, 2, 1) @ r, s[:, :, None],
                     out=np.zeros((cols.shape[0], q, 1)), where=kept[:, :, None])
    x0 = vt[:, :q].transpose(0, 2, 1) @ coef
    nonempty = np.abs(AF @ x0 - r).max(axis=(1, 2), initial=0.0) <= _TOL_EQ * scale
    return x0, vt, kept, nonempty


def _group_candidates(Q, c, A, b, faces, cols, scale, X, has, not_pd, hull):
    """Write the candidates of ``faces``, free on the columns ``cols``, into
    their rows of the table ``X`` and mark them in ``has``.  Every face's
    row may be written; only ``has`` says which rows are candidates.

    The faces share one stacked SVD (``_hull_points``), which gives both the
    min-norm points and the null-space bases, unless ``hull`` holds the one
    geometry every face of the group shares (``_simplex_hulls``); the faces
    of one null-space dimension then share one stacked eigensolve
    (``_interior_points``).  Each slice is the matrix the face alone would
    give LAPACK, so stacking changes no result.  Sets ``not_pd`` at the faces
    whose reduced Hessian is not positive definite.
    """
    f = cols.shape[1]
    tol_bound = _TOL_BOUND * scale
    # a hull's arrays have a leading axis of 1, which broadcasts over the faces
    x0, vt, kept, nonempty = _hull_points(A, b, cols, scale) if hull is None else hull
    if not nonempty.all():
        if not nonempty.any():
            return
        faces, cols, x0, vt, kept = (v[nonempty] for v in (faces, cols, x0, vt, kept))
    rank = kept.sum(axis=1)
    if rank.min() == rank.max():
        parts = [(int(rank[0]), faces, cols, x0, vt)]
    else:
        parts = [(k, *(v[sel] for v in (faces, cols, x0, vt)))
                 for k, sel in enumerate(_split_by(rank, min(A.shape[0], f) + 1)) if sel.size]

    for k, faces, cols, x0, vt in parts:
        if k == f:  # the face is the single point x0
            xF = x0[:, :, 0]
            hit = _nonnegative(xF, tol_bound)
        else:
            xF, definite = _interior_points(Q, c, vt[:, k:], cols, x0)
            hit = definite & _nonnegative(xF, tol_bound)
            not_pd[faces[~definite]] = True
        X[faces[:, None], cols] = np.maximum(xF, 0.0)
        has[faces] = hit


def _interior_points(Q, c, null_rows, cs, x0):
    """Stationary points of faces that share a null-space dimension.

    ``null_rows`` stacks, per face, the rows of ``V^T`` from the SVD of its
    constraint matrix that span the null space; ``cs`` holds the free
    columns and ``x0`` the min-norm points.  Returns the stationary points
    and the mask of the faces whose reduced Hessian is positive definite:
    its least eigenvalue above ``1e-10`` times its scale ``max(1, |w|_max)``.
    The point of any other face is a row to be ignored.
    """
    N = null_rows.transpose(0, 2, 1).copy()
    NT = N.transpose(0, 2, 1)
    QFF = Q[cs[:, :, None], cs[:, None, :]]
    H = NT @ QFF @ N
    H = 0.5 * (H + H.transpose(0, 2, 1))
    g = NT @ (QFF @ x0 + c[cs][:, :, None])
    w, V = _eigh(H, signature="d->dd")
    hscale = np.maximum(1.0, np.abs(w).max(axis=1))
    definite = w[:, 0] > 1e-10 * hscale
    gp = (V.transpose(0, 2, 1) @ g)[:, :, 0]
    t = -gp / np.where(definite[:, None], w, 1.0)
    xF = (x0 + N @ (V @ t[:, :, None]))[:, :, 0]
    return xF, definite


def minimize_quad_over_polytope(Q, c, A, b, *, vertices=None, hulls=None) -> OracleResult:
    """Exact minimum of ``x^T Q x + 2 c^T x`` over ``{A x = b, x >= 0}``.

    When q is bounded below, some global minimizer is a vertex or the
    stationary point of a face with a positive definite reduced Hessian
    (see the module docstring); enumerating those candidates is exact.
    The recession cone is analyzed first (``recession_analysis``,
    ``ray_witness``): a divergent ray gives UNBOUNDED_BELOW with the ray,
    unchecked and so uncertified, and the finite value is certified only
    when every recession direction has strictly positive curvature.  The
    ray test starts from the basic feasible points of
    ``{A x = b, x >= 0}``; a caller that has already enumerated them passes
    ``basic_feasible_points(A, b)`` as ``vertices``.  An empty list, or an
    empty enumeration of a nontrivial recession cone's polyhedron, is
    INFEASIBLE with no face walked (``faces_explored`` 0; the enumeration
    cap is still checked first when the cone is trivial); otherwise the
    list is read only by the ray test.  ``hulls``, passed only by
    ``simplex_minimum``, holds each group's shared face geometry
    (``_simplex_hulls``); it changes no bit of the result.
    """
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = Q.shape[0]
    if Q.shape != (n, n) or c.shape != (n,) or A.ndim != 2 or A.shape[1] != n:
        raise DimensionMismatch("inconsistent problem dimensions")
    if b.shape != (A.shape[0],):
        raise DimensionMismatch("b must match the number of constraint rows")
    for arr in (Q, c, A, b):
        if not np.isfinite(arr).all():
            raise NonFinite("non-finite problem data")

    certified = True
    recession = recession_analysis(Q, A)
    if recession.l_nontrivial:
        verts = basic_feasible_points(A, b) if vertices is None else vertices
        if not verts:
            return OracleResult(math.inf, (), False, 0, ORACLE_INFEASIBLE,
                                recession=recession)
        ray = ray_witness(Q, c, verts, recession)
        if ray is not None:
            return OracleResult(-math.inf, (), False, 0, ORACLE_UNBOUNDED, certified=False,
                                ray=ray, recession=recession)
        certified = recession.min_curvature > curvature_tolerance(Q)

    faces = _face_patterns(n)
    if vertices is not None and not vertices:
        return OracleResult(math.inf, (), False, 0, ORACLE_INFEASIBLE, recession=recession)
    scale = float(_system_scale(A, b))
    with _lapack_errors():
        X = _face_candidates(Q, c, A, b, scale, hulls)
    if not len(X):
        return OracleResult(math.inf, (), False, faces, ORACLE_INFEASIBLE, recession=recession)

    # x^T Q x + 2 c^T x per row; each slice makes the BLAS calls one point would
    values = (X[:, None, :] @ Q @ X[:, :, None])[:, 0, 0] + ((2 * c) @ X[:, :, None])[:, 0]
    vmin = float(values.min())
    vtol = 1e-9 * (1.0 + abs(vmin))
    mins = tuple(_first_occurrences(X[values <= vmin + vtol], set()))
    return OracleResult(
        value=vmin,
        minimizers=mins,
        attained=certified,
        faces_explored=faces,
        status=ORACLE_OPTIMAL if certified else ORACLE_INCONCLUSIVE,
        certified=certified,
        recession=recession,
    )


def _face_patterns(n: int) -> int:
    """``2 ** n``, the face patterns of ``n`` variables, or ``DeskScaleLimit``
    past the enumeration cap."""
    faces, cap = 2 ** n, enum_cap()
    if faces > 1 << cap:
        raise DeskScaleLimit(
            f"{faces} face patterns exceed the enumeration cap 2^{cap} (QPRELAX_ENUM_CAP)")
    return faces


def simplex_minimum(Q) -> OracleResult:
    """Exact minimum of ``x^T Q x`` over the standard simplex ``{e^T x = 1, x >= 0}``.

    The result of ``minimize_quad_over_polytope(Q, 0, e^T, [1])`` bit for
    bit, with every face's affine-hull geometry read from the cached
    ``_simplex_hulls(n)`` instead of computed per face.  Q is copositive
    exactly when the value is nonnegative (``certifies_copositive``).
    Refused past ``n = enum_cap()``.
    """
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    _face_patterns(n)
    return minimize_quad_over_polytope(Q, np.zeros(n), np.ones((1, n)), np.ones(1),
                                       hulls=_simplex_hulls(n))


# ---------------------------------------------------------------------------
# recession analysis and the ray test


def _recession_slice(A):
    """``(M, r)`` with ``{M d = r, d >= 0}`` the slice ``e^T d = 1`` of the cone
    ``{A d = 0, d >= 0}``, or None when a row of A of one strict sign leaves
    the cone ``{0}`` and the slice empty."""
    A = np.asarray(A, dtype=float)
    if (A > 0).all(axis=1).any() or (A < 0).all(axis=1).any():
        return None
    return np.vstack([A, np.ones((1, A.shape[1]))]), np.concatenate([np.zeros(A.shape[0]), [1.0]])


def recession_analysis(Q, A) -> RecessionReport:
    """Exact curvature analysis of the recession cone ``{A d = 0, d >= 0}``.

    Nontriviality and the minimum of ``d^T Q d`` are decided over the
    compact slice ``{A d = 0, e^T d = 1, d >= 0}`` by basic-solution and
    face enumeration; curvatures are compared at ``core.curvature_tolerance(Q)``.
    A row of A of one strict sign leaves only ``d = 0`` (the slices this
    module builds itself have one), and enumerates nothing.
    """
    n = Q.shape[0]
    tol = curvature_tolerance(Q)
    cut = _recession_slice(A)
    rays = [] if cut is None else basic_feasible_points(*cut)
    if not rays:
        return RecessionReport(False, math.inf, None, (), tol, ())
    curv = minimize_quad_over_polytope(Q, np.zeros(n), *cut)
    neg = curv.minimizers[0] if curv.value < -tol else None
    dirs = [d for d in rays + list(curv.minimizers) if abs(float(d @ Q @ d)) <= tol]
    zero_dirs = tuple(_first_occurrences(dirs, set()))
    return RecessionReport(True, float(curv.value), neg, zero_dirs, tol, tuple(rays))


def ray_witness(Q, c, verts, rec: RecessionReport) -> Optional[RayCertificate]:
    """A ray along which ``x^T Q x + 2 c^T x`` is unbounded below, or None.

    ``verts`` are the basic feasible points and ``rec`` the recession
    analysis of ``{A x = b, x >= 0}``.  A direction of negative curvature
    starts at the first vertex; a zero-curvature direction starts at a
    feasible point from which the objective decreases along it (a vertex,
    or a point far along an extreme ray).  Slopes are compared at
    ``core.slope_tolerance``, as ``verify_ray_certificate`` compares them,
    so that check accepts every ray returned here.  Only enumerated
    directions are tried, so None does not certify boundedness below.
    """
    if rec.neg_direction is not None:
        return RayCertificate(verts[0], rec.neg_direction)
    scale = slope_tolerance(Q, c)
    for d in rec.zero_directions:
        grad = Q @ d
        rates = [float(grad @ r) for r in rec.rays]
        k = int(np.argmin(rates))
        if rates[k] < -scale:
            v0 = verts[0]
            h0 = float((Q @ v0 + c) @ d)
            t = (abs(h0) + 1.0) / max(-rates[k], 1e-12)
            return RayCertificate(v0 + t * rec.rays[k], d)
        values = [float((Q @ v + c) @ d) for v in verts]
        k = int(np.argmin(values))
        if values[k] < -scale:
            return RayCertificate(verts[k], d)
    return None


def certifies_copositive(Q, simplex_min: float) -> bool:
    """Whether ``simplex_min``, the minimum of ``x^T Q x`` over the standard
    simplex, decides Q copositive: it must be at least
    ``-core.curvature_tolerance(Q)``, the tolerance of the curvature tests."""
    return simplex_min >= -curvature_tolerance(Q)


def global_solve(inst: QpInstance, simplex_min: Optional[float] = None, *,
                 vertices=None) -> OracleResult:
    """Exact optimal value of the instance, with unboundedness analysis.

    +inf for infeasible instances, -inf when a divergent ray is found and
    passes ``verify_ray_certificate`` (``ray_check``; a failed check leaves
    -inf INCONCLUSIVE and uncertified).  For unbounded feasible regions
    where no divergence is found but zero curvature rays exist, the
    enumeration value is still exact provided the objective is bounded
    below; boundedness is certified when the quadratic part is copositive
    and the linear part nonnegative (the objective is then nonnegative on
    the whole orthant), otherwise the result is INCONCLUSIVE.  Copositivity
    is decided by the minimum of ``x^T Q x`` over the standard simplex
    (``simplex_minimum``, ``certifies_copositive``); a caller that has
    already computed it passes it as ``simplex_min``, and one that has
    already enumerated the vertices passes the list
    ``enumerate_vertices(inst)`` returns as ``vertices``.
    """
    res = minimize_quad_over_polytope(inst.Q, inst.c, inst.A, inst.b, vertices=vertices)
    if res.status == ORACLE_UNBOUNDED:
        check = verify_ray_certificate(inst, res.ray)
        status = ORACLE_UNBOUNDED if check.ok else ORACLE_INCONCLUSIVE
        return replace(res, status=status, certified=check.ok, ray_check=check)
    if res.status == ORACLE_INCONCLUSIVE and float(inst.c.min()) >= 0.0:
        if simplex_min is None:
            simplex_min = simplex_minimum(inst.Q).value
        if certifies_copositive(inst.Q, simplex_min):
            return replace(res, attained=True, status=ORACLE_OPTIMAL, certified=True)
    return res


# ---------------------------------------------------------------------------
# local minimizer verification


def _support(x):
    """The 0-based positive support of ``x`` (entries above ``1e-9``, after
    clipping at zero) and its complement, as lists."""
    sets = index_sets(np.clip(x, 0.0, None), tol=1e-9)
    return [j - 1 for j in sets.positive], [j - 1 for j in sets.zero]


def first_order_certificate(inst: QpInstance, x) -> Optional[KktCertificate]:
    """Multipliers proving a feasible point first-order stationary, or None.

    Recovers ``y`` by least squares on the positive support (entries above
    ``1e-9``) and ``s = Qx + c - A^T y`` with ``s`` forced to zero there.  The
    point passes when the stationarity residual and the most negative
    multiplier are within ``1e-8 * (1 + |Qx + c|_max)``.  Where q is convex
    on the affine hull of the polyhedron, a pass proves ``x`` a global
    minimizer.  Raises ``PointInfeasible`` unless ``x`` is feasible within
    ``FEAS_TOL``.
    """
    x = np.asarray(x, dtype=float)
    residual = feasibility_residual(inst, x)
    if residual > FEAS_TOL:
        raise PointInfeasible(f"point is not feasible (residual {residual:.3e})")

    P, Z = _support(x)
    grad = inst.Q @ x + inst.c
    gscale = 1.0 + float(np.abs(grad).max(initial=0.0))

    if P:
        AP = inst.A[:, P]
        y = _least_squares(AP.T, grad[P])
        stat_res = float(np.abs(AP.T @ y - grad[P]).max(initial=0.0))
    else:
        y = np.zeros(inst.m)
        stat_res = 0.0
    s = grad - inst.A.T @ y
    s[P] = 0.0
    min_mult = float(s[Z].min(initial=0.0)) if Z else 0.0
    if not (stat_res <= 1e-8 * gscale and min_mult >= -1e-8 * gscale):
        return None
    return KktCertificate(
        y=y,
        s=s,
        stationarity_residual=stat_res,
        min_multiplier=min_mult,
        complementarity_residual=float(np.abs(x * s).max(initial=0.0)),
    )


def verify_local_minimizer(inst: QpInstance, x) -> LocalMinVerdict:
    """Decide whether a feasible point is a local minimizer.

    Runs the first-order multiplier recovery (``first_order_certificate``)
    and then the second-order test (``second_order_minimum``); the point is
    a local minimizer exactly when both tests pass.
    """
    x = np.asarray(x, dtype=float)
    kkt = first_order_certificate(inst, x)
    if kkt is None:
        return LocalMinVerdict(is_local_min=False, kkt=None, second_order_min=math.nan)

    second_min = second_order_minimum(inst, x)
    qscale = 1.0 + float(np.abs(inst.Q).max(initial=0.0))
    is_min = second_min >= -1e-8 * qscale
    return LocalMinVerdict(is_local_min=bool(is_min), kkt=kkt, second_order_min=second_min)


def verify_ray_certificate(inst: QpInstance, ray: RayCertificate) -> RayCheck:
    """Re-check a ray of unbounded descent against raw instance data.

    ``x0`` must be feasible within ``FEAS_TOL`` and ``d`` a recession
    direction (``core.in_recession_cone``) with ``|e^T d - 1| <= FEAS_TOL``.
    Then q decreases without bound along ``x0 + t d`` when the curvature
    ``d^T Q d`` is below ``-core.curvature_tolerance(Q)``, whatever the
    slope ``(Q x0 + c)^T d``, or when the curvature is at most
    ``core.curvature_tolerance(Q)`` and the slope below
    ``-core.slope_tolerance(Q, c)``: the tolerances of ``ray_witness``.
    """
    x0 = np.asarray(ray.x0, dtype=float)
    d = np.asarray(ray.d, dtype=float)
    curvature_tol = curvature_tolerance(inst.Q)
    feas = feasibility_residual(inst, x0)
    recession = in_recession_cone(inst, d)
    norm_err = abs(float(d.sum()) - 1.0)
    curvature = float(d @ inst.Q @ d)
    slope = float((inst.Q @ x0 + inst.c) @ d)
    descent = curvature < -curvature_tol or (
        curvature <= curvature_tol and slope < -slope_tolerance(inst.Q, inst.c))
    ok = feas <= FEAS_TOL and recession and norm_err <= FEAS_TOL and descent
    return RayCheck(
        ok=bool(ok),
        feasibility_residual=feas,
        recession_direction=recession,
        normalization_error=norm_err,
        curvature=curvature,
        slope=slope,
        tolerance=curvature_tol,
    )


def second_order_minimum(inst: QpInstance, x) -> float:
    """Minimum of ``d^T Q d`` over the critical cone, or 0 when none is negative.

    The cone is ``{d : A d = 0, (Qx + c)^T d = 0, d_j >= 0 on the zero
    support}``.  Free components are split into differences of nonnegative
    parts ``z``, and the cone is cut by the slice ``e^T z = 1``, as in
    ``recession_analysis``.  Every nonzero ``z`` of the cone scales onto the
    slice, so the result is negative exactly when Q is not copositive on
    the cone; an empty slice (+inf) reports 0.
    """
    x = np.asarray(x, dtype=float)
    grad = inst.Q @ x + inst.c
    P, Z = _support(x)
    n = inst.n
    nsplit = 2 * len(P) + len(Z)
    # expansion matrix: d = T z with z >= 0
    T = np.zeros((n, nsplit))
    for k, j in enumerate(P):
        T[j, k] = 1.0
        T[j, len(P) + k] = -1.0
    for k, j in enumerate(Z):
        T[j, 2 * len(P) + k] = 1.0
    M = np.vstack([inst.A @ T, (grad @ T).reshape(1, -1), np.ones((1, nsplit))])
    rhs = np.zeros(M.shape[0])
    rhs[-1] = 1.0
    res = minimize_quad_over_polytope(T.T @ inst.Q @ T, np.zeros(nsplit), M, rhs)
    return min(0.0, float(res.value))
