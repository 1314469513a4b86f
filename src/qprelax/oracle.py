"""Ground-truth engine: exact global quadratic minimization over polyhedra.

The core is exhaustive face enumeration.  For every zero pattern the
quadratic is restricted to the face's affine hull; stationary points with a
positive semidefinite reduced Hessian, together with all vertices, cover
every possible location of the global minimum.  The recession cone is
analyzed first (``recession_analysis``, then the ray test ``ray_witness``)
so that unbounded problems are flagged instead of silently returning a
wrong finite value.

All enumeration is capped (default 16 variables, override with the
QPRELAX_ENUM_CAP environment variable).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import QpInstance, index_sets
from .errors import DeskScaleLimit, DimensionMismatch, NonFinite, PointInfeasible
from .numerics import nullspace_basis

ORACLE_OPTIMAL = "OPTIMAL"
ORACLE_INFEASIBLE = "INFEASIBLE"
ORACLE_UNBOUNDED = "UNBOUNDED_BELOW"
ORACLE_INCONCLUSIVE = "INCONCLUSIVE"

DEFAULT_ENUM_CAP = 16

_TOL_EQ = 1e-8
_TOL_PSD = 1e-9
_TOL_BOUND = 1e-9
_TOL_CURV = 1e-9
_DEDUP_DECIMALS = 8


def enum_cap(cap: Optional[int] = None) -> int:
    """Resolve the enumeration cap, honoring QPRELAX_ENUM_CAP."""
    if cap is not None:
        return int(cap)
    return int(os.environ.get("QPRELAX_ENUM_CAP", DEFAULT_ENUM_CAP))


def _require_desk_scale(n: int, cap: Optional[int] = None) -> None:
    """Raise DeskScaleLimit when ``n`` variables exceed the enumeration cap."""
    if n > enum_cap(cap):
        raise DeskScaleLimit(f"n={n} exceeds the enumeration cap {enum_cap(cap)}")


@dataclass(frozen=True)
class RecessionReport:
    """Curvature analysis of the recession cone ``{A d = 0, d >= 0}``.

    ``min_curvature`` is the exact minimum of ``d^T Q d`` over the recession
    directions normalized to the unit simplex (+inf when the cone is
    trivial); ``zero_directions`` samples normalized directions of zero
    curvature; ``rays`` are the extreme normalized directions.
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
    and unbounded problems; ``minimizers`` samples the optimal set; the
    ``certified`` flag records whether boundedness below was proved (it is
    always True for compact feasible regions).  ``recession`` is the
    recession analysis of a call without a box.
    """

    value: float
    minimizers: tuple[np.ndarray, ...]
    attained: bool
    faces_explored: int
    status: str
    certified: bool = True
    unbounded_witness: Optional[dict] = None
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
class LocalMinVerdict:
    is_local_min: bool
    kkt: Optional[KktCertificate]
    second_order_min: float


# ---------------------------------------------------------------------------
# basic feasible point enumeration


def basic_feasible_points(A, b, cap: Optional[int] = None, tol: float = _TOL_EQ):
    """All basic feasible solutions of ``{A x = b, x >= 0}``, deduplicated.

    Enumerates column subsets of size rank(A); a nonempty result is
    equivalent to feasibility of the system, and for bounded systems the
    result is the vertex set.
    """
    return list(_basic_feasible_iter(A, b, cap, tol))


def _basic_feasible_iter(A, b, cap: Optional[int] = None, tol: float = _TOL_EQ):
    """Generator behind ``basic_feasible_points``: one column subset at a time.

    An emptiness test takes only the first point, so it stops at the first
    feasible basis.  Input errors and ``DeskScaleLimit`` are raised when the
    first point is requested, before any subset is examined.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise DimensionMismatch("basic_feasible_points expects A (m x n) and b (m,)")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise NonFinite("non-finite constraint data")
    m, n = A.shape
    scale = 1.0 + float(np.abs(b).max(initial=0.0)) + float(np.abs(A).max(initial=0.0))
    svals = np.linalg.svd(A, compute_uv=False)
    smax = svals[0] if svals.size else 0.0
    rank = int(np.sum(svals > 1e-10 * smax)) if smax > 0 else 0

    if rank == 0:
        if float(np.abs(b).max(initial=0.0)) <= tol * scale:
            yield np.zeros(n)
        return

    limit = 1 << enum_cap(cap)
    if math.comb(n, rank) > limit:
        raise DeskScaleLimit(
            f"{math.comb(n, rank)} column subsets exceed the enumeration cap"
        )

    seen = set()
    for cols in itertools.combinations(range(n), rank):
        x = _basic_solution(A, b, cols, smax, tol * scale)
        if x is None:
            continue
        key = tuple(np.round(x, _DEDUP_DECIMALS))
        if key not in seen:
            seen.add(key)
            yield x


def _basic_solution(A, b, cols, smax, tol) -> Optional[np.ndarray]:
    """The basic solution on columns ``cols`` if it is feasible, else None."""
    sub = A[:, cols]
    sub_svals = np.linalg.svd(sub, compute_uv=False)
    if sub_svals[-1] <= 1e-10 * max(smax, 1e-300):
        return None  # linearly dependent basis
    xb, *_ = np.linalg.lstsq(sub, b, rcond=None)
    if float(np.abs(sub @ xb - b).max(initial=0.0)) > tol:
        return None
    if float(xb.min(initial=0.0)) < -tol:
        return None
    x = np.zeros(A.shape[1])
    x[list(cols)] = np.clip(xb, 0.0, None)
    return x


def enumerate_vertices(inst: QpInstance, cap: Optional[int] = None):
    """Basic feasible solutions of the instance polyhedron."""
    _require_desk_scale(inst.n, cap)
    return basic_feasible_points(inst.A, inst.b, cap=cap)


# ---------------------------------------------------------------------------
# face enumeration engine


def _pattern_states(n: int, upper: np.ndarray):
    """Per-variable active-set states: 0 at lower bound, 1 free, 2 at upper."""
    choices = [(0, 1, 2) if np.isfinite(upper[j]) else (0, 1) for j in range(n)]
    total = 1
    for ch in choices:
        total *= len(ch)
    return choices, total


def _stationary_face_point(AF, rhs, NT_QFF, NT_cF, uF, cap):
    """Feasible point of a singular-Hessian stationary set, if one exists.

    The stationary set of the reduced quadratic is the affine set
    ``{AF x = rhs, N^T (QFF x + cF) = 0}``; the objective is constant on it,
    so any point inside the bounds certifies the face's candidate value.
    """
    M = np.vstack([AF, NT_QFF])
    r = np.concatenate([rhs, -NT_cF])
    finite = np.isfinite(uF)
    if finite.any():
        nf = AF.shape[1]
        k = int(finite.sum())
        slack_rows = np.zeros((k, nf + k))
        slack_rows[np.arange(k), np.flatnonzero(finite)] = 1.0
        slack_rows[np.arange(k), nf + np.arange(k)] = 1.0
        M = np.hstack([M, np.zeros((M.shape[0], k))])
        M = np.vstack([M, slack_rows])
        r = np.concatenate([r, uF[finite]])
    try:
        pts = basic_feasible_points(M, r, cap=cap)
    except DeskScaleLimit:
        return None
    if not pts:
        return None
    return pts[0][: AF.shape[1]]


def minimize_quad_over_polytope(
    Q,
    c,
    A,
    b,
    box=None,
    cap: Optional[int] = None,
) -> OracleResult:
    """Exact minimum of ``x^T Q x + 2 c^T x`` over ``{A x = b, 0 <= x <= box}``.

    ``box`` is None (no upper bounds) or gives a finite upper bound for every
    variable.  The global minimizer of a quadratic lies in the relative
    interior of some face, where the reduced gradient vanishes and the
    reduced Hessian is positive semidefinite; enumerating those candidates
    plus all vertices is exact.  Without a box the recession cone is
    analyzed first (``recession_analysis``, ``ray_witness``): a divergent
    ray gives UNBOUNDED_BELOW, and the finite value is certified only when
    every recession direction has strictly positive curvature.
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
    upper = np.full(n, np.inf) if box is None else np.asarray(box, dtype=float).copy()
    if upper.shape != (n,):
        raise DimensionMismatch("box must give one upper bound per variable")
    if box is not None and not np.isfinite(upper).all():
        raise ValueError("box must give a finite upper bound for every variable")
    if np.any(upper < 0):
        raise ValueError("upper bounds must be nonnegative")

    certified = True
    recession = None
    if box is None:
        recession = recession_analysis(Q, A, cap=cap)
        if recession.l_nontrivial:
            verts = basic_feasible_points(A, b, cap=cap)
            if not verts:
                return OracleResult(math.inf, (), False, 0, ORACLE_INFEASIBLE,
                                    recession=recession)
            witness = ray_witness(Q, c, verts, recession)
            if witness is not None:
                return OracleResult(-math.inf, (), False, 0, ORACLE_UNBOUNDED,
                                    unbounded_witness=witness, recession=recession)
            qscale = max(1.0, float(np.abs(Q).max(initial=0.0)))
            certified = recession.min_curvature > recession.tolerance * qscale

    choices, total = _pattern_states(n, upper)
    if total > (1 << enum_cap(cap)):
        raise DeskScaleLimit(f"{total} face patterns exceed the enumeration cap")

    scale = 1.0 + float(np.abs(b).max(initial=0.0)) + float(np.abs(A).max(initial=0.0))
    candidates: list[tuple[float, np.ndarray]] = []
    faces = 0

    for states in itertools.product(*choices):
        faces += 1
        fixed_vals = np.zeros(n)
        free_idx = [j for j in range(n) if states[j] == 1]
        for j in range(n):
            if states[j] == 2:
                fixed_vals[j] = upper[j]
        fixed_idx = [j for j in range(n) if states[j] != 1]
        rhs = b - A[:, fixed_idx] @ fixed_vals[fixed_idx] if fixed_idx else b.copy()

        if not free_idx:
            if float(np.abs(rhs).max(initial=0.0)) <= _TOL_EQ * scale:
                x = fixed_vals.copy()
                candidates.append((float(x @ Q @ x + 2 * c @ x), x))
            continue

        AF = A[:, free_idx]
        x0, *_ = np.linalg.lstsq(AF, rhs, rcond=None)
        if float(np.abs(AF @ x0 - rhs).max(initial=0.0)) > _TOL_EQ * scale:
            continue  # empty face
        N = nullspace_basis(AF)
        QFF = Q[np.ix_(free_idx, free_idx)]
        cF = c[free_idx]
        uF = upper[free_idx]

        if N.shape[1] == 0:
            xF = x0
        else:
            H = N.T @ QFF @ N
            H = 0.5 * (H + H.T)
            g = N.T @ (QFF @ x0 + cF)
            w, V = np.linalg.eigh(H)
            hscale = max(1.0, float(np.abs(w).max(initial=0.0)))
            if w[0] < -_TOL_PSD * hscale:
                continue  # indefinite on this face: no interior minimum
            gp = V.T @ g
            singular = np.abs(w) <= 1e-10 * hscale
            gscale = max(1.0, float(np.abs(gp).max(initial=0.0)))
            if np.any(singular & (np.abs(gp) > 1e-8 * gscale)):
                continue  # gradient cannot vanish on this face
            t = np.where(singular, 0.0, -gp / np.where(singular, 1.0, w))
            xF = x0 + N @ (V @ t)
            inside = (
                float(xF.min(initial=0.0)) >= -_TOL_BOUND * scale
                and float((xF - uF).max(initial=0.0)) <= _TOL_BOUND * scale
            )
            if not inside and singular.any():
                # objective is constant on the stationary set; look for a
                # representative inside the face
                alt = _stationary_face_point(AF, rhs, N.T @ QFF, N.T @ cF, uF, cap)
                if alt is None:
                    continue
                xF = alt
            elif not inside:
                continue

        if (
            float(xF.min(initial=0.0)) < -_TOL_BOUND * scale
            or float((xF - uF).max(initial=0.0)) > _TOL_BOUND * scale
        ):
            continue
        x = fixed_vals.copy()
        x[free_idx] = np.clip(xF, 0.0, None)
        candidates.append((float(x @ Q @ x + 2 * c @ x), x))

    if not candidates:
        return OracleResult(math.inf, (), False, faces, ORACLE_INFEASIBLE, recession=recession)

    vmin = min(v for v, _ in candidates)
    vtol = 1e-9 * (1.0 + abs(vmin))
    mins = []
    seen = set()
    for v, x in candidates:
        if v <= vmin + vtol:
            key = tuple(np.round(x, _DEDUP_DECIMALS))
            if key not in seen:
                seen.add(key)
                mins.append(x)
    return OracleResult(
        value=vmin,
        minimizers=tuple(mins),
        attained=certified,
        faces_explored=faces,
        status=ORACLE_OPTIMAL if certified else ORACLE_INCONCLUSIVE,
        certified=certified,
        recession=recession,
    )


# ---------------------------------------------------------------------------
# recession analysis and the ray test


def recession_analysis(Q, A, cap: Optional[int] = None, tol: float = _TOL_CURV) -> RecessionReport:
    """Exact curvature analysis of the recession cone ``{A d = 0, d >= 0}``.

    Nontriviality and the minimum of ``d^T Q d`` are decided over the
    compact slice ``{A d = 0, e^T d = 1, d >= 0}`` by basic-solution and
    face enumeration; curvatures are compared at ``tol * max(1, |Q|_max)``.
    """
    n = Q.shape[0]
    aug = np.vstack([A, np.ones((1, n))])
    rhs = np.concatenate([np.zeros(A.shape[0]), [1.0]])
    rays = basic_feasible_points(aug, rhs, cap=cap)
    if not rays:
        return RecessionReport(False, math.inf, None, (), tol, ())
    curv = minimize_quad_over_polytope(Q, np.zeros(n), aug, rhs, cap=cap)
    qscale = max(1.0, float(np.abs(Q).max(initial=0.0)))
    neg = curv.minimizers[0] if curv.value < -tol * qscale else None
    zero_dirs = []
    seen = set()
    for d in rays + list(curv.minimizers):
        if abs(float(d @ Q @ d)) <= tol * qscale:
            key = tuple(np.round(d, _DEDUP_DECIMALS))
            if key not in seen:
                seen.add(key)
                zero_dirs.append(d)
    return RecessionReport(True, float(curv.value), neg, tuple(zero_dirs), tol, tuple(rays))


def ray_witness(Q, c, verts, rec: RecessionReport) -> Optional[dict]:
    """Witness that ``x^T Q x + 2 c^T x`` is unbounded below, or None.

    ``verts`` are the basic feasible points and ``rec`` the recession
    analysis of ``{A x = b, x >= 0}``.  Negative curvature gives
    ``{"direction", "curvature"}``; a zero-curvature direction along which
    the objective decreases from a feasible point (a vertex, or a point far
    along an extreme ray) gives ``{"direction", "point"}``.  Rates are
    compared at ``tol * (max(1, |Q|_max) + |c|_max)``.  Only enumerated
    directions are tried, so None does not certify boundedness below.
    """
    if rec.neg_direction is not None:
        return {"direction": rec.neg_direction, "curvature": rec.min_curvature}
    scale = rec.tolerance * (
        max(1.0, float(np.abs(Q).max(initial=0.0))) + float(np.abs(c).max(initial=0.0))
    )
    for d in rec.zero_directions:
        grad = Q @ d
        rates = [float(grad @ r) for r in rec.rays]
        k = int(np.argmin(rates))
        if rates[k] < -scale:
            v0 = verts[0]
            h0 = float((Q @ v0 + c) @ d)
            t = (abs(h0) + 1.0) / max(-rates[k], 1e-12)
            return {"direction": d, "point": v0 + t * rec.rays[k]}
        values = [float((Q @ v + c) @ d) for v in verts]
        k = int(np.argmin(values))
        if values[k] < -scale:
            return {"direction": d, "point": verts[k]}
    return None


def global_solve(inst: QpInstance, cap: Optional[int] = None,
                 simplex_min: Optional[float] = None) -> OracleResult:
    """Exact optimal value of the instance, with unboundedness analysis.

    +inf for infeasible instances, -inf when a divergent ray is found.  For
    unbounded feasible regions where no divergence is found but zero
    curvature rays exist, the enumeration value is still exact provided the
    objective is bounded below; boundedness is certified when the quadratic
    part is copositive and the linear part nonnegative (the objective is
    then nonnegative on the whole orthant), otherwise the result is
    INCONCLUSIVE.  Copositivity is decided by the minimum of ``x^T Q x``
    over the standard simplex; a caller that has already computed it
    passes it as ``simplex_min``.
    """
    _require_desk_scale(inst.n, cap)
    res = minimize_quad_over_polytope(inst.Q, inst.c, inst.A, inst.b, cap=cap)
    if res.status == ORACLE_INCONCLUSIVE and float(inst.c.min()) >= 0.0:
        if simplex_min is None:
            simplex_min = minimize_quad_over_polytope(
                inst.Q, np.zeros(inst.n), np.ones((1, inst.n)), np.array([1.0]), cap=cap
            ).value
        if simplex_min >= -_TOL_CURV * max(1.0, float(np.abs(inst.Q).max())):
            return replace(res, attained=True, status=ORACLE_OPTIMAL, certified=True)
    return res


# ---------------------------------------------------------------------------
# local minimizer verification


def verify_local_minimizer(
    inst: QpInstance,
    x,
    tol: float = 1e-8,
    cap: Optional[int] = None,
    index_tol: float = 1e-9,
) -> LocalMinVerdict:
    """Decide whether a feasible point is a local minimizer.

    Runs the first-order multiplier recovery (multipliers forced to zero on
    the positive support) and then minimizes the quadratic form over the
    critical cone intersected with the unit box, split into nonnegative
    parts; the point is a local minimizer exactly when both tests pass.
    """
    x = np.asarray(x, dtype=float)
    from .core import feasibility_residual  # local import to avoid cycle at module load

    if feasibility_residual(inst, x) > max(tol, 1e-8):
        raise PointInfeasible(f"point is not feasible (residual {feasibility_residual(inst, x):.3e})")

    sets = index_sets(np.clip(x, 0.0, None), tol=index_tol)
    P = [j - 1 for j in sets.positive]
    Z = [j - 1 for j in sets.zero]
    grad = inst.Q @ x + inst.c
    gscale = 1.0 + float(np.abs(grad).max(initial=0.0))

    if P:
        AP = inst.A[:, P]
        y, *_ = np.linalg.lstsq(AP.T, grad[P], rcond=None)
        stat_res = float(np.abs(AP.T @ y - grad[P]).max(initial=0.0))
    else:
        y = np.zeros(inst.m)
        stat_res = 0.0
    s = grad - inst.A.T @ y
    s[P] = 0.0
    min_mult = float(s[Z].min(initial=0.0)) if Z else 0.0
    compl = float(np.abs(x * s).max(initial=0.0))
    kkt_ok = stat_res <= tol * gscale and min_mult >= -tol * gscale

    kkt = KktCertificate(
        y=y,
        s=s,
        stationarity_residual=stat_res,
        min_multiplier=min_mult,
        complementarity_residual=compl,
    ) if kkt_ok else None

    if not kkt_ok:
        return LocalMinVerdict(is_local_min=False, kkt=None, second_order_min=math.nan)

    second_min = second_order_minimum(inst, x, grad, P, Z, cap=cap)
    qscale = 1.0 + float(np.abs(inst.Q).max(initial=0.0))
    is_min = second_min >= -tol * qscale
    return LocalMinVerdict(is_local_min=bool(is_min), kkt=kkt, second_order_min=second_min)


def second_order_minimum(
    inst: QpInstance,
    x,
    grad=None,
    P=None,
    Z=None,
    cap: Optional[int] = None,
    box_radius: float = 1.0,
) -> float:
    """Minimum of ``d^T Q d`` over the critical cone within a box.

    The cone is ``{d : A d = 0, (Qx + c)^T d = 0, d_j >= 0 on the zero
    support}``; free components are split into differences of nonnegative
    parts and every part is capped at ``box_radius``.  By homogeneity the
    sign of the result does not depend on the radius.
    """
    x = np.asarray(x, dtype=float)
    if grad is None:
        grad = inst.Q @ x + inst.c
    if P is None or Z is None:
        sets = index_sets(np.clip(x, 0.0, None), tol=1e-9)
        P = [j - 1 for j in sets.positive]
        Z = [j - 1 for j in sets.zero]
    n = inst.n
    nsplit = 2 * len(P) + len(Z)
    # expansion matrix: d = T z with z >= 0
    T = np.zeros((n, nsplit))
    for k, j in enumerate(P):
        T[j, k] = 1.0
        T[j, len(P) + k] = -1.0
    for k, j in enumerate(Z):
        T[j, 2 * len(P) + k] = 1.0
    M = np.vstack([inst.A @ T, (grad @ T).reshape(1, -1)])
    rhs = np.zeros(M.shape[0])
    Qz = T.T @ inst.Q @ T
    res = minimize_quad_over_polytope(
        Qz,
        np.zeros(nsplit),
        M,
        rhs,
        box=np.full(nsplit, float(box_radius)),
        cap=cap,
    )
    return float(res.value)
