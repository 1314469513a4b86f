"""The face problem of both lifts, and the one module that solves it.

Every lifted problem that no closed form decides is, on a face
``{V S V^T : S positive semidefinite}`` of the PSD cone, one small LMI:
minimize ``<C, S>`` over ``S`` PSD with rows ``<G_k, S> >= h_k``.
``solve_face`` solves it by order.  Order 1 is an interval LP, solved
exactly (``_interval_lp``).  Order 2 is first solved by its KKT pairs
(``_order_two``): ``S`` is a point of a rotated second-order cone in three
coordinates (Alizadeh & Goldfarb, Math. Prog. 2003), so the KKT system
``S Z = 0``, ``Z = C - sum_k lam_k G_k``, has finitely many candidate
pairs ``(S, lam)``, each fixed by at most three active rows, and all are
built at once, vectorized over the rows, pairs and triples of rows.  What
the pairs read of ``C`` and the rows alone (the one-row roots and null
vectors, the pair and triple gathers, the three-row adjugates,
determinants and multipliers, and the dual side of the check of every
pair whose multipliers do not involve ``h``) is one table
(``_order_two_table``); a caller that solves many problems differing only
in ``h``, as ``conic`` does for the pinned anchors of one instance, builds
it once and passes it to ``solve_face``, and each problem then computes
only what depends on ``h``, the same bits.  Every
other problem is iterated by one primal-dual interior-point method
(``_ipm_step``).  At order 2 a symmetric 2 x 2 matrix is the 3-vector
``(M_11, M_22, M_12)`` throughout, and a row reads ``g_k . s >= h_k`` with
``g_k = (G_11, G_22, 2 G_12)``.  Nothing here knows about instances or
lifts: ``conic`` builds ``C``, ``G`` and ``h``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import _eigh, _eigvalsh

MAX_ITER = "MAX_ITER"

#: Iterations an interior-point solve or DNN search may take before it
#: returns MAX_ITER (``solve_face``), or ``SolveOptions.max_iterations`` if
#: fewer.
IPM_ITERATIONS = 50

#: Rows above which ``_order_two`` leaves a problem to the interior-point
#: method: its C(p, 3) three-row pairs take memory growing as p^3, and
#: time that overtakes the iterations they replace between 21 rows (1.4
#: against 1.9 ms on a 2-core VM) and 28 rows (3.5 against 2.1 ms).
MAX_ROWS = 24

#: The 3-vector's entries in ``M.ravel()``, ``M.ravel()`` from the
#: 3-vector, and the weights of ``<M, S> = sum_i w_i m_i s_i``.
_PACK = np.array((0, 3, 1))
_UNPACK = np.array((0, 2, 2, 1))
_WEIGHTS = np.array((1.0, 1.0, 2.0))

#: Cyclic shifts of three entries, for cross products; ``u u^T`` of a
#: 2-vector ``u`` as the 3-vector is ``u[_LEFT] * u[_RIGHT]``; and the
#: null vectors ``(Z_12, -Z_11)`` and ``(Z_22, -Z_12)`` of a singular ``Z``
#: are ``Z[_NULL_A]`` and ``Z[_NULL_B]`` with the second entry negated.
_NEXT, _LAST = np.array((1, 2, 0)), np.array((2, 0, 1))
_LEFT, _RIGHT = np.array((0, 1, 0)), np.array((0, 1, 1))
_NULL_A, _NULL_B = np.array((2, 0)), np.array((1, 2))

#: The pairs ``j < k`` and triples ``j < k < l`` of ``MAX_ROWS`` rows, by
#: their last row first, so that those of the first p rows come first.
_ROWS = np.arange(MAX_ROWS)
_PAIRS = np.argwhere(_ROWS[:, None] > _ROWS)[:, ::-1]
_TRIPLES = np.argwhere((_ROWS[:, None, None] > _ROWS[:, None]) & (_ROWS[:, None] > _ROWS))[:, ::-1]


@dataclass(frozen=True)
class SolveOptions:
    """Iteration budget and residual tolerances of the interior-point method,
    which stops at ``IPM_ITERATIONS`` when ``max_iterations`` is larger.  The
    consensus loop in ``conic``, which no solve runs, reads the same fields."""

    max_iterations: int = 200_000
    tol_primal: float = 1e-7
    tol_dual: float = 1e-7

    def __post_init__(self):
        if min(self.max_iterations, self.tol_primal, self.tol_dual) <= 0:
            raise ValueError("iteration and tolerance options must be positive")


@dataclass
class _IpmOutcome:
    status: str  # CONVERGED, ACCEPTED or MAX_ITER
    S: np.ndarray  # the last iterate
    lam: np.ndarray  # the multipliers of the rows, >= 0
    Z: np.ndarray  # the dual slack: the last iterate, or C - sum_k lam_k G_k when solved exactly
    iterations: int
    residual_primal: float
    residual_dual: float
    start: Optional[str] = None  # "interior" or "identity" when the method iterated


def solve_face(C: np.ndarray, G: np.ndarray, h: np.ndarray, opts: SolveOptions,
               accept: Optional[Callable[[np.ndarray], bool]] = None,
               start: Optional[Tuple[np.ndarray, np.ndarray]] = None,
               table: Optional[_KktTable] = None) -> _IpmOutcome:
    """Minimize ``<C, S>`` over ``S`` PSD with ``<G_k, S> >= h_k`` for each row k.

    A primal-dual interior-point method: the HKM direction
    (Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 1996) with
    Mehrotra's predictor-corrector (SIAM J. Optim. 1992).  The rows take
    slacks ``w >= 0``; the dual is ``max h^T lam`` over ``lam >= 0`` with
    ``Z = C - sum_k lam_k G_k`` PSD.  Each iteration forms ``H_l = S G_l Z^-1``
    and the Schur matrix ``M_kl = <G_k, H_l> + delta_kl w_k / lam_k`` once,
    and inverts ``M``, symmetric positive definite in exact arithmetic, by
    one eigendecomposition: the pseudo-inverse drops the eigenvalues of
    magnitude at most ``eps p max|lambda|``, the singular values
    ``numpy.linalg.lstsq`` drops by default, so it stays defined where rows
    active at the optimum are linearly dependent (an equality as a row
    pair; a plain inverse stalls there).  For
    targets ``S Z = T``, ``w lam = t`` the direction is affine in ``dlam``,
    ``dS = E + T Z^-1 + sum_l dlam_l H_l`` with ``E = -S - S R_d Z^-1`` (``R_d``
    the dual residual) shared by predictor and corrector; ``dlam`` solves
    ``M dlam = r_p - G(dS) + dw`` (``r_p`` the primal residual) at
    ``dlam = 0``, and one refinement step recomputes that residual through
    ``dS``, not ``M``, whose entries grow like ``1 / mu``.  The predictor's
    steps to the boundary, primal and dual apart, set Mehrotra's centering;
    the corrector takes one step length for both sides, 0.99 of the way to
    the boundary.  It stops when the primal residual relative to ``1 + |h|``
    is at most ``opts.tol_primal`` and both the dual residual relative to
    ``1 + |C|`` and the duality gap relative to ``1 + |<C, S>| + |h^T lam|``
    are at most ``opts.tol_dual``.  Given ``accept``, it also stops, with
    status ACCEPTED, at the first iterate ``S`` it would step on from for
    which ``accept(S)`` is true: the starting point and the iterate at the
    budget are not offered.  It starts from ``start = (S, lam)``, given,
    with the slacks ``w = G(S) - h`` and ``Z = C - sum_k lam_k G_k``, so
    that both residuals are 0 there and stay at rounding, once a check
    before the first step finds ``S`` and ``Z`` positive definite and ``w``
    and ``lam`` positive; otherwise, and when no start is given, from the
    infeasible ``S = Z = I``, ``w = lam = 1``.  The outcome's ``start``
    names the one it took, ``interior`` or ``identity``, and is None when
    no iteration ran.  After ``IPM_ITERATIONS`` iterations (or
    ``opts.max_iterations``, if fewer), or when an iterate stops being
    positive definite, the Schur matrix is not finite, a step is not
    positive, or an entry grows past ``1 / eps`` (a problem with no optimum
    diverges this way), it returns MAX_ITER with the last iterate it took.
    Nothing here raises.

    A 1 x 1 problem is solved exactly by ``_interval_lp``.  A 2 x 2 problem
    goes first to ``_order_two``: a KKT pair that passes this method's
    stopping test at ``opts`` is CONVERGED with 0 iterations and a dual
    residual of 0, and where none passes the method iterates.  Neither
    exact solve consults ``accept``, ``start`` or the iteration budget, and
    both return ``Z = C - sum_k lam_k G_k``.  ``table``, read only at order
    2, is ``_order_two_table(C, G)`` built by the caller; it changes no bit.
    """
    r, p = C.shape[0], h.size
    if r == 1:
        return _interval_lp(float(C[0, 0]), G.reshape(p), h)
    if r == 2 and (exact := _order_two(C, G, h, opts.tol_primal, opts.tol_dual,
                                       table)) is not None:
        S, lam, residual = exact
        return _IpmOutcome("CONVERGED", S, lam, C - (lam @ G.reshape(p, 4)).reshape(2, 2), 0,
                           residual, 0.0)
    Gf = G.reshape(p, r * r)
    begun = None if start is None else _interior(C, Gf, h, *start)
    interior = begun is not None
    S, Z, w, lam = begun if interior else (np.eye(r), np.eye(r), np.ones(p), np.ones(p))
    hscale = 1.0 + math.sqrt(h @ h)
    cscale = 1.0 + math.sqrt(np.vdot(C, C))
    cap = min(IPM_ITERATIONS, opts.max_iterations)
    status = MAX_ITER
    it = 0
    while True:
        rp = h - Gf @ S.ravel() + w
        Rd = C - (lam @ Gf).reshape(r, r) - Z
        pobj, dobj = float(np.vdot(C, S)), float(h @ lam)
        res_p = math.sqrt(rp @ rp) / hscale
        res_d = math.sqrt(np.vdot(Rd, Rd)) / cscale
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        if res_p <= opts.tol_primal and res_d <= opts.tol_dual and gap <= opts.tol_dual:
            status = "CONVERGED"
            break
        if it == cap:
            break
        if it and accept is not None and accept(S):
            status = "ACCEPTED"
            break
        step = _ipm_step(G, Gf, S, Z, w, lam, rp, Rd)
        if step is None:
            break
        S, Z, w, lam = step
        it += 1
    taken = None if it == 0 else "interior" if interior else "identity"
    return _IpmOutcome(status, S, lam, Z, it, res_p, res_d, taken)


def _interior(C, Gf, h, S, lam):
    """``(S, Z, w, lam)`` at the given ``S`` and ``lam``, with ``w = G(S) - h``
    and ``Z = C - sum_k lam_k G_k``, or None unless ``S`` and ``Z`` are
    positive definite and ``w`` and ``lam`` positive."""
    r = S.shape[0]
    w = Gf @ S.ravel() - h
    Z = C - (lam @ Gf).reshape(r, r)
    if not (w.min(initial=math.inf) > 0.0 and lam.min(initial=math.inf) > 0.0
            and _eigvalsh(np.array((S, Z)), signature="d->d")[:, 0].min() > 0.0):
        return None
    return S, Z, w, lam


def _interval_lp(c: float, g: np.ndarray, h: np.ndarray) -> _IpmOutcome:
    """Minimize ``c s`` over ``s >= 0`` with ``g_k s >= h_k``: ``solve_face``
    at order 1, solved exactly.

    The feasible set is the interval from ``max(0, h_k / g_k)`` over the
    rows with ``g_k > 0`` to ``min h_k / g_k`` over those with ``g_k < 0``;
    a row with ``g_k = 0`` holds only when ``h_k <= 0``.  ``s`` is the lower
    end for ``c >= 0`` and the upper end for ``c < 0``, with status
    CONVERGED, 0 iterations and zero residuals; the binding row's multiplier
    is ``c / g_k`` and every other one 0 (all 0 when ``s = 0`` is bound by
    ``s >= 0`` alone), so ``Z = c - sum_k lam_k g_k >= 0`` and the gap
    ``c s - h^T lam`` is 0; the outcome carries that ``Z``.  An empty
    interval, or ``c < 0`` with no upper end, has no optimum: it returns
    MAX_ITER, as the iterated method does, at that method's starting point
    ``s = 1`` with infinite residuals (and ``Z = c``, all ``lam`` 0).
    """
    lam = np.zeros(h.size)
    ratio = np.divide(h, g, out=np.zeros(h.size), where=g != 0.0)
    low = np.where(g > 0.0, ratio, 0.0)
    high = np.where(g < 0.0, ratio, math.inf)
    lower, upper = float(low.max(initial=0.0)), float(high.min(initial=math.inf))
    if lower > upper or (h[g == 0.0] > 0.0).any() or (c < 0.0 and upper == math.inf):
        return _IpmOutcome(MAX_ITER, np.ones((1, 1)), lam, np.full((1, 1), c), 0, math.inf,
                           math.inf)
    if c < 0.0:
        k = int(high.argmin())
    elif c > 0.0 and lower > 0.0:
        k = int(low.argmax())
    else:
        k = None
    if k is not None:
        lam[k] = c / g[k]
    s = upper if c < 0.0 else lower
    return _IpmOutcome("CONVERGED", np.full((1, 1), s), lam, np.full((1, 1), c - lam @ g), 0,
                       0.0, 0.0)


@dataclass(frozen=True)
class _KktTable:
    """What the candidate pairs of an order-2 problem read of ``C`` and its
    rows ``G`` alone (``_order_two_table``), so that problems that differ
    only in ``h`` build it once.  The pairs ``(K, 3)`` run in the order of
    ``_pairs``; ``fresh`` is the slice of the two-row pairs, whose
    multipliers depend on ``h``."""

    cm: np.ndarray  # C as a 3-vector
    gm: np.ndarray  # the rows as 3-vectors, and a zero row p
    uu: np.ndarray  # one row: u u^T at each root, (2, p, 3)
    ug: np.ndarray  # one row: u^T G_j u at each root, (2, p)
    gj: np.ndarray  # two rows j < k: the rows j, (P, 3)
    gk: np.ndarray  # ... and the rows k
    gjw: np.ndarray  # ... weighted by _WEIGHTS
    gkw: np.ndarray
    mj: np.ndarray  # ... as 2 x 2 matrices, (P, 2, 2)
    mk: np.ndarray
    cmat: np.ndarray  # C as a 2 x 2 matrix
    adj: np.ndarray  # three rows: the adjugates, (T, 3, 3)
    det: np.ndarray  # ... and the determinants, (T, 1)
    lam: np.ndarray  # the multipliers, 0 on the two-row pairs, (K, 3)
    idx: np.ndarray  # the rows they belong to, p where unused, (K, 3)
    dual: np.ndarray  # the dual side of the check (_dual_side), False on the two-row pairs
    fresh: slice  # the two-row pairs


def _order_two_table(C: np.ndarray, G: np.ndarray) -> Optional[_KktTable]:
    """The table of ``_order_two`` for ``C`` and the rows ``G``, or None
    past ``MAX_ROWS`` rows: the one-row roots and null vectors, the pair
    and triple gathers, the three-row adjugates, determinants and
    multipliers, and the dual side of the check (``_dual_side``) of every
    pair whose multipliers do not involve ``h`` (see ``_pairs``).  Each
    entry is the array ``_order_two`` would compute, so reading it changes
    no bit."""
    p = len(G)
    if p > MAX_ROWS:
        return None
    gm = np.zeros((p + 1, 3))
    gm[:p] = G.reshape(p, 4)[:, _PACK]
    cm = C.ravel()[_PACK]
    gp = gm[:p]
    pair, triple = _PAIRS[:math.comb(p, 2)], _TRIPLES[:math.comb(p, 3)]
    with np.errstate(all="ignore"):  # a vanishing divisor leaves a non-finite pair
        # one row: det(C - lam G_j) = alpha lam^2 + beta lam + gamma, both roots
        a, b, c = gp.T
        alpha, gamma = a * b - c * c, cm[0] * cm[1] - cm[2] ** 2
        q = _half_root(alpha, 2.0 * cm[2] * c - cm[0] * b - cm[1] * a, gamma)
        lam1 = np.array((q / alpha, gamma / q))
        z = cm - lam1[..., None] * gp
        # the longer of Z's null vectors (Z_12, -Z_11) and (Z_22, -Z_12)
        u = np.where((np.abs(z[..., 0]) >= np.abs(z[..., 1]))[..., None],
                     z.take(_NULL_A, -1), z.take(_NULL_B, -1))
        u[..., 1] *= -1.0
        uu = u.take(_LEFT, -1) * u.take(_RIGHT, -1)
        ug = np.einsum("rjc,jc->rj", uu, gp * _WEIGHTS)

        gj, gk = gm.take(pair[:, 0], 0), gm.take(pair[:, 1], 0)

        # three rows: row r of adj is G_{r+1} x G_{r+2} of the triple, as 3-vectors
        m = gm.take(triple, 0)
        after, last = m.take(_NEXT, 1), m.take(_LAST, 1)
        adj = (after.take(_NEXT, 2) * last.take(_LAST, 2)
               - after.take(_LAST, 2) * last.take(_NEXT, 2))
        det = np.einsum("ic,ic->i", m[:, 0], adj[:, 0])[:, None]
        lam3 = adj @ cm / det

        n1, n2 = 1 + 2 * p, 1 + 2 * p + 2 * len(pair)
        k = n2 + len(triple)
        idx = np.full((k, 3), p)
        lam = np.zeros((k, 3))
        idx[1:n1, 0], lam[1:n1, 0] = np.concatenate((_ROWS[:p], _ROWS[:p])), lam1.ravel()
        idx[n1:n2, :2] = np.concatenate((pair, pair))
        idx[n2:], lam[n2:] = triple, lam3
        dual = _dual_side(cm, gm, lam, idx)
        dual[n1:n2] = False
        table = _KktTable(cm, gm, uu, ug, gj, gk, gj * _WEIGHTS, gk * _WEIGHTS,
                          gj.take(_UNPACK, 1).reshape(-1, 2, 2),
                          gk.take(_UNPACK, 1).reshape(-1, 2, 2), cm.take(_UNPACK).reshape(2, 2),
                          adj, det, lam, idx, dual, slice(n1, n2))
    for v in vars(table).values():
        if isinstance(v, np.ndarray):
            v.flags.writeable = False
    return table


def _order_two(C: np.ndarray, G: np.ndarray, h: np.ndarray, tol_primal: float,
               tol_dual: float, table: Optional[_KktTable] = None,
               ) -> Optional[Tuple[np.ndarray, np.ndarray, float]]:
    """``(S, lam, residual_primal)`` of the least ``<C, S>`` among the
    candidate pairs (``_pairs``) that pass ``_check`` at the given
    tolerances, or None: when none passes, or the problem has more than
    ``MAX_ROWS`` rows.  ``residual_primal`` is the interior-point method's,
    the norm of ``max(h - G(S), 0)`` relative to ``1 + |h|``; its dual
    residual is 0, since ``Z`` is defined by ``lam``.  ``table`` is
    ``_order_two_table(C, G)``, built here when not given.
    """
    p = h.size
    if p > MAX_ROWS:
        return None
    if table is None:
        table = _order_two_table(C, G)
    cm, gm = table.cm, table.gm
    # h, and a zero entry p that the unused slots of a pair point at
    hz = np.zeros(p + 1)
    hz[:p] = h
    with np.errstate(all="ignore"):  # a vanishing divisor leaves a non-finite pair
        S, lam = _pairs(table, hz)
        ok = _check(cm, gm, hz, S, lam, table.idx, tol_primal, tol_dual, table.dual,
                    table.fresh)
    passed = np.flatnonzero(ok)
    if not passed.size:
        return None
    best = passed[(S[passed] @ (cm * _WEIGHTS)).argmin()]
    s = S[best]
    rp = np.maximum(h - gm[:p] @ (s * _WEIGHTS), 0.0)
    out = np.zeros(p + 1)
    out[table.idx[best]] = lam[best]
    return s[_UNPACK].reshape(2, 2), out[:p], math.sqrt(rp @ rp) / (1.0 + math.sqrt(h @ h))


def _pairs(t: _KktTable, hz: np.ndarray):
    """Every candidate pair of the table ``t`` at the right-hand side ``hz``:
    ``S`` as 3-vectors, stacked ``(K, 3)``, and ``lam`` as at most three
    values per pair, ``(K, 3)``, for the rows ``t.idx`` (an unused slot
    holds 0 and the zero row p):

    - ``S = 0`` with ``lam = 0``;
    - one active row j: each real root ``lam_j`` of
      ``det(C - lam_j G_j) = 0``, and ``S = t u u^T`` with ``u`` spanning
      null(Z) and ``t = h_j / u^T G_j u``;
    - two active rows j, k: the rank-one ``S = t v v^T`` on the line where
      both hold (the roots of ``det S = 0`` there), whose ``v`` solves
      ``v^T (h_j G_k - h_k G_j) v = 0``, and ``lam`` from ``Z v = 0``;
    - three active rows: ``S`` where all three hold, and ``lam`` from
      ``C = sum_k lam_k G_k``, both by Cramer's rule.

    Only ``S`` and the two-row multipliers depend on ``h``; the rest is
    read from the table.  Each quadratic is solved in the cancellation-free
    form (``_half_root``), which stays exact where it degenerates to a
    linear one: the line of two sign rows is often rank one.
    """
    p = hz.size - 1
    pair, triple = _PAIRS[:math.comb(p, 2)], _TRIPLES[:math.comb(p, 3)]
    s1 = t.uu * (hz[:p] / t.ug)[..., None]

    # two rows: v^T W v = 0 for W = h_j G_k - h_k G_j at v = (q, W_11) and (W_22, q)
    hj, hk = hz.take(pair[:, 0]), hz.take(pair[:, 1])
    W = hj[:, None] * t.gk - hk[:, None] * t.gj
    q = _half_root(W[:, 0], 2.0 * W[:, 2], W[:, 1])
    v = np.array(((q, W[:, 0]), (W[:, 1], q))).transpose(0, 2, 1)
    vv = v.take(_LEFT, -1) * v.take(_RIGHT, -1)
    # t fits both rows, which agree by the choice of v
    tj = np.einsum("rpc,pc->rp", vv, t.gjw)
    tk = np.einsum("rpc,pc->rp", vv, t.gkw)
    s2 = vv * ((hj * tj + hk * tk) / (tj * tj + tk * tk))[..., None]
    # lam from C v = lam_j G_j v + lam_k G_k v, by Cramer's rule
    vj = (t.mj @ v[..., None])[..., 0]
    vk = (t.mk @ v[..., None])[..., 0]
    vc = v @ t.cmat
    lam2 = np.array((_cross2(vc, vk), _cross2(vj, vc))) / _cross2(vj, vk)

    # three rows: the adjugate of the g rows is adj scaled by (2, 2, 1), their determinant 2 det
    s3 = (hz.take(triple)[:, None] @ t.adj)[:, 0] * (1.0, 1.0, 0.5) / t.det

    # in order: S = 0, the first root of every row then the second, the pairs alike, the triples
    S = np.concatenate((np.zeros((1, 3)), s1.reshape(-1, 3), s2.reshape(-1, 3), s3))
    lam = t.lam.copy()
    lam[t.fresh, :2] = lam2.transpose(1, 2, 0).reshape(-1, 2)
    return S, lam


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a_0 b_1 - a_1 b_0`` over the last axis."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _half_root(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``q = -(b + sign(b) sqrt(b^2 - 4 a c)) / 2``, so that ``q / a`` and
    ``c / q`` are the roots of ``a t^2 + b t + c`` without cancellation, and
    ``c / q`` is the root of the linear remainder where ``a`` vanishes.  A
    negative discriminant is read as 0."""
    return -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)), b))


def _dual_side(cm: np.ndarray, gm: np.ndarray, lam: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Which pairs pass the dual side of ``_check``: ``lam >= 0`` and ``Z``
    PSD up to ``64 eps (1 + |C|_max + sum_k |lam_k| |G_k|_max)``."""
    eps = sys.float_info.epsilon
    Z = cm - np.einsum("ij,ijc->ic", lam, gm.take(idx, 0))
    zscale = 1.0 + np.abs(cm).max() + np.einsum("ij,ij->i", np.abs(lam),
                                                 np.abs(gm).max(axis=1).take(idx))
    return (lam >= 0.0).all(axis=1) & (_least_eigenvalue(Z) >= -64.0 * eps * zscale)


def _check(cm: np.ndarray, gm: np.ndarray, hz: np.ndarray, S: np.ndarray, lam: np.ndarray,
           idx: np.ndarray, tol_primal: float, tol_dual: float, dual: np.ndarray,
           fresh: slice) -> np.ndarray:
    """Which pairs pass: the interior-point method's stopping rule at the
    given tolerances, with slacks ``w = max(G(S) - h, 0)``, and feasibility
    to rounding, not to ``tol_dual``: ``S`` PSD up to ``64 eps |S|_max``
    and the dual side (``_dual_side``), which ``dual`` holds for every pair
    but those of the slice ``fresh``, checked here.  A problem with no
    optimum can have a pair within ``tol_dual`` of dual feasibility; the
    strict test turns it down."""
    eps = sys.float_info.epsilon
    dual = dual.copy()
    dual[fresh] = _dual_side(cm, gm, lam[fresh], idx[fresh])
    ok = (np.isfinite(S).all(axis=1) & dual
          & (_least_eigenvalue(S) >= -64.0 * eps * np.abs(S).max(axis=1)))
    feasible = np.flatnonzero(ok)
    s, h = S[feasible] * _WEIGHTS, hz[:-1]
    rp = np.maximum(h - s @ gm[:-1].T, 0.0)
    res_p = np.sqrt(np.einsum("ij,ij->i", rp, rp)) / (1.0 + math.sqrt(h @ h))
    pobj = s @ cm
    dobj = np.einsum("ij,ij->i", lam[feasible], hz.take(idx[feasible]))
    gap = np.abs(pobj - dobj) / (1.0 + np.abs(pobj) + np.abs(dobj))
    ok[feasible] = (res_p <= tol_primal) & (gap <= tol_dual)
    return ok


def _least_eigenvalue(m: np.ndarray) -> np.ndarray:
    """The least eigenvalue of each symmetric 2 x 2 matrix ``(M_11, M_22, M_12)``."""
    return 0.5 * (m[:, 0] + m[:, 1]) - np.hypot(0.5 * (m[:, 0] - m[:, 1]), m[:, 2])


def _steps_to_boundary(roots: np.ndarray, dS, dZ, w, dw, lam, dlam) -> np.ndarray:
    """The largest primal and dual steps, each at most 1, keeping ``S + t dS``
    and ``Z + t dZ`` PSD and ``w + t dw`` and ``lam + t dlam`` nonnegative,
    from the least relative changes: the eigenvalues of ``roots dS roots^T``
    (``roots`` the inverse square-root factors of ``S`` and ``Z``) and ``dw / w``."""
    least = _eigvalsh(roots @ np.array((dS, dZ)) @ roots.transpose(0, 2, 1),
                      signature="d->d")[:, 0]
    least = np.minimum(least, (np.array((dw, dlam)) / np.array((w, lam))).min(
        axis=1, initial=np.inf))
    return 1.0 / np.maximum(-least, 1.0)


def _ipm_step(G, Gf, S, Z, w, lam, rp, Rd):
    """One predictor-corrector step from ``(S, Z, w, lam)``, or None.

    The Schur matrix is inverted by the eigh pseudo-inverse of ``solve_face``:
    one ``_eigh`` call, then one scaled product of its eigenvectors."""
    r, p = S.shape[0], w.size
    eps = sys.float_info.epsilon
    values, vectors = _eigh(np.array((S, Z)), signature="d->dd")
    if not values[:, 0].min() > 0.0:
        return None
    # F^-1 with F F^T = S and with F F^T = Z, one eigenvector per row
    roots = (vectors / np.sqrt(values)[:, None, :]).transpose(0, 2, 1)
    Zi = roots[1].T @ roots[1]
    ratio = w / lam
    H = (S @ G @ Zi).reshape(p, r * r)
    M = Gf @ H.T
    M.flat[::p + 1] += ratio
    if not np.isfinite(M).all():
        return None
    if p:
        values, vectors = _eigh(M, signature="d->dd")
        cut = eps * p * max(-values[0], values[-1])
        M_inv = (vectors * np.divide(1.0, values, out=np.zeros(p),
                                     where=np.abs(values) > cut)) @ vectors.T
    else:
        M_inv = M
    E = (-S - S @ Rd @ Zi).ravel()

    def direction(base, slack):
        # base = E + T Z^-1 and slack = t / lam - w (see solve_face)
        dlam = M_inv @ (rp - Gf @ base + slack)
        dlam = dlam + M_inv @ (rp - Gf @ (base + dlam @ H) + slack - ratio * dlam)
        dS = (base + dlam @ H).reshape(r, r)
        return 0.5 * (dS + dS.T), Rd - (dlam @ Gf).reshape(r, r), slack - ratio * dlam, dlam

    mu = (float(np.vdot(S, Z)) + float(w @ lam)) / (r + p)
    dS, dZ, dw, dlam = direction(E, -w)
    a_p, a_d = _steps_to_boundary(roots, dS, dZ, w, dw, lam, dlam)
    mu_aff = (float(np.vdot(S + a_p * dS, Z + a_d * dZ))
              + float((w + a_p * dw) @ (lam + a_d * dlam))) / (r + p)
    sigma = (mu_aff / mu) ** 3 if mu > 0.0 else 0.0
    T = sigma * mu * np.eye(r) - dS @ dZ
    dS, dZ, dw, dlam = direction(E + (T @ Zi).ravel(), (sigma * mu - dw * dlam) / lam - w)
    # one step length for both sides keeps the primal residual falling with mu
    step = 0.99 * _steps_to_boundary(roots, dS, dZ, w, dw, lam, dlam).min()
    if not step > 0.0:
        return None
    new = np.concatenate((S.ravel(), Z.ravel(), w, lam)) + step * np.concatenate(
        (dS.ravel(), dZ.ravel(), dw, dlam))
    # without an optimum the iterates run off to infinity: stop them long
    # before they overflow (a NaN fails the test too)
    if not np.abs(new).max() < 1.0 / eps:
        return None
    k = 2 * r * r
    return (*new[:k].reshape(2, r, r), new[k:k + p], new[k + p:])
