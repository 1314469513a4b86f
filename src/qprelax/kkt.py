"""Exact solves of the face problems of order 2.

``conic._face_ipm`` minimizes ``<C, S>`` over ``S`` positive semidefinite
with rows ``<G_k, S> >= h_k``.  At order 2, ``S`` is a point of a rotated
second-order cone in three coordinates (Alizadeh & Goldfarb, Math. Prog.
2003), and the KKT system ``S Z = 0``, ``Z = C - sum_k lam_k G_k``, has
finitely many candidate pairs ``(S, lam)``, each fixed by at most three
active rows.  ``order_two`` builds them all at once, vectorized over the
rows, pairs and triples of rows, and returns the least-valued pair that
passes ``_check``; where none does, the interior-point method takes the
problem.  A symmetric 2 x 2 matrix is the 3-vector ``(M_11, M_22, M_12)``
throughout, and a row reads ``g_k . s >= h_k`` with
``g_k = (G_11, G_22, 2 G_12)``.
"""

from __future__ import annotations

import math
import sys
from typing import Optional, Tuple

import numpy as np

#: Rows above which ``order_two`` leaves a problem to the interior-point
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


def order_two(C: np.ndarray, G: np.ndarray, h: np.ndarray, tol_primal: float,
              tol_dual: float) -> Optional[Tuple[np.ndarray, np.ndarray, float]]:
    """``(S, lam, residual_primal)`` of the least ``<C, S>`` among the
    candidate pairs (``_pairs``) that pass ``_check`` at the given
    tolerances, or None: when none passes, or the problem has more than
    ``MAX_ROWS`` rows.  ``residual_primal`` is the interior-point method's,
    the norm of ``max(h - G(S), 0)`` relative to ``1 + |h|``; its dual
    residual is 0, since ``Z`` is defined by ``lam``.
    """
    p = h.size
    if p > MAX_ROWS:
        return None
    # the rows, and a zero row p that the unused slots of a pair point at
    gm = np.zeros((p + 1, 3))
    gm[:p] = G.reshape(p, 4)[:, _PACK]
    hz = np.zeros(p + 1)
    hz[:p] = h
    cm = C.ravel()[_PACK]
    with np.errstate(all="ignore"):  # a vanishing divisor leaves a non-finite pair
        S, lam, idx = _pairs(cm, gm, hz)
        ok = _check(cm, gm, hz, S, lam, idx, tol_primal, tol_dual)
    passed = np.flatnonzero(ok)
    if not passed.size:
        return None
    best = passed[(S[passed] @ (cm * _WEIGHTS)).argmin()]
    s = S[best]
    rp = np.maximum(h - gm[:p] @ (s * _WEIGHTS), 0.0)
    out = np.zeros(p + 1)
    out[idx[best]] = lam[best]
    return s[_UNPACK].reshape(2, 2), out[:p], math.sqrt(rp @ rp) / (1.0 + math.sqrt(h @ h))


def _pairs(cm: np.ndarray, gm: np.ndarray, hz: np.ndarray):
    """Every candidate pair: ``S`` as 3-vectors, stacked ``(K, 3)``, and
    ``lam`` as at most three values per pair with the rows they belong to
    (``(K, 3)`` each; an unused slot holds 0 and the zero row p):

    - ``S = 0`` with ``lam = 0``;
    - one active row j: each real root ``lam_j`` of
      ``det(C - lam_j G_j) = 0``, and ``S = t u u^T`` with ``u`` spanning
      null(Z) and ``t = h_j / u^T G_j u``;
    - two active rows j, k: the rank-one ``S = t v v^T`` on the line where
      both hold (the roots of ``det S = 0`` there), whose ``v`` solves
      ``v^T (h_j G_k - h_k G_j) v = 0``, and ``lam`` from ``Z v = 0``;
    - three active rows: ``S`` where all three hold, and ``lam`` from
      ``C = sum_k lam_k G_k``, both by Cramer's rule.

    Each quadratic is solved in the cancellation-free form (``_half_root``),
    which stays exact where it degenerates to a linear one: the line of two
    sign rows is often rank one.
    """
    p = hz.size - 1
    gp, hp = gm[:p], hz[:p]
    pair, triple = _PAIRS[:math.comb(p, 2)], _TRIPLES[:math.comb(p, 3)]

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
    s1 = uu * (hp / np.einsum("rjc,jc->rj", uu, gp * _WEIGHTS))[..., None]

    # two rows: v^T W v = 0 for W = h_j G_k - h_k G_j at v = (q, W_11) and (W_22, q)
    gj, gk = gm.take(pair[:, 0], 0), gm.take(pair[:, 1], 0)
    hj, hk = hz.take(pair[:, 0]), hz.take(pair[:, 1])
    W = hj[:, None] * gk - hk[:, None] * gj
    q = _half_root(W[:, 0], 2.0 * W[:, 2], W[:, 1])
    v = np.array(((q, W[:, 0]), (W[:, 1], q))).transpose(0, 2, 1)
    vv = v.take(_LEFT, -1) * v.take(_RIGHT, -1)
    # t fits both rows, which agree by the choice of v
    tj = np.einsum("rpc,pc->rp", vv, gj * _WEIGHTS)
    tk = np.einsum("rpc,pc->rp", vv, gk * _WEIGHTS)
    s2 = vv * ((hj * tj + hk * tk) / (tj * tj + tk * tk))[..., None]
    # lam from C v = lam_j G_j v + lam_k G_k v, by Cramer's rule
    vj = (gj.take(_UNPACK, 1).reshape(-1, 2, 2) @ v[..., None])[..., 0]
    vk = (gk.take(_UNPACK, 1).reshape(-1, 2, 2) @ v[..., None])[..., 0]
    vc = v @ cm.take(_UNPACK).reshape(2, 2)
    lam2 = np.array((_cross2(vc, vk), _cross2(vj, vc))) / _cross2(vj, vk)

    # three rows: row r of adj is G_{r+1} x G_{r+2} of the triple, as 3-vectors
    m = gm.take(triple, 0)
    after, last = m.take(_NEXT, 1), m.take(_LAST, 1)
    adj = after.take(_NEXT, 2) * last.take(_LAST, 2) - after.take(_LAST, 2) * last.take(_NEXT, 2)
    det = np.einsum("ic,ic->i", m[:, 0], adj[:, 0])[:, None]
    lam3 = adj @ cm / det
    # the adjugate of the g rows is adj scaled by (2, 2, 1), their determinant 2 det
    s3 = (hz.take(triple)[:, None] @ adj)[:, 0] * (1.0, 1.0, 0.5) / det

    # in order: S = 0, the first root of every row then the second, the pairs alike, the triples
    n1, n2 = 1 + 2 * p, 1 + 2 * p + 2 * len(pair)
    S = np.concatenate((np.zeros((1, 3)), s1.reshape(-1, 3), s2.reshape(-1, 3), s3))
    idx = np.full(S.shape, p)
    lam = np.zeros(S.shape)
    idx[1:n1, 0], lam[1:n1, 0] = np.concatenate((_ROWS[:p], _ROWS[:p])), lam1.ravel()
    idx[n1:n2, :2] = np.concatenate((pair, pair))
    lam[n1:n2, :2] = lam2.transpose(1, 2, 0).reshape(-1, 2)
    idx[n2:], lam[n2:] = triple, lam3
    return S, lam, idx


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a_0 b_1 - a_1 b_0`` over the last axis."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _half_root(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``q = -(b + sign(b) sqrt(b^2 - 4 a c)) / 2``, so that ``q / a`` and
    ``c / q`` are the roots of ``a t^2 + b t + c`` without cancellation, and
    ``c / q`` is the root of the linear remainder where ``a`` vanishes.  A
    negative discriminant is read as 0."""
    return -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)), b))


def _check(cm: np.ndarray, gm: np.ndarray, hz: np.ndarray, S: np.ndarray, lam: np.ndarray,
           idx: np.ndarray, tol_primal: float, tol_dual: float) -> np.ndarray:
    """Which pairs pass: the interior-point method's stopping rule at the
    given tolerances, with slacks ``w = max(G(S) - h, 0)``, and feasibility
    to rounding, not to ``tol_dual``: ``lam >= 0``, ``S`` PSD up to
    ``64 eps |S|_max`` and ``Z`` PSD up to
    ``64 eps (1 + |C|_max + sum_k |lam_k| |G_k|_max)``.  A problem with no
    optimum can have a pair within ``tol_dual`` of dual feasibility; the
    strict test turns it down."""
    eps = sys.float_info.epsilon
    Z = cm - np.einsum("ij,ijc->ic", lam, gm.take(idx, 0))
    zscale = 1.0 + np.abs(cm).max() + np.einsum("ij,ij->i", np.abs(lam),
                                                 np.abs(gm).max(axis=1).take(idx))
    ok = (np.isfinite(S).all(axis=1) & (lam >= 0.0).all(axis=1)
          & (_least_eigenvalue(Z) >= -64.0 * eps * zscale)
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
