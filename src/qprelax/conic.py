"""Interior-point solvers for the lifted conic relaxations.

The lifted problems minimize a linear objective over the intersection of an
affine slice with a matrix cone.  Every feasible ``Y`` of either lift lies
on a face ``{V S V^T : S positive semidefinite}`` of the PSD cone, so each
problem that no closed form decides (below) is solved on such a face by one
primal-dual interior-point method, ``_face_ipm``: minimize ``<C, S>`` over
``S`` PSD with rows ``<G_k, S> >= h_k``, by the HKM direction (Helmberg,
Rendl, Vanderbei & Wolkowicz 1996) with Mehrotra's predictor-corrector
(1992).  It stops at the requested tolerances, or returns MAX_ITER after
``IPM_ITERATIONS`` iterations.  Three problems run it:

- the unpinned solve: ``V`` spans null(rows), ``C = V^T qhat V``, the rows
  are the sign rows ``(V S V^T)_ij >= 0`` (every pair ``i < j`` for DNN,
  the pairs ``(0, j)`` for PSD0), and ``Y_00 = 1`` is the row pair
  ``<v0 v0^T, S> >= 1``, ``<-v0 v0^T, S> >= -1``;
- the pinned DNN solve (below);
- the DNN OBJECTIVE certificate search (below).

The consensus splitting loop ``_consensus`` (with its Anderson
acceleration, adaptive penalty and active-face polisher ``_Polisher``) is
still defined here with its constants, but nothing calls it: the tracer
under ``perfbench/`` wraps ``_consensus`` and ``_Polisher.attempt`` by
name, and its kernel baseline calls only the ``numerics`` projections.

Unboundedness is decided by a certificate pre-pass, the OBJECTIVE
certificate search, rather than by watching the objective diverge: a
nonzero cone matrix with zero corner, zero constraint value, and negative
objective rate is an independently checkable proof that the relaxation
value is minus infinity.  Every such matrix is
``B S B^T`` with ``S`` positive semidefinite, where ``B`` spans null(A) in
the trailing coordinates, so for PSD0 the minimum rate is the least
eigenvalue of ``B^T qhat B``: PSD0 is unbounded exactly when Q fails the
curvature condition on null(A) (Burer, Math. Prog. 2009), and its search
is one eigendecomposition with no loop.  DNN certificates are a subset, so
the same eigenvalue screens the DNN search, and so does the exact test for
a recession direction ``d >= 0``, ``A d = 0``, ``d != 0`` of the
polyhedron, without which the DNN certificate set is empty.  Given one,
``[0; d] [0; d]^T / |d|^2`` is a DNN certificate, so a feasibility search
needs no solve.  A DNN objective search that neither screen settles runs
the interior-point method with ``C = B^T qhat B``, the sign rows
``(B S B^T)_ij >= 0`` and ``tr S <= 1`` as the row ``<-I, S> >= -1``.  The
rate is linear in ``S``, so that minimum is exactly the least unit-trace
rate when it is negative, and 0 otherwise.  A rate below the threshold
puts every optimum at trace 1, so a converged ``S`` of trace below 1/2
reads NONE without dividing by its trace; any other is graded as the
candidate ``B S B^T / tr S``.  The search keeps the least eigenvalue of
``B^T qhat B``, the curvature of Q on null(A), which also decides the
closed forms below.
Pinning the 0th row does not change the recession cone, so the plain and
the pinned solves share one pre-pass, kept and reused across consecutive
calls with the same instance, cone and options.

For a feasible anchor ``x`` and ``z = [1; x]``, the pinned feasible set of
both lifts is ``{z z^T + [0 0; 0 N S N^T] : S positive semidefinite}``
intersected with
the cone, where ``N`` is the orthonormal basis of null(A) (``X - x x^T`` is
positive semidefinite with columns in null(A)), and on it the objective is
``q(x) + <N^T Q N, S>``.  When the least eigenvalue of ``N^T Q N`` is at
or above ``-TOL_CURVATURE * max(1, |Q|_max)``, the pinned value of both
cones is ``q(x)``, attained at ``z z^T``, which lies in both cones; it is
returned with 0 iterations.  Below that threshold PSD0's value is minus
infinity, along ``S = t u u^T`` for the least eigenvector ``u``: its
pre-pass certificate says so, and where that certificate fails
verification the solve returns MAX_ITER with 0 iterations, since the
value has no checked proof.  A DNN anchor below the threshold with no DNN
certificate from the pre-pass keeps its sign rows: it minimizes
``<N^T Q N, S>`` over ``S`` positive semidefinite with
``(x x^T + N S N^T)_ij >= 0`` for ``i < j``, an ``r x r`` LMI with
``r = dim null(A)`` and no equality constraint left.  The diagonal rows
follow from ``S`` PSD, and a row that is identically zero is dropped
(``_sign_rows``).  The interior-point method solves it; the result's
``iterations`` and residuals are its own,
and its point ``z z^T + [0 0; 0 N S N^T]`` is gated by
``validate_lifted_point`` like every OPTIMAL point.  The method's dual
``(Z, lam)`` bounds the pinned value below by
``q(x) - sum_ij lam_ij x_i x_j``, up to its dual residual.

The unpinned solves have the same closed form.  Every feasible point of
either lift has ``X - x x^T = N S N^T`` with ``S`` positive semidefinite, so
its objective is ``q(x) + <N^T Q N, S>``, at least ``q(x)`` at the same
threshold.  Both relaxations then equal the minimum of q over the
polyhedron (Burer, Math. Prog. 2009), attained at ``z z^T`` with
``z = [1; x*]``.  ``solve_relaxation`` finds ``x*`` with a primal
active-set method (``_convex_qp``) started at the basic feasible point of
its emptiness test, and returns ``z z^T`` as OPTIMAL with 0 iterations
once ``x*`` passes the raw-data first-order check
(``oracle.first_order_certificate``, whose multipliers prove a global
minimum of a q convex on the affine hull) and ``validate_lifted_point``.
The result carries the multipliers as ``kkt``.  When the method instead
meets a descent direction of zero curvature that no bound blocks, q and
both relaxations are unbounded below: the solve returns UNBOUNDED with 0
iterations and the ray ``(x0, d)`` as ``ray``, once
``oracle.verify_ray_certificate`` accepts it.  No lifted recession
certificate exists there, since the rate ``d^T Q d`` is 0.  Where a check
fails, or the method reaches ``ACTIVE_SET_STEPS``, the solve runs the
interior-point method, whose point is gated like the pinned one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .core import (
    CONES,
    DNN,
    FEAS_TOL,
    PSD0,
    TOL_CURVATURE,
    LiftedPoint,
    LiftedProblem,
    QpInstance,
    ValidationReport,
    _frozen_array,
    cone_violation,
    feasibility_residual,
    lift_instance,
    validate_lifted_point,
)
from .errors import NonFinite, PointInfeasible
from .numerics import (
    RANK_TOL,
    FaceProjector,
    _eigh,
    _eigvalsh,
    _lstsq,
    certificate_basis,
    nullspace_basis,
)
from .oracle import (
    KktCertificate,
    RayCertificate,
    RayCheck,
    _feasible_point,
    _recession_slice,
    first_order_certificate,
    verify_ray_certificate,
)

OPTIMAL = "OPTIMAL"
UNBOUNDED = "UNBOUNDED"
INFEASIBLE = "INFEASIBLE"
MAX_ITER = "MAX_ITER"

OBJECTIVE = "OBJECTIVE"
FEASIBILITY = "FEASIBILITY"

FOUND = "FOUND"
NONE = "NONE"
INCONCLUSIVE = "INCONCLUSIVE"

#: An OBJECTIVE search reports FOUND only for rates below ``-TOL_CERTIFICATE``
#: (DNN), or below ``-TOL_CURVATURE * max(1, |Q|_max)`` (PSD0, whose rate is
#: an exact eigenvalue; ``core.TOL_CURVATURE``, the tolerance of
#: ``analysis.check_psd_on_nullspace``).
TOL_CERTIFICATE = 1e-6

#: Working-set changes a closed-form convex solve may make before it gives
#: way to the interior-point method (``_convex_qp``).
ACTIVE_SET_STEPS = 200

#: Iterations an interior-point solve or DNN search may take before it
#: returns MAX_ITER (``_face_ipm``), or ``SolveOptions.max_iterations`` if
#: fewer.
IPM_ITERATIONS = 50

# The constants below belong to the consensus loop ``_consensus``, which no
# solve runs any more (see the module docstring).

#: Initial penalty, over-relaxation factor, and the iteration interval at
#: which the penalty is rebalanced between the primal and dual residuals.
PENALTY = 1.0
OVER_RELAXATION = 1.6
ADAPT_INTERVAL = 50

#: A loop given a polisher attempts an exact active-face solve every
#: ``POLISH_INTERVAL`` iterations and accepts only candidates whose duality
#: gap is within ``POLISH_GAP_TOL`` relative.
POLISH_INTERVAL = 500
POLISH_GAP_TOL = 1e-7

#: Anderson acceleration of the loop: differences kept, the Tikhonov term
#: added to each diagonal entry of the Gram matrix relative to that entry,
#: and the longest extrapolation taken, relative to the plain step
#: ``|T(x) - x|``.
ANDERSON_MEMORY = 10
ANDERSON_REGULARIZATION = 1e-10
ANDERSON_MAX_JUMP = 1e3

#: A solve loop stops once both relative residuals are below ``STOP_MARGIN``
#: times the requested tolerances, or at iteration 2j with the last image
#: that met the requested ones, when it first met them at iteration j.  A
#: certificate search's loop (``margin=1.0``) stops at the requested ones.
STOP_MARGIN = 0.01

#: LAPACK's general solver (``numpy.linalg.solve`` without its wrapper);
#: called with ``signature="dd->d"`` on a regularized Gram matrix.
_solve = _umath_linalg.solve1


@dataclass(frozen=True)
class SolveOptions:
    """Iteration budget and residual tolerances of the interior-point method,
    which stops at ``IPM_ITERATIONS`` when ``max_iterations`` is larger.  The
    consensus loop, which no solve runs, reads the same fields."""

    max_iterations: int = 200_000
    tol_primal: float = 1e-7
    tol_dual: float = 1e-7

    def __post_init__(self):
        if min(self.max_iterations, self.tol_primal, self.tol_dual) <= 0:
            raise ValueError("iteration and tolerance options must be positive")


@dataclass(frozen=True)
class RecessionCertificate:
    """A direction proving the lifted feasible set unbounded.

    ``d`` is trace-normalized, lies in the requested cone, has zero corner
    entry and zero constraint value; a negative ``objective_rate`` proves
    the relaxation value is minus infinity.
    """

    d: np.ndarray
    objective_rate: float
    trace_norm: float
    cone: str

    def __post_init__(self):
        # read-only: the pinned pre-pass hands one certificate to many results
        object.__setattr__(self, "d", _frozen_array(self.d))


@dataclass(frozen=True)
class CertificateCheck:
    """Independent re-verification of a certificate from raw instance data."""

    ok: bool
    cone_violation: float
    corner: float
    affine_residual: float
    trace_error: float
    objective_rate: float
    tolerance: float


@dataclass(frozen=True)
class CertificateSearch:
    """Outcome of a recession-certificate search.

    ``status`` is FOUND, NONE (no certificate: the certificate set is
    empty, or the best rate is above the threshold), or INCONCLUSIVE (no
    verdict within the iteration budget, or a candidate that failed
    verification).  ``check`` is the verification of the graded candidate,
    None when no candidate was graded.  ``curvature`` is the curvature of Q
    on null(A), ``+inf`` on a trivial face and NaN in FEASIBILITY mode.
    """

    status: str
    certificate: Optional[RecessionCertificate]
    iterations: int
    residual: float
    reason: str = ""
    check: Optional[CertificateCheck] = None
    curvature: float = math.nan


@dataclass(frozen=True)
class RelaxationResult:
    """Result of a lifted relaxation solve.

    ``value`` uses +inf / -inf sentinels for INFEASIBLE and UNBOUNDED; an
    OPTIMAL result carries the lifted point and its validation report, an
    UNBOUNDED result carries the verified certificate.  The closed-form
    convex solve fills ``kkt`` (the multipliers of its OPTIMAL point) or
    ``ray`` and ``ray_check`` (its UNBOUNDED ray of the original QP, in
    place of a lifted ``certificate``).
    """

    status: str
    value: float
    point: Optional[LiftedPoint]
    residual_primal: float
    residual_dual: float
    iterations: int
    certificate: Optional[RecessionCertificate] = None
    validation: Optional[ValidationReport] = None
    polished: bool = False
    kkt: Optional[KktCertificate] = None
    ray: Optional[RayCertificate] = None
    ray_check: Optional[RayCheck] = None


# ---------------------------------------------------------------------------
# active-face polishing of the consensus loop


@lru_cache(maxsize=None)
def _strict_triu(r: int):
    """``np.triu_indices(r, k=1)`` as read-only arrays, built once per order."""
    rows, cols = np.triu_indices(r, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _pack_design(m: np.ndarray) -> np.ndarray:
    """Row of the reduced system for <m, S> with S in packed symmetric form."""
    diag = np.diag(m)
    off = 2.0 * m[_strict_triu(m.shape[0])]
    return np.concatenate([diag, off])


def _unpack_sym(v: np.ndarray, r: int) -> np.ndarray:
    s = np.zeros((r, r))
    s[np.diag_indices(r)] = v[:r]
    rows, cols = _strict_triu(r)
    s[rows, cols] = v[r:]
    s[cols, rows] = v[r:]
    return s


class _Polisher:
    """Predict the optimal face and solve it exactly with a gap certificate.

    Works in the reduced coordinates of the constraint face, where strict
    feasibility is restored and the dual of the reduced problem is
    attained, so a fitted dual slack can actually close the gap.
    """

    def __init__(self, lp: LiftedProblem, projector, cone: str):
        self.lp = lp
        self.cone = cone
        self.basis = projector.basis  # k x r0, orthonormal
        self.mats = projector.matrices  # reduced constraint matrices
        self.rhs = np.asarray(projector.rhs, dtype=float)
        self.k = lp.n + 1
        self.qred = self.basis.T @ lp.qhat @ self.basis
        self.qscale = max(1.0, float(np.abs(self.qred).max()))
        # a PSD constraint matrix with zero right-hand side forces the
        # optimal range out of its own range; deflate predicted faces by it
        deflate = []
        for g, b in zip(self.mats, self.rhs):
            if b == 0.0:
                w, vv = np.linalg.eigh(g)
                gmax = float(np.abs(w).max(initial=0.0))
                if gmax > 0 and w[0] >= -1e-12 * gmax:
                    deflate.append(vv[:, w > 1e-12 * gmax])
        if deflate:
            stack = np.hstack(deflate)
            qmat, _ = np.linalg.qr(stack)
            self._deflate = qmat
        else:
            self._deflate = None

    def _refine_face(self, U: np.ndarray) -> Optional[np.ndarray]:
        if self._deflate is None:
            return U
        proj = U - self._deflate @ (self._deflate.T @ U)
        qmat, rmat = np.linalg.qr(proj)
        keep = np.abs(np.diag(rmat)) > 1e-8
        if not keep.any():
            return None
        return qmat[:, keep]

    def attempt(self, z: np.ndarray, gap_tol: float) -> Optional[dict]:
        s_it = self.basis.T @ (0.5 * (z + z.T)) @ self.basis
        s_it = 0.5 * (s_it + s_it.T)
        vals, vecs = np.linalg.eigh(s_it)
        vmax = float(vals.max(initial=0.0))
        if vmax <= 0:
            return None
        y_it = self.basis @ s_it @ self.basis.T
        r0 = vals.size
        # likely ranks first (eigenvalue gaps), then the full sweep
        candidates = [int(np.sum(vals > tau * vmax)) for tau in (1e-4, 1e-6, 1e-2)]
        candidates += list(range(1, r0 + 1))
        for rank in dict.fromkeys(candidates):
            if rank <= 0:
                continue
            U = self._refine_face(vecs[:, r0 - rank :])
            if U is None:
                continue
            Ucomp = nullspace_basis(U.T)
            for zeta in (1e-5, 1e-3, 3e-2):
                out = self._attempt_face(y_it, U, Ucomp, zeta, gap_tol)
                if out is not None:
                    return out
        return None

    def _zero_pairs(self, y: np.ndarray, zeta: float, scale: float):
        k = self.k
        if self.cone == DNN:
            return [
                (i, j)
                for i in range(k)
                for j in range(i, k)
                if abs(y[i, j]) <= zeta * scale
            ]
        return [(0, j) for j in range(k) if abs(y[0, j]) <= zeta * scale]

    def _entry_reduced(self, i: int, j: int) -> np.ndarray:
        """Reduced matrix representing the full-space entry functional Y_ij."""
        vi = self.basis[i]
        vj = self.basis[j]
        g = 0.5 * (np.outer(vi, vj) + np.outer(vj, vi))
        return g

    def _attempt_face(self, y_it, U, Ucomp, zeta, gap_tol) -> Optional[dict]:
        scale = max(1.0, float(np.abs(y_it).max()))
        zero_pairs = self._zero_pairs(y_it, zeta, scale)

        rows = [_pack_design(U.T @ g @ U) for g in self.mats]
        rhs = list(self.rhs)
        zero_red = []
        for i, j in zero_pairs:
            g = self._entry_reduced(i, j)
            zero_red.append(g)
            rows.append(_pack_design(U.T @ g @ U))
            rhs.append(0.0)
        sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        rank = U.shape[1]
        T = _unpack_sym(sol, rank)
        w, tvecs = np.linalg.eigh(T)
        wmax = max(1.0, float(np.abs(w).max(initial=0.0)))
        if w[0] < -1e-8 * wmax:
            return None
        T = (tvecs * np.clip(w, 0.0, None)) @ tvecs.T
        s_pol = U @ T @ U.T
        y_pol = self.basis @ s_pol @ self.basis.T
        y_pol = 0.5 * (y_pol + y_pol.T)

        yscale = max(1.0, float(np.abs(y_pol).max()))
        afeas = max(
            abs(float(np.tensordot(g, s_pol)) - b) for g, b in zip(self.mats, self.rhs)
        )
        if afeas > 1e-9 * yscale:
            return None
        if self.cone == DNN:
            entry_viol = max(0.0, -float(y_pol.min()))
        else:
            entry_viol = max(0.0, -float(y_pol[0].min()))
        if entry_viol > 1e-9 * yscale:
            return None
        value = float(np.tensordot(self.qred, s_pol))

        # complementarity support for the dual: exact zeros of the polished
        # point, not of the unconverged iterate
        dual_red = [
            self._entry_reduced(i, j)
            for i, j in self._zero_pairs(y_pol, 1e-9, yscale)
        ]
        gap, dres = self._dual_fit(U, Ucomp, dual_red, value)
        if gap is None:
            return None
        if abs(gap) > gap_tol * max(1.0, abs(value)) or dres > 1e-7 * self.qscale:
            return None
        return {
            "value": value,
            "y": y_pol,
            "primal_residual": max(afeas, entry_viol),
            "dual_residual": dres,
            "gap": gap,
        }

    def _dual_fit(self, U, Ucomp, zero_red, value):
        """Fit multipliers and a dual slack supported on the predicted face
        complement; returns (duality gap, dual residual)."""
        q = Ucomp.shape[1]
        cols = [g.ravel() for g in self.mats]
        for a in range(q):
            for bidx in range(a, q):
                gb = np.outer(Ucomp[:, a], Ucomp[:, bidx])
                gb = gb + gb.T if a != bidx else gb
                cols.append(gb.ravel())
        for g in zero_red:
            cols.append(g.ravel())
        design = np.array(cols).T
        sol, *_ = np.linalg.lstsq(design, self.qred.ravel(), rcond=None)

        p = len(self.mats)
        nu = sol[:p]
        nt = q * (q + 1) // 2
        tvals = sol[p : p + nt]
        rvals = sol[p + nt :]

        if nt:
            T = np.zeros((q, q))
            idx = 0
            for a in range(q):
                for bidx in range(a, q):
                    T[a, bidx] = tvals[idx]
                    T[bidx, a] = tvals[idx]
                    idx += 1
            tw, tU = np.linalg.eigh(T)
            if tw.min(initial=0.0) < -1e-6 * max(1.0, float(np.abs(tw).max(initial=0.0))):
                return None, math.inf
            Tpsd = (tU * np.clip(tw, 0.0, None)) @ tU.T
            slack = Ucomp @ Tpsd @ Ucomp.T
        else:
            slack = np.zeros_like(self.qred)
        if rvals.size and float(rvals.min()) < -1e-6 * max(1.0, float(np.abs(rvals).max())):
            return None, math.inf
        rclip = np.clip(rvals, 0.0, None)
        for g, rv in zip(zero_red, rclip):
            slack = slack + rv * g
        lhs = slack
        for nu_i, g in zip(nu, self.mats):
            lhs = lhs + nu_i * g
        dres = float(np.abs(lhs - self.qred).max())
        dual_value = float(nu @ self.rhs)
        return value - dual_value, dres


# ---------------------------------------------------------------------------
# consensus loop (no solve runs it; see the module docstring)


@dataclass
class _LoopOutcome:
    status: str  # CONVERGED, MAX_ITER, or POLISHED (given a polisher)
    Z: np.ndarray
    iterations: int
    residual_primal: float
    residual_dual: float
    polish: Optional[dict] = None


def _adapted_penalty(rho: float, r_rel: float, s_rel: float) -> float:
    """The penalty after a rebalancing step: doubled while the primal
    residual dominates tenfold, halved while the dual one does."""
    if r_rel > 10.0 * s_rel:
        return min(rho * 2.0, 1e9)
    if s_rel > 10.0 * r_rel:
        return max(rho * 0.5, 1e-9)
    return rho


class _Anderson:
    """Type-II Anderson memory over flattened loop states.

    Holds the last ``ANDERSON_MEMORY`` differences of ``f = T(x) - x`` and
    of ``T(x)`` between consecutive recorded pairs, in preallocated ring
    buffers, and their Gram matrix, which each new difference updates by
    one row and column.
    """

    def __init__(self, dim: int):
        self.dF = np.empty((ANDERSON_MEMORY, dim))
        self.dG = np.empty((ANDERSON_MEMORY, dim))
        # Gram matrix of the dF rows with its diagonal scaled by
        # 1 + ANDERSON_REGULARIZATION
        self.gram = np.empty((ANDERSON_MEMORY, ANDERSON_MEMORY))
        self.f_last = np.empty(dim)
        self.g_last = np.empty(dim)  # also the plain point a rejected jump reverts to
        self.reset()

    def reset(self):
        """Forget every difference and the last pair."""
        self.stored = 0  # differences held
        self.slot = 0  # ring row written next
        self.primed = False  # f_last and g_last hold a pair

    def jump(self, f: np.ndarray, g: np.ndarray, fnorm2: float) -> Optional[np.ndarray]:
        """Record the pair ``(f, T(x))``; return ``dG gamma``, the step from
        ``T(x)`` to the extrapolated point, or None for a plain step.

        ``gamma`` minimizes ``|f - dF gamma|`` with a Tikhonov term; a step
        longer than ``ANDERSON_MAX_JUMP`` times ``|f|`` is not taken.
        """
        dF = self.dF
        if self.primed:
            slot = self.slot
            np.subtract(f, self.f_last, out=dF[slot])
            count = min(self.stored + 1, ANDERSON_MEMORY)
            row = dF[:count] @ dF[slot]
            if row[slot] > 0.0:  # a zero difference would make the Gram singular
                np.subtract(g, self.g_last, out=self.dG[slot])
                row[slot] *= 1.0 + ANDERSON_REGULARIZATION
                self.gram[slot, :count] = row
                self.gram[:count, slot] = row
                self.stored = count
                self.slot = (slot + 1) % ANDERSON_MEMORY
        np.copyto(self.f_last, f)
        np.copyto(self.g_last, g)
        self.primed = True
        stored = self.stored
        if not stored:
            return None
        gamma = _solve(self.gram[:stored, :stored], dF[:stored] @ f, signature="dd->d")
        step = gamma @ self.dG[:stored]
        if not np.vdot(step, step) <= ANDERSON_MAX_JUMP**2 * fnorm2:
            return None
        return step


def _consensus(
    qhat,
    projector: FaceProjector,
    factors,
    opts: SolveOptions,
    margin: float = STOP_MARGIN,
    polisher: Optional[_Polisher] = None,
) -> _LoopOutcome:
    """Consensus splitting over the affine slice and the cone factors.

    No solve calls it any more (see the module docstring).  One copy of
    the matrix variable per block (the face projection, then the cone
    factors) is coupled to the others through averaging with scaled dual
    variables, over-relaxation (``OVER_RELAXATION``) and a penalty that
    starts at ``PENALTY`` and is rebalanced every ``ADAPT_INTERVAL``
    iterations.  The splitting map ``T`` takes the stacked state
    ``x = (Z, U)`` to its plain image; each iteration evaluates ``T`` once,
    runs every test on that image, and moves on to a safeguarded type-II
    Anderson point built from it (Walker & Ni 2011; the safeguard as in
    SCS, Zhang, O'Donoghue & Boyd 2020): the point is kept only if its own
    ``|T(x) - x|`` is no larger than that of the point it was built from.
    ``margin`` scales the tolerances of the stopping test (see
    ``STOP_MARGIN``); a given ``polisher`` is tried every
    ``POLISH_INTERVAL`` iterations.
    """
    k = qhat.shape[0]
    blocks = (projector.affine,) + tuple(factors)
    nb = len(blocks)
    # x is the point mapped next and g its plain image, each stacked as
    # (Z, U_1, ..., U_nb)
    x = np.empty((nb + 1, k, k))
    x[0] = projector.apply(np.zeros((k, k)))
    x[1:] = 0.0
    rho = PENALTY
    g = np.empty_like(x)
    f = np.empty_like(x)
    xv, gv, fv = x.reshape(-1), g.reshape(-1), f.reshape(-1)  # flat views
    Y = np.empty((nb, k, k))
    memory = _Anderson(x.size)
    guarded = math.inf  # |f|^2 the image of an extrapolated x must not exceed
    beta = 1.0 - OVER_RELAXATION
    qscale = max(1.0, math.sqrt(np.vdot(qhat, qhat)))
    step = qhat / nb
    shift = step / rho  # recomputed whenever rho changes
    sqrt_nb = math.sqrt(nb)
    tol_primal = opts.tol_primal
    tol_dual = opts.tol_dual

    r = s = math.inf
    status = MAX_ITER
    polish_hit = None
    # (first iteration meeting the tolerances, then the last image of Z
    # meeting them with its r and s)
    met = None
    it = 0

    for it in range(1, opts.max_iterations + 1):
        Z = x[0]
        U = x[1:]
        W = Z - U
        if not np.isfinite(W).all():
            raise NonFinite(f"splitting iterate is non-finite at iteration {it}")
        for i, block in enumerate(blocks):
            Y[i] = block(W[i])
        Zg = g[0]
        Ug = g[1:]
        np.multiply(Y, OVER_RELAXATION, out=Ug)
        Ug += U
        Ug += beta * Z  # completed after the Z update
        np.sum(Ug, axis=0, out=Zg)
        Zg /= nb
        Zg -= shift
        Ug -= Zg
        np.subtract(g, x, out=f)

        res = Y
        res -= Zg  # Y is rewritten by the blocks next iteration
        r = math.sqrt(np.vdot(res, res))
        s = rho * sqrt_nb * math.sqrt(np.vdot(f[0], f[0]))
        zscale = max(1.0, math.sqrt(np.vdot(Zg, Zg)))
        r_rel = r / zscale
        s_rel = s / qscale
        if r_rel <= tol_primal and s_rel <= tol_dual:
            if r_rel <= margin * tol_primal and s_rel <= margin * tol_dual:
                status = "CONVERGED"
                break
            first = it if met is None else met[0]
            met = (first, Zg.copy(), r, s)
        if met is not None and it >= 2 * met[0]:
            status = "CONVERGED"
            _, Zg, r, s = met
            break
        if polisher is not None and it % POLISH_INTERVAL == 0:
            polish_hit = polisher.attempt(Zg, POLISH_GAP_TOL)
            if polish_hit is not None:
                status = "POLISHED"
                break

        rescale = 1.0
        if it % ADAPT_INTERVAL == 0:
            adapted = _adapted_penalty(rho, r_rel, s_rel)
            if adapted != rho:
                rescale = rho / adapted
                rho = adapted
                shift = step / rho

        fnorm2 = np.vdot(fv, fv)
        if rescale != 1.0 or not math.isfinite(fnorm2):
            # U is rescaled with rho; a non-finite image stops the loop at
            # the next finiteness check
            x, xv, g, gv = g, gv, x, xv
            if rescale != 1.0:
                x[1:] *= rescale
            memory.reset()
            guarded = math.inf
        elif fnorm2 > guarded:
            # the extrapolated x did worse than the plain point it replaced
            np.copyto(xv, memory.g_last)
            memory.reset()
            guarded = math.inf
        else:
            jump = memory.jump(fv, gv, fnorm2)
            if jump is None:
                x, xv, g, gv = g, gv, x, xv
                guarded = math.inf
            else:
                np.subtract(gv, jump, out=xv)
                guarded = fnorm2

    return _LoopOutcome(
        status=status,
        Z=Zg.copy(),
        iterations=it,
        residual_primal=r,
        residual_dual=s,
        polish=polish_hit,
    )


# ---------------------------------------------------------------------------
# interior-point method on a reduced face


@dataclass
class _IpmOutcome:
    status: str  # CONVERGED or MAX_ITER
    S: np.ndarray  # the last iterate
    lam: np.ndarray  # the multipliers of the rows, >= 0
    iterations: int
    residual_primal: float
    residual_dual: float


def _steps_to_boundary(roots: np.ndarray, dS, dZ, w, dw, lam, dlam):
    """The largest primal and dual steps, each at most 1, keeping ``S + t dS``
    and ``Z + t dZ`` PSD and ``w + t dw`` and ``lam + t dlam`` nonnegative,
    given the inverse square-root factors ``roots`` of ``S`` and ``Z``."""
    least = _eigvalsh(roots @ np.stack((dS, dZ)) @ roots.transpose(0, 2, 1),
                      signature="d->d")[:, 0]
    steps = []
    for low, v, dv in zip(least, (w, lam), (dw, dlam)):
        step = 1.0 if low >= -1.0 else -1.0 / low
        falling = dv < 0.0
        if falling.any():
            step = min(step, float((-v[falling] / dv[falling]).min()))
        steps.append(step)
    return steps


def _face_ipm(C: np.ndarray, G: np.ndarray, h: np.ndarray, opts: SolveOptions) -> _IpmOutcome:
    """Minimize ``<C, S>`` over ``S`` PSD with ``<G_k, S> >= h_k`` for each row k.

    An infeasible-start primal-dual interior-point method: the HKM direction
    (Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 1996) with
    Mehrotra's predictor-corrector (SIAM J. Optim. 1992).  The rows take
    slacks ``w >= 0``; the dual is ``max h^T lam`` over ``lam >= 0`` with
    ``Z = C - sum_k lam_k G_k`` PSD.  Each iteration solves one Schur system
    ``M dlam = rhs`` with ``M_kl = <G_k, S G_l Z^-1> + delta_kl w_k / lam_k``
    by least squares, which stays defined where rows that are active at the
    optimum are linearly dependent, as an equality written as a row pair
    is.  The predictor's steps to the boundary,
    primal and dual apart, set Mehrotra's centering; the corrector takes
    one step length for both sides, 0.99 of the way to the boundary.  It
    stops when the primal residual relative to ``1 + |h|`` is at most
    ``opts.tol_primal`` and both the dual residual relative to ``1 + |C|``
    and the duality gap relative to ``1 + |<C, S>| + |h^T lam|`` are at
    most ``opts.tol_dual``.  After ``IPM_ITERATIONS`` iterations (or
    ``opts.max_iterations``, if fewer), or when an iterate stops being
    positive definite, the Schur matrix is not finite, a step is not
    positive, or an entry grows past ``1 / eps`` (a problem with no optimum
    diverges this way), it returns MAX_ITER with the last iterate it took.
    Nothing here raises.
    """
    r, p = C.shape[0], h.size
    S, Z = np.eye(r), np.eye(r)
    w, lam = np.ones(p), np.ones(p)
    Gf = G.reshape(p, r * r)
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
        step = _ipm_step(G, Gf, S, Z, w, lam, rp, Rd)
        if step is None:
            break
        S, Z, w, lam = step
        it += 1
    return _IpmOutcome(status, S, lam, it, res_p, res_d)


def _ipm_step(G, Gf, S, Z, w, lam, rp, Rd):
    """One predictor-corrector step from ``(S, Z, w, lam)``, or None."""
    r, p = S.shape[0], w.size
    values, vectors = _eigh(np.stack((S, Z)), signature="d->dd")
    if not values[:, 0].min() > 0.0:
        return None
    # F^-1 with F F^T = S and with F F^T = Z, one eigenvector per row
    roots = (vectors / np.sqrt(values)[:, None, :]).transpose(0, 2, 1)
    Zi = roots[1].T @ roots[1]
    ratio = w / lam
    M = (G @ S).reshape(p, r * r) @ (G @ Zi).transpose(0, 2, 1).reshape(p, r * r).T
    M[np.diag_indices(p)] += ratio
    if not np.isfinite(M).all():
        return None
    # numpy.linalg.lstsq's default rcond
    rcond = np.finfo(float).eps * p
    M_inv = _lstsq(M, np.eye(p), rcond, signature="ddd->ddid")[0] if p else M

    def direction(T, t):
        # the HKM direction for the complementarity targets S Z = T, w lam = t
        base, slack = T @ Zi - S, t / lam - w

        def completed(dlam):
            dZ = Rd - (dlam @ Gf).reshape(r, r)
            return base - S @ dZ @ Zi, dZ, slack - ratio * dlam

        # dlam solves M dlam = rp - G(dS) + dw at dlam = 0; one step of
        # iterative refinement recomputes that residual through S dZ Z^-1
        # rather than through M, whose entries grow like 1/mu
        dlam = np.zeros(p)
        for _ in range(2):
            dS, dZ, dw = completed(dlam)
            dlam = dlam + M_inv @ (rp - Gf @ dS.ravel() + dw)
        dS, dZ, dw = completed(dlam)
        return 0.5 * (dS + dS.T), dZ, dw, dlam

    mu = (float(np.vdot(S, Z)) + float(w @ lam)) / (r + p)
    dS, dZ, dw, dlam = direction(np.zeros((r, r)), np.zeros(p))
    a_p, a_d = _steps_to_boundary(roots, dS, dZ, w, dw, lam, dlam)
    mu_aff = (float(np.vdot(S + a_p * dS, Z + a_d * dZ))
              + float((w + a_p * dw) @ (lam + a_d * dlam))) / (r + p)
    sigma = (mu_aff / mu) ** 3 if mu > 0.0 else 0.0
    dS, dZ, dw, dlam = direction(sigma * mu * np.eye(r) - dS @ dZ, sigma * mu - dw * dlam)
    # one step length for both sides keeps the primal residual falling with mu
    step = 0.99 * min(_steps_to_boundary(roots, dS, dZ, w, dw, lam, dlam))
    if not step > 0.0:
        return None
    new = (S + step * dS, Z + step * dZ, w + step * dw, lam + step * dlam)
    # without an optimum the iterates run off to infinity: stop them long
    # before they overflow (a NaN fails the test too)
    if not max(np.abs(v).max(initial=0.0) for v in new) < 1.0 / np.finfo(float).eps:
        return None
    return new


# ---------------------------------------------------------------------------
# certificates


def verify_certificate(
    inst: QpInstance, cert: RecessionCertificate, tol: float = 1e-6
) -> CertificateCheck:
    """Re-check a certificate against raw instance data.

    Verifies cone membership, zero corner, zero constraint value, unit
    trace, and recomputes the objective rate.
    """
    lp = lift_instance(inst, cert.cone)
    d = np.asarray(cert.d, dtype=float)
    viol = cone_violation(d, cert.cone)
    corner = abs(float(d[0, 0]))
    affine = float(np.abs(lp.rows @ d).max(initial=0.0)) / max(
        1.0, float(np.abs(lp.rows).max(initial=0.0)))
    trace_err = abs(float(np.trace(d)) - 1.0)
    rate = float(np.tensordot(lp.qhat, d))
    ok = viol <= tol and corner <= tol and affine <= tol and trace_err <= tol
    return CertificateCheck(
        ok=bool(ok),
        cone_violation=viol,
        corner=corner,
        affine_residual=affine,
        trace_error=trace_err,
        objective_rate=rate,
        tolerance=tol,
    )


def _recession_direction(inst: QpInstance) -> Optional[np.ndarray]:
    """The first basic point of ``{A d = 0, e^T d = 1, d >= 0}``, or None."""
    cut = _recession_slice(inst.A)
    return None if cut is None else _feasible_point(*cut)


def recession_certificate_search(
    inst: QpInstance,
    cone: str = DNN,
    mode: str = OBJECTIVE,
    opts: Optional[SolveOptions] = None,
) -> CertificateSearch:
    """Search the recession cone of the lifted feasible set.

    Candidates are ``B S B^T`` with ``S`` positive semidefinite of unit
    trace, over the orthonormal basis ``B`` of ``certificate_basis``.
    OBJECTIVE mode takes the least eigenpair of ``B^T qhat B`` and keeps the
    eigenvalue, the curvature of Q on null(A), as ``curvature``.  It is the
    least PSD0 rate and a lower bound on the DNN rate, so an OBJECTIVE
    search of either cone reports NONE without grading a candidate when it
    is at or above minus the cone's threshold (``_rate_threshold``:
    ``TOL_CURVATURE * max(1, |Q|_max)`` for PSD0, ``TOL_CERTIFICATE`` for
    DNN).  For PSD0 nothing iterates: OBJECTIVE mode otherwise grades
    ``u u^T`` with ``u = B v_min``; FEASIBILITY mode returns ``B B^T / r``.
    A DNN search then takes the first basic point ``d`` of
    ``{A d = 0, e^T d = 1, d >= 0}``, the exact emptiness screen of its
    certificate set, and reports NONE with 0 iterations when there is none.
    FEASIBILITY mode returns ``[0; d] [0; d]^T / |d|^2`` with 0 iterations.
    OBJECTIVE mode runs the interior-point method over ``tr S <= 1`` (see
    the module docstring), which either converges, and FOUND needs a rate
    below ``-TOL_CERTIFICATE``, or stops unconverged: INCONCLUSIVE.  Every
    certificate is re-verified from raw data.
    """
    if cone not in CONES:
        raise ValueError(f"unknown cone selector {cone!r}")
    if mode not in (OBJECTIVE, FEASIBILITY):
        raise ValueError(f"unknown search mode {mode!r}")
    opts = opts or SolveOptions()
    lp = lift_instance(inst, cone)
    basis = certificate_basis(lp)
    r = basis.shape[1]
    if r == 0:
        return CertificateSearch(NONE, None, 0, 0.0, reason="certificate face is trivial",
                                 curvature=math.inf)
    curvature = math.nan
    if mode == OBJECTIVE:
        C = basis.T @ lp.qhat @ basis
        values, vectors = np.linalg.eigh(C)
        curvature = float(values[0])
        if curvature >= -_rate_threshold(inst, cone):
            return CertificateSearch(NONE, None, 0, 0.0, curvature=curvature,
                                     reason=f"border-cone rate {curvature:.3e} above threshold")
        if cone == PSD0:
            u = basis @ vectors[:, 0]
            return _graded(inst, lp, np.outer(u, u), mode, opts, curvature)
    elif cone == PSD0:
        return _graded(inst, lp, basis @ basis.T / r, mode, opts, curvature)
    d = _recession_direction(inst)
    if d is None:
        return CertificateSearch(NONE, None, 0, 0.0, curvature=curvature,
                                 reason="no recession direction: certificate set is empty")
    if mode == FEASIBILITY:
        z = np.concatenate(([0.0], d))
        return _graded(inst, lp, np.outer(z, z) / np.dot(d, d), mode, opts, curvature)

    # the sign rows with h = 0, and tr S <= 1 as <-I, S> >= -1
    G, h = _sign_rows(basis, np.zeros(basis.shape[0]))
    out = _face_ipm(C, np.concatenate((G, [-np.eye(r)])), np.append(h, -1.0), opts)
    if out.status == MAX_ITER:
        return CertificateSearch(INCONCLUSIVE, None, out.iterations, out.residual_primal,
                                 reason="max_iter", curvature=curvature)
    trace = float(np.trace(out.S))
    if trace < 0.5:
        # a rate below the threshold puts every optimum at trace 1
        return CertificateSearch(NONE, None, out.iterations, out.residual_primal,
                                 reason=f"optimum at trace {trace:.1e}: no rate below "
                                        "threshold", curvature=curvature)
    return _graded(inst, lp, basis @ out.S @ basis.T / trace, mode, opts, curvature,
                   out.iterations, out.residual_primal)


def _rate_threshold(inst: QpInstance, cone: str) -> float:
    """The least rate magnitude graded FOUND (see ``TOL_CERTIFICATE``)."""
    if cone == PSD0:
        return TOL_CURVATURE * max(1.0, float(np.abs(inst.Q).max()))
    return TOL_CERTIFICATE


def _graded(inst: QpInstance, lp: LiftedProblem, d: np.ndarray, mode: str,
            opts: SolveOptions, curvature: float, iterations: int = 0,
            residual: float = 0.0) -> CertificateSearch:
    """The verdict on a candidate: FOUND when it verifies and, in OBJECTIVE
    mode, its rate is below the cone's threshold (``_rate_threshold``)."""
    rate = float(np.tensordot(lp.qhat, d))
    cert = RecessionCertificate(d=d, objective_rate=rate, trace_norm=float(np.trace(d)),
                                cone=lp.cone)
    check = verify_certificate(inst, cert, tol=max(10.0 * opts.tol_primal, 1e-9))
    status, reason = FOUND, ""
    if not check.ok:
        status, cert, reason = INCONCLUSIVE, None, "candidate failed verification"
    elif mode == OBJECTIVE and rate >= -_rate_threshold(inst, lp.cone):
        status, cert, reason = NONE, None, f"optimal rate {rate:.3e} above threshold"
    return CertificateSearch(status, cert, iterations, residual, reason=reason, check=check,
                             curvature=curvature)


# ---------------------------------------------------------------------------
# relaxation solves


def _unfinished(lp: LiftedProblem, y: np.ndarray, residual_primal: float,
                residual_dual: float, iterations: int) -> RelaxationResult:
    """MAX_ITER at the last point ``y`` of a solve that did not finish."""
    return RelaxationResult(
        status=MAX_ITER, value=float(np.tensordot(lp.qhat, y)), point=LiftedPoint(y),
        residual_primal=residual_primal, residual_dual=residual_dual, iterations=iterations,
    )


def _validated(lp: LiftedProblem, inst: QpInstance, y: np.ndarray, opts: SolveOptions,
               residual_primal: float, residual_dual: float, iterations: int
               ) -> RelaxationResult:
    """OPTIMAL at the point ``y``, or MAX_ITER when ``y`` fails validation."""
    point = LiftedPoint(y)
    report = validate_lifted_point(inst, point, tol=10.0 * opts.tol_primal, cone=lp.cone)
    return RelaxationResult(
        status=OPTIMAL if report.ok else MAX_ITER,
        value=float(np.tensordot(lp.qhat, point.y)), point=point,
        residual_primal=residual_primal, residual_dual=residual_dual,
        iterations=iterations, validation=report,
    )


def _unbounded_result(search: CertificateSearch) -> RelaxationResult:
    return RelaxationResult(
        status=UNBOUNDED, value=-math.inf, point=None,
        residual_primal=search.residual, residual_dual=0.0,
        iterations=search.iterations, certificate=search.certificate,
    )


@lru_cache(maxsize=1)
def _prepass(inst: QpInstance, cone: str, opts: SolveOptions) -> CertificateSearch:
    """The unboundedness pre-pass: the OBJECTIVE certificate search.

    A FOUND search proves the relaxation unbounded; its ``curvature``
    decides the closed forms either way.  The search depends on the
    instance (matched by identity), the cone and the options only; the last
    one is kept and reused while consecutive calls share all three.
    """
    return recession_certificate_search(inst, cone, OBJECTIVE, opts)


def _convex_qp(inst: QpInstance, x: np.ndarray):
    """Minimize q over the polyhedron from the basic feasible point ``x``.

    A primal active-set method for Q positive semidefinite on null(A)
    (Nocedal & Wright, *Numerical Optimization*, 2nd ed., Alg. 16.3).  The
    working set holds the variables fixed at zero.  Each step takes the
    eigendecomposition of the reduced Hessian on ``null(A[:, free])``.  A
    reduced gradient along a flat eigenvector (eigenvalue at most PSD0's
    curvature threshold) gives a zero-curvature descent direction;
    otherwise the step is the Newton step on the curved part.  The step is
    ratio-tested against ``x >= 0``, and the blocking variable joins the
    working set.  Where q is stationary on the face, a working-set variable
    with a negative multiplier leaves it.  Drops and ratio-test ties both
    take the smallest index (Bland's rule).

    Returns ``(x, None)`` at a candidate minimizer, or ``(x, d)`` for an
    unblocked zero-curvature descent direction ``d >= 0`` with
    ``e^T d = 1``.  Returns None on negative reduced curvature or after
    ``ACTIVE_SET_STEPS`` steps.  Neither outcome is checked here.
    """
    Q, c, A = inst.Q, inst.c, inst.A
    flat_tol = _rate_threshold(inst, PSD0)
    x = np.array(x, dtype=float)
    fixed = x == 0.0
    stationary = False  # x minimizes q on the face of the working set
    for _ in range(ACTIVE_SET_STEPS):
        free = np.flatnonzero(~fixed)
        g = Q @ x + c
        gtol = 1e-10 * (1.0 + float(np.abs(g).max()))
        N = nullspace_basis(A[:, free]) if free.size and not stationary else None
        if N is not None and N.shape[1]:
            w, V = np.linalg.eigh(N.T @ Q[np.ix_(free, free)] @ N)
            if w[0] < -flat_tol:
                return None
            r = V.T @ (N.T @ g[free])
            flat = w <= flat_tol
            ray = bool(np.abs(r[flat]).max(initial=0.0) > gtol)
            if ray or np.abs(r).max() > gtol:
                p = np.zeros(inst.n)
                if ray:
                    p[free] = N @ (V[:, flat] @ -r[flat])
                else:
                    p[free] = N @ (V[:, ~flat] @ (-r[~flat] / w[~flat]))
                p[np.abs(p) <= 1e-12 * np.abs(p).max()] = 0.0
                block = np.flatnonzero(p < 0.0)
                if ray and not block.size:
                    return x, p / p.sum()
                ratios = -x[block] / p[block]
                t = float(ratios.min(initial=math.inf))
                if not ray and t >= 1.0:
                    x += p
                    stationary = True
                else:
                    x += t * p
                    j = block[ratios == t][0]
                    x[j] = 0.0
                    fixed[j] = True
                np.clip(x, 0.0, None, out=x)
                continue
        y = np.linalg.lstsq(A[:, free].T, g[free], rcond=None)[0] if free.size \
            else np.zeros(inst.m)
        drop = np.flatnonzero(fixed & (g - A.T @ y < -10.0 * gtol))
        if not drop.size:
            return x, None
        fixed[drop[0]] = False
        stationary = False
    return None


def solve_relaxation(
    inst: QpInstance, cone: str = DNN, opts: Optional[SolveOptions] = None
) -> RelaxationResult:
    """Solve the lifted relaxation over the selected cone.

    Pipeline: decide feasibility exactly from the original polyhedron
    (feasibility is preserved by the lifting, so an empty polyhedron means
    an infeasible relaxation and no iterations are spent); search for a
    negative-rate recession certificate (``_prepass``).  Where the
    pre-pass curvature is at or above PSD0's threshold, solve the convex
    QP by the active-set method ``_convex_qp`` from the basic feasible
    point the feasibility test found (see the module docstring): OPTIMAL
    at ``z z^T`` when the point passes ``oracle.first_order_certificate``
    and ``validate_lifted_point``, UNBOUNDED when its ray passes
    ``oracle.verify_ray_certificate``, both with 0 iterations.  Otherwise,
    or when a check fails, run the interior-point method on the face
    ``V S V^T`` to optimality.
    """
    opts = opts or SolveOptions()
    lp = lift_instance(inst, cone)
    vertex = _feasible_point(inst.A, inst.b)
    if vertex is None:
        return RelaxationResult(INFEASIBLE, math.inf, None, 0.0, 0.0, 0)
    search = _prepass(inst, cone, opts)
    if search.status == FOUND:
        return _unbounded_result(search)
    convex = search.curvature >= -_rate_threshold(inst, PSD0)
    found = _convex_qp(inst, vertex) if convex else None
    if found is not None:
        x, d = found
        if d is not None:
            ray = RayCertificate(x, d)
            check = verify_ray_certificate(inst, ray)
            if check.ok:
                return RelaxationResult(UNBOUNDED, -math.inf, None, 0.0, 0.0, 0,
                                        ray=ray, ray_check=check)
        else:
            try:
                kkt = first_order_certificate(inst, x)
            except PointInfeasible:
                kkt = None
            if kkt is not None:
                z = np.concatenate(([1.0], x))
                result = _validated(lp, inst, np.outer(z, z), opts, 0.0, 0.0, 0)
                if result.status == OPTIMAL:
                    return replace(result, kkt=kkt)
    # Y = V S V^T; Y_00 = 1 is the row pair <v0 v0^T, S> >= 1, <-v0 v0^T, S> >= -1
    V = nullspace_basis(lp.rows)
    G, h = _sign_rows(V, np.zeros(lp.n + 1), cone)
    corner = np.outer(V[0], V[0])
    out = _face_ipm(V.T @ lp.qhat @ V, np.concatenate((G, [corner, -corner])),
                    np.append(h, [1.0, -1.0]), opts)
    y = V @ out.S @ V.T
    if out.status == MAX_ITER:
        return _unfinished(lp, y, out.residual_primal, out.residual_dual, out.iterations)
    return _validated(lp, inst, y, opts, out.residual_primal, out.residual_dual,
                      out.iterations)


def _sign_rows(N: np.ndarray, x: np.ndarray, cone: str = DNN):
    """The sign rows ``(x x^T + N S N^T)_ij >= 0`` of the cone as
    ``<G_k, S> >= h_k``: the stack ``G`` and the vector ``h``.

    DNN has a row for every pair ``i < j``, PSD0 for the pairs ``(0, j)``
    only.  The diagonal rows follow from ``S`` PSD.  A row whose ``G`` is
    zero (to ``RANK_TOL``; a variable that is zero on the whole polyhedron
    has a zero row in ``N``) reads ``0 >= -x_i x_j`` and is dropped.
    """
    i, j = np.triu_indices(N.shape[0], k=1)
    if cone == PSD0:
        i, j = i[i == 0], j[i == 0]
    G = N[i, :, None] * N[j, None, :]
    G = 0.5 * (G + G.transpose(0, 2, 1))
    rows = np.abs(G).max(axis=(1, 2), initial=0.0) > RANK_TOL
    return G[rows], -(x[i] * x[j])[rows]


def _pinned_solve(inst: QpInstance, cone: str, x, opts: SolveOptions) -> RelaxationResult:
    """Pinned relaxation solve: the closed form, or the interior-point method
    on ``S`` (see the module docstring)."""
    x = np.asarray(x, dtype=float)
    resid = feasibility_residual(inst, x)
    if resid > max(FEAS_TOL, 10.0 * opts.tol_primal):
        raise PointInfeasible(f"anchor point violates the constraints (residual {resid:.3e})")
    search = _prepass(inst, cone, opts)
    if search.status == FOUND:
        return _unbounded_result(search)
    lp = lift_instance(inst, cone)
    z = np.concatenate(([1.0], x))
    y = np.outer(z, z)
    # at PSD0's scaled tolerance, at which its pre-pass reads "not unbounded",
    # q is convex on the pinned set {z z^T + N S N^T}: its minimum is z z^T
    if search.curvature >= -_rate_threshold(inst, PSD0):
        return _validated(lp, inst, y, opts, 0.0, 0.0, 0)
    if cone == PSD0:
        # minus infinity along S = t u u^T, but the certificate that says so
        # failed verification
        return RelaxationResult(MAX_ITER, -math.inf, None, math.inf, math.inf, 0)
    N = nullspace_basis(inst.A)
    out = _face_ipm(N.T @ inst.Q @ N, *_sign_rows(N, x), opts)
    y[1:, 1:] += N @ out.S @ N.T
    if out.status == MAX_ITER:
        return _unfinished(lp, y, out.residual_primal, out.residual_dual, out.iterations)
    return _validated(lp, inst, y, opts, out.residual_primal, out.residual_dual,
                      out.iterations)


def evaluate_underestimator(
    inst: QpInstance, cone: str, x, opts: Optional[SolveOptions] = None
) -> RelaxationResult:
    """Value of the induced convex underestimator at a feasible point.

    Solves the relaxation with the 0th row pinned to the point.  The same
    certificate pre-pass applies: pinning does not change the recession
    cone of the lifted feasible set, so one negative-rate certificate
    proves the underestimator is minus infinity everywhere.  The pre-pass
    verdict is therefore reused across consecutive calls with the same
    instance, cone and options, pinned or not; only the anchor's
    feasibility is checked on every call.  Where Q is positive semidefinite
    on null(A), up to the pre-pass's scaled curvature tolerance, the
    underestimator is q itself: the value is ``q(x)`` at the point
    ``z z^T``, returned with 0 iterations.  Elsewhere a DNN value comes from
    the interior-point method on ``S``, whose iterations the result counts,
    and a PSD0 value is minus infinity (see the module docstring).
    """
    opts = opts or SolveOptions()
    return _pinned_solve(inst, cone, x, opts)
