"""The lifted conic relaxations: their closed forms, certificates and face problems.

The lifted problems minimize a linear objective over the intersection of an
affine slice with a matrix cone.  Every feasible ``Y`` of either lift lies
on a face ``{V S V^T : S positive semidefinite}`` of the PSD cone, so each
problem that no closed form decides (below) is one face problem,
minimize ``<C, S>`` over ``S`` PSD with rows ``<G_k, S> >= h_k``.  One
function, ``_face_problem``, builds ``C``, ``G``, ``h`` and the map from
``S`` back to ``Y`` for each of the three face problems (the unpinned
solve, a pinned DNN anchor and the DNN OBJECTIVE certificate search), and
its docstring describes them; ``ipm.solve_face`` solves each (exactly at
order 1, by its KKT pairs at order 2 where one passes, by a primal-dual
interior-point method otherwise) and returns MAX_ITER after
``IPM_ITERATIONS`` iterations or where the problem has no optimum.

The consensus splitting loop ``_consensus`` (with its Anderson
acceleration, adaptive penalty and active-face polisher ``_Polisher``) is
still defined here with its constants, but nothing calls it: the tracer
under ``perfbench/`` wraps ``_consensus`` and ``_Polisher.attempt`` by
name, and its kernel baseline calls only the ``numerics`` projections.

Every solve of one instance reads one record, ``_prepared``, kept for the
last instance (matched by identity): ``N``, an orthonormal basis of
null(A), ``C = N^T Q N`` with its least eigenpair, the lifted objective
``qhat`` of both cones, and, each built on first read, the DNN sign-row
stack, the feasible point ``x0`` of the emptiness test, the recession
rays of the DNN search, the checked convex closed form below, each
cone's certificate pre-pass and the unpinned face problem's outcome.
``x0`` is the polyhedron's first basic feasible point and the rays the
basic points of the recession slice ``{A d = 0, e^T d = 1, d >= 0}``.
``report.compare_report`` hands over the vertex list and the recession
rays the exact oracle enumerated, so the record takes them instead of
enumerating either system again; a standalone solve finds them itself
(``oracle._feasible_point`` and ``oracle.basic_feasible_points``).  Only
``verify_certificate`` lifts the instance again, from raw data.  Every
feasible lifted point is ``[1; x][1; x]^T + [0 0; 0 N S N^T]``, on the
face spanned by ``[1; x0]`` and ``[0; N]``.  For a feasible anchor ``x`` and ``z = [1; x]``, the
pinned feasible set of both lifts is
``{z z^T + [0 0; 0 N S N^T] : S positive semidefinite}`` intersected with
the cone (``X - x x^T`` is positive semidefinite with columns in null(A)),
and on it the objective is ``q(x) + <C, S>``; DNN adds its sign rows
(``_face_problem``).  The least eigenvalue of ``C`` is the
curvature of Q on null(A), which decides the closed forms below.

Unboundedness is decided by a certificate pre-pass, the OBJECTIVE
certificate search, rather than by watching the objective diverge: a
nonzero cone matrix with zero corner, zero constraint value, and negative
objective rate is an independently checkable proof that the relaxation
value is minus infinity.  Every such matrix is ``B S B^T`` with ``S``
positive semidefinite and ``B = [0; N]``: pinning the 0th row does not
change the recession cone, and the search is the pinned face at ``x = 0``
with ``tr S <= 1``.  For PSD0 the least rate is therefore the least
eigenvalue of ``C``: PSD0 is unbounded exactly when Q fails the curvature
condition on null(A) (Burer, Math. Prog. 2009), and its search is that
eigenpair, with no loop.  DNN certificates are a subset, so the same
eigenvalue screens the DNN search, and so does the exact test for a
recession direction ``d >= 0``, ``A d = 0``, ``d != 0`` of the
polyhedron, without which the DNN certificate set is empty.  Given one,
``[0; d] [0; d]^T / |d|^2`` is a DNN certificate, so a feasibility search
needs no solve.  A DNN objective search that neither screen settles runs
the interior-point method on its face problem (``_face_problem``),
started strictly inside both its feasible sets from the mean of the
recession rays (``_search_start``), so every iterate is primal feasible to
rounding.  The rate is linear in ``S``, so that minimum is exactly the least unit-trace rate when it is negative,
and 0 otherwise.  The search needs one certificate, not the least rate:
it stops at the first iterate whose candidate ``B S B^T / tr S`` has no
entry below minus the verification tolerance and a rate below the
threshold, and grades that candidate, so a FOUND rate is in general above
the least one.  The other checks of the grading hold to rounding for
every positive definite ``S``.  Where no iterate is accepted, a rate below
the threshold puts every optimum at trace 1, so a converged ``S`` of trace
below 1/2 reads NONE without dividing by its trace; any other is graded as
the candidate ``B S B^T / tr S``.

When the least eigenvalue of ``C`` is at or above
``-core.curvature_tolerance(Q)``, the pinned value of both cones is
``q(x)``, attained at ``z z^T``, which lies in both cones; it is returned
with 0 iterations.  Below that threshold PSD0's value is minus infinity,
along ``S = t u u^T`` for the least eigenvector ``u``: its pre-pass
certificate says so, and where that certificate fails verification the
solve returns MAX_ITER with 0 iterations, since the value has no checked
proof.  A DNN anchor below the threshold with no DNN certificate from the
pre-pass keeps its sign rows: its face problem (``_face_problem``) is an
``r x r`` LMI with ``r = dim null(A)`` and no equality constraint left.
The interior-point method solves it (exactly at ``r <= 2``, as above); the result's
``iterations`` and residuals are its own, and its point
``z z^T + [0 0; 0 N S N^T]`` is gated by ``validate_lifted_point`` like
every OPTIMAL point.  The method's dual
``(Z, lam)`` bounds the pinned value below by
``q(x) - sum_ij lam_ij x_i x_j``, up to its dual residual.  On a
polytope that is a segment ``[a, b]`` (``r = 1``) the problem is the
interval LP in one scalar ``s >= 0``, solved exactly with 0 iterations;
``C < 0`` there makes q concave along the segment, and the value at
``x = (1 - t) a + t b`` is the chord ``(1 - t) q(a) + t q(b)``, the convex
envelope of q on it.

The unpinned solves have the same closed form.  Every feasible point of
either lift has ``X - x x^T = N S N^T`` with ``S`` positive semidefinite, so
its objective is ``q(x) + <N^T Q N, S>``, at least ``q(x)`` at the same
threshold.  Both relaxations then equal the minimum of q over the
polyhedron (Burer, Math. Prog. 2009), attained at ``z z^T`` with
``z = [1; x*]``.  The record finds ``x*`` once for both cones
(``convex``) by a primal active-set method (``_convex_qp``) from its
``x0``, and keeps it once it passes the raw-data first-order check
(``oracle.first_order_certificate``, whose multipliers prove a global
minimum of a q convex on the affine hull).  Each cone returns ``z z^T`` as
OPTIMAL with 0 iterations, and the multipliers as ``kkt``, once it passes
``validate_lifted_point`` there.  When the method instead meets a descent
direction of zero curvature that no bound blocks, q and both relaxations
are unbounded below: the record keeps the ray ``(x0, d)`` once
``oracle.verify_ray_certificate`` accepts it, and both cones return it as
``ray``, UNBOUNDED with 0 iterations.  No lifted recession certificate
exists there, since the rate ``d^T Q d`` is 0.  Where a check fails, or
the method reaches ``ACTIVE_SET_STEPS``, the record builds DNN's unpinned
face problem once (``unpinned_face``) and solves it once per options
(``unpinned``), and both cones gate its point at
their own cone: DNN lies in PSD0, and both equal the minimum of q there.
Below the threshold PSD0 is settled by the pre-pass (``_settled``), plain
or pinned: it never iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .core import (
    CONES,
    DNN,
    FEAS_TOL,
    PSD0,
    LiftedPoint,
    LiftedProblem,
    QpInstance,
    ValidationReport,
    _eigh,
    _eigvalsh,
    _frozen_array,
    cone_violation,
    curvature_tolerance,
    feasibility_residual,
    lift_instance,
    validate_lifted_point,
)
from .errors import NonFinite, PointInfeasible
from .ipm import (  # noqa: F401
    IPM_ITERATIONS,
    MAX_ITER,
    SolveOptions,
    _IpmOutcome,
    _order_two_table,
    solve_face,
)
from .numerics import RANK_TOL, FaceProjector, _lapack_errors, _least_squares, nullspace_basis
from .oracle import (
    KktCertificate,
    RayCertificate,
    RayCheck,
    _feasibility_tol,
    _feasible_point,
    _recession_slice,
    basic_feasible_points,
    first_order_certificate,
    verify_ray_certificate,
)

OPTIMAL = "OPTIMAL"
UNBOUNDED = "UNBOUNDED"
INFEASIBLE = "INFEASIBLE"

OBJECTIVE = "OBJECTIVE"
FEASIBILITY = "FEASIBILITY"

FOUND = "FOUND"
NONE = "NONE"
INCONCLUSIVE = "INCONCLUSIVE"

#: An OBJECTIVE search reports FOUND only for rates below ``-TOL_CERTIFICATE``
#: (DNN), or below ``-core.curvature_tolerance(Q)`` (PSD0, whose rate is an
#: exact eigenvalue; the tolerance of ``analysis.check_psd_on_nullspace``).
TOL_CERTIFICATE = 1e-6

#: Working-set changes a closed-form convex solve may make before it gives
#: way to the interior-point method (``_convex_qp``).
ACTIVE_SET_STEPS = 200

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
    ``start`` is where the interior-point run started, ``interior`` (the
    strictly feasible ``_search_start``) or ``identity``, and None when no
    iteration ran.
    """

    status: str
    certificate: Optional[RecessionCertificate]
    iterations: int
    residual: float
    reason: str = ""
    check: Optional[CertificateCheck] = None
    curvature: float = math.nan
    start: Optional[str] = None


@dataclass(frozen=True)
class RelaxationResult:
    """Result of a lifted relaxation solve.

    ``value`` uses +inf / -inf sentinels for INFEASIBLE and UNBOUNDED; an
    OPTIMAL result carries the lifted point and its validation report, an
    UNBOUNDED result carries the verified certificate.  The closed-form
    convex solve fills ``kkt`` (the multipliers of its OPTIMAL point) or
    ``ray`` and ``ray_check`` (its UNBOUNDED ray of the original QP, in
    place of a lifted ``certificate``).  ``start`` is the start of the
    interior-point run that ``iterations`` counts, the pre-pass search's
    for an UNBOUNDED certificate (``CertificateSearch.start``), and None
    when no iteration ran.
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
    start: Optional[str] = None


# ---------------------------------------------------------------------------
# active-face polishing of the consensus loop


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
            abs(float(np.vdot(g, s_pol)) - b) for g, b in zip(self.mats, self.rhs)
        )
        if afeas > 1e-9 * yscale:
            return None
        if self.cone == DNN:
            entry_viol = max(0.0, -float(y_pol.min()))
        else:
            entry_viol = max(0.0, -float(y_pol[0].min()))
        if entry_viol > 1e-9 * yscale:
            return None
        value = float(np.vdot(self.qred, s_pol))

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
# certificates


def verify_certificate(
    inst: QpInstance, cert: RecessionCertificate, tol: float = 1e-6
) -> CertificateCheck:
    """Re-check a certificate against raw instance data.

    Verifies cone membership, zero corner, zero constraint value, unit
    trace, and recomputes the objective rate.
    """
    lp = lift_instance(inst)
    d = np.asarray(cert.d, dtype=float)
    viol = cone_violation(d, cert.cone)
    corner = abs(float(d[0, 0]))
    affine = float(np.abs(lp.rows @ d).max(initial=0.0)) / max(
        1.0, float(np.abs(lp.rows).max(initial=0.0)))
    trace_err = abs(float(np.trace(d)) - 1.0)
    rate = float(np.vdot(lp.qhat, d))
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


class _Prepared:
    """What every solve of one instance reads: the curvature check, both
    cones' certificate searches, and the plain and pinned solves.

    ``N`` is the orthonormal basis of null(A) and ``C = N^T Q N``;
    ``curvature`` is the least eigenvalue of ``C``, the curvature of Q on
    null(A), and ``v`` its eigenvector (``+inf`` and None when null(A) is
    ``{0}``); ``holds`` is the curvature condition, ``curvature`` at or above
    ``-core.curvature_tolerance(Q)``; ``qhat`` is the lifted objective of
    both cones (``core.lift_instance``).  Built on first read: ``signs``,
    the sign rows ``(G, i, j)`` of the null-space face, which
    ``_face_problem`` keeps for every pinned anchor and search;
    ``kkt_table``, the order-2 KKT table of that face, which every pinned
    DNN anchor at ``dim null(A) = 2`` reads; ``x0``, the
    first basic feasible point of the polyhedron, None when it is empty;
    ``cut``, the recession slice ``{A d = 0, e^T d = 1, d >= 0}`` as
    ``(M, r)``, which the rays, the search's start and the FEASIBILITY
    search read; ``rays``, the basic points of that slice
    (``rays[0]`` is its first), empty when there is none; ``convex``,
    the checked outcome of the convex QP; ``prepass(cone, opts)``, the
    OBJECTIVE certificate search of each cone and options; the face
    problems of the search (``search_face``) and of DNN's unpinned solve
    (``unpinned_face``); and ``unpinned(opts)``, the unpinned face's
    solution at each options, which both cones validate.  ``x0`` is what
    ``oracle._feasible_point`` finds
    and ``rays`` what ``oracle.basic_feasible_points`` enumerates, under
    the same cap; a caller that holds both enumerations hands them over
    first (``adopt``), and the record takes them, the same bits, instead of
    enumerating again.
    All arrays are read-only.  ``_prepared`` keeps the record of the last
    instance, matched by identity.
    """

    def __init__(self, inst: QpInstance):
        N = nullspace_basis(inst.A)
        self.inst, self.qhat = inst, lift_instance(inst).qhat
        self._searches, self._unpinned, self._signs = {}, {}, None
        self.N, self.C, self.curvature, self.v = N, N.T @ inst.Q @ N, math.inf, None
        if N.shape[1]:
            with _lapack_errors():
                values, vectors = _eigh(self.C, signature="d->dd")
            self.curvature, self.v = float(values[0]), vectors[:, 0]
            self.v.flags.writeable = False
        N.flags.writeable = self.C.flags.writeable = False
        self.holds = self.curvature >= -curvature_tolerance(inst.Q)

    @property
    def signs(self):
        """The null-space face's sign rows ``(G, i, j)`` (``_face_problem``)."""
        _, G, _, i, j, _ = _face_problem(self)
        return G, i, j

    def adopt(self, vertices=None, rays=None):
        """Take ``x0`` from ``vertices``, the list ``oracle.enumerate_vertices``
        returns (its first point, or None when it is empty), and ``rays`` from
        the ``rays`` of ``oracle.recession_analysis``, where given and not
        yet read."""
        if vertices is not None and "x0" not in self.__dict__:
            self.__dict__["x0"] = _frozen_array(vertices[0]) if len(vertices) else None
        if rays is not None and "rays" not in self.__dict__:
            self.__dict__["rays"] = tuple(_frozen_array(d) for d in rays)

    @cached_property
    def x0(self) -> Optional[np.ndarray]:
        x = _feasible_point(self.inst.A, self.inst.b)
        return None if x is None else _frozen_array(x)

    @cached_property
    def cut(self):
        """The recession slice ``(M, r)`` (``oracle._recession_slice``), or None."""
        return _recession_slice(self.inst.A)

    @cached_property
    def rays(self) -> tuple:
        cut = self.cut
        return () if cut is None else tuple(_frozen_array(d) for d in basic_feasible_points(*cut))

    @cached_property
    def convex(self):
        """``_convex_qp`` from ``x0``, where it exists and the condition
        ``holds``, with its check: ``(x, kkt)`` with the multipliers of
        ``oracle.first_order_certificate``, ``(ray, check)`` when
        ``oracle.verify_ray_certificate`` accepts the ray, or None."""
        found = _convex_qp(self.inst, self.x0) if self.holds and self.x0 is not None else None
        if found is None:
            return None
        x, d = found
        x.flags.writeable = False
        if d is not None:
            d.flags.writeable = False
            ray = RayCertificate(x, d)
            check = verify_ray_certificate(self.inst, ray)
            return (ray, check) if check.ok else None
        try:
            kkt = first_order_certificate(self.inst, x)
        except PointInfeasible:
            return None
        return None if kkt is None else (x, kkt)

    def prepass(self, cone: str, opts: SolveOptions) -> CertificateSearch:
        """The unboundedness pre-pass: a FOUND search proves the relaxation
        unbounded, and its ``curvature`` decides the closed forms either way."""
        if (cone, opts) not in self._searches:
            self._searches[cone, opts] = recession_certificate_search(self.inst, cone,
                                                                      OBJECTIVE, opts)
        return self._searches[cone, opts]

    @cached_property
    def kkt_table(self):
        """The order-2 KKT table (``ipm._order_two_table``) of the null-space
        face and its sign rows, which every pinned DNN anchor shares; None
        unless ``dim null(A)`` is 2."""
        G, _, _ = self.signs
        return _order_two_table(self.C, G) if self.N.shape[1] == 2 else None

    @cached_property
    def search_face(self):
        """The DNN objective search's face problem (``_face_problem``)."""
        return _face_problem(self, rows="trace")

    @cached_property
    def unpinned_face(self):
        """DNN's unpinned face problem (``_face_problem``), with ``x0`` not None."""
        N = self.N
        V = np.zeros((self.inst.n + 1, N.shape[1] + 1))
        V[0, 0], V[1:, 0], V[1:, 1:] = 1.0, self.x0 - N @ (N.T @ self.x0), N
        V[:, 0] /= math.sqrt(V[:, 0] @ V[:, 0])
        return _face_problem(self, V, rows="corner")

    def unpinned(self, opts: SolveOptions):
        """The unpinned face problem solved at ``opts`` (see
        ``solve_relaxation``): its lifted point and the method's outcome."""
        if opts not in self._unpinned:
            C, G, h, _, _, lift = self.unpinned_face
            out = solve_face(C, G, h, opts)
            y = lift(out.S)
            y.flags.writeable = False
            self._unpinned[opts] = y, out
        return self._unpinned[opts]


_prepared = lru_cache(maxsize=1)(_Prepared)


@lru_cache(maxsize=None)
def _strict_triu(r: int):
    """``np.triu_indices(r, k=1)`` as read-only arrays, built once per order."""
    rows, cols = np.triu_indices(r, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _sign_stack(N: np.ndarray):
    """The DNN sign rows ``(N S N^T)_ij`` for ``i < j`` as ``<G_k, S>``: the
    stack ``G`` and the pairs ``(i, j)`` of its rows.

    The diagonal rows follow from ``S`` PSD.  A row whose ``G`` is zero (to
    ``RANK_TOL``; a variable that is zero on the whole polyhedron has a zero
    row in ``N``) reads ``0 >= h_k`` and is dropped.
    """
    i, j = _strict_triu(N.shape[0])
    G = N[i, :, None] * N[j, None, :]
    G = 0.5 * (G + G.transpose(0, 2, 1))
    rows = np.abs(G).max(axis=(1, 2), initial=0.0) > RANK_TOL
    return G[rows], i[rows], j[rows]


def _face_problem(prep: _Prepared, V: Optional[np.ndarray] = None, x=None,
                  rows: Optional[str] = None):
    """The face problem of the record ``prep`` on the lifted basis ``V`` at
    the offset ``x`` with the extra ``rows``: minimize ``<C, S>`` over ``S``
    PSD with ``<G_k, S> >= h_k``.  Returns ``(C, G, h, i, j, lift)``: the
    first rows are the DNN sign rows (``_sign_stack``), entry ``(i_k, j_k)``
    of the lifted point at least 0, and ``lift`` maps ``S`` to ``Y``.

    - A pinned DNN anchor (``V`` None, ``x`` the anchor):
      ``Y = z z^T + [0 0; 0 N S N^T]`` with ``z = [1; x]``, ``C = N^T Q N``
      and the rows ``(x x^T + N S N^T)_ij >= 0``, ``h_k = -x_i x_j``
      (entries of ``X``).  The record keeps the rows (``signs``), so only
      ``h`` depends on the anchor.
    - The DNN objective search (``V`` and ``x`` None, ``rows="trace"``):
      the same face at ``x = 0``, ``Y = B S B^T`` with ``B = [0; N]``, and
      ``tr S <= 1`` as the row ``<-I, S> >= -1``.
    - The unpinned solve (``rows="corner"``): ``Y = V S V^T`` with
      ``V = [u, [0; N]]``, ``u`` the unit vector along ``[1; x0 - N N^T x0]``
      (the least-norm solution of ``A x = b``, whatever vertex ``x0`` is),
      an orthonormal basis of null(rows); ``C = V^T qhat V``, the rows
      ``(V S V^T)_ij >= 0`` at ``h = 0`` (for both cones, see
      ``solve_relaxation``), and ``Y_00 = 1`` as the row pair
      ``<v0 v0^T, S> >= 1``, ``<-v0 v0^T, S> >= -1``.
    """
    if V is None:
        if prep._signs is None:
            prep._signs = _sign_stack(prep.N)
            for a in prep._signs:
                a.flags.writeable = False
        (G, i, j), C, N = prep._signs, prep.C, prep.N
    else:
        (G, i, j), C = _sign_stack(V), V.T @ prep.qhat @ V
    if x is None:
        h = np.zeros(len(G))
        B = np.vstack([np.zeros((1, N.shape[1])), N]) if V is None else V

        def lift(S):
            return B @ S @ B.T
    else:
        h, z = -(x[i] * x[j]), np.concatenate(([1.0], x))

        def lift(S):
            y = np.outer(z, z)
            y[1:, 1:] += N @ S @ N.T
            return y
    if rows == "trace":
        G, h = np.concatenate((G, [-np.eye(C.shape[0])])), np.append(h, -1.0)
    elif rows == "corner":
        corner = np.outer(V[0], V[0])
        G, h = np.concatenate((G, [corner, -corner])), np.append(h, [1.0, -1.0])
    return C, G, h, i, j, lift


def recession_certificate_search(
    inst: QpInstance,
    cone: str = DNN,
    mode: str = OBJECTIVE,
    opts: Optional[SolveOptions] = None,
) -> CertificateSearch:
    """Search the recession cone of the lifted feasible set.

    Candidates are ``B S B^T`` with ``S`` positive semidefinite of unit
    trace, over the basis ``B = [0; N]`` of the instance's face
    (``_prepared``).
    OBJECTIVE mode keeps the face's least eigenvalue of ``C = N^T Q N``, the
    curvature of Q on null(A), as ``curvature``.  It is the least PSD0 rate
    and a lower bound on the DNN rate, so an OBJECTIVE search of either cone
    reports NONE without grading a candidate when it is at or above minus
    the cone's threshold (``_rate_threshold``: ``core.curvature_tolerance(Q)``
    for PSD0, ``TOL_CERTIFICATE`` for DNN).  For PSD0 nothing iterates:
    OBJECTIVE mode otherwise grades ``[0; N v] [0; N v]^T`` for the least
    eigenvector ``v``; FEASIBILITY mode returns ``B B^T / r``.
    A DNN search then takes the basic points of the recession slice
    ``{A d = 0, e^T d = 1, d >= 0}``, the exact emptiness screen of its
    certificate set, and reports NONE with 0 iterations when there is none:
    FEASIBILITY mode stops at the first, ``d`` (``oracle._feasible_point``),
    and OBJECTIVE mode reads them all, the record's ``rays``.
    FEASIBILITY mode returns ``[0; d] [0; d]^T / |d|^2`` with 0 iterations.
    OBJECTIVE mode runs the interior-point method on its face problem
    (``_face_problem``: the sign rows at ``h = 0`` and ``tr S <= 1``), from
    the strictly feasible start that the rays' mean gives
    (``_search_start``), or from the identity where it gives none, until an
    iterate's candidate passes a pre-check
    (no entry below minus the verification tolerance, a rate below
    ``-TOL_CERTIFICATE``; from the strictly feasible start every iterate
    passes the first) and is graded, until it converges, and FOUND
    needs a rate below ``-TOL_CERTIFICATE``, or until it stops unconverged:
    INCONCLUSIVE.  So the search stops at its first verified certificate,
    and a FOUND rate is not in general the least rate.  Every certificate
    is re-verified from raw data.
    """
    if cone not in CONES:
        raise ValueError(f"unknown cone selector {cone!r}")
    if mode not in (OBJECTIVE, FEASIBILITY):
        raise ValueError(f"unknown search mode {mode!r}")
    opts = opts or SolveOptions()
    face = _prepared(inst)
    r = face.N.shape[1]
    if r == 0:
        return CertificateSearch(NONE, None, 0, 0.0, reason="certificate face is trivial",
                                 curvature=math.inf)
    curvature = math.nan
    if mode == OBJECTIVE:
        curvature = face.curvature
        if curvature >= -_rate_threshold(inst, cone):
            return CertificateSearch(NONE, None, 0, 0.0, curvature=curvature,
                                     reason=f"border-cone rate {curvature:.3e} above threshold")
    if cone == PSD0:
        # a PSD certificate with zero corner has a zero 0th row
        basis = np.vstack([np.zeros((1, r)), face.N])
        if mode == OBJECTIVE:
            u = basis @ face.v
            return _graded(face, cone, np.outer(u, u), mode, opts, curvature)
        return _graded(face, cone, basis @ basis.T / r, mode, opts, curvature)
    if mode == FEASIBILITY:
        # one recession direction is a certificate: the screen stops at the first
        d = None if face.cut is None else _feasible_point(*face.cut)
        empty = d is None
    else:
        empty = not face.rays
    if empty:
        return CertificateSearch(NONE, None, 0, 0.0, curvature=curvature,
                                 reason="no recession direction: certificate set is empty")
    if mode == FEASIBILITY:
        z = np.concatenate(([0.0], d))
        return _graded(face, cone, np.outer(z, z) / np.dot(d, d), mode, opts, curvature)

    C, G, h, _, _, lift = face.search_face

    def candidate(S):
        return lift(S) / float(np.trace(S))

    tol, threshold = _certificate_tol(opts), _rate_threshold(inst, cone)

    def verifiable(S):
        # the checks of _graded that an iterate can fail: the other ones
        # hold to rounding for every positive definite S
        d = candidate(S)
        return float(d.min()) >= -tol and float(np.vdot(face.qhat, d)) < -threshold

    out = solve_face(C, G, h, opts, verifiable, _search_start(face))
    if out.status == MAX_ITER:
        return CertificateSearch(INCONCLUSIVE, None, out.iterations, out.residual_primal,
                                 reason="max_iter", curvature=curvature, start=out.start)
    trace = float(np.trace(out.S))
    if out.status == "CONVERGED" and trace < 0.5:
        # a rate below the threshold puts every optimum at trace 1
        return CertificateSearch(NONE, None, out.iterations, out.residual_primal,
                                 reason=f"optimum at trace {trace:.1e}: no rate below "
                                        "threshold", curvature=curvature, start=out.start)
    return replace(_graded(face, cone, candidate(out.S), mode, opts, curvature, out.iterations,
                           out.residual_primal), start=out.start)


def _search_start(prep: _Prepared):
    """The strictly feasible start ``(S, lam)`` of the DNN objective search
    (its face problem, ``search_face``),
    or None where the mean ``d`` of the recession rays is zero, to the
    oracle's feasibility tolerance on the recession slice
    (``oracle._feasibility_tol``), on a coordinate of a kept sign row.

    ``S`` is ``u u^T / |u|^2 + eps I`` with ``u = N^T d`` at trace 1/2:
    ``N u u^T N^T`` is ``d d^T``, positive on every kept row, and ``eps`` is
    half the largest that keeps each row positive (at most 1), so the
    sign-row slacks and the trace row's slack 1/2 are positive.  ``lam`` is
    1 on the sign rows and, on the trace row, the least multiplier of at
    least 1 that gives ``Z = C - sum_k lam_k G_k`` a least eigenvalue of at
    least 1.
    """
    C, G, _, i, j, _ = prep.search_face
    G = G[:len(i)]  # the sign rows, without the trace row
    d = np.mean(prep.rays, axis=0)
    tol = _feasibility_tol(*prep.cut)
    if not d[np.concatenate((i, j))].min(initial=math.inf) > tol:
        return None
    u = prep.N.T @ d
    uu = np.outer(u, u) / (u @ u)
    r = u.size
    # each row at S = uu + eps I is a + eps b
    a = G.reshape(len(G), r * r) @ uu.ravel()
    b = np.trace(G, axis1=1, axis2=2)
    eps = min(1.0, 0.5 * float((a[b < 0.0] / -b[b < 0.0]).min(initial=math.inf)))
    if not eps > 0.0:
        return None
    S = (uu + eps * np.eye(r)) / (2.0 * (1.0 + eps * r))
    lam = np.ones(len(G) + 1)
    with _lapack_errors():
        least = _eigvalsh(C - G.sum(axis=0), signature="d->d")[0]
    lam[-1] = max(1.0, 1.0 - float(least))
    return S, lam


def _rate_threshold(inst: QpInstance, cone: str) -> float:
    """The least rate magnitude graded FOUND (see ``TOL_CERTIFICATE``)."""
    return curvature_tolerance(inst.Q) if cone == PSD0 else TOL_CERTIFICATE


def _certificate_tol(opts: SolveOptions) -> float:
    """The tolerance ``_graded`` verifies candidates at."""
    return max(10.0 * opts.tol_primal, 1e-9)


def _graded(prep: _Prepared, cone: str, d: np.ndarray, mode: str, opts: SolveOptions,
            curvature: float, iterations: int = 0, residual: float = 0.0) -> CertificateSearch:
    """The verdict on a candidate: FOUND when it verifies and, in OBJECTIVE
    mode, its rate is below the cone's threshold (``_rate_threshold``)."""
    rate = float(np.vdot(prep.qhat, d))
    cert = RecessionCertificate(d=d, objective_rate=rate, trace_norm=float(np.trace(d)),
                                cone=cone)
    check = verify_certificate(prep.inst, cert, tol=_certificate_tol(opts))
    status, reason = FOUND, ""
    if not check.ok:
        status, cert, reason = INCONCLUSIVE, None, "candidate failed verification"
    elif mode == OBJECTIVE and rate >= -_rate_threshold(prep.inst, cone):
        status, cert, reason = NONE, None, f"optimal rate {rate:.3e} above threshold"
    return CertificateSearch(status, cert, iterations, residual, reason=reason, check=check,
                             curvature=curvature)


# ---------------------------------------------------------------------------
# relaxation solves


def _face_result(prep: _Prepared, cone: str, y: np.ndarray, out: _IpmOutcome,
                 opts: SolveOptions) -> RelaxationResult:
    """A face problem's result at its lifted point ``y``: MAX_ITER when the
    outcome ``out`` did not finish, else ``_validated``."""
    fields = (out.residual_primal, out.residual_dual, out.iterations)
    if out.status == MAX_ITER:
        return RelaxationResult(MAX_ITER, float(np.vdot(prep.qhat, y)), LiftedPoint(y), *fields,
                                start=out.start)
    return _validated(prep, cone, y, opts, *fields, out.start)


def _validated(prep: _Prepared, cone: str, y: np.ndarray, opts: SolveOptions,
               residual_primal: float, residual_dual: float, iterations: int,
               start: Optional[str] = None) -> RelaxationResult:
    """OPTIMAL at the point ``y`` of the cone, or MAX_ITER when ``y`` fails
    validation there."""
    point = LiftedPoint(y)
    report = validate_lifted_point(prep.inst, point, tol=10.0 * opts.tol_primal, cone=cone)
    return RelaxationResult(
        status=OPTIMAL if report.ok else MAX_ITER,
        value=float(np.vdot(prep.qhat, point.y)), point=point,
        residual_primal=residual_primal, residual_dual=residual_dual,
        iterations=iterations, validation=report, start=start,
    )


def _settled(prep: _Prepared, cone: str, opts: SolveOptions) -> Optional[RelaxationResult]:
    """The pre-pass verdict of a plain or pinned solve, or None: UNBOUNDED
    with a FOUND certificate, else MAX_ITER with 0 iterations and value minus
    infinity for PSD0 below the curvature threshold (Burer's dichotomy)."""
    search = prep.prepass(cone, opts)
    if search.status == FOUND:
        return RelaxationResult(UNBOUNDED, -math.inf, None, search.residual, 0.0,
                                search.iterations, certificate=search.certificate,
                                start=search.start)
    if cone == PSD0 and not prep.holds:
        return RelaxationResult(MAX_ITER, -math.inf, None, math.inf, math.inf, 0)
    return None


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
    flat_tol = curvature_tolerance(Q)
    x = np.array(x, dtype=float)
    fixed = x == 0.0
    stationary = False  # x minimizes q on the face of the working set
    for _ in range(ACTIVE_SET_STEPS):
        free = np.flatnonzero(~fixed)
        g = Q @ x + c
        gtol = 1e-10 * (1.0 + float(np.abs(g).max()))
        N = nullspace_basis(A[:, free]) if free.size and not stationary else None
        if N is not None and N.shape[1]:
            with _lapack_errors():
                w, V = _eigh(N.T @ Q[np.ix_(free, free)] @ N, signature="d->dd")
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
        y = _least_squares(A[:, free].T, g[free]) if free.size else np.zeros(inst.m)
        drop = np.flatnonzero(fixed & (g - A.T @ y < -10.0 * gtol))
        if not drop.size:
            return x, None
        fixed[drop[0]] = False
        stationary = False
    return None


def solve_relaxation(
    inst: QpInstance, cone: str = DNN, opts: Optional[SolveOptions] = None, *,
    vertices=None, rays=None,
) -> RelaxationResult:
    """Solve the lifted relaxation over the selected cone.

    Reads the instance's record (``_prepared``): its ``x0`` decides
    feasibility exactly (the lifting preserves it, so an empty polyhedron
    is INFEASIBLE with 0 iterations); its pre-pass (``_settled``) and its
    convex closed form (``convex``, validated at the cone) settle the rest
    without iterating where they can (see the module docstring).  Otherwise
    the interior-point method solves DNN's face ``V S V^T`` with
    ``V = [u, [0; N]]`` once per options (``unpinned``), and its point is
    validated at the cone.  A caller that has enumerated the instance's
    basic feasible points (``oracle.enumerate_vertices``) or its recession
    rays (``oracle.recession_analysis``) passes them as ``vertices`` and
    ``rays``, and the record takes ``x0`` and the search's rays from them
    (``_Prepared.adopt``): the answer is the same, bit for bit.
    """
    if cone not in CONES:
        raise ValueError(f"unknown cone selector {cone!r}")
    opts = opts or SolveOptions()
    prep = _prepared(inst)
    prep.adopt(vertices, rays)
    if prep.x0 is None:
        return RelaxationResult(INFEASIBLE, math.inf, None, 0.0, 0.0, 0)
    if (settled := _settled(prep, cone, opts)) is not None:
        return settled
    found, proof = prep.convex or (None, None)
    if isinstance(found, RayCertificate):
        return RelaxationResult(UNBOUNDED, -math.inf, None, 0.0, 0.0, 0, ray=found,
                                ray_check=proof)
    if found is not None:
        z = np.concatenate(([1.0], found))
        result = _validated(prep, cone, np.outer(z, z), opts, 0.0, 0.0, 0)
        if result.status == OPTIMAL:
            return replace(result, kkt=proof)
    return _face_result(prep, cone, *prep.unpinned(opts), opts)


def _check_anchor(inst: QpInstance, x, opts: SolveOptions, label: str = "anchor point"):
    """Refuse an anchor whose ``core.feasibility_residual`` is above
    ``max(FEAS_TOL, 10 tol_primal)`` with ``PointInfeasible``, naming it
    ``label``.  The residual is convex along a segment, so every point of a
    segment whose ends pass passes too."""
    resid = feasibility_residual(inst, x)
    if resid > max(FEAS_TOL, 10.0 * opts.tol_primal):
        raise PointInfeasible(f"{label} violates the constraints (residual {resid:.3e})")


def _pinned_solve(inst: QpInstance, cone: str, x, opts: SolveOptions) -> RelaxationResult:
    """Pinned relaxation solve: the closed form, or the interior-point method
    on ``S`` (see the module docstring)."""
    x = np.asarray(x, dtype=float)
    _check_anchor(inst, x, opts)
    prep = _prepared(inst)
    if (settled := _settled(prep, cone, opts)) is not None:
        return settled
    # at PSD0's scaled tolerance, at which its pre-pass reads "not unbounded",
    # q is convex on the pinned set {z z^T + N S N^T}: its minimum is z z^T
    if prep.holds:
        z = np.concatenate(([1.0], x))
        return _validated(prep, cone, np.outer(z, z), opts, 0.0, 0.0, 0)
    C, G, h, _, _, lift = _face_problem(prep, x=x)
    out = solve_face(C, G, h, opts, table=prep.kkt_table)
    return _face_result(prep, cone, lift(out.S), out, opts)


def evaluate_underestimator(
    inst: QpInstance, cone: str, x, opts: Optional[SolveOptions] = None
) -> RelaxationResult:
    """Value of the induced convex underestimator at a feasible point.

    Solves the relaxation with the 0th row pinned to the point.  Pinning
    does not change the recession cone of the lifted feasible set, so the
    plain solve's pre-pass, read from the instance's record
    (``_prepared``), settles it too; only the anchor's feasibility is
    checked per call.  Where Q is positive semidefinite on null(A), up to
    the curvature tolerance, the value is ``q(x)`` at ``z z^T`` with 0
    iterations.  Elsewhere a DNN value comes from the interior-point method
    on ``S``, whose iterations the result counts (0 where ``S`` is a
    scalar, or of order 2 with a KKT pair that passes, solved exactly),
    and a PSD0 value is minus infinity (see the module docstring).
    """
    if cone not in CONES:
        raise ValueError(f"unknown cone selector {cone!r}")
    opts = opts or SolveOptions()
    return _pinned_solve(inst, cone, x, opts)
