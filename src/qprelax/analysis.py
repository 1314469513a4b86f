"""Structural condition checkers for the relaxation theory.

Covers the dichotomy between exact and trivial relaxations (positive
semidefiniteness of Q on null(A)), recession-cone curvature analysis (the
exact oracle's ``recession_analysis``; its rays of unbounded descent are
``oracle.ray_witness``), copositivity by exact enumeration, and sampling
of the induced underestimator along segments.  The enumerating checks
refuse what would exceed the oracle's enumeration cap (``DeskScaleLimit``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conic import SolveOptions, _prepared, evaluate_underestimator
from .core import QpInstance, curvature_tolerance, evaluate_objective, is_feasible
from .errors import PointInfeasible
from .oracle import RecessionReport, recession_analysis, simplex_minimum


@dataclass(frozen=True)
class NullspaceCurvatureReport:
    """Whether Q is positive semidefinite on null(A).

    When the condition fails, ``witness`` is a null-space direction of
    strictly negative curvature, re-verifiable from raw data.
    ``tolerance`` is ``core.curvature_tolerance(Q)``, the one applied.
    """

    holds: bool
    witness: Optional[np.ndarray]
    min_eigenvalue: float
    tolerance: float


@dataclass(frozen=True)
class CopositivityCheck:
    """Exact minimum of the quadratic form over the standard simplex."""

    min_value: float
    minimizer: np.ndarray


def check_psd_on_nullspace(inst: QpInstance) -> NullspaceCurvatureReport:
    """Decide whether Q is positive semidefinite on null(A).

    Reads the least eigenpair ``(lambda, v)`` of ``N^T Q N`` from the
    instance's record (``conic._prepared``), which the certificate searches
    and the closed forms read too, so all of them see the same curvature.  The
    condition holds when ``lambda >= -core.curvature_tolerance(Q)``; failure
    produces the most negative direction ``N v`` in the original
    coordinates, scaled to unit max-norm.
    """
    face = _prepared(inst)
    tol = curvature_tolerance(inst.Q)
    if face.v is None:
        return NullspaceCurvatureReport(True, None, math.inf, tol)
    u = face.N @ face.v
    witness = None if face.holds else u / float(np.abs(u).max())
    return NullspaceCurvatureReport(face.holds, witness, face.curvature, tol)


def analyze_recession_cone(inst: QpInstance) -> RecessionReport:
    """Exact curvature analysis of the recession cone.

    Nontriviality and the minimum of ``d^T Q d`` are decided over the
    compact slice ``{A d = 0, e^T d = 1, d >= 0}`` by basic-solution and
    face enumeration (``oracle.recession_analysis``), each refused past the
    enumeration cap.
    """
    return recession_analysis(inst.Q, inst.A)


def check_copositivity_desk_scale(Q) -> CopositivityCheck:
    """Exact minimum of ``x^T Q x`` over the standard simplex.

    Q is copositive exactly when the minimum is nonnegative; the check is
    by exhaustive face enumeration (``oracle.simplex_minimum``, which
    ``oracle.global_solve`` runs too), refused past ``n = enum_cap()``.
    """
    res = simplex_minimum(Q)
    return CopositivityCheck(min_value=float(res.value), minimizer=res.minimizers[0])


# ---------------------------------------------------------------------------
# envelope sampling


@dataclass(frozen=True)
class EnvelopeRow:
    t: float
    q: float
    lk: float
    status: str


def sample_envelope(
    inst: QpInstance,
    cone: str,
    start,
    end,
    samples: int = 11,
    opts: Optional[SolveOptions] = None,
) -> list[EnvelopeRow]:
    """Evaluate the underestimator and the objective along a segment.

    Both endpoints must be feasible; the segment stays feasible by
    convexity.  Solver failures on individual samples are recorded in the
    row status rather than raised.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    for label, pt in (("start", start), ("end", end)):
        if not is_feasible(inst, pt, tol=1e-7):
            raise PointInfeasible(f"{label} point of the segment is infeasible")
    rows = []
    for t in np.linspace(0.0, 1.0, samples):
        x = (1.0 - t) * start + t * end
        result = evaluate_underestimator(inst, cone, x, opts)
        rows.append(EnvelopeRow(t=float(t), q=evaluate_objective(inst, x), lk=result.value,
                                status=result.status))
    return rows


def envelope_csv(rows) -> str:
    """Render envelope samples as CSV with 12 significant digits."""
    lines = ["t,q,lK,status"]
    for row in rows:
        lines.append(f"{row.t:.12g},{row.q:.12g},{row.lk:.12g},{row.status}")
    return "\n".join(lines) + "\n"
