"""Combined structural / relaxation / oracle report with cross-checks.

The report runs every applicable analysis on an instance, solves both
lifted relaxations, computes the exact optimum, and grades the results
against the structural theory (lower bound, cone ordering, exactness and
triviality conditions, feasibility and boundedness preservation,
certificate verification).  Every numeric claim records the tolerance it
was checked at.  A step whose enumeration would exceed the oracle's cap
is skipped with a note carrying the refusal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .analysis import (
    CopositivityCheck,
    NullspaceCurvatureReport,
    check_copositivity_desk_scale,
    check_psd_on_nullspace,
)
from .conic import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    SolveOptions,
    solve_relaxation,
    verify_certificate,
)
from .core import DNN, PSD0, QpInstance, jsonable
from .errors import DeskScaleLimit
from .oracle import (
    ORACLE_UNBOUNDED,
    OracleResult,
    certifies_copositive,
    enumerate_vertices,
    global_solve,
    verify_ray_certificate,
)


#: Relative tolerance of every value comparison between the relaxations and
#: the oracle; each cross-check records it.
COMPARISON_TOLERANCE = 1e-6


@dataclass(frozen=True)
class CrossCheck:
    name: str
    applicable: bool
    passed: Optional[bool]
    detail: str
    tolerance: float


@dataclass
class Report:
    instance_name: str
    n: int
    m: int
    vertices: Optional[int]
    nullspace: Optional[NullspaceCurvatureReport]
    copositivity: Optional[CopositivityCheck]
    c_nonnegative: bool
    oracle: Optional[OracleResult]
    relaxations: dict
    checks: list[CrossCheck] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """The report as JSON-ready data: the object of its fields."""
        return jsonable(self)

    def to_text(self) -> str:
        lines = []
        lines.append(f"instance {self.instance_name}  (n={self.n}, m={self.m})")
        if self.vertices is None:
            lines.append("  feasibility: skipped (desk-scale cap)")
        else:
            lines.append(
                f"  feasibility: {'EMPTY' if self.vertices == 0 else 'nonempty'}"
                f" ({self.vertices} basic feasible points)"
            )
        recession = None if self.oracle is None else self.oracle.recession
        if recession is not None:
            mc = recession.min_curvature
            mc_txt = "n/a (trivial cone)" if math.isinf(mc) else f"{mc:.10g}"
            lines.append(
                f"  recession cone: {'nontrivial' if recession.l_nontrivial else 'trivial'},"
                f" min curvature {mc_txt} (tol {recession.tolerance:g})"
            )
        if self.nullspace is not None:
            lines.append(
                f"  objective psd on null(A): {self.nullspace.holds}"
                f" (min reduced eigenvalue {self.nullspace.min_eigenvalue:.10g},"
                f" tol {self.nullspace.tolerance:g})"
            )
        if self.copositivity is not None:
            lines.append(
                f"  copositivity (simplex min of x^T Q x): {self.copositivity.min_value:.10g}"
            )
        lines.append(f"  linear term nonnegative: {self.c_nonnegative}")
        if self.oracle is not None:
            lines.append(
                f"  oracle: {self.oracle.status} value {self.oracle.value:.10g}"
                f" ({len(self.oracle.minimizers)} minimizers,"
                f" {self.oracle.faces_explored} faces)"
            )
        for cone, res in self.relaxations.items():
            extra = ""
            if res.certificate is not None:
                extra = f", certificate rate {res.certificate.objective_rate:.10g}"
            elif res.ray is not None:
                extra = f", ray slope {res.ray_check.slope:.10g}"
            lines.append(
                f"  relaxation {cone}: {res.status} value {res.value:.10g}"
                f" ({res.iterations} iterations{extra})"
            )
        lines.append(f"  cross-checks (comparison tol {COMPARISON_TOLERANCE:g}):")
        for c in self.checks:
            if not c.applicable:
                mark = "SKIP"
            else:
                mark = "PASS" if c.passed else "FAIL"
            lines.append(f"    [{mark}] {c.name}: {c.detail}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


#: Relaxation statuses whose values a value-based check may treat as bounds.
_VERDICTS = (OPTIMAL, UNBOUNDED, INFEASIBLE)
_INCONCLUSIVE = "MAX_ITER relaxation is inconclusive"


def _conclusive(*results) -> bool:
    return all(res.status in _VERDICTS for res in results)


def desk_scale(notes, what, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or None with a note in ``notes`` past the enumeration cap."""
    try:
        return fn(*args, **kwargs)
    except DeskScaleLimit as exc:
        notes.append(f"{what} skipped: {exc}")
        return None


def compare_report(inst: QpInstance, opts: Optional[SolveOptions] = None) -> Report:
    """Run all analyses and both relaxations, then grade the cross-checks."""
    opts = opts or SolveOptions()
    notes = []
    verts = desk_scale(notes, "feasibility enumeration", enumerate_vertices, inst)
    nullspace = check_psd_on_nullspace(inst)
    copositivity = desk_scale(notes, "copositivity check", check_copositivity_desk_scale, inst.Q)
    simplex_min = None if copositivity is None else copositivity.min_value
    oracle = desk_scale(notes, "oracle and recession analysis", global_solve, inst,
                        simplex_min=simplex_min, vertices=verts)
    # the relaxations read their feasible point and recession rays from
    # these enumerations instead of repeating them
    rays = None if oracle is None else oracle.recession.rays
    relaxations = {}
    for cone in (DNN, PSD0):
        res = desk_scale(notes, f"relaxation {cone}", solve_relaxation, inst, cone, opts,
                         vertices=verts, rays=rays)
        if res is not None:
            relaxations[cone] = res

    report = Report(
        instance_name=inst.name,
        n=inst.n,
        m=inst.m,
        vertices=None if verts is None else len(verts),
        nullspace=nullspace,
        copositivity=copositivity,
        c_nonnegative=bool(float(inst.c.min()) >= 0.0),
        oracle=oracle,
        relaxations=relaxations,
        notes=notes,
    )
    _grade(inst, report)
    return report


def _grade(inst: QpInstance, report: Report) -> None:
    """Append the nine cross-checks to ``report.checks``, in a fixed order."""
    tol = COMPARISON_TOLERANCE
    oracle = report.oracle
    recession = None if oracle is None else oracle.recession
    nullspace = report.nullspace
    relaxations = report.relaxations
    dnn = relaxations.get(DNN)
    psd0 = relaxations.get(PSD0)
    feasible = report.vertices is not None and report.vertices > 0

    def check(name, applies, reads, grade, otherwise):
        """Record one cross-check.  A check that does not apply says
        ``otherwise``; one that reads a relaxation with no verdict is
        inconclusive; any other is graded by ``grade() -> (passed, detail)``."""
        if not applies:
            passed, detail = None, otherwise
        elif not _conclusive(*reads):
            applies, passed, detail = False, None, _INCONCLUSIVE
        else:
            passed, detail = grade()
        report.checks.append(CrossCheck(name, applies, passed, detail, tol))

    def lower_bound():
        bound = oracle.value + tol * (1.0 + abs(oracle.value))
        detail = ", ".join(
            f"{cone} {res.value:.8g} <= {oracle.value:.8g}" for cone, res in relaxations.items()
        )
        return all(res.value <= bound for res in relaxations.values()), detail

    check(
        "relaxations lower-bound the optimum",
        oracle is not None and dnn is not None and math.isfinite(oracle.value),
        relaxations.values(), lower_bound, "needs a finite oracle value",
    )

    def weaker():
        slack = tol * (1.0 + abs(dnn.value) if math.isfinite(dnn.value) else 1.0)
        detail = f"border-cone {psd0.value:.8g} <= doubly-nonnegative {dnn.value:.8g}"
        return psd0.value <= dnn.value + slack, detail

    check(
        "weaker cone gives a weaker bound",
        dnn is not None and psd0 is not None and dnn.status != INFEASIBLE,
        (dnn, psd0), weaker, "needs both relaxations",
    )

    def exact():
        gap = tol * (1.0 + abs(oracle.value))
        detail = (
            f"|{dnn.value:.8g} - {oracle.value:.8g}| and |{psd0.value:.8g} - {oracle.value:.8g}|"
            f" within {tol:g} relative"
        )
        return all(
            res.status == OPTIMAL and abs(res.value - oracle.value) <= gap for res in (dnn, psd0)
        ), detail

    check(
        "curvature condition makes relaxations exact",
        nullspace is not None and nullspace.holds and feasible and oracle is not None
        and math.isfinite(oracle.value) and dnn is not None and psd0 is not None,
        (dnn, psd0), exact, "condition fails or data unavailable",
    )

    check(
        "curvature failure trivializes the border cone",
        nullspace is not None and not nullspace.holds and feasible and psd0 is not None,
        (psd0,), lambda: (psd0.status == UNBOUNDED, f"border-cone status {psd0.status}"),
        "condition holds or data unavailable",
    )

    check(
        "negative recession curvature collapses the bound",
        recession is not None and recession.neg_direction is not None and feasible
        and dnn is not None,
        (dnn,), lambda: (dnn.status == UNBOUNDED, f"doubly-nonnegative status {dnn.status}"),
        "no negative-curvature recession direction",
    )

    def preserved():
        if report.vertices == 0:
            empty = oracle is None or oracle.value == math.inf
            return (
                dnn.status == INFEASIBLE and psd0.status == INFEASIBLE and empty,
                "empty polyhedron: both relaxations infeasible",
            )
        return (
            dnn.status != INFEASIBLE and psd0.status != INFEASIBLE,
            "nonempty polyhedron: both relaxations feasible",
        )

    check(
        "feasibility is preserved",
        report.vertices is not None and dnn is not None and psd0 is not None,
        (), preserved, "feasibility undecided",
    )

    check(
        "bounded feasible set keeps the bound finite",
        recession is not None and not recession.l_nontrivial and feasible and dnn is not None,
        (dnn,), lambda: (
            dnn.status != UNBOUNDED and math.isfinite(dnn.value),
            f"doubly-nonnegative value {dnn.value:.8g}",
        ),
        "polyhedron unbounded or data unavailable",
    )

    # (who, lifted certificate, ray) of every unbounded verdict
    unbounded = [(cone, res.certificate, res.ray) for cone, res in relaxations.items()
                 if res.status == UNBOUNDED]
    if oracle is not None and oracle.status == ORACLE_UNBOUNDED:
        unbounded.append(("oracle", None, oracle.ray))

    def certified():
        ok = True
        details = []
        for who, certificate, ray in unbounded:
            if certificate is not None:
                chk = verify_certificate(inst, certificate)
                ok = ok and chk.ok and chk.objective_rate < 0
                details.append(f"{who}: rate {chk.objective_rate:.8g}, verified {chk.ok}")
            elif ray is not None:
                chk = verify_ray_certificate(inst, ray)
                ok = ok and chk.ok
                details.append(f"{who}: ray slope {chk.slope:.8g}, verified {chk.ok}")
            else:
                ok = False
                details.append(f"{who}: missing certificate")
        return ok, "; ".join(details)

    check(
        "unbounded verdicts carry verified certificates",
        bool(unbounded), (), certified, "no unbounded verdicts",
    )

    # a copositive Q and a nonnegative c make the objective nonnegative on the orthant
    check(
        "copositive objective stays bounded below",
        report.copositivity is not None
        and certifies_copositive(inst.Q, report.copositivity.min_value)
        and report.c_nonnegative and feasible and oracle is not None,
        (), lambda: (
            math.isfinite(oracle.value) and oracle.value >= -tol,
            f"objective nonnegative on the orthant; oracle value {oracle.value:.8g}",
        ),
        "objective not certified nonnegative",
    )
