"""Combined structural / relaxation / oracle report with cross-checks.

The report runs every applicable analysis on an instance, solves both
lifted relaxations, computes the exact optimum when the instance is desk
scale, and grades the results against the structural theory (lower bound,
cone ordering, exactness and triviality conditions, feasibility and
boundedness preservation, certificate verification).  Every numeric claim
records the tolerance it was checked at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import conic
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
from .oracle import OracleResult, RecessionReport, enumerate_vertices, global_solve


@dataclass(frozen=True)
class CrossCheck:
    name: str
    applicable: bool
    passed: Optional[bool]
    detail: str
    tolerance: float


def relaxation_to_dict(res: conic.RelaxationResult) -> dict:
    """A relaxation result as data for ``core.jsonable``: the one layout of
    ``solve --json`` and of each relaxation in the report."""
    entry = {
        "status": res.status,
        "value": res.value,
        "iterations": res.iterations,
        "residual_primal": res.residual_primal,
        "residual_dual": res.residual_dual,
        "polished": res.polished,
    }
    if res.certificate is not None:
        entry["certificate"] = {
            "objective_rate": res.certificate.objective_rate,
            "matrix": res.certificate.d,
        }
    if res.point is not None:
        entry["point"] = res.point.y
    return entry


@dataclass
class Report:
    instance_name: str
    n: int
    m: int
    vertices: Optional[int]
    recession: Optional[RecessionReport]
    nullspace: Optional[NullspaceCurvatureReport]
    copositivity: Optional[CopositivityCheck]
    c_nonnegative: bool
    oracle: Optional[OracleResult]
    relaxations: dict
    checks: list[CrossCheck] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    comparison_tolerance: float = 1e-6

    def to_dict(self) -> dict:
        """The report as JSON-ready data (``core.jsonable``)."""
        out = {
            "instance": {"name": self.instance_name, "n": self.n, "m": self.m},
            "feasibility": {"vertices": self.vertices},
            "notes": list(self.notes),
            "comparison_tolerance": self.comparison_tolerance,
        }
        if self.recession is not None:
            out["recession"] = {
                "nontrivial": self.recession.l_nontrivial,
                "min_curvature": None if math.isinf(self.recession.min_curvature)
                else self.recession.min_curvature,
                "zero_directions": len(self.recession.zero_directions),
                "tolerance": self.recession.tolerance,
            }
        if self.nullspace is not None:
            out["psd_on_nullspace"] = {
                "holds": self.nullspace.holds,
                "min_eigenvalue": None if math.isinf(self.nullspace.min_eigenvalue)
                else self.nullspace.min_eigenvalue,
                "tolerance": self.nullspace.tolerance,
            }
        if self.copositivity is not None:
            out["copositivity"] = {
                "min_value": self.copositivity.min_value,
                "minimizer": self.copositivity.minimizer,
            }
        out["c_nonnegative"] = self.c_nonnegative
        if self.oracle is not None:
            out["oracle"] = {
                "status": self.oracle.status,
                "value": self.oracle.value,
                "minimizers": self.oracle.minimizers,
                "certified": self.oracle.certified,
                "faces_explored": self.oracle.faces_explored,
            }
        out["relaxations"] = {
            cone: relaxation_to_dict(res) for cone, res in self.relaxations.items()
        }
        out["checks"] = [
            {
                "name": c.name,
                "applicable": c.applicable,
                "passed": c.passed,
                "detail": c.detail,
                "tolerance": c.tolerance,
            }
            for c in self.checks
        ]
        return jsonable(out)

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
        if self.recession is not None:
            mc = self.recession.min_curvature
            mc_txt = "n/a (trivial cone)" if math.isinf(mc) else f"{mc:.10g}"
            lines.append(
                f"  recession cone: {'nontrivial' if self.recession.l_nontrivial else 'trivial'},"
                f" min curvature {mc_txt} (tol {self.recession.tolerance:g})"
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
            lines.append(
                f"  relaxation {cone}: {res.status} value {res.value:.10g}"
                f" ({res.iterations} iterations{extra})"
            )
        lines.append(f"  cross-checks (comparison tol {self.comparison_tolerance:g}):")
        for c in self.checks:
            if not c.applicable:
                mark = "SKIP"
            else:
                mark = "PASS" if c.passed else "FAIL"
            lines.append(f"    [{mark}] {c.name}: {c.detail}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


def _finite(x: float) -> bool:
    return not math.isinf(x) and not math.isnan(x)


#: Relaxation statuses whose values a value-based check may treat as bounds.
_VERDICTS = (OPTIMAL, UNBOUNDED, INFEASIBLE)
_INCONCLUSIVE = "MAX_ITER relaxation is inconclusive"


def _conclusive(*results) -> bool:
    return all(res.status in _VERDICTS for res in results)


def compare_report(inst: QpInstance, opts: Optional[SolveOptions] = None) -> Report:
    """Run all analyses and both relaxations, then grade the cross-checks."""
    opts = opts or SolveOptions()
    notes = []

    vertices = None
    try:
        vertices = len(enumerate_vertices(inst))
    except DeskScaleLimit as exc:
        notes.append(f"feasibility enumeration skipped: {exc}")

    nullspace = check_psd_on_nullspace(inst)

    copositivity = None
    try:
        copositivity = check_copositivity_desk_scale(inst.Q)
    except DeskScaleLimit as exc:
        notes.append(f"copositivity check skipped: {exc}")

    oracle = None
    try:
        simplex_min = None if copositivity is None else copositivity.min_value
        oracle = global_solve(inst, simplex_min=simplex_min)
    except DeskScaleLimit as exc:
        notes.append(f"oracle and recession analysis skipped: {exc}")
    recession = None if oracle is None else oracle.recession

    relaxations = {}
    for cone in (DNN, PSD0):
        try:
            relaxations[cone] = solve_relaxation(inst, cone, opts)
        except DeskScaleLimit as exc:
            notes.append(f"relaxation {cone} skipped: {exc}")

    report = Report(
        instance_name=inst.name,
        n=inst.n,
        m=inst.m,
        vertices=vertices,
        recession=recession,
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
    checks = report.checks
    tol = report.comparison_tolerance
    oracle = report.oracle
    dnn = report.relaxations.get(DNN)
    psd0 = report.relaxations.get(PSD0)
    feasible = report.vertices is not None and report.vertices > 0

    # lower bound: each relaxation value stays below the exact optimum
    applicable = oracle is not None and dnn is not None and _finite(oracle.value)
    if applicable and not _conclusive(*report.relaxations.values()):
        applicable, passed, detail = False, None, _INCONCLUSIVE
    elif applicable:
        results = []
        for cone, res in report.relaxations.items():
            bound = res.value <= oracle.value + tol * (1.0 + abs(oracle.value))
            results.append((cone, bound))
        passed = all(b for _, b in results)
        detail = ", ".join(
            f"{cone} {report.relaxations[cone].value:.8g} <= {oracle.value:.8g}"
            for cone, _ in results
        )
    else:
        passed, detail = None, "needs a finite oracle value"
    checks.append(CrossCheck("relaxations lower-bound the optimum", applicable, passed, detail, tol))

    # cone ordering: the border cone is the weaker relaxation
    applicable = dnn is not None and psd0 is not None and dnn.status != INFEASIBLE
    if applicable and not _conclusive(dnn, psd0):
        applicable, passed, detail = False, None, _INCONCLUSIVE
    elif applicable:
        passed = psd0.value <= dnn.value + tol * (1.0 + abs(dnn.value) if _finite(dnn.value) else 1.0)
        detail = f"border-cone {psd0.value:.8g} <= doubly-nonnegative {dnn.value:.8g}"
    else:
        passed, detail = None, "needs both relaxations"
    checks.append(CrossCheck("weaker cone gives a weaker bound", applicable, passed, detail, tol))

    # exactness: psd on null(A) makes every relaxation exact
    applicable = (
        report.nullspace is not None
        and report.nullspace.holds
        and feasible
        and oracle is not None
        and _finite(oracle.value)
        and dnn is not None
        and psd0 is not None
    )
    if applicable and not _conclusive(dnn, psd0):
        applicable, passed, detail = False, None, _INCONCLUSIVE
    elif applicable:
        ok = True
        for res in (dnn, psd0):
            ok = ok and res.status == OPTIMAL
            ok = ok and abs(res.value - oracle.value) <= tol * (1.0 + abs(oracle.value))
        passed = ok
        detail = (
            f"|{dnn.value:.8g} - {oracle.value:.8g}| and |{psd0.value:.8g} - {oracle.value:.8g}|"
            f" within {tol:g} relative"
        )
    else:
        passed, detail = None, "condition fails or data unavailable"
    checks.append(
        CrossCheck("curvature condition makes relaxations exact", applicable, passed, detail, tol)
    )

    # triviality: curvature failure collapses the border-cone relaxation
    applicable = (
        report.nullspace is not None and not report.nullspace.holds and feasible
        and psd0 is not None
    )
    if applicable and not _conclusive(psd0):
        applicable, passed, detail = False, None, _INCONCLUSIVE
    elif applicable:
        passed = psd0.status == UNBOUNDED
        detail = f"border-cone status {psd0.status}"
    else:
        passed, detail = None, "condition holds or data unavailable"
    checks.append(
        CrossCheck("curvature failure trivializes the border cone", applicable, passed, detail, tol)
    )

    # negative recession curvature collapses everything
    applicable = (
        report.recession is not None
        and report.recession.neg_direction is not None
        and feasible
        and dnn is not None
    )
    if applicable and not _conclusive(dnn):
        applicable, passed, detail = False, None, _INCONCLUSIVE
    elif applicable:
        passed = dnn.status == UNBOUNDED
        detail = f"doubly-nonnegative status {dnn.status}"
    else:
        passed, detail = None, "no negative-curvature recession direction"
    checks.append(
        CrossCheck("negative recession curvature collapses the bound", applicable, passed, detail, tol)
    )

    # feasibility preservation
    applicable = report.vertices is not None and dnn is not None and psd0 is not None
    if applicable:
        if report.vertices == 0:
            passed = (
                dnn.status == INFEASIBLE
                and psd0.status == INFEASIBLE
                and (oracle is None or oracle.value == math.inf)
            )
            detail = "empty polyhedron: both relaxations infeasible"
        else:
            passed = dnn.status != INFEASIBLE and psd0.status != INFEASIBLE
            detail = "nonempty polyhedron: both relaxations feasible"
    else:
        passed, detail = None, "feasibility undecided"
    checks.append(CrossCheck("feasibility is preserved", applicable, passed, detail, tol))

    # boundedness preservation: bounded polyhedron keeps the bound finite
    applicable = (
        report.recession is not None
        and not report.recession.l_nontrivial
        and feasible
        and dnn is not None
    )
    if applicable and not _conclusive(dnn):
        applicable, passed, detail = False, None, _INCONCLUSIVE
    elif applicable:
        passed = dnn.status != UNBOUNDED and _finite(dnn.value)
        detail = f"doubly-nonnegative value {dnn.value:.8g}"
    else:
        passed, detail = None, "polyhedron unbounded or data unavailable"
    checks.append(
        CrossCheck("bounded feasible set keeps the bound finite", applicable, passed, detail, tol)
    )

    # unbounded verdicts ship verified certificates
    unbounded = [
        (cone, res) for cone, res in report.relaxations.items() if res.status == UNBOUNDED
    ]
    applicable = bool(unbounded)
    if applicable:
        ok = True
        details = []
        for cone, res in unbounded:
            if res.certificate is None:
                ok = False
                details.append(f"{cone}: missing certificate")
                continue
            chk = verify_certificate(inst, res.certificate)
            ok = ok and chk.ok and chk.objective_rate < 0
            details.append(f"{cone}: rate {chk.objective_rate:.8g}, verified {chk.ok}")
        passed = ok
        detail = "; ".join(details)
    else:
        passed, detail = None, "no unbounded verdicts"
    checks.append(
        CrossCheck("unbounded verdicts carry verified certificates", applicable, passed, detail, 1e-6)
    )

    # finiteness certification from copositivity
    applicable = (
        report.copositivity is not None
        and report.copositivity.min_value >= -tol
        and report.c_nonnegative
        and feasible
        and oracle is not None
    )
    if applicable:
        passed = _finite(oracle.value) and oracle.value >= -tol
        detail = f"objective nonnegative on the orthant; oracle value {oracle.value:.8g}"
    else:
        passed, detail = None, "objective not certified nonnegative"
    checks.append(
        CrossCheck("copositive objective stays bounded below", applicable, passed, detail, tol)
    )
