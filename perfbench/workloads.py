"""Workload inputs and output checks of the qprelax benchmark.

Instance lists and pinned anchor points are fixed by rule (kind x size x
instance seed) and never filtered by outcome.  The workload seed relabels
the variables and constraint rows of every instance, and the anchor points
with them; seed 0 keeps everything exactly as generated, so the corpus is
the one ``scripts/make_corpus.py`` writes.  Relabeling changes every input
matrix but not the problem, so each seed costs the same work.  Drawing
fresh instances or points per seed would not: one compare op ranges over
more than a factor of ten in time across instance seeds of one kind and
size, and the slowest pinned evaluations change by about 15% with the
points drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qprelax import conic, core, generators, oracle, report

HORN = "HORN"

#: Relative and absolute slack of value comparisons, as in the report's
#: cross-checks.
VALUE_TOL = 1e-6

#: Solver tolerance of the pinned evaluations.
PINNED_OPTS = conic.SolveOptions(tol_primal=1e-8, tol_dual=1e-8)

#: Anchor points drawn per pinned instance (x 5 instances x 2 cones = 120 ops)
#: and the seed they are drawn with: the first 12 of acceptance criterion
#: 9's anchor points at each instance.
PINNED_POINTS = 12
POINT_SEED = 77


@dataclass(frozen=True)
class Op:
    """One timed call: its label, the instance and what the call needs."""

    label: str
    kind: str
    inst: core.QpInstance
    cone: str = ""
    x: np.ndarray | None = None


def _relabel(inst, rng, seed):
    """The instance with permuted variables and rows, and the variable order."""
    if not seed:
        return inst, np.arange(inst.n)
    p = rng.permutation(inst.n)
    r = rng.permutation(inst.m)
    out = core.QpInstance(n=inst.n, m=inst.m, Q=inst.Q[np.ix_(p, p)], c=inst.c[p],
                          A=inst.A[np.ix_(r, p)], b=inst.b[r], name=inst.name)
    return out, p


def _compare_ops(specs, seed):
    rng = np.random.default_rng(seed)
    return [Op(inst.name, kind, _relabel(inst, rng, seed)[0]) for kind, inst in specs]


def corpus_compare(seed):
    """The ``make_corpus.py`` default corpus: 22 instances."""
    specs = [(HORN, generators.horn_instance()[0])]
    specs += [(HORN, generators.horn_family(generators.HornFamilyParams(n=n, seed=s)))
              for n in (6, 7, 8) for s in range(3)]
    specs += [(kind, generators.random_instance(kind, 4, 2, s))
              for kind in generators.KINDS for s in range(3)]
    return _compare_ops(specs, seed)


def desk_scale(seed):
    """Horn family at n = 10, 12 and each random kind at (10, 3), (12, 4)."""
    specs = [(HORN, generators.horn_family(generators.HornFamilyParams(n=n, seed=0)))
             for n in (10, 12)]
    specs += [(kind, generators.random_instance(kind, n, m, 0))
              for kind in generators.KINDS for n, m in ((10, 3), (12, 4))]
    return _compare_ops(specs, seed)


def pinned_batch(seed):
    """Acceptance criterion 9's fixed members, both cones, 12 anchors each."""
    members = [
        (generators.BOUNDED, 3, 1, 0),
        (generators.BOUNDED, 3, 2, 1),
        (generators.BOUNDED, 4, 2, 2),
        (generators.CONVEX_ON_NULLSPACE, 3, 1, 0),
        (generators.CONVEX_ON_NULLSPACE, 4, 2, 1),
    ]
    relabel_rng = np.random.default_rng(seed)
    ops = []
    for kind, n, m, s in members:
        inst = generators.random_instance(kind, n, m, s)
        vmat = np.array(oracle.enumerate_vertices(inst))
        rng = np.random.default_rng(POINT_SEED)
        points = [rng.dirichlet(np.ones(len(vmat))) @ vmat for _ in range(PINNED_POINTS)]
        inst, order = _relabel(inst, relabel_rng, seed)
        for cone in core.CONES:
            for j, x in enumerate(points):
                ops.append(Op(f"{inst.name}/{cone}/x{j}", kind, inst, cone, x[order]))
    return ops


WORKLOADS = {
    "corpus-compare": corpus_compare,
    "pinned-batch": pinned_batch,
    "desk-scale": desk_scale,
}


# ---------------------------------------------------------------------------
# output checks, run outside the timed region


def _close(value, ref):
    return abs(value - ref) <= VALUE_TOL * (1.0 + abs(ref))


def _certificate_problem(inst, res):
    if res.certificate is None:
        return "UNBOUNDED without a certificate"
    chk = conic.verify_certificate(inst, res.certificate)
    if not (chk.ok and chk.objective_rate < 0):
        return f"certificate fails verification (rate {chk.objective_rate:.3e})"
    return None


def call(op):
    """The timed public-API call of one op."""
    if op.cone:
        return conic.evaluate_underestimator(op.inst, op.cone, op.x, PINNED_OPTS)
    return report.compare_report(op.inst)


def check(op, result):
    """Problems with one op's result; empty when it passes."""
    return _check_pinned(op, result) if op.cone else _check_compare(op, result)


def _check_compare(op, rep):
    problems = [f"cross-check failed: {c.name}"
                for c in rep.checks if c.applicable and not c.passed]
    rel = rep.relaxations
    for cone in core.CONES:
        res = rel.get(cone)
        if res is None:
            problems.append(f"{cone}: no relaxation result")
            continue
        if res.status == conic.MAX_ITER:
            problems.append(f"{cone}: MAX_ITER")
        if res.status == conic.UNBOUNDED:
            problem = _certificate_problem(op.inst, res)
            if problem:
                problems.append(f"{cone}: {problem}")
    if rep.oracle is not None and rep.oracle.status == oracle.ORACLE_INCONCLUSIVE:
        problems.append("oracle INCONCLUSIVE")
    statuses = {cone: res.status for cone, res in rel.items()}
    if op.kind == HORN and statuses.get(core.DNN) != conic.UNBOUNDED:
        problems.append(f"Horn instance: DNN {statuses.get(core.DNN)}, expected UNBOUNDED")
    if op.kind == generators.INFEASIBLE and any(
            statuses.get(cone) != conic.INFEASIBLE for cone in core.CONES):
        problems.append(f"infeasible instance: {statuses}, expected INFEASIBLE for both cones")
    if op.kind == generators.CONVEX_ON_NULLSPACE:
        ref = rep.oracle.value if rep.oracle is not None else None
        for cone in core.CONES:
            res = rel.get(cone)
            if res is None or res.status != conic.OPTIMAL:
                problems.append(f"convex on null(A): {cone} not OPTIMAL")
            elif ref is None or not _close(res.value, ref):
                problems.append(f"convex on null(A): {cone} value {res.value:.10g} "
                                f"not within {VALUE_TOL:g} of oracle {ref}")
    return problems


def _check_pinned(op, res):
    if res.status == conic.OPTIMAL:
        q = core.evaluate_objective(op.inst, op.x)
        if res.value > q + VALUE_TOL:
            return [f"underestimator {res.value:.10g} above objective {q:.10g}"]
        return []
    if res.status == conic.UNBOUNDED:
        problem = _certificate_problem(op.inst, res)
        return [problem] if problem else []
    return [f"status {res.status}"]


def relaxation_results(result):
    """The relaxation results one op returned."""
    if isinstance(result, conic.RelaxationResult):
        return [result]
    return list(result.relaxations.values())
