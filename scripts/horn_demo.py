#!/usr/bin/env python3
"""Walk through the Horn-matrix instance: finite optimum, unbounded relaxation.

The quadratic form is the Horn matrix (copositive, so the objective is
nonnegative on the orthant) and the constraint row admits a doubly
nonnegative certificate with negative objective rate in its null space, so
the relaxation value collapses to minus infinity while the true optimum is
finite.  The script prints each step of that story, and exits 1 unless
the simplex minimum certifies the quadratic part copositive, the oracle
reads OPTIMAL at 27, the certificate search finds a verified certificate,
and the relaxation reads UNBOUNDED.

Run it as ``PYTHONPATH=src python scripts/horn_demo.py``.
"""

import sys

import numpy as np

from qprelax.analysis import analyze_recession_cone, check_copositivity_desk_scale
from qprelax.conic import (
    FOUND,
    OBJECTIVE,
    UNBOUNDED,
    recession_certificate_search,
    solve_relaxation,
)
from qprelax.core import DNN
from qprelax.generators import horn_instance
from qprelax.oracle import ORACLE_OPTIMAL, certifies_copositive, enumerate_vertices, global_solve


def main() -> int:
    inst, dtilde = horn_instance()
    print(f"instance {inst.name}: n={inst.n}, constraint row {inst.A[0].astype(int).tolist()},"
          f" rhs {inst.b[0]:g}")

    cop = check_copositivity_desk_scale(inst.Q)
    copositive = certifies_copositive(inst.Q, cop.min_value)
    print(f"simplex minimum of x^T Q x: {cop.min_value:.3g}"
          f"  (copositive quadratic part: {copositive})")
    print(f"linear term nonnegative: {bool(inst.c.min() >= 0)}"
          "  -> objective nonnegative on the orthant, optimum finite")

    verts = enumerate_vertices(inst)
    print(f"basic feasible points: {[np.round(v, 3).tolist() for v in verts]}")
    rec = analyze_recession_cone(inst)
    print(f"recession cone nontrivial: {rec.l_nontrivial},"
          f" minimum curvature {rec.min_curvature:.3g}")

    oracle = global_solve(inst, simplex_min=cop.min_value)
    print(f"exact optimum: {oracle.value:g} at {np.round(oracle.minimizers[0], 6).tolist()}"
          f" ({oracle.status})")

    print("\nembedded integer certificate (trace 45):")
    print(dtilde.astype(int))
    print(f"objective rate <Q, D>: {int((inst.Q * dtilde).sum())},"
          f" constraint product A D: {(inst.A.astype(int) @ dtilde.astype(int)).tolist()}")

    # the search stops at its first verified certificate, whose rate is in
    # general above the least one
    search = recession_certificate_search(inst, DNN, OBJECTIVE)
    verified = search.check is not None and search.check.ok
    rate = search.certificate.objective_rate if search.certificate else float("nan")
    print(f"\ncertificate search: {search.status} after {search.iterations} iterations,"
          f" first verified certificate's trace-normalized rate {rate:.6f}"
          f" (check ok: {verified})")

    res = solve_relaxation(inst, DNN)
    print(f"doubly nonnegative relaxation: {res.status} (value {res.value})")

    failed = [what for what, ok in (
        ("simplex minimum certifies copositivity", copositive),
        ("oracle OPTIMAL at 27", oracle.status == ORACLE_OPTIMAL
         and abs(oracle.value - 27.0) <= 1e-9 * 27.0),
        ("certificate search FOUND and verified", search.status == FOUND and verified),
        ("relaxation UNBOUNDED", res.status == UNBOUNDED),
    ) if not ok]
    if failed:
        print(f"\nFAILED: {'; '.join(failed)}")
        return 1
    print("\nfinite optimum, unbounded relaxation: the gap is infinite.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
