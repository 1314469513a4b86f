#!/usr/bin/env python3
"""Value sweep: ``compare_report`` with default options over 240 instances.

The instance set is fixed before any fix is written and never filtered by
outcome: kinds BOUNDED, CONVEX_ON_NULLSPACE and UNBOUNDED_SAFE, sizes
(n, m) in (3, 1), (4, 2), (5, 2), (6, 3), seeds 0-19.  For every instance
with a failed applicable cross-check or a MAX_ITER relaxation, the JSON
output lists the failed checks and the MAX_ITER cones, followed by the
wall time and the iterations summed over all returned relaxations.  The
exit status is 1 when any instance fails, 0 otherwise.

Usage, from the repository root:

    PYTHONPATH=src python3 scripts/value_sweep.py > sweep.json
"""

import json
import sys
from time import perf_counter

from qprelax.conic import MAX_ITER
from qprelax.generators import (
    BOUNDED,
    CONVEX_ON_NULLSPACE,
    UNBOUNDED_SAFE,
    random_instance,
)
from qprelax.report import compare_report

KINDS = (BOUNDED, CONVEX_ON_NULLSPACE, UNBOUNDED_SAFE)
SIZES = ((3, 1), (4, 2), (5, 2), (6, 3))
SEEDS = range(20)


def instances():
    """The 240 instances of the sweep, in order."""
    for kind in KINDS:
        for n, m in SIZES:
            for seed in SEEDS:
                yield random_instance(kind, n, m, seed)


def main():
    failures = {}
    iterations = 0
    start = perf_counter()
    for inst in instances():
        rep = compare_report(inst)
        iterations += sum(res.iterations for res in rep.relaxations.values())
        checks = [c.name for c in rep.checks if c.applicable and not c.passed]
        max_iter = [cone for cone, res in rep.relaxations.items() if res.status == MAX_ITER]
        if checks or max_iter:
            failures[inst.name] = {"failed_checks": checks, "max_iter": max_iter}
    out = {
        "instances": len(KINDS) * len(SIZES) * len(SEEDS),
        "failing": len(failures),
        "failures": failures,
        "seconds": round(perf_counter() - start, 1),
        "iterations": iterations,
    }
    json.dump(out, sys.stdout, indent=1)
    print()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
