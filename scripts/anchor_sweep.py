#!/usr/bin/env python3
"""Anchor sweep: pinned DNN underestimator evaluations at three tolerances.

The anchor set is fixed by rule and never filtered by outcome: instances
``random_instance(BOUNDED, n, m, s)`` for n = 3-6, m = 1..n-1 and s = 0-9;
at each, every vertex and then 4 Dirichlet mixtures of the vertices drawn
with ``numpy.random.default_rng(s)``.  Every anchor is evaluated on the DNN
cone at ``tol_primal = tol_dual`` = 1e-7, 1e-8 and 1e-9.  For each
tolerance the JSON output gives the anchors, those the interior-point
method iterated on (iterations > 0; an anchor whose face has order 1 is
solved exactly and reads 0, and so does one of order 2 wherever a KKT
pair passes the method's checks), their iterations summed, and the MAX_ITER
anchors by instance name and anchor index (vertices first), followed by
the wall time.  The exit status is 1 when any anchor ends MAX_ITER at 1e-7
or 1e-8, 0 otherwise; 1e-9 sits at the method's residual floor on the
largest sign-row sets and is reported only.

Usage, from the repository root:

    PYTHONPATH=src python3 scripts/anchor_sweep.py > anchors.json
"""

import json
import sys
from time import perf_counter

import numpy as np

from qprelax.conic import MAX_ITER, SolveOptions, evaluate_underestimator
from qprelax.core import DNN
from qprelax.generators import BOUNDED, random_instance
from qprelax.oracle import enumerate_vertices

SIZES = tuple((n, m) for n in range(3, 7) for m in range(1, n))
SEEDS = range(10)
MIXTURES = 4
TOLERANCES = (1e-7, 1e-8, 1e-9)
#: the tolerances at which a MAX_ITER anchor fails the sweep
GATED = (1e-7, 1e-8)


def anchors(inst, seed):
    vertices = np.array(enumerate_vertices(inst))
    rng = np.random.default_rng(seed)
    mixtures = [rng.dirichlet(np.ones(len(vertices))) @ vertices for _ in range(MIXTURES)]
    return list(vertices) + mixtures


def main():
    start = perf_counter()
    cases = []
    for n, m in SIZES:
        for seed in SEEDS:
            inst = random_instance(BOUNDED, n, m, seed)
            cases.append((inst, anchors(inst, seed)))
    out = {"anchors": sum(len(points) for _, points in cases)}
    for tol in TOLERANCES:
        opts = SolveOptions(tol_primal=tol, tol_dual=tol)
        ipm, iterations, max_iter = 0, 0, []
        for inst, points in cases:
            for k, x in enumerate(points):
                res = evaluate_underestimator(inst, DNN, x, opts)
                ipm += res.iterations > 0
                iterations += res.iterations
                if res.status == MAX_ITER:
                    max_iter.append(f"{inst.name}/{k}")
        out[f"{tol:g}"] = {"ipm_anchors": ipm, "iterations": iterations,
                           "max_iter": len(max_iter), "max_iter_anchors": max_iter}
    out["seconds"] = round(perf_counter() - start, 1)
    json.dump(out, sys.stdout, indent=1)
    print()
    return 1 if any(out[f"{tol:g}"]["max_iter"] for tol in GATED) else 0


if __name__ == "__main__":
    sys.exit(main())
