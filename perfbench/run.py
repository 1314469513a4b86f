#!/usr/bin/env python3
"""qprelax benchmark: one process, one closed-loop client, one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload corpus-compare --seed 0 --seconds 40 --trace 0

Each op is one public-API call (``compare_report`` or
``evaluate_underestimator``).  Ops run in passes over the workload's fixed
op list; every result is checked outside the timed region, and an op that
raises, returns MAX_ITER or INCONCLUSIVE, or fails a check is a failed op.

Timings are scaled to a reference machine speed.  The machines this runs
on are shared, and the same op can take twice as long from one second to
the next when other tenants load the host.  A fixed numpy and interpreter
kernel that does not touch qprelax (``Calibration``) is timed between ops,
and each op's latency is multiplied by ``REF_NOMINAL_S`` over the mean of
the kernel times just before and just after it.  A change to qprelax moves
the op times and not the kernel, so it shows in full; a slower host moves
both.  The detail line also gives the unscaled figures.

Failed ops are reported as ``ok_frac``, the share of ops that did not
fail, because a metric must not read zero; the detail line gives
``failed_frac`` and every failure by op and check.

``--trace 0`` reports the end-to-end metrics.  Throughput and latency use
the median scaled latency of each op across passes.

``--trace 1`` runs one untraced pass and two passes with the layer
functions wrapped (see ``tracing.py``), checks that both traced passes
count exactly the same work, times the bare kernels, and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (pass counts, tail percentile, thread counts, every
failure by op and check).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The ops are dense linear algebra on matrices of order at most 13, where
#: BLAS threads add only overhead; one thread also keeps the single client
#: on one core.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Seconds one untraced pass takes on the reference machine (2-core Xeon VM
#: on a loaded host, numpy 2.4 with OpenBLAS, one thread).  ``--seconds`` is
#: turned into a whole number of passes with these, so a run does the same
#: work on every commit and a faster commit finishes sooner.
NOMINAL_PASS_S = {"corpus-compare": 7.5, "pinned-batch": 9.5, "desk-scale": 15.0}

#: Passes per run at least: each op's latency is its median over passes.
MIN_PASSES = 3

#: Times set-up is repeated to report its median.
SETUP_REPEATS = 3

#: Calibration kernel time on the reference machine when its host is idle.
REF_NOMINAL_S = 0.0016

#: After each op the calibration kernel runs for at least this share of the
#: op's time, so the speed estimate around a long op averages over as many
#: of the host's swings as the op does.
REF_SHARE = 0.05

#: Matrix orders of the kernel baseline: n = 4, 8 and 16.
KERNEL_ORDERS = (5, 9, 17)

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_qprelax():
    """Import the package from this checkout's ``src``; returns seconds taken."""
    if not (SRC / "qprelax" / "__init__.py").is_file():
        sys.exit(f"error: no qprelax sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import qprelax
    elapsed = perf_counter() - start
    if Path(qprelax.__file__).resolve().parent != (SRC / "qprelax").resolve():
        sys.exit(f"error: imported qprelax from {qprelax.__file__}, not from {SRC}")
    return elapsed


class Calibration:
    """A fixed kernel like the solver's inner loop, without qprelax code:
    a clipped eigendecomposition at orders 5 and 9 plus interpreter work."""

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._mats = [g + g.T for g in (rng.normal(size=(k, k)) for k in (5, 9))]

    def around(self, op_seconds):
        """Mean kernel time over at least ``REF_SHARE`` of ``op_seconds``."""
        times = [self.sample()]
        while math.fsum(times) < REF_SHARE * op_seconds:
            times.append(self.sample())
        return statistics.fmean(times)

    def scale(self, seconds, before, after):
        """``seconds`` at the reference speed, given the kernel times around it."""
        return seconds * 2.0 * REF_NOMINAL_S / (before + after)

    def sample(self):
        np = self._np
        start = perf_counter()
        for _ in range(30):
            for m in self._mats:
                w, v = np.linalg.eigh(m)
                (v * np.clip(w, 0.0, None)) @ v.T
            sum(i * i for i in range(300))
        return perf_counter() - start


class Ledger:
    """Attempted ops, failed ops and each distinct failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # (op label, problem) -> times seen

    def record(self, op, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
        for problem in problems:
            key = (op.label, problem)
            self.failures[key] = self.failures.get(key, 0) + 1

    def listing(self):
        return [{"op": op, "check": problem, "times": n}
                for (op, problem), n in sorted(self.failures.items())]


def run_pass(ops, ledger, calib, run_op):
    """Run every op once.

    Returns the unscaled and the scaled latency of each op in seconds; an
    op that raised has NaN for both.
    """
    import workloads

    raw = []
    refs = [calib.sample()]
    for op in ops:
        start = perf_counter()
        try:
            result, seconds = run_op(op)
        except Exception:  # an op that raises is a failed op, not a crash
            refs.append(calib.around(perf_counter() - start))
            ledger.record(op, [traceback.format_exc(limit=1).strip().splitlines()[-1]])
            raw.append(math.nan)
            continue
        refs.append(calib.around(seconds))  # op i runs between refs[i] and refs[i + 1]
        ledger.record(op, workloads.check(op, result))
        raw.append(seconds)
    # the host's speed changes within a second, so the kernel runs right
    # next to the op track it best; wider windows gave noisier op times
    scaled = [calib.scale(s, refs[i], refs[i + 1]) for i, s in enumerate(raw)]
    return raw, scaled


def untraced(op):
    import workloads

    start = perf_counter()
    result = workloads.call(op)
    return result, perf_counter() - start


def latency_summary(passes):
    """Throughput, p50 and tail from each op's median latency across passes.

    Each median stands for that op's samples in every pass, so the tail is
    the highest percentile with ``TAIL_BEYOND`` samples beyond it among
    ops x passes samples, and one disturbed sample does not move it.
    """
    ok = [i for i in range(len(passes[0])) if not any(math.isnan(p[i]) for p in passes)]
    per_op = [statistics.median(p[i] for p in passes) for i in ok]
    samples = sorted(per_op * len(passes))
    n = len(samples)
    beyond = min(TAIL_BEYOND, n - 1)
    return {
        "throughput_ops_s": len(per_op) / math.fsum(per_op),
        "latency_p50_ms": 1e3 * statistics.median(samples),
        "latency_tail_ms": 1e3 * samples[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "samples": n,
    }


def end_to_end(ops, passes, ledger, calib):
    raw, scaled = [], []
    for _ in range(passes):
        r, s = run_pass(ops, ledger, calib, untraced)
        raw.append(r)
        scaled.append(s)
    return latency_summary(scaled), {"passes": passes, "unscaled": latency_summary(raw)}


# ---------------------------------------------------------------------------
# traced run


def kernel_baseline(calib):
    """Bare ``eigh`` against the solver's PSD projection and face projector."""
    import numpy as np

    from qprelax import core, generators, numerics

    def per_call_us(fn, arg, calls=2000, repeats=5):
        times = []
        for _ in range(repeats):
            before = calib.sample()
            start = perf_counter()
            for _ in range(calls):
                fn(arg)
            seconds = perf_counter() - start
            times.append(calib.scale(seconds, before, calib.around(seconds)) / calls)
        return 1e6 * statistics.median(times)

    out = {}
    rng = np.random.default_rng(0)
    for k in KERNEL_ORDERS:
        g = rng.normal(size=(k, k))
        m = g + g.T
        inst = generators.random_instance(generators.BOUNDED, k - 1, 1 + k // 4, 0)
        face = numerics.build_affine_projector(core.lift_instance(inst))
        eigh_us = per_call_us(np.linalg.eigh, m)
        psd_us = per_call_us(lambda a: numerics.project_cone(a, numerics.PSD), m)
        out[f"numerics.eigh_baseline.k{k}_us"] = eigh_us
        out[f"numerics.project_cone.psd.k{k}_us"] = psd_us
        out[f"numerics.FaceProjector.apply.k{k}_us"] = per_call_us(face.apply, m)
        out[f"numerics.project_cone.psd.eigh_ratio.k{k}"] = psd_us / eigh_us
    return out


def traced_run(ops, ledger, calib):
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    returned = {"iterations": 0, "optimal": 0, "polished": 0}

    def traced(op):
        result, seconds = tracer.run_op(tracer.ops, lambda: workloads.call(op))
        for res in workloads.relaxation_results(result):
            returned["iterations"] += res.iterations
            returned["optimal"] += res.status == "OPTIMAL"
            returned["polished"] += res.polished
        return result, seconds

    def total(latencies):
        return math.fsum(x for x in latencies if not math.isnan(x))

    untraced_s = total(run_pass(ops, ledger, calib, untraced)[1])
    raw_s = traced_s = 0.0
    snapshots = []
    tracer.install()
    try:
        for _ in range(2):
            raw, scaled = run_pass(ops, ledger, calib, traced)
            raw_s += total(raw)
            traced_s += total(scaled)
            snapshots.append({**tracer.count_snapshot(),
                              **{f"returned.{k}": float(v) for k, v in returned.items()}})
    finally:
        tracer.uninstall()

    first = snapshots[0]
    second = {k: v - first.get(k, 0.0) for k, v in snapshots[1].items()}
    mismatched = sorted(k for k in set(first) | set(second)
                        if first.get(k, 0.0) != second.get(k, 0.0))
    # span times scaled by the traced passes' mean host-speed factor
    metrics = layer_metrics(tracer, returned, traced_s / raw_s)
    metrics["trace.overhead_frac"] = (2.0 * untraced_s - traced_s) / traced_s
    metrics.update(kernel_baseline(calib))
    detail = {
        "traced_passes": 2,
        "untraced_passes": 1,
        "host_speed_factor": traced_s / raw_s,
        "count_check": {"passed": not mismatched, "mismatched": mismatched},
        "counts_per_pass": first,
        # the layer self times sum to the traced op time; the overhead is
        # the difference from the untraced op time
        "op_ms": {
            "untraced": 1e3 * untraced_s / len(ops),
            "traced": 1e3 * traced_s / tracer.ops,
            "layer_self_sum": math.fsum(v for k, v in metrics.items()
                                        if k.startswith("layer.")),
        },
    }
    return metrics, detail


def layer_metrics(tracer, returned, speed):
    """Per-layer metrics; span times are multiplied by ``speed``."""
    us = 1e6 * speed
    ms = 1e3 * speed
    ops = tracer.ops
    calls = tracer.calls
    incl = tracer.incl
    loop_its = tracer.counts["conic.loop_iterations"]
    faces = tracer.counts["oracle.faces"]

    def per_call(name, scale):
        return scale * incl[name] / calls[name] if calls[name] else 0.0

    def per_op(name):
        return calls[name] / ops

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "numerics.project_cone.psd.us_per_call": per_call("numerics.project_cone.psd", us),
        "numerics.project_cone.sign.us_per_call": per_call("numerics.project_cone.sign", us),
        "numerics.project_cone.psd.calls_per_op": per_op("numerics.project_cone.psd"),
        "numerics.FaceProjector.apply.us_per_call": per_call("numerics.FaceProjector.apply", us),
        "numerics.FaceProjector.apply.calls_per_op": per_op("numerics.FaceProjector.apply"),
        "conic.iterations_per_op": returned["iterations"] / ops,
        "conic.loop_iterations_per_op": loop_its / ops,
        "conic.us_per_iteration": us * ratio(tracer.conic_time, loop_its),
        "conic.self_us_per_iteration": us * ratio(tracer.conic_self_time, loop_its),
        "conic.recession_certificate_search.calls_per_op":
            per_op("conic.recession_certificate_search"),
        "conic.recession_certificate_search.ms_per_call":
            per_call("conic.recession_certificate_search", ms),
        "conic.verify_certificate.ms_per_call": per_call("conic.verify_certificate", ms),
        "conic.solve_relaxation.ms_per_call": per_call("conic.solve_relaxation", ms),
        "conic.evaluate_underestimator.ms_per_call":
            per_call("conic.evaluate_underestimator", ms),
        "conic.polished_frac": ratio(returned["polished"], returned["optimal"]),
        "oracle.global_solve.ms_per_call": per_call("oracle.global_solve", ms),
        "oracle.faces_per_op": faces / ops,
        "oracle.faces_per_s":
            ratio(faces, incl["oracle.minimize_quad_over_polytope"] * speed),
        "oracle.enumerate_vertices.calls_per_op": per_op("oracle.enumerate_vertices"),
        "oracle.basic_feasible_points.calls_per_op": per_op("oracle.basic_feasible_points"),
        "analysis.check_copositivity_desk_scale.ms_per_call":
            per_call("analysis.check_copositivity_desk_scale", ms),
        "analysis.analyze_recession_cone.ms_per_call":
            per_call("analysis.analyze_recession_cone", ms),
        "core.lift_instance.calls_per_op": per_op("core.lift_instance"),
        "numerics.build_affine_projector.calls_per_op": per_op("numerics.build_affine_projector"),
        "numerics.certificate_projector.calls_per_op": per_op("numerics.certificate_projector"),
        "core.validate_lifted_point.ms_per_op": ms * incl["core.validate_lifted_point"] / ops,
        "report.compare_report.self_ms_per_op":
            ms * tracer.self_time["report.compare_report"] / ops,
    }
    for layer in ("bench", "report", "conic", "numerics", "oracle", "analysis", "core"):
        m[f"layer.{layer}.self_ms_per_op"] = ms * tracer.layer_self[layer] / ops
    return m


# ---------------------------------------------------------------------------


def main():
    args = parse_args()
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # one core for the whole run, so an op and the calibration kernel
    # around it run on the same core
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    import_s = import_qprelax()
    import workloads

    calib = Calibration()
    build = workloads.WORKLOADS[args.workload]
    generate_s = []
    setup_refs = [calib.sample()]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        ops = build(args.seed)
        generate_s.append(perf_counter() - start)
        setup_refs.append(calib.sample())
    unscaled_setup_s = import_s + statistics.median(generate_s)
    setup_s = unscaled_setup_s * REF_NOMINAL_S / statistics.median(setup_refs)

    ledger = Ledger()
    start = perf_counter()
    if args.trace:
        metrics, detail = traced_run(ops, ledger, calib)
    else:
        passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        summary, detail = end_to_end(ops, passes, ledger, calib)
        metrics = {
            "throughput_ops_s": summary["throughput_ops_s"],
            "latency_p50_ms": summary["latency_p50_ms"],
            "latency_tail_ms": summary["latency_tail_ms"],
            "ok_frac": 1.0 - ledger.failed / ledger.attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail.update(tail_percentile=summary["tail_percentile"], samples=summary["samples"])
        detail["unscaled"]["setup_s"] = unscaled_setup_s
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_pass": len(ops),
        "measured_s": perf_counter() - start,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "import_s": import_s,
        "generate_s": generate_s,
        "failed_frac": ledger.failed / ledger.attempted,
        "failures": ledger.listing(),
    })
    correct = ledger.failed == 0 and detail.get("count_check", {}).get("passed", True)
    for name, value in metrics.items():
        print(f"{name:56s} {value:14.6g} {units[name]}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
