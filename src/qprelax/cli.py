"""Command-line front end.

Subcommands: analyze, solve, certificate, oracle, localmin, generate,
envelope, compare.  Plain-text reports by default.  With --json a command
prints its own header fields (instance, cone, mode, point, written) and the
fields of its result objects, named as the dataclass fields and converted
by ``core.jsonable``; the plain text is a summary of the same objects.
Exit codes: 0 command completed (pass/fail verdicts are report content),
1 output pipe closed by the reader, 2 input error, 3 enumeration past
the cap, 4 internal numeric failure.  The environment variable
QPRELAX_ENUM_CAP (a nonnegative integer, default 16) is the base-2
logarithm of the largest enumeration, of column subsets or of faces, that
the exact routines run; ``solve`` and ``certificate`` enumerate only in
their emptiness screens.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import conic
from .analysis import (
    analyze_recession_cone,
    check_copositivity_desk_scale,
    check_psd_on_nullspace,
    envelope_csv,
    sample_envelope,
)
from .conic import SolveOptions
from .core import DNN, PSD0, jsonable, load_instance, load_vector
from .errors import (
    DeskScaleLimit,
    GenerationFailed,
    NonFinite,
    QpRelaxError,
)
from .generators import KINDS, TARGETS, write_generated
from .oracle import (
    enumerate_vertices,
    global_solve,
    ray_witness,
    verify_local_minimizer,
    verify_ray_certificate,
)
from .report import compare_report

_CONES = {"dnn": DNN, "psd0": PSD0}


def _emit(args, payload, text: str) -> None:
    if args.json:
        print(json.dumps(jsonable(payload), indent=2))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _options(args) -> SolveOptions:
    kwargs = {}
    if args.tol is not None:
        kwargs["tol_primal"] = args.tol
        kwargs["tol_dual"] = args.tol
    if args.max_iter is not None:
        kwargs["max_iterations"] = args.max_iter
    return SolveOptions(**kwargs)


def _fmt_value(v: float) -> str:
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.10g}"


def _ray_lines(ray, check, missing=()) -> list[str]:
    """The two lines of a ray of unbounded descent and its check, else ``missing``."""
    if ray is None:
        return list(missing)
    return [
        f"ray: from {np.round(ray.x0, 10).tolist()} along {np.round(ray.d, 10).tolist()}",
        f"ray slope {check.slope:.10g}, curvature {check.curvature:.10g},"
        f" independently verified: {check.ok}",
    ]


# ---------------------------------------------------------------------------
# handlers


def _cmd_analyze(args) -> int:
    inst = load_instance(args.instance, symmetrize=args.symmetrize)
    verts = enumerate_vertices(inst)
    rec = analyze_recession_cone(inst)
    ns = check_psd_on_nullspace(inst)
    cop = check_copositivity_desk_scale(inst.Q)
    ray = ray_witness(inst.Q, inst.c, verts, rec) if verts else None
    ray_check = None if ray is None else verify_ray_certificate(inst, ray)
    # sections named as the report's fields, so both commands print one layout
    payload = {"instance": inst.name, "n": inst.n, "m": inst.m, "feasible": bool(verts),
               "basic_feasible_points": verts, "recession": rec, "nullspace": ns,
               "copositivity": cop, "ray": ray, "ray_check": ray_check}
    mc = "n/a" if math.isinf(rec.min_curvature) else f"{rec.min_curvature:.10g}"
    lines = [
        f"instance {inst.name} (n={inst.n}, m={inst.m})",
        f"feasible: {bool(verts)} ({len(verts)} basic feasible points)",
        f"recession cone: {'nontrivial' if rec.l_nontrivial else 'trivial'},"
        f" min curvature {mc} (tol {rec.tolerance:g})",
        f"objective psd on null(A): {ns.holds} (tol {ns.tolerance:g})",
        f"simplex minimum of x^T Q x: {cop.min_value:.10g}",
    ]
    lines += _ray_lines(ray, ray_check, missing=["ray: none found"])
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance, symmetrize=args.symmetrize)
    cone = _CONES[args.cone]
    opts = _options(args)
    if args.at is not None:
        x = load_vector(args.at)
        res = conic.evaluate_underestimator(inst, cone, x, opts)
        what = f"underestimator at {args.at}"
    else:
        res = conic.solve_relaxation(inst, cone, opts)
        what = "relaxation"
    payload = {"instance": inst.name, "cone": args.cone, **jsonable(res)}
    lines = [
        f"{what} over {args.cone}: {res.status}",
        f"value: {_fmt_value(res.value)}",
        f"iterations: {res.iterations}"
        f" (residuals {res.residual_primal:.3g} / {res.residual_dual:.3g})",
    ]
    if res.certificate is not None:
        lines.append(f"certificate objective rate: {res.certificate.objective_rate:.10g}")
    if res.kkt is not None:
        lines.append(f"first-order multipliers: stationarity residual"
                     f" {res.kkt.stationarity_residual:.3g},"
                     f" least multiplier {res.kkt.min_multiplier:.3g}")
    lines += _ray_lines(res.ray, res.ray_check)
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_certificate(args) -> int:
    inst = load_instance(args.instance, symmetrize=args.symmetrize)
    cone = _CONES[args.cone]
    mode = conic.OBJECTIVE if args.mode == "objective" else conic.FEASIBILITY
    res = conic.recession_certificate_search(inst, cone, mode, _options(args))
    payload = {"instance": inst.name, "cone": args.cone, "mode": args.mode, **jsonable(res)}
    lines = [f"certificate search ({args.mode}, {args.cone}): {res.status}"]
    if res.reason:
        lines.append(f"reason: {res.reason}")
    if res.certificate is not None:
        # the search verified its certificate from raw data before grading it
        lines.append(f"objective rate: {res.certificate.objective_rate:.10g}")
        lines.append(f"independently verified: {res.check.ok}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_oracle(args) -> int:
    inst = load_instance(args.instance, symmetrize=args.symmetrize)
    res = global_solve(inst)
    payload = {"instance": inst.name, **jsonable(res)}
    lines = [
        f"oracle: {res.status}",
        f"value: {_fmt_value(res.value)} (certified: {res.certified})",
        f"faces explored: {res.faces_explored}",
    ]
    for m in res.minimizers:
        lines.append(f"minimizer: {np.round(m, 10).tolist()}")
    lines += _ray_lines(res.ray, res.ray_check)
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_localmin(args) -> int:
    inst = load_instance(args.instance, symmetrize=args.symmetrize)
    x = load_vector(args.at)
    verdict = verify_local_minimizer(inst, x)
    payload = {"instance": inst.name, "point": x, **jsonable(verdict)}
    lines = [f"local minimizer: {verdict.is_local_min}"]
    if verdict.kkt is not None:
        lines.append(f"multipliers y: {np.round(verdict.kkt.y, 10).tolist()}")
        lines.append(f"multipliers s: {np.round(verdict.kkt.s, 10).tolist()}")
    else:
        lines.append("first-order conditions failed")
    if not math.isnan(verdict.second_order_min):
        lines.append(f"second-order minimum over the critical cone: {verdict.second_order_min:.10g}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_generate(args) -> int:
    written = [str(p) for p in write_generated(args.out, args.target, n=args.n, m=args.m,
                                                seed=args.seed, kind=args.kind)]
    _emit(args, {"written": written}, "\n".join(f"wrote {p}" for p in written))
    return 0


def _cmd_envelope(args) -> int:
    inst = load_instance(args.instance, symmetrize=args.symmetrize)
    start = load_vector(args.src)
    end = load_vector(args.dst)
    rows = sample_envelope(
        inst, _CONES[args.cone], start, end, samples=args.samples, opts=_options(args)
    )
    csv = envelope_csv(rows)
    if args.out:
        Path(args.out).write_text(csv)
        _emit(args, {"written": args.out, "rows": len(rows)}, f"wrote {args.out}")
    else:
        _emit(args, {"rows": rows}, csv)
    return 0


def _compare_one(path, opts):
    inst = load_instance(path)
    return compare_report(inst, opts)


def _cmd_compare(args) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be positive")
    target = Path(args.instance)
    opts = _options(args)
    if target.is_dir():
        files = sorted(p for p in target.glob("*.json") if not p.name.endswith(".meta.json"))
        if not files:
            raise QpRelaxError(f"no instance files in {target}")
        compare = partial(_compare_one, opts=opts)
        if args.jobs <= 1:
            reports = [compare(p) for p in files]
        else:
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=args.jobs, mp_context=spawn) as pool:
                reports = list(pool.map(compare, files))
        _emit(args, reports, "".join(r.to_text() for r in reports))
        return 0
    report = _compare_one(target, opts)
    _emit(args, report, report.to_text())
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprelax",
        description="Feasibility-preserving conic relaxations of nonconvex quadratic programs.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--tol", type=float, default=None, help="solver residual tolerance")
    parser.add_argument("--max-iter", type=int, default=None, help="solver iteration budget")
    parser.add_argument(
        "--symmetrize",
        action="store_true",
        help="replace a non-symmetric objective matrix by its symmetric part on load",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural analysis of an instance")
    p.add_argument("instance")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("solve", help="solve a lifted relaxation")
    p.add_argument("--cone", choices=sorted(_CONES), default="dnn")
    p.add_argument("--at", default=None, help="vector file: evaluate the underestimator there")
    p.add_argument("instance")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("certificate", help="search for a recession certificate")
    p.add_argument("--cone", choices=sorted(_CONES), default="dnn")
    p.add_argument("--mode", choices=("objective", "feasibility"), default="objective")
    p.add_argument("instance")
    p.set_defaults(handler=_cmd_certificate)

    p = sub.add_parser("oracle", help="exact global minimization by face enumeration")
    p.add_argument("instance")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("localmin", help="verify a candidate local minimizer")
    p.add_argument("--at", required=True, help="vector file with the candidate point")
    p.add_argument("instance")
    p.set_defaults(handler=_cmd_localmin)

    p = sub.add_parser("generate", help="write instance files")
    p.add_argument("target", choices=TARGETS)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=KINDS, default="BOUNDED")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("envelope", help="sample the underestimator along a segment")
    p.add_argument("--cone", choices=sorted(_CONES), default="dnn")
    p.add_argument("--from", dest="src", required=True, help="vector file: segment start")
    p.add_argument("--to", dest="dst", required=True, help="vector file: segment end")
    p.add_argument("--samples", type=int, default=11)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("instance")
    p.set_defaults(handler=_cmd_envelope)

    p = sub.add_parser("compare", help="full report with theory cross-checks")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for directories")
    p.add_argument("instance", help="instance file or directory of instances")
    p.set_defaults(handler=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe: send what is left to devnull so that
        # the interpreter's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DeskScaleLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NonFinite, GenerationFailed, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (QpRelaxError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
