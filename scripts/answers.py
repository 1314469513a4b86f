#!/usr/bin/env python3
"""Same answers: write every result of a fixed set, or diff two such files.

``--out FILE`` writes one entry per result, keyed by where it comes from:

- ``corpus-compare/seed<s>/<label>``, ``pinned-batch/seed<s>/<label>`` and
  ``desk-scale/seed<s>/<label>``: the ops of ``perfbench/workloads.py`` at
  seeds 0 and 7 (304 results; the desk-scale ops enumerate 2^10 to 2^12
  faces);
- ``value-sweep/<instance>``: the 240 reports of ``value_sweep.py``;
- ``anchors/<tol>/<instance>/<k>``: every anchor of ``anchor_sweep.py`` at
  each of its three tolerances.

A relaxation or pinned entry holds the status, the value as ``float.hex``,
the iterations, and the SHA-256 of the certificate bytes (the lifted
direction, or the ray of the closed-form solve) and of the lifted point's
bytes.  A report entry holds one such set per cone, under ``DNN.`` and
``PSD0.``, and adds each check's ``passed``, the oracle's status, value and
minimizers (as SHA-256), the copositivity minimum and its minimizer, and
the vertex count.  The qprelax measured is the one on ``PYTHONPATH``, so
this script can write the answers of another checkout.

``--diff OLD NEW`` puts each entry in the first group that holds it:

- ``bitwise``: every field is equal;
- ``within 1e-12`` and ``within COMPARISON_TOLERANCE``: every value and
  count ``x, y`` has ``|x - y| <= tol * (1 + max(|x|, |y|))``, the form of
  the report's cross-checks, and every hash is equal for the first;
- ``changed``: a value or count differs by more, or hashed bytes differ
  (a hash does not tell by how much);
- ``status changed``: a status or a check's ``passed`` differs, a field
  is None (a step skipped, no certificate or point) in one file only, or
  the entry is missing from one file.

It prints the group sizes and every entry that is not bitwise as JSON, and
exits 1 when any entry is in ``status changed``.

Usage, from the repository root:

    PYTHONPATH=src python3 scripts/answers.py --out answers.json
    PYTHONPATH=src python3 scripts/answers.py --diff parent.json answers.json
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from qprelax.report import COMPARISON_TOLERANCE

ROOT = Path(__file__).resolve().parent.parent

GROUPS = ("bitwise", "within 1e-12", "within COMPARISON_TOLERANCE", "changed",
          "status changed")
BITWISE, TIGHT, COMPARABLE, CHANGED, STATUS_CHANGED = range(len(GROUPS))

#: The tolerance of the second group; the third is the report's.
TIGHT_TOL = 1e-12

SEEDS = (0, 7)


def _sha256(*arrays):
    """SHA-256 of the bytes of the arrays that are not None, or None."""
    arrays = [a for a in arrays if a is not None]
    if not arrays:
        return None
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a.tobytes())
    return digest.hexdigest()


def _hex(value):
    return float(value).hex()


def relaxation_entry(res, prefix=""):
    """The entry of one ``RelaxationResult``, its keys led by ``prefix``."""
    ray = res.ray
    fields = {
        "status": res.status,
        "value": _hex(res.value),
        "iterations": res.iterations,
        "certificate_sha256": _sha256(None if res.certificate is None else res.certificate.d,
                                      None if ray is None else ray.x0,
                                      None if ray is None else ray.d),
        "point_sha256": _sha256(None if res.point is None else res.point.y),
    }
    return {prefix + key: value for key, value in fields.items()}


def report_entry(rep):
    """The entry of one ``compare_report`` result."""
    entry = {}
    for cone, res in rep.relaxations.items():
        entry.update(relaxation_entry(res, f"{cone}."))
    for check in rep.checks:
        entry[f"passed.{check.name}"] = check.passed
    oracle = rep.oracle
    entry["oracle.status"] = None if oracle is None else oracle.status
    if oracle is not None:
        entry["oracle.value"] = _hex(oracle.value)
        entry["oracle.minimizers_sha256"] = _sha256(*oracle.minimizers)
    cop = rep.copositivity
    entry["copositivity.ran"] = cop is not None
    if cop is not None:
        entry["copositivity.min"] = _hex(cop.min_value)
        entry["copositivity.minimizer_sha256"] = _sha256(cop.minimizer)
    entry["vertices"] = rep.vertices
    return entry


def collect():
    """Every entry of the fixed result set, by key."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]
    import anchor_sweep
    import value_sweep
    import workloads
    from qprelax.conic import SolveOptions, evaluate_underestimator
    from qprelax.core import DNN
    from qprelax.report import compare_report

    entries = {}

    def add(key, entry):
        if key in entries:
            raise ValueError(f"two results under {key}")
        entries[key] = entry

    for name in ("corpus-compare", "pinned-batch", "desk-scale"):
        for seed in SEEDS:
            for op in workloads.WORKLOADS[name](seed):
                result = workloads.call(op)
                entry = relaxation_entry(result) if op.cone else report_entry(result)
                add(f"{name}/seed{seed}/{op.label}", entry)
    for inst in value_sweep.instances():
        add(f"value-sweep/{inst.name}", report_entry(compare_report(inst)))
    cases = anchor_sweep.cases()
    for tol in anchor_sweep.TOLERANCES:
        opts = SolveOptions(tol_primal=tol, tol_dual=tol)
        for inst, points in cases:
            for k, x in enumerate(points):
                res = evaluate_underestimator(inst, DNN, x, opts)
                add(f"anchors/{tol:g}/{inst.name}/{k}", relaxation_entry(res))
    return entries


def write(entries, path):
    Path(path).write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")


def read(path):
    return json.loads(Path(path).read_text())


def _kind(key):
    """``verdict``, ``hash`` or ``number``: how a field of an entry compares."""
    if key.startswith("passed."):
        return "verdict"
    field = key.rsplit(".", 1)[-1]
    if field.endswith("_sha256"):
        return "hash"
    if field in ("value", "min", "iterations", "vertices"):
        return "number"
    return "verdict"


def _within(x, y, tol):
    if isinstance(x, str):
        x, y = float.fromhex(x), float.fromhex(y)
    return abs(x - y) <= tol * (1.0 + max(abs(x), abs(y)))


def grade(old, new):
    """The index in ``GROUPS`` of the first group that holds both entries."""
    if old is None or new is None or old.keys() != new.keys():
        return STATUS_CHANGED
    worst = BITWISE
    for key, x in old.items():
        y = new[key]
        if x == y:
            continue
        kind = _kind(key)
        if kind == "verdict" or x is None or y is None:
            return STATUS_CHANGED
        if kind == "hash":
            worst = CHANGED
        else:
            worst = max(worst, TIGHT if _within(x, y, TIGHT_TOL)
                        else COMPARABLE if _within(x, y, COMPARISON_TOLERANCE) else CHANGED)
    return worst


def diff(old, new):
    """Group sizes and the group of every entry that is not bitwise."""
    counts = dict.fromkeys(GROUPS, 0)
    differences = {}
    for key in sorted(old.keys() | new.keys()):
        group = GROUPS[grade(old.get(key), new.get(key))]
        counts[group] += 1
        if group != GROUPS[BITWISE]:
            differences[key] = group
    return {"entries": sum(counts.values()), "groups": counts, "differences": differences}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="FILE", help="write the entries of this tree")
    mode.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"), help="group the differences")
    args = parser.parse_args(argv)
    if args.out:
        entries = collect()
        write(entries, args.out)
        print(json.dumps({"entries": len(entries), "out": args.out}))
        return 0
    out = diff(read(args.diff[0]), read(args.diff[1]))
    print(json.dumps(out, indent=1))
    return 1 if out["groups"][GROUPS[STATUS_CHANGED]] else 0


if __name__ == "__main__":
    sys.exit(main())
