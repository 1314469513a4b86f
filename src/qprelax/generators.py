"""Instance generators: the Horn-matrix family and randomized test corpora.

The classic 5-variable instance pairs the Horn matrix (copositive but not a
sum of a positive semidefinite and a nonnegative matrix) with a constraint
row chosen so that a doubly nonnegative, nonnegative-entry certificate with
negative objective rate lives in its null space.  The objective is bounded
below on the feasible set while the doubly nonnegative relaxation is
unbounded; block-embedding the same data scales the construction to any
larger dimension.

Seeded generation uses NumPy's PCG64 via ``default_rng(seed_sequence)``
where the seed sequence is ``[kind_code, n, m, seed]``; draw order is fixed
by the source below, so corpora are reproducible bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import analyze_recession_cone, check_psd_on_nullspace
from .core import QpInstance, save_instance
from .errors import GenerationFailed, InvalidDimension
from .numerics import nullspace_basis
from .oracle import _feasible_point

BOUNDED = "BOUNDED"
CONVEX_ON_NULLSPACE = "CONVEX_ON_NULLSPACE"
UNBOUNDED_SAFE = "UNBOUNDED_SAFE"
INFEASIBLE = "INFEASIBLE"
KINDS = (BOUNDED, CONVEX_ON_NULLSPACE, UNBOUNDED_SAFE, INFEASIBLE)

_KIND_CODES = {BOUNDED: 1, CONVEX_ON_NULLSPACE: 2, UNBOUNDED_SAFE: 3, INFEASIBLE: 4}
_KIND_CODE_FAMILY = 5

_MAX_RETRIES = 64

#: The Horn matrix: copositive, not decomposable as PSD plus nonnegative.
HORN_MATRIX = (
    (1, -1, 1, 1, -1),
    (-1, 1, -1, 1, 1),
    (1, -1, 1, -1, 1),
    (1, 1, -1, 1, -1),
    (-1, 1, 1, -1, 1),
)

#: Rank-one factors of the unboundedness certificate; all lie in the null
#: space of the constraint row and their Gram sum is entrywise nonnegative.
HORN_CERT_FACTORS = (
    (0, 1, 0, -1, -1),
    (0, 1, 1, 1, 0),
    (1, 1, 0, 0, 1),
)

#: Constraint row of the classic instance (orthogonal to every certificate
#: factor) and its right-hand side.
HORN_ROW = (-3, 1, 0, -1, 2)
HORN_RHS = 9

#: A feasible point of the classic instance.
HORN_FEASIBLE_POINT = (0, 1, 0, 0, 4)


#: Inclusive integer ranges of the Horn family's tail blocks: the coupling
#: block B (entrywise nonnegative), the factor W and the nonnegative shift of
#: the tail matrix ``W^T W + shift + shift^T`` (copositive by construction),
#: the tail linear term f (nonnegative) and the tail constraint entries F.
HORN_B_BLOCK_RANGE = (0, 3)
HORN_TAIL_FACTOR_RANGE = (-2, 2)
HORN_TAIL_SHIFT_RANGE = (0, 2)
HORN_F_RANGE = (0, 3)
HORN_COUPLING_RANGE = (-3, 3)


@dataclass(frozen=True)
class HornFamilyParams:
    """Dimension and seed of a block-embedded Horn instance."""

    n: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 5:
            raise InvalidDimension(f"the Horn family needs n >= 5, got n={self.n}")


def horn_certificate() -> np.ndarray:
    """The integer certificate block: Gram sum of the factors, scaled by 5.

    Satisfies ``<Q, D> = -5`` and ``A D = 0`` in exact integer arithmetic
    for the classic instance, with trace 45.
    """
    d = np.zeros((5, 5))
    for f in HORN_CERT_FACTORS:
        v = np.array(f, dtype=float)
        d += np.outer(v, v)
    return 5.0 * d


def horn_instance() -> tuple[QpInstance, np.ndarray]:
    """The classic 5-variable instance and its unboundedness certificate.

    The objective is bounded below on the feasible set (the Horn matrix is
    copositive and the linear term is nonnegative) while the doubly
    nonnegative relaxation is unbounded, certified by the returned matrix.
    All data are integers; the output is identical across runs.
    """
    inst = QpInstance(
        n=5,
        m=1,
        Q=np.array(HORN_MATRIX, dtype=float),
        c=np.ones(5),
        A=np.array([HORN_ROW], dtype=float),
        b=np.array([float(HORN_RHS)]),
        name="horn5",
    )
    return inst, horn_certificate()


def horn_family(params: HornFamilyParams) -> QpInstance:
    """Block-embedded Horn instance of dimension ``params.n``.

    The head is the classic instance; the tail blocks keep the objective
    copositive and the linear term nonnegative, so the optimal value stays
    finite, while the embedded certificate ``diag(D, 0)`` keeps the doubly
    nonnegative relaxation unbounded.  Integer data make the embedded
    certificate identities exact.
    """
    head, dtilde = horn_instance()
    n = params.n
    if n == 5:
        return QpInstance(
            n=5, m=1, Q=head.Q, c=head.c, A=head.A, b=head.b,
            name=f"horn-family-n5-s{params.seed}",
        )
    k = n - 5
    rng = np.random.default_rng([_KIND_CODE_FAMILY, n, 1, params.seed])

    def draw(bounds, size):
        return rng.integers(bounds[0], bounds[1] + 1, size=size)

    B = draw(HORN_B_BLOCK_RANGE, (5, k))
    W = draw(HORN_TAIL_FACTOR_RANGE, (k, k))
    Nshift = draw(HORN_TAIL_SHIFT_RANGE, (k, k))
    M = W.T @ W + (Nshift + Nshift.T)
    f = draw(HORN_F_RANGE, k)
    F = draw(HORN_COUPLING_RANGE, (1, k))

    Q = np.zeros((n, n))
    Q[:5, :5] = head.Q
    Q[:5, 5:] = B
    Q[5:, :5] = B.T
    Q[5:, 5:] = M
    c = np.concatenate([head.c, f.astype(float)])
    A = np.hstack([head.A, F.astype(float)])

    inst = QpInstance(n=n, m=1, Q=Q, c=c, A=A, b=head.b,
                      name=f"horn-family-n{n}-s{params.seed}")

    # exact integer checks of the embedded certificate
    Dint = np.zeros((n, n), dtype=np.int64)
    Dint[:5, :5] = dtilde.astype(np.int64)
    Qint = Q.astype(np.int64)
    Aint = A.astype(np.int64)
    if int((Qint * Dint).sum()) != -5:
        raise GenerationFailed("embedded certificate lost the exact objective rate")
    if int(np.abs(Aint @ Dint).max()) != 0:
        raise GenerationFailed("embedded certificate left the constraint null space")
    return inst


def _random_orthogonal(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n))
    qmat, r = np.linalg.qr(g)
    return qmat * np.sign(np.diag(r))


def _indefinite_q(rng, n: int) -> np.ndarray:
    for _ in range(_MAX_RETRIES):
        eigs = rng.uniform(-2.0, 2.0, size=n)
        if n >= 2 and eigs.min() < -0.1 and eigs.max() > 0.1:
            V = _random_orthogonal(rng, n)
            Q = (V * eigs) @ V.T
            return 0.5 * (Q + Q.T)
    raise GenerationFailed("could not draw an indefinite spectrum")


def _bounded_constraints(rng, n: int, m: int):
    """Feasible constraints whose first row makes the polyhedron bounded."""
    x0 = rng.uniform(0.2, 1.2, size=n)
    rows = [rng.uniform(0.5, 1.5, size=n)]
    for _ in range(m - 1):
        rows.append(rng.uniform(-1.0, 1.0, size=n))
    A = np.vstack(rows)
    return A, A @ x0, x0


def _psd_on_nullspace_q(rng, A: np.ndarray) -> np.ndarray:
    """Indefinite Q that is positive semidefinite on null(A)."""
    n = A.shape[1]
    N = nullspace_basis(A)
    r = N.shape[1]
    Q0 = np.zeros((n, n))
    if r > 0:
        G = rng.normal(size=(r, r))
        Q0 = N @ (G @ G.T) @ N.T
    # push a range(A^T) direction negative so Q itself is indefinite
    y = rng.normal(size=A.shape[0])
    v = A.T @ y
    vnorm = float(np.linalg.norm(v))
    if vnorm < 1e-12:
        return 0.5 * (Q0 + Q0.T)
    v = v / vnorm
    mu = float(v @ Q0 @ v) + 1.0
    Q = Q0 - mu * np.outer(v, v)
    return 0.5 * (Q + Q.T)


def random_instance(
    kind: str,
    n: int,
    m: int,
    seed: int,
    with_metadata: bool = False,
):
    """Seeded random instance of the requested structural kind.

    BOUNDED: nonempty polytope (strictly positive first constraint row),
    indefinite objective.  CONVEX_ON_NULLSPACE: bounded and feasible with Q
    positive semidefinite on null(A) but indefinite overall.
    UNBOUNDED_SAFE: unbounded feasible set whose recession directions all
    have nonnegative curvature (verified by the recession analysis).
    INFEASIBLE: constraints made inconsistent with the nonnegative orthant,
    certified by a stored dual row combination.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown instance kind {kind!r}")
    if n < 2 or m < 1:
        raise InvalidDimension(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    rng = np.random.default_rng([_KIND_CODES[kind], n, m, seed])
    name = f"{kind.lower().replace('_', '-')}-n{n}-m{m}-s{seed}"
    meta = {"kind": kind, "n": n, "m": m, "seed": seed, "prng": "PCG64"}

    last_error = None
    for _ in range(_MAX_RETRIES):
        try:
            if kind == BOUNDED:
                A, b, x0 = _bounded_constraints(rng, n, m)
                inst = QpInstance(n=n, m=m, Q=_indefinite_q(rng, n),
                                  c=rng.uniform(-1.0, 1.0, size=n), A=A, b=b, name=name)
                meta["interior_point"] = x0.tolist()
            elif kind == CONVEX_ON_NULLSPACE:
                A, b, x0 = _bounded_constraints(rng, n, m)
                Q = _psd_on_nullspace_q(rng, A)
                inst = QpInstance(n=n, m=m, Q=Q, c=rng.uniform(-1.0, 1.0, size=n),
                                  A=A, b=b, name=name)
                if not check_psd_on_nullspace(inst).holds:
                    raise GenerationFailed("nullspace curvature check failed")
                meta["interior_point"] = x0.tolist()
            elif kind == UNBOUNDED_SAFE:
                d0 = rng.integers(0, 3, size=n).astype(float)
                if d0.max() <= 0:
                    raise GenerationFailed("zero recession direction drawn")
                rows = rng.uniform(-1.0, 1.0, size=(m, n))
                rows -= np.outer(rows @ d0 / float(d0 @ d0), d0)
                x0 = rng.uniform(0.2, 1.2, size=n)
                A = rows
                b = A @ x0
                Q = _psd_on_nullspace_q(rng, A)
                inst = QpInstance(n=n, m=m, Q=Q, c=rng.uniform(-1.0, 1.0, size=n),
                                  A=A, b=b, name=name)
                report = analyze_recession_cone(inst)
                if not report.l_nontrivial or report.min_curvature < -1e-9:
                    raise GenerationFailed("recession structure not as advertised")
                meta["recession_direction"] = d0.tolist()
                meta["interior_point"] = x0.tolist()
            else:  # INFEASIBLE
                y = rng.normal(size=m)
                ynorm = float(np.linalg.norm(y))
                if ynorm < 1e-9:
                    raise GenerationFailed("degenerate dual vector drawn")
                y = y / ynorm
                A = rng.normal(size=(m, n))
                margins = rng.uniform(0.1, 0.5, size=n)
                shift = np.clip(y @ A + margins, 0.0, None)
                A = A - np.outer(y, shift)
                b = y.copy()
                inst = QpInstance(n=n, m=m, Q=_indefinite_q(rng, n),
                                  c=rng.uniform(-1.0, 1.0, size=n), A=A, b=b, name=name)
                if _feasible_point(inst.A, inst.b) is not None:
                    raise GenerationFailed("instance unexpectedly feasible")
                meta["farkas_certificate"] = y.tolist()
            return (inst, meta) if with_metadata else inst
        except GenerationFailed as exc:
            last_error = exc
            continue
    raise GenerationFailed(
        f"could not generate kind={kind} n={n} m={m} seed={seed}: {last_error}"
    )


#: Targets of ``write_generated`` (and of ``qprelax generate``).
TARGETS = ("horn", "horn-family", "random")


def write_generated(out, target: str, n: int = 5, m: int = 1, seed: int = 0,
                    kind: str = BOUNDED) -> list[Path]:
    """Generate one instance and write it with its metadata side-file.

    ``horn`` is the classic instance (its certificate, rate and a feasible
    point in the metadata), ``horn-family`` the embedding of dimension ``n``
    (its embedded certificate and rate), ``random`` the seeded instance of
    ``kind`` (the generator's metadata).  Writes ``<name>.json`` and
    ``<name>.meta.json`` into ``out``, created if missing, and returns both
    paths.
    """
    if target == "horn":
        inst, dtilde = horn_instance()
        meta = {
            "kind": "HORN",
            "certificate": dtilde.tolist(),
            "certificate_objective": -5,
            "feasible_point": list(HORN_FEASIBLE_POINT),
        }
    elif target == "horn-family":
        inst = horn_family(HornFamilyParams(n=n, seed=seed))
        embedded = np.zeros((n, n))
        embedded[:5, :5] = horn_certificate()
        meta = {
            "kind": "HORN_FAMILY",
            "n": n,
            "seed": seed,
            "embedded_certificate": embedded.tolist(),
            "certificate_objective": -5,
        }
    elif target == "random":
        inst, meta = random_instance(kind, n, m, seed, with_metadata=True)
    else:
        raise ValueError(f"unknown generation target {target!r}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{inst.name}.json"
    meta_path = out / f"{inst.name}.meta.json"
    save_instance(inst, path)
    meta_path.write_text(json.dumps(meta, indent=2) + "\n")
    return [path, meta_path]
