import hypothesis
import numpy as np
import pytest

from qprelax.core import QpInstance
from qprelax.generators import KINDS, HornFamilyParams, horn_family, horn_instance, random_instance

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("default")


def make_corpus():
    """The 22 instances of the ``make_corpus.py`` corpus."""
    corpus = [horn_instance()[0]]
    corpus += [horn_family(HornFamilyParams(n=n, seed=s)) for n in (6, 7, 8)
               for s in range(3)]
    corpus += [random_instance(kind, 4, 2, s) for kind in KINDS for s in range(3)]
    return corpus


def make_qp(Q, c, A, b, name="test"):
    Q = np.array(Q, dtype=float)
    A = np.atleast_2d(np.array(A, dtype=float))
    b = np.atleast_1d(np.array(b, dtype=float))
    c = np.array(c, dtype=float)
    return QpInstance(n=Q.shape[0], m=A.shape[0], Q=Q, c=c, A=A, b=b, name=name)


#: A mixed-sign integer instance whose one recession ray is
#: (4, 0, 2, 0, 3, 0, 0, 2) / 11 up to rounding: the slice's basic solution
#: has 5.6e-17 and 2.8e-17 at coordinates 1 and 3, both in kept sign rows.
ROUNDED_RAY = make_qp(
    np.array([[-2, -3, 2, 1, -3, 1, 0, -3], [-3, -6, -4, -1, 2, 5, 2, 0],
              [2, -4, 2, 5, -5, 0, 3, 3], [1, -1, 5, 0, -5, 0, 1, 0],
              [-3, 2, -5, -5, 6, 4, 1, -2], [1, 5, 0, 0, 4, -6, 1, -1],
              [0, 2, 3, 1, 1, 1, -2, -6], [-3, 0, 3, 0, -2, -1, -6, -4]]) / 2.0,
    np.zeros(8),
    [[0, -1, -2, 1, 0, 1, -2, 2], [1, 0, -1, -2, -2, 1, -2, 2], [2, -1, 1, 2, -2, -1, 1, -2],
     [1, 2, 0, -1, -2, 2, -2, 1], [2, 1, 0, -1, -2, 1, -2, -1]],
    [-2, -5, -5, 2, -3], "rounded-ray")


@pytest.fixture
def simplex_convex():
    # strictly convex objective on a segment; minimum 0.5 at the midpoint
    return make_qp(np.eye(2), [0, 0], [[1, 1]], [1], "simplex-convex")


@pytest.fixture
def simplex_bilinear():
    # q = 2 x1 x2 on the unit segment; vertices achieve the minimum 0
    return make_qp([[0, 1], [1, 0]], [0, 0], [[1, 1]], [1], "simplex-bilinear")


@pytest.fixture
def simplex_concave3():
    return make_qp(-np.eye(3), [0, 0, 0], [[1, 1, 1]], [1], "simplex-concave")


@pytest.fixture
def horn():
    return horn_instance()


def feasible_samples(inst, count, seed=0):
    """Random feasible points as convex combinations of basic feasible points."""
    from qprelax.oracle import enumerate_vertices

    verts = enumerate_vertices(inst)
    assert verts, "sampling needs a feasible instance"
    rng = np.random.default_rng(seed)
    vmat = np.array(verts)
    out = []
    for _ in range(count):
        w = rng.dirichlet(np.ones(len(verts)))
        out.append(w @ vmat)
    return out
