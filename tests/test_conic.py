import itertools
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import hypothesis
import numpy as np
import pytest
from hypothesis import given, strategies as st

from qprelax import conic
from qprelax.analysis import check_psd_on_nullspace, sample_envelope
from qprelax.conic import (
    FEASIBILITY,
    FOUND,
    INCONCLUSIVE,
    INFEASIBLE,
    MAX_ITER,
    NONE,
    OBJECTIVE,
    OPTIMAL,
    UNBOUNDED,
    SolveOptions,
    evaluate_underestimator,
    recession_certificate_search,
    solve_relaxation,
    verify_certificate,
)
from qprelax import oracle
from qprelax.core import DNN, PSD0, evaluate_objective, lift_instance, validate_lifted_point
from qprelax.errors import DeskScaleLimit, NonFinite, PointInfeasible
from qprelax.generators import (
    BOUNDED,
    CONVEX_ON_NULLSPACE,
    INFEASIBLE as KIND_INFEASIBLE,
    UNBOUNDED_SAFE,
    random_instance,
)
from qprelax.numerics import build_affine_projector, cone_projection_for, nullspace_basis
from qprelax.oracle import enumerate_vertices, global_solve
from qprelax.report import compare_report

from conftest import feasible_samples, make_qp

TIGHT = SolveOptions(tol_primal=1e-9, tol_dual=1e-9)


class TestSolveRelaxation:
    def test_convex_exact(self, simplex_convex):
        res = solve_relaxation(simplex_convex, DNN, TIGHT)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(0.5, abs=1e-7)
        assert res.validation is not None and res.validation.ok

    def test_bilinear_envelope_exact(self, simplex_bilinear):
        res = solve_relaxation(simplex_bilinear, DNN, TIGHT)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(0.0, abs=1e-7)

    def test_horn_unbounded_with_certificate(self, horn):
        inst, _ = horn
        res = solve_relaxation(inst, DNN)
        assert res.status == UNBOUNDED
        assert res.value == -math.inf
        cert = res.certificate
        assert cert is not None
        assert cert.objective_rate <= -0.1
        check = verify_certificate(inst, cert)
        assert check.ok

    def test_infeasible_short_circuit(self):
        inst = random_instance(KIND_INFEASIBLE, 3, 2, 1)
        for cone in (DNN, PSD0):
            res = solve_relaxation(inst, cone)
            assert res.status == INFEASIBLE
            assert res.iterations == 0
            assert res.value == math.inf

    def test_cone_ordering(self):
        for seed in range(3):
            inst = random_instance(CONVEX_ON_NULLSPACE, 3, 1, seed)
            dnn = solve_relaxation(inst, DNN, TIGHT)
            psd0 = solve_relaxation(inst, PSD0, TIGHT)
            assert psd0.value <= dnn.value + 1e-6 * (1 + abs(dnn.value))

    def test_lower_bound_vs_oracle(self):
        for seed in range(3):
            inst = random_instance(BOUNDED, 3, 1, seed)
            lstar = global_solve(inst).value
            res = solve_relaxation(inst, DNN, TIGHT)
            assert res.value <= lstar + 1e-6 * (1 + abs(lstar))

    def test_pinned_cone_ordering(self):
        inst = random_instance(CONVEX_ON_NULLSPACE, 3, 1, 8)
        for x in feasible_samples(inst, 3, seed=5):
            dnn = evaluate_underestimator(inst, DNN, x, TIGHT)
            psd0 = evaluate_underestimator(inst, PSD0, x, TIGHT)
            assert psd0.value <= dnn.value + 1e-6 * (1 + abs(dnn.value))


class TestUnderestimator:
    def test_exact_when_psd_on_nullspace(self):
        inst = random_instance(CONVEX_ON_NULLSPACE, 4, 2, 5)
        for x in feasible_samples(inst, 5, seed=1):
            res = evaluate_underestimator(inst, DNN, x, TIGHT)
            assert res.status == OPTIMAL
            assert res.value == pytest.approx(evaluate_objective(inst, x), abs=1e-5)

    def test_horn_pinned_unbounded(self, horn):
        inst, _ = horn
        res = evaluate_underestimator(inst, DNN, np.array([0, 1, 0, 0, 4.0]))
        assert res.status == UNBOUNDED

    def test_bilinear_midpoint_envelope(self, simplex_bilinear):
        res = evaluate_underestimator(simplex_bilinear, DNN, np.array([0.5, 0.5]), TIGHT)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(0.0, abs=1e-6)

    def test_underestimates_objective(self):
        inst = random_instance(BOUNDED, 3, 1, 11)
        for x in feasible_samples(inst, 10, seed=2):
            res = evaluate_underestimator(inst, DNN, x, TIGHT)
            assert res.status == OPTIMAL
            assert res.value <= evaluate_objective(inst, x) + 1e-6

    def test_midpoint_convexity(self):
        inst = random_instance(BOUNDED, 3, 1, 13)
        samples = feasible_samples(inst, 6, seed=3)
        for a, b in zip(samples[::2], samples[1::2]):
            la = evaluate_underestimator(inst, DNN, a, TIGHT).value
            lb = evaluate_underestimator(inst, DNN, b, TIGHT).value
            lm = evaluate_underestimator(inst, DNN, 0.5 * (a + b), TIGHT).value
            assert lm <= 0.5 * (la + lb) + 1e-6

    def test_min_over_points_bounds_unpinned(self):
        inst = random_instance(BOUNDED, 3, 1, 17)
        unpinned = solve_relaxation(inst, DNN, TIGHT).value
        values = [
            evaluate_underestimator(inst, DNN, x, TIGHT).value
            for x in feasible_samples(inst, 10, seed=4)
        ]
        assert min(values) >= unpinned - 1e-6

    def test_infeasible_anchor_rejected(self, simplex_convex):
        with pytest.raises(PointInfeasible):
            evaluate_underestimator(simplex_convex, DNN, np.array([1.0, 1.0]))

    def test_zero_block_property(self):
        # rows of X - x x^T on the zero support vanish for bounded instances
        inst = random_instance(BOUNDED, 4, 2, 23)
        res = global_solve(inst)
        x = res.minimizers[0]
        out = evaluate_underestimator(inst, DNN, x, TIGHT)
        assert out.status == OPTIMAL
        delta = out.point.X - np.outer(x, x)
        zero_rows = [j for j in range(inst.n) if x[j] <= 1e-9]
        if zero_rows:
            assert np.abs(delta[zero_rows, :]).max() <= 1e-5


@pytest.fixture
def searches(monkeypatch):
    """Instances and cones of the certificate searches run, from an empty memo."""
    calls = []
    search = conic.recession_certificate_search

    def counted(inst, cone, *args, **kwargs):
        calls.append((inst, cone))
        return search(inst, cone, *args, **kwargs)

    monkeypatch.setattr(conic, "recession_certificate_search", counted)
    monkeypatch.setattr(conic, "_last_prepass", None)
    return calls


class TestPinnedPrepassReuse:
    # bounded polyhedron, but Q fails curvature on null(A): PSD0 is unbounded
    inst = random_instance(BOUNDED, 3, 1, 0)

    def points(self, count=3):
        return feasible_samples(self.inst, count, seed=5)

    def test_repeated_calls_search_once(self, searches):
        results = [evaluate_underestimator(self.inst, PSD0, x) for x in self.points()]
        assert len(searches) == 1
        conic._last_prepass = None
        fresh = evaluate_underestimator(self.inst, PSD0, self.points()[0])
        assert len(searches) == 2
        for res in results:
            assert res.status == fresh.status == UNBOUNDED
            assert res.value == fresh.value
            assert res.iterations == fresh.iterations
            assert res.residual_primal == fresh.residual_primal
            assert np.array_equal(res.certificate.d, fresh.certificate.d)
            assert res.certificate.objective_rate == fresh.certificate.objective_rate

    def test_shared_certificate_is_read_only(self, searches):
        res = evaluate_underestimator(self.inst, PSD0, self.points()[0])
        assert res.certificate.d.flags.writeable is False
        with pytest.raises(ValueError):
            res.certificate.d[0, 0] = 1.0

    def test_cone_change_searches_again(self, searches):
        x = self.points()[0]
        for cone in (PSD0, DNN, PSD0):
            evaluate_underestimator(self.inst, cone, x)
        # the DNN pre-pass is the search, which stops at its own screen
        assert searches == [(self.inst, PSD0), (self.inst, DNN), (self.inst, PSD0)]

    def test_option_change_searches_again(self, searches):
        x = self.points()[0]
        evaluate_underestimator(self.inst, PSD0, x)
        evaluate_underestimator(self.inst, PSD0, x, SolveOptions(max_iterations=100_000))
        evaluate_underestimator(self.inst, PSD0, x, SolveOptions(max_iterations=100_000))
        assert len(searches) == 2

    def test_instance_change_searches_again(self, searches):
        x = self.points()[0]
        inst = self.inst
        twin = make_qp(inst.Q, inst.c, inst.A, inst.b, inst.name)
        for target in (inst, twin, twin, inst):
            res = evaluate_underestimator(target, PSD0, x)
            assert res.status == UNBOUNDED
        assert [s[0] for s in searches] == [inst, twin, inst]

    def test_infeasible_anchor_raises_on_hit(self, searches):
        evaluate_underestimator(self.inst, PSD0, self.points()[0])
        with pytest.raises(PointInfeasible):
            evaluate_underestimator(self.inst, PSD0, -self.points()[0])
        assert len(searches) == 1

    def test_plain_and_pinned_solves_share_the_prepass(self, searches):
        plain = solve_relaxation(self.inst, PSD0)
        pinned = evaluate_underestimator(self.inst, PSD0, self.points()[0])
        assert plain.status == pinned.status == UNBOUNDED
        assert pinned.certificate is plain.certificate
        assert len(searches) == 1

    def test_solve_builds_one_certificate_basis(self, searches, horn, monkeypatch):
        # the pre-pass and its search share one certificate face
        bases = []
        basis = conic.certificate_basis

        def counted(*args, **kwargs):
            bases.append(1)
            return basis(*args, **kwargs)

        monkeypatch.setattr(conic, "certificate_basis", counted)
        assert solve_relaxation(horn[0], DNN).status == UNBOUNDED
        assert len(bases) == 1 and searches == [(horn[0], DNN)]

    def test_envelope_searches_once(self, searches):
        start, end = self.points(2)
        rows = sample_envelope(self.inst, PSD0, start, end, samples=11)
        assert len(rows) == 11
        assert all(row.status == UNBOUNDED for row in rows)
        assert len(searches) == 1


class TestCertificateSearch:
    def test_horn_objective_rate(self, horn):
        inst, dtilde = horn
        res = recession_certificate_search(inst, DNN, OBJECTIVE)
        assert res.status == FOUND
        # the integer certificate scaled to unit trace achieves -1/9;
        # the search optimum can only be lower
        assert res.certificate.objective_rate <= -1.0 / 9.0 + 1e-6
        assert res.certificate.objective_rate <= -0.1

    def test_bounded_feasibility_none(self):
        inst = make_qp(np.eye(2), [0, 0], [[1, 1]], [1])
        res = recession_certificate_search(inst, DNN, FEASIBILITY)
        assert res.status == NONE

    def test_negative_curvature_border_cone(self):
        inst = make_qp([[0, -1], [-1, 0]], [0, 0], [[1, -1]], [0])
        res = recession_certificate_search(inst, PSD0, OBJECTIVE)
        assert res.status == FOUND
        assert res.certificate.objective_rate == pytest.approx(-1.0, abs=1e-6)
        check = verify_certificate(inst, res.certificate)
        assert check.ok

    def test_unbounded_safe_feasibility_found(self):
        inst = random_instance(UNBOUNDED_SAFE, 4, 2, 2)
        res = recession_certificate_search(inst, DNN, FEASIBILITY)
        assert res.status == FOUND
        check = verify_certificate(inst, res.certificate)
        assert check.ok
        assert abs(np.trace(res.certificate.d) - 1.0) <= 1e-6

    def test_trivial_face_short_circuit(self):
        inst = make_qp(np.eye(2), [0, 0], [[1, 0], [0, 1]], [1, 1])
        res = recession_certificate_search(inst, DNN, FEASIBILITY)
        assert res.status == NONE
        assert res.iterations == 0

    @pytest.mark.parametrize("Q, best", [
        # null(A) = span(e1, e2), where Q reads [[0, 1], [1, 0]] (curvature
        # -1): the DNN rate 2 D_12 is at least 0, attained on a whole face
        pytest.param([[0, 1, 0], [1, 0, 0], [0, 0, 1]], 0.0, id="zero-rate"),
        # [[1, 2], [2, 1]] there: the rate tr D + 4 D_12 is at least 1, so
        # the optimum over tr S <= 1 is S = 0, whose trace is not divided by
        pytest.param([[1, 2, 0], [2, 1, 0], [0, 0, 1]], 1.0, id="positive-rate"),
    ])
    def test_copositive_face_reads_none(self, Q, best, ipms):
        # Q is copositive but not PSD on null(A): the curvature screen passes
        # the search to the interior-point method, which finds no certificate
        inst = make_qp(Q, [0, 0, 0], [[0, 0, 1]], [1])
        res = recession_certificate_search(inst, DNN, OBJECTIVE)
        assert res.curvature == pytest.approx(-1.0, abs=1e-12)
        assert res.status == NONE and res.certificate is None
        assert 0 < res.iterations <= conic.IPM_ITERATIONS and len(ipms) == 1
        if best == 0.0:
            assert res.check is not None and res.check.ok
            assert abs(res.check.objective_rate) <= 1e-6
        # min 2 x1 x2 + x3^2 with x3 = 1: both the optimum and the DNN value are 1
        sol = solve_relaxation(inst, DNN)
        assert sol.status == OPTIMAL and abs(sol.value - 1.0) <= 1e-6
        assert sol.validation.ok

    def test_budget_exhaustion_is_inconclusive(self, horn):
        res = recession_certificate_search(horn[0], DNN, OBJECTIVE,
                                           SolveOptions(max_iterations=5))
        assert res.status == INCONCLUSIVE and res.reason == "max_iter"
        assert res.iterations == 5 and res.certificate is None

    def test_bad_mode(self, simplex_convex):
        with pytest.raises(ValueError):
            recession_certificate_search(simplex_convex, DNN, "SIDEWAYS")


def _counted(monkeypatch, name):
    """Calls of ``conic.<name>``, one entry per call."""
    calls = []
    original = getattr(conic, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(conic, name, counted)
    return calls


@pytest.fixture
def loops(monkeypatch):
    """Consensus loops run, one entry per call."""
    return _counted(monkeypatch, "_consensus")


@pytest.fixture
def ipms(monkeypatch):
    """Interior-point solves on a reduced face, one entry per call."""
    return _counted(monkeypatch, "_face_ipm")


@st.composite
def small_certificate_problems(draw):
    """Q and A of a small instance whose DNN certificate set is nonempty."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, n - 1))
    q = np.array(draw(st.lists(st.integers(-4, 4), min_size=n * n, max_size=n * n)),
                 dtype=float).reshape(n, n)
    a = draw(st.lists(st.integers(-2, 2), min_size=m * n, max_size=m * n))
    inst = make_qp(q + q.T, np.zeros(n), np.reshape(a, (m, n)), np.zeros(m))
    hypothesis.assume(recession_certificate_search(inst, DNN, FEASIBILITY).status != NONE)
    return inst


class TestClosedFormBorderSearch:
    """PSD0 certificates are ``u u^T`` mixtures over null(A), and a DNN
    feasibility certificate is one recession direction: no loop runs."""

    @pytest.mark.parametrize("kind", ["horn", "unbounded-safe"])
    def test_objective_rate_is_the_nullspace_eigenvalue(self, kind, horn, loops):
        inst = horn[0] if kind == "horn" else random_instance(UNBOUNDED_SAFE, 4, 2, 0)
        N = nullspace_basis(inst.A)
        least = float(np.linalg.eigvalsh(N.T @ inst.Q @ N)[0])
        res = recession_certificate_search(inst, PSD0, OBJECTIVE)
        assert loops == [] and res.iterations == 0
        if least < 0:
            assert res.status == FOUND
            assert abs(res.certificate.objective_rate - least) <= 1e-10
            check = verify_certificate(inst, res.certificate)
            assert check.ok and abs(check.objective_rate - least) <= 1e-10
        else:
            assert res.status == NONE
        assert abs(res.curvature - least) <= 1e-10
        # the DNN search keeps the same eigenvalue of the same face
        assert abs(recession_certificate_search(inst, DNN, OBJECTIVE).curvature - least) <= 1e-10

    @pytest.mark.parametrize("kind, cone", [
        pytest.param("horn", PSD0, id="horn"),
        pytest.param("unbounded-safe", PSD0, id="unbounded-safe"),
        pytest.param("horn", DNN, id="horn-dnn"),
        pytest.param("unbounded-safe", DNN, id="unbounded-safe-dnn"),
    ])
    def test_feasibility_certificate_has_unit_trace(self, kind, cone, horn, loops):
        inst = horn[0] if kind == "horn" else random_instance(UNBOUNDED_SAFE, 4, 2, 0)
        res = recession_certificate_search(inst, cone, FEASIBILITY)
        assert loops == [] and res.iterations == 0
        assert res.status == FOUND
        D = res.certificate.d
        assert abs(np.trace(D) - 1.0) <= 1e-12
        assert verify_certificate(inst, res.certificate).ok
        if cone == DNN:
            # [0; d][0; d]^T / |d|^2 for a recession direction d
            assert np.linalg.matrix_rank(D) == 1 and D.min() >= 0.0
            assert np.abs(inst.A @ D[1:, 1:]).max() <= 1e-10

    def test_border_rate_screens_the_dnn_search(self, loops, monkeypatch):
        # Q is PSD on null(A), so no DNN certificate can have a negative rate
        inst = random_instance(UNBOUNDED_SAFE, 4, 2, 0)
        assert recession_certificate_search(inst, DNN, FEASIBILITY).status == FOUND
        res = recession_certificate_search(inst, DNN, OBJECTIVE)
        assert res.status == NONE
        assert loops == [] and res.iterations == 0
        # the same screen decides a PSD0 search without grading a candidate
        graded = []
        verify = conic.verify_certificate
        monkeypatch.setattr(conic, "verify_certificate",
                            lambda *args, **kwargs: graded.append(1) or verify(*args, **kwargs))
        res = recession_certificate_search(random_instance(CONVEX_ON_NULLSPACE, 4, 2, 5),
                                           PSD0, OBJECTIVE)
        assert res.status == NONE and res.check is None and graded == []

    def test_dnn_search_still_loops_past_the_screen(self, horn, loops, ipms):
        # past the screens the DNN search is one interior-point solve
        res = recession_certificate_search(horn[0], DNN, OBJECTIVE)
        assert res.status == FOUND and len(ipms) == 1 and loops == []
        assert 0 < res.iterations <= conic.IPM_ITERATIONS

    @given(small_certificate_problems())
    def test_dnn_rate_never_beats_the_border_minimum(self, inst):
        opts = SolveOptions(max_iterations=5000)
        border = recession_certificate_search(inst, PSD0, OBJECTIVE, opts)
        dnn = recession_certificate_search(inst, DNN, OBJECTIVE, opts)
        N = nullspace_basis(inst.A)
        least = float(np.linalg.eigvalsh(N.T @ inst.Q @ N)[0])
        for res in (border, dnn):
            if res.status == FOUND:
                assert verify_certificate(inst, res.certificate).ok
        if border.status == FOUND:
            assert border.certificate.objective_rate <= least + 1e-10
        if dnn.status == FOUND:
            assert border.status == FOUND
            assert dnn.certificate.objective_rate >= least - 1e-6

    def test_border_verdict_at_the_curvature_tolerance(self):
        # x1 = x2 >= 0 with objective -1e-7 x1^2: Q fails the curvature
        # condition on null(A) by -5e-8, below the old absolute 1e-6 threshold
        inst = make_qp(np.diag([-1e-7, 0.0]), [0, 0], [[1, -1]], [0])
        assert not check_psd_on_nullspace(inst).holds
        res = solve_relaxation(inst, PSD0)
        assert res.status == UNBOUNDED
        check = verify_certificate(inst, res.certificate)
        assert check.ok and check.objective_rate == pytest.approx(-5e-8, rel=1e-6)


class TestPinnedClosedForm:
    """Where Q is PSD on null(A) the pinned value is q(x) at z z^T, no loop."""

    convex = random_instance(CONVEX_ON_NULLSPACE, 4, 2, 5)
    # the pinned-batch members: bounded polytopes, convex on null(A) or not
    members = [
        random_instance(BOUNDED, 3, 1, 0),
        random_instance(BOUNDED, 3, 2, 1),
        random_instance(BOUNDED, 4, 2, 2),
        random_instance(CONVEX_ON_NULLSPACE, 3, 1, 0),
        random_instance(CONVEX_ON_NULLSPACE, 4, 2, 1),
    ]

    @pytest.mark.parametrize("cone", [DNN, PSD0])
    def test_convex_anchor_is_exact_without_a_loop(self, cone, loops):
        for x in feasible_samples(self.convex, 4, seed=3):
            res = evaluate_underestimator(self.convex, cone, x, TIGHT)
            z = np.concatenate(([1.0], x))
            assert res.status == OPTIMAL and res.iterations == 0
            assert res.validation.ok
            assert np.array_equal(res.point.y, np.outer(z, z))
            assert abs(res.value - evaluate_objective(self.convex, x)) <= 1e-12
        assert loops == []

    @pytest.mark.parametrize("cone", [DNN, PSD0])
    def test_closed_form_matches_the_pinned_loop(self, cone):
        # the interior-point method on S, run where the closed form applies:
        # DNN with its sign rows, PSD0 with none
        N = nullspace_basis(self.convex.A)
        C = N.T @ self.convex.Q @ N
        r = C.shape[0]
        for x in feasible_samples(self.convex, 3, seed=4):
            rows = conic._sign_rows(N, x) if cone == DNN else (np.zeros((0, r, r)), np.zeros(0))
            out = conic._face_ipm(C, *rows, TIGHT)
            assert out.status == "CONVERGED" and out.iterations > 0
            solved = evaluate_objective(self.convex, x) + float(np.vdot(C, out.S))
            closed = evaluate_underestimator(self.convex, cone, x, TIGHT).value
            assert abs(solved - closed) <= 1e-7 * (1.0 + abs(closed))

    def test_negative_curvature_dnn_anchor_still_loops(self, loops):
        # the anchor is solved by the interior-point method, not the loop
        inst = self.members[0]  # bounded; Q fails the curvature condition
        res = evaluate_underestimator(inst, DNN, feasible_samples(inst, 1, seed=2)[0])
        assert res.status == OPTIMAL and res.iterations > 0
        assert res.validation.ok
        assert loops == []

    @pytest.mark.parametrize("cone", [DNN, PSD0])
    def test_criterion_9_members_never_loop(self, cone, loops):
        # with criterion 9's sixth member, which is convex on null(A)
        for inst in self.members + [random_instance(UNBOUNDED_SAFE, 3, 1, 0)]:
            for x in feasible_samples(inst, 4, seed=77):
                res = evaluate_underestimator(inst, cone, x, TIGHT)
                assert res.status in (OPTIMAL, UNBOUNDED), inst.name
        assert loops == []

    def test_border_cone_pinned_solves_never_loop(self, loops):
        statuses = set()
        for inst in self.members:
            for x in feasible_samples(inst, 3, seed=6):
                res = evaluate_underestimator(inst, PSD0, x)
                assert res.iterations == 0
                statuses.add(res.status)
        assert statuses == {OPTIMAL, UNBOUNDED}
        assert loops == []

    @pytest.mark.parametrize("curvature", [0.0, -5e-10])
    def test_zero_curvature_gives_the_objective(self, curvature, loops):
        # x1 = 1, x2, x3 >= 0: Q on null(A) is diag(1, curvature) exactly;
        # -5e-10 lies inside the scaled tolerance 2e-9, where PSD0 reads
        # "not unbounded"
        inst = make_qp(np.diag([-2.0, 1.0, curvature]), [0, -1, 1], [[1, 0, 0]], [1])
        N = nullspace_basis(inst.A)
        assert float(np.linalg.eigvalsh(N.T @ inst.Q @ N)[0]) == curvature
        x = np.array([1.0, 0.5, 2.0])
        for cone in (DNN, PSD0):
            res = evaluate_underestimator(inst, cone, x)
            assert res.status == OPTIMAL and res.iterations == 0
            assert res.value == pytest.approx(evaluate_objective(inst, x), abs=1e-12)
        assert loops == []


#: x3 = 0 on the whole polyhedron, so the third row of N is zero; Q has
#: curvature -2 on null(A) = span((1, -1, 0)), and the pinned DNN value is
#: q(x) - 4 x1 x2
IMPLICIT_ZERO = make_qp([[1, 2, 0.5], [2, -1, 0.3], [0.5, 0.3, 2]], [0.5, -1, 0.25],
                        [[1, 1, 1], [0, 0, 1]], [1, 0], "implicit-zero")


def _bounded_vertex(n, m, seed, index):
    inst = random_instance(BOUNDED, n, m, seed)
    return inst, enumerate_vertices(inst)[index]


class TestPinnedInteriorPoint:
    """DNN anchors where Q has negative curvature on null(A) and the pre-pass
    finds no certificate: the interior-point method on S decides them."""

    # values from the consensus loop this method replaced, at TIGHT
    @pytest.mark.parametrize("inst, x, looped", [
        pytest.param(IMPLICIT_ZERO, [1, 0, 0], 1.9999999999913347, id="implicit-zero-vertex-1"),
        pytest.param(IMPLICIT_ZERO, [0, 1, 0], -3.0000000000090488, id="implicit-zero-vertex-2"),
        pytest.param(IMPLICIT_ZERO, [0.5, 0.5, 0], -0.5000000000100036, id="implicit-zero-mid"),
        pytest.param(IMPLICIT_ZERO, [0.25, 0.75, 0], -1.7499999999894287,
                     id="implicit-zero-interior"),
        *[pytest.param(*_bounded_vertex(3, 1, 0, k), v, id=f"bounded-n3-m1-s0-vertex-{k}")
          for k, v in enumerate([-10.417466427139324, 10.365467813236204, 4.637967178750397])],
        *[pytest.param(*_bounded_vertex(4, 2, 2, k), v, id=f"bounded-n4-m2-s2-vertex-{k}")
          for k, v in enumerate([-9.602279054712577, -0.7152976918937253, 2.6265832066304915])],
    ])
    def test_matches_the_loop(self, inst, x, looped, loops):
        res = evaluate_underestimator(inst, DNN, np.array(x, dtype=float), TIGHT)
        assert res.status == OPTIMAL and res.iterations > 0
        assert res.validation.ok
        assert abs(res.value - looped) <= 1e-7 * (1.0 + abs(looped))
        assert loops == []

    def test_dual_bound_closes_the_gap(self):
        # (Z, lam) is dual feasible up to the dual residual, and
        # q(x) + h^T lam = q(x) - sum lam_ij x_i x_j meets the value
        inst = TestPinnedClosedForm.members[0]
        anchors = [(IMPLICIT_ZERO, np.array([0.25, 0.75, 0.0])), _bounded_vertex(4, 2, 2, 1),
                   (inst, feasible_samples(inst, 1, seed=2)[0])]
        for inst, x in anchors:
            N = nullspace_basis(inst.A)
            C = N.T @ inst.Q @ N
            G, h = conic._sign_rows(N, np.asarray(x))
            out = conic._face_ipm(C, G, h, TIGHT)
            assert out.status == "CONVERGED" and out.lam.min() >= 0.0
            Z = C - np.tensordot(out.lam, G, axes=1)
            assert np.linalg.eigvalsh(Z)[0] >= -1e-8 * (1.0 + np.abs(C).max())
            value = evaluate_underestimator(inst, DNN, x, TIGHT).value
            bound = evaluate_objective(inst, np.asarray(x)) + float(h @ out.lam)
            assert abs(value - bound) <= 1e-8 * (1.0 + abs(value)), inst.name

    def test_zero_rows_are_dropped(self):
        N = nullspace_basis(IMPLICIT_ZERO.A)
        G, h = conic._sign_rows(N, np.array([0.5, 0.5, 0.0]))
        # only the pair (1, 2) is left: 0.5 * 0.5 - s / 2 >= 0
        assert G.shape == (1, 1, 1) and abs(G[0, 0, 0] + 0.5) <= 1e-12
        assert h == pytest.approx([-0.25])

    def test_dual_infeasible_anchor_stops_within_the_cap(self, loops):
        # the pre-pass reads NONE (rate -5e-8 is above TOL_CERTIFICATE), but
        # <C, S> falls without bound along S = t: the pinned problem has no
        # optimum, and its iterates diverge
        inst = make_qp(np.diag([-1e-7, 0.0]), [0, 0], [[1, -1]], [0])
        assert recession_certificate_search(inst, DNN).status == NONE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = evaluate_underestimator(inst, DNN, np.array([1.0, 1.0]))
        assert res.status == MAX_ITER
        assert 0 < res.iterations <= conic.IPM_ITERATIONS
        assert loops == []

    def test_unverified_psd0_certificate_gives_max_iter(self, monkeypatch, loops):
        # negative curvature with no verified certificate: the PSD0 value is
        # minus infinity, unproven
        inst = TestPinnedClosedForm.members[0]
        search = recession_certificate_search(inst, PSD0)
        assert search.status == FOUND and search.curvature < 0
        unverified = replace(search, status=INCONCLUSIVE, certificate=None,
                             reason="candidate failed verification")
        monkeypatch.setattr(conic, "_last_prepass", None)
        monkeypatch.setattr(conic, "recession_certificate_search", lambda *args: unverified)
        res = evaluate_underestimator(inst, PSD0, feasible_samples(inst, 1, seed=2)[0])
        assert res.status == MAX_ITER and res.iterations == 0
        assert res.value == -math.inf and res.point is None
        assert loops == []


#: x1 = x2 >= 0 with objective -2 x1: q is unbounded along d = (1, 1),
#: where d^T Q d = 0, and no lifted recession certificate exists
ZERO_CURVATURE_RAY = make_qp(np.zeros((2, 2)), [-1, 0], [[1, -1]], [0])


class TestConvexClosedForm:
    """Where Q is PSD on null(A) an unpinned solve is the convex QP, solved
    by the active-set method with no loop and checked from raw data."""

    # the corpus instances with Q PSD on null(A)
    convex = [random_instance(BOUNDED, 4, 2, 0)] + [
        random_instance(kind, 4, 2, seed)
        for kind in (CONVEX_ON_NULLSPACE, UNBOUNDED_SAFE) for seed in range(3)
    ]

    @pytest.mark.parametrize("cone", [DNN, PSD0])
    def test_convex_solves_run_no_loop(self, cone, loops):
        for inst in self.convex:
            assert check_psd_on_nullspace(inst).holds, inst.name
            res = solve_relaxation(inst, cone)
            assert res.status == OPTIMAL and res.iterations == 0, inst.name
            x = res.point.x
            z = np.concatenate(([1.0], x))
            assert np.array_equal(res.point.y, np.outer(z, z))
            assert res.validation.ok and res.kkt is not None
            assert res.kkt.min_multiplier >= -1e-8
            ref = global_solve(inst).value
            assert abs(res.value - ref) <= 1e-6 * (1.0 + abs(ref)), inst.name
            assert abs(res.value - evaluate_objective(inst, x)) <= 1e-12 * (1.0 + abs(ref))
        assert loops == []

    @pytest.mark.parametrize("cone", [DNN, PSD0])
    def test_closed_form_matches_the_loop(self, cone, monkeypatch):
        closed = [solve_relaxation(inst, cone, TIGHT) for inst in self.convex]
        monkeypatch.setattr(conic, "_convex_qp", lambda *args: None)
        for inst, res in zip(self.convex, closed):
            looped = solve_relaxation(inst, cone, TIGHT)
            assert looped.status == OPTIMAL and looped.iterations > 0
            assert abs(looped.value - res.value) <= 1e-6 * (1.0 + abs(res.value)), inst.name

    def test_first_order_check_rejects_a_moved_point(self):
        # one feasible step from the optimum toward the worst vertex
        for inst in self.convex:
            x = solve_relaxation(inst, DNN).point.x
            assert oracle.first_order_certificate(inst, x) is not None
            worst = max(enumerate_vertices(inst), key=lambda v: evaluate_objective(inst, v))
            moved = x + 0.1 * (worst - x)
            assert evaluate_objective(inst, moved) > evaluate_objective(inst, x) + 1e-6
            assert oracle.first_order_certificate(inst, moved) is None, inst.name

    # the fallback is the interior-point method on the face, not the loop

    def test_failed_check_falls_back_to_the_loop(self, monkeypatch, loops, ipms):
        inst = self.convex[1]
        monkeypatch.setattr(conic, "first_order_certificate", lambda *args: None)
        res = solve_relaxation(inst, DNN)
        assert res.status == OPTIMAL and res.iterations > 0 and res.kkt is None
        assert len(ipms) == 1 and loops == []

    def test_step_cap_falls_back_to_the_loop(self, monkeypatch, loops, ipms):
        monkeypatch.setattr(conic, "ACTIVE_SET_STEPS", 0)
        res = solve_relaxation(self.convex[1], PSD0)
        assert res.status == OPTIMAL and res.iterations > 0
        assert len(ipms) == 1 and loops == []

    def test_nonconvex_solves_still_loop(self, loops, ipms):
        inst = random_instance(BOUNDED, 4, 2, 2)
        assert not check_psd_on_nullspace(inst).holds
        res = solve_relaxation(inst, DNN)
        assert res.status == OPTIMAL and res.iterations > 0 and res.kkt is None
        assert 0 < res.iterations <= conic.IPM_ITERATIONS
        assert len(ipms) == 1 and loops == []

    def test_interior_minimizer(self):
        # the minimum of |x - 1|^2 over e^T x = 3 is the interior point x = 1
        inst = make_qp(np.eye(3), -np.ones(3), np.ones((1, 3)), [3])
        for cone in (DNN, PSD0):
            res = solve_relaxation(inst, cone)
            assert res.status == OPTIMAL and res.iterations == 0
            assert np.abs(res.point.x - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("cone", [DNN, PSD0])
    def test_zero_curvature_ray_is_unbounded(self, cone, loops):
        inst = ZERO_CURVATURE_RAY
        res = solve_relaxation(inst, cone)
        assert res.status == UNBOUNDED and res.value == -math.inf
        assert res.iterations == 0 and loops == []
        assert res.certificate is None
        assert np.abs(res.ray.d - 0.5).max() <= 1e-15
        check = oracle.verify_ray_certificate(inst, res.ray)
        assert check.ok and check.curvature == 0.0 and check.slope == pytest.approx(-0.5)
        assert res.ray_check == check

    @pytest.mark.parametrize("Q, c, x0, d, ok", [
        pytest.param(np.zeros((2, 2)), [-1, 0], [1, 1], [0.5, 0.5], True, id="valid"),
        pytest.param(np.zeros((2, 2)), [-1, 0], [1, 0], [0.5, 0.5], False,
                     id="infeasible-point"),
        pytest.param(np.zeros((2, 2)), [-1, 0], [1, 1], [1, 0], False,
                     id="not-a-recession-direction"),
        pytest.param(np.zeros((2, 2)), [-1, 0], [1, 1], [1, 1], False, id="not-normalized"),
        pytest.param(np.zeros((2, 2)), [-1, 0], [1, 1], [-0.5, -0.5], False,
                     id="not-nonnegative"),
        pytest.param(np.diag([1.0, 0.0]), [-1, 0], [1, 1], [0.5, 0.5], False, id="curved"),
        pytest.param(np.zeros((2, 2)), [1, 0], [1, 1], [0.5, 0.5], False, id="ascent"),
        # negative curvature makes q unbounded below whatever the slope
        pytest.param(-np.eye(2), [3, 3], [1, 1], [0.5, 0.5], True, id="concave-ascent"),
        pytest.param(-np.eye(2), [3, 3], [1, 0], [0.5, 0.5], False,
                     id="concave-infeasible-point"),
        pytest.param(-np.eye(2), [3, 3], [1, 1], [1, 0], False,
                     id="concave-not-a-recession-direction"),
        pytest.param(-np.eye(2), [3, 3], [1, 1], [1, 1], False, id="concave-not-normalized"),
    ])
    def test_ray_check_rejects_mutations(self, Q, c, x0, d, ok):
        inst = make_qp(Q, c, [[1, -1]], [0])
        ray = oracle.RayCertificate(np.array(x0, dtype=float), np.array(d, dtype=float))
        assert oracle.verify_ray_certificate(inst, ray).ok is ok

    def test_zero_curvature_ray_report(self):
        report = compare_report(ZERO_CURVATURE_RAY)
        assert report.oracle.value == -math.inf
        assert [c.name for c in report.checks if c.applicable and not c.passed] == []
        by_name = {c.name: c for c in report.checks}
        check = by_name["unbounded verdicts carry verified certificates"]
        assert check.applicable and check.passed
        assert check.detail == ("DNN: ray slope -0.5, verified True; "
                                "PSD0: ray slope -0.5, verified True; "
                                "oracle: ray slope -0.5, verified True")
        for entry in report.to_dict()["relaxations"].values():
            assert entry["status"] == UNBOUNDED and entry["iterations"] == 0
            assert entry["ray"]["d"] == pytest.approx([0.5, 0.5], abs=1e-15)
            assert entry["ray_check"]["ok"] is True
        assert "ray slope -0.5" in report.to_text()


class TestConsensusLoop:
    @pytest.mark.parametrize("block", [None, 0, 1, 2])
    def test_nonfinite_warm_state_raises(self, simplex_convex, block):
        # a non-finite entry of the loop's state, in Z (block None) or in the
        # scaled dual U of one block, stops the loop with NonFinite
        lp = lift_instance(simplex_convex, DNN)
        projector = build_affine_projector(lp)
        kernels = [projector.affine, *cone_projection_for(DNN)]

        def poisoned(m):
            out = m.copy()
            out[1, 1] = np.nan
            return out

        start = projector.apply
        if block is None:
            start = lambda m: poisoned(projector.apply(m))  # noqa: E731
        else:
            kernels[block] = poisoned
        stub = SimpleNamespace(apply=start, affine=kernels[0])
        with pytest.raises(NonFinite):
            conic._consensus(lp.qhat, stub, kernels[1:], SolveOptions())

    # Q fails the curvature condition on null(A): the loop on its unpinned
    # DNN solve takes 213 iterations with one penalty change
    looped = random_instance(BOUNDED, 4, 2, 2)

    def loop(self):
        """The loop on the unpinned DNN solve of ``looped``, with its
        polisher: the lifted problem, the face projector and the outcome."""
        lp = lift_instance(self.looped, DNN)
        projector = build_affine_projector(lp)
        out = conic._consensus(lp.qhat, projector, cone_projection_for(DNN), SolveOptions(),
                               polisher=conic._Polisher(lp, projector, DNN))
        return lp, projector, out

    def test_repeated_solves_are_bitwise_equal(self):
        first, second = (solve_relaxation(self.looped, DNN) for _ in range(2))
        assert first.status == second.status == OPTIMAL
        assert first.iterations == second.iterations
        assert first.value == second.value
        assert first.residual_primal == second.residual_primal
        assert first.residual_dual == second.residual_dual
        assert np.array_equal(first.point.y, second.point.y)

    def test_penalty_change_clears_the_memory(self, monkeypatch):
        events = []
        adapted = conic._adapted_penalty
        reset = conic._Anderson.reset

        def counted_penalty(rho, r_rel, s_rel):
            new = adapted(rho, r_rel, s_rel)
            events.append("rho" if new != rho else "kept")
            return new

        def counted_reset(memory):
            events.append("reset")
            reset(memory)

        monkeypatch.setattr(conic, "_adapted_penalty", counted_penalty)
        monkeypatch.setattr(conic._Anderson, "reset", counted_reset)
        self.loop()
        changes = [i for i, event in enumerate(events) if event == "rho"]
        assert changes
        assert all(events[i + 1] == "reset" for i in changes)

    def test_accelerated_solve_matches_the_oracle(self):
        lp, projector, out = self.loop()
        ref = global_solve(self.looped).value
        assert out.status == "CONVERGED"
        assert out.iterations < 3000
        value = float(np.tensordot(lp.qhat, projector.apply(out.Z)))
        assert abs(value - ref) <= 1e-6 * abs(ref)
        # the interior-point method that replaced it on this solve agrees
        assert abs(solve_relaxation(self.looped, DNN).value - value) <= 1e-6 * abs(ref)


class TestEmptinessScreens:
    @pytest.fixture
    def examined(self, monkeypatch):
        """Column subsets whose basic solution was examined."""
        subsets = []
        basic = oracle._basic_solution

        def counted(A, b, cols, *args):
            subsets.append(cols)
            return basic(A, b, cols, *args)

        monkeypatch.setattr(oracle, "_basic_solution", counted)
        return subsets

    @staticmethod
    def first_feasible(A, b):
        """Position of the first feasible basis in enumeration order, from 1."""
        rank = np.linalg.matrix_rank(A)
        for pos, cols in enumerate(itertools.combinations(range(A.shape[1]), rank), 1):
            xb, *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
            if np.allclose(A[:, cols] @ xb, b) and xb.min() >= -1e-9:
                return pos
        return None

    def test_relaxation_feasibility_stops_at_first_basis(self, examined):
        # the PSD0 certificate screen enumerates nothing, so every subset
        # examined belongs to the feasibility test
        inst = random_instance(BOUNDED, 5, 2, 3)
        examined.clear()  # generation checks feasibility too
        solve_relaxation(inst, PSD0)
        first = self.first_feasible(inst.A, inst.b)
        assert len(examined) == first < math.comb(5, 2)

    def test_certificate_screen_stops_at_first_basis(self, examined):
        inst = random_instance(UNBOUNDED_SAFE, 5, 2, 1)
        examined.clear()
        aug = np.vstack([inst.A, np.ones((1, 5))])
        rhs = np.concatenate([np.zeros(2), [1.0]])
        assert recession_certificate_search(inst, DNN, FEASIBILITY).status == FOUND
        first = self.first_feasible(aug, rhs)
        assert len(examined) == first < math.comb(5, 3)

    def test_bounded_polytope_certificate_screen_examines_nothing(self, examined):
        # a row of A of one strict sign leaves the recession cone {0}; the
        # DNN pre-pass enumerated 10 empty column subsets before the screen
        inst = random_instance(BOUNDED, 5, 2, 3)
        assert (inst.A > 0).all(axis=1).any() or (inst.A < 0).all(axis=1).any()
        examined.clear()
        res = recession_certificate_search(inst, DNN)
        assert res.status == NONE and examined == []

    def test_negative_row_recession_analysis_examines_nothing(self, examined):
        # 3 empty column subsets before the screen took negative rows too
        report = oracle.recession_analysis(np.eye(3), np.array([[-1.0, -2.0, -1.0]]))
        assert not report.l_nontrivial and examined == []

    def test_empty_polyhedron_examines_every_subset(self, examined):
        inst = random_instance(KIND_INFEASIBLE, 4, 2, 0)
        examined.clear()
        assert solve_relaxation(inst, DNN).status == INFEASIBLE
        assert len(examined) == math.comb(4, 2)

    def test_empty_certificate_set_runs_no_loop(self, loops):
        inst = random_instance(BOUNDED, 3, 1, 100)
        res = recession_certificate_search(inst, DNN, FEASIBILITY)
        assert res.status == NONE and res.iterations == 0
        assert res.reason == "no recession direction: certificate set is empty"
        assert loops == []

    def test_enumeration_cap_still_applies(self, monkeypatch):
        monkeypatch.setenv("QPRELAX_ENUM_CAP", "3")
        with pytest.raises(DeskScaleLimit):
            solve_relaxation(random_instance(BOUNDED, 4, 2, 0), DNN)


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(tol_primal=-1.0)

    def test_optimal_point_validates(self, simplex_bilinear):
        res = solve_relaxation(simplex_bilinear, DNN)
        assert res.status == OPTIMAL
        report = validate_lifted_point(
            simplex_bilinear, res.point, tol=10 * SolveOptions().tol_primal, cone=DNN
        )
        assert report.ok
