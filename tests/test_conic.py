import ast
import inspect
import itertools
import math
import sys
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
from qprelax import core, ipm, oracle
from qprelax.core import DNN, PSD0, evaluate_objective, lift_instance, validate_lifted_point
from qprelax.errors import DeskScaleLimit, NonFinite, PointInfeasible
from qprelax.generators import (
    BOUNDED,
    CONVEX_ON_NULLSPACE,
    INFEASIBLE as KIND_INFEASIBLE,
    KINDS,
    UNBOUNDED_SAFE,
    HornFamilyParams,
    horn_family,
    horn_instance,
    random_instance,
)
from qprelax.numerics import (
    build_affine_projector,
    cone_projection_for,
    nullspace_basis,
)
from qprelax.oracle import enumerate_vertices, global_solve
from qprelax.report import COMPARISON_TOLERANCE, compare_report

from conftest import ROUNDED_RAY, feasible_samples, make_corpus, make_qp

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

    @pytest.mark.parametrize("kind", [KIND_INFEASIBLE, BOUNDED])
    def test_unknown_cone_is_refused(self, kind):
        # before any verdict: an empty polyhedron or an infeasible anchor
        # must not answer for a cone that does not exist
        inst = random_instance(kind, 3, 1, 1)
        x = np.zeros(3) if kind == KIND_INFEASIBLE else feasible_samples(inst, 1)[0]
        with pytest.raises(ValueError, match="unknown cone selector 'BOGUS'"):
            solve_relaxation(inst, "BOGUS")
        with pytest.raises(ValueError, match="unknown cone selector 'BOGUS'"):
            evaluate_underestimator(inst, "BOGUS", x)


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
def fresh_prepass():
    """An empty record memo, emptied again at teardown so that nothing a
    test faked stays cached for the next one."""
    _clear_memos()
    yield
    _clear_memos()


def _clear_memos():
    conic._prepared.cache_clear()


@pytest.fixture
def searches(monkeypatch, fresh_prepass):
    """Instances and cones of the certificate searches run, from an empty memo."""
    calls = []
    search = conic.recession_certificate_search

    def counted(inst, cone, *args, **kwargs):
        calls.append((inst, cone))
        return search(inst, cone, *args, **kwargs)

    monkeypatch.setattr(conic, "recession_certificate_search", counted)
    return calls


class TestPinnedPrepassReuse:
    # bounded polyhedron, but Q fails curvature on null(A): PSD0 is unbounded
    inst = random_instance(BOUNDED, 3, 1, 0)

    def points(self, count=3):
        return feasible_samples(self.inst, count, seed=5)

    def test_repeated_calls_search_once(self, searches):
        results = [evaluate_underestimator(self.inst, PSD0, x) for x in self.points()]
        assert len(searches) == 1
        _clear_memos()
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
        # the DNN pre-pass is the search, which stops at its own screen; the
        # record keeps both cones' searches
        assert searches == [(self.inst, PSD0), (self.inst, DNN)]

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
        # the pre-pass and its search read the instance's one face null(A),
        # and so do the other cone's pre-pass and the curvature check
        bases = []
        basis = conic.nullspace_basis

        def counted(a):
            bases.append(a)
            return basis(a)

        monkeypatch.setattr(conic, "nullspace_basis", counted)
        assert solve_relaxation(horn[0], DNN).status == UNBOUNDED
        assert len(bases) == 1 and searches == [(horn[0], DNN)]
        assert solve_relaxation(horn[0], PSD0).status == UNBOUNDED
        assert not check_psd_on_nullspace(horn[0]).holds
        assert len(bases) == 1 and searches == [(horn[0], DNN), (horn[0], PSD0)]

    def test_envelope_searches_once(self, searches):
        start, end = self.points(2)
        rows = sample_envelope(self.inst, PSD0, start, end, samples=11)
        assert len(rows) == 11
        assert all(row.status == UNBOUNDED for row in rows)
        assert len(searches) == 1


class TestPinnedFaceReuse:
    """The face (``N``, ``N^T Q N`` and the sign-row stack) is built once
    per instance; only ``h = -x_i x_j`` is built per anchor."""

    # bounded, and Q fails curvature on null(A): DNN anchors reach the solve
    inst = TestPinnedPrepassReuse.inst

    @pytest.fixture
    def faces(self, monkeypatch, fresh_prepass):
        """Instances whose face was built, from empty memos."""
        built = []
        basis = conic.nullspace_basis

        def counted(a):
            built.append(a)
            return basis(a)

        monkeypatch.setattr(conic, "nullspace_basis", counted)
        return built

    def points(self, count=4):
        return feasible_samples(self.inst, count, seed=5)

    def test_sign_stack_matches_triu_indices(self):
        # the stack reads the per-order index pairs; built afresh they give
        # the same rows, bit for bit, on every corpus record
        for inst in make_corpus():
            N = conic._prepared(inst).N
            i, j = np.triu_indices(N.shape[0], k=1)
            G = N[i, :, None] * N[j, None, :]
            G = 0.5 * (G + G.transpose(0, 2, 1))
            rows = np.abs(G).max(axis=(1, 2), initial=0.0) > conic.RANK_TOL
            for got, ref in zip(conic._sign_stack(N), (G[rows], i[rows], j[rows])):
                assert got.dtype == ref.dtype and got.shape == ref.shape, inst.name
                assert got.tobytes() == ref.tobytes(), inst.name

    def test_repeated_anchors_build_the_face_once(self, faces):
        # the face has order 2: each anchor is solved exactly
        results = [evaluate_underestimator(self.inst, DNN, x) for x in self.points()]
        assert all(res.status == OPTIMAL and res.iterations == 0 for res in results)
        assert len(faces) == 1

    def test_instance_change_builds_again(self, faces):
        x = self.points()[0]
        inst = self.inst
        twin = make_qp(inst.Q, inst.c, inst.A, inst.b, inst.name)
        for target in (inst, twin, twin, inst):
            evaluate_underestimator(target, DNN, x)
        assert len(faces) == 3

    def test_cleared_memo_gives_bitwise_equal_results(self, faces):
        cached = [evaluate_underestimator(self.inst, DNN, x) for x in self.points()]
        for x, res in zip(self.points(), cached):
            _clear_memos()
            fresh = evaluate_underestimator(self.inst, DNN, x)
            assert fresh.status == res.status and fresh.value == res.value
            assert fresh.iterations == res.iterations
            assert np.array_equal(fresh.point.y, res.point.y)
        assert len(faces) == 1 + len(cached)

    @pytest.fixture
    def stacks(self, monkeypatch, fresh_prepass):
        """Bases whose sign-row stack was built, from empty memos."""
        built = []
        stack = conic._sign_stack

        def counted(N, *args):
            built.append(N)
            return stack(N, *args)

        monkeypatch.setattr(conic, "_sign_stack", counted)
        return built

    def test_face_is_read_only(self, faces):
        evaluate_underestimator(self.inst, DNN, self.points()[0])
        prep = conic._prepared(self.inst)
        assert not any(a.flags.writeable
                       for a in (prep.N, prep.C, prep.v, prep.x0, *prep.signs))

    def test_other_paths_build_no_sign_rows(self, stacks):
        # the curvature check, PSD0 and FEASIBILITY searches, DNN searches a
        # screen stops, and the closed forms read the face but not its rows
        convex = TestPinnedClosedForm.convex
        for x in feasible_samples(convex, 2, seed=1):
            for cone in (DNN, PSD0):
                assert evaluate_underestimator(convex, cone, x).iterations == 0
        for inst in (convex, self.inst, random_instance(UNBOUNDED_SAFE, 4, 2, 2)):
            check_psd_on_nullspace(inst)
            for cone in (DNN, PSD0):
                for mode in (OBJECTIVE, FEASIBILITY):
                    assert recession_certificate_search(inst, cone, mode).iterations == 0
        evaluate_underestimator(self.inst, PSD0, self.points()[0])
        random_instance(CONVEX_ON_NULLSPACE, 30, 3, 0)
        assert stacks == []

    def test_criterion_9_batch_lifts_each_instance_at_most_twice(self, monkeypatch,
                                                                 fresh_prepass):
        # the pinned-batch members, both cones, 12 anchors each: one lift for
        # the record and at most one in verify_certificate per instance
        lifted = []
        lift = core.lift_instance

        def counted(inst):
            lifted.append(inst)
            return lift(inst)

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("qprelax") and getattr(
                    module, "lift_instance", None) is lift:
                monkeypatch.setattr(module, "lift_instance", counted)
        opts = SolveOptions(tol_primal=1e-8, tol_dual=1e-8)
        for inst in TestPinnedClosedForm.members:
            for cone in (DNN, PSD0):
                for x in feasible_samples(inst, 12, seed=77):
                    res = evaluate_underestimator(inst, cone, x, opts)
                    assert res.status in (OPTIMAL, UNBOUNDED), inst.name
        for inst in TestPinnedClosedForm.members:
            assert 1 <= sum(a is inst for a in lifted) <= 2, inst.name
        assert len(lifted) <= 10

    def test_dnn_solves_build_the_sign_rows_once(self, stacks, horn):
        results = [evaluate_underestimator(self.inst, DNN, x) for x in self.points()]
        assert all(res.status == OPTIMAL and res.iterations == 0 for res in results)
        assert len(stacks) == 1
        search = recession_certificate_search(horn[0], DNN)
        assert search.status == FOUND and search.iterations > 0
        assert len(stacks) == 2

    def test_unpinned_face_is_built_once_per_instance(self, stacks):
        inst = random_instance(BOUNDED, 5, 2, 0)
        for opts in (SolveOptions(), TIGHT):
            res = solve_relaxation(inst, DNN, opts)
            assert res.status == OPTIMAL and res.iterations > 0
        assert [N.shape for N in stacks] == [(inst.n + 1, inst.n - inst.m + 1)]


class TestFaceProblem:
    """``conic._face_problem`` builds the unpinned, search and pinned face
    problems with the arrays and operations of the inline constructions it
    replaced, kept here as the reference: both agree bit for bit."""

    @staticmethod
    def same(face, ref, S, name):
        """``face``'s ``(C, G, h)`` and point at ``S`` are ``ref``'s bytes."""
        for got, want in zip((*face[:3], face[5](S)), ref):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    @staticmethod
    def point(r, seed):
        """A positive semidefinite ``S`` of order ``r``."""
        M = np.random.default_rng(seed).normal(size=(r, r))
        return M @ M.T

    def test_unpinned_and_search_faces(self, fresh_prepass):
        unpinned = 0
        for k, inst in enumerate(make_corpus()):
            prep = conic._prepared(inst)
            N, r = prep.N, prep.N.shape[1]
            # the sign rows at h = 0, and tr S <= 1 as <-I, S> >= -1
            G, S = conic._sign_stack(N)[0], self.point(r, k)
            basis = np.vstack([np.zeros((1, r)), N])
            self.same(prep.search_face, (N.T @ inst.Q @ N, np.concatenate((G, [-np.eye(r)])),
                                         np.append(np.zeros(len(G)), -1.0),
                                         basis @ S @ basis.T), S, inst.name)
            if prep.x0 is None:
                continue
            # Y = V S V^T with u = [1; x0 - N N^T x0] / |.|; Y_00 = 1 is the row
            # pair <v0 v0^T, S> >= 1, <-v0 v0^T, S> >= -1; the rows are DNN's
            V = np.zeros((inst.n + 1, r + 1))
            V[0, 0], V[1:, 0], V[1:, 1:] = 1.0, prep.x0 - N @ (N.T @ prep.x0), N
            V[:, 0] /= math.sqrt(V[:, 0] @ V[:, 0])
            G, S = conic._sign_stack(V)[0], self.point(r + 1, k)
            corner = np.outer(V[0], V[0])
            self.same(prep.unpinned_face, (V.T @ prep.qhat @ V,
                                           np.concatenate((G, [corner, -corner])),
                                           np.append(np.zeros(len(G)), [1.0, -1.0]),
                                           V @ S @ V.T), S, inst.name)
            unpinned += 1
        assert unpinned == 19

    def test_pinned_faces(self, fresh_prepass):
        # criterion 9's anchors: the pinned-batch members, 12 anchors each
        for inst in TestPinnedClosedForm.members + [random_instance(UNBOUNDED_SAFE, 3, 1, 0)]:
            prep = conic._prepared(inst)
            N = prep.N
            G, i, j = conic._sign_stack(N)
            for k, x in enumerate(feasible_samples(inst, 12, seed=77)):
                face, S = conic._face_problem(prep, x=x), self.point(N.shape[1], k)
                assert np.array_equal(face[3], i) and np.array_equal(face[4], j)
                z = np.concatenate(([1.0], x))
                y = np.outer(z, z)
                y[1:, 1:] += N @ S @ N.T
                self.same(face, (N.T @ inst.Q @ N, G, -(x[i] * x[j]), y), S, inst.name)


@st.composite
def relabeled_instances(draw):
    """A ``random_instance`` of any kind at n <= 8, and its variable order."""
    n = draw(st.integers(2, 8))
    inst = random_instance(draw(st.sampled_from(KINDS)), n, draw(st.integers(1, n - 1)),
                           draw(st.integers(0, 3)))
    return inst, np.array(draw(st.permutations(range(n))))


class TestFaceRelabeling:
    """The face's basis depends on the variable order; Burer's condition and
    the certificate searches' verdicts do not."""

    @given(relabeled_instances())
    def test_relabeling_keeps_the_verdicts(self, drawn):
        inst, p = drawn
        twin = make_qp(inst.Q[np.ix_(p, p)], inst.c[p], inst.A[:, p], inst.b, inst.name)
        before, after = check_psd_on_nullspace(inst), check_psd_on_nullspace(twin)
        assert before.holds == after.holds
        least = before.min_eigenvalue
        assert abs(after.min_eigenvalue - least) <= 1e-12 * max(1.0, abs(least))
        lifted = np.concatenate(([0], p + 1))
        for cone in (DNN, PSD0):
            old, new = (recession_certificate_search(x, cone, OBJECTIVE) for x in (inst, twin))
            assert old.status == new.status
            if new.status == FOUND:
                assert verify_certificate(twin, new.certificate).ok
                moved = replace(old.certificate, d=old.certificate.d[np.ix_(lifted, lifted)])
                assert verify_certificate(twin, moved).ok

    @pytest.mark.parametrize("n, seed", [(n, seed) for n in (6, 7, 8) for seed in range(3)])
    def test_relabeling_keeps_the_interior_point_search(self, n, seed):
        # the Horn family's DNN searches pass both screens and iterate
        inst = horn_family(HornFamilyParams(n=n, seed=seed))
        p = np.random.default_rng(seed).permutation(n)
        assert (p != np.arange(n)).any()
        twin = make_qp(inst.Q[np.ix_(p, p)], inst.c[p], inst.A[:, p], inst.b, inst.name)
        old, new = (recession_certificate_search(x, DNN, OBJECTIVE) for x in (inst, twin))
        assert old.status == new.status == FOUND and old.iterations > 0
        assert new.iterations == old.iterations
        rate = old.certificate.objective_rate
        assert abs(new.certificate.objective_rate - rate) <= 1e-9 * abs(rate)
        assert verify_certificate(twin, new.certificate).ok


#: ``random_instance(BOUNDED, n, m, seed)`` whose DNN solve runs the
#: interior-point method on ``V = [u, [0; N]]``; at n - m = 1 that face
#: has order 2 and is solved exactly.
UNPINNED_IPM = [(3, 1, 0), (4, 1, 0), (4, 2, 1), (4, 3, 0), (5, 2, 0), (5, 3, 1),
                (6, 1, 1), (6, 3, 0), (7, 2, 2), (7, 3, 1), (8, 1, 2), (8, 3, 0)]


class TestUnpinnedRelations:
    """A variable permutation and an invertible row mix change ``N`` and
    the vertex ``x0`` of the unpinned solve's basis, but not the problem;
    an equality multiple ``(Q + A^T R + R^T A, c - R^T b)`` changes ``C``
    off null(A) only, and a positive objective scale ``alpha`` scales every
    value by ``alpha``."""

    @staticmethod
    def scale(relation, seed):
        """The factor ``relation`` puts on every value."""
        if relation != "objective scale":
            return 1.0
        return math.exp(np.random.default_rng(seed).uniform(-2.0, 2.0))

    @staticmethod
    def transformed(inst, relation, seed):
        rng = np.random.default_rng(seed)
        if relation == "permutation":
            p = rng.permutation(inst.n)
            return make_qp(inst.Q[np.ix_(p, p)], inst.c[p], inst.A[:, p], inst.b, inst.name)
        if relation == "equality multiple":
            R = rng.normal(size=(inst.m, inst.n))
            Q = inst.Q + inst.A.T @ R + R.T @ inst.A
            return make_qp(0.5 * (Q + Q.T), inst.c - R.T @ inst.b, inst.A, inst.b, inst.name)
        if relation == "objective scale":
            alpha = TestUnpinnedRelations.scale(relation, seed)
            return make_qp(alpha * inst.Q, alpha * inst.c, inst.A, inst.b, inst.name)
        # orthogonal times a positive scaling: condition number at most e^2
        R = np.linalg.qr(rng.normal(size=(inst.m, inst.m)))[0] * np.exp(
            rng.uniform(-1.0, 1.0, inst.m))
        return make_qp(inst.Q, inst.c, R @ inst.A, R @ inst.b, inst.name)

    @staticmethod
    def assert_kept(before, after, alpha):
        assert after.status == before.status
        ref = alpha * before.value
        assert abs(after.value - ref) <= COMPARISON_TOLERANCE * (1.0 + abs(ref))

    @pytest.mark.parametrize("relation", ["permutation", "row mix", "equality multiple",
                                          "objective scale"])
    @pytest.mark.parametrize("n, m, seed", UNPINNED_IPM)
    def test_relation_keeps_the_solve(self, n, m, seed, relation):
        inst = random_instance(BOUNDED, n, m, seed)
        before = solve_relaxation(inst, DNN)
        assert before.status == OPTIMAL and (before.iterations == 0) == (n - m == 1)
        after = solve_relaxation(self.transformed(inst, relation, seed), DNN)
        assert after.validation.ok
        self.assert_kept(before, after, self.scale(relation, seed))

    @pytest.mark.parametrize("relation", ["equality multiple", "objective scale"])
    @pytest.mark.parametrize("n, m, seed", UNPINNED_IPM[:8])
    def test_relation_keeps_the_pinned_values(self, n, m, seed, relation):
        opts = SolveOptions(tol_primal=1e-8, tol_dual=1e-8)
        inst = random_instance(BOUNDED, n, m, seed)
        twin = self.transformed(inst, relation, seed)
        for x in feasible_samples(inst, 4, seed=seed):
            before = evaluate_underestimator(inst, DNN, x, opts)
            assert before.status == OPTIMAL
            self.assert_kept(before, evaluate_underestimator(twin, DNN, x, opts),
                             self.scale(relation, seed))

    def test_basis_does_not_depend_on_the_vertex(self, monkeypatch, fresh_prepass):
        # x0 - N N^T x0 is the least-norm solution of A x = b, whichever
        # vertex x0 the feasibility test returns
        inst = random_instance(BOUNDED, 4, 2, 2)
        vertices = enumerate_vertices(inst)
        assert len(vertices) > 1
        feasible_point, solve_face = conic._feasible_point, conic.solve_face
        chosen, problems = [], []

        def recorded(C, G, h, *args):
            problems.append((C, G, h))
            return solve_face(C, G, h, *args)

        monkeypatch.setattr(conic, "_feasible_point", lambda A, b: chosen[-1].copy()
                            if A is inst.A else feasible_point(A, b))
        monkeypatch.setattr(conic, "solve_face", recorded)
        results = []
        for x0 in vertices:
            chosen.append(x0)
            _clear_memos()
            results.append(solve_relaxation(inst, DNN))
        assert len(problems) == len(vertices)
        for (C, G, h), res in zip(problems, results):
            assert res.status == OPTIMAL and res.iterations == results[0].iterations
            assert abs(res.value - results[0].value) <= 1e-9 * abs(results[0].value)
            for a, ref in zip((C, G, h), problems[0]):
                assert np.abs(a - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


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
        # the search to the face problem, of order 2 and solved exactly,
        # which finds no certificate
        inst = make_qp(Q, [0, 0, 0], [[0, 0, 1]], [1])
        res = recession_certificate_search(inst, DNN, OBJECTIVE)
        assert res.curvature == pytest.approx(-1.0, abs=1e-12)
        assert res.status == NONE and res.certificate is None
        assert res.iterations == 0 and len(ipms) == 1
        if best == 0.0:
            assert res.check is not None and res.check.ok
            assert abs(res.check.objective_rate) <= 1e-6
        # min 2 x1 x2 + x3^2 with x3 = 1: both the optimum and the DNN value are 1
        sol = solve_relaxation(inst, DNN)
        assert sol.status == OPTIMAL and abs(sol.value - 1.0) <= 1e-6
        assert sol.validation.ok

    def test_budget_exhaustion_is_inconclusive(self, horn):
        # the interior start finds horn5's certificate in 2 iterations
        res = recession_certificate_search(horn[0], DNN, OBJECTIVE,
                                           SolveOptions(max_iterations=1))
        assert res.status == INCONCLUSIVE and res.reason == "max_iter"
        assert res.iterations == 1 and res.certificate is None

    def test_bad_mode(self, simplex_convex):
        with pytest.raises(ValueError):
            recession_certificate_search(simplex_convex, DNN, "SIDEWAYS")

    def test_stops_at_the_first_accepted_iterate(self, horn, monkeypatch):
        # the search grades the first iterate its pre-check accepts, before
        # the interior-point method converges
        inst = horn[0]
        seen, rows = [], []
        solve_face = conic.solve_face

        def recorded(C, G, h, opts, accept, start):
            rows.append((C, G, h))

            def logged(S):
                seen.append((S.copy(), accept(S)))
                return seen[-1][1]

            return solve_face(C, G, h, opts, logged, start)

        monkeypatch.setattr(conic, "solve_face", recorded)
        res = recession_certificate_search(inst, DNN, OBJECTIVE)
        k = len(seen)
        assert [ok for _, ok in seen] == [False] * (k - 1) + [True]
        assert res.status == FOUND and res.iterations == k
        N = nullspace_basis(inst.A)
        basis = np.vstack([np.zeros((1, N.shape[1])), N])
        S = seen[-1][0]
        graded = conic._graded(conic._prepared(inst), DNN, basis @ S @ basis.T / np.trace(S),
                               OBJECTIVE, SolveOptions(), res.curvature, k, res.residual)
        assert graded.status == FOUND and graded.check == res.check
        assert np.array_equal(graded.certificate.d, res.certificate.d)
        assert graded.certificate.objective_rate == res.certificate.objective_rate
        converged = solve_face(*rows[0], SolveOptions())
        assert converged.status == "CONVERGED" and converged.iterations > k

    @pytest.mark.parametrize("n", [17, 20])
    def test_horn_family_search_stops_within_20_iterations(self, n):
        # 23 and 27 iterations when the search ran to convergence
        inst = horn_family(HornFamilyParams(n=n, seed=0))
        res = recession_certificate_search(inst, DNN, OBJECTIVE)
        assert res.status == FOUND and 0 < res.iterations <= 20
        check = verify_certificate(inst, res.certificate)
        assert check.ok and check.objective_rate < -conic.TOL_CERTIFICATE


class TestSearchStart:
    """The DNN objective search starts strictly inside both feasible sets,
    from the mean of the recession rays, and falls back to the identity
    start where that mean vanishes on a kept sign row."""

    CASES = [pytest.param(horn_instance()[0], id="horn5")] + [
        pytest.param(horn_family(HornFamilyParams(n=n, seed=s)), id=f"horn{n}-s{s}")
        for n in range(6, 11) for s in range(3)]

    @pytest.mark.parametrize("inst", CASES)
    def test_start_is_strictly_feasible(self, inst):
        prep = conic._prepared(inst)
        C, G, h = prep.search_face[:3]
        S, lam = conic._search_start(prep)
        assert np.linalg.eigvalsh(S)[0] > 0.0 and np.trace(S) == pytest.approx(0.5)
        w = G.reshape(len(G), -1) @ S.ravel() - h
        # every sign-row slack and the trace slack 1/2
        assert w.min() > 0.0 and w[-1] == pytest.approx(0.5)
        Z = C - np.tensordot(lam, G, 1)
        assert lam.min() > 0.0 and np.linalg.eigvalsh(Z)[0] >= 1.0 - 1e-12
        # solve_face takes it: both residuals are 0 there
        begun = ipm._interior(C, G.reshape(len(G), -1), h, S, lam)
        assert begun is not None
        S0, Z0, w0, lam0 = begun
        assert not (h - G.reshape(len(G), -1) @ S0.ravel() + w0).any()
        assert not (C - np.tensordot(lam0, G, 1) - Z0).any()

    @pytest.mark.parametrize("inst", CASES)
    def test_iterates_stay_primal_feasible(self, inst, monkeypatch):
        seen, solve_face = [], conic.solve_face
        tol = SolveOptions().tol_primal

        def recorded(C, G, h, opts, accept, start):
            def logged(S):
                seen.append(np.maximum(h - G.reshape(len(G), -1) @ S.ravel(), 0.0))
                return accept(S)

            return solve_face(C, G, h, opts, logged, start)

        monkeypatch.setattr(conic, "solve_face", recorded)
        res = recession_certificate_search(inst, DNN, OBJECTIVE)
        assert res.status == FOUND and res.start == "interior"
        assert len(seen) == res.iterations >= 1
        # h = 0 on the sign rows and -1 on the trace row: 1 + |h| = 2
        assert max(math.sqrt(v @ v) / 2.0 for v in seen) <= tol
        check = verify_certificate(inst, res.certificate)
        assert check.ok and check.objective_rate < -conic.TOL_CERTIFICATE

    def test_vanishing_mean_ray_takes_the_identity_start(self):
        # a mean ray zero on a kept sign row, even only to rounding, has no
        # strictly feasible start of this form
        inst, _ = horn_instance()
        prep = conic._Prepared(inst)
        G, i, j = prep.signs
        rays = np.array(conic._prepared(inst).rays)
        rays[:, i[0]] = 1e-17
        prep.adopt(rays=rays)
        assert conic._search_start(prep) is None

    def test_rounded_ray_keeps_the_identity_search(self, monkeypatch):
        prep = conic._prepared(ROUNDED_RAY)
        assert len(prep.rays) == 1
        d = prep.rays[0]
        kept = np.unique(np.concatenate(prep.signs[1:]))
        assert kept.tolist() == list(range(8))
        assert 0.0 < d[1] < 1e-16 and 0.0 < d[3] < 1e-16
        assert conic._search_start(prep) is None
        res = recession_certificate_search(ROUNDED_RAY, DNN, OBJECTIVE)
        assert res.status == FOUND and res.iterations == 14 and res.start == "identity"
        assert verify_certificate(ROUNDED_RAY, res.certificate).ok
        # the identity start of a search that is given no start, bit for bit
        _clear_memos()
        monkeypatch.setattr(conic, "_search_start", lambda prep: None)
        plain = recession_certificate_search(ROUNDED_RAY, DNN, OBJECTIVE)
        assert np.array_equal(plain.certificate.d, res.certificate.d)
        assert (plain.iterations, plain.residual, plain.check, plain.start) == (
            res.iterations, res.residual, res.check, res.start)

    def test_failed_check_takes_the_identity_start(self):
        # a start that is not strictly feasible is not taken
        prep = conic._prepared(horn_instance()[0])
        C, G, h = prep.search_face[:3]
        S, lam = conic._search_start(prep)
        given = ipm.solve_face(C, G, h, SolveOptions(), None, (S, -lam))
        plain = ipm.solve_face(C, G, h, SolveOptions())
        assert given.start == plain.start == "identity"
        assert given.iterations == plain.iterations
        assert np.array_equal(given.S, plain.S) and np.array_equal(given.lam, plain.lam)

    def test_start_is_recorded(self):
        inst = horn_instance()[0]
        assert recession_certificate_search(inst, DNN, OBJECTIVE).start == "interior"
        # no iteration runs: the PSD0 eigenpair and the DNN feasibility certificate
        assert recession_certificate_search(inst, PSD0, OBJECTIVE).start is None
        assert recession_certificate_search(inst, DNN, FEASIBILITY).start is None
        report = compare_report(inst)
        assert report.relaxations[DNN].start == "interior"
        assert report.relaxations[PSD0].start is None


class TestDualSlack:
    """``solve_face`` returns ``Z = C - sum_k lam_k G_k`` on every route."""

    @staticmethod
    def check(C, G, out, slack):
        scale = 1.0 + np.abs(C).max() + np.abs(out.lam) @ np.abs(G).max(axis=(1, 2))
        assert np.abs(out.Z - (C - np.tensordot(out.lam, G, 1))).max() <= slack * scale
        if out.status == "CONVERGED":
            assert np.linalg.eigvalsh(out.Z)[0] >= -64.0 * sys.float_info.epsilon * scale

    def test_interval_lp(self):
        C, G = np.array([[2.0]]), np.array([1.0, -1.0, 3.0]).reshape(3, 1, 1)
        out = ipm.solve_face(C, G, np.array([1.0, -4.0, 6.0]), SolveOptions())
        assert out.status == "CONVERGED" and out.iterations == 0 and out.lam.any()
        self.check(C, G, out, 0.0)
        # no optimum: lam = 0 and Z = c
        empty = ipm.solve_face(C, G, np.array([5.0, -4.0, 0.0]), SolveOptions())
        assert empty.status == MAX_ITER and np.array_equal(empty.Z, C)

    def test_order_two(self):
        # tr S >= 1 under C positive definite: S at the least eigenvector
        C, G = np.array([[2.0, 1.0], [1.0, 1.0]]), np.eye(2)[None]
        out = ipm.solve_face(C, G, np.array([1.0]), SolveOptions())
        assert out.status == "CONVERGED" and out.iterations == 0
        assert out.lam[0] == pytest.approx(np.linalg.eigvalsh(C)[0])
        self.check(C, G, out, 64.0 * sys.float_info.epsilon)

    @pytest.mark.parametrize("start", [True, False], ids=["interior", "identity"])
    def test_interior_point(self, start):
        prep = conic._prepared(horn_instance()[0])
        C, G, h = prep.search_face[:3]
        out = ipm.solve_face(C, G, h, SolveOptions(), None,
                             conic._search_start(prep) if start else None)
        assert out.status == "CONVERGED" and out.iterations > 0
        assert out.start == ("interior" if start else "identity")
        # from the interior start Z is C - sum_k lam_k G_k to rounding; from
        # the identity start, to the dual residual
        slack = 1e-14 if start else out.residual_dual
        self.check(C, G, out, slack)


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
    return _counted(monkeypatch, "solve_face")


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
        # the face problem on S, solved where the closed form applies: DNN
        # with its sign rows, PSD0 with none; exactly on convex's face of
        # order 2, by the interior-point method on a face of order 3
        for inst in (self.convex, random_instance(CONVEX_ON_NULLSPACE, 5, 2, 5)):
            prep = conic._prepared(inst)
            for x in feasible_samples(inst, 3, seed=4):
                C, G, h = conic._face_problem(prep, x=x)[:3]
                if cone == PSD0:  # no sign rows
                    G, h = G[:0], h[:0]
                out = ipm.solve_face(C, G, h, TIGHT)
                assert out.status == "CONVERGED" and (out.iterations > 0) == (prep.N.shape[1] > 2)
                solved = evaluate_objective(inst, x) + float(np.vdot(C, out.S))
                closed = evaluate_underestimator(inst, cone, x, TIGHT).value
                assert abs(solved - closed) <= 1e-7 * (1.0 + abs(closed))

    def test_negative_curvature_dnn_anchor_still_loops(self, loops):
        # the anchor is solved by the interior-point method, not the loop, on
        # a face of order 3 (one of order 2 is solved exactly)
        inst = random_instance(BOUNDED, 4, 1, 0)  # Q fails the curvature condition
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

    # values from the consensus loop this method replaced, at TIGHT; faces of
    # order 1 (implicit-zero) and 2 (the others) are solved exactly, but for
    # vertices whose optimum S = 0 has a positive definite Z, a pair the
    # exact solve does not build, so the interior-point method solves them
    @pytest.mark.parametrize("inst, x, looped, exact", [
        pytest.param(IMPLICIT_ZERO, [1, 0, 0], 1.9999999999913347, True,
                     id="implicit-zero-vertex-1"),
        pytest.param(IMPLICIT_ZERO, [0, 1, 0], -3.0000000000090488, True,
                     id="implicit-zero-vertex-2"),
        pytest.param(IMPLICIT_ZERO, [0.5, 0.5, 0], -0.5000000000100036, True,
                     id="implicit-zero-mid"),
        pytest.param(IMPLICIT_ZERO, [0.25, 0.75, 0], -1.7499999999894287, True,
                     id="implicit-zero-interior"),
        *[pytest.param(*_bounded_vertex(3, 1, 0, k), v, False, id=f"bounded-n3-m1-s0-vertex-{k}")
          for k, v in enumerate([-10.417466427139324, 10.365467813236204, 4.637967178750397])],
        *[pytest.param(*_bounded_vertex(4, 2, 2, k), v, k < 2, id=f"bounded-n4-m2-s2-vertex-{k}")
          for k, v in enumerate([-9.602279054712577, -0.7152976918937253, 2.6265832066304915])],
    ])
    def test_matches_the_loop(self, inst, x, looped, exact, loops):
        res = evaluate_underestimator(inst, DNN, np.array(x, dtype=float), TIGHT)
        assert res.status == OPTIMAL and (res.iterations == 0) == exact
        assert res.validation.ok
        assert abs(res.value - looped) <= 1e-7 * (1.0 + abs(looped))
        assert loops == []

    def test_criterion_9_anchors_converge_within_8_iterations(self, ipms):
        # criterion 9's first 12 anchors at each bounded member, where Q
        # fails the curvature condition: each reaches the face problem, of
        # order 2 on two members and 1 on the third, and is solved exactly
        # (the interior-point method took 6 to 8 iterations at order 2)
        opts = SolveOptions(tol_primal=1e-8, tol_dual=1e-8)
        for inst in TestPinnedClosedForm.members[:3]:
            for x in feasible_samples(inst, 12, seed=77):
                res = evaluate_underestimator(inst, DNN, x, opts)
                assert res.status == OPTIMAL and res.iterations == 0, inst.name
        assert len(ipms) == 36

    def test_order_3_anchors_converge_within_11_iterations(self, ipms):
        # the same 12 anchors on a bounded member whose face has order 3,
        # where the interior-point method takes 6 to 11 iterations at the
        # pinned-batch tolerance
        opts = SolveOptions(tol_primal=1e-8, tol_dual=1e-8)
        inst = random_instance(BOUNDED, 4, 1, 0)
        assert nullspace_basis(inst.A).shape[1] == 3
        for x in feasible_samples(inst, 12, seed=77):
            res = evaluate_underestimator(inst, DNN, x, opts)
            assert res.status == OPTIMAL and 0 < res.iterations <= 11
        assert len(ipms) == 12

    def test_dual_bound_closes_the_gap(self):
        # (Z, lam) is dual feasible up to the dual residual, and
        # q(x) + h^T lam = q(x) - sum lam_ij x_i x_j meets the value
        inst = TestPinnedClosedForm.members[0]
        anchors = [(IMPLICIT_ZERO, np.array([0.25, 0.75, 0.0])), _bounded_vertex(4, 2, 2, 1),
                   (inst, feasible_samples(inst, 1, seed=2)[0])]
        for inst, x in anchors:
            C, G, h = conic._face_problem(conic._prepared(inst), x=x)[:3]
            out = ipm.solve_face(C, G, h, TIGHT)
            assert out.status == "CONVERGED" and out.lam.min() >= 0.0
            Z = C - np.tensordot(out.lam, G, axes=1)
            assert np.linalg.eigvalsh(Z)[0] >= -1e-8 * (1.0 + np.abs(C).max())
            value = evaluate_underestimator(inst, DNN, x, TIGHT).value
            bound = evaluate_objective(inst, np.asarray(x)) + float(h @ out.lam)
            assert abs(value - bound) <= 1e-8 * (1.0 + abs(value)), inst.name

    def test_steps_to_boundary_match_the_masked_ratio_test(self):
        # the loop form it replaced: per side, the eigenvalue bound and the
        # least -v / dv over the falling entries
        def reference(roots, dS, dZ, w, dw, lam, dlam):
            least = np.linalg.eigvalsh(roots @ np.stack((dS, dZ)) @ roots.transpose(0, 2, 1))
            steps = []
            for low, v, dv in zip(least[:, 0], (w, lam), (dw, dlam)):
                step = 1.0 if low >= -1.0 else -1.0 / low
                falling = dv < 0.0
                if falling.any():
                    step = min(step, float((-v[falling] / dv[falling]).min()))
                steps.append(step)
            return steps

        rng = np.random.default_rng(5)
        for k in range(300):
            r, p = 1 + k % 3, k % 5
            roots = rng.normal(size=(2, r, r))
            dS, dZ = (0.5 * (a + a.T) for a in rng.normal(size=(2, r, r)) * rng.uniform(0, 3))
            w, lam = rng.uniform(0.01, 2.0, size=(2, p))
            dw, dlam = rng.normal(size=(2, p)) * rng.uniform(0, 3)
            args = (roots, dS, dZ, w, dw, lam, dlam)
            np.testing.assert_allclose(ipm._steps_to_boundary(*args), reference(*args),
                                       rtol=1e-14)

    def test_zero_rows_are_dropped(self):
        N = nullspace_basis(IMPLICIT_ZERO.A)
        G, i, j = conic._sign_stack(N)
        x = np.array([0.5, 0.5, 0.0])
        # only the pair (1, 2) is left: 0.5 * 0.5 - s / 2 >= 0
        assert G.shape == (1, 1, 1) and abs(G[0, 0, 0] + 0.5) <= 1e-12
        assert -(x[i] * x[j]) == pytest.approx([-0.25])

    @staticmethod
    def _dual_infeasible(inst, x):
        # the pre-pass reads NONE (rates of order -1e-7 are above
        # TOL_CERTIFICATE), but <C, S> falls without bound along a ray of
        # PSD S: the pinned problem has no optimum
        assert recession_certificate_search(inst, DNN).status == NONE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = evaluate_underestimator(inst, DNN, np.array(x))
        assert res.status == MAX_ITER
        return res

    def test_dual_infeasible_anchor_stops_within_the_cap(self, loops):
        # a face of order 1: the interval s >= 0 has no upper end, which the
        # exact solve reads without iterating
        inst = make_qp(np.diag([-1e-7, 0.0]), [0, 0], [[1, -1]], [0])
        assert self._dual_infeasible(inst, [1.0, 1.0]).iterations == 0
        assert loops == []

    def test_dual_infeasible_anchor_diverges_within_the_cap(self, loops):
        # a face of order 2, where the iterates diverge along S = t d d^T
        inst = make_qp(np.diag([-1e-7, 0.0, 0.0]), [0, 0, 0], [[1, -1, -1]], [0])
        res = self._dual_infeasible(inst, [2.0, 1.0, 1.0])
        assert 0 < res.iterations <= conic.IPM_ITERATIONS
        assert loops == []

    def test_unverified_psd0_certificate_gives_max_iter(self, monkeypatch, loops,
                                                        fresh_prepass):
        # negative curvature with no verified certificate: the PSD0 value is
        # minus infinity, unproven
        inst = TestPinnedClosedForm.members[0]
        search = recession_certificate_search(inst, PSD0)
        assert search.status == FOUND and search.curvature < 0
        unverified = replace(search, status=INCONCLUSIVE, certificate=None,
                             reason="candidate failed verification")
        monkeypatch.setattr(conic, "recession_certificate_search", lambda *args: unverified)
        res = evaluate_underestimator(inst, PSD0, feasible_samples(inst, 1, seed=2)[0])
        assert res.status == MAX_ITER and res.iterations == 0
        assert res.value == -math.inf and res.point is None
        assert loops == []

    def test_unverified_psd0_certificate_stops_the_plain_solve(self, monkeypatch, ipms,
                                                               fresh_prepass):
        # the unpinned PSD0 solve reads the same dichotomy: no iterative path
        inst = TestPinnedClosedForm.members[0]
        search = recession_certificate_search(inst, PSD0)
        assert search.status == FOUND and search.curvature < 0
        unverified = replace(search, status=INCONCLUSIVE, certificate=None,
                             reason="candidate failed verification")
        monkeypatch.setattr(conic, "recession_certificate_search", lambda *args: unverified)
        res = solve_relaxation(inst, PSD0)
        assert res.status == MAX_ITER and res.iterations == 0
        assert res.value == -math.inf and res.point is None
        assert ipms == []


#: Anchor parameters of the segment test: the ends, points 1e-9 from
#: them, and interior points.
SEGMENT_POINTS = (0.0, 1e-9, 0.1, 0.37, 0.5, 0.9, 1.0 - 1e-9, 1.0)


class TestSegmentEnvelope:
    """On a polytope that is a segment ``[a, b]`` the pinned DNN value is
    the convex envelope of q there: the chord where q is concave along the
    segment, solved exactly on the face of order 1, and q where it is
    convex, by the closed form."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_value_is_the_envelope(self, n, ipms):
        concave = 0
        for seed in range(10):
            inst = random_instance(BOUNDED, n, n - 1, seed)
            a, b = enumerate_vertices(inst)
            qa, qb = evaluate_objective(inst, a), evaluate_objective(inst, b)
            bends = float((b - a) @ inst.Q @ (b - a)) < 0.0
            concave += bends
            for t in SEGMENT_POINTS:
                x = (1.0 - t) * a + t * b
                res = evaluate_underestimator(inst, DNN, x)
                envelope = (1.0 - t) * qa + t * qb if bends else evaluate_objective(inst, x)
                assert res.status == OPTIMAL and res.iterations == 0, (inst.name, t)
                assert abs(res.value - envelope) <= 1e-12 * abs(envelope), (inst.name, t)
        assert 0 < concave < 10 and len(ipms) == concave * len(SEGMENT_POINTS)


def _brute_interval_lp(c, g, h):
    """``(s, value)`` of min ``c s`` over ``s >= 0``, ``g s >= h`` from every
    candidate end, None when empty, ``-inf`` value when unbounded below."""
    ends = [0.0] + [hk / gk for gk, hk in zip(g, h) if gk != 0.0]
    feasible = [s for s in ends if s >= 0.0 and np.all(g * s >= h - 1e-12 * (1.0 + abs(h)))]
    if not feasible:
        return None
    far = max(ends) + 1.0
    if c < 0.0 and np.all(g * far >= h):
        return far, -math.inf
    best = min(feasible, key=lambda s: c * s)
    return best, c * best


class TestIntervalLp:
    """``ipm.solve_face`` at order 1: the interval LP min ``c s`` over ``s >= 0``
    with ``g_k s >= h_k``, solved exactly with 0 iterations."""

    @staticmethod
    def solve(c, g, h):
        g, h = np.asarray(g, dtype=float), np.asarray(h, dtype=float)
        return ipm.solve_face(np.array([[c]], dtype=float), g.reshape(-1, 1, 1), h,
                               SolveOptions(max_iterations=1))

    @staticmethod
    def assert_optimal(out, c, g, h, value):
        g, h = np.asarray(g, dtype=float), np.asarray(h, dtype=float)
        s = float(out.S[0, 0])
        assert out.status == "CONVERGED" and out.iterations == 0
        assert out.residual_primal == out.residual_dual == 0.0
        assert s >= 0.0 and np.all(g * s >= h - 1e-12 * (1.0 + np.abs(h)))
        assert abs(c * s - value) <= 1e-12 * (1.0 + abs(value))
        assert out.lam.shape == h.shape and out.lam.min(initial=0.0) >= 0.0
        assert np.count_nonzero(out.lam) <= 1
        assert c - out.lam @ g >= -1e-12 * (1.0 + abs(c))
        assert abs(c * s - h @ out.lam) <= 1e-12 * (1.0 + abs(value))

    @pytest.mark.parametrize("c, g, h, s", [
        pytest.param(2.0, [1.0, -1.0], [0.5, -3.0], 0.5, id="lower-row"),
        pytest.param(-2.0, [1.0, -1.0], [0.5, -3.0], 3.0, id="upper-row"),
        pytest.param(2.0, [1.0], [-1.0], 0.0, id="lower-zero"),
        pytest.param(0.0, [2.0, -1.0], [1.0, -3.0], 0.5, id="zero-cost"),
        pytest.param(-1.0, [0.0, -2.0], [-1.0, -4.0], 2.0, id="zero-row-holds"),
        pytest.param(1.0, [], [], 0.0, id="no-rows"),
    ])
    def test_optimum(self, c, g, h, s):
        out = self.solve(c, g, h)
        assert out.S[0, 0] == s
        self.assert_optimal(out, c, g, h, c * s)

    @pytest.mark.parametrize("c, g, h", [
        pytest.param(1.0, [1.0, -1.0], [2.0, -1.0], id="empty"),
        pytest.param(1.0, [-1.0], [1.0], id="below-zero"),
        pytest.param(1.0, [0.0, 1.0], [1e-300, 1.0], id="zero-row-fails"),
        pytest.param(-1.0, [1.0], [1.0], id="unbounded-ray"),
        pytest.param(-1.0, [], [], id="no-rows-unbounded"),
    ])
    def test_no_optimum_is_max_iter(self, c, g, h):
        out = self.solve(c, g, h)
        assert out.status == MAX_ITER and out.iterations == 0
        assert out.residual_primal == out.residual_dual == math.inf

    @hypothesis.settings(max_examples=300, deadline=None)
    @given(st.integers(-3, 3), st.lists(st.tuples(st.integers(-3, 3), st.integers(-6, 6)),
                                        max_size=6))
    def test_matches_brute_force(self, c, rows):
        g = np.array([gk for gk, _ in rows], dtype=float)
        h = np.array([hk for _, hk in rows], dtype=float)
        out = self.solve(float(c), g, h)
        brute = _brute_interval_lp(float(c), g, h)
        if brute is None or brute[1] == -math.inf:
            assert out.status == MAX_ITER and out.iterations == 0
        else:
            self.assert_optimal(out, float(c), g, h, brute[1])


def _order_two_problems(opts):
    """Criterion 9's order-2 anchors, then the order-2 sizes of
    ``anchor_sweep.py`` at seeds 0-2, every vertex and 4 Dirichlet mixtures:
    ``(inst, x, C, G, h)`` of each pinned DNN face problem."""
    cases = [(inst, feasible_samples(inst, 12, seed=77))
             for inst in (TestPinnedClosedForm.members[0], TestPinnedClosedForm.members[2])]
    for n, m in ((3, 1), (4, 2), (5, 3), (6, 4)):
        for seed in range(3):
            inst = random_instance(BOUNDED, n, m, seed)
            vertices = np.array(enumerate_vertices(inst))
            rng = np.random.default_rng(seed)
            cases.append((inst, list(vertices) + [rng.dirichlet(np.ones(len(vertices))) @ vertices
                                                  for _ in range(4)]))
    for inst, points in cases:
        prep = conic._prepared(inst)
        if prep.holds or prep.prepass(DNN, opts).status == FOUND:
            continue
        assert prep.N.shape[1] == 2, inst.name
        for x in points:
            yield (inst, x, *conic._face_problem(prep, x=x)[:3])


def _raw_check(C, G, h, S, lam, tol):
    """The pair ``(S, lam)`` checked from the raw problem: the rows to
    ``tol``, ``S`` PSD and ``lam >= 0``, ``Z`` PSD to rounding, and the gap."""
    eps = np.finfo(float).eps
    rows = np.einsum("kij,ij->k", G, S)
    assert np.all(rows >= h - tol * (1.0 + np.abs(h)))
    assert np.linalg.eigvalsh(S)[0] >= -64.0 * eps * np.abs(S).max(initial=1.0)
    assert lam.min(initial=0.0) >= 0.0
    Z = C - np.tensordot(lam, G, axes=1)
    scale = 1.0 + np.abs(C).max() + lam @ np.abs(G).max(axis=(1, 2), initial=0.0)
    assert np.linalg.eigvalsh(Z)[0] >= -64.0 * eps * scale
    value, dual = float(np.vdot(C, S)), float(h @ lam)
    assert abs(value - dual) <= tol * (1.0 + abs(value) + abs(dual))


class TestOrderTwoFaces:
    """``ipm.solve_face`` at order 2: the least-valued KKT pair that passes
    ``ipm._check``, with 0 iterations, or the interior-point method."""

    @staticmethod
    def rejected(cm, gm, hz, S, *args):
        """An ``ipm._check`` that turns every pair down."""
        return np.zeros(len(S), bool)

    def iterated(self, monkeypatch, C, G, h, opts):
        """``ipm.solve_face`` with every pair turned down."""
        with monkeypatch.context() as patch:
            patch.setattr(ipm, "_check", self.rejected)
            return ipm.solve_face(C, G, h, opts)

    @pytest.mark.parametrize("tol", [1e-7, 1e-8])
    def test_certified_or_the_interior_point_outcome(self, tol, monkeypatch):
        opts = SolveOptions(tol_primal=tol, tol_dual=tol)
        certified = total = 0
        for inst, x, C, G, h in _order_two_problems(opts):
            exact = ipm._order_two(C, G, h, tol, tol)
            out = ipm.solve_face(C, G, h, opts)
            method = self.iterated(monkeypatch, C, G, h, opts)
            total += 1
            if exact is None:
                assert out.status == method.status and out.iterations == method.iterations > 0
                assert np.array_equal(out.S, method.S) and np.array_equal(out.lam, method.lam)
                assert (out.residual_primal, out.residual_dual) == (
                    method.residual_primal, method.residual_dual)
                # a vertex whose optimum is S = 0 (with Z positive definite)
                assert any(np.array_equal(x, v) for v in enumerate_vertices(inst))
                assert np.linalg.eigvalsh(method.S)[-1] <= 10.0 * tol
                continue
            certified += 1
            assert out.status == "CONVERGED" and out.iterations == 0 and out.residual_dual == 0.0
            assert np.array_equal(out.S, exact[0]) and np.array_equal(out.lam, exact[1])
            _raw_check(C, G, h, out.S, out.lam, tol)
            value, ref = float(np.vdot(C, out.S)), float(np.vdot(C, method.S))
            assert method.status == "CONVERGED"
            assert abs(value - ref) <= 2.0 * tol * (1.0 + abs(ref)), inst.name
        # the 24 anchors of criterion 9 and 73 of 81 others
        assert (certified, total) == (97, 105)

    def test_forced_fallback_is_the_interior_point_method(self, monkeypatch):
        # criterion 9's order-2 anchors with every pair turned down: the
        # iterations and values of the interior-point method alone
        iterations = [7, 6, 7, 6, 6, 6, 7, 6, 6, 7, 7, 6, 8, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8, 6]
        values = [-5.0837434359944105, 0.1547972960733519, -4.244855649988486,
                  5.108625467872428, 2.6935934196114584, -4.571596079523063,
                  -5.4617819888098795, 5.327797368417723, 7.23903790648492, 0.302728305234518,
                  3.547183113932337, 6.867137277911455, -6.9895340636061905, -4.056316182149864,
                  -4.769885291827206, -1.275074122002181, 0.33577355672136816, -6.22465582593414,
                  -5.798914424227036, -1.0588039902836566, -1.6625523682215932,
                  -0.8963620163502708, 1.7232029838451477, -0.25940025389523225]
        opts = SolveOptions(tol_primal=1e-8, tol_dual=1e-8)
        problems = list(_order_two_problems(opts))[:24]
        for (inst, x, C, G, h), its, ref in zip(problems, iterations, values):
            method = self.iterated(monkeypatch, C, G, h, opts)
            with monkeypatch.context() as patch:
                patch.setattr(ipm, "MAX_ROWS", -1)  # no pair is built at all
                plain = ipm.solve_face(C, G, h, opts)
            assert method.status == plain.status == "CONVERGED"
            assert method.iterations == plain.iterations == its
            for a, b in zip((method.S, method.lam, method.residual_primal, method.residual_dual),
                            (plain.S, plain.lam, plain.residual_primal, plain.residual_dual)):
                assert np.array_equal(a, b)
            with monkeypatch.context() as patch:
                patch.setattr(ipm, "_check", self.rejected)
                res = evaluate_underestimator(inst, DNN, x, opts)
            assert res.iterations == its and abs(res.value - ref) <= 1e-12 * (1.0 + abs(ref))

    @staticmethod
    def solve(C, G, h):
        return ipm.solve_face(np.array(C, dtype=float), np.array(G, dtype=float).reshape(-1, 2, 2),
                               np.array(h, dtype=float), TIGHT)

    @pytest.mark.parametrize("C, G, h, value", [
        # no rows: min <C, S> over S PSD is 0 at S = 0 for C PSD
        pytest.param([[2, 1], [1, 1]], [], [], 0.0, id="no-rows"),
        # tr S <= 1 as <-I, S> >= -1: the least eigenvalue of C
        pytest.param([[1, 0], [0, -1]], [[[-1, 0], [0, -1]]], [-1], -1.0, id="single-row"),
        pytest.param([[1, 0], [0, -1]], [[[-1, 0], [0, -1]]] * 2, [-1, -1], -1.0,
                     id="duplicated-row"),
        # S_11 = 1 as a row pair: min 2 S_12 + S_22 is -1 at S_12 = -1, S_22 = 1
        pytest.param([[0, 1], [1, 1]], [[[1, 0], [0, 0]], [[-1, 0], [0, 0]]], [1, -1], -1.0,
                     id="equality-row-pair"),
    ])
    def test_small_problems(self, C, G, h, value):
        out = self.solve(C, G, h)
        assert out.status == "CONVERGED" and out.iterations == 0
        assert abs(float(np.vdot(C, out.S)) - value) <= 1e-12
        _raw_check(np.array(C, dtype=float), np.array(G, dtype=float).reshape(-1, 2, 2),
                   np.array(h, dtype=float), out.S, out.lam, 1e-12)

    def test_no_rows_without_an_optimum(self):
        # C is not PSD and nothing bounds S: no pair passes, and the
        # interior-point method diverges as before
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = self.solve([[1, 0], [0, -1]], [], [])
        assert out.status == MAX_ITER and out.iterations > 0

    def test_exact_multipliers_close_the_dual_bound(self):
        # q(x) + h^T lam meets the value to rounding (the interior-point
        # method's multipliers meet it to 1e-8)
        opts = SolveOptions(tol_primal=1e-8, tol_dual=1e-8)
        for inst, x, C, G, h in list(_order_two_problems(opts))[:24]:
            out = ipm.solve_face(C, G, h, opts)
            assert out.iterations == 0
            value = evaluate_underestimator(inst, DNN, x, opts).value
            bound = evaluate_objective(inst, x) + float(h @ out.lam)
            assert abs(value - bound) <= 1e-12 * (1.0 + abs(value)), inst.name

    @pytest.mark.parametrize("relation", ["permutation", "row mix"])
    def test_relations_keep_the_pinned_values(self, relation):
        # criterion 9's order-2 anchors on a relabeled or row-mixed twin
        opts = SolveOptions(tol_primal=1e-8, tol_dual=1e-8)
        for seed, inst in enumerate((TestPinnedClosedForm.members[0],
                                     TestPinnedClosedForm.members[2])):
            twin = TestUnpinnedRelations.transformed(inst, relation, seed)
            p = (np.random.default_rng(seed).permutation(inst.n) if relation == "permutation"
                 else np.arange(inst.n))
            for x in feasible_samples(inst, 12, seed=77):
                before = evaluate_underestimator(inst, DNN, x, opts)
                after = evaluate_underestimator(twin, DNN, x[p], opts)
                assert before.status == after.status == OPTIMAL
                assert before.iterations == after.iterations == 0
                assert abs(after.value - before.value) <= 1e-12 * (1.0 + abs(before.value))


#: x1 = x2 >= 0 with objective -2 x1: q is unbounded along d = (1, 1),
#: where d^T Q d = 0, and no lifted recession certificate exists
ZERO_CURVATURE_RAY = make_qp(np.zeros((2, 2)), [-1, 0], [[1, -1]], [0])

#: x1 + x2 = x1 + x3 = 1 with objective 2 x2 - x3 = 1 - x1: the optimum 0 is
#: the degenerate vertex (1, 0, 0)
DEGENERATE_OPTIMUM = make_qp(np.zeros((3, 3)), [0, 1, -0.5], [[1, 1, 0], [1, 0, 1]], [1, 1])


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
    def test_closed_form_matches_the_loop(self, cone, monkeypatch, fresh_prepass):
        closed = [solve_relaxation(inst, cone, TIGHT) for inst in self.convex]
        monkeypatch.setattr(conic, "_convex_qp", lambda *args: None)
        _clear_memos()  # the record keeps the closed form found above
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

    @pytest.mark.parametrize("cone", [DNN, PSD0])
    def test_failed_check_falls_back_to_the_loop(self, cone, monkeypatch, loops, ipms,
                                                 fresh_prepass):
        inst = self.convex[1]
        monkeypatch.setattr(conic, "first_order_certificate", lambda *args: None)
        res = solve_relaxation(inst, cone)
        assert res.status == OPTIMAL and res.iterations > 0 and res.kkt is None
        assert res.validation.ok and res.validation.cone == cone
        assert len(ipms) == 1 and loops == []

    def test_degenerate_optimum_falls_back_once(self, monkeypatch, ipms, fresh_prepass):
        # the optimum 0 is the vertex (1, 0, 0), with one positive entry for
        # rank A = 2: the least-squares multipliers give s_3 = -0.5, so the
        # first-order check fails; the record solves DNN's face problem once,
        # exactly at order 2, and both cones validate its point
        inst = DEGENERATE_OPTIMUM
        found = _counted(monkeypatch, "_convex_qp")
        ref = global_solve(inst).value
        results = [solve_relaxation(inst, cone) for cone in (DNN, PSD0)]
        for cone, res in zip((DNN, PSD0), results):
            assert res.status == OPTIMAL and res.iterations == 0 and res.kkt is None, cone
            assert abs(res.value - ref) <= COMPARISON_TOLERANCE * (1.0 + abs(ref)), cone
            assert res.validation.cone == cone
        assert np.array_equal(results[0].point.y, results[1].point.y)
        assert len(found) == 1 and len(ipms) == 1

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
        lp = lift_instance(simplex_convex)
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
        lp = lift_instance(self.looped)
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
        """Column subsets whose basic solution was examined, one per stack row."""
        subsets = []
        basic = oracle._basic_solutions

        def counted(A, b, stack, *args):
            subsets.extend(map(tuple, stack))
            return basic(A, b, stack, *args)

        monkeypatch.setattr(oracle, "_basic_solutions", counted)
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
        # stacks of 1, 2, 4, ... subsets: the second stack holds the first basis
        assert len(examined) == (1 << first.bit_length()) - 1 == 3 < math.comb(5, 2)

    def test_certificate_screen_stops_at_first_basis(self, examined):
        inst = random_instance(UNBOUNDED_SAFE, 5, 2, 1)
        examined.clear()
        aug = np.vstack([inst.A, np.ones((1, 5))])
        rhs = np.concatenate([np.zeros(2), [1.0]])
        assert recession_certificate_search(inst, DNN, FEASIBILITY).status == FOUND
        first = self.first_feasible(aug, rhs)
        assert len(examined) == (1 << first.bit_length()) - 1 == 1 < math.comb(5, 3)

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
        # the emptiness screen's 6 column subsets exceed 2^2
        monkeypatch.setenv("QPRELAX_ENUM_CAP", "2")
        with pytest.raises(DeskScaleLimit,
                           match=r"6 column subsets exceed the enumeration cap 2\^2"):
            solve_relaxation(random_instance(BOUNDED, 4, 2, 0), DNN)

    def test_cap_bounds_subsets_not_variables(self, monkeypatch):
        # n = 4 exceeds a cap of 3, but the 6 column subsets fit in 2^3
        monkeypatch.setenv("QPRELAX_ENUM_CAP", "3")
        assert solve_relaxation(random_instance(BOUNDED, 4, 2, 0), DNN).status == OPTIMAL


class TestPastTheFaceCap:
    """At n = 17 the exact oracle refuses its 2^17 faces, but the conic
    relaxations enumerate nothing beyond their emptiness screens."""

    inst = horn_family(HornFamilyParams(n=17, seed=0))

    @pytest.mark.parametrize("cone", [DNN, PSD0])
    def test_horn_family_relaxation_is_unbounded(self, cone):
        res = solve_relaxation(self.inst, cone)
        assert res.status == UNBOUNDED
        check = verify_certificate(self.inst, res.certificate)
        assert check.ok and check.objective_rate < 0
        if cone == DNN:
            assert 0 < res.iterations <= conic.IPM_ITERATIONS

    def test_oracle_still_refuses(self):
        with pytest.raises(DeskScaleLimit, match="131072 face patterns exceed"):
            global_solve(self.inst)


class TestSchurInverse:
    """The Schur matrix of the unpinned solves is singular where ``Y_00 = 1``
    enters as a row pair; its eigh pseudo-inverse keeps the method converging
    where a plain inverse ends MAX_ITER on every instance below."""

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    def test_odd_cycle_standard_qp(self, n):
        # min x^T (I + A_G) x over the simplex is 1 / alpha(C_n); its DNN
        # relaxation is 1 / theta(C_n) = (1 + cos(pi/n)) / (n cos(pi/n))
        i = np.arange(n)
        adjacency = np.zeros((n, n))
        adjacency[i, (i + 1) % n] = adjacency[(i + 1) % n, i] = 1.0
        inst = make_qp(np.eye(n) + adjacency, np.zeros(n), np.ones((1, n)), [1.0])
        res = solve_relaxation(inst, DNN)
        cos = math.cos(math.pi / n)
        ref = (1.0 + cos) / (n * cos)
        assert res.status == OPTIMAL and 0 < res.iterations <= 8
        assert abs(res.value - ref) <= COMPARISON_TOLERANCE * ref


class TestFaceSolverModule:
    def test_ipm_imports_only_stdlib_numpy_and_core(self):
        # the face solver is a leaf: it knows nothing of instances or lifts
        tree = ast.parse(inspect.getsource(ipm))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        assert imported
        for name in imported:
            root = name.split(".")[0]
            assert name == ".core" or root == "numpy" or (
                root and root in sys.stdlib_module_names), name


class TestSharedOracleRules:
    """``conic`` reads the oracle's decisions instead of copying them."""

    def test_conic_imports_no_oracle_constant(self):
        tree = ast.parse(inspect.getsource(conic))
        names = [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 and node.module == "oracle" for alias in node.names]
        assert names
        for name in names:
            value = getattr(oracle, name)
            assert inspect.isfunction(value) or inspect.isclass(value), name

    def test_search_start_reads_the_oracle_tolerance(self, monkeypatch):
        prep = conic._prepared(horn_instance()[0])
        assert conic._search_start(prep) is not None
        monkeypatch.setattr(conic, "_feasibility_tol", lambda A, b: 1e300)
        assert conic._search_start(prep) is None

    def test_slice_tolerance_is_the_basic_point_tolerance(self):
        sliced = 0
        for inst in make_corpus():
            if not conic._prepared(inst).rays:
                continue
            sliced += 1
            M, r = oracle._recession_slice(inst.A)
            tol = oracle._feasibility_tol(M, r)
            assert tol == oracle._system_ranks(M[None], r[None])[0][0], inst.name
        assert sliced


class TestOneFaceBuilder:
    """Only ``conic._face_problem`` builds the rows of a face problem."""

    @staticmethod
    def builds_rows(node):
        """Whether ``node`` calls ``_sign_stack``, appends the extra rows'
        offsets, or assembles a trace row ``-I`` or a corner ``v0 v0^T``."""
        def numpy(call):
            """The name of a ``np.<name>(...)`` call, or None."""
            f = call.func
            return f.attr if isinstance(f, ast.Attribute) and getattr(
                f.value, "id", None) == "np" else None

        for sub in ast.walk(node):
            if isinstance(sub, ast.UnaryOp) and isinstance(sub.op, ast.USub):
                if isinstance(sub.operand, ast.Call) and numpy(sub.operand) == "eye":
                    return True
            if not isinstance(sub, ast.Call):
                continue
            if getattr(sub.func, "id", None) == "_sign_stack" or numpy(sub) == "append":
                return True
            if numpy(sub) == "outer" and len(sub.args) == 2 and all(
                    isinstance(a, ast.Subscript) and isinstance(a.slice, ast.Constant)
                    and a.slice.value == 0 for a in sub.args):
                return True
        return False

    def test_only_the_builder_builds_face_rows(self):
        tree = ast.parse(inspect.getsource(conic))
        outer = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        outer += [item for node in tree.body if isinstance(node, ast.ClassDef)
                  for item in node.body if isinstance(item, ast.FunctionDef)]
        assert [node.name for node in outer if self.builds_rows(node)] == ["_face_problem"]

    def test_the_guard_sees_each_row(self):
        for source in ("def f(V):\n    return _sign_stack(V)",
                       "def f(h):\n    return np.append(h, -1.0)",
                       "def f(r):\n    return [-np.eye(r)]",
                       "def f(V):\n    return np.outer(V[0], V[0])"):
            assert self.builds_rows(ast.parse(source)), source
        for source in ("def f(u, r):\n    return np.outer(u, u) + np.eye(r)",
                       "def f(rows):\n    rows.append(-1.0)"):
            assert not self.builds_rows(ast.parse(source)), source


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
