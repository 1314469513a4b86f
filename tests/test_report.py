import json
import math
from dataclasses import replace

import numpy as np
import pytest

from qprelax import conic, numerics, oracle, report as report_module
from qprelax.cli import main
from qprelax.analysis import check_psd_on_nullspace
from qprelax.conic import (
    MAX_ITER,
    NONE,
    OPTIMAL,
    UNBOUNDED,
    CertificateSearch,
    SolveOptions,
    solve_relaxation,
    verify_certificate,
)
from qprelax.core import DNN, PSD0, QpInstance, curvature_tolerance, save_instance
from qprelax.errors import DeskScaleLimit
from qprelax.generators import (
    BOUNDED,
    CONVEX_ON_NULLSPACE,
    INFEASIBLE,
    HornFamilyParams,
    horn_family,
    horn_instance,
    random_instance,
)
from qprelax.report import COMPARISON_TOLERANCE, _grade, compare_report

from conftest import make_corpus, make_qp


LOWER_BOUND = "relaxations lower-bound the optimum"
BORDER_TRIVIAL = "curvature failure trivializes the border cone"
NEGATIVE_RAY = "negative recession curvature collapses the bound"
COPOSITIVE = "copositive objective stays bounded below"
CHECK_NAMES = [
    LOWER_BOUND,
    "weaker cone gives a weaker bound",
    "curvature condition makes relaxations exact",
    BORDER_TRIVIAL,
    NEGATIVE_RAY,
    "feasibility is preserved",
    "bounded feasible set keeps the bound finite",
    "unbounded verdicts carry verified certificates",
    COPOSITIVE,
]


def failed_checks(report):
    return [c.name for c in report.checks if c.applicable and not c.passed]


class TestCompareReport:
    def test_horn_story(self, horn):
        inst, _ = horn
        report = compare_report(inst)
        assert failed_checks(report) == []
        # one recession analysis, carried by the oracle result only
        assert "recession" not in report.to_dict() and report.oracle.recession.l_nontrivial
        assert report.relaxations[DNN].status == "UNBOUNDED"
        assert report.oracle.value == pytest.approx(27.0)
        by_name = {c.name: c for c in report.checks}
        assert by_name["copositive objective stays bounded below"].passed
        assert by_name["unbounded verdicts carry verified certificates"].passed

    def test_copositivity_fallback_reuses_simplex_minimum(self, horn, monkeypatch):
        inst, _ = horn
        simplex = np.ones((1, inst.n))
        calls = []
        original = oracle.minimize_quad_over_polytope

        def counting(Q, c, A, *args, **kwargs):
            if np.array_equal(A, simplex):
                calls.append(1)
            return original(Q, c, A, *args, **kwargs)

        # the copositivity check reaches it through oracle.simplex_minimum
        monkeypatch.setattr(oracle, "minimize_quad_over_polytope", counting)
        report = compare_report(inst, SolveOptions(max_iterations=300))
        # the oracle's enumeration alone is INCONCLUSIVE here; the
        # copositivity check's simplex minimum certifies it
        assert report.oracle.status == "OPTIMAL" and report.oracle.certified
        assert report.oracle.value == pytest.approx(27.0)
        assert len(calls) == 1

    def test_exact_instance(self):
        inst = random_instance(CONVEX_ON_NULLSPACE, 3, 1, 2)
        report = compare_report(inst)
        assert failed_checks(report) == []
        by_name = {c.name: c for c in report.checks}
        assert by_name["curvature condition makes relaxations exact"].passed

    def test_ill_conditioned_row_keeps_its_face(self):
        # the second row is ~1e-6 the size of the first: a face built from
        # their Gram matrix squares that ratio below the rank cut and loses
        # the row, giving PSD0 a false UNBOUNDED and DNN -1.21
        inst = make_qp(np.diag([1.0, -1.0, -1.0]), [0, 0, 0],
                       [[1, 1, 1], [0, 1e-6, -1e-6]], [1.1, 0])
        report = compare_report(inst)
        assert failed_checks(report) == []
        assert report.oracle.value == pytest.approx(-0.605, rel=1e-12)
        for cone in (DNN, PSD0):
            res = report.relaxations[cone]
            assert res.status == "OPTIMAL", cone
            assert abs(res.value + 0.605) <= COMPARISON_TOLERANCE * 0.605, cone

    # each budget is below the interior-point iterations the instance needs
    # (6 for horn's search, 11 and 8 for the solves; the ray's search stops
    # at its first iterate, which a budget of 1 leaves unchecked, on a face
    # of order 3: one of order 1 or 2 is solved exactly, whatever the budget)
    @pytest.mark.parametrize(
        "inst, max_iterations, names",
        [
            # the interior start finds horn5's certificate in 2 iterations
            (horn_instance()[0], 1,
             (LOWER_BOUND, "weaker cone gives a weaker bound", BORDER_TRIVIAL)),
            (random_instance(CONVEX_ON_NULLSPACE, 3, 1, 2), 4,
             (LOWER_BOUND, "curvature condition makes relaxations exact")),
            (random_instance(BOUNDED, 3, 1, 4), 4,
             (LOWER_BOUND, "bounded feasible set keeps the bound finite", BORDER_TRIVIAL)),
            # x1 = x2 >= 0, x3, x4 >= 0 with objective -x1^2: a negative-curvature ray
            (make_qp(np.diag([-1.0, 0.0, 0.0, 0.0]), [0, 0, 0, 0], [[1, -1, 0, 0]], [0]), 1,
             (BORDER_TRIVIAL, "negative recession curvature collapses the bound")),
        ],
        ids=["horn", "exact", "bounded", "negative-ray"],
    )
    def test_max_iter_values_are_not_bounds(self, inst, max_iterations, names, monkeypatch):
        opts = SolveOptions(max_iterations=max_iterations)
        if check_psd_on_nullspace(inst).holds:
            # the closed-form convex solve needs no budget at all, so the
            # interior-point fallback alone reaches MAX_ITER here
            closed = solve_relaxation(inst, DNN, opts)
            assert closed.status == OPTIMAL and closed.iterations == 0
            monkeypatch.setattr(conic, "_convex_qp", lambda *args: None)
            # the record keeps the closed form it found above
            conic._prepared.cache_clear()
        report = compare_report(inst, opts)
        assert report.relaxations[DNN].status == MAX_ITER
        border_report = report  # the report that grades BORDER_TRIVIAL
        psd0 = report.relaxations[PSD0]
        if report.nullspace.holds:
            assert psd0.status == MAX_ITER
        else:
            # curvature failure is decided exactly, whatever the budget
            assert psd0.status == UNBOUNDED
            check = verify_certificate(inst, psd0.certificate)
            assert check.ok and check.objective_rate < 0
            # so the border check meets a MAX_ITER entry only where no
            # certificate verifies: grade one directly
            unsettled = CertificateSearch(NONE, None, 0, 0.0, curvature=-math.inf)
            monkeypatch.setattr(conic._Prepared, "prepass", lambda *args: unsettled)
            unproved = solve_relaxation(inst, PSD0, opts)
            assert unproved.status == MAX_ITER and unproved.iterations == 0
            border_report = replace(report, checks=[],
                                    relaxations={**report.relaxations, PSD0: unproved})
            _grade(inst, border_report)
        for name in names:
            graded = border_report if name == BORDER_TRIVIAL else report
            by_name = {c.name: c for c in graded.checks}
            check = by_name[name]
            assert not check.applicable and check.passed is None, name
            assert check.detail == "MAX_ITER relaxation is inconclusive"

    def test_negative_ray_collapses_both_relaxations(self):
        # x1 = x2 >= 0 with objective -x1^2
        report = compare_report(make_qp(np.diag([-1.0, 0.0]), [0, 0], [[1, -1]], [0]))
        assert report.relaxations[DNN].status == UNBOUNDED
        assert report.relaxations[PSD0].status == UNBOUNDED
        check = {c.name: c for c in report.checks}[NEGATIVE_RAY]
        assert check.applicable and check.passed
        assert failed_checks(report) == []
        assert [c.name for c in report.checks] == CHECK_NAMES

    def test_copositivity_decided_at_oracle_tolerance(self):
        # the simplex minimum -1e-7 is below -1e-9 * max(1, |Q|_max): Q is not
        # copositive, so the oracle's -inf does not contradict the check
        report = compare_report(make_qp(np.diag([-1e-7, 0.0]), [0, 0], [[1, -1]], [0]))
        assert report.copositivity.min_value == pytest.approx(-1e-7)
        assert report.oracle.value == -np.inf
        check = {c.name: c for c in report.checks}[COPOSITIVE]
        assert not check.applicable and check.passed is None
        assert check.detail == "objective not certified nonnegative"

    def test_tiny_negative_curvature_is_not_a_zero_bound(self):
        # x1 = x2 >= 0 with objective -1e-7 x1^2: u u^T with u = (0, 1, 1)/sqrt(2)
        # is a DNN certificate of rate -5e-8, above TOL_CERTIFICATE, so the
        # search reads NONE; the relaxation is still unbounded, and a DNN
        # OPTIMAL near 0 would fail the negative-ray check
        inst = make_qp(np.diag([-1e-7, 0.0]), [0, 0], [[1, -1]], [0])
        report = compare_report(inst)
        assert failed_checks(report) == []
        assert report.relaxations[DNN].status != OPTIMAL
        assert report.relaxations[PSD0].status == UNBOUNDED

    def test_desk_scale_notes(self, monkeypatch, tmp_path, capsys):
        # at 2^2 neither the 6 column subsets of size 2 nor the 16 faces fit
        inst = random_instance(BOUNDED, 4, 2, 0)
        monkeypatch.setenv("QPRELAX_ENUM_CAP", "2")
        report = compare_report(inst)
        subsets = "6 column subsets exceed the enumeration cap 2^2 (QPRELAX_ENUM_CAP)"
        faces = "16 face patterns exceed the enumeration cap 2^2 (QPRELAX_ENUM_CAP)"
        assert report.notes == [
            f"feasibility enumeration skipped: {subsets}",
            f"copositivity check skipped: {faces}",
            f"oracle and recession analysis skipped: {faces}",
            f"relaxation DNN skipped: {subsets}",
            f"relaxation PSD0 skipped: {subsets}",
        ]
        assert report.vertices is None and report.relaxations == {}
        assert report.checks and not any(check.applicable for check in report.checks)
        assert json.loads(json.dumps(report.to_dict()))["notes"] == report.notes
        assert "feasibility: skipped (desk-scale cap)" in report.to_text()
        path = tmp_path / "bounded.json"
        save_instance(inst, path)
        assert main(["compare", str(path)]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_horn_family_past_the_face_cap(self):
        # n = 17: 2^17 faces are past the cap, the 17 column subsets are not
        report = compare_report(horn_family(HornFamilyParams(n=17, seed=0)))
        assert report.vertices is not None and report.vertices > 0
        assert sorted(report.relaxations) == [DNN, PSD0]
        assert all(res.status == UNBOUNDED for res in report.relaxations.values())
        faces = "131072 face patterns exceed the enumeration cap 2^16 (QPRELAX_ENUM_CAP)"
        assert report.notes == [
            f"copositivity check skipped: {faces}",
            f"oracle and recession analysis skipped: {faces}",
        ]
        assert failed_checks(report) == []
        assert any(check.passed for check in report.checks)

    def test_infeasible_instance(self):
        inst = random_instance(INFEASIBLE, 3, 2, 0)
        report = compare_report(inst)
        assert failed_checks(report) == []
        assert report.vertices == 0
        assert report.relaxations[DNN].status == "INFEASIBLE"
        assert report.relaxations[PSD0].status == "INFEASIBLE"

    def test_json_round_trip(self):
        inst = random_instance(BOUNDED, 3, 1, 4)
        report = compare_report(inst)
        payload = report.to_dict()
        text = json.dumps(payload)
        back = json.loads(text)
        assert back["instance_name"] == inst.name
        assert "checks" in back and len(back["checks"]) == len(report.checks)
        assert back["checks"][0]["tolerance"] == COMPARISON_TOLERANCE

    def test_text_mentions_tolerances(self):
        inst = random_instance(BOUNDED, 3, 1, 4)
        text = compare_report(inst).to_text()
        assert "tol" in text
        assert "cross-checks" in text

    def test_text_records_the_applied_curvature_tolerance(self):
        inst = horn_family(HornFamilyParams(n=8, seed=2))
        tol = curvature_tolerance(inst.Q)
        assert tol > 1e-8
        text = compare_report(inst).to_text()
        # the recession cone's line and the null-space line
        assert text.count(f"tol {tol:g})") == 2

    def test_enumerates_the_vertices_once(self, monkeypatch):
        # global_solve reads the vertices compare_report enumerated, so the
        # instance's own system is enumerated once per op, also when the
        # recession cone is nontrivial and the ray test starts from them
        basic = oracle.basic_feasible_points
        calls, nontrivial = [], []

        def counted(A, b):
            if A.shape == inst.A.shape and np.array_equal(A, inst.A) and np.array_equal(b, inst.b):
                calls.append(inst.name)
            return basic(A, b)

        monkeypatch.setattr(oracle, "basic_feasible_points", counted)
        for inst in make_corpus():
            report = compare_report(inst)
            assert failed_checks(report) == [], inst.name
            assert calls.count(inst.name) == 1, inst.name
            if report.oracle.recession.l_nontrivial:
                nontrivial.append(inst.name)
        assert len(nontrivial) == 13

    def test_builds_the_face_once(self, monkeypatch):
        # on each instance of the make_corpus.py corpus, the curvature check
        # and both cones' pre-passes share one basis of null(A) and one
        # eigendecomposition of N^T Q N; the convex solve's faces are its own
        corpus = make_corpus()
        svd, eigh, convex_qp = numerics._svd, conic._eigh, conic._convex_qp
        inside, bases, eigensolves = [], [], []

        def counted_svd(a, *args, **kwargs):
            if not inside and a.shape == inst.A.shape and (
                    np.array_equal(a, inst.A) or np.array_equal(a, -inst.A)):
                bases.append(inst.name)
            return svd(a, *args, **kwargs)

        def counted_eigh(a, *args, **kwargs):
            if not inside:
                eigensolves.append(inst.name)
            return eigh(a, *args, **kwargs)

        def counted_convex_qp(*args):
            inside.append(True)
            try:
                return convex_qp(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(numerics, "_svd", counted_svd)
        monkeypatch.setattr(conic, "_eigh", counted_eigh)
        monkeypatch.setattr(conic, "_convex_qp", counted_convex_qp)
        assert len(corpus) == 22
        for inst in corpus:
            conic._prepared.cache_clear()
            report = compare_report(inst)
            assert failed_checks(report) == [], inst.name
            assert bases.count(inst.name) == eigensolves.count(inst.name) == 1, inst.name

    def test_one_feasibility_decision_and_one_basis(self, monkeypatch):
        # both cones' solves read the record's x0, N and convex closed form,
        # and so does the unpinned interior-point solve; x0 is the first
        # point of the report's own vertex enumeration, so no emptiness test
        # runs on the instance's system; the convex solve's faces are its own
        feasible_point, basis, convex_qp = (conic._feasible_point, conic.nullspace_basis,
                                            conic._convex_qp)
        corpus, inside, points, bases, closed = make_corpus(), [], [], [], []

        def counted_point(A, b):
            if A is inst.A and b is inst.b:
                points.append(inst.name)
            return feasible_point(A, b)

        def counted_basis(a):
            if not inside:
                bases.append(inst.name)
            return basis(a)

        def counted_convex_qp(*args):
            closed.append(inst.name)
            inside.append(True)
            try:
                return convex_qp(*args)
            finally:
                inside.pop()

        for module in (conic, oracle):
            monkeypatch.setattr(module, "_feasible_point", counted_point)
        monkeypatch.setattr(conic, "nullspace_basis", counted_basis)
        monkeypatch.setattr(conic, "_convex_qp", counted_convex_qp)
        unpinned = []
        for inst in corpus:
            conic._prepared.cache_clear()
            report = compare_report(inst)
            dnn = report.relaxations[DNN]
            if dnn.status == OPTIMAL and dnn.iterations > 0:
                unpinned.append(inst.name)
            assert points.count(inst.name) == 0 and bases.count(inst.name) == 1, inst.name
            reaches = report.nullspace.holds and dnn.status != conic.INFEASIBLE
            assert closed.count(inst.name) == reaches, inst.name
        assert unpinned == ["bounded-n4-m2-s1", "bounded-n4-m2-s2"]
        assert len(closed) == 7

    def test_enumerates_each_system_once(self, monkeypatch):
        # the relaxations take x0 from the report's vertex list and the DNN
        # search's direction from the oracle's recession rays, so one op
        # enumerates the instance's system once and its recession slice
        # {A d = 0, e^T d = 1, d >= 0} at most once
        iterate, calls = oracle._basic_feasible_iter, []

        def key(A, b):
            A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
            return A.shape, A.tobytes(), b.tobytes()

        def counted(A, b, stack):
            calls.append(key(A, b))
            return iterate(A, b, stack)

        monkeypatch.setattr(oracle, "_basic_feasible_iter", counted)
        sliced = 0
        for inst in make_corpus():
            calls.clear()
            report = compare_report(inst)
            assert failed_checks(report) == [], inst.name
            assert calls.count(key(inst.A, inst.b)) == 1, inst.name
            cut = oracle._recession_slice(inst.A)
            if cut is not None:
                assert calls.count(key(*cut)) == 1, inst.name
                sliced += 1
        assert sliced == 14

    @pytest.mark.parametrize("refuse_vertices", [False, True],
                             ids=["oracle", "oracle-and-vertices"])
    def test_skipped_steps_keep_the_relaxations(self, refuse_vertices, monkeypatch):
        # a cap of n - 1 refuses the oracle's 2^n faces and the copositivity
        # check, but neither system's C(n, k) <= 2^(n-1) column subsets: the
        # record enumerates the search's rays itself (basic_feasible_points).
        # A cap that refused the report's vertex enumeration would refuse the
        # relaxation's own emptiness test of the same system too, so that
        # enumeration is refused by hand, and the record finds x0 itself.
        # Either way both relaxations are the same, bit for bit.
        def refused(inst):
            raise DeskScaleLimit("refused")

        skipped = ["copositivity check", "oracle and recession analysis"]
        if refuse_vertices:
            skipped.insert(0, "feasibility enumeration")
        found, feasible_point = [], conic._feasible_point
        enumerated, basic = [], conic.basic_feasible_points

        def counted(A, b):
            found.append(A.shape)
            return feasible_point(A, b)

        def counted_rays(A, b):
            enumerated.append(A.shape)
            return basic(A, b)

        for inst in make_corpus():
            expected = compare_report(inst).to_dict()["relaxations"]
            fresh = replace(inst)  # a new record
            with monkeypatch.context() as patch:
                patch.setenv("QPRELAX_ENUM_CAP", str(inst.n - 1))
                patch.setattr(conic, "_feasible_point", counted)
                patch.setattr(conic, "basic_feasible_points", counted_rays)
                if refuse_vertices:
                    patch.setattr(report_module, "enumerate_vertices", refused)
                report = compare_report(fresh)
            assert [note.split(" skipped:")[0] for note in report.notes] == skipped, inst.name
            assert json.dumps(report.to_dict()["relaxations"], sort_keys=True) == json.dumps(
                expected, sort_keys=True), inst.name
        # the rays of the ten DNN searches past the curvature screen, and x0
        # on every instance
        assert len(enumerated) == 10 and len(found) == 22 * refuse_vertices

    def test_permuted_variables_keep_the_answers(self):
        # (P^T Q P, P^T c, A P, b) is the same problem, but its first vertex,
        # which the record takes as x0, moves with the column order
        rng = np.random.default_rng(3)
        corpus = [inst for inst in make_corpus() if inst.n <= 5]
        assert len(corpus) == 13

        def close(u, v):
            return u == v or abs(u - v) <= COMPARISON_TOLERANCE * (1.0 + abs(v))

        moved = 0
        for inst in corpus:
            p = rng.permutation(inst.n)
            perm = QpInstance(n=inst.n, m=inst.m, Q=inst.Q[np.ix_(p, p)], c=inst.c[p],
                              A=inst.A[:, p], b=inst.b, name=inst.name)
            ref, out = compare_report(inst), compare_report(perm)
            assert failed_checks(out) == [], inst.name
            assert out.vertices == ref.vertices and out.oracle.status == ref.oracle.status
            assert close(out.oracle.value, ref.oracle.value), inst.name
            for cone in (DNN, PSD0):
                res, base = out.relaxations[cone], ref.relaxations[cone]
                assert res.status == base.status and close(res.value, base.value), (inst.name, cone)
                if res.certificate is not None:
                    check = verify_certificate(perm, res.certificate)
                    assert check.ok and check.objective_rate < 0, (inst.name, cone)
                elif res.status == UNBOUNDED:
                    assert oracle.verify_ray_certificate(perm, res.ray).ok, (inst.name, cone)
            if ref.vertices:
                x0, y0 = conic._prepared(perm).x0, conic._prepared(inst).x0
                moved += not np.array_equal(x0, y0[p])
        assert moved > 0

    def test_deterministic(self):
        inst = random_instance(BOUNDED, 3, 1, 6)
        a = compare_report(inst).to_text()
        b = compare_report(inst).to_text()
        assert a == b
