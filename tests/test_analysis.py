import json
import math

import numpy as np
import pytest

from qprelax import analysis
from qprelax.analysis import (
    analyze_recession_cone,
    check_copositivity_desk_scale,
    check_psd_on_nullspace,
    envelope_csv,
    sample_envelope,
)
from qprelax.cli import main
from qprelax.conic import (
    OPTIMAL,
    SolveOptions,
    UNBOUNDED,
    evaluate_underestimator,
    recession_certificate_search,
    solve_relaxation,
)
from qprelax.core import DNN, PSD0, feasibility_residual, is_feasible, jsonable, save_instance
from qprelax.errors import DeskScaleLimit, PointInfeasible
from qprelax.generators import (
    BOUNDED,
    CONVEX_ON_NULLSPACE,
    KINDS,
    UNBOUNDED_SAFE,
    HornFamilyParams,
    horn_family,
    horn_instance,
    random_instance,
)
from qprelax.oracle import ORACLE_UNBOUNDED, enumerate_vertices, global_solve

from conftest import make_qp


RAY_Q = [[0, -1e-6, 0], [-1e-6, 1, 0], [0, 0, 0]]


class TestPsdOnNullspace:
    def test_globally_psd(self):
        inst = make_qp(np.eye(2), [0, 0], [[1, 1]], [1])
        assert check_psd_on_nullspace(inst).holds

    def test_indefinite_on_nullspace(self):
        inst = make_qp(np.diag([1.0, -3.0]), [0, 0], [[1, 1]], [1])
        report = check_psd_on_nullspace(inst)
        assert not report.holds
        d = report.witness
        assert np.abs(inst.A @ d).max() <= 1e-9
        assert float(d @ inst.Q @ d) < 0
        # reduced curvature of the normalized direction (1,-1)/sqrt(2)
        assert report.min_eigenvalue == pytest.approx(-1.0)

    def test_trivial_nullspace(self):
        inst = make_qp(np.diag([-5.0, -5.0]), [0, 0], [[1, 0], [0, 1]], [1, 1])
        report = check_psd_on_nullspace(inst)
        assert report.holds
        assert math.isinf(report.min_eigenvalue)

    def test_reads_the_certificate_search_curvature(self):
        # one computation: over the make_corpus.py corpus the check and the
        # PSD0 search agree to the last bit
        corpus = [horn_instance()[0]]
        corpus += [horn_family(HornFamilyParams(n=n, seed=s)) for n in (6, 7, 8)
                   for s in range(3)]
        corpus += [random_instance(kind, 4, 2, s) for kind in KINDS for s in range(3)]
        for inst in corpus:
            expected = recession_certificate_search(inst, PSD0).curvature
            assert check_psd_on_nullspace(inst).min_eigenvalue == expected, inst.name


class TestRecessionCone:
    def test_one_report_type(self):
        import qprelax.analysis
        import qprelax.oracle

        assert qprelax.analysis.RecessionReport is qprelax.oracle.RecessionReport

    def test_simplex_trivial(self):
        inst = make_qp(np.eye(2), [0, 0], [[1, 1]], [1])
        report = analyze_recession_cone(inst)
        assert not report.l_nontrivial
        assert math.isinf(report.min_curvature)

    def test_horn_nonnegative_curvature(self, horn):
        inst, _ = horn
        report = analyze_recession_cone(inst)
        assert report.l_nontrivial
        assert report.min_curvature >= -1e-9
        assert report.neg_direction is None

    def test_negative_curvature_witness(self):
        inst = make_qp(-np.eye(2), [0, 0], [[1, -1]], [1])
        report = analyze_recession_cone(inst)
        assert report.min_curvature < 0
        d = report.neg_direction
        assert np.allclose(d / d.max(), [1.0, 1.0])
        assert float(d @ inst.Q @ d) < 0

    def test_witnesses_verify_from_raw_data(self):
        inst = make_qp([[0, -1], [-1, 0]], [0, 0], [[1, -1]], [1])
        report = analyze_recession_cone(inst)
        if report.neg_direction is not None:
            d = report.neg_direction
            assert np.abs(inst.A @ d).max() <= 1e-8
            assert d.min() >= -1e-9
            assert float(d @ inst.Q @ d) < 0


class TestDetectUnbounded:
    """The oracle's ray of unbounded descent and its raw-data check."""

    def test_case1(self):
        inst = make_qp(-np.eye(2), [0, 0], [[1, -1]], [1])
        res = global_solve(inst)
        assert res.status == ORACLE_UNBOUNDED
        d = res.ray.d
        assert float(d @ inst.Q @ d) < 0 and d.min() >= -1e-9
        assert res.ray_check.ok and res.ray_check.curvature < 0

    def test_case2(self):
        inst = make_qp(np.zeros((2, 2)), [-1, -1], [[1, -1]], [0])
        res = global_solve(inst)
        assert res.status == ORACLE_UNBOUNDED
        d, x = res.ray.d, res.ray.x0
        assert abs(float(d @ inst.Q @ d)) <= 1e-9
        assert float((inst.Q @ x + inst.c) @ d) < 0
        assert is_feasible(inst, x, tol=1e-7)
        assert res.ray_check.ok and res.ray_check.slope < 0

    def test_case2_along_ray(self):
        # d = e1 has zero curvature and d^T Q e2 = -1e-6 < 0; the curvature
        # minimum -1e-12 is inside the tolerance, so only the ray test sees it
        inst = make_qp(RAY_Q, [0, 0, 0], [[0, 0, 1]], [1])
        res = global_solve(inst)
        assert res.status == ORACLE_UNBOUNDED
        d, x = res.ray.d, res.ray.x0
        assert np.allclose(d, [1, 0, 0])
        assert float((inst.Q @ x + inst.c) @ d) < 0
        assert is_feasible(inst, x, tol=1e-7)
        assert res.ray_check.ok

    def test_bounded_not_detected(self, simplex_convex):
        res = global_solve(simplex_convex)
        assert res.status != ORACLE_UNBOUNDED
        assert res.ray is None and res.ray_check is None

    @pytest.mark.parametrize(
        "inst",
        [
            make_qp(-np.eye(2), [0, 0], [[1, -1]], [1]),
            make_qp(np.zeros((2, 2)), [-1, -1], [[1, -1]], [0]),
            make_qp(RAY_Q, [0, 0, 0], [[0, 0, 1]], [1]),
            make_qp(np.eye(2), [0, 0], [[1, 1]], [1]),
            horn_instance()[0],
        ] + [random_instance(UNBOUNDED_SAFE, 4, 2, s) for s in range(3)],
        ids=["case1", "case2", "case2-ray", "simplex-convex", "horn",
             "unbounded-safe-s0", "unbounded-safe-s1", "unbounded-safe-s2"],
    )
    def test_agrees_with_global_solve(self, inst, tmp_path, capsys):
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert main(["--json", "analyze", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        res = global_solve(inst)
        assert (payload["ray"] is None) == (res.status != ORACLE_UNBOUNDED)
        assert payload["ray"] == json.loads(json.dumps(jsonable(res.ray)))
        if res.ray is not None:
            assert payload["ray_check"]["ok"] is res.ray_check.ok is True


class TestCopositivity:
    def test_identity(self):
        check = check_copositivity_desk_scale(np.eye(3))
        assert check.min_value == pytest.approx(1.0 / 3.0)
        assert np.allclose(check.minimizer, [1 / 3] * 3)

    def test_horn_boundary(self, horn):
        inst, _ = horn
        check = check_copositivity_desk_scale(inst.Q)
        assert abs(check.min_value) <= 1e-9

    def test_not_copositive(self):
        check = check_copositivity_desk_scale(np.array([[1.0, -2.0], [-2.0, 1.0]]))
        assert check.min_value == pytest.approx(-0.5)
        assert np.allclose(check.minimizer, [0.5, 0.5])

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("QPRELAX_ENUM_CAP", "2")
        with pytest.raises(DeskScaleLimit):
            check_copositivity_desk_scale(np.eye(4))


class TestEnvelopeSampling:
    def test_convex_matches_objective(self, simplex_convex):
        rows = sample_envelope(
            simplex_convex, DNN, [1.0, 0.0], [0.0, 1.0], samples=5,
            opts=SolveOptions(tol_primal=1e-9, tol_dual=1e-9),
        )
        for row in rows:
            assert row.status == OPTIMAL
            assert row.lk == pytest.approx(row.q, abs=1e-6)

    def test_bilinear_edge_is_flat(self, simplex_bilinear):
        rows = sample_envelope(
            simplex_bilinear, DNN, [1.0, 0.0], [0.0, 1.0], samples=5,
            opts=SolveOptions(tol_primal=1e-9, tol_dual=1e-9),
        )
        for row in rows:
            t = row.t
            assert row.q == pytest.approx(2 * t * (1 - t), abs=1e-12)
            assert row.lk == pytest.approx(0.0, abs=1e-6)

    def test_horn_rows_unbounded(self, horn):
        inst, _ = horn
        rows = sample_envelope(
            inst, DNN, [0, 9, 0, 0, 0.0], [0, 0, 0, 0, 4.5], samples=3
        )
        assert all(row.status == UNBOUNDED for row in rows)
        assert all(row.lk == -math.inf for row in rows)

    def test_csv_format(self, simplex_convex):
        rows = sample_envelope(simplex_convex, DNN, [1.0, 0.0], [0.0, 1.0], samples=3)
        csv = envelope_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == "t,q,lK,status"
        assert len(lines) == 4
        cells = lines[1].split(",")
        assert len(cells) == 4
        float(cells[0]), float(cells[1]), float(cells[2])

    def test_infeasible_endpoint(self, simplex_convex):
        with pytest.raises(PointInfeasible):
            sample_envelope(simplex_convex, DNN, [1.0, 1.0], [0.0, 1.0], samples=3)


class TestAnchorRule:
    """A segment's ends pass the anchor rule of ``evaluate_underestimator``
    (``max(FEAS_TOL, 10 tol_primal)``), checked before any solve."""

    inst = random_instance(BOUNDED, 4, 2, 2)

    def segment(self, residual):
        """The first two vertices, each moved to the feasibility residual
        ``residual`` by a negative entry where it is zero."""
        A, bscale = self.inst.A, 1.0 + float(np.abs(self.inst.b).max())
        ends = []
        for v in enumerate_vertices(self.inst)[:2]:
            k = int(np.flatnonzero(v == 0.0)[0])
            v = v.copy()
            v[k] = -residual / max(1.0, float(np.abs(A[:, k]).max()) / bscale)
            assert feasibility_residual(self.inst, v) == pytest.approx(residual, rel=1e-12)
            ends.append(v)
        return ends

    @pytest.fixture
    def solves(self, monkeypatch):
        calls, evaluate = [], analysis.evaluate_underestimator

        def counted(inst, cone, x, opts=None):
            calls.append(x)
            return evaluate(inst, cone, x, opts)

        monkeypatch.setattr(analysis, "evaluate_underestimator", counted)
        return calls

    def test_tight_tolerance_refuses_the_start_before_any_solve(self, solves):
        opts = SolveOptions(tol_primal=1e-9, tol_dual=1e-9)
        start, end = self.segment(5e-8)
        for x in (start, end):
            with pytest.raises(PointInfeasible, match="anchor point"):
                evaluate_underestimator(self.inst, DNN, x, opts)
        with pytest.raises(PointInfeasible, match="start point of the segment"):
            sample_envelope(self.inst, DNN, start, end, samples=5, opts=opts)
        assert solves == []

    def test_default_tolerance_accepts_what_each_anchor_accepts(self, solves):
        start, end = self.segment(5e-7)
        for x in (start, end):
            evaluate_underestimator(self.inst, DNN, x)
        rows = sample_envelope(self.inst, DNN, start, end, samples=5)
        assert [row.t for row in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert len(solves) == 5 and all(math.isfinite(row.lk) for row in rows)


class TestDichotomy:
    def test_holds_implies_exact(self):
        opts = SolveOptions(tol_primal=1e-9, tol_dual=1e-9)
        for seed in range(3):
            inst = random_instance(CONVEX_ON_NULLSPACE, 3, 1, seed)
            assert check_psd_on_nullspace(inst).holds
            lstar = global_solve(inst).value
            for cone in (DNN, PSD0):
                res = solve_relaxation(inst, cone, opts)
                assert res.status == OPTIMAL
                assert res.value == pytest.approx(lstar, abs=1e-5 * (1 + abs(lstar)))

    def test_fails_implies_border_cone_unbounded(self):
        found = 0
        for seed in range(12):
            inst = random_instance(BOUNDED, 3, 1, seed)
            if check_psd_on_nullspace(inst).holds:
                continue
            found += 1
            res = solve_relaxation(inst, PSD0)
            assert res.status == UNBOUNDED
            if found >= 3:
                break
        assert found >= 3
