import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qprelax import conic
from qprelax.cli import main
from qprelax.core import load_instance, save_instance
from qprelax.generators import horn_instance

from conftest import ROUNDED_RAY


@pytest.fixture
def horn_file(tmp_path):
    rc = main(["generate", "horn", "--out", str(tmp_path)])
    assert rc == 0
    return tmp_path / "horn5.json"


ROOT = Path(__file__).resolve().parents[1]


def source_env():
    """The environment of a subprocess that imports this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       env.get("PYTHONPATH")]))
    return env


def run_script(name, *args):
    """Run ``scripts/<name>`` in a subprocess against this source tree."""
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          check=True, env=source_env(), capture_output=True, text=True)


def strict_loads(text):
    """``json.loads`` that refuses the ``NaN`` and ``Infinity`` literals."""
    def refuse(literal):
        raise ValueError(f"non-standard JSON literal {literal}")

    return json.loads(text, parse_constant=refuse)


def write_vector(path, x):
    path.write_text(json.dumps({"x": list(x)}))
    return str(path)


class TestGenerate:
    def test_horn_files(self, horn_file, tmp_path):
        inst = load_instance(horn_file)
        ref, dtilde = horn_instance()
        assert np.array_equal(inst.Q, ref.Q)
        meta = json.loads((tmp_path / "horn5.meta.json").read_text())
        assert np.array_equal(np.array(meta["certificate"]), dtilde)
        assert meta["certificate_objective"] == -5

    def test_family_and_random(self, tmp_path, capsys):
        assert main(["generate", "horn-family", "--n", "6", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        assert main(["generate", "random", "--kind", "BOUNDED", "--n", "3",
                     "--m", "1", "--seed", "2", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        files = {p.name for p in tmp_path.glob("*.json")}
        assert "horn-family-n6-s1.json" in files
        assert "bounded-n3-m1-s2.json" in files
        assert "bounded-n3-m1-s2.meta.json" in files


    def test_make_corpus_writes_what_generate_writes(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        run_script("make_corpus.py", "--out", str(corpus))
        metas = sorted(corpus.glob("*.meta.json"))
        assert len(metas) == 22
        assert len(list(corpus.glob("*.json"))) == 44
        for meta_path in metas:
            meta = json.loads(meta_path.read_text())
            if meta["kind"] == "HORN":
                args = ["horn"]
            elif meta["kind"] == "HORN_FAMILY":
                args = ["horn-family", "--n", str(meta["n"]), "--seed", str(meta["seed"])]
            else:
                args = ["random", "--kind", meta["kind"], "--n", str(meta["n"]),
                        "--m", str(meta["m"]), "--seed", str(meta["seed"])]
            ref = tmp_path / "ref"
            assert main(["generate", *args, "--out", str(ref)]) == 0
            ref_meta = ref / meta_path.name
            assert json.loads(ref_meta.read_text()).keys() == meta.keys()
            assert ref_meta.read_text() == meta_path.read_text()
            name = meta_path.name.replace(".meta.json", ".json")
            assert (ref / name).read_text() == (corpus / name).read_text()
        capsys.readouterr()


class TestCommands:
    def test_analyze(self, horn_file, capsys):
        assert main(["analyze", str(horn_file)]) == 0
        out = capsys.readouterr().out
        assert "feasible: True" in out
        assert "recession cone: nontrivial" in out
        assert "ray: none found" in out

    def test_analyze_json(self, horn_file, capsys):
        assert main(["--json", "analyze", str(horn_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True
        assert payload["nullspace"]["holds"] is False

    def test_analyze_runs_one_recession_analysis(self, horn_file, monkeypatch, capsys):
        from qprelax import analysis, cli, oracle

        A = load_instance(horn_file).A
        calls = []
        original = oracle.recession_analysis

        def counting(Q, A_, *args, **kwargs):
            if np.array_equal(A_, A):
                calls.append(1)
            return original(Q, A_, *args, **kwargs)

        enumerations = []
        enumerate_vertices = oracle.enumerate_vertices

        def counting_vertices(inst, *args, **kwargs):
            enumerations.append(inst)
            return enumerate_vertices(inst, *args, **kwargs)

        monkeypatch.setattr(oracle, "recession_analysis", counting)
        monkeypatch.setattr(analysis, "recession_analysis", counting)
        monkeypatch.setattr(cli, "enumerate_vertices", counting_vertices)
        assert main(["--json", "analyze", str(horn_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ray"] is None and payload["ray_check"] is None
        assert len(calls) == 1
        assert len(enumerations) == 1

    def test_analyze_skips_only_the_over_cap_steps(self, tmp_path, capsys):
        # n = 20: the 20 column subsets fit the cap, the 2^20 faces do not
        assert main(["generate", "horn-family", "--n", "20", "--seed", "0",
                     "--out", str(tmp_path)]) == 0
        path = str(tmp_path / "horn-family-n20-s0.json")
        capsys.readouterr()
        assert main(["--json", "analyze", path]) == 0
        payload = strict_loads(capsys.readouterr().out)
        assert payload["feasible"] is True and len(payload["basic_feasible_points"]) == 9
        assert payload["nullspace"]["holds"] is False
        assert payload["recession"] is None and payload["copositivity"] is None
        assert payload["ray"] is None and payload["ray_check"] is None
        faces = "1048576 face patterns exceed the enumeration cap 2^16 (QPRELAX_ENUM_CAP)"
        assert payload["notes"] == [f"recession analysis skipped: {faces}",
                                    f"copositivity check skipped: {faces}"]
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "feasible: True (9 basic feasible points)" in out
        assert "recession cone: skipped (desk-scale cap)" in out
        assert "simplex minimum of x^T Q x: skipped (desk-scale cap)" in out
        assert "ray: skipped (desk-scale cap)" in out
        assert out[-2:] == [f"note: {note}" for note in payload["notes"]]

    def test_solve_unbounded(self, horn_file, capsys):
        assert main(["--json", "solve", "--cone", "dnn", str(horn_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "UNBOUNDED"
        assert payload["value"] == "-inf"
        assert payload["certificate"]["objective_rate"] <= -0.1

    def test_solve_json_carries_the_verdict(self, tmp_path, capsys):
        # an interior-point solve: the point's x and the validation's ok are
        # printed, not left for the reader to rebuild
        assert main(["generate", "random", "--kind", "BOUNDED", "--n", "4", "--m", "2",
                     "--seed", "2", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["--json", "solve", "--cone", "dnn",
                     str(tmp_path / "bounded-n4-m2-s2.json")]) == 0
        payload = strict_loads(capsys.readouterr().out)
        assert payload["status"] == "OPTIMAL" and 1 <= payload["iterations"] <= 50
        assert payload["validation"]["ok"] is True
        assert payload["point"]["x"] == payload["point"]["y"][0][1:]
        assert len(payload["point"]["x"]) == 4

    @pytest.mark.parametrize("command", ["solve", "oracle", "analyze"])
    def test_solve_json_is_the_report_entry(self, command, horn_file, capsys):
        # each section shared with compare has one layout: the result's fields
        args = ["solve", "--cone", "dnn"] if command == "solve" else [command]
        assert main(["--json", *args, str(horn_file)]) == 0
        printed = strict_loads(capsys.readouterr().out)
        assert main(["--json", "compare", str(horn_file)]) == 0
        reported = strict_loads(capsys.readouterr().out)
        if command == "solve":
            del printed["instance"], printed["cone"]
            pairs = [(printed, reported["relaxations"]["DNN"])]
        elif command == "oracle":
            del printed["instance"]
            pairs = [(printed, reported["oracle"])]
        else:
            pairs = [(printed["recession"], reported["oracle"]["recession"]),
                     (printed["nullspace"], reported["nullspace"]),
                     (printed["copositivity"], reported["copositivity"])]
        for section, entry in pairs:
            assert list(section.items()) == list(entry.items())

    @pytest.mark.parametrize("args", [
        "analyze", "solve --cone dnn", "solve --cone psd0", "solve --at x.json",
        "certificate --cone dnn --mode objective", "certificate --cone dnn --mode feasibility",
        "certificate --cone psd0 --mode objective", "certificate --cone psd0 --mode feasibility",
        "oracle", "localmin --at v.json", "envelope --from x.json --to v.json --samples 3",
        "compare",
    ])
    def test_json_is_standard(self, args, horn_file, tmp_path, monkeypatch, capsys):
        # no NaN or Infinity literal: non-finite numbers are printed as strings
        monkeypatch.chdir(tmp_path)
        write_vector(tmp_path / "x.json", [0, 1, 0, 0, 4])
        write_vector(tmp_path / "v.json", [0, 0, 0, 0, 4.5])
        assert main(["--json", *args.split(), str(horn_file)]) == 0
        assert strict_loads(capsys.readouterr().out)

    @pytest.mark.parametrize("cone", ["dnn", "psd0"])
    def test_solve_zero_curvature_ray(self, cone, tmp_path, capsys):
        # x1 = x2 >= 0 with objective -2 x1: unbounded along d = (1, 1)
        path = tmp_path / "ray.json"
        path.write_text(json.dumps({"name": "ray", "n": 2, "m": 1, "Q": [[0, 0], [0, 0]],
                                    "c": [-1, 0], "A": [[1, -1]], "b": [0]}))
        assert main(["--json", "solve", "--cone", cone, str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "UNBOUNDED" and payload["iterations"] == 0
        assert payload["certificate"] is None
        assert payload["ray_check"]["ok"] is True
        assert payload["ray"]["x0"] == [0.0, 0.0]
        assert payload["ray"]["d"] == pytest.approx([0.5, 0.5], abs=1e-15)
        assert main(["solve", "--cone", cone, str(path)]) == 0
        assert "independently verified: True" in capsys.readouterr().out

    def test_solve_at_point(self, horn_file, tmp_path, capsys):
        xfile = write_vector(tmp_path / "x.json", [0, 1, 0, 0, 4])
        assert main(["--json", "solve", "--cone", "dnn", "--at", xfile,
                     str(horn_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "UNBOUNDED"

    def test_certificate(self, horn_file, capsys):
        assert main(["--json", "certificate", "--cone", "dnn", "--mode", "objective",
                     str(horn_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "FOUND"
        assert payload["check"]["ok"] is True
        assert payload["certificate"]["objective_rate"] == payload["check"]["objective_rate"]

    def test_certificate_verified_once(self, horn_file, capsys, monkeypatch):
        calls = []
        original = conic.verify_certificate

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(conic, "verify_certificate", counted)
        assert main(["--json", "certificate", "--cone", "dnn", "--mode", "feasibility",
                     str(horn_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "FOUND"
        assert payload["check"]["ok"] is True
        assert len(calls) == 1

    def test_certificate_budget_is_inconclusive(self, horn_file, capsys):
        # the interior start finds horn5's certificate in 2 iterations
        assert main(["--json", "--max-iter", "1", "certificate", "--cone", "dnn",
                     "--mode", "objective", str(horn_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "INCONCLUSIVE"
        assert payload["iterations"] == 1
        assert payload["reason"] == "max_iter"
        assert payload["certificate"] is None and payload["check"] is None

    def test_json_records_the_search_start(self, horn_file, tmp_path, capsys):
        # the strictly feasible start on horn5, the identity start where the
        # recession rays vanish to rounding on a kept sign row
        rounded = tmp_path / "rounded.json"
        save_instance(ROUNDED_RAY, rounded)
        for path, start in ((horn_file, "interior"), (rounded, "identity")):
            assert main(["--json", "certificate", "--cone", "dnn", "--mode", "objective",
                         str(path)]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["status"] == "FOUND" and payload["start"] == start
        assert main(["--json", "compare", str(horn_file)]) == 0
        relaxations = json.loads(capsys.readouterr().out)["relaxations"]
        assert relaxations["DNN"]["status"] == "UNBOUNDED"
        assert relaxations["DNN"]["start"] == "interior"
        assert relaxations["PSD0"]["start"] is None

    def test_oracle(self, horn_file, capsys):
        assert main(["--json", "oracle", str(horn_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "OPTIMAL"
        assert payload["value"] == pytest.approx(27.0)

    def test_oracle_and_analyze_print_the_ray(self, tmp_path, capsys):
        # -I has negative curvature along d = (0.5, 0.5) from the vertex (1, 0)
        path = tmp_path / "concave.json"
        path.write_text(json.dumps({"name": "concave", "n": 2, "m": 1,
                                    "Q": [[-1.0, 0.0], [0.0, -1.0]], "c": [2.0, 2.0],
                                    "A": [[1.0, -1.0]], "b": [1.0]}))
        lines = ["ray: from [1.0, 0.0] along [0.5, 0.5]",
                 "ray slope 1.5, curvature -0.5, independently verified: True"]
        for command in ("oracle", "analyze"):
            assert main([command, str(path)]) == 0
            assert capsys.readouterr().out.splitlines()[-2:] == lines
        assert main(["--json", "oracle", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "UNBOUNDED_BELOW"
        assert payload["ray"]["x0"] == [1.0, 0.0] and payload["ray_check"]["ok"] is True

    def test_localmin(self, horn_file, tmp_path, capsys):
        xfile = write_vector(tmp_path / "v.json", [0, 0, 0, 0, 4.5])
        assert main(["--json", "localmin", "--at", xfile, str(horn_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "is_local_min" in payload

    def test_localmin_at_oracle_minimizer(self, horn_file, tmp_path, capsys):
        xfile = write_vector(tmp_path / "x.json", [0, 0, 0, 3, 6])
        assert main(["--json", "localmin", "--at", xfile, str(horn_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_local_min"] is True
        assert payload["kkt"]["y"] == pytest.approx([2.0])

    def test_envelope_csv(self, horn_file, tmp_path, capsys):
        a = write_vector(tmp_path / "a.json", [0, 9, 0, 0, 0])
        b = write_vector(tmp_path / "b.json", [0, 0, 0, 0, 4.5])
        assert main(["envelope", "--cone", "dnn", "--from", a, "--to", b,
                     "--samples", "3", str(horn_file)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "t,q,lK,status"
        assert len(lines) == 4
        assert all(line.endswith("UNBOUNDED") for line in lines[1:])

    def test_envelope_to_file(self, horn_file, tmp_path, capsys):
        a = write_vector(tmp_path / "a.json", [0, 9, 0, 0, 0])
        b = write_vector(tmp_path / "b.json", [0, 0, 0, 0, 4.5])
        out = tmp_path / "env.csv"
        assert main(["envelope", "--from", a, "--to", b, "--samples", "3",
                     "--out", str(out), str(horn_file)]) == 0
        capsys.readouterr()
        assert out.read_text().startswith("t,q,lK,status\n")

    def test_envelope_json(self, horn_file, tmp_path, capsys):
        a = write_vector(tmp_path / "a.json", [0, 9, 0, 0, 0])
        b = write_vector(tmp_path / "b.json", [0, 0, 0, 0, 4.5])
        assert main(["--json", "envelope", "--from", a, "--to", b, "--samples", "3",
                     str(horn_file)]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["t"] for row in rows] == [0.0, 0.5, 1.0]
        assert all(row["status"] == "UNBOUNDED" and row["lk"] == "-inf" for row in rows)

    def test_compare(self, horn_file, capsys):
        assert main(["compare", str(horn_file)]) == 0
        out = capsys.readouterr().out
        assert "cross-checks" in out
        assert "[FAIL]" not in out

    def test_compare_directory_jobs(self, tmp_path, capsys):
        main(["generate", "random", "--kind", "BOUNDED", "--n", "3", "--m", "1",
              "--seed", "0", "--out", str(tmp_path)])
        main(["generate", "random", "--kind", "INFEASIBLE", "--n", "3", "--m", "2",
              "--seed", "0", "--out", str(tmp_path)])
        capsys.readouterr()
        assert main(["--json", "compare", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2


    def test_compare_directory_text(self, tmp_path, capsys):
        main(["generate", "random", "--kind", "BOUNDED", "--n", "3", "--m", "1",
              "--seed", "0", "--out", str(tmp_path)])
        main(["generate", "random", "--kind", "INFEASIBLE", "--n", "3", "--m", "2",
              "--seed", "0", "--out", str(tmp_path)])
        capsys.readouterr()
        assert main(["compare", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("cross-checks") == 2
        assert "[FAIL]" not in out


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/instance.json"]) == 2

    def test_bad_instance(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad", "n": 2, "m": 1,
            "Q": [[0, 1], [0, 0]], "c": [0, 0], "A": [[1, 1]], "b": [1],
        }))
        assert main(["analyze", str(path)]) == 2

    @pytest.mark.parametrize("option", [["--tol", "-1"], ["--max-iter", "0"]],
                             ids=["tol", "max-iter"])
    def test_nonpositive_options(self, horn_file, capsys, option):
        assert main([*option, "solve", str(horn_file)]) == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_nonpositive_jobs(self, horn_file, capsys, jobs):
        # compare runs in one process: --jobs is no option at any value
        capsys.readouterr()
        for target in (horn_file, horn_file.parent):
            with pytest.raises(SystemExit) as exc:
                main(["compare", "--jobs", jobs, str(target)])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert "unrecognized arguments: --jobs" in captured.err and captured.out == ""

    def test_closed_pipe(self, horn_file):
        # the reader closes the pipe before the command writes: exit 1, no traceback
        proc = subprocess.Popen(
            [sys.executable, "-m", "qprelax.cli", "--json", "certificate", "--cone", "psd0",
             "--mode", "objective", str(horn_file)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=source_env())
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 1
        assert "BrokenPipeError" not in err

    def test_desk_scale_limit(self, horn_file, monkeypatch, capsys):
        monkeypatch.setenv("QPRELAX_ENUM_CAP", "3")
        assert main(["oracle", str(horn_file)]) == 3

    @pytest.mark.parametrize("raw", ["abc", "-1"])
    def test_malformed_cap(self, horn_file, monkeypatch, capsys, raw):
        monkeypatch.setenv("QPRELAX_ENUM_CAP", raw)
        assert main(["oracle", str(horn_file)]) == 2
        assert "QPRELAX_ENUM_CAP must be a nonnegative integer" in capsys.readouterr().err


class TestScripts:
    def test_horn_demo(self):
        out = run_script("horn_demo.py").stdout
        assert "exact optimum: 27" in out
        assert "UNBOUNDED" in out
