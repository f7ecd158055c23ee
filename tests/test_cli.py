import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import reference_verify
from tmp3 import make_case, measure
from tmp3.bases import basis_Bk
from tmp3.cli import dump_problem, run
from tmp3.measure import Atom, AtomicMeasure, generate

# helper: run CLI in-process, capturing stdout


def _run(capsys, *args):
    code = run(list(args))
    out = capsys.readouterr().out
    return code, out


def _write_problem(tmp_path, cid="P4", params=None, k=2, seed=5, atoms=6):
    case = make_case(cid, params or {})
    L, mu = generate(case, k, n_atoms=atoms, seed=seed)
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(dump_problem(L, mu)))
    return path, L, mu


class TestSolve:
    def test_roundtrip_exit0(self, tmp_path, capsys):
        path, L, mu = _write_problem(tmp_path)
        code, out = _run(capsys, "solve", "--input", str(path), "--extract")
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "MomentFunctional"
        assert rep["residual"] < 1e-6
        assert rep["measure"] is not None

    def test_cold_solve_leaves_numpy_ma_unimported(self, tmp_path):
        """``solve --extract`` on a P3 problem, which builds a division matrix,
        in a fresh interpreter: numpy.ma (imported by the first np.unique of a
        process) stays out of sys.modules."""
        path, _, _ = _write_problem(tmp_path, "P3", atoms=4)
        script = ("import sys; from tmp3 import cli, poly; "
                  "code = cli.run(['solve', '--input', sys.argv[1], '--extract']); "
                  "print(code, poly._division_matrix.cache_info().currsize > 0, "
                  "'numpy.ma' in sys.modules, file=sys.stderr)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        err = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True,
                             env=env, check=True).stderr
        assert err.split() == [b"0", b"True", b"False"]

    @pytest.mark.parametrize("cid,k,atoms", [("P3", 2, 2), ("P4", 2, 2), ("P4", 2, 7)])
    def test_extract_adds_no_verify(self, tmp_path, capsys, monkeypatch, cid, k, atoms):
        """The residual of ``solve --extract`` is the one the fit of its
        measure kept: every verify runs inside a fit, one per fitted
        endpoint, and the residual equals the loop's value on the report."""
        path, L, _ = _write_problem(tmp_path, cid=cid, k=k, seed=0, atoms=atoms)
        fits, verifies, inside = [], [], [False]
        real_fit, real_verify = measure._fit, measure.verify

        def counting_fit(work, v):
            fits.append(v)
            inside[0] = True
            try:
                return real_fit(work, v)
            finally:
                inside[0] = False

        def counting_verify(*args):
            verifies.append(inside[0])
            return real_verify(*args)

        monkeypatch.setattr(measure, "_fit", counting_fit)
        monkeypatch.setattr(measure, "verify", counting_verify)
        code, out = _run(capsys, "solve", "--input", str(path), "--extract")
        rep = json.loads(out)
        assert code == 0 and rep["measure"] is not None
        assert all(verifies) and 1 <= len(verifies) <= len(fits) == len(set(fits))
        got = AtomicMeasure(tuple(Atom(a["x"], a["y"], a["w"]) for a in rep["measure"]["atoms"]))
        assert rep["residual"] == reference_verify(got, L)

    def test_negative_exit1_with_witness(self, tmp_path, capsys):
        path, L, mu = _write_problem(tmp_path)
        data = json.loads(path.read_text())
        for rec in data["moments"]:
            if rec["i"] == 0 and rec["j"] == 0:
                rec["v"] = -5.0
        path.write_text(json.dumps(data))
        code, out = _run(capsys, "solve", "--input", str(path))
        assert code == 1
        rep = json.loads(out)
        assert rep["verdict"] == "NotMomentFunctional"
        assert rep["witness"] is not None

    def test_incomplete_moments_exit3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"case": "P4", "k": 2, "moments": [{"i": 0, "j": 0, "v": 1.0}]}))
        code, out = _run(capsys, "solve", "--input", str(path))
        assert code == 3
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("cmd", ["solve", "witness"])
    @pytest.mark.parametrize("k", [-2, 0, 1])
    def test_k_below_k_min_exit3(self, tmp_path, capsys, cmd, k):
        path = tmp_path / "small_k.json"
        path.write_text(json.dumps({"case": "P3", "k": k, "moments": []}))
        code, out = _run(capsys, cmd, "--input", str(path))
        assert code == 3
        assert json.loads(out)["error"] == f"P3 requires k >= 2, got {k}"

    @pytest.mark.parametrize("files", [
        {"input": 42},
        {"input": {"case": "P4", "k": 2, "moments": [{"i": 0, "j": 0, "v": "1"}]}},
        {"input": {"case": "P4", "params": [1], "k": 2, "moments": []}},
        {"input": {"case": "P4", "k": None, "moments": []}},
        {"poly": 42, "cert": {"form": "v1", "k": 2, "gram0": [[1.0]]}},
        {"poly": [], "cert": 42},
        {"poly": [], "cert": {"form": "v1", "k": 2, "gram0": [[1.0]]}},
    ])
    def test_malformed_input_exit3(self, tmp_path, capsys, files):
        args = ["certify", "--case", "P4"] if "cert" in files else ["solve"]
        for flag, content in files.items():
            f = tmp_path / f"{flag}.json"
            f.write_text(json.dumps(content))
            args += [f"--{flag}", str(f)]
        code, out = _run(capsys, *args)
        assert code == 3
        assert "error" in json.loads(out)

    def test_ideal_violation_exit3(self, tmp_path, capsys):
        path, L, mu = _write_problem(tmp_path)
        data = json.loads(path.read_text())
        for rec in data["moments"]:
            if rec["i"] == 0 and rec["j"] == 2:
                rec["v"] += 10.0
        path.write_text(json.dumps(data))
        code, out = _run(capsys, "solve", "--input", str(path))
        assert code == 3

    def test_report_deterministic(self, tmp_path, capsys):
        path, _, _ = _write_problem(tmp_path, cid="P12",
                                    params=dict(c2=0.5, c1=-1.0, c0=2.0))
        out1 = _run(capsys, "solve", "--input", str(path), "--extract")[1]
        out2 = _run(capsys, "solve", "--input", str(path), "--extract")[1]
        assert out1.encode() == out2.encode()

    def test_completion_value_flag(self, tmp_path, capsys):
        path, L, _ = _write_problem(tmp_path)
        from tmp3.linalg import completion_interval
        from tmp3.moment import lift_matrix

        ivl = completion_interval(lift_matrix(L)).pd
        v = ivl.midpoint()
        code, out = _run(capsys, "solve", "--input", str(path), "--extract",
                         "--completion", f"value={v}")
        assert code == 0 and json.loads(out)["residual"] < 1e-6

    def test_negative_moment_exponent_exit3(self, tmp_path, capsys):
        path, _, _ = _write_problem(tmp_path)
        data = json.loads(path.read_text())
        data["moments"].append({"i": -1, "j": 0, "v": 1.0})
        path.write_text(json.dumps(data))
        code, out = _run(capsys, "solve", "--input", str(path))
        assert code == 3
        assert "negative exponent" in json.loads(out)["error"]

    @pytest.mark.parametrize("record,message", [
        ('{"i": true, "j": 0, "v": 1.0}', "expected a number in JSON payload, got True"),
        ('{"i": "1", "j": 0, "v": 1.0}', "expected a number in JSON payload, got '1'"),
        ('{"i": null, "j": 0, "v": 1.0}', "expected a number in JSON payload, got None"),
        ('{"i": -1, "j": 0, "v": 1.0}', "negative exponent -1 in JSON payload"),
        ('{"i": 0, "j": 2.5, "v": 1.0}', "expected an integer in JSON payload, got 2.5"),
        ('{"i": 1e400, "j": 0, "v": 1.0}', "non-finite number in JSON payload"),
        ('{"i": 0, "j": 0, "v": NaN}', "non-finite number in JSON payload"),
        ('{"i": 0, "j": 0, "v": Infinity}', "non-finite number in JSON payload"),
        ('{"i": 0, "j": 0, "v": "1"}', "expected a number in JSON payload, got '1'"),
        ('{"i": 0, "j": 0, "v": true}', "expected a number in JSON payload, got True"),
        ('{"i": 0, "j": 0}', "'v'"),
        ('{"j": 0, "v": 1.0}', "'i'"),
        ('{"i": 0, "v": 1.0}', "'j'"),
        ('{"j": 0, "v": "x"}', "expected a number in JSON payload, got 'x'"),
        ('{"i": 0, "j": 0, "v": "x"}, 42', "each entry of moments must be a JSON object"),
    ])
    def test_malformed_moment_record_exit3(self, tmp_path, capsys, record, message):
        """A malformed record after well-formed ones: the value is read before
        the exponents, and every record must be an object before any is read."""
        path, _, _ = _write_problem(tmp_path)
        data = json.loads(path.read_text())
        moments = json.dumps(data["moments"])[:-1] + f", {record}]"
        data["moments"] = "MOMENTS"
        path.write_text(json.dumps(data).replace('"MOMENTS"', moments))
        code, out = _run(capsys, "solve", "--input", str(path))
        assert code == 3
        assert json.loads(out) == {"error": message}

    def test_checked_moment_records_read_like_fast_ones(self):
        """A record outside the fast test (int value, float exponents) goes
        through the checks and gives the value the fast reading would."""
        from tmp3.cli import _moments

        fast = [{"i": 0, "j": 0, "v": 1.0}, {"i": 1, "j": 2, "v": -0.5},
                {"i": 2**53 - 1, "j": 0, "v": 2.5e-300}]
        checked = [{"i": 0.0, "j": 0, "v": 1}, {"i": 1, "j": 2.0, "v": -0.5},
                   {"i": 2**53 - 1, "j": 0.0, "v": 2.5e-300}]
        want = _moments(fast)
        assert want == {(0, 0): 1.0, (1, 2): -0.5, (2**53 - 1, 0): 2.5e-300}
        for records in (checked, [checked[0], *fast[1:]], [*fast[:2], checked[2]]):
            got = _moments(records)
            assert got == want
            assert all(type(v) is float for v in got.values())
            assert all(type(i) is int and type(j) is int for i, j in got)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_completion_value_exit3(self, tmp_path, capsys, value):
        path, _, _ = _write_problem(tmp_path)
        code, out = _run(capsys, "solve", "--input", str(path), "--extract",
                         "--completion", f"value={value}")
        assert code == 3
        assert "non-finite" in json.loads(out)["error"]

    def test_non_finite_completion_without_extract_exit3(self, tmp_path, capsys):
        path, _, _ = _write_problem(tmp_path)
        code, out = _run(capsys, "solve", "--input", str(path), "--completion", "value=nan")
        assert code == 3
        assert "non-finite" in json.loads(out)["error"]

    def test_unknown_completion_mode_exit3(self, tmp_path, capsys):
        path, _, _ = _write_problem(tmp_path)
        code, out = _run(capsys, "solve", "--input", str(path), "--completion", "bogus")
        assert code == 3
        assert "unknown completion mode" in json.loads(out)["error"]

    @pytest.mark.parametrize("argv", [["solve"], ["solve", "--input", "p.json", "--bogus"], []])
    def test_usage_error_exit3(self, capsys, argv):
        """A missing --input, an unknown flag and an empty command line are
        malformed input: exit 3, with argparse's usage message on stderr."""
        assert run(argv) == 3
        assert "usage:" in capsys.readouterr().err

    def test_help_exit0(self, capsys):
        assert run(["solve", "--help"]) == 0
        assert "--completion" in capsys.readouterr().out

    def test_no_flag_carries_over_between_runs(self, tmp_path, capsys):
        """The process keeps one parser; a second run without --extract and
        --out reports no measure, on stdout."""
        path, _, _ = _write_problem(tmp_path)
        first = tmp_path / "first.json"
        code, out = _run(capsys, "solve", "--input", str(path), "--extract", "--out", str(first))
        assert code == 0 and out == ""
        assert json.loads(first.read_text())["measure"] is not None
        code, out = _run(capsys, "solve", "--input", str(path))
        assert code == 0
        assert json.loads(out)["measure"] is None and "residual" not in json.loads(out)

    def test_env_tolerance_override(self, tmp_path, capsys, monkeypatch):
        path, _, _ = _write_problem(tmp_path)
        monkeypatch.setenv("TMP3_TOL_PSD", "1e-6")
        code, out = _run(capsys, "solve", "--input", str(path))
        assert json.loads(out)["tolerances"]["psd"] == 1e-6


class TestOtherCommands:
    def test_alpha_anchor(self, capsys):
        code, out = _run(capsys, "alpha", "--case", "P10",
                         "--params", "a=100,c=-5,d=-1,e=3")
        assert code == 0
        d = json.loads(out)
        assert d["cubic_coeffs_ascending"] == [62494.0, -10014.0, 2.0, 1.0]
        assert abs(d["alpha"] + 104.033) < 1e-2

    def test_generate_then_solve(self, tmp_path, capsys):
        f = tmp_path / "gen.json"
        code, _ = _run(capsys, "generate", "--case", "P6", "--params",
                       "a=1,d=-1,e=2", "--atoms", "6", "--k", "2",
                       "--seed", "3", "--out", str(f))
        assert code == 0
        data = json.loads(f.read_text())
        assert data["case"] == "P6" and "measure" in data
        code, out = _run(capsys, "solve", "--input", str(f), "--extract")
        assert code == 0

    def test_witness_command(self, tmp_path, capsys):
        path, _, _ = _write_problem(tmp_path)
        data = json.loads(path.read_text())
        for rec in data["moments"]:
            if rec["i"] == 0 and rec["j"] == 0:
                rec["v"] = -5.0
        path.write_text(json.dumps(data))
        out_file = tmp_path / "w.json"
        code, out = _run(capsys, "witness", "--input", str(path),
                         "--out", str(out_file))
        assert code == 0
        w = json.loads(out_file.read_text())
        assert w["value"] < 0
        assert w["sampled_min"] >= -1e-8

    def test_info(self, capsys):
        code, out = _run(capsys, "info", "--case", "P6",
                         "--params", "a=1,d=1,e=3", "--k", "2")
        assert code == 0
        d = json.loads(out)
        assert d["basis_Bk"] == ["x^2", "x", "xy", "1", "y", "y^2"]
        assert d["excluded_t"] == [[1.0, -1.0]]

    def test_certify_command(self, tmp_path, capsys):
        case = make_case("P4")
        b = basis_Bk(case, 2)
        vec = np.zeros(len(b))
        vec[0] = 2.0
        vec[b.labels().index("[t^2-t^0]")] = 1.0
        cert = {"form": "v1", "k": 2, "gram0": np.outer(vec, vec).tolist(),
                "gram1": None}
        cf = tmp_path / "cert.json"
        cf.write_text(json.dumps(cert))
        pf = tmp_path / "poly.json"
        pf.write_text(json.dumps([
            {"i": 0, "j": 0, "v": 1.0}, {"i": 1, "j": 0, "v": 2.0},
            {"i": 2, "j": 0, "v": 1.0}]))
        code, out = _run(capsys, "certify", "--poly", str(pf), "--cert", str(cf),
                         "--case", "P4")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_certify_negative_exponent_exit3(self, tmp_path, capsys):
        cf = tmp_path / "cert.json"
        cf.write_text(json.dumps({"form": "v1", "k": 2, "gram0": np.eye(6).tolist()}))
        pf = tmp_path / "poly.json"
        pf.write_text(json.dumps([{"i": -1, "j": 0, "v": 1.0}]))
        code, out = _run(capsys, "certify", "--poly", str(pf), "--cert", str(cf),
                         "--case", "P4")
        assert code == 3
        assert "negative exponent" in json.loads(out)["error"]

    def test_generate_negative_atoms_exit3(self, capsys):
        code, out = _run(capsys, "generate", "--case", "P4", "--atoms", "-3", "--k", "2")
        assert code == 3
        assert "--atoms" in json.loads(out)["error"]

    @pytest.mark.parametrize("case,params", [("P2", "c=nan"), ("P14", "a=inf")])
    def test_generate_non_finite_params_exit3(self, capsys, case, params):
        code, out = _run(capsys, "generate", "--case", case, "--params", params,
                         "--atoms", "6", "--k", "2")
        assert code == 3
        assert "finite" in json.loads(out)["error"]

    @pytest.mark.parametrize("case,params", [("P2", "c=1e200"), ("P14", "a=1e300")])
    def test_generate_huge_params_exit3(self, capsys, case, params):
        """Finite parameters whose powers overflow are malformed input, not a crash."""
        code, out = _run(capsys, "generate", "--case", case, "--params", params,
                         "--atoms", "6", "--k", "2")
        assert code == 3
        assert "error" in json.loads(out)

    def test_unknown_case_exit3(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"case": "P99", "k": 1, "moments": []}))
        code, out = _run(capsys, "solve", "--input", str(path))
        assert code == 3
