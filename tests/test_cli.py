import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def run_cli(*argv, timeout=240):
    return subprocess.run([sys.executable, "-m", "strip_solver", *argv],
                          capture_output=True, text=True, timeout=timeout)


class TestSubcommands:
    def test_modes_table(self, tmp_path):
        out = tmp_path / "modes.csv"
        res = run_cli("modes", "--config", str(CONFIGS / "modes.cfg"), "--out", str(out))
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# meta:")
        assert lines[1] == "n,gamma,b,h,omega,regime"
        assert lines[2].endswith("Critical")
        assert len(lines) == 8

    def test_green_grid(self, tmp_path):
        out = tmp_path / "green.csv"
        res = run_cli("green", "--config", str(CONFIGS / "green.cfg"), "--out", str(out))
        assert res.returncode == 0, res.stderr
        header = out.read_text().splitlines()[1]
        assert header == "x,t,g,g_t,flux"

    def test_solve_linear_value(self, tmp_path):
        out = tmp_path / "lin.csv"
        res = run_cli("solve-linear", "--config", str(CONFIGS / "linear_sin.cfg"),
                      "--epsilon", "1", "--a", "1", "--c", "1",
                      "--nx", "5", "--nt", "9", "--T", "2.0", "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = {}
        for line in out.read_text().splitlines()[2:]:
            x, t, u = (float(v) for v in line.split(","))
            rows[(round(x, 6), round(t, 6))] = u
        import math

        # x = pi/2 (index 2 of 5 nodes), t = 1.0 -> t e^{-t} sin x = e^{-1}
        val = rows[(round(math.pi / 2, 6), 1.0)]
        assert val == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_solve_nonlinear(self, tmp_path):
        out = tmp_path / "nl.csv"
        res = run_cli("solve-nonlinear", "--config", str(CONFIGS / "nonlinear_sg.cfg"),
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        meta = out.read_text().splitlines()[0]
        assert "converged=True" in meta

    def test_oracle(self, tmp_path):
        out = tmp_path / "ora.csv"
        res = run_cli("oracle", "--config", str(CONFIGS / "oracle.cfg"), "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert out.read_text().splitlines()[1] == "x,t,u"

    def test_verify_report(self, tmp_path):
        out = tmp_path / "verify.csv"
        res = run_cli("verify", "--config", str(CONFIGS / "verify.cfg"), "--out", str(out))
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[1] == "problem,nx,dt,sup_diff,order,status"
        assert all(line.endswith("pass") for line in lines[2:])

    def test_decay_fit_pipeline(self, tmp_path):
        lin = tmp_path / "lin.csv"
        res = run_cli("solve-linear", "--config", str(CONFIGS / "linear_sin.cfg"),
                      "--out", str(lin))
        assert res.returncode == 0, res.stderr
        out = tmp_path / "fit.csv"
        res = run_cli("decay-fit", "--config", str(CONFIGS / "decay.cfg"),
                      "--input", str(lin), "--out", str(out))
        assert res.returncode == 0, res.stderr
        header, row = out.read_text().splitlines()[1:3]
        assert header.startswith("rate,")
        rate = float(row.split(",")[0])
        # t e^{-t} mode: fitted rate slightly below 1 on a finite window
        assert 0.6 < rate < 1.0


class TestContract:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            res = run_cli("solve-linear", "--config", str(CONFIGS / "linear_sin.cfg"),
                          "--nx", "7", "--nt", "5", "--out", str(out))
            assert res.returncode == 0, res.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 3\n")
        res = run_cli("modes", "--config", str(cfg))
        assert res.returncode == 1
        assert "valid keys" in res.stderr

    def test_unknown_flag_is_usage_error(self):
        res = run_cli("modes", "--does-not-exist", "1")
        assert res.returncode == 1

    def test_numerical_failure_exit_code(self):
        res = run_cli("green", "--t-min", "0.5", "--t-max", "1.0", "--nt", "2",
                      "--nx", "3", "--tol", "1e-12")
        assert res.returncode == 2
        assert "numerical failure" in res.stderr

    def test_linalg_error_is_numerical_failure(self, monkeypatch, capsys):
        # LinAlgError subclasses ValueError but is not a usage error
        import numpy as np

        from strip_solver import cli

        def failing_factorisation(args):
            return np.linalg.cholesky(-np.eye(2))

        monkeypatch.setitem(cli._COMMANDS, "modes", failing_factorisation)
        assert cli.run(["modes", "--n", "2"]) == 2
        assert "numerical failure: LinAlgError" in capsys.readouterr().err

    def test_invalid_solver_tolerances_are_usage_errors(self):
        # rejected when the configs are built, before any quadrature or sweep
        lin = ("solve-linear", "--source", "linear", "--nx", "5", "--nt", "3")
        nonlin = ("solve-nonlinear", "--T", "0.5", "--nx", "17", "--n-modes", "4")
        for argv in (lin + ("--quad-tol", "-1"), lin + ("--quad-tol", "nan"),
                     lin + ("--quad-tol", "inf"), nonlin + ("--tol", "nan"),
                     nonlin + ("--dt", "nan"), nonlin + ("--window", "nan")):
            res = run_cli(*argv)
            assert res.returncode == 1, (argv, res.stderr)
            assert "usage error" in res.stderr

    def test_missing_config_file(self):
        res = run_cli("modes", "--config", "/nonexistent/path.cfg")
        assert res.returncode == 1
