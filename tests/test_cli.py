import collections
import math
import os
import pathlib
import subprocess
import sys

import pytest

from strip_solver import cli

REPO = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"

Result = collections.namedtuple("Result", "returncode stdout stderr")


@pytest.fixture
def run_cli(capsys):
    """Run the CLI in this process; returns its exit code and captured output."""
    def run(*argv):
        code = cli.run([str(arg) for arg in argv])
        out, err = capsys.readouterr()
        return Result(code, out, err)

    return run


class TestSubcommands:
    def test_modes_table(self, tmp_path, run_cli):
        out = tmp_path / "modes.csv"
        res = run_cli("modes", "--config", str(CONFIGS / "modes.cfg"), "--out", str(out))
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# meta:")
        assert lines[1] == "n,gamma,b,h,omega,regime"
        assert lines[2].endswith("Critical")
        assert len(lines) == 8

    def test_green_grid(self, tmp_path, run_cli):
        out = tmp_path / "green.csv"
        res = run_cli("green", "--config", str(CONFIGS / "green.cfg"), "--out", str(out))
        assert res.returncode == 0, res.stderr
        header = out.read_text().splitlines()[1]
        assert header == "x,t,g,g_t,flux"

    def test_solve_linear_value(self, tmp_path, run_cli):
        out = tmp_path / "lin.csv"
        res = run_cli("solve-linear", "--config", str(CONFIGS / "linear_sin.cfg"),
                      "--epsilon", "1", "--a", "1", "--c", "1",
                      "--nx", "5", "--nt", "9", "--T", "2.0", "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = {}
        for line in out.read_text().splitlines()[2:]:
            x, t, u = (float(v) for v in line.split(","))
            rows[(round(x, 6), round(t, 6))] = u

        # x = pi/2 (index 2 of 5 nodes), t = 1.0 -> t e^{-t} sin x = e^{-1}
        val = rows[(round(math.pi / 2, 6), 1.0)]
        assert val == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_solve_nonlinear(self, tmp_path, run_cli):
        out = tmp_path / "nl.csv"
        res = run_cli("solve-nonlinear", "--config", str(CONFIGS / "nonlinear_sg.cfg"),
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        meta = out.read_text().splitlines()[0]
        assert "converged=True" in meta

    def test_solve_nonlinear_infinite_window_is_one_window(self, run_cli):
        argv = ("solve-nonlinear", "--T", "0.5", "--nx", "17", "--n-modes", "4",
                "--dt", "0.05", "--source", "sine-gordon", "--bias", "0.2")
        res = run_cli(*argv, "--window", "inf")
        assert res.returncode == 0, res.stderr
        assert "converged=True" in res.stdout.splitlines()[0]
        # byte-identical to a window equal to the horizon
        assert res.stdout == run_cli(*argv, "--window", "0.5").stdout

    def test_oracle(self, tmp_path, run_cli):
        out = tmp_path / "ora.csv"
        res = run_cli("oracle", "--config", str(CONFIGS / "oracle.cfg"), "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert out.read_text().splitlines()[1] == "x,t,u"

    def test_verify_report(self, tmp_path, run_cli):
        out = tmp_path / "verify.csv"
        res = run_cli("verify", "--config", str(CONFIGS / "verify.cfg"), "--out", str(out))
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[1] == "problem,nx,dt,sup_diff,order,status"
        assert all(line.endswith("pass") for line in lines[2:])

    def test_decay_fit_pipeline(self, tmp_path, run_cli):
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
    def test_deterministic_output(self, tmp_path, run_cli):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            res = run_cli("solve-linear", "--config", str(CONFIGS / "linear_sin.cfg"),
                          "--nx", "7", "--nt", "5", "--out", str(out))
            assert res.returncode == 0, res.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_config_key_is_usage_error(self, tmp_path, run_cli):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 3\n")
        res = run_cli("modes", "--config", str(cfg))
        assert res.returncode == 1
        assert "valid keys" in res.stderr

    def test_unknown_flag_is_usage_error(self, run_cli):
        res = run_cli("modes", "--does-not-exist", "1")
        assert res.returncode == 1

    def test_numerical_failure_exit_code(self, run_cli):
        # 1e-20 is beyond the accelerated series' certified reach at MODE_CAP modes
        res = run_cli("green", "--t-min", "0.5", "--t-max", "1.0", "--nt", "2",
                      "--nx", "3", "--tol", "1e-20")
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

    def test_invalid_solver_tolerances_are_usage_errors(self, run_cli):
        # rejected when the configs are built, before any quadrature or sweep
        lin = ("solve-linear", "--source", "linear", "--nx", "5", "--nt", "3")
        nonlin = ("solve-nonlinear", "--T", "0.5", "--nx", "17", "--n-modes", "4")
        for argv in (lin + ("--quad-tol", "-1"), lin + ("--quad-tol", "nan"),
                     lin + ("--quad-tol", "inf"), nonlin + ("--tol", "nan"),
                     nonlin + ("--tol", "inf"),
                     nonlin + ("--dt", "nan"), nonlin + ("--window", "nan")):
            res = run_cli(*argv)
            assert res.returncode == 1, (argv, res.stderr)
            assert "usage error" in res.stderr

    def test_missing_config_file(self, run_cli):
        res = run_cli("modes", "--config", "/nonexistent/path.cfg")
        assert res.returncode == 1


class TestInputErrors:
    """Bad input exits 1 with a usage error and writes no CSV."""

    def assert_usage_error(self, res):
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("usage error:")
        assert res.stdout == ""

    def test_decay_fit_empty_input(self, tmp_path, run_cli):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        self.assert_usage_error(run_cli("decay-fit", "--input", empty))

    def test_decay_fit_header_only_input(self, tmp_path, run_cli):
        header_only = tmp_path / "header.csv"
        header_only.write_text("# meta: version=0\nx,t,u\n")
        self.assert_usage_error(run_cli("decay-fit", "--input", header_only))

    def test_decay_fit_row_without_u(self, tmp_path, run_cli):
        short_row = tmp_path / "short.csv"
        short_row.write_text("x,t,u\n0.5,1.0,0.25\n0.5,2.0\n")
        self.assert_usage_error(run_cli("decay-fit", "--input", short_row))

    def test_oracle_zero_output_step(self, run_cli):
        self.assert_usage_error(run_cli("oracle", "--T", "0.2", "--nx", "15",
                                        "--t-out-every", "0"))

    def test_oracle_negative_output_step(self, run_cli):
        self.assert_usage_error(run_cli("oracle", "--T", "0.2", "--nx", "15",
                                        "--t-out-every", "-0.1"))

    def test_solve_nonlinear_infinite_horizon(self, run_cli):
        res = run_cli("solve-nonlinear", "--T", "inf", "--nx", "17", "--n-modes", "4")
        self.assert_usage_error(res)
        assert "horizon" in res.stderr

    @pytest.mark.parametrize("T", ["inf", "nan", "-1"])
    def test_solve_linear_bad_horizon(self, run_cli, T):
        res = run_cli("solve-linear", "--T", T, "--nx", "5", "--nt", "3")
        self.assert_usage_error(res)
        assert "horizon T must be positive and finite" in res.stderr
        assert "RuntimeWarning" not in res.stderr

    @pytest.mark.parametrize("argv,message", [
        (("--source", "exp"), "invalid choice: 'exp' (choose from zero, linear)"),
        (("--source", "sine-gordon"), "invalid choice"),
        (("--bias", "0.3"), "unrecognized arguments"),
        (("--mu", "0.5"), "unrecognized arguments"),
    ])
    def test_solve_linear_refuses_settings_it_cannot_use(self, run_cli, argv, message):
        res = run_cli("solve-linear", "--nx", "5", "--nt", "3", *argv)
        self.assert_usage_error(res)
        assert message in res.stderr

    @pytest.mark.parametrize("line,message", [("bias = 0.3", "unknown config key(s) bias"),
                                              ("source = algebraic", "config key 'source'")])
    def test_solve_linear_refuses_config_it_cannot_use(self, tmp_path, run_cli, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"nx = 5\nnt = 3\n{line}\n")
        res = run_cli("solve-linear", "--config", cfg)
        self.assert_usage_error(res)
        assert message in res.stderr

    def test_oracle_infinite_horizon(self, run_cli):
        res = run_cli("oracle", "--T", "inf", "--nx", "15")
        self.assert_usage_error(res)
        assert "horizon" in res.stderr

    def test_oracle_infinite_step(self, run_cli):
        res = run_cli("oracle", "--T", "1", "--nx", "15", "--dt", "inf", "--t-out-every", "0.5")
        self.assert_usage_error(res)
        assert "dt must be positive and finite" in res.stderr

    @pytest.mark.parametrize("flag", ["--nt", "--nx"])
    def test_green_empty_grid(self, run_cli, flag):
        self.assert_usage_error(run_cli("green", flag, "0"))

    def test_green_non_finite_tolerance(self, run_cli):
        self.assert_usage_error(run_cli("green", "--nt", "2", "--nx", "5", "--tol", "nan"))

    def test_non_boolean_config_flag(self, tmp_path, run_cli):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("g1 = sin_1\nnx = 5\nnt = 3\nwith_dt = banana\n")
        res = run_cli("solve-linear", "--config", cfg)
        self.assert_usage_error(res)
        assert "with_dt" in res.stderr


# one small run per solver command, as config keys and values
RUNS = {
    "solve-linear": {"g1": "sin_1", "g1_scale": "0.5", "T": "1.0", "nx": "5", "nt": "5",
                     "n_modes": "8", "source": "linear", "f_profile": "poly",
                     "f_scale": "0.3", "quad_tol": "1e-8", "with_dt": "true"},
    "solve-nonlinear": {"g0": "sin_1", "g0_scale": "0.1", "T": "0.5", "nx": "17",
                        "n_modes": "4", "dt": "0.02", "tol": "1e-7", "max_iter": "30",
                        "window": "0.25", "source": "sine-gordon", "bias": "0.2"},
    "oracle": {"g1": "bump", "T": "0.2", "nx": "15", "dt": "0.02", "theta": "0.6",
               "t_out_every": "0.1", "source": "exp", "mu": "0.5"},
}


def _flags(options: dict) -> list:
    argv = []
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag] if value == "true" else [flag, value]
    return argv


class TestOptionTable:
    """Config keys are the flag names with '_'; a flag beats a config value."""

    def _run(self, run_cli, tmp_path, command, argv, name):
        out = tmp_path / f"{name}.csv"
        res = run_cli(command, *argv, "--out", out)
        assert res.returncode == 0, res.stderr
        return out.read_bytes()

    def _config(self, tmp_path, options):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in options.items()))
        return ["--config", cfg]

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_config_and_flags_write_identical_csv(self, tmp_path, run_cli, command):
        options = RUNS[command]
        by_config = self._run(run_cli, tmp_path, command, self._config(tmp_path, options), "cfg")
        by_flags = self._run(run_cli, tmp_path, command, _flags(options), "flags")
        assert by_config == by_flags

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_flag_beats_config_value(self, tmp_path, run_cli, command):
        options = RUNS[command]
        override = {"T": "0.4"}
        mixed = self._run(run_cli, tmp_path, command,
                          self._config(tmp_path, options) + _flags(override), "mixed")
        by_flags = self._run(run_cli, tmp_path, command,
                             _flags({**options, **override}), "flags")
        assert mixed == by_flags
        assert b" T=0.40000000000000002 " in mixed.splitlines()[0]

    def test_meta_records_library_defaults(self, run_cli):
        def meta(*argv):
            res = run_cli(*argv)
            assert res.returncode == 0, res.stderr
            line = res.stdout.splitlines()[0].removeprefix("# meta: ")
            return dict(item.split("=", 1) for item in line.split())

        assert float(meta("solve-nonlinear", "--T", "0.1", "--nx", "17",
                          "--n-modes", "4")["tol"]) == 1e-8
        assert float(meta("solve-linear", "--g1", "sin_1", "--nx", "5",
                          "--nt", "3")["quad_tol"]) == 1e-9
        oracle = meta("oracle", "--T", "0.01", "--t-out-every", "0.01")
        assert (oracle["nx"], float(oracle["dt"]), float(oracle["theta"])) == ("127", 0.005, 0.5)


def _child_env(**extra):
    # pytest's pythonpath setting does not reach child interpreters
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, **extra, PYTHONPATH=path)


def test_python_dash_m_matches_in_process(run_cli):
    # the one test through a fresh interpreter: entry point, exit code, stdout
    argv = ["modes", "--n", "3", "--k", "0.3"]
    proc = subprocess.run([sys.executable, "-m", "strip_solver", *argv],
                          capture_output=True, text=True, timeout=240, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(*argv).stdout
    proc = subprocess.run([sys.executable, "-m", "strip_solver", "modes", "--nope"],
                          capture_output=True, text=True, timeout=240, env=_child_env())
    assert proc.returncode == 1
    assert "usage error" in proc.stderr


def test_thread_cap_fills_unset_variables_before_numpy_loads():
    script = (
        "import os, sys\n"
        "from strip_solver import cli\n"
        "print('numpy' in sys.modules)\n"
        "cli._cap_threads()\n"
        "print(os.environ['OMP_NUM_THREADS'], os.environ['OPENBLAS_NUM_THREADS'],"
        " os.environ['MKL_NUM_THREADS'])\n"
    )
    env = _child_env(STRIP_SOLVER_THREADS="2", OPENBLAS_NUM_THREADS="3")
    env.pop("OMP_NUM_THREADS", None)
    env.pop("MKL_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=240, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "2", "3", "2"]
