import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import ddebound
from ddebound import cli, reduction
from ddebound.analysis import BoundednessCriterion, frozen_scalar_radius
from ddebound.cli import _bundled_config, main
from ddebound.config import ConfigError, load_config_text
from ddebound.plotting import Curve, emit_csv, emit_region_svg, emit_svg

MINIMAL = """
[system]
dim = 1
A0 1 1 = -1
history = constant 0.5
[solver]
horizon = 5
"""

# the delay grows from 0.5 to 1.0 on the configured [0, 5] and to 1.5 on [0, 10]
GROWING_DELAY = """
[system]
dim = 1
A0 1 1 = -1
delay 1 = 0.5 + 0.1*t
history = constant 0.5
[solver]
horizon = 5
"""

# x' = diag(0, -40) x: the fundamental matrix diag(1, e^(-40 t)) passes the
# condition floor 1e12 at t = 0.69, so no reduction exists on [0, 2]
ILL_CONDITIONED = """
[system]
dim = 2
A0 1 1 = 0
A0 2 2 = -40
history = constant 0.5 0.5
[solver]
horizon = 2
[analysis]
alpha = 1
beta = 1.1
T = 1
"""


def _bundled_text(case: str) -> str:
    return (resources.files("ddebound") / f"configs/planar_case_{case}.cfg").read_text()


CASE_A = _bundled_text("a")
REDUCE_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "reduce.cfg"


class TestLoadConfig:
    def test_bundled_cases_load(self):
        for case in ("a", "b"):
            cfg = _bundled_config(case)
            assert cfg.system.dim == 2
            assert cfg.system.forcing_amplitude == 0.05
            assert cfg.horizon == 50.0
            spec = cfg.system.delays
            assert spec.count == 1 and spec.bounds(cfg.system.t0, cfg.horizon)[0] == 0.5
            vs = cfg.system
            assert vs.dim == 2
            assert np.allclose(vs.history(0.0), [0.1, 0.1])

    def test_empty_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config_text("", "<test>")

    def test_missing_dim(self):
        with pytest.raises(ConfigError) as err:
            load_config_text("[system]\nhistory = constant 1\n", "<test>")
        assert "dim" in str(err.value)

    def test_monomial_referencing_missing_delay_slot(self):
        text = MINIMAL + "\n"
        text = text.replace("[solver]", "f 1 = 1 ; 3 1 2\ndelay 1 = 0.5\n[solver]")
        with pytest.raises(ConfigError) as err:
            load_config_text(text, "<test>")
        assert "delay slot 3" in str(err.value)

    def test_history_must_cover_delay_interval(self):
        text = """
[system]
dim = 1
A0 1 1 = -1
delay 1 = 1.0
history sample = -0.5 1.0
history sample = 0.0 1.0
"""
        with pytest.raises(ConfigError) as err:
            load_config_text(text, "<test>")
        assert "cover" in str(err.value)

    def test_bad_expression_names_location(self):
        text = "[system]\ndim = 1\nA0 1 1 = sin(\nhistory = constant 1\n"
        with pytest.raises(ConfigError) as err:
            load_config_text(text, "<test>")
        assert "<test>:3" in str(err.value)

    def test_minimal_system_builds(self):
        cfg = load_config_text(MINIMAL, "<test>")
        vs = cfg.system
        from ddebound import integrate
        traj = integrate(vs, 5.0, cfg.solver)
        assert traj.eval(1.0)[0] == pytest.approx(0.5 * math.exp(-1.0), rel=1e-5)

    @pytest.mark.parametrize("key", ["rtol", "atol", "horizon", "q_max", "F0", "zeta_tilde",
                                     "margin", "history"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_rejected(self, key, value):
        # each on its own line of case a; the error names that line
        lines = CASE_A.splitlines()
        (row,) = [k for k, line in enumerate(lines) if line.startswith(f"{key} = ")]
        lines[row] = f"{key} = constant {value} 0.1" if key == "history" else f"{key} = {value}"
        with pytest.raises(ConfigError, match=rf"^<test>:{row + 1}: expected a finite number"):
            load_config_text("\n".join(lines), "<test>")

    def test_the_cap_may_be_infinite_but_not_nan(self):
        assert load_config_text(f"{MINIMAL}cap = inf\n").solver.cap == math.inf
        line = MINIMAL.count("\n") + 1
        with pytest.raises(ConfigError, match=rf"^<test>:{line}: expected a finite number or inf"):
            load_config_text(f"{MINIMAL}cap = nan\n", "<test>")

    @pytest.mark.parametrize("after, line, refusal", [pytest.param(*case, id=case[1]) for case in [
        ("dim = ", "dim = 3", "'dim' repeats line 13"),
        ("A0 2 2 = ", "A0 2 2 = -1", "'A0 2 2' repeats line 16"),
        ("delay 1 = ", "delay 1 = 0.7", "'delay 1' repeats line 19"),
        ("e 2 = ", "e 2 = cos(t)", "'e 2' repeats line 23"),
        ("history = ", "history = constant 0.2 0.2", "'history' repeats line 24"),
        ("history = ", "history sample = -1 0.1 0.1", "the history takes one form"),
        ("history = ", "history 1 = 0.1", "the history takes one form"),
        ("zeta_tilde = ", "zeta_tilde = 0.7", "'zeta_tilde' repeats line 27"),
        ("rtol = ", "rtol = 1e-7", "'rtol' repeats line 31"),
        ("q_max = ", "q_max = 10", "'q_max' repeats line 38"),
        ("grid = ", "grid = 10", "'grid' repeats line 44"),
    ]])
    def test_a_key_that_names_one_value_is_given_once(self, after, line, refusal):
        lines = CASE_A.splitlines()
        (row,) = [k for k, text in enumerate(lines) if text.startswith(after)]
        lines.insert(row + 1, line)
        with pytest.raises(ConfigError, match=rf"^<test>:{row + 2}: .*{re.escape(refusal)}"):
            load_config_text("\n".join(lines), "<test>")

    def test_lines_that_repeat_add_up(self):
        text = CASE_A.replace("A1_delayed 1 = 0.5", "A1_delayed 1 = 0.5\nA1_delayed 1 = 0.25")
        text = text.replace("f 2 = 0.1 ; 1 2 3", "f 2 = 0.1 ; 1 2 3\nf 2 = 0.2 ; 0 1 2")
        cfg = load_config_text(text)
        assert [term.weight for term in cfg.system.f.matrix_terms] == [0.5, 0.25]
        monomials = cfg.system.f.poly.monomials
        assert [m.factors for m in monomials] == [((1, 1, 3),), ((0, 0, 2),)]
        samples = "history sample = -1 0.5\nhistory sample = 0 0.5"
        cfg = load_config_text(MINIMAL.replace("history = constant 0.5", samples))
        assert (cfg.system.history.t_min, cfg.system.history.t_max) == (-1.0, 0.0)

    def test_one_remainder_matrix_object(self):
        # the delayed coupling and the scalar majorant's |A1| term read the one A1
        cfg = _bundled_config("a")
        (coupling,) = cfg.system.f.matrix_terms
        assert coupling.matrix is cfg.a1
        scalar = cli.assemble_pipeline(cfg).scalar_system
        (undelayed,) = [t for t in scalar.majorant.terms if t.exponents == (1, 0)]
        assert undelayed.coeff is cfg.a1.norm

    @pytest.mark.parametrize("line, refusal", [
        ("= 2", "expected 'key = value', got '= 2'"),
        ("delay 1 = 1e999", "number literal '1e999' is not finite"),
    ])
    def test_a_malformed_line_is_named(self, line, refusal):
        row = MINIMAL.splitlines().index("[solver]") + 1
        with pytest.raises(ConfigError, match=rf"^<test>:{row}: .*{re.escape(refusal)}"):
            load_config_text(MINIMAL.replace("[solver]", f"{line}\n[solver]"), "<test>")

    @pytest.mark.parametrize("line, refusal", [pytest.param(*case, id=case[0]) for case in [
        ("grid = 1", "'grid' needs at least 2 points, got 1"),
        ("grid = 0", "'grid' needs at least 2 points, got 0"),
        ("grid = -5", "'grid' needs at least 2 points, got -5"),
        ("probe_rtol = 0", "'probe_rtol' must be positive, got '0'"),
        ("probe_rtol = -1e-4", "'probe_rtol' must be positive, got '-1e-4'"),
        ("bisect_tol = 2", "'bisect_tol' must lie in (0, 1), got '2'"),
        ("bisect_tol = -0.05", "'bisect_tol' must lie in (0, 1), got '-0.05'"),
        ("bisect_tol = 0", "'bisect_tol' must lie in (0, 1), got '0'"),
        ("bisect_tol = 1", "'bisect_tol' must lie in (0, 1), got '1'"),
    ]])
    def test_a_setting_out_of_range_is_named(self, line, refusal):
        # a grid of one point compares only t0; probe_rtol = 0 used to fail
        # only once a search built its tolerances
        key = line.split()[0]
        lines = CASE_A.splitlines()
        (row,) = [k for k, text in enumerate(lines) if text.startswith(f"{key} = ")]
        lines[row] = line
        with pytest.raises(ConfigError, match=rf"^<test>:{row + 1}: {re.escape(refusal)}$"):
            load_config_text("\n".join(lines), "<test>")

    def test_an_overflowing_constant_is_a_config_error(self):
        text = CASE_A.replace("A1 1 2 = 1", "A1 1 2 = 1e308*10")
        with pytest.raises(ConfigError,
                           match=r"^<test>:17: bad expression: '1e308\*10' is not finite"):
            load_config_text(text, "<test>")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config_text(MINIMAL + "\nwarp = 9\n", "<test>")

    @pytest.mark.parametrize("section, line", [
        ("reduction", "p = -1"), ("reduction", "c = 1"), ("analysis", "p_hat = -2"),
        ("analysis", "c_hat = 1"), ("analysis", "L_hat = 1 ; 3")])
    def test_what_the_system_fixes_is_not_a_key(self, tmp_path, capsys, section, line):
        # p and c come from A0, and robust reads the frozen system's suprema
        row = CASE_A.splitlines().index(f"[{section}]") + 2
        path = tmp_path / "run.cfg"
        path.write_text(CASE_A.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        command = "robust" if section == "analysis" else "reduce"
        assert main([command, "--config", str(path), *(["--out", str(tmp_path)]
                                                      if command == "reduce" else [])]) == 2
        key = line.split(" =")[0]
        assert f"{path}:{row}: unknown [{section}] key {key!r}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_per_coordinate_history_expressions(self):
        text = """
[system]
dim = 2
A0 1 1 = -1
A0 2 2 = -1
delay 1 = 0.5
history 1 = exp(t)
history 2 = 1 + t
"""
        cfg = load_config_text(text, "<test>")
        hist = cfg.system.history
        assert hist(-0.5)[0] == pytest.approx(math.exp(-0.5))
        assert hist(-0.5)[1] == pytest.approx(0.5)


class TestCsvEmission:
    def test_two_columns_three_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([("a", [1.0, 2.0, 3.0]), ("b", [4.0, 5.0, 6.5])], path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4
        assert lines[0] == "a,b"
        assert lines[1] == "1.0,4.0"

    def test_round_trip_precision(self, tmp_path):
        value = 0.1 + 0.2
        path = tmp_path / "out.csv"
        emit_csv([("v", [value])], path)
        back = float(path.read_text().strip().split("\n")[1])
        assert back == value

    def test_bytes_equal_the_repr_of_each_value(self, tmp_path):
        # each column is converted once; every value reads as repr(float(v))
        special = [-0.0, 5e-324, 1e16, math.inf, 0.1]
        columns = [("t", np.linspace(0.0, 1.0, 5)), ("a", special),
                   ("b", np.array(special, dtype=np.float32)), ("c", [1, 2, 3, 4, np.float64(5.5)])]
        path = tmp_path / "out.csv"
        emit_csv(columns, path)
        rows = [",".join(repr(float(values[k])) for _name, values in columns) for k in range(5)]
        assert path.read_bytes() == ("t,a,b,c\n" + "\n".join(rows) + "\n").encode()

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "out.csv")
        with pytest.raises(ValueError):
            emit_csv([("a", [])], tmp_path / "out.csv")

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([("a", [1.0]), ("b", [1.0, 2.0])], tmp_path / "out.csv")


class TestSvgEmission:
    def test_line_plot_smoke(self, tmp_path):
        path = tmp_path / "plot.svg"
        x = np.linspace(0.0, 1.0, 20)
        emit_svg([Curve("one", x, np.sin(x)), Curve("two", x, np.cos(x))], path,
                 title="demo")
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert "demo" in text and "one" in text

    def test_region_plot_uses_log_radius(self, tmp_path):
        path = tmp_path / "region.svg"
        angles = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        radii = np.full(16, math.e)          # ln r = 1: unit circle in the plot
        emit_region_svg([("ring", angles, radii)], path)
        assert "<polyline" in path.read_text()

    def test_empty_curves_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg([], tmp_path / "x.svg")
        with pytest.raises(ValueError):
            emit_region_svg([("bad", np.array([0.0]), np.array([0.0]))],
                            tmp_path / "y.svg")


class TestCliCommands:
    def _write(self, tmp_path, text, name="run.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path)]) == 2

    def test_unreadable_config_is_config_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_overflowing_constant_exits_as_a_config_error(self, tmp_path, capsys):
        cfg = self._write(tmp_path, CASE_A.replace("A1 1 2 = 1", "A1 1 2 = 1e308*10"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "error: " in capsys.readouterr().err

    def test_simulate_writes_csv(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path),
                     "--svg"]) == 0
        assert (tmp_path / "simulate.csv").exists()
        assert (tmp_path / "simulate.svg").exists()
        header = (tmp_path / "simulate.csv").read_text().split("\n")[0]
        assert header == "t,x1,x_norm"

    def test_longer_horizon_reads_the_delay_band_on_its_own_interval(self, tmp_path, capsys):
        cfg = self._write(tmp_path, GROWING_DELAY)
        assert main(["simulate", "--config", cfg, "--horizon", "10",
                     "--out", str(tmp_path)]) == 0
        assert "simulated to t=10 (completed)" in capsys.readouterr().out

    def test_nan_tolerance_is_a_usage_error(self, tmp_path, capsys):
        assert main(["reproduce-fig1", "--case", "a", "--rtol", "nan",
                     "--out", str(tmp_path)]) == 2
        assert "positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, horizon, refusal", [
        ("radius", "nan", "--horizon must be finite, not nan"),
        ("region", "inf", "--horizon must be finite, not inf"),
        ("reproduce-fig1", "inf", "--horizon must be finite, not inf"),
        ("verify", "1e-14", "horizon 1e-14 leaves no step after the start time 0.0"),
        ("reduce", "1e-14", "horizon 1e-14 leaves no step after the start time 0.0"),
    ])
    def test_a_horizon_that_leaves_no_step_is_refused(self, tmp_path, capsys, command,
                                                      horizon, refusal):
        # `region` samples the forcing before any run, so the flag is checked
        # before the pipeline builds anything; a finite horizon too close to
        # t0 fails the integrator's own end test
        config = (["--case", "a"] if command == "reproduce-fig1" else
                  ["--config", str(REDUCE_CONFIG) if command == "reduce"
                   else self._write(tmp_path, CASE_A)])
        status = main([command, *config, "--horizon", horizon, "--out", str(tmp_path)])
        assert status == 2
        assert refusal in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_csv_output_is_deterministic(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL)
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "r1")])
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "r2")])
        a = (tmp_path / "r1" / "simulate.csv").read_bytes()
        b = (tmp_path / "r2" / "simulate.csv").read_bytes()
        assert a == b

    def test_reproduce_fig2_runs_one_case(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["reproduce-fig2", "--case", "both", "--horizon", "10",
                  "--out", str(tmp_path)])
        assert exit_.value.code == 2
        # the quoting of the choices differs between Python versions
        assert re.search(r"choose from '?a'?, '?b'?\)", capsys.readouterr().err)
        assert not (tmp_path / "fig2.csv").exists()

    def test_reproduce_case_conflicts_with_config(self, tmp_path, capsys):
        cfg = self._write(tmp_path, MINIMAL)
        for command in ("reproduce-fig1", "reproduce-fig2"):
            assert main([command, "--config", cfg, "--case", "b", "--out", str(tmp_path)]) == 2
            assert "cannot be combined with --config" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_robust_command(self, tmp_path, capsys):
        # y_plus is the exact radius of each bundled case's homogeneous frozen
        # system (3.31037 and 1.40268)
        for case in ("a", "b"):
            cfg = _bundled_config(case)
            auto = cli.assemble_pipeline(cfg).autonomous_system.homogeneous()
            radius = frozen_scalar_radius(auto, BoundednessCriterion(), cfg.analysis.q_max)
            assert radius.status == "analytic"
            path = self._write(tmp_path, _bundled_text(case))
            assert main(["robust", "--config", path]) == 0
            assert capsys.readouterr().out == f"y_plus = {radius.value:.6g}\nholds = True\n"

    def test_robust_failure_exit_code(self, tmp_path, capsys):
        # A0 = I: p = 1, and the criterion fails at 0 (no usage error)
        cfg = self._write(tmp_path, re.sub(r"A0 (\d) \1 = .*", r"A0 \1 \1 = 1", CASE_A))
        assert main(["robust", "--config", cfg]) == 1
        assert capsys.readouterr().out == "y_plus = 0\nholds = False\n"

    def test_region_rejects_non_planar_systems(self, tmp_path):
        text = """
[system]
dim = 3
A0 1 1 = -1
A0 2 2 = -1
A0 3 3 = -1
history = constant 0.1 0.1 0.1
"""
        cfg = self._write(tmp_path, text)
        assert main(["region", "--config", cfg]) == 2

    def test_fts_command(self, tmp_path, capsys):
        text = MINIMAL.replace("constant 0.5", "constant 0.9") + """
[analysis]
alpha = 1.0
beta = 1.1
T = 5
gamma = 0.1
"""
        cfg = self._write(tmp_path, text)
        assert main(["fts", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "FTS = True" in out and "FTCS = True" in out

    def test_verify_command_on_minimal_linear_system(self, tmp_path):
        text = """
[system]
dim = 2
A0 1 1 = -1 + 0.2*sin(t)
A0 2 2 = -1 + 0.2*sin(t)
history = constant 0.3 0.4
[solver]
horizon = 10
[output]
grid = 400
"""
        cfg = self._write(tmp_path, text)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        header = (tmp_path / "verify.csv").read_text().split("\n")[0]
        assert header == "t,x_norm,y,y_hat"

    def test_reduce_command_numerical_path(self, tmp_path, capsys):
        text = """
[system]
dim = 2
A0 1 1 = -1
A0 2 2 = -2
history = constant 0.1 0.1
[solver]
horizon = 3
[output]
grid = 50
"""
        cfg = self._write(tmp_path, text)
        assert main(["reduce", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "numerical" in capsys.readouterr().out
        rows = (tmp_path / "reduce.csv").read_text().strip().split("\n")
        assert rows[0] == "t,p,c"
        # p ~ -1 (largest singular value decays like e^-t)
        last = [float(v) for v in rows[-1].split(",")]
        assert last[1] == pytest.approx(-1.0, abs=1e-4)

    def test_radius_command(self, tmp_path, capsys):
        text = """
[system]
dim = 1
A0 1 1 = -2
f 1 = 1 ; 0 1 3
history = constant 0.1
[solver]
horizon = 50
[analysis]
q_max = 3
bisect_tol = 1e-4
"""
        cfg = self._write(tmp_path, text)
        assert main(["radius", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scalar radius" in out
        # the printed estimate is the sqrt(2) basin boundary
        value = float(out.split("):")[1].split()[0])
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-3)

    def test_region_command_on_globally_stable_system(self, tmp_path):
        text = """
[system]
dim = 2
A0 1 1 = -1
A0 2 2 = -1
history = constant 0.0 0.0
[solver]
horizon = 10
[analysis]
r_max = 4
probe_rtol = 1e-3
"""
        cfg = self._write(tmp_path, text)
        assert main(["region", "--config", cfg, "--out", str(tmp_path),
                     "--svg"]) == 0
        rows = (tmp_path / "region.csv").read_text().strip().split("\n")
        assert rows[0] == "angle,radius,lo,hi"
        assert len(rows) == 201            # header + 200 angles
        first = [float(v) for v in rows[1].split(",")]
        assert first[1] == 4.0             # unbracketed above at r_max
        assert (tmp_path / "region.svg").exists()

    def test_region_svg_of_radii_empty_at_zero(self, tmp_path, capsys):
        # x' = 5x + (1, 0) reaches the cap from every history, 0 included, so
        # every angle is empty_at_zero: the CSV keeps the zero radii, and the
        # plot floors them at 1e-12
        text = """
[system]
dim = 2
A0 1 1 = 5
A0 2 2 = 5
F0 = 1
e 1 = 1
history = constant 0 0
[solver]
horizon = 5
[analysis]
r_max = 2
"""
        cfg = self._write(tmp_path, text)
        assert main(["region", "--config", cfg, "--out", str(tmp_path), "--svg"]) == 0
        rows = (tmp_path / "region.csv").read_text().strip().split("\n")[1:]
        assert {row.split(",")[1] for row in rows} == {"0.0"}
        assert (tmp_path / "region.svg").read_text().startswith("<svg")
        assert "min radius 0" in capsys.readouterr().out

    def test_region_names_a_bound_that_is_not_positive(self, tmp_path, capsys):
        cfg = self._write(tmp_path, CASE_A.replace("r_max = 50", "r_max = -1"))
        assert main(["region", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "r_max must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["region", "reproduce-fig2"])
    def test_a_bisect_tol_outside_the_unit_interval_exits_2(self, tmp_path, capsys, command):
        # bisect_tol = 2 once bracketed every angle after two probes
        cfg = self._write(tmp_path, CASE_A.replace("bisect_tol = 1e-3", "bisect_tol = 2"))
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "'bisect_tol' must lie in (0, 1), got '2'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_radius_refuses_a_decay_ratio_that_is_not_positive(self, tmp_path, capsys):
        text = MINIMAL + "[analysis]\ncriterion = decaying\ndecay_ratio = -0.5\n"
        cfg = self._write(tmp_path, text)
        assert main(["radius", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "decay_ratio must be positive" in capsys.readouterr().err

    def test_reproduce_fig1_bundled_cases(self, tmp_path):
        assert main(["reproduce-fig1", "--out", str(tmp_path), "--svg"]) == 0
        for case in ("a", "b"):
            assert (tmp_path / f"fig1_{case}.csv").exists()
            assert (tmp_path / f"fig1_{case}.svg").exists()
        header = (tmp_path / "fig1_a.csv").read_text().split("\n")[0]
        assert header == "t,x_norm,y,y_hat"


# the flags each command reads, besides --config
KEPT_FLAGS = {
    "simulate": {"--out", "--svg", "--horizon", "--rtol", "--cap"},
    "reduce": {"--out", "--horizon"},
    "verify": {"--out", "--svg", "--horizon", "--rtol"},
    "radius": {"--out", "--horizon", "--cap"},
    "region": {"--out", "--svg", "--horizon", "--cap"},
    "robust": set(),
    "fts": {"--rtol", "--cap"},
    "reproduce-fig1": {"--case", "--out", "--svg", "--horizon", "--rtol"},
    "reproduce-fig2": {"--case", "--out", "--svg", "--horizon"},
}
FLAG_VALUES = {"--config": ["run.cfg"], "--out": ["out"], "--svg": [], "--horizon": ["3"],
               "--rtol": ["1e-7"], "--cap": ["100"], "--case": ["a"]}
# the pairs every command used to accept and ignore
REMOVED_PAIRS = [("reduce", "--svg"), ("reduce", "--rtol"), ("reduce", "--cap"),
                 ("verify", "--cap"), ("radius", "--svg"), ("radius", "--rtol"),
                 ("region", "--rtol"), ("robust", "--out"), ("robust", "--svg"),
                 ("robust", "--horizon"), ("robust", "--rtol"), ("robust", "--cap"),
                 ("fts", "--out"), ("fts", "--svg"), ("fts", "--horizon"),
                 ("reproduce-fig1", "--cap"), ("reproduce-fig2", "--rtol"),
                 ("reproduce-fig2", "--cap")]


class TestCommandFlags:
    def test_each_command_accepts_only_the_flags_it_reads(self):
        parser = cli._build_parser()
        accepted = set()
        for command in KEPT_FLAGS:
            for flag, value in FLAG_VALUES.items():
                try:
                    parser.parse_args([command, flag, *value])
                except SystemExit:
                    continue
                accepted.add((command, flag))
        expected = {(command, flag) for command, flags in KEPT_FLAGS.items()
                    for flag in flags | {"--config"}}
        assert accepted == expected and len(accepted) == 38
        assert not accepted & set(REMOVED_PAIRS)

    @pytest.mark.parametrize("command,flag", REMOVED_PAIRS)
    def test_flag_the_command_does_not_read_is_refused(self, tmp_path, capsys, command, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL)
        with pytest.raises(SystemExit) as exit_:
            main([command, "--config", str(cfg), flag, *FLAG_VALUES[flag]])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestLazyPipeline:
    def test_vector_commands_build_no_reduction(self, tmp_path, capsys):
        cfg = tmp_path / "ill.cfg"
        cfg.write_text(ILL_CONDITIONED)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert main(["fts", "--config", str(cfg)]) == 0
        assert "FTS = True" in capsys.readouterr().out
        # the commands that read the reduction still refuse the config
        assert main(["reduce", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "numerically singular" in capsys.readouterr().err

    def test_reading_the_vector_system_builds_no_coefficients(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the fundamental matrix was integrated")

        monkeypatch.setattr(reduction, "compute_fundamental_matrix", refuse)
        pipe = cli.assemble_pipeline(load_config_text(ILL_CONDITIONED))
        assert pipe.config.system.dim == 2
        with pytest.raises(AssertionError, match="fundamental matrix was integrated"):
            pipe.scalar_system


def _printed_by(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports this ddebound."""
    src = str(Path(ddebound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return run.stdout.strip()


def test_import_loads_no_scipy():
    assert _printed_by("import sys, ddebound, ddebound.cli; "
                       "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
                       ) == "[]"


def test_zeros_of_a_function_that_crosses_are_found_without_scipy_optimize():
    assert _printed_by("import sys; from ddebound import parse_expression; "
                       "from ddebound.timefn import locate_zeros; "
                       "zeros = locate_zeros(parse_expression('sin(10*t)'), 0.0, 50.0); "
                       "print(len(zeros), 'scipy.optimize' in sys.modules)") == "160 False"
