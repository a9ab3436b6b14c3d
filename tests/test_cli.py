"""Command-line interface: spec parsing, outputs, exit codes."""

import io
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from steinprod import dist, verify
from steinprod.cli import GRID_COMMANDS, SpecError, load_spec, main, parse_grid
from steinprod.specfun import NumericalError


@pytest.fixture
def spec_file(tmp_path):
    def write(payload):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return str(path)

    return write


PN1 = {"version": 1, "normal": {"count": 1, "sigma": 1.0}}
TINY_RATE = {"version": 1, "gamma": {"shapes": [1.0], "lambda": 1e-200}}
TINY_RATE2 = {"version": 1, "gamma": {"shapes": [1.4, 2.0], "lambda": 1e-200}}
BIG_RATE2 = {"version": 1, "gamma": {"shapes": [1.4, 2.0], "lambda": 1e200}}
TINY_SHAPE = {"version": 1, "gamma": {"shapes": [1e-300, 2.0], "lambda": 1.0}}
XYZ = {"version": 1, "beta": [[1.3, 0.6]],
       "gamma": {"shapes": [1.4], "lambda": 1.0},
       "normal": {"count": 1, "sigma": 1.0}}


class TestSpecParsing:
    def test_full_spec(self, spec_file):
        spec = load_spec(spec_file(XYZ))
        assert spec.m == 1 and spec.n == 1 and spec.N == 1

    def test_version_required(self, spec_file):
        with pytest.raises(SpecError, match="version"):
            load_spec(spec_file({"normal": {"count": 1, "sigma": 1.0}}))

    def test_bad_beta_shape(self, spec_file):
        with pytest.raises(SpecError, match="beta"):
            load_spec(spec_file({"version": 1, "beta": [[1.0]]}))

    @pytest.mark.parametrize("field, value", [("gamma", [1.4]), ("normal", [1])])
    def test_non_object_factor_field(self, spec_file, capsys, field, value):
        path = spec_file({"version": 1, field: value})
        with pytest.raises(SpecError, match=f"'{field}' must be an object"):
            load_spec(path)
        assert main(["operator", "--spec", path]) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("payload, message", [
        ({"normal": {"count": 1.5, "sigma": 1.0}}, "'normal.count' must be an integer"),
        ({"normal": {"count": True, "sigma": 1.0}}, "'normal.count' must be an integer"),
        ({"gamma": {"shapes": "12", "lambda": 1.0}}, "'gamma.shapes' must be a list"),
        ({"gamma": {"shapes": [True], "lambda": 1.0}}, "'gamma.shapes' must be a number"),
        ({"gama": {"shapes": [1.4], "lambda": 1.0}, "normal": {"count": 1, "sigma": 1.0}},
         "unknown field.*'gama'"),
        ({"normal": {"count": 1, "sigma": 1.0, "mu": 0.0}}, "unknown field.*'mu'"),
        ({"gamma": {"shapes": [], "lambda": 1.0}, "normal": {"count": 1, "sigma": 1.0}},
         "lam given without gamma factors"),
        ({"gamma": {"shapes": [1.4], "lambda": 1.0}, "normal": {"count": 0, "sigma": 1.0}},
         "sigma given without normal factors"),
        ({"beta": [["1", "2"]]}, "'beta' must be a number"),
        ({"gamma": {"shapes": [1.4]}}, "gamma factors need a rate lam"),
        ({"normal": {"count": 1}}, "normal factors need a scale sigma"),
        ({"gamma": {"shapes": [1.4], "lambda": 1.0}, "normal": {"count": -1, "sigma": 1.0}},
         "normal_count must be nonnegative"),
    ], ids=["count-float", "count-bool", "shapes-string", "shapes-bool", "top-level-key",
            "normal-key", "lambda-without-shapes", "sigma-without-count", "beta-strings",
            "shapes-without-lambda", "count-without-sigma", "negative-count"])
    def test_malformed_spec_rejected(self, spec_file, capsys, payload, message):
        # each of these exited 0, read as some other product
        path = spec_file({"version": 1, **payload})
        with pytest.raises(SpecError, match=message):
            load_spec(path)
        assert main(["operator", "--spec", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.strip().splitlines()) == 1

    def test_missing_file(self):
        with pytest.raises(SpecError, match="cannot read"):
            load_spec("/nonexistent/spec.json")

    def test_grid_parse(self):
        grid = parse_grid("0:2:5")
        np.testing.assert_allclose(grid, [0, 0.5, 1.0, 1.5, 2.0])
        with pytest.raises(SpecError):
            parse_grid("5:1:10")
        with pytest.raises(SpecError):
            parse_grid("oops")


class TestCommands:
    def test_density_csv(self, spec_file, tmp_path, capsys):
        out = tmp_path / "density.csv"
        rc = main(["density", "--spec", spec_file(PN1), "--grid=-2:2:5",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,density"
        mid = float(lines[3].split(",")[1])
        assert mid == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-10)
        assert out.read_text().endswith("\n")

    def test_density_deterministic_output(self, spec_file, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["density", "--spec", spec_file(XYZ), "--grid=0.5:2:4", "--out", str(f1)])
        main(["density", "--spec", spec_file(XYZ), "--grid=0.5:2:4", "--out", str(f2)])
        assert f1.read_text() == f2.read_text()

    def test_operator_reduce_prints_order(self, spec_file, capsys):
        payload = {"version": 1, "beta": [[1.3, 1.0]],
                   "gamma": {"shapes": [1.4], "lambda": 1.0},
                   "normal": {"count": 1, "sigma": 1.0}}
        rc = main(["operator", "--spec", spec_file(payload), "--reduce"])
        assert rc == 0
        outtext = capsys.readouterr().out
        assert "reduced: 4" in outtext  # m + 2n + N

    def test_operator_adjoint(self, spec_file, capsys):
        rc = main(["operator", "--spec", spec_file(PN1), "--adjoint"])
        assert rc == 0
        assert "density ODE" in capsys.readouterr().out

    def test_operator_non_integer_q_prints_theta_sides(self, spec_file, tmp_path, capsys):
        payload = {"version": 1, "gamma": {"shapes": [2.0], "lambda": 1.0}, "q": 1.5}
        out = tmp_path / "op.json"
        rc = main(["operator", "--spec", spec_file(payload), "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "lhs: 1 x^0 prod(theta + r) over r in [2.0]" in text
        assert "rhs: 1.5 x^1.5 prod(theta + r) over r in []" in text
        assert json.loads(out.read_text()) == {"theta_form": {
            "lhs": {"coeff": 1.0, "xpow": 0.0, "roots": [2.0]},
            "rhs": {"coeff": 1.5, "xpow": 1.5, "roots": []}}}

    def test_operator_adjoint_non_integer_q_is_one(self, spec_file, capsys):
        payload = {"version": 1, "gamma": {"shapes": [2.0], "lambda": 1.0}, "q": 1.5}
        rc = main(["operator", "--spec", spec_file(payload), "--adjoint"])
        assert rc == 1
        assert "x-power 1.5 is not an integer" in capsys.readouterr().err

    def test_operator_adjoint_integer_q(self, spec_file, capsys):
        # p = 2 x exp(-x^2): x p' = p - 2 x^2 p
        payload = {"version": 1, "gamma": {"shapes": [2.0], "lambda": 1.0}, "q": 2.0}
        rc = main(["operator", "--spec", spec_file(payload), "--adjoint"])
        assert rc == 0
        assert "density ODE: 1 x D + 2 x^2 - 1" in capsys.readouterr().out

    def test_sample_csv(self, spec_file, tmp_path):
        out = tmp_path / "w.csv"
        rc = main(["sample", "--spec", spec_file(PN1), "--count", "100",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "value" and len(rows) == 101

    def test_gfunc(self, capsys):
        rc = main(["gfunc", "--b", "0", "--x", "1.0"])
        assert rc == 0
        assert float(capsys.readouterr().out) == pytest.approx(math.exp(-1), rel=1e-10)

    def test_mellin_csv(self, spec_file, capsys):
        rc = main(["mellin", "--spec", spec_file(PN1), "--grid", "1:3:3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "s,mellin"
        assert float(lines[1].split(",")[1]) == pytest.approx(1.0, rel=1e-12)

    def test_mellin_generalised_gamma(self, spec_file, capsys):
        payload = {"version": 1, "gamma": {"shapes": [1.0, 1.0], "lambda": 1.0}, "q": 2.0}
        rc = main(["mellin", "--spec", spec_file(payload), "--grid", "1:3:3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        # M(3) = E W^2 = (E V^2)^2 with E V^2 = Gamma(3/2) / Gamma(1/2) = 1/2
        assert float(lines[3].split(",")[1]) == pytest.approx(0.25, rel=1e-12)

    def test_stein_solve_csv(self, capsys):
        rc = main(["stein-solve", "--r1", "1", "--r2", "1", "--lam", "1",
                   "--h", "exp", "--grid", "0.1:5:4"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "x,f,residual"
        for line in lines[1:]:
            assert abs(float(line.split(",")[2])) < 1e-6

    def test_stein_solve_at_origin(self, capsys):
        rc = main(["stein-solve", "--r1", "1", "--r2", "1", "--lam", "1",
                   "--h", "exp", "--grid", "0:5:3"])
        assert rc == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        assert len(rows) == 3 and all(math.isfinite(float(v)) for row in rows for v in row)

    def test_cf_column(self, spec_file, capsys):
        rc = main(["cf", "--spec", spec_file(PN1), "--grid", "0:1:3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert float(lines[1].split(",")[1]) == 1.0

    def test_tail_rows(self, spec_file, capsys):
        rc = main(["tail", "--spec", spec_file(XYZ), "--grid", "5:20:7"])
        assert rc == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        assert len(rows) == 7 and all(math.isfinite(float(v)) for row in rows for v in row)
        assert float(rows[2][1]) == dist.tail_asymptotic(load_spec(spec_file(XYZ)), 10.0)

    @pytest.mark.parametrize("command", GRID_COMMANDS)
    def test_grid_command_rows_are_library_values(self, spec_file, capsys, command):
        # each row has the bits of its library call, on the default grid the README lists
        _, default, header, _ = GRID_COMMANDS[command]
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert f"`{command}` `{default}`" in " ".join(readme.split())
        assert main([command, "--spec", spec_file(XYZ)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(header)
        grid, values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).T
        assert grid.tolist() == parse_grid(default).tolist()
        spec = load_spec(spec_file(XYZ))
        expected = {"density": lambda: dist.density(spec).batch(grid),
                    "cf": lambda: [dist.char_function(spec, t) for t in grid],
                    "tail": lambda: dist.tail_asymptotic(spec, grid),
                    "mellin": lambda: [dist.mellin(spec)(s) for s in grid]}[command]()
        assert values.tolist() == np.asarray(expected, dtype=float).tolist()

    def test_density_riemann_sum_near_one(self, spec_file, capsys):
        rc = main(["density", "--spec", spec_file(PN1), "--grid=-4:4:101"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        vals = np.array([float(line.split(",")[1]) for line in lines])
        assert (8.0 / 100.0) * vals.sum() == pytest.approx(1.0, abs=1e-3)


class TestExitCodes:
    def test_validation_error_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"version\": 2}")
        rc = main(["density", "--spec", str(bad), "--grid", "0:1:3"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, payload, message", [
        (["sample", "--count", "0"], XYZ, "count must be >= 1"),
        (["operator"], [1, 2], "must contain a JSON object"),
        (["gfunc", "--a", "1", "2", "--b", "1", "--x", "0.5"], None, "need q >= p"),
        # a bad tolerance ran the contour to "did not converge" or "does not decay" (exit 2),
        # and x = nan printed nan (exit 0)
        (["gfunc", "--b", "1", "--x", "1", "--tolerance", "-1"], None, "tolerance must be"),
        (["gfunc", "--b", "1", "--x", "1", "--tolerance", "nan"], None, "tolerance must be"),
        (["gfunc", "--b", "1", "--x", "nan"], None, "--x must be finite"),
    ], ids=["sample-count-0", "spec-list", "gfunc-p-above-q", "gfunc-negative-tolerance",
            "gfunc-nan-tolerance", "gfunc-nan-x"])
    def test_rejected_input_is_one(self, spec_file, capsys, argv, payload, message):
        spec = [] if payload is None else ["--spec", spec_file(payload)]
        assert main([*argv, *spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert message in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["gfunc", "--b", "1", "--x", "abc"],
        ["density"],
        ["stein-solve", "--r1", "1", "--r2", "1"],
        ["bogus-command"],
        ["verify", "--spec", "s.json", "--suite", "bogus"],
    ], ids=["gfunc-x-not-a-number", "density-no-spec", "stein-solve-no-lam", "unknown-command",
            "verify-unknown-suite"])
    def test_argument_error_is_one(self, capsys, argv):
        # argparse's own exit code 2 and usage lines read as a numerical failure
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_help_is_zero(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0 and capsys.readouterr().out.startswith("usage: steinprod")

    def test_tail_without_normal_is_one(self, spec_file, capsys):
        payload = {"version": 1, "gamma": {"shapes": [1.4], "lambda": 1.0}}
        assert main(["tail", "--spec", spec_file(payload), "--grid", "5:20:3"]) == 1
        assert "symmetric" in capsys.readouterr().err

    def test_verify_suite(self, spec_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["verify", "--spec", spec_file(PN1), "--suite", "mellin",
                   "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["reports"][0]["passed"] is True

    def test_verify_all_runs_applicable_suites(self, spec_file, tmp_path):
        payload = {"version": 1, "gamma": {"shapes": [1.0, 1.0], "lambda": 1.0}, "q": 2.0}
        out = tmp_path / "report.json"
        rc = main(["verify", "--spec", spec_file(payload), "--suite", "all",
                   "--samples", "20000", "--out", str(out)])
        assert rc == 0
        reports = json.loads(out.read_text())["reports"]
        assert [r["test_id"].split("[")[0] for r in reports] == [
            "mc-stein", "adjoint-ode", "mellin-equality", "sampler-ks", "moment-recursion"]
        assert all(r["passed"] for r in reports)

    def test_verify_moment_moved_root_is_two(self, spec_file, capsys, monkeypatch):
        assert main(["verify", "--spec", spec_file(XYZ), "--suite", "moment"]) == 0
        real = verify.stein_sides

        def moved(s):
            lhs, rhs = real(s)
            return replace(lhs, roots=(lhs.roots[0] + 1e-6,) + lhs.roots[1:]), rhs

        monkeypatch.setattr(verify, "stein_sides", moved)
        capsys.readouterr()
        assert main(["verify", "--spec", spec_file(XYZ), "--suite", "moment"]) == 2
        assert capsys.readouterr().out.startswith("[FAIL] moment-recursion[")

    def test_tail_at_zero_is_one(self, spec_file, capsys):
        # the asymptote has no value at x = 0: one error line, no 0,nan row, no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["tail", "--spec", spec_file(PN1), "--grid=-5:5:3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "x = 0" in captured.err

    def test_stein_solve_past_the_cap_is_a_numerical_failure(self, capsys):
        # 2 lam sqrt(x) > 600 is outside the solution's domain: no rows, one error line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["stein-solve", "--r1", "1.4", "--r2", "2.45", "--lam", "1", "--h", "exp",
                         "--grid", "0:1e6:3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "x = 5e+05" in captured.err

    def test_verify_unresolved_is_not_fail(self, spec_file, capsys, monkeypatch):
        real = verify.adjoint_residual_scan

        def unresolved(*args, **kwargs):
            return replace(real(*args, **kwargs), passed=False,
                           details="order 10, unresolved (R = 3.0e+10), grid [0.2, 8]")

        monkeypatch.setattr(verify, "adjoint_residual_scan", unresolved)
        rc = main(["verify", "--spec", spec_file(PN1), "--suite", "adjoint"])
        assert rc == 2
        out = capsys.readouterr().out
        assert out.startswith("[unresolved] adjoint-ode[") and "[FAIL]" not in out

    @pytest.mark.parametrize("command", [
        ["density", "--grid=-inf:1:3"], ["density", "--grid=0:inf:3"],
        ["stein-solve", "--r1", "1", "--r2", "1", "--lam", "1", "--grid=-1:1:3"]])
    def test_bad_grid_is_one(self, spec_file, capsys, command):
        # a one-line error before any value is computed: no nan rows, no RuntimeWarning
        spec = ["--spec", spec_file(XYZ)] if command[0] == "density" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*command, *spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", [
        ["mellin", "--grid", "1:4:2"], ["verify", "--suite", "stein"]])
    def test_mellin_overflow_is_two(self, spec_file, capsys, command):
        # E|W|^{s-1} = Gamma(s) 1e200^{s-1} is past the double range at s = 3 (verify's
        # second moment) and at s = 4
        assert main([command[0], "--spec", spec_file(TINY_RATE), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: E|W|^(s-1) at s = ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command, payload, message", [
        # lam^2 underflows to 0: the operator lost its -lam^2 x side and the density's
        # constant took log(0); lam^2 = 1e400 overflows
        *((c, TINY_RATE2, "coefficient underflows to 0 or overflows") for c in (
            ["density", "--grid", "1:2:2"], ["operator"], ["verify", "--suite", "adjoint"],
            ["verify", "--suite", "ks"], ["verify", "--suite", "mellin"],
            ["verify", "--suite", "moment"])),
        *((c, BIG_RATE2, "coefficient underflows to 0 or overflows") for c in (
            ["density", "--grid", "1:2:2"], ["operator"], ["verify", "--suite", "moment"])),
        # r - 1 rounds onto -1, a pole of the density constant's Gamma(r - 1 + 1)
        (["density", "--grid", "1:2:2"], TINY_SHAPE, "Gamma factor at a pole"),
        (["density", "--grid", "0.1:0.5:2"], {"version": 1, "beta": [[1e-300, 1.0]]},
         "Gamma factor at a pole"),
        # the sampler rejects those rates before any draw (it printed inf or 0 draws), and
        # three gammas at lam = 1e-107 (lam^3 a subnormal) fail on a block with an inf draw
        *((["sample", "--count", "3"], payload, "coefficient underflows to 0 or overflows")
          for payload in (TINY_RATE2, BIG_RATE2, {"version": 1, "gamma": {
              "shapes": [1.4, 2.0, 1.1], "lambda": 1e-110}})),
        (["sample", "--count", "3"], {"version": 1, "gamma": {"shapes": [1.4, 2.0, 1.1],
                                                              "lambda": 1e-107}},
         "a draw is past the double range"),
        # lam / sigma^2 underflows to 0
        (["density", "--grid", "1:2:2"], {"version": 1, "gamma": {"shapes": [1.4], "lambda": 1e-100},
                                          "normal": {"count": 1, "sigma": 1e150}},
         "argument scale 0 is past"),
    ], ids=["tiny-rate2-density", "tiny-rate2-operator", "tiny-rate2-adjoint", "tiny-rate2-ks",
            "tiny-rate2-mellin", "tiny-rate2-moment", "big-rate2-density", "big-rate2-operator",
            "big-rate2-moment", "tiny-shape-density", "tiny-beta-density", "tiny-rate2-sample",
            "big-rate2-sample", "tiny-rate3-sample", "small-rate3-sample", "tiny-scale-density"])
    def test_parameter_past_the_double_range_is_two(self, spec_file, capsys, command, payload,
                                                    message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command[0], "--spec", spec_file(payload), *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("numerical failure: ") and message in err
        assert err.count("\n") == 1 and out == ""

    def test_unknown_test_function(self, capsys):
        rc = main(["stein-solve", "--r1", "1", "--r2", "1", "--lam", "1",
                   "--h", "nope", "--grid", "0.1:5:3"])
        assert rc == 1

    @pytest.mark.parametrize("command, payload", [
        (["operator"], {"version": 1, "gamma": {"shapes": [2.0], "lambda": 1.0}, "q": math.inf}),
        (["density", "--grid", "0.5:2:3"],
         {"version": 1, "gamma": {"shapes": [2.0], "lambda": math.inf}}),
    ])
    def test_infinite_parameter_is_one(self, spec_file, capsys, command, payload):
        rc = main([command[0], "--spec", spec_file(payload), *command[1:]])
        assert rc == 1
        assert "finite" in capsys.readouterr().err

    def test_three_beta_density_near_one(self, spec_file, capsys):
        # a pure product of three betas has q = p: Norlund's expansion takes x near 1
        payload = {"version": 1, "beta": [[1.3, 0.6], [2.0, 1.5], [0.8, 1.1]]}
        rc = main(["density", "--spec", spec_file(payload), "--grid", "0.9:0.999:4"])
        assert rc == 0
        xs, values = np.loadtxt(io.StringIO(capsys.readouterr().out), delimiter=",",
                                skiprows=1).T
        ev = dist.density(load_spec(spec_file(payload)))
        g = lambda x: mp.meijerg([[], list(ev.reduced.a)], [list(ev.reduced.b), []], x)
        ref = [float(mp.exp(ev.log_const) * g(float(x))) for x in xs]
        np.testing.assert_allclose(values, ref, rtol=1e-12, atol=0)

    def test_verify_one_sample_is_one(self, spec_file, capsys):
        rc = main(["verify", "--spec", spec_file(XYZ), "--suite", "stein", "--samples", "1"])
        assert rc == 1
        assert "samples >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, grid, message", [
        ({"version": 1, "beta": [[200.0, 150.0]]}, "0.2:0.8:3", "overflows"),
        ({"version": 1, "beta": [[0.5, 300.0]]}, "0.2:0.8:3", "overflows"),
    ])
    def test_density_out_of_range_is_two(self, spec_file, capsys, payload, grid, message):
        rc = main(["density", "--spec", spec_file(payload), f"--grid={grid}"])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_density_below_the_argument_underflow_is_the_origin_value(self, spec_file, capsys):
        # kappa x^2 underflows to 0 (exit 2 while the G route raised there): the residue
        # series in ln z gives the x = 0 value within 1e-12
        path = spec_file(XYZ)
        assert main(["density", "--spec", path, "--grid=0:1:2"]) == 0
        at_zero = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert main(["density", "--spec", path, "--grid=1e-170:2e-170:2"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            assert float(row.split(",")[1]) == pytest.approx(at_zero, rel=1e-12)

    def test_numerical_failure_is_two(self, spec_file, capsys, monkeypatch):
        def fail(ev, xs):
            raise NumericalError("batch step-halving did not converge")
        monkeypatch.setattr(dist.DensityEvaluator, "batch", fail)
        rc = main(["density", "--spec", spec_file(PN1), "--grid", "0.5:2:3"])
        assert rc == 2
        assert "numerical failure" in capsys.readouterr().err
