import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latticeforge import cli, energy, lattice, measure, potential, stability


def run_cli(args):
    return cli.main(args)


class TestTheta:
    def test_square_value(self, capsys):
        assert run_cli(["theta", "--lattice", "0,1", "--t", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(1.1803406, abs=1e-6)
        assert payload["lattice"] == [0.0, 1.0]

    def test_huge_t_is_one_without_overflow(self, capsys):
        # pi t q and the tail bound's 2 t overflow to inf: exp(-inf) = 0
        assert run_cli(["theta", "--lattice", "0,1", "--t", "5e307"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["value"] == 1.0
        assert captured.err == ""

    def test_output_file(self, tmp_path):
        out = tmp_path / "theta.json"
        assert run_cli(
            ["theta", "--lattice", "0.5,0.8660254037844386", "--t", "2",
             "--output", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "theta"
        assert payload["value"] > 1.0


class TestEnergy:
    def test_json_report(self, capsys):
        assert run_cli(
            ["energy", "--potential", "gaussian:alpha=3.141592653589793",
             "--measure", "gauss:sigma=1", "--lattice", "0,1"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(
            payload["lattice_part"] + payload["constant_part"], abs=1e-12
        )
        assert payload["terms_used"] > 0

    def test_profile_measure(self, tmp_path, capsys):
        prof = tmp_path / "disk.csv"
        lines = ["# s,density"]
        n = 200
        for i in range(n + 1):
            s = i / n
            lines.append(f"{s},{2.0 * s}")
        prof.write_text("\n".join(lines) + "\n")
        assert run_cli(
            ["energy", "--potential", "gaussian:alpha=2",
             "--measure", f"profile:file={prof}", "--lattice", "0.5,1.5"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert math.isfinite(payload["value"])


class TestStability:
    def test_csv_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli(
            ["stability", "--potential", "gaussian:alpha=3.141592653589793",
             "--measure", "disk:r=1", "--eps", "0.4:0.8:0.1",
             "--output", str(out)]
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "# lattice-forge v1"
        assert lines[1] == "eps,T"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[2:]]
        assert [r[0] for r in rows] == pytest.approx([0.4, 0.5, 0.6, 0.7, 0.8])
        assert rows[0][1] > 0.0  # concentrated disk: stable
        assert rows[3][1] < 0.0  # eps = 0.7, past the first sign change

    def test_svg_output(self, tmp_path):
        out = tmp_path / "curve.svg"
        assert run_cli(
            ["stability", "--potential", "gaussian:alpha=3.141592653589793",
             "--measure", "disk:r=1", "--eps", "0.4:0.8:0.2",
             "--format", "svg", "--output", str(out)]
        ) == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert "<polyline" in svg
        assert "<line" in svg  # zero axis

    def test_rtol_reaches_the_curve(self, capsys):
        # alpha = 20 keeps Phi wide enough that the ring loop's stop, and so
        # T's last digits, depend on rtol
        args = ["stability", "--potential", "gaussian:alpha=20",
                "--measure", "disk:r=1", "--eps", "0.5:0.7:0.1",
                "--format", "json"]
        assert run_cli(args + ["--rtol", "1e-3"]) == 0
        loose = json.loads(capsys.readouterr().out)
        assert run_cli(args) == 0
        assert json.loads(capsys.readouterr().out)["curve"] != loose["curve"]
        P, mu = potential.gaussian(20.0), measure.uniform_disk(1.0)
        eps = cli._parse_range("0.5:0.7:0.1")
        T = stability.t_coefficient_diffuse(P, mu, eps, rtol=1e-3)
        assert loose["curve"] == [[e, t] for e, t in zip(eps.tolist(), T.tolist())]
        assert loose["sign_changes"] == stability.sign_changes(
            P, mu, eps, T, rtol=1e-3)

    def test_json_with_sign_changes(self, tmp_path):
        out = tmp_path / "curve.json"
        assert run_cli(
            ["stability", "--potential", "gaussian:alpha=3.141592653589793",
             "--measure", "disk:r=1", "--eps", "0.5:0.7:0.1",
             "--format", "json", "--output", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert len(payload["sign_changes"]) == 1
        assert 0.6 <= payload["sign_changes"][0] <= 0.7


    @pytest.mark.parametrize("spec, count, last", [
        ("0:1.05:0.3", 4, 0.9),  # n = 3.5 steps: no point past hi
        ("0:0.26:0.1", 3, 0.2),
        ("0.05:0.45:0.05", 9, 0.45),  # n just off 8 by roundoff keeps hi
        ("0.7:0.7:0.1", 1, 0.7),
    ])
    def test_eps_grid_stops_at_or_before_hi(self, spec, count, last):
        grid = cli._parse_range(spec)
        assert len(grid) == count
        assert grid[-1] == pytest.approx(last, rel=1e-12)


_THEOREM_2 = "completely monotone summand (Theorem 2)"
_TRIANGULAR = [0.5, 0.8660254037844386]


def _assert_certified(payload) -> None:
    """A minimize payload that is the Theorem-2 answer, with no search."""
    assert payload.get("certificate") == _THEOREM_2
    assert payload["point"] == _TRIANGULAR
    assert (payload["dist_to_triangular"], payload["iterations"],
            payload["converged"], payload["candidates"]) == (0.0, 0, True, [])


class TestMinimize:
    def test_triangular_found(self, capsys):
        # a Gaussian particle: certified, the grid is not scanned
        assert run_cli(
            ["minimize", "--potential", "gaussian:alpha=3.141592653589793",
             "--measure", "gauss:sigma=1", "--x-steps", "15",
             "--y-steps", "15"]
        ) == 0
        _assert_certified(json.loads(capsys.readouterr().out))

    def test_disk_particle_searches(self, capsys):
        assert run_cli(
            ["minimize", "--potential", "gaussian:alpha=3.141592653589793",
             "--measure", "disk:r=1", "--x-steps", "15",
             "--y-steps", "15"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"]
        assert len(payload["candidates"]) == 5
        assert "certificate" not in payload

    @pytest.mark.parametrize("pot_spec", [
        "gaussian:alpha=1", "gaussian:alpha=3.141592653589793",
        "invpower:a=1,s=2", "laplace:atoms=[(0.5,1),(3,2)]"])
    @pytest.mark.parametrize("mu_spec", [
        "dirac", "gauss:sigma=0.2", "gauss:sigma=1", "gauss:sigma=3"])
    def test_certified_route(self, pot_spec, mu_spec, capsys):
        assert run_cli(["minimize", "--potential", pot_spec,
                        "--measure", mu_spec]) == 0
        payload = json.loads(capsys.readouterr().out)
        _assert_certified(payload)
        E = energy.diffuse_energy_fn(potential.parse_potential(pot_spec),
                                     measure.parse_measure(mu_spec))
        assert payload["energy"] == E(0.5, math.sqrt(3.0) / 2.0)

    def test_spread_limit_is_triangular(self, capsys):
        # sigma^2 overflows: g = 0 at every p != 0, so every lattice ties at
        # 0; the certificate still names the triangular lattice
        assert run_cli(["minimize"] + _GAUSS + ["--measure", "gauss:sigma=1e200"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        _assert_certified(payload)
        assert payload["energy"] == 0.0
        assert captured.err == ""

    def test_certified_energy_not_finite_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(energy, "diffuse_energy_fn",
                            lambda *args, **kwargs: lambda x, y: math.inf)
        assert run_cli(["minimize"] + _GAUSS) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: E is not finite at the triangular")


class TestErrorsAndDeterminism:
    def test_bad_potential_exit_2(self, capsys):
        assert run_cli(
            ["energy", "--potential", "bogus:alpha=1", "--lattice", "0,1"]
        ) == 2
        assert "bogus" in capsys.readouterr().err

    def test_bad_measure_exit_2(self, capsys):
        assert run_cli(
            ["energy", "--potential", "gaussian:alpha=1",
             "--measure", "ring:r=1", "--lattice", "0,1"]
        ) == 2
        assert "ring" in capsys.readouterr().err

    def test_bad_lattice_exit_2(self):
        assert run_cli(
            ["theta", "--lattice", "0.3,0.2", "--t", "1"]
        ) == 2

    def test_reruns_byte_identical(self, tmp_path):
        args = ["stability", "--potential", "gaussian:alpha=2",
                "--measure", "disk:r=1", "--eps", "0.3:0.6:0.1"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--output", str(a)]) == 0
        assert run_cli(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_reruns_identical(self, tmp_path):
        args = ["energy", "--potential", "gaussian:alpha=1",
                "--measure", "gauss:sigma=0.5", "--lattice", "0.2,1.3"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(args + ["--output", str(a)]) == 0
        assert run_cli(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCsvWriter:
    @staticmethod
    def _per_value(columns, rows) -> str:
        # one format() call per value, the writer's former rule
        lines = [cli.CSV_MAGIC, ",".join(columns)]
        lines += [",".join(format(float(v), ".17g") for v in row) for row in rows]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("rows", [
        np.array([[math.inf, -math.inf, math.nan], [-0.0, 0.0, 1e-300],
                  [0.1 + 0.2, 1.0 / 3.0, 5e-324], [1.7976931348623157e308,
                                                   -2.2250738585072014e-308, 7.0]]),
        [(0.05, 1.2345678901234567), (0.1, -math.nan), (0.15, -0.0)],
        [],
    ], ids=["array", "tuples", "empty"])
    def test_bytes_match_per_value_join(self, rows, capsys):
        columns = ["x", "y", "E"] if isinstance(rows, np.ndarray) else ["eps", "T"]
        cli._write_csv("-", columns, rows)
        assert capsys.readouterr().out == self._per_value(columns, rows)


_GAUSS = ["--potential", "gaussian:alpha=3.141592653589793"]
_CURVE = ["stability"] + _GAUSS + ["--measure", "disk:r=1"]


class TestExitCodeContract:
    @pytest.fixture(autouse=True)
    def small_point_cap(self, monkeypatch):
        # a 10^4-candidate cap makes a too-wide sum fail at once instead of
        # after building boxes of up to 10^7 candidates
        monkeypatch.setattr(lattice, "_POINT_CAP", 10**4)

    @pytest.mark.parametrize("argv, code, needle", [
        (["theta", "--lattice", "0,1", "--t", "1e-6"], 3, "--t 1e-06"),
        (_CURVE + ["--eps", "1:0:0.1"], 2, "--eps"),
        (_CURVE + ["--eps", "1:0:0.1", "--format", "svg"], 2, "--eps"),
        (_CURVE + ["--eps", "0:inf:0.1"], 2, "--eps"),
        (_CURVE + ["--eps", "nan:1:0.1", "--format", "json"], 2, "--eps"),
        (_CURVE + ["--eps", "0:1:nan"], 2, "--eps"),
        (["energy"] + _GAUSS + ["--measure", "disk:r=inf", "--lattice", "0,1"],
         2, "disk radius"),
        (["energy"] + _GAUSS + ["--measure", "gauss:sigma=nan",
                                "--lattice", "0,1"], 2, "gaussian width"),
        (["energy"] + _GAUSS + ["--lattice", "0.5,inf"], 2, "lattice"),
        (["theta", "--lattice", "nan,1", "--t", "1"], 2, "lattice"),
        (["energy"] + _GAUSS + ["--lattice", "0,1", "--rtol", "-1"], 2, "--rtol"),
        (["energy"] + _GAUSS + ["--lattice", "0,1", "--rtol", "nan"], 2, "--rtol"),
        (["energy"] + _GAUSS + ["--lattice", "0,1", "--rtol", "0"], 2, "--rtol"),
        (["theta", "--lattice", "0,1", "--t", "1", "--rtol", "inf"], 2, "--rtol"),
        # a dirac particle skips the search, but its numbers are checked first
        (["minimize"] + _GAUSS + ["--tol", "nan"], 2, "--tol"),
        (["scan"] + _GAUSS + ["--x-steps", "0", "--format", "json"], 2,
         "--x-steps"),
        (["scan"] + _GAUSS + ["--x-steps", "0"], 2, "--x-steps"),
        (["minimize"] + _GAUSS + ["--x-steps", "0"], 2, "--x-steps"),
        (["scan"] + _GAUSS + ["--y-steps", "-3"], 2, "--y-steps"),
        (["minimize"] + _GAUSS + ["--y-max", "nan"], 2, "--y-max"),
        (["scan"] + _GAUSS + ["--y-max", "0.2"], 2, "--y-max"),
        (["energy", "--potential", "gaussian:alpha=inf", "--lattice", "0,1"],
         2, "gaussian alpha"),
        (["energy", "--potential", "invpower:a=1,s=inf", "--lattice", "0,1"],
         2, "s=inf"),
        (["energy", "--potential", "invpower:a=nan,s=2", "--lattice", "0,1"],
         2, "a=nan"),
        (["energy", "--potential", "laplace:atoms=[(1,inf)]",
          "--lattice", "0,1"], 2, "node weight"),
        (["energy", "--potential", "laplace:atoms=[(1,nan)]",
          "--lattice", "0,1"], 2, "node weight"),
        (["energy", "--potential", "laplace:atoms=[(inf,1)]",
          "--lattice", "0,1"], 2, "node position"),
        (["theta", "--lattice", "0,1", "--t", "inf"], 2, "--t:"),
        (["theta", "--lattice", "0,1", "--t", "nan"], 2, "--t:"),
        # an --eps that is not three numbers names the flag
        (_CURVE + ["--eps", "a:1:0.1"], 2,
         "--eps: expected three numbers 'lo:hi:step', got 'a:1:0.1'"),
        (_CURVE + ["--eps", "0:b:0.1"], 2,
         "--eps: expected three numbers 'lo:hi:step', got '0:b:0.1'"),
        (_CURVE + ["--eps", "0:1:c"], 2,
         "--eps: expected three numbers 'lo:hi:step', got '0:1:c'"),
        (_CURVE + ["--eps", "0:1"], 2,
         "--eps: expected three numbers 'lo:hi:step', got '0:1'"),
        (["energy"] + _GAUSS + ["--lattice", "a,b"], 2,
         "--lattice: expected two finite numbers 'x,y', got 'a,b'"),
        (_CURVE + ["--eps=-0.2:0.2:0.2"], 2, "--eps: eps must be >= 0"),
        # grids far too large to allocate, rejected before any allocation
        (["stability", "--potential", "gaussian:alpha=2", "--eps", "0:1e9:1e-9"],
         2, "--eps"),
        (_CURVE + ["--eps", "0:1e300:1e-300"], 2, "--eps"),
        (_CURVE + ["--eps", "0:1e30:1e-10"], 2, "--eps"),
        (["scan"] + _GAUSS + ["--y-steps", "10000000000000"], 2, "--y-steps"),
        (["minimize"] + _GAUSS + ["--y-steps", "10000000000000"], 2, "--y-steps"),
        (["scan"] + _GAUSS + ["--x-steps", "10000000000000"], 2, "--x-steps"),
        # unreadable profile files and an unwritable output path
        (["energy", "--potential", "gaussian:alpha=2", "--measure",
          "profile:file=/nonexistent/profile.csv", "--lattice", "0,1"],
         2, "/nonexistent/profile.csv"),
        (["energy", "--potential", "gaussian:alpha=2", "--measure",
          "profile:file=.", "--lattice", "0,1"], 2, "profile file '.'"),
        (["theta", "--lattice", "0,1", "--t", "1",
          "--output", "/nonexistent/dir/x.json"], 2, "--output: "),
        # particle scales that overflow on the way to T: exit 3, not a
        # curve holding inf or nan
        (["stability"] + _GAUSS + ["--measure", "gauss:sigma=1e200",
                                   "--eps", "0:1:0.5"], 3, "T is not finite at eps = 0.5"),
        (["stability"] + _GAUSS + ["--measure", "disk:r=1e300",
                                   "--eps", "0:1:0.5"], 3, "disk:r=1e300"),
        (["stability"] + _GAUSS + ["--measure", "disk:r=1e300", "--eps", "0:1:0.5",
                                   "--format", "json"], 3, "not finite"),
        (["stability"] + _GAUSS + ["--measure", "disk:r=1e300", "--eps", "0:1:0.5",
                                   "--format", "svg"], 3, "not finite"),
        # J1 is nan at X = inf: the engine stops in round 1, not at the cap
        (["energy", "--potential", "gaussian:alpha=2", "--measure", "disk:r=1e308",
          "--lattice", "0,1"], 3, "lattice sum is not finite (nan) at cutoff R = "),
        (["stability", "--potential", "gaussian:alpha=2", "--measure", "disk:r=1e308",
          "--eps", "0:1:0.5"], 3, "lattice sum is not finite (nan) at cutoff R = "),
        # four fields are not three numbers either
        (_CURVE + ["--eps", "0:1:0.1:2"], 2,
         "--eps: expected three numbers 'lo:hi:step', got '0:1:0.1:2'"),
        # a y grid up to the float limit stays finite: its top lattices are
        # too wide to sum
        (["scan"] + _GAUSS + ["--y-max", "1e308", "--y-steps", "3", "--x-steps", "2"],
         3, "lattice sum too wide"),
        (["minimize"] + _GAUSS + ["--measure", "disk:r=1", "--y-max", "1e308",
                                  "--y-steps", "3", "--x-steps", "2"],
         3, "lattice sum too wide"),
        # a particle so wide that E is flat: its Hessian is 0 * inf = nan, and
        # the search stops instead of reporting every seed converged
        (["minimize"] + _GAUSS + ["--measure", "disk:r=1e300", "--x-steps", "2",
                                  "--y-steps", "2"], 3, "not finite"),
        # Gamma(s + 1) past the float range: no inverse-power nodes
        (["energy", "--potential", "invpower:a=1,s=171", "--lattice", "0,1"],
         2, "invpower s=171.0 is too large"),
        (["energy", "--potential", "invpower:a=1,s=1e300", "--lattice", "0,1"],
         2, "invpower s=1e+300 is too large"),
        # fhat(0) = sum w pi / t overflows, so every E of the grid is inf:
        # exit 3, not inf in the CSV or Infinity in the JSON
        (["scan", "--potential", "laplace:atoms=[(1e-300,5e7),(1e-300,5e7)]"], 3,
         "E is not finite at (x, y) = (0.0, 1.0); a scale in --potential laplace"),
        (["scan", "--potential", "laplace:atoms=[(1e-300,5e7),(1e-300,5e7)]",
          "--format", "json"], 3, "E is not finite at (x, y) = (0.0, 1.0)"),
        # each key of a spec is given once: a repeat is not the last value
        (["energy", "--potential", "gaussian:alpha=1,alpha=2", "--lattice", "0,1"],
         2, "'gaussian:alpha=1,alpha=2'"),
        (["energy", "--potential", "invpower:a=1,s=2,s=3", "--lattice", "0,1"],
         2, "'invpower:a=1,s=2,s=3'"),
        # an atom list has one comma between pairs and none after the last
        (["energy", "--potential", "laplace:atoms=[(1,1)(2,0.5)]", "--lattice", "0,1"],
         2, "'laplace:atoms=[(1,1)(2,0.5)]'"),
        (["energy", "--potential", "laplace:atoms=[(1,1),,,(2,0.5)]",
          "--lattice", "0,1"], 2, "'laplace:atoms=[(1,1),,,(2,0.5)]'"),
        (["energy", "--potential", "laplace:atoms=[(1,1),(2,0.5),]",
          "--lattice", "0,1"], 2, "'laplace:atoms=[(1,1),(2,0.5),]'"),
    ])
    def test_bad_input(self, argv, code, needle, capsys):
        assert run_cli(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert needle in captured.err

    @pytest.mark.parametrize("argv, code", [
        # pi / t overflows to inf in the tail bound; the box passes the cap
        (["theta", "--lattice", "0,1", "--t", "1e-320"], 3),
        # Fourier nodes near 1e201: t^2 overflows where a weight underflows
        (["energy", "--potential", "invpower:a=1e200,s=2", "--lattice", "0,1"], 0),
        # and q t overflows in exp(-q t), which is 0
        (["scan", "--potential", "invpower:a=1e300,s=2", "--measure", "disk:r=1",
          "--x-steps", "2", "--y-steps", "2"], 0),
    ], ids=["theta-t-1e-320", "energy-invpower-a-1e200", "scan-invpower-a-1e300"])
    def test_extreme_valid_input_warns_nothing(self, argv, code):
        # a RuntimeWarning is an error here
        assert run_cli(argv) == code

    def test_certified_minimize_ignores_a_huge_y_max(self, capsys):
        # the disk row above exits 3 on this grid; a dirac particle has no
        # grid to sum, only the triangular lattice
        assert run_cli(["minimize"] + _GAUSS + ["--y-max", "1e308", "--y-steps", "3",
                                                "--x-steps", "2"]) == 0
        captured = capsys.readouterr()
        _assert_certified(json.loads(captured.out))
        assert captured.err == ""

    def test_overflowing_gaussian_width_gives_the_spread_limit(self, capsys):
        # sigma^2 overflows to inf: g = 0 at every p != 0, and E is
        # fhat(0) = 1, the limit of a particle spread over the plane
        assert run_cli(["energy"] + _GAUSS + ["--measure", "gauss:sigma=1e200",
                                              "--lattice", "0,1"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["value"] == 1.0
        assert captured.err == ""

    @pytest.mark.parametrize("rows", [
        "0,0\n0.5,1\ninf,0\n",
        "0,0\n0.5,nan\n1,0\n",
        "0,0\n0.5,inf\n1,0\n",
    ], ids=["inf-radius", "nan-density", "inf-density"])
    def test_bad_profile(self, rows, tmp_path, capsys):
        prof = tmp_path / "profile.csv"
        prof.write_text(rows)
        self.test_bad_input(["energy"] + _GAUSS + [
            "--measure", f"profile:file={prof}", "--lattice", "0,1",
        ], 2, "must be finite", capsys)


_FORMAT_ARGV = {
    "energy": ["energy"] + _GAUSS + ["--lattice", "0,1"],
    "theta": ["theta", "--lattice", "0,1", "--t", "1"],
    "scan": ["scan"] + _GAUSS,
    "stability": _CURVE + ["--eps", "0.4:0.8:0.1"],
    "minimize": ["minimize"] + _GAUSS,
}
# the formats each command writes; the first is its default
_FORMATS = {"energy": ["json"], "theta": ["json"], "scan": ["csv", "json"],
            "stability": ["csv", "json", "svg"], "minimize": ["json"]}


@pytest.mark.parametrize("command, fmt", [
    (c, f) for c in _FORMATS for f in ("csv", "json", "svg")
    if f not in _FORMATS[c]])
def test_format_a_command_does_not_write_exits_2(command, fmt, capsys):
    argv = _FORMAT_ARGV[command]
    assert cli.build_parser().parse_args(argv).format == _FORMATS[command][0]
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--format", fmt])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("argv, needle", [
    (["poisson-check"] + _GAUSS + ["--lattice", "0,1"],
     "invalid choice: 'poisson-check'"),
    (["energy"] + _GAUSS + ["--lattice", "0,1", "--z", "0.3,0.1"],
     "unrecognized arguments: --z 0.3,0.1"),
], ids=["poisson-check", "--z"])
def test_retired_poisson_check_surface_exits_2(argv, needle, capsys):
    # the subcommand and its --z flag are gone: argparse rejects both
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert needle in captured.err


def test_cli_import_leaves_out_quadrature(tmp_path):
    # scipy.integrate is slow to import, and no command integrates: the
    # constant (f*mu*mu)(0) has a closed form per particle family
    src = os.path.dirname(os.path.dirname(cli.__file__))
    output = ["--output", str(tmp_path / "out")]
    runs = [
        ["energy", "--potential", "invpower:a=1,s=2", "--measure", "disk:r=1",
         "--lattice", "0.2,1.3"] + output,
        ["energy"] + _GAUSS + ["--measure", "gauss:sigma=1", "--lattice", "0,1"] + output,
        ["scan"] + _GAUSS + ["--measure", "disk:r=1", "--x-steps", "3",
                             "--y-steps", "3"] + output,
    ]
    code = (
        "import sys, latticeforge.cli as cli\n"
        "print('scipy.integrate' in sys.modules)\n"
        f"for argv in {runs!r}:\n"
        "    assert cli.main(argv) == 0\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.split() == ["False", "False"]


def test_readme_spec_grammar_parses(tmp_path):
    # each form on README's spec lines, filled in with sample values, parses
    # to its kind; the CLI help and the parsers' tables hold the same forms
    csv = tmp_path / "ring.csv"
    csv.write_text("0,0\n0.5,1\n1,0\n")
    text = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    forms = {family: re.findall(r"`([^`]*)`", items) for family, items in
             re.findall(r"(Potential|Measure) specs: ((?:`[^`]*`(?:, )?)+)", text)}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help.split(" | ") for a in sub.choices["energy"]._actions
             if a.dest in ("potential", "measure")}
    assert forms == {"Potential": helps["potential"], "Measure": helps["measure"]}
    blanks = {"<f>": "2", "(t,w),...": "(1,0.5),(2,0.25)", "<path>": str(csv)}

    def fill(form):
        for blank, value in blanks.items():
            form = form.replace(blank, value)
        return form

    filled = {family: {form.partition(":")[0]: fill(form) for form in found}
              for family, found in forms.items()}
    potentials = {"gaussian": potential.gaussian(2.0),
                  "invpower": potential.inverse_power(2.0, 2.0),
                  "laplace": potential.from_atoms([(1, 0.5), (2, 0.25)])}
    assert filled["Potential"].keys() == potential._POTENTIALS.keys()
    for kind, spec in filled["Potential"].items():
        assert potential.parse_potential(spec) == potentials[kind], spec
    kinds = {"dirac": "dirac", "disk": "disk", "gauss": "gaussian",
             "profile": "profile"}
    assert filled["Measure"].keys() == measure._MEASURES.keys()
    for head, spec in filled["Measure"].items():
        assert measure.parse_measure(spec).kind == kinds[head], spec
