import functools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from latticeforge import cli, lattice, measure, potential, stability


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
        curve = stability.stability_curve(
            P, mu, cli._parse_range("0.5:0.7:0.1"), rtol=1e-3)
        assert loose["curve"] == [[e, t] for e, t in curve]
        assert loose["sign_changes"] == stability.sign_changes(
            P, mu, curve, rtol=1e-3)

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


class TestMinimize:
    def test_triangular_found(self, capsys):
        assert run_cli(
            ["minimize", "--potential", "gaussian:alpha=3.141592653589793",
             "--measure", "gauss:sigma=1", "--x-steps", "15",
             "--y-steps", "15"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dist_to_triangular"] <= 1e-4
        assert payload["converged"]
        assert len(payload["candidates"]) == 5


class TestPoissonCheck:
    def test_square(self, capsys):
        assert run_cli(
            ["poisson-check", "--potential", "gaussian:alpha=2",
             "--lattice", "0,1", "--z", "0.3,0.1"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diff"] <= 1e-10


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
        monkeypatch.setattr(
            lattice, "enumerate_points",
            functools.partial(lattice.enumerate_points, cap=10**4),
        )

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
        (["poisson-check"] + _GAUSS + ["--lattice", "0,1", "--z", "inf,0"],
         2, "--z:"),
        (["poisson-check"] + _GAUSS + ["--lattice", "0,1", "--z", "nan,0"],
         2, "--z:"),
        (["poisson-check"] + _GAUSS + ["--lattice", "0,1", "--z", "1"],
         2, "--z:"),
        (["poisson-check"] + _GAUSS + ["--lattice", "0,1", "--z", "1,2,3"],
         2, "--z:"),
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
        # no cutoff of the shifted inverse-power sum can close its tail
        # below the point cap: exit 3 from the first box
        (["poisson-check", "--potential", "invpower:a=1,s=2", "--lattice", "0,1",
          "--z", "0.3,0.1"], 3, "lattice sum too wide for --potential invpower"),
    ])
    def test_bad_input(self, argv, code, needle, capsys):
        assert run_cli(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert needle in captured.err

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
    "poisson-check": ["poisson-check"] + _GAUSS + ["--lattice", "0,1"],
}
# the formats each command writes; the first is its default
_FORMATS = {"energy": ["json"], "theta": ["json"], "scan": ["csv", "json"],
            "stability": ["csv", "json", "svg"], "minimize": ["json"],
            "poisson-check": ["json"]}


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


def test_cli_import_leaves_out_quadrature():
    # scipy.integrate is slow to import and only energies integrate
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, latticeforge.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
