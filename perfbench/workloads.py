"""The three workloads: the commands of one round and the checks on their output.

A round is a fixed list of ``lattice-forge`` commands.  Every command is
checked against ``oracles`` (computed apart from the package) or against
a property the method must have; none is compared with stored output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as O

ALPHA = math.pi
GAUSS_POT = f"gaussian:alpha={ALPHA!r}"
INVPOWER_POT = "invpower:a=1,s=2"
DISK = "disk:r=1"
GAUSS_MU = "gauss:sigma=1"

RTOL = 1e-10           # the CLI's default --rtol
T_SHARE = 1e-6         # allowed |T - T_oracle| as a share of max |T_oracle|
XTOL = 0.01            # bisection width used by stability.sign_changes
CSV_MAGIC = "# lattice-forge v1"


class Workload:
    """A seeded workload: ``round(i)`` gives the commands of round i."""

    name = ""
    kinds: tuple[str, ...] = ()
    known_fault: frozenset[str] = frozenset()  # kinds that fail from a known fault
    potentials: list[str] = []
    measures: list[str] = []

    def cleanup(self) -> None:
        pass


@dataclass
class Op:
    """One command: its kind, its argv and the check of its stdout."""

    kind: str
    argv: list[str]
    check: Callable[[str], list[str]]  # stdout text -> problems found


def _read_csv(text: str, columns: list[str]) -> np.ndarray:
    lines = text.splitlines()
    if len(lines) < 2 or lines[0] != CSV_MAGIC or lines[1] != ",".join(columns):
        raise ValueError("CSV header is not the documented one")
    rows = list(csv.reader(io.StringIO("\n".join(lines[2:]))))
    return np.array(rows, dtype=float).reshape(-1, len(columns))


def _eps_grid(lo: float, hi: float, step: float) -> np.ndarray:
    return lo + step * np.arange(int(round((hi - lo) / step)) + 1)


def _check_curve(eps: np.ndarray, T: np.ndarray, grid: np.ndarray,
                 T_ref: np.ndarray, T_max: float) -> list[str]:
    """T_max is max |T_oracle| over the whole curve the chunk belongs to."""
    if len(eps) != len(grid) or np.max(np.abs(eps - grid)) > 1e-12:
        return ["eps grid differs from the requested one"]
    err = np.abs(T - T_ref)
    tol = T_SHARE * T_max
    bad = np.flatnonzero(err > tol)
    if bad.size:
        i = int(bad[0])
        return [f"T({grid[i]:.3f}) = {T[i]:.12g}, oracle {T_ref[i]:.12g} "
                f"(|diff| {err[i]:.2e} > {tol:.2e}); {bad.size} points off"]
    return []


# ---------------------------------------------------------------------------
# stability-curves
# ---------------------------------------------------------------------------

def _chunks(lo: float, hi: float, step: float, per: int) -> list[str]:
    """``--eps`` specs that cover the grid lo:hi:step with ``per`` steps
    each; neighbours share their end point, so every pair of adjacent grid
    points, and the sign change between them, falls in one chunk."""
    n = int(round((hi - lo) / step))
    return [f"{lo + a * step:.10g}:{lo + min(a + per, n) * step:.10g}:{step!r}"
            for a in range(0, n, per)]


class StabilityCurves(Workload):
    """The figure curve with its sign changes, and a tabulated-profile curve,
    each asked for in chunks of a few tenths of a second."""

    name = "stability-curves"
    kinds = ("curve", "profile_curve")
    FIG_EPS = (0.05, 5.0, 0.05)
    PROFILE_EPS = (0.25, 5.0, 0.25)
    FIG_CHUNK = 10     # grid steps per figure-curve command
    PROFILE_CHUNK = 5  # grid steps per profile-curve command

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        # a smooth ring: psi-density s exp(-((s - s0)/w)^2), not a disk; on
        # this range of s0 the T curve costs the same within a few percent
        s0 = float(rng.uniform(0.48, 0.72))
        w = 0.2
        self.s = np.linspace(0.0, s0 + 3.0 * w, 40)
        self.d = self.s * np.exp(-(((self.s - s0) / w) ** 2))
        self.profile_path = workdir / f"profile-{seed}.csv"
        self.profile_path.write_text(
            "# s,density\n"
            + "".join(f"{a!r},{b!r}\n" for a, b in zip(self.s.tolist(), self.d.tolist()))
        )
        profile_spec = f"profile:file={self.profile_path}"
        self.potentials, self.measures = [GAUSS_POT], [DISK, profile_spec]
        self._t_maxes: dict[str, float] = {}
        self._ops = [
            Op("curve", ["stability", "--potential", GAUSS_POT, "--measure", DISK,
                         "--eps", eps, "--format", "json"],
               self._on_grid(self.check_figure, eps))
            for eps in _chunks(*self.FIG_EPS, self.FIG_CHUNK)
        ] + [
            Op("profile_curve", ["stability", "--potential", GAUSS_POT,
                                 "--measure", profile_spec, "--eps", eps,
                                 "--format", "csv"],
               self._on_grid(self.check_profile, eps))
            for eps in _chunks(*self.PROFILE_EPS, self.PROFILE_CHUNK)
        ]

    def round(self, i: int) -> list[Op]:
        return self._ops

    def cleanup(self) -> None:
        self.profile_path.unlink(missing_ok=True)

    def _t_max(self, key: str, g, eps) -> float:
        """max |T_oracle| over a whole curve, computed once."""
        if key not in self._t_maxes:
            self._t_maxes[key] = float(np.max(np.abs(
                O.t_fd(O.Gaussian(ALPHA), g, _eps_grid(*eps)))))
        return self._t_maxes[key]

    @staticmethod
    def _on_grid(check, eps: str):
        """check(text, grid) bound to the grid of an ``--eps`` spec."""
        grid = _eps_grid(*(float(v) for v in eps.split(":")))
        return lambda text: check(text, grid)

    def check_figure(self, text: str, grid: np.ndarray) -> list[str]:
        out = json.loads(text)
        curve = np.array(out["curve"], dtype=float)
        pot, g = O.Gaussian(ALPHA), O.disk_g(1.0)
        T_ref = O.t_fd(pot, g, grid)
        problems = _check_curve(curve[:, 0], curve[:, 1], grid, T_ref,
                                self._t_max("curve", g, self.FIG_EPS))
        if problems:
            return problems
        flips = int(np.sum(T_ref[:-1] * T_ref[1:] < 0))
        zeros = [float(z) for z in out["sign_changes"]]
        if len(zeros) != flips:
            return [f"{len(zeros)} sign changes reported, oracle T flips sign {flips} times"]
        if zeros:
            z = np.array(zeros)
            lo = O.t_fd(pot, g, z - XTOL)
            hi = O.t_fd(pot, g, z + XTOL)
            bad = np.flatnonzero(lo * hi >= 0)
            if bad.size:
                return [f"no sign change of the oracle T within {XTOL} of "
                        f"{zeros[int(bad[0])]:.6f}"]
        return []

    def check_profile(self, text: str, grid: np.ndarray) -> list[str]:
        rows = _read_csv(text, ["eps", "T"])
        g = O.profile_g(self.s, self.d)
        T_ref = O.t_fd(O.Gaussian(ALPHA), g, grid)
        return _check_curve(rows[:, 0], rows[:, 1], grid, T_ref,
                            self._t_max("profile_curve", g, self.PROFILE_EPS))

    @staticmethod
    def report(results, per_kind) -> dict[str, tuple[float, str]]:
        return {
            "curve_s": (per_kind["curve"], "s"),
            "profile_curve_s": (per_kind["profile_curve"], "s"),
        }


# ---------------------------------------------------------------------------
# landscape
# ---------------------------------------------------------------------------

class Landscape(Workload):
    """A 40x40 disk-particle scan and global minimization for two particles."""

    name = "landscape"
    kinds = ("scan_disk", "minimize_disk", "minimize_gauss")
    SCAN_SAMPLES = 32
    Y_MAX = 4.0  # the CLI's default --y-max for scan and minimize
    STEPS = 40   # the CLI's default --x-steps / --y-steps

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.sample_rows = np.sort(rng.choice(self.STEPS * self.STEPS,
                                              self.SCAN_SAMPLES, replace=False))
        self.grid_jitter = rng.uniform(0.0, 1.0, size=2)
        self.potentials, self.measures = [GAUSS_POT], [DISK, GAUSS_MU]
        self.pot = O.Gaussian(ALPHA)
        self.g_disk = O.disk_g(1.0)
        self._const = None
        self._ops = [
            Op("scan_disk", ["scan", "--potential", GAUSS_POT, "--measure", DISK],
               self.check_scan),
            Op("minimize_disk", ["minimize", "--potential", GAUSS_POT,
                                 "--measure", DISK], self.check_minimize_disk),
            Op("minimize_gauss", ["minimize", "--potential", GAUSS_POT,
                                  "--measure", GAUSS_MU], self.check_minimize_gauss),
        ]

    def round(self, i: int) -> list[Op]:
        return self._ops

    def check_scan(self, text: str) -> list[str]:
        rows = _read_csv(text, ["x", "y", "E"])
        n = self.STEPS
        if rows.shape[0] != n * n:
            return [f"{rows.shape[0]} scan rows, expected {n * n}"]
        xs = 0.5 * np.arange(n) / (n - 1)
        x_exp = np.repeat(xs, n)
        y_lo = np.sqrt(np.maximum(1.0 - x_exp**2, 0.0))
        y_exp = y_lo + (self.Y_MAX - y_lo) * np.tile(np.arange(n), n) / (n - 1)
        if np.max(np.abs(rows[:, 0] - x_exp)) > 1e-14 or \
                np.max(np.abs(rows[:, 1] - y_exp)) > 1e-12:
            return ["scan grid differs from the documented uniform grid over D"]
        if self._const is None:
            self._const = O.self_convolution_at_zero(self.pot, self.g_disk)
        for k in self.sample_rows:
            x, y, e = (float(v) for v in rows[k])
            ref = O.fourier_energy(self.pot, self.g_disk, self._const, x, y)
            if abs(e - ref) > RTOL * abs(ref):
                return [f"scan E({x:.4f}, {y:.4f}) = {e!r}, oracle {ref!r}"]
        return []

    def _coarse_grid(self, nx: int = 13, ny: int = 13):
        """Grid over D cut at Y_MAX, shifted inside each cell by a seeded jitter."""
        jx, jy = self.grid_jitter
        for i in range(nx):
            x = 0.5 * (i + jx) / nx
            lo = O.y_min(x)
            for j in range(ny):
                yield x, lo + (self.Y_MAX - lo) * (j + jy) / ny

    def check_minimize_disk(self, text: str) -> list[str]:
        out = json.loads(text)
        x, y = (float(v) for v in out["point"])
        e = float(out["energy"])
        if not out["converged"]:
            return ["minimize reports no convergence"]
        if not O.in_domain(x, y + 1e-12):
            return [f"minimizer ({x}, {y}) outside D"]
        E = lambda a, b: O.fourier_lattice_sum(self.pot, self.g_disk, a, b)
        ref = E(x, y)
        tol = RTOL * abs(ref)
        if abs(e - ref) > tol:
            return [f"minimum energy {e!r} at ({x}, {y}), oracle {ref!r}"]
        # neighbours at 1e-3 and 1e-5: the second ring catches a point that is
        # off by more than a few 1e-6 (minimize converges to 1e-7)
        for h in (1e-3, 1e-5):
            for dx in (-h, 0.0, h):
                for dy in (-h, 0.0, h):
                    a, b = x + dx, y + dy
                    if (dx or dy) and O.in_domain(a, b) and E(a, b) < ref - tol:
                        return [f"neighbour ({a:.7f}, {b:.7f}) of the minimizer is lower"]
        for a, b in self._coarse_grid():
            if E(a, b) < ref - tol:
                return [f"coarse-grid point ({a:.4f}, {b:.4f}) is below the minimum"]
        return []

    def check_minimize_gauss(self, text: str) -> list[str]:
        out = json.loads(text)
        x, y = (float(v) for v in out["point"])
        e = float(out["energy"])
        if not out["converged"]:
            return ["minimize reports no convergence"]
        d = math.hypot(x - O.TRIANGULAR[0], y - O.TRIANGULAR[1])
        if d > 1e-4:
            return [f"Gaussian minimizer ({x}, {y}) is {d:.2e} from the triangular lattice"]
        # minimize reports the dual-lattice sum without the constant
        # fhat(0) - (f*mu*mu)(0); the direct-space route includes it
        c, _ = O.gauss_gauss_mixture(ALPHA, 1.0)
        ref = O.gauss_gauss_energy(ALPHA, 1.0, x, y) - (self.pot.fhat0 - c)
        if abs(e - ref) > RTOL * abs(ref):
            return [f"minimum energy {e!r}, oracle {ref!r}"]
        return []

    @staticmethod
    def report(results, per_kind) -> dict[str, tuple[float, str]]:
        return {
            "scan_disk_s": (per_kind["scan_disk"], "s"),
            "minimize_disk_s": (per_kind["minimize_disk"], "s"),
            "minimize_gauss_s": (per_kind["minimize_gauss"], "s"),
        }


# ---------------------------------------------------------------------------
# energy-queries
# ---------------------------------------------------------------------------

class EnergyQueries(Workload):
    """Single-lattice energy queries at seeded random points of D.

    Each round draws LATTICES new points and asks for all three kinds at
    each.  Every invpower query fails its check: the package discretizes
    the inverse-power Laplace density and leaves that error out of the
    reported bound (about 1e-9 relative against rtol 1e-10).
    """

    name = "energy-queries"
    kinds = ("invpower_disk", "gaussian_disk", "gaussian_gauss")
    known_fault = frozenset({"invpower_disk"})
    LATTICES = 2
    Y_MAX = 2.5

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.potentials, self.measures = [INVPOWER_POT, GAUSS_POT], [DISK, GAUSS_MU]
        self.inv = O.InversePower(1.0, 2.0)
        self.gauss = O.Gaussian(ALPHA)
        self.g_disk = O.disk_g(1.0)
        self._consts: dict[str, float] = {}
        self._rounds: dict[int, list[Op]] = {}

    def _const(self, kind: str) -> float:
        if kind not in self._consts:
            pot = self.inv if kind == "invpower_disk" else self.gauss
            self._consts[kind] = O.self_convolution_at_zero(pot, self.g_disk)
        return self._consts[kind]

    def round(self, i: int) -> list[Op]:
        if i not in self._rounds:
            ops = []
            for _ in range(self.LATTICES):
                x = float(self.rng.uniform(0.0, 0.5))
                y = float(self.rng.uniform(O.y_min(x), self.Y_MAX))
                lat = f"{x!r},{y!r}"
                for kind, pot, mu in (("invpower_disk", INVPOWER_POT, DISK),
                                      ("gaussian_disk", GAUSS_POT, DISK),
                                      ("gaussian_gauss", GAUSS_POT, GAUSS_MU)):
                    ops.append(Op(kind, ["energy", "--potential", pot, "--measure", mu,
                                         "--lattice", lat],
                                  self._checker(kind, x, y)))
            self._rounds = {i: ops}
        return self._rounds[i]

    def _checker(self, kind: str, x: float, y: float):
        def check(text: str) -> list[str]:
            out = json.loads(text)
            if out["lattice"] != [x, y]:
                return [f"lattice echoed as {out['lattice']}, asked ({x}, {y})"]
            if kind == "gaussian_gauss":
                ref = O.gauss_gauss_energy(ALPHA, 1.0, x, y)
            else:
                pot = self.inv if kind == "invpower_disk" else self.gauss
                ref = O.fourier_energy(pot, self.g_disk, self._const(kind), x, y)
            value = float(out["value"])
            tol = max(float(out["tail_bound"]), RTOL * abs(value))
            if abs(value - ref) > tol:
                return [f"E({x:.4f}, {y:.4f}) = {value!r}, oracle {ref!r} "
                        f"(|diff| {abs(value - ref):.2e} > bound {tol:.2e})"]
            return []

        return check

    @staticmethod
    def report(results, per_kind) -> dict[str, tuple[float, str]]:
        ms = np.array([r.ref_seconds for r in results]) * 1e3
        busy = sum(r.ref_seconds for r in results)
        return {
            "queries_per_s": (len(results) / busy, "1/s"),
            "query_ms_p50": (float(np.percentile(ms, 50)), "ms"),
            "query_ms_p90": (float(np.percentile(ms, 90)), "ms"),
        }


WORKLOADS = {w.name: w for w in (StabilityCurves, Landscape, EnergyQueries)}
