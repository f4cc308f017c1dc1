"""Command-line front end.

Subcommands: energy, theta, scan, stability, minimize.
Outputs are JSON (reports), CSV (tables, 17 significant digits, header
line "# lattice-forge v1") or a minimal SVG polyline for the stability
curve; ``--format`` offers only what a command writes, its first choice
by default.  Exit codes: 0 success, 2 bad input (spec, lattice or range),
3 numeric nonconvergence (including a lattice sum that is not finite or
too wide to enumerate).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

import numpy as np

from . import energy, lattice, optimize, stability
from .energy import NonconvergenceError
from .lattice import LatticeDomainError, LatticeParams, ShellCapError
from .measure import parse_measure
from .optimize import MaxIterationsError
from .potential import parse_potential

CSV_MAGIC = "# lattice-forge v1"


def _write_csv(path: str, columns: list[str], rows) -> None:
    """Rows of floats with 17 significant digits, one format per row."""
    line = ",".join(["%.17g"] * len(columns))
    body = [line % tuple(row) for row in np.asarray(rows, dtype=float).tolist()]
    _write_text(path, "\n".join([CSV_MAGIC, ",".join(columns)] + body) + "\n")


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"--output: cannot write '{path}': {exc.strerror}") from None


# SVG canvas size and plot margin, in pixels
_WIDTH, _HEIGHT, _MARGIN = 800, 400, 40


def _write_svg(path: str, xs: np.ndarray, ys: np.ndarray) -> None:
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(min(ys.min(), 0.0)), float(max(ys.max(), 0.0))
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return _MARGIN + (x - x0) / (x1 - x0) * (_WIDTH - 2 * _MARGIN)

    def sy(y):
        return _HEIGHT - _MARGIN - (y - y0) / (y1 - y0) * (_HEIGHT - 2 * _MARGIN)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    zero_y = sy(0.0)
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}">\n'
        f'<line x1="{_MARGIN}" y1="{zero_y:.2f}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{zero_y:.2f}" stroke="#888" stroke-width="1"/>\n'
        f'<polyline points="{pts}" fill="none" stroke="#1460aa" '
        f'stroke-width="1.5"/>\n'
        "</svg>\n"
    )
    _write_text(path, svg)


def _parse_lattice(text: str) -> LatticeParams:
    try:
        x, y = (float(p) for p in text.split(","))
    except ValueError:
        raise LatticeDomainError(
            f"--lattice: expected two finite numbers 'x,y', got '{text}'"
        ) from None
    return LatticeParams(x, y)


# most eps points, scan columns, or lattices in one scan column (summed as
# one batch)
_MAX_GRID = 10**6


def _parse_range(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ValueError(
            f"--eps: expected three numbers 'lo:hi:step', got '{text}'"
        ) from None
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"--eps: bounds and step must be finite in '{text}'")
    if step <= 0:
        raise ValueError(f"--eps: step must be positive in '{text}'")
    if lo < 0:
        raise ValueError(f"--eps: eps must be >= 0 in '{text}'")
    if hi < lo:
        raise ValueError(f"--eps: empty range '{text}' (hi < lo)")
    n = (hi - lo) / step
    if n > _MAX_GRID:
        raise ValueError(f"--eps: {n:.3g} steps, more than {_MAX_GRID}, in '{text}'")
    # the grid stops at or before hi; the 1e-9 keeps hi itself when roundoff
    # puts n just below a whole number of steps
    return lo + step * np.arange(math.floor(n + 1e-9) + 1)


# what a numeric argument must satisfy, for the commands that take it
_NUMBER_RULES = (
    ("rtol", "finite and > 0", lambda v: 0 < v < math.inf),
    ("tol", "finite and > 0", lambda v: 0 < v < math.inf),
    ("t", "finite and > 0", lambda v: 0 < v < math.inf),
    ("x_steps", f"between 1 and {_MAX_GRID}", lambda v: 1 <= v <= _MAX_GRID),
    ("y_steps", f"between 1 and {_MAX_GRID}", lambda v: 1 <= v <= _MAX_GRID),
    ("y_max", "finite and > 1", lambda v: 1 < v < math.inf),
)


def _check_finite(name: str, values, at, args) -> None:
    """Exit 3 rather than write a value that overflowed; ``at(i)`` names value i."""
    bad = np.flatnonzero(~np.isfinite(np.asarray(values, dtype=float)))
    if bad.size:
        raise NonconvergenceError(
            f"{name} is not finite at {at(bad[0])}; a scale in "
            f"{_sum_args(args)} overflows")


def _check_numbers(args) -> None:
    for name, rule, ok in _NUMBER_RULES:
        v = getattr(args, name, None)
        if v is not None and not ok(v):
            raise ValueError(f"--{name.replace('_', '-')}: must be {rule}, got {v}")


# built once per process (about 2 ms): parsing leaves the parser unchanged,
# so every main() call in one process shares it
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lattice-forge",
        description="Lattice energies of spatially extended particles",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, formats, lattice_arg=False, specs=True):
        if specs:
            p.add_argument("--potential", required=True,
                           help="gaussian:alpha=<f> | invpower:a=<f>,s=<f> | "
                                "laplace:atoms=[(t,w),...]")
            p.add_argument("--measure", default="dirac",
                           help="dirac | disk:r=<f> | gauss:sigma=<f> | "
                                "profile:file=<path>")
        if lattice_arg:
            p.add_argument("--lattice", required=True, help="x,y in D")
        p.add_argument("--rtol", type=float, default=1e-10)
        p.add_argument("--output", default="-", help="file path or - for stdout")
        p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("energy", help="diffuse lattice energy")
    add_common(p, ["json"], lattice_arg=True)

    p = sub.add_parser("theta", help="lattice theta function")
    add_common(p, ["json"], lattice_arg=True, specs=False)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(rtol=1e-12)

    p = sub.add_parser("scan", help="energy landscape over D")
    add_common(p, ["csv", "json"])
    p.add_argument("--x-steps", type=int, default=40)
    p.add_argument("--y-steps", type=int, default=40)
    p.add_argument("--y-max", type=float, default=4.0)

    p = sub.add_parser("stability", help="T coefficient vs concentration")
    add_common(p, ["csv", "json", "svg"])
    p.add_argument("--eps", required=True, help="lo:hi:step grid")

    p = sub.add_parser("minimize", help="global minimization over D")
    add_common(p, ["json"])
    p.add_argument("--x-steps", type=int, default=40)
    p.add_argument("--y-steps", type=int, default=40)
    p.add_argument("--y-max", type=float, default=4.0)
    p.add_argument("--tol", type=float, default=1e-7)

    return ap


def run(args) -> int:
    _check_numbers(args)
    cmd = args.command
    if cmd == "theta":
        L = _parse_lattice(args.lattice)
        value = energy.theta(L, args.t, rtol=args.rtol)
        _write_json(args.output, {"command": "theta", "value": value,
                                  "lattice": [L.x, L.y], "t": args.t})
        return 0

    P = parse_potential(args.potential)
    mu = parse_measure(args.measure)

    if cmd == "energy":
        L = _parse_lattice(args.lattice)
        report = energy.diffuse_energy(P, mu, L, rtol=args.rtol)
        _check_finite("E", report.value, lambda i: f"--lattice {args.lattice}", args)
        payload = {"command": "energy", "lattice": [L.x, L.y]}
        payload.update(vars(report))  # the report's fields, in order
        _write_json(args.output, payload)
        return 0

    if cmd == "scan":
        E = energy.diffuse_energy_fn(P, mu, rtol=args.rtol,
                                     include_constant=True)
        scan = optimize.grid_scan(E, args.x_steps, args.y_steps, args.y_max)
        _check_finite("E", scan.grid[:, 2],
                      lambda i: f"(x, y) = {tuple(scan.grid[i, :2].tolist())}", args)
        if args.format == "csv":
            _write_csv(args.output, ["x", "y", "E"], scan.grid)
        else:
            _write_json(args.output, {
                "command": "scan",
                "argmin": list(scan.argmin),
                "resolution": list(scan.resolution),
            })
        return 0

    if cmd == "stability":
        eps = _parse_range(args.eps)
        T = stability.t_coefficient_diffuse(P, mu, eps, rtol=args.rtol)
        _check_finite("T", T, lambda i: f"eps = {eps[i].item()!r}", args)
        curve = np.column_stack([eps, T])
        if args.format == "svg":
            _write_svg(args.output, eps, T)
        elif args.format == "json":
            _write_json(args.output, {
                "command": "stability",
                "curve": curve.tolist(),
                "sign_changes": stability.sign_changes(P, mu, eps, T, rtol=args.rtol),
            })
        else:
            _write_csv(args.output, ["eps", "T"], curve)
        return 0

    if cmd == "minimize":
        E = energy.diffuse_energy_fn(P, mu, rtol=args.rtol)
        if energy._triangular_is_global(mu):
            # no search: the triangular lattice is proven global, in D and
            # below every --y-max
            x, y = lattice.TRIANGULAR.x, lattice.TRIANGULAR.y
            best = optimize.MinimizeResult(
                point=(x, y), energy=E(x, y), dist_to_triangular=0.0,
                iterations=0, converged=True,
                certificate="completely monotone summand (Theorem 2)")
            _check_finite("E", best.energy, lambda i: "the triangular lattice", args)
            candidates = []
        else:
            best, candidates = optimize.global_minimize(
                E, energy.diffuse_energy_jet(P, mu, rtol=args.rtol),
                x_steps=args.x_steps, y_steps=args.y_steps,
                y_max=args.y_max, tol=args.tol,
            )
        payload = {k: v for k, v in vars(best).items() if v is not None}
        payload.update(command="minimize", candidates=[
            {"point": list(c.point), "energy": c.energy} for c in candidates])
        _write_json(args.output, payload)
        return 0

    raise AssertionError(f"unhandled command {cmd}")


def _sum_args(args) -> str:
    """The arguments that set how far a command's lattice sums reach."""
    names = (("lattice", "t", "rtol") if args.command == "theta"
             else ("potential", "measure", "rtol"))
    return " ".join(f"--{name} {getattr(args, name)}" for name in names)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonconvergenceError, MaxIterationsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ShellCapError as exc:
        print(f"error: {exc}; lattice sum too wide for {_sum_args(args)}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
