"""Minimization of lattice energies over the fundamental domain.

A coarse grid scan over D seeds a projected Newton refinement on the
analytic gradient and Hessian of E: all seeds step together, one jet
call per step, with a backtracking (Armijo) line search whose trials are
projected into D.  Everything is deterministic: fixed tie-breaking, no
randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import TRIANGULAR, LatticeParams, metric

__all__ = [
    "Landscape",
    "MinimizeResult",
    "MaxIterationsError",
    "grid_scan",
    "local_minimize",
    "global_minimize",
]


class MaxIterationsError(RuntimeError):
    pass


@dataclass(frozen=True)
class Landscape:
    grid: np.ndarray = field(repr=False)  # rows (x, y, E)
    resolution: tuple[int, int]
    argmin: tuple[float, float, float]


@dataclass(frozen=True)
class MinimizeResult:
    point: tuple[float, float]
    energy: float
    dist_to_triangular: float
    iterations: int
    converged: bool
    # why the point is a global minimizer, when that is known exactly
    certificate: str | None = None


# longest Newton step in (x, y), and the Armijo sufficient-decrease factor
_MAX_STEP = 0.5
_ARMIJO = 1e-4
# grid cells that seed the refinement
_K_SEEDS = 5


def _project(p: np.ndarray) -> np.ndarray:
    """Points (rows x, y) moved into D: x clipped, then y raised to the arc."""
    x = np.clip(p[:, 0], 0.0, 0.5)
    return np.stack([x, np.maximum(p[:, 1], np.sqrt(1.0 - x * x))], axis=1)


def _ranked(grid: np.ndarray) -> np.ndarray:
    """Indices of grid rows (x, y, E) by E, then x, then y; nan ranks last,
    exact ties keep grid order."""
    return np.lexsort(grid.T[[1, 0, 2]])


def grid_scan(E, x_steps: int, y_steps: int, y_max: float) -> Landscape:
    """Uniform scan of [0, 1/2] x [sqrt(1 - x^2), y_max]; ties break on (x, y).

    Every grid point is finite and at most ``y_max``, however large it is.

    ``E(xs, ys)`` is called once per grid column with arrays of one shape
    and must return an array of that shape (or a value broadcast to it).
    """
    x = 0.5 * np.arange(x_steps) / max(x_steps - 1, 1)
    y_lo, j, n = np.sqrt(1.0 - x * x)[:, None], np.arange(y_steps), max(y_steps - 1, 1)
    span = y_max - y_lo
    with np.errstate(over="ignore"):
        y = y_lo + span * j / n
    # where span * j overflows, step by span / (steps - 1) instead; the top
    # point can round one ulp past y_max
    y = np.minimum(np.where(np.isfinite(y), y, y_lo + span / n * j), y_max)
    e = [np.broadcast_to(np.asarray(E(np.full(y_steps, xi), col.copy()), dtype=float),
                         y_steps) for xi, col in zip(x, y)]
    grid = np.stack([np.repeat(x, y_steps), y.ravel(), np.ravel(e)], axis=1)
    return Landscape(grid=grid, resolution=(x_steps, y_steps),
                     argmin=tuple(grid[_ranked(grid)[0]].tolist()))


def _newton_directions(p: np.ndarray, g: np.ndarray, H: np.ndarray):
    """Newton steps on an eigenvalue-floored Hessian, x held at a bound of
    [0, 1/2] where the gradient points out of D; no step exceeds _MAX_STEP."""
    fixed = ((p[:, 0] <= 0.0) & (g[:, 0] > 0.0)) | ((p[:, 0] >= 0.5) & (g[:, 0] < 0.0))
    g, H = g.copy(), H.copy()
    g[fixed, 0] = H[fixed, 0, 1] = H[fixed, 1, 0] = 0.0
    lam, V = np.linalg.eigh(H)
    floor = np.maximum(1e-6 * np.abs(lam).max(axis=1),
                       np.linalg.norm(g, axis=1) / _MAX_STEP)
    c = np.einsum("kji,kj->ki", V, g) / np.maximum(lam, floor[:, None] + 1e-300)
    d = -np.einsum("kij,kj->ki", V, c)
    d[fixed, 0] = 0.0
    return d


def _refine(jet, starts, tol: float, max_iter: int) -> list[MinimizeResult]:
    """Projected Newton from every start at once, one jet call per step.

    Each call evaluates the trial point of every seed still running; a
    trial that passes the Armijo test moves its seed and brings the
    gradient and Hessian of its next step, a failed one halves the step.
    A seed stops when its (projected) step is shorter than ``tol``.
    """
    p = _project(np.asarray(starts, dtype=float))
    f, g, H = (np.array(v, dtype=float) for v in jet(p[:, 0], p[:, 1]))
    d = _newton_directions(p, g, H)
    iters, run = np.zeros(len(p), dtype=int), np.arange(len(p))
    while True:
        trial = _project(p[run] + d[run])
        move = trial - p[run]
        going = np.hypot(move[:, 0], move[:, 1]) >= tol
        run, trial, move = run[going], trial[going], move[going]
        if not run.size:
            break
        if iters[run].max() >= max_iter:
            raise MaxIterationsError(f"no convergence within {max_iter} iterations")
        iters[run] += 1
        ft, gt, Ht = jet(trial[:, 0], trial[:, 1])
        ok = ft <= f[run] + _ARMIJO * np.minimum((g[run] * move).sum(axis=1), 0.0)
        d[run[~ok]] *= 0.5
        new = run[ok]
        p[new], f[new], g[new], H[new] = trial[ok], ft[ok], gt[ok], Ht[ok]
        d[new] = _newton_directions(p[new], g[new], H[new])
    return [MinimizeResult(point=(x, y), energy=e, iterations=n, converged=True,
                           dist_to_triangular=metric(LatticeParams(x, y), TRIANGULAR))
            for (x, y), e, n in zip(p.tolist(), f.tolist(), iters.tolist())]


def local_minimize(jet, start, tol: float = 1e-7,
                   max_iter: int = 2000) -> MinimizeResult:
    """Projected Newton over D from one start (see ``global_minimize``)."""
    return _refine(jet, [start], tol, max_iter)[0]


def global_minimize(E, jet, x_steps: int = 40, y_steps: int = 40,
                    y_max: float = 4.0, tol: float = 1e-7,
                    max_iter: int = 2000):
    """Grid scan of ``E`` followed by projected Newton from the best cells.

    ``jet(xs, ys)`` takes arrays of shape (k,) and returns E (k,), its
    gradient (k, 2) and its Hessian (k, 2, 2) in (x, y), as
    ``energy.diffuse_energy_jet`` does; all seeds are refined together.
    A result's ``iterations`` counts the trial points its line search
    evaluated.  Returns (best_result, candidates) with all refined seeds,
    in seed order, for audit.
    """
    grid = grid_scan(E, x_steps, y_steps, y_max).grid
    seeds = grid[_ranked(grid)[:_K_SEEDS], :2]
    candidates = _refine(jet, seeds, tol, max_iter)
    best = min(candidates, key=lambda r: (r.energy, r.point[0], r.point[1]))
    return best, candidates
