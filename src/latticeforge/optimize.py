"""Minimization of lattice energies over the fundamental domain.

A coarse grid scan over D seeds a derivative-free (Nelder-Mead) local
refinement whose iterates are projected back into D.  Everything is
deterministic: fixed tie-breaking, no randomness.
"""

from __future__ import annotations

import math
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
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    resolution: tuple[int, int]
    argmin: tuple[float, float, float]


@dataclass(frozen=True)
class MinimizeResult:
    point: tuple[float, float]
    energy: float
    dist_to_triangular: float
    iterations: int
    converged: bool


def _y_min(x: float) -> float:
    return math.sqrt(max(1.0 - x * x, 0.0))


def _project(p: np.ndarray) -> np.ndarray:
    x = min(max(p[0], 0.0), 0.5)
    y = max(p[1], _y_min(x))
    return np.array([x, y])


def grid_scan(E, x_steps: int, y_steps: int, y_max: float) -> Landscape:
    """Uniform scan of [0, 1/2] x [y_min(x), y_max]; ties break on (x, y).

    ``E(xs, ys)`` is called once per grid column with arrays of one shape
    and must return an array of that shape (or a value broadcast to it).
    """
    rows = []
    best = None
    j = np.arange(y_steps)
    for i in range(x_steps):
        x = 0.5 * i / (x_steps - 1) if x_steps > 1 else 0.0
        y_lo = _y_min(x)
        ys = (y_lo + (y_max - y_lo) * j / (y_steps - 1) if y_steps > 1
              else np.full(y_steps, y_lo))
        es = np.broadcast_to(np.asarray(E(np.full(y_steps, x), ys), dtype=float),
                             ys.shape)
        for y, e in zip(ys.tolist(), es.tolist()):
            rows.append((x, y, e))
            if best is None or e < best[2]:
                best = (x, y, e)
    return Landscape(
        grid=np.array(rows),
        x_range=(0.0, 0.5),
        y_range=(1.0, y_max),
        resolution=(x_steps, y_steps),
        argmin=best,
    )


def local_minimize(E, start, tol: float = 1e-7, max_iter: int = 2000,
                   initial_step: float = 0.05) -> MinimizeResult:
    """Nelder-Mead on (x, y), reflections clipped to D."""
    p0 = _project(np.asarray(start, dtype=float))

    simplex = [p0]
    for k in range(2):
        q = p0.copy()
        q[k] += initial_step
        simplex.append(_project(q))
    vals = [float(E(*p)) for p in simplex]

    n_iter = 0
    converged = False
    while n_iter < max_iter:
        order = sorted(range(3), key=lambda i: (vals[i], simplex[i][0], simplex[i][1]))
        simplex = [simplex[i] for i in order]
        vals = [vals[i] for i in order]
        diam = max(
            np.linalg.norm(simplex[i] - simplex[0]) for i in (1, 2)
        )
        if diam < tol:
            converged = True
            break
        n_iter += 1
        centroid = 0.5 * (simplex[0] + simplex[1])
        worst = simplex[2]
        refl = _project(centroid + (centroid - worst))
        f_refl = float(E(*refl))
        if f_refl < vals[0]:
            exp = _project(centroid + 2.0 * (centroid - worst))
            f_exp = float(E(*exp))
            if f_exp < f_refl:
                simplex[2], vals[2] = exp, f_exp
            else:
                simplex[2], vals[2] = refl, f_refl
        elif f_refl < vals[1]:
            simplex[2], vals[2] = refl, f_refl
        else:
            contr = _project(centroid + 0.5 * (worst - centroid))
            f_contr = float(E(*contr))
            if f_contr < vals[2]:
                simplex[2], vals[2] = contr, f_contr
            else:  # shrink toward the best vertex
                for i in (1, 2):
                    simplex[i] = _project(
                        simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    )
                    vals[i] = float(E(*simplex[i]))
    if not converged and n_iter >= max_iter:
        raise MaxIterationsError(f"no convergence within {max_iter} iterations")

    best = min(range(3), key=lambda i: (vals[i], simplex[i][0], simplex[i][1]))
    x, y = simplex[best]
    d = metric(LatticeParams(min(x, 0.5), max(y, _y_min(x))), TRIANGULAR)
    return MinimizeResult(
        point=(float(x), float(y)),
        energy=vals[best],
        dist_to_triangular=d,
        iterations=n_iter,
        converged=converged,
    )


def global_minimize(E, x_steps: int = 40, y_steps: int = 40, y_max: float = 4.0,
                    k_seeds: int = 5, tol: float = 1e-7,
                    max_iter: int = 2000):
    """Grid scan followed by local refinement from the best k cells.

    Returns (best_result, candidates) with all refined seeds for audit.
    """
    scan = grid_scan(E, x_steps, y_steps, y_max)
    rows = sorted(map(tuple, scan.grid), key=lambda r: (r[2], r[0], r[1]))
    candidates = []
    for x, y, e_seed in rows[:k_seeds]:
        res = local_minimize(E, (x, y), tol=tol, max_iter=max_iter)
        candidates.append(res)
    best = min(
        candidates,
        key=lambda r: (r.energy, r.point[0], r.point[1]),
    )
    return best, candidates
