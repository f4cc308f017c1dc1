"""Stability analysis at the triangular lattice.

At the triangular point the Hessian of any radial-summand lattice energy
is a multiple T of the identity.  T is computed from the closed double
sum over the triangular shells and checked against a finite-difference
Hessian of E(x, y) on a 3x3 stencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .energy import NonconvergenceError, _fourier_summand, diffuse_energy_fn
from .lattice import TRIANGULAR, LatticeParams
from .measure import RadialMeasure, scale
from .potential import RadialPotential, fourier

__all__ = [
    "StabilityReport",
    "t_coefficient",
    "t_coefficient_diffuse",
    "stability_curve",
    "sign_changes",
    "fd_gradient_hessian",
    "stability_report",
]

_CLASSIFY_TOL = 1e-9


@dataclass(frozen=True)
class StabilityReport:
    T_analytic: float
    grad_fd: tuple[float, float]
    hessian_fd: np.ndarray
    classification: str  # "stable" | "unstable" | "marginal"


@lru_cache(maxsize=None)
def _triangular_rings(M: int):
    """(n^2, n^4, q) for the ring max(|m|,|n|) = M of the triangular sum."""
    side = np.arange(-M, M + 1)
    m, n = np.meshgrid(side, side, indexing="ij")
    on_ring = np.maximum(np.abs(m), np.abs(n)) == M
    m = m[on_ring].astype(float)
    n = n[on_ring].astype(float)
    q = (2.0 / math.sqrt(3.0)) * (m * m + m * n + n * n)
    out = (n * n, n**4, q)
    for a in out:
        a.flags.writeable = False  # shared by every call through the cache
    return out


def t_coefficient(F1, F2, rtol: float = 1e-10, max_box: int = 80) -> float:
    """Hessian coefficient at the triangular lattice.

    T = (4/sqrt 3) sum' n^2 F'(q) + (4/3) sum' n^4 F''(q) with
    q = (2/sqrt 3)(m^2 + m n + n^2).  F1, F2 evaluate F' and F''
    (vectorized over numpy arrays of q values).
    """
    total = 0.0
    peak = 0.0
    quiet = 0
    for M in range(1, max_box + 1):
        n2, n4, q = _triangular_rings(M)
        ring = float(
            (4.0 / math.sqrt(3.0)) * (n2 * F1(q)).sum()
            + (4.0 / 3.0) * (n4 * F2(q)).sum()
        )
        total += ring
        peak = max(peak, abs(total))
        if abs(ring) <= rtol * max(peak, 1e-300):
            quiet += 1
            if quiet >= 2:
                return total
        else:
            quiet = 0
    raise NonconvergenceError("triangular double sum did not converge")


def t_coefficient_diffuse(P: RadialPotential, mu: RadialMeasure, eps: float,
                          rtol: float = 1e-10) -> float:
    """T of the diffuse energy E_{h_eps} at the triangular lattice."""
    H = _fourier_summand(fourier(P), scale(mu, eps))[0]
    last = [None, None]  # t_coefficient passes one ring's q to F1, then F2

    def jet(q):
        if last[0] is not q:
            last[:] = q, H(q, derivatives=True)
        return last[1]

    return t_coefficient(lambda q: jet(q)[1], lambda q: jet(q)[2], rtol=rtol)


def stability_curve(P: RadialPotential, mu: RadialMeasure, eps_grid,
                    rtol: float = 1e-10) -> list[tuple[float, float]]:
    """T_{h_eps} along a grid of concentration parameters."""
    return [(float(e), t_coefficient_diffuse(P, mu, float(e), rtol=rtol))
            for e in eps_grid]


def sign_changes(P: RadialPotential, mu: RadialMeasure, curve,
                 xtol: float = 0.01, rtol: float = 1e-10) -> list[float]:
    """Bisection-refined zero locations of T along a precomputed curve."""
    zeros = []
    for (e0, t0), (e1, t1) in zip(curve, curve[1:]):
        if t0 == 0.0:
            zeros.append(e0)
            continue
        if t0 * t1 < 0.0:
            lo, hi, flo = e0, e1, t0
            while hi - lo > xtol:
                mid = 0.5 * (lo + hi)
                fm = t_coefficient_diffuse(P, mu, mid, rtol=rtol)
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            zeros.append(0.5 * (lo + hi))
    return zeros


def fd_gradient_hessian(E, L: LatticeParams, step: float = 1e-4):
    """Central-difference gradient and Hessian of E on (x, y) at L.

    ``E(xs, ys)`` is called once, on the 3x3 stencil, with arrays of one
    shape and must return an array of that shape (or a value broadcast to
    it).  The stencil may step across the boundary of D.
    """
    h = step * (1.0 + abs(L.y))
    d = np.array([-h, 0.0, h])
    dx, dy = np.meshgrid(d, d, indexing="ij")
    e = np.broadcast_to(np.asarray(E(L.x + dx, L.y + dy), dtype=float),
                        dx.shape)  # e[i, j] = E(x + d[i], y + d[j])
    gx = (e[2, 1] - e[0, 1]) / (2.0 * h)
    gy = (e[1, 2] - e[1, 0]) / (2.0 * h)
    dxx = (e[2, 1] - 2.0 * e[1, 1] + e[0, 1]) / (h * h)
    dyy = (e[1, 2] - 2.0 * e[1, 1] + e[1, 0]) / (h * h)
    dxy = (e[2, 2] - e[2, 0] - e[0, 2] + e[0, 0]) / (4.0 * h * h)
    return np.array([gx, gy]), np.array([[dxx, dxy], [dxy, dyy]])


def stability_report(P: RadialPotential, mu: RadialMeasure,
                     eps: float) -> StabilityReport:
    """Analytic T plus finite-difference diagnostics at the triangular point."""
    T = t_coefficient_diffuse(P, mu, eps)
    E = diffuse_energy_fn(P, scale(mu, eps), rtol=1e-12)
    grad, _ = fd_gradient_hessian(E, TRIANGULAR, step=1e-5)
    _, hess = fd_gradient_hessian(E, TRIANGULAR, step=1e-4)
    if T > _CLASSIFY_TOL:
        cls = "stable"
    elif T < -_CLASSIFY_TOL:
        cls = "unstable"
    else:
        cls = "marginal"
    return StabilityReport(
        T_analytic=T,
        grad_fd=(float(grad[0]), float(grad[1])),
        hessian_fd=hess,
        classification=cls,
    )
