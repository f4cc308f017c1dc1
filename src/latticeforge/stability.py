"""Stability analysis at the triangular lattice.

At the triangular point the Hessian of any radial-summand lattice energy
is a multiple T of the identity.  T is d^2E/dx^2 there, summed by the
lattice-sum engine of ``energy`` next to E itself: the engine stops on E's
certified tail, so ``rtol`` is relative to E and T shares E's cutoff
without a tail bound of its own.  The finite-difference check of T, a
Hessian of E(x, y) on a 3x3 stencil, lives in the tests.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .energy import _fourier_summand, _summed
from .lattice import TRIANGULAR, basis_matrix
from .measure import RadialMeasure, scale
from .potential import RadialPotential, fourier

__all__ = [
    "t_coefficient",
    "t_coefficient_diffuse",
    "stability_curve",
    "sign_changes",
]

# width at which bisection stops refining a sign change of T
_ZERO_XTOL = 0.01


def t_coefficient(H, tail_of, rtol: float = 1e-10) -> float:
    """T = d^2E/dx^2 of E = sum' H(|p|^2) at the triangular lattice (x, y).

    ``H(q)`` gives (H, H', H'') on a 1-D array q; ``tail_of`` is H's tail
    factory.  With a = p0 p1, q_x = 2 a / y and q_xx = 2 p1^2 / y^2, so
    y^2 T = sum' 4 H'' a^2 + 2 H' p1^2 (the (0, 0) entry of
    ``diffuse_energy_jet``'s Hessian), summed in one engine call next to
    H, whose tail stops both sums at ``rtol`` relative to E.
    """

    def cols(pts, q):
        h, d1, d2 = H(q)
        a = pts[:, 0] * pts[:, 1]
        return np.stack([h, 4.0 * d2 * a * a + 2.0 * d1 * pts[:, 1] ** 2])

    x, y = TRIANGULAR.x, TRIANGULAR.y
    sums = _summed(cols, tail_of, basis_matrix(x, y), rtol)[0]
    return float(sums[1, 0]) / (y * y)


def t_coefficient_diffuse(P: RadialPotential, mu: RadialMeasure, eps: float,
                          rtol: float = 1e-10) -> float:
    """T of the diffuse energy E_{h_eps} at the triangular lattice."""
    H, tail_of = _fourier_summand(fourier(P), scale(mu, eps))
    return t_coefficient(partial(H, derivatives=True), tail_of, rtol)


def stability_curve(P: RadialPotential, mu: RadialMeasure, eps_grid,
                    rtol: float = 1e-10) -> list[tuple[float, float]]:
    """T_{h_eps} along a grid of concentration parameters."""
    return [(float(e), t_coefficient_diffuse(P, mu, float(e), rtol=rtol))
            for e in eps_grid]


def sign_changes(P: RadialPotential, mu: RadialMeasure, curve,
                 rtol: float = 1e-10) -> list[float]:
    """Bisection-refined zero locations of T along a precomputed curve."""
    zeros = []
    for (e0, t0), (e1, t1) in zip(curve, curve[1:]):
        if t0 == 0.0:
            zeros.append(e0)
            continue
        if t0 * t1 < 0.0:
            lo, hi, flo = e0, e1, t0
            while hi - lo > _ZERO_XTOL:
                mid = 0.5 * (lo + hi)
                fm = t_coefficient_diffuse(P, mu, mid, rtol=rtol)
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            zeros.append(0.5 * (lo + hi))
    return zeros
