"""Stability analysis at the triangular lattice.

At the triangular point the Hessian of any radial-summand lattice energy
is a multiple T of the identity, so T is half its trace: one radial column
summed by the lattice-sum engine of ``energy`` next to E itself.  The
engine stops on E's certified tail, so ``rtol`` is relative to E and T
shares E's cutoff without a tail bound of its own.  Every T is a head of
the engine's one head axis: a scalar eps is one head, and a curve sums a
slice of eps in one engine call, where the eps share the triangular point
set, one Phi pass and the tail, and each eps is a head with columns
(E, T) that stops on its own E, so each T is bit for bit its scalar call.
Sign changes are bisected for every bracket at once, one call per level.
The finite-difference check of T, a Hessian of E(x, y) on a 3x3 stencil,
lives in the tests.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .energy import _fourier_summand, _summed
from .lattice import TRIANGULAR, basis_matrix
from .measure import MeasureSpecError, RadialMeasure
from .potential import RadialPotential, fourier

__all__ = [
    "t_coefficient",
    "t_coefficient_diffuse",
    "stability_curve",
    "sign_changes",
]

# width at which bisection stops refining a sign change of T
_ZERO_XTOL = 0.01

# most eps times particle nodes (1 for a closed form) summed in one engine
# call: the summand holds a few (eps, point, node) arrays at once.  The size
# also trades speed: eps that stop at an early rung leave with their slice
# (a 20-eps ring-profile curve ran 1.35-1.7x faster in slices of 3 eps),
# while one call shares each round's box (6-eps curves ran 1.1-1.8x faster)
_SLICE_WORK = 1 << 7


def t_coefficient(H, tail_of, rtol: float = 1e-10, heads: int | None = None):
    """T = d^2E/dx^2 of E = sum' H(|p|^2) at the triangular lattice (x, y).

    ``H(q)`` gives (H, H', H'') on a 1-D array q, each of shape (n,) for
    one head, or (heads, n) for ``heads`` summands at once (one T each);
    ``tail_of`` is their shared tail factory.  The Hessian is T times the
    identity, so T is half its trace, sum' H'' |grad q|^2 + H' Laplacian(q).
    With a = p0 p1 and b = p1^2 - p0^2, y^2 |grad q|^2 = 4 a^2 + b^2 = q^2 and
    y^2 Laplacian(q) = 2 q, so with y^2 = 3/4, T = (2/3) sum' q^2 H'' + 2 q H',
    a radial column summed in one engine call next to H, whose tail stops
    both sums at ``rtol`` relative to E; each head stops on its own E.
    Returns a float, or an array of ``heads``.
    """

    def cols(pts, q):
        h, d1, d2 = H(q)
        return np.stack([h, q * (q * d2 + 2.0 * d1)])

    basis = basis_matrix(TRIANGULAR.x, TRIANGULAR.y)
    T = _summed(cols, tail_of, basis, rtol, heads or 1)[0][1, :, 0] * (2.0 / 3.0)
    return T if heads else float(T[0])


def t_coefficient_diffuse(P: RadialPotential, mu: RadialMeasure, eps,
                          rtol: float = 1e-10):
    """T of the diffuse energy E_{h_eps} at the triangular lattice.

    A float for a scalar eps; for a 1-D array of eps, an array of T summed
    in one engine call on the shared triangular point set (each eps bit for
    bit its scalar call, stopping on its own E).
    """
    e = np.asarray(eps, dtype=float)
    if e.ndim > 1 or not np.all((e >= 0) & (e < np.inf)):
        raise MeasureSpecError(f"scale factor must be finite and >= 0, got {eps}")
    H, tail_of = _fourier_summand(fourier(P), mu, e.reshape(-1))
    T = t_coefficient(partial(H, derivatives=True), tail_of, rtol, e.size)
    return T if e.ndim else float(T[0])


def _t_values(P: RadialPotential, mu: RadialMeasure, eps: np.ndarray,
              rtol: float) -> np.ndarray:
    """T at each eps, in slices that bound the summand's memory."""
    per = max(1, _SLICE_WORK // max(1, len(mu.psi_nodes)))
    return np.concatenate(
        [t_coefficient_diffuse(P, mu, eps[lo:lo + per], rtol=rtol)
         for lo in range(0, len(eps), per)] or [np.zeros(0)])


def stability_curve(P: RadialPotential, mu: RadialMeasure, eps_grid,
                    rtol: float = 1e-10) -> list[tuple[float, float]]:
    """T_{h_eps} along a grid of concentration parameters: one engine call
    per slice of the grid (``_SLICE_WORK``)."""
    eps = np.asarray(eps_grid, dtype=float).reshape(-1)
    return list(zip(eps.tolist(), _t_values(P, mu, eps, rtol).tolist()))


def sign_changes(P: RadialPotential, mu: RadialMeasure, curve,
                 rtol: float = 1e-10) -> list[float]:
    """Zeros of T along a precomputed curve, in grid order.

    A grid point where T is exactly 0 is a zero.  A sign change between two
    grid points is bisected to width ``_ZERO_XTOL``, every bracket in
    lockstep: one engine call per level for all midpoints still open.
    """
    eps = np.array([e for e, _ in curve], dtype=float)
    T = np.array([t for _, t in curve], dtype=float)
    flips = np.flatnonzero(T[:-1] * T[1:] < 0.0)
    lo, hi, flo = eps[flips], eps[flips + 1], T[flips]
    while (open_ := np.flatnonzero(hi - lo > _ZERO_XTOL)).size:
        mid = 0.5 * (lo[open_] + hi[open_])
        fm = _t_values(P, mu, mid, rtol)
        left = flo[open_] * fm <= 0.0
        hi[open_[left]] = mid[left]
        lo[open_[~left]], flo[open_[~left]] = mid[~left], fm[~left]
    zeros = dict(zip(flips.tolist(), (0.5 * (lo + hi)).tolist()))
    zeros.update((i, e) for i, e in enumerate(eps.tolist()) if T[i] == 0.0)
    return [zeros[i] for i in sorted(zeros)]
