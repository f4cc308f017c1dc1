"""Stability analysis at the triangular lattice.

At the triangular point the Hessian of any radial-summand lattice energy
is a multiple T of the identity, so T is half its trace: one radial column
summed by the lattice-sum engine of ``energy`` next to E itself.  The
engine stops on E's certified tail, so ``rtol`` is relative to E and T
shares E's cutoff without a tail bound of its own.  Every T is a head of
the engine's one head axis: a scalar eps is one head, and a curve sums its
eps in one engine call, where the eps share the triangular point set, one
Phi pass and the tail, and each eps is a head with columns (E, T) that
stops on its own E, so each T is bit for bit its scalar call.  The
summand is evaluated once per shell N = m^2 + mn + n^2 of the triangular
lattice, at its exact q = (2/sqrt 3) N, which the points' x^2 + y^2 miss
by an ulp or so.  ``sign_changes``
takes the arrays (eps, T) of one such request and bisects the sign
changes of every bracket at once: each engine request holds the next
midpoint of every open bracket and, where the curve is smooth enough to
predict it, the midpoints after it on the secant zero's path.  The
finite-difference check of T, a Hessian of E(x, y) on a 3x3 stencil,
lives in the tests.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import energy
from .energy import _fourier_summand, _summed
from .lattice import TRIANGULAR, basis_matrix
from .measure import MeasureSpecError, RadialMeasure
from .potential import RadialPotential, fourier

__all__ = [
    "t_coefficient",
    "t_coefficient_diffuse",
    "sign_changes",
]

# width at which bisection stops refining a sign change of T
_ZERO_XTOL = 0.01

# the unit-density triangular basis, whose shell N holds the points at
# q = N / _SHELL
_BASIS = basis_matrix(TRIANGULAR.x, TRIANGULAR.y)
_BASIS.flags.writeable = False
_SHELL = math.sqrt(3.0) / 2.0


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
    The point m u1 + n u2 lies on the shell N = m^2 + mn + n^2, an
    integer, at q = N / (sqrt(3)/2) exactly, so each point takes its N as
    rint(q sqrt(3)/2), H is called once per shell present, on the exact q
    of those shells in increasing order, and its values are expanded back
    to the points.  Returns a float, or an array of ``heads``.
    """

    def cols(pts, q):
        # each point's shell N, and the exact q of each shell present
        shells, at = np.unique(np.rint(q * _SHELL).astype(np.intp), return_inverse=True)
        shells = shells / _SHELL
        h, d1, d2 = H(shells)
        return np.stack([h, shells * (shells * d2 + 2.0 * d1)])[..., at]

    T = _summed(cols, tail_of, _BASIS, rtol, 1 if heads is None else heads)[0][1, :, 0]
    return float(T[0]) * (2.0 / 3.0) if heads is None else T * (2.0 / 3.0)


def t_coefficient_diffuse(P: RadialPotential, mu: RadialMeasure, eps,
                          rtol: float = 1e-10):
    """T of the diffuse energy E_{h_eps} at the triangular lattice.

    A float for a scalar eps; for a 1-D array of eps, an array of T, from
    one ``t_coefficient`` call per batch of at most the engine's
    ``_CHUNK_CANDIDATES`` eps.  A batch shares the triangular point set, a
    Phi pass and the tail, and each eps stops on its own E, so each T is
    bit for bit its scalar call in any batch.
    """
    e = np.asarray(eps, dtype=float)
    if e.ndim > 1 or not np.all((e >= 0) & (e < np.inf)):
        raise MeasureSpecError(f"scale factor must be finite and >= 0, got {eps}")
    flat, per, Phi = e.reshape(-1), energy._CHUNK_CANDIDATES, fourier(P)
    T = []
    for batch in np.split(flat, np.arange(per, flat.size, per)):  # one if empty
        H, tail_of = _fourier_summand(Phi, mu, batch)
        T.append(t_coefficient(partial(H, derivatives=True), tail_of, rtol, batch.size))
    T = np.concatenate(T)
    return T if e.ndim else float(T[0])


def sign_changes(P: RadialPotential, mu: RadialMeasure, eps, T,
                 rtol: float = 1e-10) -> list[float]:
    """Zeros of T along a precomputed curve, in grid order.

    ``eps`` and ``T`` are the 1-D arrays of one ``t_coefficient_diffuse``
    request.  A grid point where T is exactly 0 is a zero.  A sign change
    between two grid points is bisected to width ``_ZERO_XTOL`` by the rule
    of one bracket alone: the midpoint m = (lo + hi) / 2 becomes hi where
    T(lo) T(m) <= 0 and lo otherwise.  Each engine request serves every
    open bracket: it holds the bracket's next midpoint and, along
    ``_secant_path``, the midpoints bisection visits after it if the zero
    sits at the secant zero.  After the request each bracket walks its
    midpoints by the rule and stops at the first one it did not ask for;
    a bracket whose path left an asked midpoint unused asks for one
    midpoint per request from then on.  So every T is a midpoint of the
    bracket's own bisection, bit for bit its scalar call, and no bracket
    takes more requests than bisection has levels.
    """
    eps, T = np.asarray(eps, dtype=float), np.asarray(T, dtype=float)
    flips = np.flatnonzero(T[:-1] * T[1:] < 0.0)
    # the larger |second divided difference| of the curve at a bracket's
    # two ends; nan where the curve has no grid neighbour
    with np.errstate(divide="ignore", invalid="ignore"):
        d2 = np.abs(np.diff(np.diff(T) / np.diff(eps)) / (eps[2:] - eps[:-2]))
    d2 = np.concatenate([[math.nan], d2, [math.nan]])[: eps.size]
    curv = np.fmax(d2[flips], d2[flips + 1]).tolist()
    lo, hi = eps[flips].tolist(), eps[flips + 1].tolist()
    flo, fhi = T[flips].tolist(), T[flips + 1].tolist()
    while True:
        paths = [_secant_path(*v) for v in zip(lo, hi, flo, fhi, curv)]
        asked = [m for path in paths for m in path]
        if not asked:
            break
        fm = iter(t_coefficient_diffuse(P, mu, np.array(asked), rtol).tolist())
        for b, path in enumerate(paths):
            for m, t in zip(path, [next(fm) for _ in path]):
                if 0.5 * (lo[b] + hi[b]) != m:  # missed: one midpoint a request
                    curv[b] = math.nan
                    break
                if flo[b] * t <= 0.0:
                    hi[b], fhi[b] = m, t
                else:
                    lo[b], flo[b] = m, t
    zeros = {i: 0.5 * (a + c) for i, a, c in zip(flips.tolist(), lo, hi)}
    zeros.update((i, e) for i, e in enumerate(eps.tolist()) if T[i] == 0.0)
    return [zeros[i] for i in sorted(zeros)]


def _secant_path(lo: float, hi: float, flo: float, fhi: float,
                 curv: float) -> list[float]:
    """The midpoints that bisection of [lo, hi] visits if the zero of T
    sits at the secant zero z, formed as bisection forms them; none once
    the bracket is ``_ZERO_XTOL`` wide.

    The first midpoint is always on the path.  Each further one follows a
    midpoint m that lies farther from z than twice the secant error
    |T''| w^2 / (8 |T'|) of the bracket of width w, with T' = (fhi - flo)
    / w and |T''| read as ``curv``, the curve's second divided difference
    next to the bracket: there the secant's side of z is taken to be the
    side bisection takes.  A nan ``curv`` (no grid neighbour, or a path
    of the bracket that missed) ends the path at its first midpoint; every
    path ends at width ``_ZERO_XTOL``.
    """
    w = hi - lo
    if not w > _ZERO_XTOL:
        return []
    z = lo + flo * w / (flo - fhi)
    margin = curv * w * w * w / (4.0 * abs(fhi - flo))
    path = [0.5 * (lo + hi)]
    while abs(path[-1] - z) > margin:
        if z < path[-1]:
            hi = path[-1]
        else:
            lo = path[-1]
        if not hi - lo > _ZERO_XTOL:
            break
        path.append(0.5 * (lo + hi))
    return path
