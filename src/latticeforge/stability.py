"""Stability analysis at the triangular lattice.

At the triangular point the Hessian of any radial-summand lattice energy
is a multiple T of the identity, so T is half its trace: one radial column
summed next to E itself.  The triangular lattice's points lie on shells
N = m^2 + mn + n^2 of known multiplicity r(N), at the exact q = (2/sqrt 3)
N, which the points' x^2 + y^2 miss by an ulp or so, so T is summed over
shells, not points.  The sum climbs the cutoff ladder of the lattice-sum
engine of ``energy`` under the same stop rule and stops on E's certified
tail, so ``rtol`` is relative to E and T shares E's cutoff without a tail
bound of its own.  A scalar eps is one head, and a curve sums its eps in
one request, where the eps share the shells, and each eps is a head with
columns (E, T) that stops on its own E and is evaluated only while it
runs; each head's sum runs shell after shell in increasing N, so each T
is bit for bit its scalar call.  Every request for one potential shares
T's tail bounds over the ladder and the summand's rows that do not
depend on eps at each shell (``_Tables``), so a command's later requests
evaluate only what depends on their eps.  ``sign_changes`` takes the
arrays (eps, T) of one such request and bisects the sign changes of
every bracket at once: each request holds the next midpoint of every
open bracket and, where the curve is smooth enough to predict it, the
midpoints after it on the secant zero's path.  The finite-difference check of T, a Hessian of
E(x, y) on a 3x3 stencil, lives in the tests.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import energy
from . import lattice as lat
from .lattice import TRIANGULAR, basis_matrix
from .measure import MeasureSpecError, RadialMeasure, _transform
from .potential import RadialPotential, eval_derivatives, fourier

__all__ = [
    "t_coefficient",
    "t_coefficient_diffuse",
    "sign_changes",
]

# width at which bisection stops refining a sign change of T
_ZERO_XTOL = 0.01

# the unit-density triangular basis, whose shell N = m^2 + mn + n^2 holds
# the points m u1 + n u2, at q = N / _SHELL, and its packing radius
_BASIS = basis_matrix(TRIANGULAR.x, TRIANGULAR.y)
_BASIS.flags.writeable = False
_SHELL = math.sqrt(3.0) / 2.0
_RHO = energy._packing_radius(_BASIS[None])
_RHO.flags.writeable = False


@lru_cache(maxsize=energy._RUNGS)
def _shells(R: float):
    """The shells N of the triangular lattice whose exact q = N / _SHELL
    lies within R (with the engine's 1e-12 slack), increasing, and their
    multiplicities r(N), as read-only arrays.

    Rotation by 60 degrees maps m u1 + n u2 to -n u1 + (m + n) u2, and
    every nonzero point has one image in the sector m > 0, n >= 0, so r(N)
    is six times N's count there.  The sector is taken from the box of
    ``lattice.enumerate_points``, so its point cap applies when a table is
    built; a table is kept per R, as the ladder's R are the same for every
    request.
    """
    m_max, n_max = lat.enumerate_points(_BASIS[None], np.array([R]))
    m, n = np.arange(1, m_max + 1)[:, None], np.arange(n_max + 1)
    N = (m * m + m * n + n * n).ravel()
    N = N[N / _SHELL <= R * R * (1.0 + 1e-12)]
    shells, count = np.unique(N, return_counts=True)
    r = 6 * count
    shells.flags.writeable = r.flags.writeable = False
    return shells, r


# T's cutoff ladder: R = 0, whose tail bounds the sum over every nonzero
# point, then each rung ``energy._stop_rule`` climbs at the packing radius
# _RHO, formed by the same products
_LADDER = np.cumprod(np.concatenate(
    [np.maximum(6.0 * _RHO, 2.0), np.full(energy._RUNGS - 1, 1.5)]))
_LADDER = np.concatenate([[0.0], _LADDER])
_LADDER.flags.writeable = False


class _Tables:
    """What every T request for one potential Phi shares: T's tail bound at
    each ``_LADDER`` cutoff, from one evaluation, and the summand's ``_rows``
    at the shells reached so far, each shell evaluated once.  Built by
    ``_tables`` and kept on Phi, to which it holds no reference, so it is
    freed with the potential."""

    def __init__(self, Phi: RadialPotential):
        self.bounds = energy.mixture_tail(*Phi.rep.nodes(), _RHO)(_LADDER)
        self.shells = np.empty((8, 0))

    def tail_of(self, rho):
        """T's tail factory, for T's packing radius ``_RHO``: the bound of a
        rung is read from the table."""
        return lambda R: self.bounds[_LADDER.searchsorted(R)]

    def at(self, Phi: RadialPotential, q, first: int):
        """``_rows`` as an (8, n) array, at the exact q of the shells from
        index ``first`` of the shell tables on; the table grows by the
        shells it does not hold yet."""
        end, have = first + q.size, self.shells.shape[1]
        if end > have:
            self.shells = np.concatenate(
                [self.shells, np.array(_rows(Phi, q[have - first:]))], axis=1)
        return self.shells[:, first:end]


def _tables(Phi: RadialPotential) -> _Tables:
    """The T tables of Phi, built on the first request."""
    tables = Phi._tables.get(__name__)
    if tables is None:
        tables = Phi._tables[__name__] = _Tables(Phi)
    return tables


def _rows(Phi: RadialPotential, q):
    """The summand's rows that do not depend on eps: Phi, Phi', Phi'',
    t = sqrt q and ``energy._q_factors`` at q."""
    t = np.sqrt(q)
    return (*eval_derivatives(Phi, q, (0, 1, 2)), t, *energy._q_factors(q, t))


class _Curve:
    """T's summand for the eps of one request: (H, H', H'') of H(q) =
    Phi(q) g(eps sqrt q)^2 at a 1-D q, one row per eps, as
    ``_fourier_summand`` forms them.  ``select(live, first)`` narrows the
    next call to the eps ``live`` at the shells from index ``first`` on, read
    from Phi's tables; any other call gives every eps at q."""

    def __init__(self, Phi: RadialPotential, mu: RadialMeasure, eps: np.ndarray):
        self.Phi, self.tables, self.mu, self.eps = Phi, _tables(Phi), mu, eps
        self._next = None

    def select(self, live, first: int) -> None:
        self._next = live, first

    def __call__(self, q):
        at, self._next = self._next, None
        if at is None:
            rows, eps = _rows(self.Phi, q), self.eps
        else:
            rows, eps = self.tables.at(self.Phi, q, at[1]), self.eps[at[0]]
        A = _transform(self.mu, rows[3], True, eps)
        return energy._leibniz(rows[:3], A, rows[4:])


def _shell_sums(H, tail_of, rtol: float, heads: int, select=None):
    """Sums (E, T's column) of ``heads`` summands over the shells of the
    triangular lattice, and (R, bound) where each stopped, each (2, heads).

    Every head climbs ``energy._stop_rule``'s one ladder of the triangular
    packing radius and stops on its own E.  A round calls H on the exact q
    of the shells new since the last round only, in slices of at most
    ``_CHUNK_CANDIDATES`` (shell, running head) pairs, and adds r(N) times
    each shell's values to a running total per running head, one shell
    after another in increasing N (``np.cumsum``, carried across slices and
    rounds), so a head's sums are bit for bit the same alone, in any batch
    and under any slicing.  With ``select``, each call of H is preceded by
    ``select(live, first)``: the running heads and the index of the call's
    first shell in the shell tables, and H gives the running heads' rows
    only; without it, H gives every head's rows.
    """
    total, done = np.zeros((2, heads)), 0

    def round_sums(live, R):
        nonlocal done
        # a larger R's table extends a smaller one's: its new shells follow
        shells, r = (v[done:] for v in _shells(R[0]))
        per = max(1, energy._CHUNK_CANDIDATES // live.size)
        for at in range(0, shells.size, per):
            q = shells[at:at + per] / _SHELL
            if select is not None:
                select(live, done + at)
                h, d1, d2 = H(q)
            else:  # every head's rows
                h, d1, d2 = (np.reshape(v, (heads, -1))[live] for v in H(q))
            # (column, head, shell): r(N) (H, q (q H'' + 2 H')) per shell,
            # the first shell's onto the running total
            vals = np.array((h, q * (q * d2 + 2.0 * d1))) * r[at:at + per]
            vals[..., 0] += total[:, live]
            total[:, live] = vals.cumsum(axis=-1)[..., -1]
        done += shells.size
        return total[0, live]

    stop = energy._stop_rule(round_sums, tail_of(_RHO), _RHO, rtol,
                             np.zeros(heads, dtype=int))
    return total, stop


def t_coefficient(H, tail_of, rtol: float = 1e-10, heads: int | None = None,
                  select=None):
    """T = d^2E/dx^2 of E = sum' H(|p|^2) at the triangular lattice (x, y).

    ``H(q)`` gives (H, H', H'') on a 1-D array q, each of shape (n,) for
    one head, or (heads, n) for ``heads`` summands at once (one T each);
    ``tail_of`` is their shared tail factory.  The Hessian is T times the
    identity, so T is half its trace, sum' H'' |grad q|^2 + H' Laplacian(q).
    With a = p0 p1 and b = p1^2 - p0^2, y^2 |grad q|^2 = 4 a^2 + b^2 = q^2 and
    y^2 Laplacian(q) = 2 q, so with y^2 = 3/4, T = (2/3) sum' q^2 H'' + 2 q H',
    a radial column summed over the lattice's shells next to H by
    ``_shell_sums``, whose tail stops both sums at ``rtol`` relative to E;
    each head stops on its own E, and a ``select`` narrows H to the heads
    still running there.  Returns a float, or an array of ``heads``.
    """
    sums = _shell_sums(H, tail_of, rtol, 1 if heads is None else heads, select)[0]
    T = sums[1] * (2.0 / 3.0)
    return float(T[0]) if heads is None else T


def t_coefficient_diffuse(P: RadialPotential, mu: RadialMeasure, eps,
                          rtol: float = 1e-10):
    """T of the diffuse energy E_{h_eps} at the triangular lattice.

    ``eps`` is a scalar, which gives a float, or a 1-D array, which gives
    an array of T from one ``t_coefficient`` call per batch of at most the
    engine's ``_CHUNK_CANDIDATES`` eps.  A batch shares the triangular
    lattice's shells, and each eps stops on its own E and is evaluated
    only while it runs, so each T is bit for bit its scalar call in any
    batch.  Every request for P also shares P's ``_Tables``: T's tail at
    each cutoff and Phi on each shell are evaluated once, on the first
    request that needs them.
    """
    e = np.asarray(eps, dtype=float)
    if e.ndim > 1:
        raise MeasureSpecError(
            f"eps must be a scalar or a 1-D array, got an array of shape {e.shape}")
    if not ((e >= 0) & (e < np.inf)).all():
        raise MeasureSpecError(f"scale factor must be finite and >= 0, got {eps}")
    flat, per, Phi = e.reshape(-1), energy._CHUNK_CANDIDATES, fourier(P)
    T = []
    for at in range(0, max(flat.size, 1), per):  # one batch if empty
        H = _Curve(Phi, mu, flat[at:at + per])
        T.append(t_coefficient(H, H.tables.tail_of, rtol, H.eps.size, select=H.select))
    T = np.concatenate(T)
    return T if e.ndim else float(T[0])


def sign_changes(P: RadialPotential, mu: RadialMeasure, eps, T,
                 rtol: float = 1e-10) -> list[float]:
    """Zeros of T along a precomputed curve, in grid order.

    ``eps`` and ``T`` are the 1-D arrays of one ``t_coefficient_diffuse``
    request.  A grid point where T is exactly 0 is a zero.  A sign change
    between two grid points is bisected to width ``_ZERO_XTOL`` by the rule
    of one bracket alone: the midpoint m = (lo + hi) / 2 becomes hi where
    T(lo) T(m) <= 0 and lo otherwise.  Each request serves every
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
