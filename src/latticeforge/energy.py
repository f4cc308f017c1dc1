"""Lattice sums: theta functions and diffuse energies.

The diffuse energy of a potential f and particle shape mu on a lattice L
is evaluated on the Fourier side as

    E[L] = sum'_{p in L*} fhat(p) g(|p|)^2  +  fhat(0) - (f*mu*mu)(0),

For a planar lattice L of covolume s, the dual L* is L turned by 90
degrees and scaled by 1/s.  The summand is radial, so the sum runs over
the points of L / s, with no dual basis.  All sums run over the basis
they are given and are truncated at a radius with a certified tail
bound derived from a disk-packing estimate.  The packing radius comes
from the Lagrange-Gauss reduced basis, so the bound is certified for any
(x, y) with y > 0, not only near D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import erfc

from . import lattice as lat
from .lattice import LatticeParams
from .measure import RadialMeasure, _transform, self_convolution_at_zero
from .potential import RadialPotential, eval_derivatives, fourier

__all__ = [
    "EnergyReport",
    "NonconvergenceError",
    "theta",
    "diffuse_energy",
    "diffuse_energy_fn",
    "diffuse_energy_jet",
    "mixture_tail",
]


class NonconvergenceError(RuntimeError):
    """Raised when a lattice sum cannot be truncated within its budget."""


@dataclass(frozen=True)
class EnergyReport:
    value: float
    lattice_part: float
    constant_part: float
    cutoff_R: float
    tail_bound: float
    terms_used: int


# ---------------------------------------------------------------------------
# Tail bounds
#
# For a decreasing radial summand phi and a lattice with packing radius rho
# (half the shortest vector), the packing disks of points with |x| > R are
# disjoint and lie in {|y| > R - rho}, and phi(|x|) <= phi(|y| - rho) on
# each disk, so
#     sum_{|x| > R} phi(|x|)
#         <= (1/(pi rho^2)) int_{|y| > R - rho} phi(|y| - rho) dy
#         =  (2/rho^2) int_{R - 2 rho}^inf (u + rho) phi(u) du.
# Every nonzero point has |x| >= 2 rho, so its disk lies in {|y| >= rho}
# and the bound at R <= 2 rho is the one at 2 rho.
# ---------------------------------------------------------------------------

def mixture_tail(ts: np.ndarray, ws: np.ndarray, rho):
    """Tail-bound closure for phi(r) = sum w exp(-t r^2).

    ``rho`` may be an array of packing radii; the closure then takes an
    array R of the same shape and returns one bound per entry.  Each call
    evaluates one (R entries, nodes) array.
    """
    ts = np.asarray(ts, dtype=float)
    ws = np.asarray(ws, dtype=float)
    rho = np.asarray(rho, dtype=float)
    rho2 = rho * rho
    # t near the float limits: pi / t may overflow to inf, a bound that
    # stops nothing; 2 t and t a^2 may too, and then exp(-t a^2) / (2 t)
    # is 0, its limit
    with np.errstate(over="ignore"):
        shift = rho[..., None] * 0.5 * np.sqrt(math.pi / ts)
        sqrt_ts, two_ts = np.sqrt(ts), 2.0 * ts

    def bound(R):
        a = np.maximum(np.asarray(R) - 2.0 * rho, 0.0)[..., None]
        # int_a^inf (u + rho) exp(-t u^2) du, then * 2 / rho^2
        with np.errstate(over="ignore"):
            vals = ws * (np.exp(-ts * a * a) / two_ts + shift * erfc(sqrt_ts * a))
        return vals.sum(axis=-1) * 2.0 / rho2

    return bound


# ---------------------------------------------------------------------------
# The lattice-sum engine
# ---------------------------------------------------------------------------

# candidates (lattices x box x heads) broadcast at once; larger batches go
# in chunks
_CHUNK_CANDIDATES = 1 << 18

# rungs of each lattice's cutoff ladder
_RUNGS = 40

# headroom on a sum's reach for rounding: ascending sums of up to 10^7
# terms of one sign are within 10^7 ulps of their value
_REACH_SLACK = 1.0 + 2.0**-20


def _packing_radius(bases: np.ndarray) -> np.ndarray:
    """Half the shortest lattice vector, per basis of a (k, 2, 2) stack.

    The shortest of u1, u2, u1 + u2 and u1 - u2 for the Lagrange-Gauss
    reduced rows u1, u2, which holds a shortest vector for any basis.
    """
    reduced = lat._reduced(bases)
    u1, u2 = reduced[:, 0], reduced[:, 1]
    vs = np.stack([u1, u2, u1 + u2, u1 - u2])
    return 0.5 * np.sqrt(np.einsum("...i,...i->...", vs, vs).min(axis=0))


def _round_sums(h_eval, bases: np.ndarray, R: np.ndarray, heads: int = 1):
    """Sum of h over each lattice's points within its R, and their count.

    ``h_eval(pts, q)`` gives (c, heads, n) values for n points: c columns
    of ``heads`` head columns each (a 1-D or (c, n) summand has one head).
    The box |m| <= m_max, |n| <= n_max of ``lat.enumerate_points`` has one
    row (m, n) per coefficient, m-major.  Only the rows after the origin's
    (m > 0, or m = 0 < n) are summed, then doubled: every summand is even
    in p (radial H; the jet's a, b, q; T's column) and row -(m, n) holds
    exactly minus the point of (m, n).  Each call takes a slice of rows
    over every lattice, built from the rows' flat indices: one row or more,
    about ``_CHUNK_CANDIDATES`` (point, head) pairs while heads times
    lattices is at most that (``stability.t_coefficient_diffuse`` passes one
    lattice and at most that many heads).  ``np.add.at`` adds in index order
    onto what a sum holds, so a pair's terms are added one by one in box
    order however the box is sliced, and no sum depends on the batch or
    the other heads.  Returns the sums, (c, heads, k), and the counts.
    """
    (m_max, n_max), k = lat.enumerate_points(bases, R), len(bases)
    width = 2 * n_max + 1
    origin, size = m_max * width + n_max, (2 * m_max + 1) * width
    # basis entries as (lattices, 1) columns
    u1x, u1y, u2x, u2y = bases.reshape(-1, 4, 1).transpose(1, 0, 2)
    r2 = (R * R * (1.0 + 1e-12))[:, None]
    rows = max(1, _CHUNK_CANDIDATES // (heads * k))  # box rows per slice
    sums, counts = None, np.zeros(k, dtype=int)
    for at in range(origin + 1, size, rows):
        # row i is entry (m + m_max, n + n_max) of the (2 m_max + 1, width) grid
        m, n = divmod(np.arange(at, min(at + rows, size)) - m_max * width, width)
        n -= n_max
        # the points as x and y planes over (lattices, rows)
        x, y = m * u1x + n * u2x, m * u1y + n * u2y
        q = x * x + y * y
        keep = q <= r2
        owner = np.nonzero(keep)[0]
        # the kept points as (n, 2), a transposed view of their x and y rows
        pts = np.array((x[keep], y[keep])).T
        vals = np.asarray(h_eval(pts, q[keep]))
        # sums[i, j] is (column, head) i of lattice j, at flat index i k + j
        sums = np.zeros((math.prod(vals.shape[:-1]), k)) if sums is None else sums
        index = np.arange(0, sums.size, k)[:, None] + owner
        np.add.at(sums.reshape(-1), index.ravel(), vals.ravel())
        np.add.at(counts, owner, 1)
    return 2.0 * sums.reshape(-1, heads, k), 2 * counts


def _summed(h_eval, tail_of, bases: np.ndarray, rtol: float, heads: int = 1):
    """Adaptive truncated sums of h over the nonzero points of each lattice.

    ``bases`` is a (k, 2, 2) stack of basis rows (or one (2, 2) basis);
    ``tail_of(rho)`` builds the tail bound R -> bound for packing radii rho;
    ``h_eval`` is a summand of ``heads`` heads as ``_round_sums`` takes it.

    Each lattice has a ladder of ``_RUNGS`` cutoffs R_j = max(6 rho, 2)
    1.5^j.  Each (head, lattice) pair stops at the first rung where its
    tail bound is within ``rtol`` of its sum (of its first column, the stop
    column), tail(R) <= rtol max(|S|, 1e-300), and keeps the sums, R,
    bound and terms of that rung; a lattice leaves the batch when all its
    heads have stopped.  A lattice is summed only at rungs where a pair
    can stop: before each round it moves up to the first rung where
    tail(R_j) <= rtol reach, with reach a bound on |S| at any later rung.
    Before the first round reach is tail(0), which bounds the sum over
    every nonzero point; after a round it is the largest |S| + tail(R)
    over the heads still running, as every later sum lies within tail(R)
    of this one (times ``_REACH_SLACK`` for rounding).  A skipped rung
    fails the stop test of every pair, so each pair stops at the rung of
    the every-rung ladder and keeps its values bit for bit.  When no rung
    can stop, NonconvergenceError is raised before any further round, as
    it is when a stop column is not finite.  Returns arrays (sums, R,
    bounds, terms): sums (c, heads, k) and the others (heads, k), empty
    from no round when there is no lattice or no head.
    """
    if not 0.0 < rtol < math.inf:
        raise ValueError(f"rtol must be finite and > 0, got {rtol}")
    bases = np.asarray(bases, dtype=float).reshape(-1, 2, 2)
    k, rho = len(bases), _packing_radius(bases)
    if not (k and heads):  # the summand on no points counts its columns c
        c = len(np.atleast_2d(h_eval(np.zeros((0, 2)), np.zeros(0))))
        empty = np.zeros((heads, k))
        return np.zeros((c, heads, k)), empty, empty, empty.astype(int)
    tail, R = tail_of(rho), np.maximum(6.0 * rho, 2.0)
    bound, rung = tail(R), np.zeros(k, dtype=int)
    # every nonzero point has |x| >= 2 rho, so tail(0) bounds |S| at any R
    cap = rtol * np.maximum(tail(np.zeros(k)) * _REACH_SLACK, 1e-300)
    up = np.flatnonzero(bound > cap)  # the lattices that leave their rung
    # live[h, j]: head h of lattice active[j] is still summing
    active, live = np.arange(k), np.ones((heads, k), dtype=bool)
    kept, record = None, np.zeros((3, heads, k))  # sums; R, bound, terms
    while True:
        while up.size:
            R[up] *= 1.5
            rung[up] += 1
            if rung[up].max() == _RUNGS:
                raise NonconvergenceError(
                    f"lattice sum did not meet the tail tolerance within "
                    f"{_RUNGS} cutoffs (R up to {R[up].max():g})")
            bound = tail(R)
            # a rung whose tail exceeds rtol * reach cannot stop any pair
            # (a nan on either side keeps the rung)
            up = up[bound[up] > cap[up]]
        sums, terms = _round_sums(h_eval, bases[active], R[active], heads)
        kept = np.empty_like(sums) if kept is None else kept  # round 1 runs all
        h, j = np.nonzero(live)
        kept[:, h, active[j]] = sums[:, h, j]
        record[:, h, active[j]] = R[active[j]], bound[active[j]], terms[j]
        S = sums[0]
        bad = np.argwhere(live & ~np.isfinite(S))
        if bad.size:  # nan never stops, and inf stops at once
            h, j = bad[0]
            raise NonconvergenceError(f"lattice sum is not finite ({S[h, j]}) "
                                      f"at cutoff R = {R[active[j]]:g}")
        live &= ~(bound[active] <= rtol * np.maximum(np.abs(S), 1e-300))
        # every later sum lies within tail(R) of this one
        reach = np.where(live, np.abs(S), 0.0).max(axis=0) + bound[active]
        cap[active] = rtol * np.maximum(reach * _REACH_SLACK, 1e-300)
        going = live.any(axis=0)
        active, live = active[going], live[:, going]
        if not active.size:
            return kept, record[0], record[1], record[2].astype(int)
        up = active


def _fourier_summand(Phi: RadialPotential, mu: RadialMeasure, eps=None):
    """The summand H(q) = Phi(q) g(sqrt q)^2 at squared dual radius q.

    Returns (H, tail_of): H(q) gives H, and H(q, derivatives=True) gives
    (H, H', H'') in q, for q > 0, from one transform and one Phi call: the
    J0/J1/J2 moments of mu combine with Phi, Phi', Phi'' by the Leibniz
    rule, and this H is bit for bit H(q).  tail_of is the tail factory
    (|g| <= 1, so H <= Phi).  A dilated particle is passed as
    ``scale(mu, eps)``; a 1-D array ``eps`` instead gives the derivative
    summand of every dilation of mu at once, each of H, H', H'' of shape
    (k, n) for k eps, row i bit for bit that of ``scale(mu, eps[i])``.
    All of them share the one Phi pass and the tail factory.
    """

    def H(q, derivatives=False):
        if not derivatives:
            g = _transform(mu, np.sqrt(q), False)
            return Phi.eval(q) * g * g
        A0, A1, A2 = _transform(mu, np.sqrt(q), True, eps)
        P0, P1, P2 = eval_derivatives(Phi, q, (0, 1, 2))
        # an overflowing particle scale leaves inf or nan here, quietly
        with np.errstate(over="ignore", invalid="ignore"):
            G2 = A0 * A0
            dG2 = -(2.0 * math.pi / np.sqrt(q)) * A1 * A0
            d2G2 = (
                (math.pi / q**1.5) * A0 * A1
                + (2.0 * math.pi**2 / q) * A1 * A1
                + (math.pi**2 / q) * A0 * A2
            )
            return (P0 * A0 * A0, P1 * G2 + P0 * dG2,
                    P2 * G2 + 2.0 * P1 * dG2 + P0 * d2G2)

    return H, partial(mixture_tail, *Phi.rep.nodes())


def _triangular_is_global(mu: RadialMeasure) -> bool:
    """Whether the triangular lattice minimizes E over every unit-density
    lattice for any potential of the library: for dirac and Gaussian mu.

    Every potential is a Laplace mixture sum w_i exp(-t_i r^2) with t_i > 0
    and w_i >= 0 (atoms, or the nodes of a nonnegative density), so Phi(q)
    = sum w'_i exp(-t'_i q) with (t'_i, w'_i) = (pi^2 / t_i, w_i pi / t_i).
    A Gaussian particle of width sigma has g(sqrt q)^2 = exp(-2 pi sigma^2 q)
    and a dirac particle g = 1 (sigma = 0), so the summand is
        H(q) = sum w'_i exp(-(t'_i + 2 pi sigma^2) q),
    completely monotone, and with theta_L(a) = sum_{x in L} exp(-pi a |x|^2)
        E(L) = sum w'_i (theta_L((t'_i + 2 pi sigma^2) / pi) - 1)
    (the sum runs over L itself, which has the radii of its dual).
    Montgomery ("Minimal theta functions", Glasgow Math. J. 30, 1988) puts
    the minimum of theta_L(a) over unit-covolume lattices at the triangular
    lattice for every a > 0; so every term, and their sum with weights
    w'_i >= 0, is least there: the paper's Theorem 2.  This holds for the
    very node mixture the engine sums, not only for the potential it
    approximates.  The triangular point (1/2, sqrt(3)/2) lies in D and
    below every y_max > 1.  A disk's or profile's g oscillates (J1, J0), so
    its summand is not completely monotone and needs the search.
    """
    return mu.kind in ("dirac", "gaussian")


def theta(L: LatticeParams, t: float, rtol: float = 1e-12) -> float:
    """Lattice theta function sum_{x in L} exp(-pi t |x|^2), origin included."""
    if not 0 < t < math.inf:
        raise ValueError(f"t must be finite and > 0, got {t}")

    def summand(pts, q):
        with np.errstate(over="ignore"):  # exp(-inf) = 0 for t near the float limit
            return np.exp(-math.pi * t * q)

    tail_of = partial(mixture_tail, [math.pi * t], [1.0])
    return 1.0 + _summed(summand, tail_of, L.basis(), rtol)[0].item()


def _constant(P: RadialPotential, mu: RadialMeasure, s: float = 1.0) -> float:
    """The energy's constant fhat(0) / s - (f*mu*mu)(0) at covolume s."""
    return P.integral / s - self_convolution_at_zero(P, mu)


def diffuse_energy(P: RadialPotential, mu: RadialMeasure, L: LatticeParams,
                   rtol: float = 1e-10) -> EnergyReport:
    """Fourier-side energy per particle of L at its own covolume s: by
    Poisson summation, (1/s) sum'_{p in L*} fhat(p) g(|p|)^2 plus the
    constant fhat(0) / s - (f*mu*mu)(0); the tail bound is divided by s."""
    s = L.scale
    H, tail_of = _fourier_summand(fourier(P), mu)
    # L* is L turned by 90 degrees and scaled by 1/covolume
    total, R, bound, terms = (v.item() for v in _summed(
        lambda pts, q: H(q), tail_of, L.basis() / s, rtol))
    lattice_part, const = total / s, _constant(P, mu, s)
    return EnergyReport(value=lattice_part + const, lattice_part=lattice_part,
                        constant_part=const, cutoff_R=R, tail_bound=bound / s,
                        terms_used=terms)


def diffuse_energy_fn(P: RadialPotential, mu: RadialMeasure,
                      rtol: float = 1e-10, include_constant: bool = False):
    """E(x, y) for scans, minimization and finite differences.

    Sums fhat(p) g(|p|)^2 over the unit-density lattice (x, y) itself,
    which has the same radii as its dual.  Defined for any x and y > 0, so
    probes may step across the boundary of D.  Arrays x and y of one shape
    are summed as one batch and give an array of that shape; scalars give
    a float.
    """
    H, tail_of = _fourier_summand(fourier(P), mu)
    const = _constant(P, mu) if include_constant else 0.0

    def E(x, y):
        x = np.asarray(x, dtype=float)
        bases = lat.basis_matrix(x.ravel(), np.ravel(y))
        val = _summed(lambda pts, q: H(q), tail_of, bases, rtol)[0][0, 0] + const
        return float(val[0]) if x.ndim == 0 else val.reshape(x.shape)

    return E


def diffuse_energy_jet(P: RadialPotential, mu: RadialMeasure,
                       rtol: float = 1e-10):
    """(E, gradient, Hessian) in (x, y): arrays x, y of shape (k,) give
    (k,), (k, 2) and (k, 2, 2) from one engine pass, with E bit for bit
    ``diffuse_energy_fn(P, mu, rtol)``'s.

    grad E = sum H' grad q and Hessian = sum H'' grad q grad q^T + H' Hessian(q),
    with q_x = 2 a / y, q_y = b / y and y^2 (q_xx, q_xy, q_yy) = (2 p1^2,
    -2 a, 2 p0^2) for a = p0 p1, b = p1^2 - p0^2 at the points p of the
    lattice (x, y).  These sums share E's cutoff; their tails are not certified.
    A gradient or Hessian entry that is not finite raises NonconvergenceError.
    """
    H, tail_of = _fourier_summand(fourier(P), mu)

    def cols(pts, q):
        h, d1, d2 = H(q, derivatives=True)
        a, b = pts[:, 0] * pts[:, 1], pts[:, 1] ** 2 - pts[:, 0] ** 2
        return np.stack([h, d1 * a, d1 * b, d1 * q,
                         d2 * a * a, d2 * a * b, d2 * b * b])

    def jet(x, y):
        sums = _summed(cols, tail_of, lat.basis_matrix(x, y), rtol)[0]
        E, a, b, q, aa, ab, bb = sums[:, 0]
        y = np.asarray(y, dtype=float)[:, None]
        hxy = 2.0 * (ab - a)
        hess = np.stack([4.0 * aa + q + b, hxy, hxy, bb + q - b], axis=-1) / (y * y)
        grad = np.stack([2.0 * a, b], axis=-1) / y
        bad = np.flatnonzero(~np.isfinite(np.hstack([grad, hess])).all(axis=1))
        if bad.size:  # such as 0 * inf in a sum whose terms all vanish
            i = bad[0]
            raise NonconvergenceError(
                f"gradient or Hessian of E is not finite at (x, y) = "
                f"({np.ravel(x)[i]:g}, {y[i, 0]:g})")
        return E, grad, hess.reshape(-1, 2, 2)

    return jet

