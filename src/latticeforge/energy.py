"""Lattice sums: theta functions and diffuse energies.

The diffuse energy of a potential f and particle shape mu on a lattice L
is evaluated on the Fourier side as

    E[L] = sum'_{p in L*} fhat(p) g(|p|)^2  +  fhat(0) - (f*mu*mu)(0),

For a planar lattice L of covolume s, the dual L* is L turned by 90
degrees and scaled by 1/s.  The summand is radial, so the sum runs over
the points of L / s, with no dual basis; only the Poisson check, whose
phase p.z depends on the frame, uses the dual basis.  A direct-space
summation is available for Gaussian families as a cross-check.  All sums
run over the basis they are given and are truncated at a radius with a
certified tail bound derived from a disk-packing estimate.  The packing
radius comes from the Lagrange-Gauss reduced basis, so the bound is
certified for any (x, y) with y > 0, not only near D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.special import erfc

from . import lattice as lat
from .lattice import LatticeParams
from .measure import (
    RadialMeasure, _transform, hankel, self_convolution_at_zero,
)
from .potential import RadialPotential, eval_derivatives, fourier, from_atoms

__all__ = [
    "EnergyReport",
    "NonconvergenceError",
    "theta",
    "diffuse_energy",
    "diffuse_energy_fn",
    "diffuse_energy_jet",
    "diffuse_energy_direct",
    "poisson_check",
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
# and the bound at R <= 2 rho is the one at 2 rho.  An extra ``offset``
# handles shifted summands phi((|x| - offset)_+), which are phi(0) on
# {|y| < rho + offset}: the integral then starts at
# l = max(R - 2 rho - offset, -offset) with phi(0) on [l, 0].
# ---------------------------------------------------------------------------

def mixture_tail(ts: np.ndarray, ws: np.ndarray, rho, offset: float = 0.0):
    """Tail-bound closure for phi(r) = sum w exp(-t r^2).

    ``rho`` may be an array of packing radii; the closure then takes an
    array R of the same shape and returns one bound per entry.  Each call
    evaluates one (R entries, nodes) array.
    """
    ts = np.asarray(ts, dtype=float)
    ws = np.asarray(ws, dtype=float)
    rho = np.asarray(rho, dtype=float)
    rho2 = rho * rho
    shift = (rho + offset)[..., None] * 0.5 * np.sqrt(math.pi / ts)
    phi0 = ws.sum()
    # t near the float limit: 2 t and t a^2 may overflow to inf, and then
    # exp(-t a^2) / (2 t) is 0, its limit
    with np.errstate(over="ignore"):
        sqrt_ts, two_ts = np.sqrt(ts), 2.0 * ts

    def bound(R):
        low = np.maximum(np.asarray(R) - 2.0 * rho - offset, -offset)
        a = np.maximum(low, 0.0)[..., None]
        # int_a^inf (u + rho + offset) exp(-t u^2) du, then * 2 / rho^2
        with np.errstate(over="ignore"):
            vals = ws * (np.exp(-ts * a * a) / two_ts + shift * erfc(sqrt_ts * a))
        # int_low^0 (u + rho + offset) phi(0) du where low < 0
        core = np.where(low < 0.0, phi0 * -low * (0.5 * low + rho + offset), 0.0)
        return (vals.sum(axis=-1) + core) * 2.0 / rho2

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
    of ``heads`` head columns each, where a 1-D or (c, n) summand has one
    head.  Each (head, lattice) pair's terms are summed on their own, in
    ascending order of that head's first column, so no sum depends on the
    rest of the batch, on the other heads or on how the box is sliced into
    chunks.  Returns the sums, (c, heads, k) for k lattices, and the point
    count of each lattice.
    """
    box = lat.enumerate_points(bases, R)
    k = len(bases)
    sums, counts = None, np.zeros(k, dtype=int)
    budget = max(1, _CHUNK_CANDIDATES // heads)  # candidates per chunk
    rows = min(len(box), budget)  # box rows per slice
    step = max(1, budget // len(box))  # lattices per chunk
    for lo in range(0, k, step):
        b, r = bases[lo:lo + step, None], R[lo:lo + step, None]
        vals, owner = [], []
        for at in range(0, len(box), rows):
            m, n = box[at:at + rows, :1], box[at:at + rows, 1:]
            pts = m * b[..., 0, :] + n * b[..., 1, :]  # (lattices, rows, 2)
            q = pts[..., 0] * pts[..., 0] + pts[..., 1] * pts[..., 1]
            keep = q <= r * r * (1.0 + 1e-12)
            vals.append(np.asarray(h_eval(pts[keep], q[keep])))
            owner.append(np.nonzero(keep)[0])
        vals, owner = np.concatenate(vals, axis=-1), np.concatenate(owner)
        vals = vals.reshape(math.prod(vals.shape[:-1]) // heads, heads, vals.shape[-1])
        nb = len(b)
        # pair j * heads + h is head h of lattice lo + j, and its terms sort
        # by that head's first column
        pair = (owner * heads + np.arange(heads)[:, None]).ravel()
        order = np.lexsort((vals[0].ravel(), pair))
        count = np.bincount(pair, minlength=nb * heads)
        counts[lo:lo + nb] = count[::heads]
        some = count > 0
        starts = (np.cumsum(count) - count)[some]
        sums = np.zeros((len(vals), k * heads)) if sums is None else sums
        for col, out in zip(vals, sums[:, lo * heads:(lo + nb) * heads]):
            out[some] = np.add.reduceat(col.ravel()[order], starts)
    return sums.reshape(-1, k, heads).transpose(0, 2, 1), counts


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
    bounds, terms): sums (c, heads, k) and the others (heads, k).
    """
    if not 0.0 < rtol < math.inf:
        raise ValueError(f"rtol must be finite and > 0, got {rtol}")
    bases = np.asarray(bases, dtype=float).reshape(-1, 2, 2)
    k = len(bases)
    rho = _packing_radius(bases)
    tail = tail_of(rho)
    # rows R, bound and terms of each lattice, and of each pair as of its
    # last round: a pair takes its lattice's values in every round it runs,
    # so it keeps those of its stop round
    at_lattice, at_pair = np.zeros((3, k)), np.zeros((3, heads, k))
    R, bound, terms = at_lattice
    R[:] = np.maximum(6.0 * rho, 2.0)
    bound[:] = tail(R)
    rung = np.zeros(k, dtype=int)
    # every nonzero point has |x| >= 2 rho, so tail(0) bounds |S| at any R
    cap = rtol * np.maximum(tail(np.zeros(k)) * _REACH_SLACK, 1e-300)
    up = np.flatnonzero(bound > cap)  # the lattices that leave their rung
    run = np.ones((heads, k), dtype=bool)  # the pairs still summing
    total = kept = None
    active = np.arange(k)
    while True:
        while up.size:
            R[up] *= 1.5
            rung[up] += 1
            if rung[up].max() == _RUNGS:
                raise NonconvergenceError(
                    f"lattice sum did not meet the tail tolerance within "
                    f"{_RUNGS} cutoffs (R up to {R[up].max():g})")
            bound[:] = tail(R)
            # a rung whose tail exceeds rtol * reach cannot stop any pair
            # (a nan on either side keeps the rung)
            up = up[bound[up] > cap[up]]
        sums, terms[active] = _round_sums(h_eval, bases[active], R[active], heads)
        if total is None:  # round 1 holds every lattice
            total, kept = sums, np.empty_like(sums)
        total[..., active] = sums
        np.copyto(kept, total, where=run)
        np.copyto(at_pair, at_lattice[:, None], where=run)
        S = total[0]
        if not np.isfinite(S).all():  # nan never stops, and inf stops at once
            bad = np.argwhere(run & ~np.isfinite(S))
            if bad.size:
                h, j = bad[0]
                raise NonconvergenceError(
                    f"lattice sum is not finite ({S[h, j]}) at cutoff R = {R[j]:g}")
        run &= ~(bound <= rtol * np.maximum(np.abs(S), 1e-300))
        active = np.logical_or.reduce(run).nonzero()[0]
        if not active.size:
            return kept, at_pair[0], at_pair[1], at_pair[2].astype(int)
        # every later sum lies within tail(R) of this one
        reach = np.where(run, np.abs(S), 0.0).max(axis=0) + bound
        cap = rtol * np.maximum(reach * _REACH_SLACK, 1e-300)
        up = active


def _report(h_eval, tail_of, basis: np.ndarray, rtol: float) -> EnergyReport:
    """One lattice through the engine."""
    total, R, bound, n = (v.item() for v in _summed(h_eval, tail_of, basis, rtol))
    return EnergyReport(
        value=total, lattice_part=total, constant_part=0.0,
        cutoff_R=R, tail_bound=bound, terms_used=n,
    )


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
            g = hankel(mu, np.sqrt(q))
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


def theta(L: LatticeParams, t: float, rtol: float = 1e-12) -> float:
    """Lattice theta function sum_{x in L} exp(-pi t |x|^2), origin included."""
    if not 0 < t < math.inf:
        raise ValueError(f"t must be finite and > 0, got {t}")

    def summand(pts, q):
        with np.errstate(over="ignore"):  # exp(-inf) = 0 for t near the float limit
            return np.exp(-math.pi * t * q)

    return 1.0 + _report(
        summand, partial(mixture_tail, [math.pi * t], [1.0]), L.basis(), rtol,
    ).value


def diffuse_energy(P: RadialPotential, mu: RadialMeasure, L: LatticeParams,
                   rtol: float = 1e-10) -> EnergyReport:
    """Fourier-side energy: dual-lattice sum of fhat(p) g(|p|)^2 plus the
    lattice-independent constant fhat(0) - (f*mu*mu)(0)."""
    Phi = fourier(P)
    H, tail_of = _fourier_summand(Phi, mu)
    # L* is L turned by 90 degrees and scaled by 1/covolume
    part = _report(lambda pts, q: H(q), tail_of, L.basis() / L.scale, rtol)
    const = Phi.value_at_origin() - self_convolution_at_zero(P, mu)
    return replace(part, value=part.lattice_part + const, constant_part=const)


def diffuse_energy_fn(P: RadialPotential, mu: RadialMeasure,
                      rtol: float = 1e-10, include_constant: bool = False):
    """E(x, y) for scans, minimization and finite differences.

    Sums fhat(p) g(|p|)^2 over the unit-density lattice (x, y) itself,
    which has the same radii as its dual.  Defined for any x and y > 0, so
    probes may step across the boundary of D.  Arrays x and y of one shape
    are summed as one batch and give an array of that shape; scalars give
    a float.
    """
    Phi = fourier(P)
    H, tail_of = _fourier_summand(Phi, mu)
    const = (
        Phi.value_at_origin() - self_convolution_at_zero(P, mu)
        if include_constant
        else 0.0
    )

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
        return E, np.stack([2.0 * a, b], axis=-1) / y, hess.reshape(-1, 2, 2)

    return jet


def _convolve_gaussians(c1, a1, c2, a2):
    """2D convolution of c exp(-a |x|^2) factors."""
    return c1 * c2 * math.pi / (a1 + a2), a1 * a2 / (a1 + a2)


def _direct_mixture(P: RadialPotential, mu: RadialMeasure) -> RadialPotential:
    """f*mu*mu, a Gaussian mixture for atom potentials and dirac/gaussian mu."""
    if P.rep.density_nodes:
        raise NonconvergenceError(
            "direct-space route needs an atomic (Gaussian-mixture) potential"
        )
    if mu.kind == "dirac":
        return P
    if mu.kind != "gaussian":
        raise NonconvergenceError(
            "direct-space route supports dirac or gaussian measures only"
        )
    sigma = mu.param
    a_mu = math.pi / sigma**2
    c_mu = 1.0 / sigma**2
    out = []
    for t, w in P.rep.atoms:
        c, a = _convolve_gaussians(w, t, c_mu, a_mu)
        c, a = _convolve_gaussians(c, a, c_mu, a_mu)
        out.append((a, c))
    return from_atoms(out)


def diffuse_energy_direct(P: RadialPotential, mu: RadialMeasure,
                          L: LatticeParams, rtol: float = 1e-10) -> float:
    """Direct-space sum'_{x in L} (f*mu*mu)(x) for Gaussian families."""
    f = _direct_mixture(P, mu)
    return _report(lambda pts, q: f.eval(q),
                   partial(mixture_tail, *f.rep.nodes()), L.basis(), rtol).value


def poisson_check(P: RadialPotential, L: LatticeParams, z,
                  rtol: float = 1e-12) -> tuple[float, float, float]:
    """Both sides of the Poisson summation identity at shift z.

    lhs = sum_{x in L} f(x + z), rhs = sum_{p in L*} cos(2 pi p.z) fhat(p);
    returns (lhs, rhs, |lhs - rhs|).
    """
    z = np.asarray(z, dtype=float)
    basis = L.basis()
    # shifted sum: f(x + z) <= phi(|x| - |z|), handled by the tail offset
    zn = float(np.linalg.norm(z))

    def f_shift(pts, q):
        d = pts + z
        return P.eval(np.einsum("ij,ij->i", d, d))

    lhs = _report(f_shift, partial(mixture_tail, *P.rep.nodes(), offset=zn),
                  basis, rtol).value
    lhs += P.eval(float(z @ z))

    Phi = fourier(P)

    def fhat_phase(pts, q):
        return np.cos(2.0 * math.pi * (pts @ z)) * Phi.eval(q)

    # the dual basis must stay in the input frame: p.z is frame-dependent
    rhs = _report(fhat_phase, partial(mixture_tail, *Phi.rep.nodes()),
                  np.linalg.inv(basis).T, rtol).value
    rhs += Phi.value_at_origin()
    return lhs, rhs, abs(lhs - rhs)
