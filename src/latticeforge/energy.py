"""Lattice sums: theta functions and diffuse energies.

The diffuse energy of a potential f and particle shape mu on a lattice L
is evaluated on the Fourier side as

    E[L] = sum'_{p in L*} fhat(p) g(|p|)^2  +  fhat(0) - (f*mu*mu)(0),

For a planar lattice L of covolume s, the dual L* is L turned by 90
degrees and scaled by 1/s.  The summand is radial, so the sum runs over
the points of L / s, with no dual basis and no reduction; only the
Poisson check, whose phase p.z depends on the frame, uses the dual basis.
A direct-space summation is available for Gaussian families as a
cross-check.  All sums are truncated at a radius with a certified tail
bound derived from a disk-packing estimate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np
from scipy.special import erfc

from . import lattice as lat
from .lattice import LatticeParams
from .measure import (
    RadialMeasure, hankel, hankel_moments, self_convolution_at_zero,
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

    def as_dict(self) -> dict:
        return asdict(self)


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
# An extra ``offset`` handles shifted summands phi(|x| - offset).
# ---------------------------------------------------------------------------

def mixture_tail(ts: np.ndarray, ws: np.ndarray, rho, offset: float = 0.0):
    """Tail-bound closure for phi(r) = sum w exp(-t r^2).

    ``rho`` may be an array of packing radii; the closure then takes an
    array R of the same shape and returns one bound per entry.
    """
    ts = np.asarray(ts, dtype=float)
    ws = np.asarray(ws, dtype=float)
    rho = np.asarray(rho, dtype=float)
    two_rho, rho2 = 2.0 * rho[..., None], rho * rho
    shift = (rho + offset)[..., None] * 0.5 * np.sqrt(math.pi / ts)
    sqrt_ts, two_ts = np.sqrt(ts), 2.0 * ts

    def bound(R):
        a = np.maximum(np.asarray(R)[..., None] - two_rho - offset, 0.0)
        # int_a^inf (u + rho + offset) exp(-t u^2) du, then * 2 / rho^2
        vals = ws * (np.exp(-ts * a * a) / two_ts + shift * erfc(sqrt_ts * a))
        return vals.sum(axis=-1) * 2.0 / rho2

    return bound


# ---------------------------------------------------------------------------
# The lattice-sum engine
# ---------------------------------------------------------------------------

# candidates (lattices x box) broadcast at once; larger batches go in chunks
_CHUNK_CANDIDATES = 1 << 18


def _packing_radius(bases: np.ndarray) -> np.ndarray:
    """Half the shortest of u1, u2, u1 + u2 and u1 - u2, per basis.

    For a reduced basis (any (x, y) near D) this is half the shortest
    lattice vector.
    """
    u1, u2 = bases[..., 0, :], bases[..., 1, :]
    vs = np.stack([u1, u2, u1 + u2, u1 - u2])
    return 0.5 * np.sqrt(np.einsum("...i,...i->...", vs, vs).min(axis=0))


def _round_sums(h_eval, bases: np.ndarray, R: np.ndarray):
    """Sum of h over each lattice's points within its R, and their count.

    ``h_eval(pts, q)`` gives one value per point, or c columns of them.
    Each lattice's terms are summed on their own, in ascending order of the
    first column, so no sum depends on the rest of the batch or on how the
    box is sliced into chunks.
    """
    box = lat.enumerate_points(bases, R)
    sums, counts = None, np.zeros(len(bases), dtype=int)
    rows = min(len(box), _CHUNK_CANDIDATES)  # box rows per slice
    step = max(1, _CHUNK_CANDIDATES // len(box))  # lattices per chunk
    for lo in range(0, len(bases), step):
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
        sums = np.zeros(vals.shape[:-1] + (len(bases),)) if sums is None else sums
        count = counts[lo:lo + len(b)] = np.bincount(owner, minlength=len(b))
        cols = np.atleast_2d(vals)
        order = np.lexsort((cols[0], owner))
        some = count > 0
        starts = (np.cumsum(count) - count)[some]
        for col, out in zip(cols, np.atleast_2d(sums)):
            out[lo + np.flatnonzero(some)] = np.add.reduceat(col[order], starts)
    return sums, counts


def _summed(h_eval, tail_of, bases: np.ndarray, rtol: float,
            floor: float = 1e-300):
    """Adaptive truncated sums of h over the nonzero points of each lattice.

    ``bases`` is a (k, 2, 2) stack of basis rows (or one (2, 2) basis);
    ``tail_of(rho)`` builds the tail bound R -> bound for packing radii rho.
    Each lattice starts at R = max(6 rho, 2) and grows R by 1.5x until its
    tail bound is within ``rtol`` of its sum (of its first column, for a
    summand of c columns), then leaves the batch.  Returns arrays (sums,
    R, bounds, terms), one entry per lattice; sums are (c, k) for c columns.
    """
    if not 0.0 < rtol < math.inf:
        raise ValueError(f"rtol must be finite and > 0, got {rtol}")
    bases = np.asarray(bases, dtype=float).reshape(-1, 2, 2)
    rho = _packing_radius(bases)
    tail = tail_of(rho)
    R = np.maximum(6.0 * rho, 2.0)
    total, bound = None, np.zeros(len(bases))
    terms = np.zeros(len(bases), dtype=int)
    active = np.arange(len(bases))
    for _ in range(40):
        bound[active] = tail(R)[active]
        sums, terms[active] = _round_sums(h_eval, bases[active], R[active])
        total = sums if total is None else total  # round 1 holds every lattice
        total[..., active] = sums
        head = np.atleast_2d(total)[0, active]
        done = bound[active] <= rtol * np.maximum(np.abs(head), floor)
        active = active[~done]
        if not active.size:
            return total, R, bound, terms
        R[active] *= 1.5
    raise NonconvergenceError("lattice sum did not meet the tail tolerance")


def _report(h_eval, tail_of, basis: np.ndarray, rtol: float) -> EnergyReport:
    """One lattice through the engine."""
    total, R, bound, n = (v[0] for v in _summed(h_eval, tail_of, basis, rtol))
    return EnergyReport(
        value=float(total), lattice_part=float(total), constant_part=0.0,
        cutoff_R=float(R), tail_bound=float(bound), terms_used=int(n),
    )


def _basis(L: LatticeParams) -> np.ndarray:
    return lat.basis_matrix(L.x, L.y) * math.sqrt(L.scale)


def _fourier_summand(Phi: RadialPotential, mu: RadialMeasure):
    """The summand H(q) = Phi(q) g(sqrt q)^2 at squared dual radius q.

    Returns (H, tail_of): H(q) gives H, and H(q, derivatives=True) gives
    (H, H', H'') in q, for q > 0, from one transform and one Phi call: the
    J0/J1/J2 moments of mu combine with Phi, Phi', Phi'' by the Leibniz
    rule, and this H is bit for bit H(q).  tail_of is the tail factory
    (|g| <= 1, so H <= Phi).  A dilated particle is passed as
    ``scale(mu, eps)``.
    """

    def H(q, derivatives=False):
        if not derivatives:
            g = hankel(mu, np.sqrt(q))
            return Phi.eval(q) * g * g
        A0, A1, A2 = hankel_moments(mu, 1.0, q)
        P0, P1, P2 = eval_derivatives(Phi, q, (0, 1, 2))
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
    return 1.0 + _report(
        lambda pts, q: np.exp(-math.pi * t * q),
        partial(mixture_tail, [math.pi * t], [1.0]), _basis(L), rtol,
    ).value


def diffuse_energy(P: RadialPotential, mu: RadialMeasure, L: LatticeParams,
                   rtol: float = 1e-10) -> EnergyReport:
    """Fourier-side energy: dual-lattice sum of fhat(p) g(|p|)^2 plus the
    lattice-independent constant fhat(0) - (f*mu*mu)(0)."""
    Phi = fourier(P)
    H, tail_of = _fourier_summand(Phi, mu)
    # L* is L turned by 90 degrees and scaled by 1/covolume
    part = _report(lambda pts, q: H(q), tail_of, _basis(L) / L.scale, rtol)
    const = Phi.value_at_origin() - self_convolution_at_zero(P, mu, Phi=Phi)
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
        Phi.value_at_origin() - self_convolution_at_zero(P, mu, Phi=Phi)
        if include_constant
        else 0.0
    )

    def E(x, y):
        x = np.asarray(x, dtype=float)
        bases = lat.basis_matrix(x.ravel(), np.ravel(y))
        val = _summed(lambda pts, q: H(q), tail_of, bases, rtol)[0] + const
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
        E, a, b, q, aa, ab, bb = _summed(cols, tail_of, lat.basis_matrix(x, y), rtol)[0]
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
                   partial(mixture_tail, *f.rep.nodes()), _basis(L), rtol).value


def poisson_check(P: RadialPotential, L: LatticeParams, z,
                  rtol: float = 1e-12) -> tuple[float, float, float]:
    """Both sides of the Poisson summation identity at shift z.

    lhs = sum_{x in L} f(x + z), rhs = sum_{p in L*} cos(2 pi p.z) fhat(p);
    returns (lhs, rhs, |lhs - rhs|).
    """
    z = np.asarray(z, dtype=float)
    basis = _basis(L)
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
