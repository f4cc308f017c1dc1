"""Lattice sums: theta functions, point energies, diffuse energies.

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
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.special import erfc

from . import lattice as lat
from .lattice import LatticeParams
from .measure import RadialMeasure, hankel, self_convolution_at_zero
from .potential import RadialPotential, fourier

__all__ = [
    "EnergyReport",
    "NonconvergenceError",
    "theta",
    "point_energy",
    "diffuse_energy",
    "diffuse_energy_fn",
    "diffuse_energy_direct",
    "poisson_check",
    "mixture_tail",
    "power_tail",
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
        return {
            "value": self.value,
            "lattice_part": self.lattice_part,
            "constant_part": self.constant_part,
            "cutoff_R": self.cutoff_R,
            "tail_bound": self.tail_bound,
            "terms_used": self.terms_used,
        }


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


def power_tail(C: float, eta: float, rho):
    """Tail-bound closure for phi(r) = C (1 + r)^(-2-eta); arrays as in
    ``mixture_tail``."""
    rho = np.asarray(rho, dtype=float)

    def bound(R):
        a = np.maximum(R - 2.0 * rho, 0.0)
        v = 1.0 + a
        # int_a^inf (u + rho) (1 + u)^(-2-eta) du
        integral = (rho - 1.0) * v ** (-1.0 - eta) / (1.0 + eta) + v ** (-eta) / eta
        return C * integral * 2.0 / (rho * rho)

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

    Each lattice's terms are summed on their own, in ascending order, so a
    sum does not depend on the other lattices of the batch.
    """
    box = lat.enumerate_points(bases, R)
    m, n = box[:, :1], box[:, 1:]
    sums, counts = np.zeros(len(bases)), np.zeros(len(bases), dtype=int)
    step = max(1, _CHUNK_CANDIDATES // len(box))
    for lo in range(0, len(bases), step):
        b, r = bases[lo:lo + step, None], R[lo:lo + step, None]
        pts = m * b[..., 0, :] + n * b[..., 1, :]  # (lattices, box, 2)
        q = pts[..., 0] * pts[..., 0] + pts[..., 1] * pts[..., 1]
        keep = q <= r * r * (1.0 + 1e-12)
        count = counts[lo:lo + step] = keep.sum(axis=1)
        vals = h_eval(pts[keep], q[keep])
        order = np.lexsort((vals, np.nonzero(keep)[0]))
        some = count > 0
        sums[lo + np.flatnonzero(some)] = np.add.reduceat(
            vals[order], (np.cumsum(count) - count)[some])
    return sums, counts


def _summed(h_eval, tail_of, bases: np.ndarray, rtol: float,
            floor: float = 1e-300):
    """Adaptive truncated sums of h over the nonzero points of each lattice.

    ``bases`` is a (k, 2, 2) stack of basis rows (or one (2, 2) basis);
    ``tail_of(rho)`` builds the tail bound R -> bound for packing radii rho.
    Each lattice starts at R = max(6 rho, 2) and grows R by 1.5x until its
    tail bound is within ``rtol`` of its sum, then leaves the batch.
    Returns arrays (sums, R, bounds, terms), one entry per lattice.
    """
    if not 0.0 < rtol < math.inf:
        raise ValueError(f"rtol must be finite and > 0, got {rtol}")
    bases = np.asarray(bases, dtype=float).reshape(-1, 2, 2)
    rho = _packing_radius(bases)
    tail = tail_of(rho)
    R = np.maximum(6.0 * rho, 2.0)
    total, bound = np.zeros(len(bases)), np.zeros(len(bases))
    terms = np.zeros(len(bases), dtype=int)
    active = np.arange(len(bases))
    for _ in range(40):
        bound[active] = tail(R)[active]
        total[active], terms[active] = _round_sums(h_eval, bases[active], R[active])
        done = bound[active] <= rtol * np.maximum(np.abs(total[active]), floor)
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
    """h(p) = Phi(|p|^2) g(|p|)^2 and its tail factory (|g| <= 1)."""

    def h_eval(pts, q):
        g = hankel(mu, np.sqrt(q))
        return Phi.eval(q) * g * g

    return h_eval, partial(mixture_tail, *Phi.rep.nodes())


def theta(L: LatticeParams, t: float, rtol: float = 1e-12) -> float:
    """Lattice theta function sum_{x in L} exp(-pi t |x|^2), origin included."""
    if not 0 < t < math.inf:
        raise ValueError(f"t must be finite and > 0, got {t}")
    return 1.0 + _report(
        lambda pts, q: np.exp(-math.pi * t * q),
        partial(mixture_tail, [math.pi * t], [1.0]), _basis(L), rtol,
    ).value


def point_energy(h_eval, L: LatticeParams, rtol: float, tail=None,
                 decay: tuple[float, float] | None = None) -> EnergyReport:
    """Truncated sum'_{p in L} h(p) with a certified tail bound.

    ``h_eval(points, sq_norms)`` must evaluate h vectorized over lattice
    points.  Supply either a ``tail`` closure (R -> bound) or power-decay
    constants ``decay = (C, eta)``.
    """
    if tail is not None:
        def tail_of(rho):  # ``tail`` takes the float R of one lattice
            return lambda R: np.array([tail(float(R[0]))], dtype=float)
    elif decay is not None:
        tail_of = partial(power_tail, *decay)
    else:
        raise NonconvergenceError(
            "no tail control: pass tail= or decay=(C, eta)"
        )
    return _report(h_eval, tail_of, _basis(L), rtol)


def diffuse_energy(P: RadialPotential, mu: RadialMeasure, L: LatticeParams,
                   rtol: float = 1e-10) -> EnergyReport:
    """Fourier-side energy: dual-lattice sum of fhat(p) g(|p|)^2 plus the
    lattice-independent constant fhat(0) - (f*mu*mu)(0)."""
    Phi = fourier(P)
    # L* is L turned by 90 degrees and scaled by 1/covolume
    part = _report(*_fourier_summand(Phi, mu), _basis(L) / L.scale, rtol)
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
    h_eval, tail_of = _fourier_summand(Phi, mu)
    const = (
        Phi.value_at_origin() - self_convolution_at_zero(P, mu, Phi=Phi)
        if include_constant
        else 0.0
    )

    def E(x, y):
        x = np.asarray(x, dtype=float)
        bases = lat.basis_matrix(x.ravel(), np.ravel(y))
        val = _summed(h_eval, tail_of, bases, rtol)[0] + const
        return float(val[0]) if x.ndim == 0 else val.reshape(x.shape)

    return E


def _convolve_gaussians(c1, a1, c2, a2):
    """2D convolution of c exp(-a |x|^2) factors."""
    return c1 * c2 * math.pi / (a1 + a2), a1 * a2 / (a1 + a2)


def _direct_mixture(P: RadialPotential, mu: RadialMeasure):
    """Gaussian mixture of f*mu*mu for atom potentials and dirac/gaussian mu."""
    if P.rep.density_nodes:
        raise NonconvergenceError(
            "direct-space route needs an atomic (Gaussian-mixture) potential"
        )
    if mu.kind == "dirac":
        return [(w, t) for t, w in P.rep.atoms]
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
        out.append((c, a))
    return out


def diffuse_energy_direct(P: RadialPotential, mu: RadialMeasure,
                          L: LatticeParams, rtol: float = 1e-10) -> float:
    """Direct-space sum'_{x in L} (f*mu*mu)(x) for Gaussian families."""
    mix = _direct_mixture(P, mu)
    ws = np.array([c for c, _ in mix])
    ts = np.array([a for _, a in mix])

    def h_eval(pts, q):
        return (ws * np.exp(-np.multiply.outer(q, ts))).sum(axis=-1)

    return _report(h_eval, partial(mixture_tail, ts, ws), _basis(L), rtol).value


def poisson_check(P: RadialPotential, L: LatticeParams, z,
                  rtol: float = 1e-12) -> tuple[float, float, float]:
    """Both sides of the Poisson summation identity at shift z.

    lhs = sum_{x in L} f(x + z), rhs = sum_{p in L*} cos(2 pi p.z) fhat(p);
    returns (lhs, rhs, |lhs - rhs|).
    """
    z = np.asarray(z, dtype=float)
    ts, ws = P.rep.nodes()
    basis = _basis(L)
    # shifted sum: f(x + z) <= phi(|x| - |z|), handled by the tail offset
    zn = float(np.linalg.norm(z))

    def f_shift(pts, q):
        d = pts + z
        qd = np.einsum("ij,ij->i", d, d)
        return (ws * np.exp(-np.multiply.outer(qd, ts))).sum(axis=-1)

    lhs = _report(f_shift, partial(mixture_tail, ts, ws, offset=zn), basis,
                  rtol).value
    lhs += float((ws * np.exp(-ts * (z @ z))).sum())

    Phi = fourier(P)

    def fhat_phase(pts, q):
        return np.cos(2.0 * math.pi * (pts @ z)) * Phi.eval(q)

    # the dual basis must stay in the input frame: p.z is frame-dependent
    rhs = _report(fhat_phase, partial(mixture_tail, *Phi.rep.nodes()),
                  np.linalg.inv(basis).T, rtol).value
    rhs += Phi.value_at_origin()
    return lhs, rhs, abs(lhs - rhs)
