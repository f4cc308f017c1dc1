"""Lattice sums: theta functions, point energies, diffuse energies.

The diffuse energy of a potential f and particle shape mu on a lattice L
is evaluated on the Fourier side as

    E[L] = sum'_{p in L*} fhat(p) g(|p|)^2  +  fhat(0) - (f*mu*mu)(0),

with a direct-space summation available for Gaussian families as a
cross-check.  All sums are truncated at a radius with a certified tail
bound derived from a disk-packing estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

def mixture_tail(ts: np.ndarray, ws: np.ndarray, rho: float,
                 offset: float = 0.0):
    """Tail-bound closure for phi(r) = sum w exp(-t r^2)."""
    ts = np.asarray(ts, dtype=float)
    ws = np.asarray(ws, dtype=float)
    shift = rho + offset

    def bound(R: float) -> float:
        a = max(R - 2.0 * rho - offset, 0.0)
        # int_a^inf (u + shift) exp(-t u^2) du, then * 2 / rho^2
        vals = ws * (
            np.exp(-ts * a * a) / (2.0 * ts)
            + shift * 0.5 * np.sqrt(math.pi / ts) * erfc(np.sqrt(ts) * a)
        )
        return float(vals.sum()) * 2.0 / (rho * rho)

    return bound


def power_tail(C: float, eta: float, rho: float):
    """Tail-bound closure for phi(r) = C (1 + r)^(-2-eta)."""

    def bound(R: float) -> float:
        a = max(R - 2.0 * rho, 0.0)
        v = 1.0 + a
        # int_a^inf (u + rho) (1 + u)^(-2-eta) du
        integral = (rho - 1.0) * v ** (-1.0 - eta) / (1.0 + eta) + v ** (-eta) / eta
        return C * integral * 2.0 / (rho * rho)

    return bound


def _packing_radius(L: LatticeParams) -> float:
    # for reduced (x, y) the shortest vector is u1 of length 1/sqrt(y)
    return 0.5 / math.sqrt(L.y) * math.sqrt(L.scale)


def _summed(h_eval, basis: np.ndarray, rho: float, tail, rtol: float,
            floor: float = 1e-300):
    """Adaptive truncated sum of h over nonzero points of ``basis``."""
    R = max(6.0 * rho, 2.0)
    for _ in range(40):
        bound = tail(R)
        pts = lat.enumerate_points(basis, R)
        q = np.einsum("ij,ij->i", pts, pts)
        total = float(np.sort(h_eval(pts, q)).sum())
        scale = max(abs(total), floor)
        if bound <= rtol * scale:
            return total, R, bound, len(pts)
        R *= 1.5
    raise NonconvergenceError("lattice sum did not meet the tail tolerance")


def theta(L: LatticeParams, t: float, rtol: float = 1e-12) -> float:
    """Lattice theta function sum_{x in L} exp(-pi t |x|^2), origin included."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    basis = lat.basis_matrix(L.x, L.y) * math.sqrt(L.scale)
    rho = _packing_radius(L)
    tail = mixture_tail(np.array([math.pi * t]), np.array([1.0]), rho)
    val, _, _, _ = _summed(
        lambda pts, q: np.exp(-math.pi * t * q), basis, rho, tail, rtol
    )
    return 1.0 + val


def point_energy(h_eval, L: LatticeParams, rtol: float, tail=None,
                 decay: tuple[float, float] | None = None) -> EnergyReport:
    """Truncated sum'_{p in L} h(p) with a certified tail bound.

    ``h_eval(points, sq_norms)`` must evaluate h vectorized over lattice
    points.  Supply either a ``tail`` closure (R -> bound) or power-decay
    constants ``decay = (C, eta)``.
    """
    rho = _packing_radius(L)
    if tail is None:
        if decay is None:
            raise NonconvergenceError(
                "no tail control: pass tail= or decay=(C, eta)"
            )
        tail = power_tail(decay[0], decay[1], rho)
    basis = lat.basis_matrix(L.x, L.y) * math.sqrt(L.scale)
    val, R, bound, n = _summed(h_eval, basis, rho, tail, rtol)
    return EnergyReport(
        value=val, lattice_part=val, constant_part=0.0,
        cutoff_R=R, tail_bound=bound, terms_used=n,
    )


def diffuse_energy(P: RadialPotential, mu: RadialMeasure, L: LatticeParams,
                   rtol: float = 1e-10) -> EnergyReport:
    """Fourier-side energy: dual-lattice sum of fhat(p) g(|p|)^2 plus the
    lattice-independent constant fhat(0) - (f*mu*mu)(0)."""
    Phi = fourier(P)
    Ld = lat.dual(L)
    ts, ws = Phi.rep.nodes()

    def h_eval(pts, q):
        g = hankel(mu, np.sqrt(q))
        return Phi.eval(q) * g * g

    rho = _packing_radius(Ld)
    tail = mixture_tail(ts, ws, rho)  # |g| <= 1
    part = point_energy(h_eval, Ld, rtol, tail=tail)
    const = Phi.value_at_origin() - self_convolution_at_zero(P, mu, Phi=Phi)
    return EnergyReport(
        value=part.lattice_part + const,
        lattice_part=part.lattice_part,
        constant_part=const,
        cutoff_R=part.cutoff_R,
        tail_bound=part.tail_bound,
        terms_used=part.terms_used,
    )


def diffuse_energy_fn(P: RadialPotential, mu: RadialMeasure,
                      rtol: float = 1e-10, include_constant: bool = False):
    """Fast E(x, y) callable for scans and minimization.

    Evaluates the dual-lattice sum directly from the inverse-transpose
    basis, skipping per-point reduction; defined for any x and y > 0 so
    optimizer probes near the boundary of D are fine.
    """
    Phi = fourier(P)
    ts, ws = Phi.rep.nodes()
    const = (
        Phi.value_at_origin() - self_convolution_at_zero(P, mu, Phi=Phi)
        if include_constant
        else 0.0
    )

    def h_eval(pts, q):
        g = hankel(mu, np.sqrt(q))
        return Phi.eval(q) * g * g

    def E(x: float, y: float) -> float:
        basis_d = np.linalg.inv(lat.basis_matrix(x, y)).T
        rho = 0.5 * _shortest_norm(basis_d)
        tail = mixture_tail(ts, ws, rho)
        val, _, _, _ = _summed(h_eval, basis_d, rho, tail, rtol)
        return val + const

    return E


def _shortest_norm(basis: np.ndarray) -> float:
    r1, r2 = basis
    return min(
        float(np.linalg.norm(v)) for v in (r1, r2, r1 + r2, r1 - r2)
    )


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
    rho = _packing_radius(L)
    tail = mixture_tail(ts, ws, rho)

    def h_eval(pts, q):
        return (ws * np.exp(-np.multiply.outer(q, ts))).sum(axis=-1)

    part = point_energy(h_eval, L, rtol, tail=tail)
    return part.lattice_part


def poisson_check(P: RadialPotential, L: LatticeParams, z,
                  rtol: float = 1e-12) -> tuple[float, float, float]:
    """Both sides of the Poisson summation identity at shift z.

    lhs = sum_{x in L} f(x + z), rhs = sum_{p in L*} cos(2 pi p.z) fhat(p);
    returns (lhs, rhs, |lhs - rhs|).
    """
    z = np.asarray(z, dtype=float)
    ts, ws = P.rep.nodes()
    basis = lat.basis_matrix(L.x, L.y) * math.sqrt(L.scale)
    rho = _packing_radius(L)
    # shifted sum: f(x + z) <= phi(|x| - |z|), handled by the tail offset
    zn = float(np.linalg.norm(z))
    tail_l = mixture_tail(ts, ws, rho, offset=zn)

    def f_shift(pts, q):
        d = pts + z
        qd = np.einsum("ij,ij->i", d, d)
        return (ws * np.exp(-np.multiply.outer(qd, ts))).sum(axis=-1)

    lhs_sum, _, _, _ = _summed(f_shift, basis, rho, tail_l, rtol)
    lhs = lhs_sum + float((ws * np.exp(-ts * (z @ z))).sum())

    Phi = fourier(P)
    tsd, wsd = Phi.rep.nodes()
    # the dual basis must stay in the input frame: p.z is frame-dependent
    basis_d = np.linalg.inv(basis).T
    rho_d = 0.5 * _shortest_norm(basis_d)
    tail_r = mixture_tail(tsd, wsd, rho_d)

    def fhat_phase(pts, q):
        return np.cos(2.0 * math.pi * (pts @ z)) * Phi.eval(q)

    rhs_sum, _, _, _ = _summed(fhat_phase, basis_d, rho_d, tail_r, rtol)
    rhs = rhs_sum + Phi.value_at_origin()
    return lhs, rhs, abs(lhs - rhs)
