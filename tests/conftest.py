import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from latticeforge import LatticeParams
from latticeforge import energy as en


def random_lattice(rng: np.random.Generator, y_max: float = 3.0) -> LatticeParams:
    """Uniform-ish sample of the fundamental domain (interior)."""
    x = rng.uniform(0.0, 0.5)
    y_lo = math.sqrt(max(1.0 - x * x, 0.0))
    y = rng.uniform(y_lo + 1e-6, y_max)
    return LatticeParams(x, y)


def disk_psi_nodes(R: float, n: int = 256):
    """Gauss-Legendre (s, weight) nodes of the disk's psi density 2s/R^2."""
    u, w = roots_legendre(n)
    s = 0.5 * R * (u + 1.0)
    ws = 0.5 * R * w * 2.0 * s / (R * R)
    return tuple(zip(s.tolist(), ws.tolist()))


def direct_lattice_points(basis, n: int = 30) -> np.ndarray:
    """The points i u1 + j u2 of the basis rows with |i|, |j| <= n, origin
    left out, as (points, 2): the full box of ``direct_lattice_sum``.

    For a reduced basis every point outside the box lies at least
    (sqrt(3)/2) n |u1| from the origin.
    """
    m = np.arange(-n, n + 1)
    coef = np.stack(np.meshgrid(m, m), axis=-1).reshape(-1, 2).astype(float)
    return coef[(coef != 0.0).any(axis=1)] @ np.asarray(basis, dtype=float)


def direct_lattice_sum(F, basis, n: int = 30) -> float:
    """sum'_{x in L} F(|x|^2) by brute force over ``direct_lattice_points``,
    with no tail.  ``F`` takes an array of squared radii; the terms are
    added in ascending order.
    """
    x = direct_lattice_points(basis, n)
    return float(np.sort(F(np.einsum("ij,ij->i", x, x))).sum())


def convolved_gaussians(atoms, sigma: float) -> list[tuple[float, float]]:
    """(a, c) pairs with (f*mu*mu)(x) = sum c exp(-a |x|^2), in closed form.

    f = sum w exp(-t |x|^2) over the (t, w) ``atoms``; mu is the radial
    Gaussian of width sigma, the unit mass sigma^-2 exp(-pi |x|^2 / sigma^2),
    or a dirac for sigma = 0.  In 2D, c1 exp(-a1 |x|^2) * c2 exp(-a2 |x|^2)
    = (pi c1 c2 / (a1 + a2)) exp(-(a1 a2 / (a1 + a2)) |x|^2).
    """
    out = []
    for a, c in atoms:
        if sigma > 0.0:  # convolve with mu twice
            a_mu, c_mu = math.pi / sigma**2, 1.0 / sigma**2
            for _ in range(2):
                a, c = a * a_mu / (a + a_mu), math.pi * c * c_mu / (a + a_mu)
        out.append((a, c))
    return out


def direct_gaussian_energy(atoms, sigma: float, basis, n: int = 30) -> float:
    """The energy per particle sum'_{x in L} (f*mu*mu)(x) of Gaussian atoms
    f and a Gaussian or dirac particle (``convolved_gaussians``), summed in
    direct space over the basis rows (``direct_lattice_sum``): an oracle
    for the package's Fourier-side energy that shares none of its code."""
    mix = convolved_gaussians(atoms, sigma)
    return direct_lattice_sum(
        lambda q: sum(c * np.exp(-a * q) for a, c in mix), basis, n)


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


def check_completely_monotone(F, r_samples, max_order: int) -> bool:
    """Alternating-sign test of divided differences on a sample grid.

    Returns True iff (-1)^k times every k-th divided difference of F is
    >= -slack for k = 0..max_order, slack absorbing roundoff.  False is a
    verdict on the sampled grid, not a proof.
    """
    r = np.asarray(r_samples, dtype=float)
    if r.ndim != 1 or len(r) < max_order + 1:
        raise ValueError("need at least max_order+1 increasing samples")
    if not (np.all(np.diff(r) > 0) and r[0] > 0):
        raise ValueError("samples must be strictly increasing and positive")
    vals = np.array([float(F(ri)) for ri in r])
    slack = 1e-12 * max(1.0, float(np.abs(vals).max()))
    table = vals.copy()
    for k in range(max_order + 1):
        if np.any((-1.0) ** k * table < -slack):
            return False
        if k < max_order:
            table = (table[1:] - table[:-1]) / (r[k + 1 :] - r[: len(r) - k - 1])
    return True


def every_rung_summed(h_eval, tail_of, bases, rtol: float, heads: int = 1):
    """``energy._summed`` without skipped rungs: every active lattice is
    summed at every rung R0 1.5^j of its ladder, j < 40, until each
    (head, lattice) pair's tail bound is within ``rtol`` of its sum.
    Same arguments and returns (sums, R, bounds, terms)."""
    bases = np.asarray(bases, dtype=float).reshape(-1, 2, 2)
    k = len(bases)
    rho = en._packing_radius(bases)
    tail = tail_of(rho)
    at_lattice, at_pair = np.zeros((3, k)), np.zeros((3, heads, k))
    R, bound, terms = at_lattice
    R[:] = np.maximum(6.0 * rho, 2.0)
    run = np.ones((heads, k), dtype=bool)
    total = kept = None
    active = np.arange(k)
    for _ in range(40):
        bound[:] = tail(R)
        sums, terms[active] = en._round_sums(h_eval, bases[active], R[active], heads)
        if total is None:
            total, kept = sums, np.empty_like(sums)
        total[..., active] = sums
        np.copyto(kept, total, where=run)
        np.copyto(at_pair, at_lattice[:, None], where=run)
        S = total[0]
        if not np.isfinite(S[run]).all():
            raise en.NonconvergenceError("lattice sum is not finite")
        run &= ~(bound <= rtol * np.maximum(np.abs(S), 1e-300))
        active = np.logical_or.reduce(run).nonzero()[0]
        if not active.size:
            return kept, at_pair[0], at_pair[1], at_pair[2].astype(int)
        R[active] *= 1.5
    raise en.NonconvergenceError("lattice sum did not meet the tail tolerance")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# pass/fail lines recorded by the acceptance tests, echoed after the run
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
