"""Reference values computed apart from latticeforge, with numpy and scipy only.

Nothing here imports the package under test.  Every sum is a brute-force
sum over a box of lattice coefficients, cut at a radius where the omitted
terms are below 1e-30 of the kept ones, and added with ``math.fsum`` so
that its rounding error is one unit in the last place.

Conventions match the package's documented ones: a unit-density lattice
is the point (x, y) of D with basis rows (1/sqrt(y), 0), (x/sqrt(y),
sqrt(y)); fhat(p) = int f(x) exp(-2 pi i x.p) dx; a particle's Hankel
transform g(t) is the 2D Fourier transform of its measure at |p| = t.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

TRIANGULAR = (0.5, math.sqrt(3.0) / 2.0)


# ---------------------------------------------------------------------------
# Lattices
# ---------------------------------------------------------------------------

def basis(x: float, y: float) -> np.ndarray:
    sy = math.sqrt(y)
    return np.array([[1.0 / sy, 0.0], [x / sy, sy]])


def dual_basis(x: float, y: float) -> np.ndarray:
    return np.linalg.inv(basis(x, y)).T


def lattice_points(B: np.ndarray, R: float) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero points m B[0] + n B[1] with |p| <= R, and their squared norms.

    With p = (m, n) B, m = p . inv(B)[:, 0], so |m| <= R |inv(B)[:, 0]|; the
    box is one wider than that on every side.
    """
    inv = np.linalg.inv(B)
    mm = int(R * math.hypot(*inv[:, 0])) + 1
    nn = int(R * math.hypot(*inv[:, 1])) + 1
    m, n = np.meshgrid(np.arange(-mm, mm + 1), np.arange(-nn, nn + 1),
                       indexing="ij")
    pts = np.outer(m.ravel(), B[0]) + np.outer(n.ravel(), B[1])
    q = np.einsum("ij,ij->i", pts, pts)
    keep = ((m.ravel() != 0) | (n.ravel() != 0)) & (q <= R * R)
    return pts[keep], q[keep]


def in_domain(x: float, y: float) -> bool:
    return 0.0 <= x <= 0.5 and y > 0 and x * x + y * y >= 1.0


def y_min(x: float) -> float:
    return math.sqrt(max(1.0 - x * x, 0.0))


# ---------------------------------------------------------------------------
# Potentials: f(r^2) in direct space, fhat(|p|) on the Fourier side
# ---------------------------------------------------------------------------

class Gaussian:
    """f(x) = exp(-alpha |x|^2); fhat(p) = (pi/alpha) exp(-pi^2 |p|^2 / alpha)."""

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.fhat0 = math.pi / alpha

    def fhat(self, r):
        r = np.asarray(r, dtype=float)
        return (math.pi / self.alpha) * np.exp(-math.pi**2 * r * r / self.alpha)

    def radius(self) -> float:
        # fhat(R) / fhat(0) = exp(-pi^2 R^2 / alpha) <= 1e-32
        return math.sqrt(32.0 * math.log(10.0) * self.alpha) / math.pi + 1.0


class InversePower:
    """f(x) = (a + |x|^2)^(-s), through its exact 2D Fourier transform

        fhat(p) = (2 pi^s / Gamma(s)) (|p|/sqrt a)^(s-1) K_{s-1}(2 pi sqrt(a) |p|),
        fhat(0) = pi / ((s - 1) a^(s-1)).
    """

    def __init__(self, a: float, s: float):
        self.a, self.s = a, s
        self.fhat0 = math.pi / ((s - 1.0) * a ** (s - 1.0))

    def fhat(self, r):
        r = np.asarray(r, dtype=float)
        a, s = self.a, self.s
        rs = np.where(r > 0, r, 1.0)
        val = (2.0 * math.pi**s / math.gamma(s)) * (rs / math.sqrt(a)) ** (s - 1.0) \
            * special.kv(s - 1.0, 2.0 * math.pi * math.sqrt(a) * rs)
        return np.where(r > 0, val, self.fhat0)

    def radius(self) -> float:
        # fhat decays like exp(-2 pi sqrt(a) r) times a power of r
        return 80.0 / (2.0 * math.pi * math.sqrt(self.a)) + 2.0


# ---------------------------------------------------------------------------
# Particles: Hankel transforms g(t), |g| <= 1
# ---------------------------------------------------------------------------

def disk_g(radius: float):
    """Uniform disk of radius R: g(t) = 2 J1(2 pi R t) / (2 pi R t)."""

    def g(t):
        X = 2.0 * math.pi * radius * np.asarray(t, dtype=float)
        Xs = np.where(X > 0, X, 1.0)
        return np.where(X > 0, 2.0 * special.j1(Xs) / Xs, 1.0)

    return g


def gauss_g(sigma: float):
    """Density exp(-pi |x|^2 / sigma^2) / sigma^2: g(t) = exp(-pi sigma^2 t^2)."""
    return lambda t: np.exp(-math.pi * sigma**2 * np.asarray(t, dtype=float) ** 2)


def profile_weights(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Trapezoid weights of (radius, psi-density) samples, normalized to mass 1."""
    w = np.zeros_like(s)
    ds = np.diff(s)
    w[:-1] += 0.5 * ds * d[:-1]
    w[1:] += 0.5 * ds * d[1:]
    return w / w.sum()


def profile_g(s: np.ndarray, d: np.ndarray):
    """g(t) = sum_i w_i J0(2 pi s_i t) for a tabulated radial profile."""
    w = profile_weights(np.asarray(s, float), np.asarray(d, float))

    def g(t):
        t = np.asarray(t, dtype=float)
        return special.j0(2.0 * math.pi * np.multiply.outer(t, s)) @ w

    return g


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

def self_convolution_at_zero(pot, g, upper: float | None = None) -> float:
    """(f * mu * mu)(0) = 2 pi int_0^inf fhat(r) g(r)^2 r dr by adaptive quad.

    The range is cut into pieces of length 1/2, so that each holds at most a
    few oscillations of the Bessel factor.
    """
    upper = pot.radius() if upper is None else upper

    def integrand(r):
        gr = float(g(r))
        return 2.0 * math.pi * r * float(pot.fhat(r)) * gr * gr

    pieces = []
    edges = np.arange(0.0, math.ceil(upper) + 1.0, 0.5)
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(integrand, lo, hi, epsabs=1e-16,
                                epsrel=1e-13, limit=200)
        pieces.append(val)
    return math.fsum(pieces)


def fourier_lattice_sum(pot, g, x: float, y: float) -> float:
    """sum over nonzero p of the dual lattice of fhat(p) g(|p|)^2."""
    _, q = lattice_points(dual_basis(x, y), pot.radius())
    r = np.sqrt(q)
    return math.fsum(pot.fhat(r) * g(r) ** 2)


def fourier_energy(pot, g, const: float, x: float, y: float) -> float:
    """E = sum'_{p in L*} fhat(p) g(|p|)^2 + fhat(0) - (f*mu*mu)(0)."""
    return fourier_lattice_sum(pot, g, x, y) + (pot.fhat0 - const)


def gauss_gauss_mixture(alpha: float, sigma: float) -> tuple[float, float]:
    """(c, a) with (f * mu * mu)(x) = c exp(-a |x|^2) for f = exp(-alpha |x|^2).

    mu * mu has density b exp(-b |x|^2) / pi with b = pi / (2 sigma^2), and
    int exp(-alpha |x - z|^2 - b |z|^2) dz = pi/(alpha+b) exp(-alpha b/(alpha+b) |x|^2).
    """
    b = math.pi / (2.0 * sigma**2)
    return b / (alpha + b), alpha * b / (alpha + b)


def gauss_gauss_energy(alpha: float, sigma: float, x: float, y: float) -> float:
    """Direct-space sum'_{x in L} (f*mu*mu)(x) for Gaussian potential and particle."""
    c, a = gauss_gauss_mixture(alpha, sigma)
    _, q = lattice_points(basis(x, y), math.sqrt(80.0 * math.log(10.0) / a) + 1.0)
    return math.fsum(c * np.exp(-a * q))


# ---------------------------------------------------------------------------
# Stability coefficient T at the triangular lattice
# ---------------------------------------------------------------------------

def point_energy_eps(pot, g, eps, x: float, y: float) -> np.ndarray:
    """sum'_{p in L(x, y)} fhat(p) g(eps |p|)^2 for each eps of an array."""
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    _, q = lattice_points(basis(x, y), pot.radius())
    r = np.sqrt(q)
    terms = pot.fhat(r) * g(np.multiply.outer(eps, r)) ** 2
    return np.array([math.fsum(row) for row in terms])


def t_fd(pot, g, eps, step: float = 1e-4, axis: int = 0) -> np.ndarray:
    """T(eps) as d^2E/dx^2 (axis 0) or d^2E/dy^2 (axis 1) at the triangular point.

    Fourth-order central difference
    (-E(2h) + 16 E(h) - 30 E(0) + 16 E(-h) - E(-2h)) / (12 h^2).
    """
    x0, y0 = TRIANGULAR
    coef = {-2: -1.0, -1: 16.0, 0: -30.0, 1: 16.0, 2: -1.0}
    acc = 0.0
    for k, c in coef.items():
        dx, dy = (k * step, 0.0) if axis == 0 else (0.0, k * step)
        acc = acc + c * point_energy_eps(pot, g, eps, x0 + dx, y0 + dy)
    return acc / (12.0 * step * step)


# ---------------------------------------------------------------------------
# Point-particle inverse-power sum by closed-form row sums
# ---------------------------------------------------------------------------

def row_sum_sq(delta: float, beta: float) -> float:
    """sum_m ((m + delta)^2 + beta^2)^(-2), from

        sum_m ((m + delta)^2 + beta^2)^(-1) = (pi/beta) sinh(2 pi beta) / (cosh(2 pi beta) - cos(2 pi delta))

    differentiated in beta: the wanted sum is -(1/(2 beta)) d/dbeta of it.
    """
    c = math.cos(2.0 * math.pi * delta)
    z = 2.0 * math.pi * beta
    if z > 700.0:  # sinh/(cosh - c) = 1 to double precision
        return math.pi / (2.0 * beta**3)
    u, ch = math.sinh(z), math.cosh(z)
    v = ch - c
    dF = -(math.pi / beta**2) * (u / v) + (2.0 * math.pi**2 / beta) * (1.0 - c * ch) / (v * v)
    return -dF / (2.0 * beta)


def invpower2_direct(a: float, x: float, y: float, rows: int = 4000) -> float:
    """sum'_{x in L} (a + |x|^2)^(-2) by exact row sums over m.

    A point of row n is ((m + n x)/sqrt y, n sqrt y), so a + |p|^2 =
    ((m + n x)^2 + y (a + n^2 y)) / y.  Rows |n| > ``rows`` use the
    large-beta form pi/(2 beta^3), summed by Euler-Maclaurin.
    """
    def row(n: int) -> float:
        return y * y * row_sum_sq(n * x, math.sqrt(y * (a + n * n * y)))

    total = [row(0) - a ** -2.0]  # row 0 without the origin
    for n in range(1, rows + 1):
        total.append(row(n) + row(-n))
    # tail: 2 * sum_{n > N} (pi/2) y^(1/2) (a + y n^2)^(-3/2)
    N = rows
    phi = lambda t: (a + y * t * t) ** -1.5
    d1 = lambda t: -3.0 * y * t * (a + y * t * t) ** -2.5
    integral = (1.0 / a) * (1.0 / math.sqrt(y) - N / math.sqrt(a + y * N * N))
    em = integral - 0.5 * phi(N) - d1(N) / 12.0
    total.append(math.pi * math.sqrt(y) * em)
    return math.fsum(total)
