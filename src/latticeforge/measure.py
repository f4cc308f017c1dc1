"""Rotationally symmetric probability measures and their Hankel transforms.

A measure is stored through its radial mass distribution psi (the measure
of t -> mu(B_t)): one set of (radius, weight) nodes at radii s >= 0, a
node at s = 0 holding any mass at the centre.  The order-0 Hankel transform

    g(t) = int J0(2 pi s t) dpsi(s)

is the 2D Fourier transform of the measure.  The dirac / uniform-disk /
radial-Gaussian families are evaluated in closed form from their kind tag
and parameter, so only profile measures carry quadrature nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j0, j1, jv

from .potential import RadialPotential, fourier

__all__ = [
    "RadialMeasure",
    "MeasureSpecError",
    "bessel_j",
    "dirac",
    "uniform_disk",
    "radial_gaussian",
    "profile",
    "hankel",
    "scale",
    "hankel_moments",
    "self_convolution_at_zero",
    "parse_measure",
]


class MeasureSpecError(ValueError):
    """Raised for invalid measure constructor arguments or spec strings."""


# ---------------------------------------------------------------------------
# Bessel functions J0, J1, J2
# ---------------------------------------------------------------------------

_BESSEL = (j0, j1, lambda x: jv(2, x))


def bessel_j(n: int, x):
    """J_n(x) for n in {0, 1, 2} and x >= 0 (scalar or array).

    Thin wrapper over ``scipy.special``; the name is kept for callers.
    """
    if n not in (0, 1, 2):
        raise ValueError(f"order must be in {{0, 1, 2}}, got {n}")
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0):
        raise ValueError("argument must be nonnegative")
    out = _BESSEL[n](xa)
    return float(out) if xa.ndim == 0 else out


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialMeasure:
    """Radial probability measure; kind tags enable Hankel closed forms."""

    kind: str  # "dirac" | "disk" | "gaussian" | "profile"
    param: float = 0.0  # disk radius R or gaussian width sigma
    psi_nodes: tuple[tuple[float, float], ...] = ()

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        ss = np.array([s for s, _ in self.psi_nodes])
        ws = np.array([w for _, w in self.psi_nodes])
        return ss, ws


def dirac() -> RadialMeasure:
    return RadialMeasure(kind="dirac")


def uniform_disk(R: float) -> RadialMeasure:
    """Uniform probability measure on the disk of radius R (psi density 2s/R^2)."""
    if not 0 < R < math.inf:
        raise MeasureSpecError(f"disk radius must be finite and > 0, got {R}")
    return RadialMeasure(kind="disk", param=float(R))


def radial_gaussian(sigma: float) -> RadialMeasure:
    """Probability density exp(-pi |x|^2 / sigma^2) / sigma^2."""
    if not 0 < sigma < math.inf:
        raise MeasureSpecError(
            f"gaussian width must be finite and > 0, got {sigma}"
        )
    return RadialMeasure(kind="gaussian", param=float(sigma))


def profile(samples) -> RadialMeasure:
    """Measure from (s, psi-density) samples, trapezoid weights, renormalized."""
    samples = [(float(s), float(d)) for s, d in samples]
    if len(samples) < 2:
        raise MeasureSpecError("profile needs at least two samples")
    s = np.array([p[0] for p in samples])
    d = np.array([p[1] for p in samples])
    if not (np.isfinite(s).all() and np.isfinite(d).all()):
        raise MeasureSpecError("profile radii and densities must be finite")
    if not (np.all(np.diff(s) > 0) and s[0] >= 0):
        raise MeasureSpecError("profile radii must be nonnegative and increasing")
    if np.any(d < 0):
        raise MeasureSpecError("profile density must be nonnegative")
    w = np.zeros_like(s)
    ds = np.diff(s)
    w[:-1] += 0.5 * ds * d[:-1]
    w[1:] += 0.5 * ds * d[1:]
    mass = w.sum()
    if mass <= 0:
        raise MeasureSpecError("profile has zero mass")
    w = w / mass
    keep = w > 0
    return RadialMeasure(kind="profile",
                         psi_nodes=tuple(zip(s[keep].tolist(), w[keep].tolist())))


def scale(mu: RadialMeasure, eps: float) -> RadialMeasure:
    """Dilate the measure so its Hankel transform becomes t -> g(eps t).

    Radial nodes move s -> eps s (spatial support shrinks with eps);
    eps = 0 collapses to the point mass.
    """
    if eps < 0:
        raise MeasureSpecError(f"scale factor must be >= 0, got {eps}")
    if eps == 0 or mu.kind == "dirac":
        return dirac()
    return RadialMeasure(
        kind=mu.kind,
        param=eps * mu.param,
        psi_nodes=tuple((eps * s, w) for s, w in mu.psi_nodes),
    )


def hankel(mu: RadialMeasure, t):
    """g(t) = int J0(2 pi s t) dpsi(s); closed forms for tagged families."""
    ta = np.asarray(t, dtype=float)
    scalar = ta.ndim == 0
    if (float(ta) if scalar else ta.min(initial=0.0)) < 0:  # quad passes floats
        raise ValueError(f"t must be >= 0, got {ta.min()}")
    ta = np.atleast_1d(ta)
    if mu.kind == "dirac":
        out = np.ones_like(ta)
    elif mu.kind == "disk":
        X = 2.0 * math.pi * mu.param * ta
        out = np.where(X > 1e-8, 2.0 * _safe_j1_over(X), 1.0 - X * X / 8.0)
    elif mu.kind == "gaussian":
        out = np.exp(-math.pi * mu.param**2 * ta * ta)
    else:
        ss, ws = mu.nodes()
        out = (ws * bessel_j(0, 2.0 * math.pi * np.multiply.outer(ta, ss))).sum(axis=-1)
    return float(out[0]) if scalar else out


def _safe_j1_over(X: np.ndarray) -> np.ndarray:
    Xs = np.where(X > 1e-8, X, 1.0)
    return bessel_j(1, Xs) / Xs


def hankel_moments(mu: RadialMeasure, eps: float, r):
    """The three psi-integrals driving (G_eps^2)' and (G_eps^2)''.

    Returns (A0, A1, A2) with argument c = 2 pi eps sqrt(r):
        A0 = int J0(c s) dpsi,  A1 = int s J1(c s) dpsi,
        A2 = int s^2 (J2 - J0)(c s) dpsi.
    Floats for a scalar r, arrays shaped like r for an array of r.
    """
    ra = np.asarray(r, dtype=float)
    if not np.all(ra > 0):
        raise ValueError(f"r must be positive, got {r}")
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    c = 2.0 * math.pi * eps * np.sqrt(ra)
    if mu.kind == "dirac":
        A = (np.ones_like(c), np.zeros_like(c), np.zeros_like(c))
    elif mu.kind == "disk":
        A = _disk_moments(mu.param, c)
    elif mu.kind == "gaussian":
        A = _gaussian_moments(mu.param, c)
    else:
        ss, ws = mu.nodes()
        cs = np.multiply.outer(c, ss)
        J0 = bessel_j(0, cs)
        A = (
            (ws * J0).sum(axis=-1),
            (ws * ss * bessel_j(1, cs)).sum(axis=-1),
            (ws * ss * ss * (bessel_j(2, cs) - J0)).sum(axis=-1),
        )
    if ra.ndim == 0:
        return tuple(float(a) for a in A)
    return A


def _disk_moments(R: float, c: np.ndarray):
    X = c * R
    # series of J1, J2 around zero below X = 1e-4
    small = X < 1e-4
    Xs = np.where(small, 1.0, X)
    j1 = bessel_j(1, Xs)
    j2 = bessel_j(2, Xs)
    A0 = np.where(small, 1.0 - X * X / 8.0, 2.0 * j1 / Xs)
    A1 = np.where(small, R * X / 4.0 * (1.0 - X * X / 12.0), R * 2.0 * j2 / Xs)
    A2 = np.where(small, R * R * (-0.5 + X * X / 8.0),
                  R * R * (12.0 * j2 / (Xs * Xs) - 4.0 * j1 / Xs))
    return A0, A1, A2


def _gaussian_moments(sigma: float, c: np.ndarray):
    beta = sigma * sigma / (4.0 * math.pi)
    A0 = np.exp(-beta * c * c)
    A1 = 2.0 * beta * c * A0
    A2 = 2.0 * (4.0 * beta * beta * c * c - 2.0 * beta) * A0
    return A0, A1, A2


def self_convolution_at_zero(P: RadialPotential, mu: RadialMeasure,
                             Phi: RadialPotential | None = None) -> float:
    """(f * mu * mu)(0) via the radial Plancherel identity.

    Equals 2 pi int_0^inf Phi(r^2) g(r)^2 r dr with Phi the Fourier
    transform of the potential; pass ``Phi`` when the caller has it.
    """
    from scipy.integrate import quad  # slow to import; only energies need it

    if Phi is None:
        Phi = fourier(P)
    ts, ws = Phi.rep.nodes()
    t_min = float(ts.min())
    # Phi(r^2) <= Phi(0) exp(-t_min r^2): integrand negligible beyond r_cut
    r_cut = math.sqrt(max(40.0, -math.log(1e-16)) / t_min) + 1.0

    def integrand(r):
        g = hankel(mu, r)
        phi = float((ws * np.exp(-np.multiply.outer(r * r, ts))).sum())
        return 2.0 * math.pi * r * phi * g * g

    val, _ = quad(integrand, 0.0, r_cut, epsabs=1e-13, epsrel=1e-10, limit=400)
    return val


def parse_measure(spec: str) -> RadialMeasure:
    """Parse the CLI grammar: dirac, disk:r=<f>, gauss:sigma=<f>,
    profile:file=<path> (CSV rows s,density)."""
    head, _, rest = spec.partition(":")
    try:
        if head == "dirac" and not rest:
            return dirac()
        if head == "disk":
            key, _, val = rest.partition("=")
            if key != "r":
                raise MeasureSpecError(f"unknown key '{key}' in '{spec}'")
            return uniform_disk(float(val))
        if head == "gauss":
            key, _, val = rest.partition("=")
            if key != "sigma":
                raise MeasureSpecError(f"unknown key '{key}' in '{spec}'")
            return radial_gaussian(float(val))
        if head == "profile":
            key, _, val = rest.partition("=")
            if key != "file":
                raise MeasureSpecError(f"unknown key '{key}' in '{spec}'")
            return profile(_read_profile_csv(val))
    except MeasureSpecError:
        raise
    except ValueError as exc:
        raise MeasureSpecError(f"bad measure spec '{spec}': {exc}") from exc
    raise MeasureSpecError(f"unknown measure '{head}'")


def _read_profile_csv(path: str) -> list[tuple[float, float]]:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            s_str, _, d_str = line.partition(",")
            rows.append((float(s_str), float(d_str)))
    return rows
