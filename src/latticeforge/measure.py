"""Rotationally symmetric probability measures and their Hankel transforms.

A measure is stored through its radial mass distribution psi (the measure
of t -> mu(B_t)): one set of (radius, weight) nodes at radii s >= 0, a
node at s = 0 holding any mass at the centre.  The order-0 Hankel transform

    g(t) = int J0(2 pi s t) dpsi(s)

is the 2D Fourier transform of the measure.  Each family's transform is
written once, in ``_transform``: dirac / uniform disk / radial Gaussian in
closed form from their kind tag and parameter (only profiles carry nodes);
``hankel`` gives g, ``hankel_moments`` g with the J1/J2 moments behind the
derivatives of the energy summand.
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
    out = _transform(mu, ta, moments=False)
    return float(out) if scalar else out


def hankel_moments(mu: RadialMeasure, eps: float, r):
    """The three psi-integrals driving (G_eps^2)' and (G_eps^2)''.

    Returns (A0, A1, A2) with argument c = 2 pi eps sqrt(r):
        A0 = int J0(c s) dpsi,  A1 = int s J1(c s) dpsi,
        A2 = int s^2 (J2 - J0)(c s) dpsi.
    A0 is ``hankel(mu, eps sqrt(r))``.  Floats for a scalar r, arrays
    shaped like r for an array of r.
    """
    ra = np.asarray(r, dtype=float)
    if not np.all(ra > 0):
        raise ValueError(f"r must be positive, got {r}")
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    A = _transform(mu, eps * np.sqrt(ra), moments=True)
    if ra.ndim == 0:
        return tuple(float(a) for a in A)
    return A


def _transform(mu: RadialMeasure, t: np.ndarray, moments: bool):
    """The transform of each family at frequencies t >= 0 (an array, or 0-d).

    A0 = g(t) alone, or with ``moments`` the tuple (A0, A1, A2) of
    ``hankel_moments`` at c = 2 pi t.
    """
    if mu.kind == "dirac":
        A0 = np.ones_like(t)
        return (A0, np.zeros_like(t), np.zeros_like(t)) if moments else A0
    if mu.kind == "gaussian":
        s2 = mu.param**2
        A0 = np.exp(-math.pi * s2 * t * t)
        if not moments:
            return A0
        return A0, s2 * t * A0, (2.0 * s2 * s2 * t * t - s2 / math.pi) * A0
    if mu.kind == "disk":
        R = mu.param
        X = 2.0 * math.pi * R * t
        # series of J1, J2 around zero below X = 1e-4
        small = X < 1e-4
        Xs = np.where(small, 1.0, X)
        j1 = bessel_j(1, Xs)
        A0 = np.where(small, 1.0 - X * X / 8.0, 2.0 * j1 / Xs)
        if not moments:
            return A0
        j2 = bessel_j(2, Xs)
        A1 = np.where(small, R * X / 4.0 * (1.0 - X * X / 12.0), R * 2.0 * j2 / Xs)
        A2 = np.where(small, R * R * (-0.5 + X * X / 8.0),
                      R * R * (12.0 * j2 / (Xs * Xs) - 4.0 * j1 / Xs))
        return A0, A1, A2
    ss, ws = mu.nodes()
    x = 2.0 * math.pi * np.multiply.outer(t, ss)
    J0 = bessel_j(0, x)
    A0 = (ws * J0).sum(axis=-1)
    if not moments:
        return A0
    return (A0, (ws * ss * bessel_j(1, x)).sum(axis=-1),
            (ws * ss * ss * (bessel_j(2, x) - J0)).sum(axis=-1))


def self_convolution_at_zero(P: RadialPotential, mu: RadialMeasure,
                             Phi: RadialPotential | None = None) -> float:
    """(f * mu * mu)(0) via the radial Plancherel identity.

    Equals 2 pi int_0^inf Phi(r^2) g(r)^2 r dr with Phi the Fourier
    transform of the potential; pass ``Phi`` when the caller has it.
    """
    from scipy.integrate import quad  # slow to import; only energies need it

    if Phi is None:
        Phi = fourier(P)
    t_min = float(Phi.rep.nodes()[0].min())
    # Phi(r^2) <= Phi(0) exp(-t_min r^2): integrand negligible beyond r_cut
    r_cut = math.sqrt(max(40.0, -math.log(1e-16)) / t_min) + 1.0

    def integrand(r):
        g = hankel(mu, r)
        return 2.0 * math.pi * r * Phi.eval(r * r) * g * g

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
