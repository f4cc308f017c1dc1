"""Rotationally symmetric probability measures and their Hankel transforms.

A measure is stored through its radial mass distribution psi (the measure
of t -> mu(B_t)): one set of (radius, weight) nodes at radii s >= 0, a
node at s = 0 holding any mass at the centre.  The order-0 Hankel transform

    g(t) = int J0(2 pi s t) dpsi(s)

is the 2D Fourier transform of the measure.  Each family's transform is
written once, in ``_transform``: dirac / uniform disk / radial Gaussian in
closed form from their kind tag and parameter (only profiles carry nodes);
``hankel`` gives g, ``hankel_moments`` g with the J1/J2 moments behind the
derivatives of the energy summand, all from J0 and J1 (``_j2`` gives J2).
``self_convolution_at_zero`` gives the energy's constant (f*mu*mu)(0) from
one closed-form kernel per family, with no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
from scipy.special import i0e, i1e, j0, j1

from . import potential
from .potential import RadialPotential

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

# c_k = (-1)^k / (k! (k+2)!), highest k first: J2(x) = u sum_k c_k u^k, u = x^2/4
_J2_SERIES = [(-1) ** k / (math.factorial(k) * math.factorial(k + 2))
              for k in range(7, -1, -1)]


def _j2(x, J0, J1):
    """J2(x) = 2 J1/x - J0 from x = 1 on; below it, where that difference
    cancels, the series to k = 7 (it errs by under 1e-16 there), written
    over the entries x < 1 of the first."""
    with np.errstate(invalid="ignore"):  # 0/0 at x = 0
        out = np.asarray(2.0 * J1 / x - J0)
    small = x < 1.0
    u = x[small] ** 2 / 4.0
    out[small] = u * reduce(lambda acc, c: acc * u + c, _J2_SERIES)  # Horner
    return out


_BESSEL = (j0, j1, lambda x: _j2(x, j0(x), j1(x)))


def bessel_j(n: int, x):
    """J_n(x) for n in {0, 1, 2} and x >= 0 (scalar or array).

    J0 and J1 from ``scipy.special``; J2 from those two (``_j2``).
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
        """(radii, weights) of the psi nodes as read-only arrays."""
        return self._arrays

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The psi node arrays, built once per measure."""
        ss = np.array([s for s, _ in self.psi_nodes])
        ws = np.array([w for _, w in self.psi_nodes])
        ss.flags.writeable = ws.flags.writeable = False
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
    if not 0 <= eps < math.inf:
        raise MeasureSpecError(f"scale factor must be finite and >= 0, got {eps}")
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
    lo = float(ta) if scalar else ta.min(initial=0.0)
    if not 0 <= lo < math.inf or not scalar and ta.max(initial=0.0) == math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    out = _transform(mu, ta, moments=False)
    return float(out) if scalar else out


def hankel_moments(mu: RadialMeasure, eps, r):
    """The three psi-integrals driving (G_eps^2)' and (G_eps^2)''.

    Returns (A0, A1, A2) with argument c = 2 pi eps sqrt(r):
        A0 = int J0(c s) dpsi,  A1 = int s J1(c s) dpsi,
        A2 = int s^2 (J2 - J0)(c s) dpsi.
    A0 is ``hankel(mu, eps sqrt(r))``.  ``eps`` is a scalar; floats for a
    scalar r, arrays shaped like r for an array of r.  A1 and A2 are moments
    of mu itself; the dilated particle ``scale(mu, eps)`` has eps A1 and
    eps^2 A2, which the energy summand takes from ``_transform``'s eps axis.
    """
    ra = np.asarray(r, dtype=float)
    if not np.all(ra > 0):
        raise ValueError(f"r must be positive, got {r}")
    if np.ndim(eps) or not 0 <= eps < math.inf:
        raise ValueError(f"eps must be a finite scalar >= 0, got {eps}")
    A = _transform(mu, eps * np.sqrt(ra), moments=True)
    if A[0].ndim == 0:
        return tuple(float(a) for a in A)
    return A


def _transform(mu: RadialMeasure, t: np.ndarray, moments: bool, eps=None):
    """The transform of each family at frequencies t >= 0 (an array, or 0-d).

    A0 = g(t) alone, or with ``moments`` the tuple (A0, A1, A2) of
    ``hankel_moments`` at c = 2 pi t.  A 1-D array ``eps`` first dilates mu
    by each eps, with the parameter eps R or eps sigma and the nodes eps s
    formed as ``scale`` forms them, and eps = 0 the point mass: the outputs
    gain a leading eps axis, row i bit for bit the transform of
    ``scale(mu, eps[i])``.  A parameter whose square overflows gives inf
    or nan, quietly; callers check what they output.
    """
    if eps is None:
        return _family(mu, t, moments, 1.0)
    eps = np.asarray(eps, dtype=float).reshape((-1,) + (1,) * np.ndim(t))
    out = _family(mu, t, moments, eps)
    # each output is a fresh (eps, t) array: the point mass goes in its rows
    point = eps.reshape(-1) == 0.0
    for a, value in zip(out if moments else (out,), (1.0, 0.0, 0.0)):
        a[point] = value
    return out


def _family(mu: RadialMeasure, t, moments: bool, scale):
    """``_transform`` of mu dilated by ``scale``: 1.0 (exact), or a column of
    eps that broadcasts against t and gives the outputs their eps axis."""
    if mu.kind == "dirac":
        shape = np.broadcast_shapes(np.shape(scale), np.shape(t))
        A0 = np.ones(shape)
        return (A0, np.zeros(shape), np.zeros(shape)) if moments else A0
    with np.errstate(over="ignore", invalid="ignore"):
        if mu.kind == "gaussian":
            s2 = np.float_power(scale * mu.param, 2.0)  # C pow, as float ** is
            A0 = np.exp(-math.pi * s2 * t * t)
            if not moments:
                return A0
            return A0, s2 * t * A0, (2.0 * s2 * s2 * t * t - s2 / math.pi) * A0
        if mu.kind == "disk":
            R = scale * mu.param
            X = 2.0 * math.pi * R * t
            J1 = bessel_j(1, X)
            A0 = np.asarray(2.0 * J1 / X)
            if moments:
                J2 = _j2(X, bessel_j(0, X), J1)
                A1 = np.asarray(R * 2.0 * J2 / X)
                A2 = np.asarray(R * R * (12.0 * J2 / (X * X) - 4.0 * J1 / X))
            # below X = 1e-4, where J1/X and J2/X^2 lose their digits (0/0
            # at X = 0), the series around zero replace those entries
            small = X < 1e-4
            if small.any():
                Xs = X[small]
                A0[small] = 1.0 - Xs * Xs / 8.0
                if moments:
                    Rs = np.broadcast_to(R, X.shape)[small]
                    A1[small] = Rs * Xs / 4.0 * (1.0 - Xs * Xs / 12.0)
                    A2[small] = Rs * Rs * (-0.5 + Xs * Xs / 8.0)
            return (A0, A1, A2) if moments else A0
        ss, ws = mu.nodes()
        per = max(1, potential._EVAL_PAIRS // len(ss))  # (eps, t) pairs a block
        if np.size(scale) * t.size > per:
            # blocks of whole eps rows, or of one row's t: each (eps, t) pair
            # sums its nodes alike in any block
            tf, es = t.reshape(-1), np.reshape(scale, (-1, 1))
            rows, cols = max(1, per // tf.size), min(per, tf.size)
            out = np.block([[np.asarray(_family(mu, tf[j:j + cols], moments, e))
                             for j in range(0, tf.size, cols)]
                            for e in np.split(es, range(rows, len(es), rows))])
            shape = np.broadcast_shapes(np.shape(scale), t.shape)
            out = out.reshape(out.shape[:-2] + shape)
            return tuple(out) if moments else out
        ss = np.multiply.outer(scale, ss)  # (m,), or (k, 1, m) for an eps column
        x = 2.0 * math.pi * (t[..., None] * ss)  # t.shape + (m,)
        J0 = bessel_j(0, x)
        A0 = (ws * J0).sum(axis=-1)
        if not moments:
            return A0
        A1 = (ws * ss * bessel_j(1, x)).sum(axis=-1)
        # J2 - J0 = 2 J1(x)/x - 2 J0(x): A2 = 2 A1/c - 2 int s^2 J0(c s) dpsi,
        # where A1/c -> int s^2/2 dpsi as c -> 0
        c, m2 = 2.0 * math.pi * t, ws * ss * ss
        A1_c = np.divide(A1, c, out=np.full(A1.shape, 0.5 * m2.sum(axis=-1)),
                         where=c > 0)
        return A0, A1, 2.0 * (A1_c - (m2 * J0).sum(axis=-1))


# c_n = (3/2)_n (-2)^n / ((3)_n n! (n + 1)), highest n first: the disk's
# K(Z) = sum_n c_n Z^n below Z = 1, where the first omitted term is under 1e-19
_DISK_K_SERIES = [
    (-2.0) ** n * math.gamma(n + 1.5) / math.gamma(1.5) * 2.0
    / (math.factorial(n + 2) * math.factorial(n) * (n + 1))
    for n in range(23, -1, -1)
]

# (node, ring pair) entries of a profile's K evaluated at once
_PROFILE_CHUNK = 1 << 16


def self_convolution_at_zero(P: RadialPotential, mu: RadialMeasure) -> float:
    """(f * mu * mu)(0), exactly, from the potential's Gaussian nodes.

    f(x) = sum_i w_i exp(-t_i |x|^2), so (f * mu * mu)(0) = E f(X - Y) =
    sum_i w_i K(t_i) for independent X, Y drawn from mu, with
    K(t) = E exp(-t |X - Y|^2) in closed form per family:
      - dirac: K = 1, and the value is f(0);
      - gaussian sigma: X - Y has density exp(-pi |z|^2 / 2 sigma^2) / 2 sigma^2,
        and K = 1 / (1 + 2 sigma^2 t / pi);
      - disk R: K = (2/Z) int_0^Z e^-z I1(z)/z dz = (2/Z)(1 - i0e(Z) - i1e(Z))
        with Z = 2 t R^2; below Z = 1, where that difference cancels, the
        power series of the integral, from e^-z I1(z)/z = 1F1(3/2; 3; -2z)/2;
      - profile rings (s_j, w_j): a pair of rings gives
        exp(-t (s_j - s_k)^2) i0e(2 t s_j s_k), the angle average of
        exp(-t |X - Y|^2), and K sums w_j w_k times that over j <= k, the
        pairs j < k twice.
    Every term is nonnegative, so the sum has no cancellation.  It equals
    the Plancherel form 2 pi int_0^inf Phi(r^2) g(r)^2 r dr, with Phi the
    Fourier transform of the potential.  A width or radius whose square
    overflows gives K = 0, the limit of a particle spread over the plane.
    """
    if mu.kind == "dirac":
        return P.value_at_origin()
    ts, ws = P.rep.nodes()
    with np.errstate(over="ignore"):
        if mu.kind == "gaussian":
            K = 1.0 / (1.0 + 2.0 * np.float_power(mu.param, 2.0) * ts / math.pi)
        elif mu.kind == "disk":
            Z = 2.0 * ts * np.float_power(mu.param, 2.0)
            u, big = np.minimum(Z, 1.0), np.maximum(Z, 1.0)
            series = reduce(lambda acc, c: acc * u + c, _DISK_K_SERIES)  # Horner
            K = np.where(Z < 1.0, series, 2.0 / big * (1.0 - i0e(big) - i1e(big)))
        else:
            ss, rw = mu.nodes()
            j, k = np.triu_indices(len(ss))
            pw = np.where(j == k, 1.0, 2.0) * rw[j] * rw[k]
            d2, sp = (ss[j] - ss[k]) ** 2, 2.0 * ss[j] * ss[k]
            tc, K = ts[:, None], np.zeros_like(ts)
            step = max(1, _PROFILE_CHUNK // len(ts))  # ring pairs per chunk
            for lo in range(0, len(pw), step):
                at = slice(lo, lo + step)
                K += (np.exp(-tc * d2[at]) * i0e(tc * sp[at])) @ pw[at]
    return float(ws @ K)


def _read_profile_csv(path: str) -> list[tuple[float, float]]:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise MeasureSpecError(
            f"cannot read profile file '{path}': {exc.strerror}") from None
    rows = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        s_str, _, d_str = line.partition(",")
        rows.append((float(s_str), float(d_str)))
    return rows


_MEASURES = {
    "dirac": (dirac, {}),
    "disk": (uniform_disk, {"r": float}),
    "gauss": (radial_gaussian, {"sigma": float}),
    "profile": (profile, {"file": _read_profile_csv}),
}


def parse_measure(spec: str) -> RadialMeasure:
    """Parse the CLI grammar (``potential._parse_spec``): dirac, disk:r=<f>,
    gauss:sigma=<f>, profile:file=<path> (CSV rows s,density)."""
    return potential._parse_spec(spec, MeasureSpecError, _MEASURES)
