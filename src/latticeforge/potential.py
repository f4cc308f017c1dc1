"""Interaction potentials represented by Laplace-Stieltjes measures.

Every potential here is a radial function f(x) = F(|x|^2) with

    F(r) = sum_i w_i * exp(-r * t_i),   t_i > 0, w_i >= 0,

the node set coming either from point masses (atoms) or from a quadrature
discretization of a continuous density.  This representation makes F
completely monotone by construction, gives exact derivatives of every
order, and turns the 2D Fourier transform into a node-wise map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

__all__ = [
    "LaplaceMeasure",
    "RadialPotential",
    "PotentialSpecError",
    "gaussian",
    "inverse_power",
    "from_atoms",
    "eval_derivatives",
    "fourier",
    "check_completely_monotone",
    "parse_potential",
]


class PotentialSpecError(ValueError):
    """Raised for invalid constructor arguments or spec strings."""


@dataclass(frozen=True)
class LaplaceMeasure:
    """Nonnegative measure on (0, inf): atoms plus quadrature nodes."""

    atoms: tuple[tuple[float, float], ...] = ()
    density_nodes: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        for t, w in list(self.atoms) + list(self.density_nodes):
            if not 0 < t < math.inf:
                raise PotentialSpecError(
                    f"node position must be finite and > 0, got {t}")
            if not 0 <= w < math.inf:
                raise PotentialSpecError(
                    f"node weight must be finite and >= 0, got {w}")

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """All (positions, weights) as arrays."""
        items = list(self.atoms) + list(self.density_nodes)
        ts = np.array([t for t, _ in items])
        ws = np.array([w for _, w in items])
        return ts, ws

    def total_mass(self) -> float:
        _, ws = self.nodes()
        return float(ws.sum())


@dataclass(frozen=True)
class RadialPotential:
    """Completely monotone F(r^2) with decay constants for tail bounds.

    ``decay_constants = (C, eta)`` certify F(|x|^2) <= C (1+|x|)^(-2-eta).
    """

    rep: LaplaceMeasure
    decay_constants: tuple[float, float]

    def eval(self, r2):
        """F at squared radius r2 (scalar or array)."""
        return eval_derivatives(self, r2, 0)

    def derivative(self, r2, order: int):
        return eval_derivatives(self, r2, order)

    def value_at_origin(self) -> float:
        return self.rep.total_mass()


def _power_decay_bound(ts: np.ndarray, ws: np.ndarray, eta: float) -> float:
    """C with sum_i w_i exp(-t_i r^2) <= C (1+r)^(-2-eta) for all r >= 0.

    Per node, (1+r)^(2+eta) exp(-t r^2) is maximized where
    (2+eta)/(1+r) = 2 t r; solve the quadratic and take the larger root.
    """
    p = 2.0 + eta
    C = 0.0
    for t, w in zip(ts, ws):
        # 2 t r^2 + 2 t r - p = 0
        r_star = (-2 * t + math.sqrt(4 * t * t + 8 * t * p)) / (4 * t)
        C += w * (1.0 + r_star) ** p * math.exp(-t * r_star * r_star)
    return C


def _build(measure: LaplaceMeasure, eta: float) -> RadialPotential:
    ts, ws = measure.nodes()
    C = _power_decay_bound(ts, ws, eta)
    return RadialPotential(measure, (C, eta))


def gaussian(alpha: float) -> RadialPotential:
    """exp(-alpha |x|^2): a single Laplace atom at t = alpha."""
    if not 0 < alpha < math.inf:
        raise PotentialSpecError(
            f"gaussian alpha must be finite and > 0, got {alpha}")
    return _build(LaplaceMeasure(atoms=((float(alpha), 1.0),)), eta=2.0)


def from_atoms(atoms) -> RadialPotential:
    """Finite mixture of Gaussians, sum w_i exp(-t_i |x|^2)."""
    measure = LaplaceMeasure(atoms=tuple((float(t), float(w)) for t, w in atoms))
    if not measure.atoms:
        raise PotentialSpecError("at least one atom required")
    return _build(measure, eta=2.0)


def inverse_power(
    a: float, s: float, r_max: float = 20.0, spacing: float = 0.2
) -> RadialPotential:
    """(a + |x|^2)^(-s) via its Laplace density t^(s-1) e^(-a t) / Gamma(s).

    The density is discretized by the trapezoid rule in log t, which keeps
    full relative accuracy from r = 0 out to ``r_max`` (Gauss-Laguerre
    quadrature loses all relative accuracy already at moderate radii because
    the integrand concentrates near t = 0 as r grows).
    """
    if not (0 < a < math.inf and 1 < s < math.inf):
        raise PotentialSpecError(
            f"need finite a > 0 and s > 1, got a={a}, s={s}")
    # lower cutoff: mass of the density below t=delta/(a+R) is O(delta^s)
    delta = (1e-13 * math.exp(gammaln(s + 1))) ** (1.0 / s)
    x_lo = math.log(delta) - math.log(a + r_max * r_max)
    x_hi = math.log(38.0 / a)
    n = int(math.ceil((x_hi - x_lo) / spacing)) + 1
    xs = np.linspace(x_lo, x_hi, n)
    h = xs[1] - xs[0]
    t = np.exp(xs)
    w = h * t**s * np.exp(-a * t - gammaln(s))
    measure = LaplaceMeasure(density_nodes=tuple(zip(t.tolist(), w.tolist())))
    return _build(measure, eta=2.0 * s - 2.0)


def eval_derivatives(P: RadialPotential, r2, order: int):
    """k-th derivative of F at r2: sum w (-t)^k exp(-r2 t)."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be in {{0, 1, 2}}, got {order}")
    ts, ws = P.rep.nodes()
    r2a = np.asarray(r2, dtype=float)
    out = (ws * (-ts) ** order * np.exp(-np.multiply.outer(r2a, ts))).sum(axis=-1)
    return float(out) if np.isscalar(r2) or r2a.ndim == 0 else out


def fourier(P: RadialPotential) -> RadialPotential:
    """2D Fourier transform, node-wise (t, w) -> (pi^2/t, w pi/t).

    Uses the exact 2D Gaussian integral
    int exp(-t|x|^2) exp(-2 pi i x.p) dx = (pi/t) exp(-pi^2 |p|^2 / t).
    """
    pi = math.pi

    def _map(items):
        return tuple((pi * pi / t, w * pi / t) for t, w in items)

    measure = LaplaceMeasure(
        atoms=_map(P.rep.atoms), density_nodes=_map(P.rep.density_nodes)
    )
    return _build(measure, eta=P.decay_constants[1])


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


def parse_potential(spec: str) -> RadialPotential:
    """Parse the CLI grammar: gaussian:alpha=<f>, invpower:a=<f>,s=<f>,
    laplace:atoms=[(t,w),...]."""
    head, _, rest = spec.partition(":")
    try:
        if head == "gaussian":
            args = _parse_kv(rest, ["alpha"])
            return gaussian(args["alpha"])
        if head == "invpower":
            args = _parse_kv(rest, ["a", "s"])
            return inverse_power(args["a"], args["s"])
        if head == "laplace":
            key, _, val = rest.partition("=")
            if key != "atoms":
                raise PotentialSpecError(f"unknown key '{key}' in '{spec}'")
            return from_atoms(_parse_pairs(val))
    except PotentialSpecError:
        raise
    except ValueError as exc:
        raise PotentialSpecError(f"bad potential spec '{spec}': {exc}") from exc
    raise PotentialSpecError(f"unknown potential '{head}'")


def _parse_kv(text: str, keys: list[str]) -> dict[str, float]:
    out = {}
    for part in text.split(","):
        key, sep, val = part.partition("=")
        if not sep or key not in keys:
            raise PotentialSpecError(f"unexpected token '{part}'")
        out[key] = float(val)
    missing = [k for k in keys if k not in out]
    if missing:
        raise PotentialSpecError(f"missing keys {missing}")
    return out


def _parse_pairs(text: str) -> list[tuple[float, float]]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise PotentialSpecError(f"expected [...] list, got '{text}'")
    body = text[1:-1].replace(" ", "")
    pairs = []
    while body:
        if not body.startswith("("):
            raise PotentialSpecError(f"expected '(' at '{body}'")
        close = body.index(")")
        t_str, _, w_str = body[1:close].partition(",")
        pairs.append((float(t_str), float(w_str)))
        body = body[close + 1 :].lstrip(",")
    if not pairs:
        raise PotentialSpecError("empty atom list")
    return pairs
