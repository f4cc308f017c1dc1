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
from functools import cached_property

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
        """All (positions, weights) as read-only arrays."""
        return self._arrays[0], self._arrays[1][0]

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Positions t and the rows w (-t)^k, k = 0, 1, 2, built once."""
        items = list(self.atoms) + list(self.density_nodes)
        ts = np.array([t for t, _ in items])
        ws = np.array([w for _, w in items])
        with np.errstate(over="ignore"):  # inf only where F' or F'' is
            weights = np.stack([ws * (-ts) ** k for k in range(3)])
        ts.flags.writeable = weights.flags.writeable = False
        return ts, weights


@dataclass(frozen=True)
class RadialPotential:
    """Completely monotone F(r^2) given by its Laplace measure."""

    rep: LaplaceMeasure

    def eval(self, r2):
        """F at squared radius r2 (scalar or array)."""
        return eval_derivatives(self, r2, 0)

    def value_at_origin(self) -> float:
        return float(self.rep.nodes()[1].sum())


def gaussian(alpha: float) -> RadialPotential:
    """exp(-alpha |x|^2): a single Laplace atom at t = alpha."""
    if not 0 < alpha < math.inf:
        raise PotentialSpecError(
            f"gaussian alpha must be finite and > 0, got {alpha}")
    return RadialPotential(LaplaceMeasure(atoms=((float(alpha), 1.0),)))


def from_atoms(atoms) -> RadialPotential:
    """Finite mixture of Gaussians, sum w_i exp(-t_i |x|^2)."""
    measure = LaplaceMeasure(atoms=tuple((float(t), float(w)) for t, w in atoms))
    if not measure.atoms:
        raise PotentialSpecError("at least one atom required")
    return RadialPotential(measure)


def inverse_power(a: float, s: float) -> RadialPotential:
    """(a + |x|^2)^(-s) via its Laplace density t^(s-1) e^(-a t) / Gamma(s).

    The density is discretized by the trapezoid rule in log t, which keeps
    full relative accuracy from r = 0 out to r_max = 20 (Gauss-Laguerre
    quadrature loses all relative accuracy already at moderate radii because
    the integrand concentrates near t = 0 as r grows).
    """
    if not (0 < a < math.inf and 1 < s < math.inf):
        raise PotentialSpecError(
            f"need finite a > 0 and s > 1, got a={a}, s={s}")
    r_max, spacing = 20.0, 0.2  # accurate out to r_max; node spacing in log t
    # lower cutoff: mass of the density below t=delta/(a+R) is O(delta^s)
    delta = (1e-13 * math.exp(gammaln(s + 1))) ** (1.0 / s)
    x_lo = math.log(delta) - math.log(a + r_max * r_max)
    x_hi = math.log(38.0 / a)
    n = int(math.ceil((x_hi - x_lo) / spacing)) + 1
    xs = np.linspace(x_lo, x_hi, n)
    h = xs[1] - xs[0]
    t = np.exp(xs)
    w = h * t**s * np.exp(-a * t - gammaln(s))
    return RadialPotential(
        LaplaceMeasure(density_nodes=tuple(zip(t.tolist(), w.tolist()))))


def eval_derivatives(P: RadialPotential, r2, order):
    """k-th derivative of F at r2: sum w (-t)^k exp(-r2 t), for k = order.

    The one evaluator of every Laplace mixture.  A tuple of orders gives
    a tuple of derivatives, all from one exp per node and point.
    """
    many = isinstance(order, tuple)
    orders = order if many else (order,)
    for k in orders:
        if k not in (0, 1, 2):
            raise ValueError(f"order must be in {{0, 1, 2}}, got {order}")
    ts, weights = P.rep._arrays
    e = np.exp(-np.multiply.outer(r2, ts))
    if e.ndim == 1:  # a scalar r2 gives floats
        out = [float((weights[k] * e).sum()) for k in orders]
    else:
        out = [(weights[k] * e).sum(axis=-1) for k in orders]
    return tuple(out) if many else out[0]


def fourier(P: RadialPotential) -> RadialPotential:
    """2D Fourier transform, node-wise (t, w) -> (pi^2/t, w pi/t).

    Uses the exact 2D Gaussian integral
    int exp(-t|x|^2) exp(-2 pi i x.p) dx = (pi/t) exp(-pi^2 |p|^2 / t).
    """
    pi = math.pi

    def _map(items):
        return tuple((pi * pi / t, w * pi / t) for t, w in items)

    return RadialPotential(LaplaceMeasure(
        atoms=_map(P.rep.atoms), density_nodes=_map(P.rep.density_nodes)))


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
