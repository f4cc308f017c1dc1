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
from scipy.special import gammainccinv, gammaln

__all__ = [
    "LaplaceMeasure",
    "RadialPotential",
    "PotentialSpecError",
    "gaussian",
    "inverse_power",
    "from_atoms",
    "eval_derivatives",
    "fourier",
    "parse_potential",
]


# (point, node) pairs that one block of eval_derivatives holds
_EVAL_PAIRS = 1 << 18


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
        # inf only where F' or F'' is; nan where a weight that underflowed
        # to 0 meets an inf t^k
        with np.errstate(over="ignore", invalid="ignore"):
            weights = np.stack([ws * (-ts) ** k for k in range(3)])
        ts.flags.writeable = weights.flags.writeable = False
        return ts, weights


@dataclass(frozen=True)
class RadialPotential:
    """Completely monotone F(r^2) given by its Laplace measure."""

    rep: LaplaceMeasure
    # int f over the plane, fhat(0); by default the nodes' sum w pi / t
    integral: float | None = None

    def __post_init__(self):
        if self.integral is None:
            ts, ws = self.rep.nodes()
            with np.errstate(over="ignore"):  # inf, as the Fourier weights are
                object.__setattr__(self, "integral", float((ws * math.pi / ts).sum()))

    def eval(self, r2):
        """F at squared radius r2 (scalar or array)."""
        return eval_derivatives(self, r2, 0)

    def value_at_origin(self) -> float:
        return float(self.rep.nodes()[1].sum())

    @cached_property
    def _tables(self) -> dict:
        """Tables that other modules derive from this potential, built once
        each (by key) and shared between calls as long as it lives."""
        return {}

    @cached_property
    def _fourier(self) -> RadialPotential:
        """The 2D Fourier transform, built once per potential (``fourier``)."""
        pi = math.pi

        def _map(items):
            return tuple((pi * pi / t, w * pi / t) for t, w in items)

        return RadialPotential(LaplaceMeasure(
            atoms=_map(self.rep.atoms), density_nodes=_map(self.rep.density_nodes)))


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
    the integrand concentrates near t = 0 as r grows).  The density's bulk
    sits near t = s/a with width sqrt(s)/a, so the top node and the spacing
    follow s: the nodes reach the t above which a Gamma(s) density holds
    below 1e-13 of its mass (never below 38/a), and the spacing in log t,
    0.2, shrinks to 0.7/sqrt(s) past s = 12.25.
    """
    if not (0 < a < math.inf and 1 < s < math.inf):
        raise PotentialSpecError(
            f"need finite a > 0 and s > 1, got a={a}, s={s}")
    # accurate out to r_max; node spacing in log t
    r_max, spacing = 20.0, min(0.2, 0.7 / math.sqrt(s))
    # lower cutoff: mass of the density below t=delta/(a+R) is O(delta^s)
    try:
        delta = (1e-13 * math.exp(gammaln(s + 1))) ** (1.0 / s)
    except OverflowError:  # past s = 170.6
        delta = math.inf
    if delta == math.inf:  # also where gammaln itself is inf
        raise PotentialSpecError(
            f"invpower s={s} is too large: Gamma(s + 1) overflows")
    x_lo = math.log(delta) - math.log(a + r_max * r_max)
    # a * t_hi: 38 up to s = 3.5, then the Gamma(s) upper 1e-13 quantile
    at_hi = max(38.0, float(gammainccinv(s, 1e-13)))
    x_hi = math.log(at_hi / a)  # a float quotient past the range is inf
    if not 0.0 < x_hi - x_lo < math.inf:
        raise PotentialSpecError(
            f"invpower a={a}, s={s} has no finite node range: from "
            f"t = {math.exp(x_lo):g} to {at_hi:g}/a = {at_hi / a:g}")
    n = int(math.ceil((x_hi - x_lo) / spacing)) + 1
    xs = np.linspace(x_lo, x_hi, n)
    h = xs[1] - xs[0]
    t = np.exp(xs)
    # a weight past the float range is inf, which LaplaceMeasure rejects
    with np.errstate(over="ignore", invalid="ignore"):
        power, decay = t**s, np.exp(-a * t - gammaln(s))
        w = h * power * decay
        # where t^s overflows or e^(-a t) / Gamma(s) is subnormal, the
        # product is nan or loses its digits: take both factors in one exp
        far = ~np.isfinite(power) | (decay < np.finfo(float).tiny)
        w[far] = h * np.exp(s * xs[far] - a * t[far] - gammaln(s))
    # int f exactly: the nodes stop at t = exp(x_lo) and miss its far field
    nodes = LaplaceMeasure(density_nodes=tuple(zip(t.tolist(), w.tolist())))
    return RadialPotential(nodes, integral=math.pi * a ** (1.0 - s) / (s - 1.0))


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
    r2 = np.asarray(r2, dtype=float)

    def sums(r2):
        with np.errstate(over="ignore"):  # r2 t past the float range: exp(-inf) = 0
            e = np.exp(-np.multiply.outer(r2, ts))
        return [(weights[k] * e).sum(axis=-1) for k in orders]

    # blocks of points: each point's sum over the nodes is the same in any
    # block, and no (point, node) array exceeds about _EVAL_PAIRS entries
    step = max(1, _EVAL_PAIRS // len(ts))
    if r2.size <= step:
        out = sums(r2)
    else:
        flat = r2.reshape(-1)
        blocks = [sums(flat[at:at + step]) for at in range(0, flat.size, step)]
        out = [np.concatenate(col).reshape(r2.shape) for col in zip(*blocks)]
    if r2.ndim == 0:  # a scalar r2 gives floats
        out = [float(v) for v in out]
    return tuple(out) if many else out[0]


def fourier(P: RadialPotential) -> RadialPotential:
    """2D Fourier transform, node-wise (t, w) -> (pi^2/t, w pi/t).

    Uses the exact 2D Gaussian integral
    int exp(-t|x|^2) exp(-2 pi i x.p) dx = (pi/t) exp(-pi^2 |p|^2 / t).
    Built once per potential: every call returns the same object.
    """
    return P._fourier


def _parse_spec(spec: str, error: type[ValueError], kinds: dict):
    """Read ``kind`` or ``kind:key=value,...``: ``kinds`` maps each kind to
    its constructor and one value parser per key, in argument order.  Each
    key is given exactly once, in any order; a kind's only key takes the
    rest of the spec, commas included.  Bad keys and values raise ``error``."""
    head, _, rest = spec.partition(":")
    if head not in kinds:
        raise error(f"unknown kind '{head}' in '{spec}'; one of {', '.join(kinds)}")
    build, parsers = kinds[head]
    parts = (rest.split(",") if len(parsers) > 1 else [rest]) if rest else []
    given = dict(part.split("=", 1) for part in parts if "=" in part)
    if len(given) != len(parts) or given.keys() != parsers.keys():
        raise error(f"bad spec '{spec}': {head} keys are {', '.join(parsers) or 'none'}"
                    ", each given once as key=value")
    try:
        return build(*[parse(given[key]) for key, parse in parsers.items()])
    except error:
        raise
    except ValueError as exc:
        raise error(f"bad spec '{spec}': {exc}") from exc


def _parse_pairs(text: str) -> list[tuple[float, float]]:
    """Read [(t,w),(t,w),...]: one or more pairs, one comma between pairs
    and none after the last; spaces are ignored."""
    body = text.replace(" ", "")
    if not (body.startswith("[(") and body.endswith(")]")):
        raise ValueError("expected a list [(t,w),...] of one or more atoms")
    pairs = [item.split(",") for item in body[2:-2].split("),(")]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("expected atoms (t,w) separated by single commas")
    return [(float(t), float(w)) for t, w in pairs]


_POTENTIALS = {
    "gaussian": (gaussian, {"alpha": float}),
    "invpower": (inverse_power, {"a": float, "s": float}),
    "laplace": (from_atoms, {"atoms": _parse_pairs}),
}


def parse_potential(spec: str) -> RadialPotential:
    """Parse the CLI grammar (``_parse_spec``): gaussian:alpha=<f>,
    invpower:a=<f>,s=<f>, laplace:atoms=[(t,w),...]."""
    return _parse_spec(spec, PotentialSpecError, _POTENTIALS)
