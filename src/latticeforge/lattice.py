"""Unit-density 2D Bravais lattices and their fundamental-domain coordinates.

A lattice is handled either as an explicit basis (two independent vectors)
or as a point (x, y) of the fundamental domain

    D = { (x, y) : 0 <= x <= 1/2, y > 0, x^2 + y^2 >= 1 },

which indexes unit-density lattices up to isometry via the basis
((1/sqrt(y), 0), (x/sqrt(y), sqrt(y))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Basis2D",
    "LatticeParams",
    "TRIANGULAR",
    "LatticeDomainError",
    "DegenerateBasisError",
    "ShellCapError",
    "from_params",
    "basis_matrix",
    "reduce",
    "dual",
    "metric",
]

# inclusive slack for membership tests on the boundary of D
_DOMAIN_TOL = 1e-9


class LatticeDomainError(ValueError):
    """Raised when (x, y) lies outside the fundamental domain D."""


class DegenerateBasisError(ValueError):
    """Raised when the two basis vectors are (numerically) dependent."""


class ShellCapError(RuntimeError):
    """Raised when a shell enumeration would exceed the point cap."""


@dataclass(frozen=True)
class Basis2D:
    """Basis of a planar lattice, rows u1 and u2."""

    u1: tuple[float, float]
    u2: tuple[float, float]

    def matrix(self) -> np.ndarray:
        return np.array([self.u1, self.u2], dtype=float)

    def covolume(self) -> float:
        return abs(self.u1[0] * self.u2[1] - self.u1[1] * self.u2[0])

    def gram(self) -> np.ndarray:
        b = self.matrix()
        return b @ b.T


@dataclass(frozen=True)
class LatticeParams:
    """Point of the fundamental domain D plus the original covolume."""

    x: float
    y: float
    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise LatticeDomainError(
                f"lattice coordinates must be finite, got ({self.x}, {self.y})"
            )
        if not in_domain(self.x, self.y):
            raise LatticeDomainError(
                f"({self.x}, {self.y}) outside fundamental domain"
            )
        if not self.scale > 0:
            raise LatticeDomainError(f"scale must be positive, got {self.scale}")

    def basis(self) -> Basis2D:
        return from_params(self.x, self.y)


def in_domain(x: float, y: float, tol: float = _DOMAIN_TOL) -> bool:
    return (
        -tol <= x <= 0.5 + tol
        and y > 0
        and x * x + y * y >= 1.0 - tol
    )


TRIANGULAR = LatticeParams(0.5, math.sqrt(3.0) / 2.0)


def basis_matrix(x, y) -> np.ndarray:
    """Basis rows for the (x, y) parameterization, without the D check.

    Valid for any x and y > 0; used for finite-difference stencils that
    step slightly outside D.  Arrays x and y of one shape give a stack of
    bases of shape x.shape + (2, 2).
    """
    x, sy = np.asarray(x, dtype=float), np.sqrt(y)
    rows = np.stack([1.0 / sy, np.zeros_like(x), x / sy, sy], axis=-1)
    return rows.reshape(x.shape + (2, 2))


def from_params(x: float, y: float) -> Basis2D:
    """Unit-covolume basis ((1/sqrt(y), 0), (x/sqrt(y), sqrt(y)))."""
    if not in_domain(x, y):
        raise LatticeDomainError(f"({x}, {y}) outside fundamental domain")
    m = basis_matrix(x, y)
    return Basis2D((m[0, 0], m[0, 1]), (m[1, 0], m[1, 1]))


def _gauss_reduce(v1: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange-Gauss reduction to a shortest basis pair, |v1| <= |v2|."""
    a, b = v1.copy(), v2.copy()
    if a @ a > b @ b:
        a, b = b, a
    while True:
        mu = round((a @ b) / (a @ a))
        b = b - mu * a
        if b @ b >= a @ a:
            break
        a, b = b, a
    return a, b


def _params_from_reduced(a: np.ndarray, b: np.ndarray, covol: float):
    """Map a Gauss-reduced pair to ((x, y), rotation angle)."""
    la2 = float(a @ a)
    y = covol / la2
    x = (a @ b) / la2
    # reflect across the axis of u1 so that x >= 0
    if x < 0:
        x = -x
    if x > 0.5:  # |x| == 1/2 up to roundoff
        x = 1.0 - x
    rotation = math.atan2(a[1], a[0])
    return x, y, rotation


def reduce(b: Basis2D) -> tuple[LatticeParams, float]:
    """Canonical D coordinates of the lattice spanned by ``b``.

    Returns (params, rotation) where rotation is the angle of the shortest
    reduced vector in the input frame.  ``params.scale`` records the input
    covolume; the stored (x, y) always describes the unit-density rescaling.
    """
    m = b.matrix()
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    norm_scale = math.sqrt(float(m[0] @ m[0]) * float(m[1] @ m[1]))
    if abs(det) <= 1e-12 * norm_scale:
        raise DegenerateBasisError(f"basis {b} is numerically degenerate")
    covol = abs(det)
    a, v = _gauss_reduce(m[0], m[1])

    candidates = [_params_from_reduced(a, v, covol)]
    if abs(float(a @ a) - float(v @ v)) <= 1e-12 * float(v @ v):
        # equal-length pair: ordering is ambiguous, keep the smaller x
        candidates.append(_params_from_reduced(v, a, covol))
    x, y, rotation = min(candidates, key=lambda c: (c[0], c[1]))

    x = min(max(x, 0.0), 0.5)
    if x * x + y * y < 1.0:
        # roundoff below the unit circle; project back onto the boundary
        y = math.sqrt(max(1.0 - x * x, 0.0))
    return LatticeParams(x, y, scale=covol), rotation


def dual(L: LatticeParams) -> LatticeParams:
    """Fundamental-domain coordinates of the dual lattice."""
    m = basis_matrix(L.x, L.y) * math.sqrt(L.scale)
    md = np.linalg.inv(m).T
    params, _ = reduce(Basis2D(tuple(md[0]), tuple(md[1])))
    return params


def _dx_corrected(x1: float, x2: float) -> float:
    best = math.inf
    for k in (-1, 0, 1):
        best = min(best, abs(x1 - x2 - k), abs(x1 + x2 - k))
    return best


def metric(L1: LatticeParams, L2: LatticeParams) -> float:
    """Distance on D respecting the x -> -x and x -> x+1 identifications."""
    dx = _dx_corrected(L1.x, L2.x)
    return math.hypot(dx, L1.y - L2.y)


@lru_cache(maxsize=16)
def _coeff_box(m_max: int, n_max: int) -> np.ndarray:
    ms, ns = np.meshgrid(
        np.arange(-m_max, m_max + 1), np.arange(-n_max, n_max + 1), indexing="ij"
    )
    nonzero = (ms != 0) | (ns != 0)
    box = np.stack([ms[nonzero], ns[nonzero]], axis=1).astype(float)
    box.flags.writeable = False  # shared by every call through the cache
    return box


def enumerate_points(bases: np.ndarray, R, cap: int = 10**7) -> np.ndarray:
    """Coefficients (m, n) != 0 covering every point m*u1 + n*u2 of norm
    <= R_i of each lattice in a stack.

    ``bases`` is (k, 2, 2) with rows u1, u2 per lattice and ``R`` holds k
    cutoffs.  One box, shared by the stack, is returned as a read-only
    (count, 2) float array; the caller keeps each lattice's points within
    its own R_i.  Raises ShellCapError past ``cap`` candidates per lattice.
    """
    R = np.asarray(R, dtype=float)
    if not (R > 0).all():
        raise ValueError(f"cutoff must be positive, got {R}")
    # m = p . inv[:,0], n = p . inv[:,1] with inv[:,0] = (u2y, -u2x)/det and
    # inv[:,1] = (-u1y, u1x)/det, so |m| <= R |u2|/|det|, |n| <= R |u1|/|det|
    det = np.abs(bases[:, 0, 0] * bases[:, 1, 1] - bases[:, 0, 1] * bases[:, 1, 0])
    lengths = np.sqrt(np.einsum("kij,kij->ki", bases, bases))
    reach = np.floor((R / det)[:, None] * lengths[:, ::-1] + 1e-9).max(axis=0)
    m_max, n_max = (int(v) + 1 for v in reach)
    if (2 * m_max + 1) * (2 * n_max + 1) > cap:
        raise ShellCapError(
            f"shell enumeration at R={R.max()} needs more than {cap} candidates"
        )
    return _coeff_box(m_max, n_max)
