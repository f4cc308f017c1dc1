"""Unit-density 2D Bravais lattices and their fundamental-domain coordinates.

A lattice is handled either as a basis, a (2, 2) array with rows u1 and u2
(or a (k, 2, 2) stack of them), or as a point (x, y) of the fundamental
domain

    D = { (x, y) : 0 <= x <= 1/2, y > 0, x^2 + y^2 >= 1 },

which indexes unit-density lattices up to isometry via the basis
((1/sqrt(y), 0), (x/sqrt(y), sqrt(y))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatticeParams",
    "TRIANGULAR",
    "LatticeDomainError",
    "ShellCapError",
    "basis_matrix",
    "dual",
    "metric",
]

# inclusive slack for membership tests on the boundary of D
_DOMAIN_TOL = 1e-9
# most rows of a coefficient box (read at each enumerate_points call)
_POINT_CAP = 10**7


class LatticeDomainError(ValueError):
    """Raised when (x, y) lies outside the fundamental domain D."""


class ShellCapError(RuntimeError):
    """Raised when a shell enumeration would exceed the point cap."""


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
        if not 0 < self.scale < math.inf:
            raise LatticeDomainError(
                f"scale must be finite and positive, got {self.scale}")

    def basis(self) -> np.ndarray:
        """Basis rows of this lattice, of covolume ``scale``."""
        return basis_matrix(self.x, self.y) * math.sqrt(self.scale)


def in_domain(x: float, y: float) -> bool:
    return (
        -_DOMAIN_TOL <= x <= 0.5 + _DOMAIN_TOL
        and y > 0
        and x * x + y * y >= 1.0 - _DOMAIN_TOL
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


def _reduced(bases) -> np.ndarray:
    """Lagrange-Gauss reduced rows of each basis in a (k, 2, 2) stack.

    Row u1 is a shortest lattice vector and u2 one shortest independent of
    it: |u1| <= |u2| and |u1 . u2| <= |u1|^2 / 2.  Each basis is reduced
    on its own, so no result depends on the rest of the stack.
    """
    b = np.array(bases, dtype=float).reshape(-1, 2, 2)
    u, v = b[:, 0], b[:, 1]  # views: the swaps below move rows of b
    uu = (u * u).sum(axis=1)
    # a stack of reduced bases (those of D off its arc |u1| = |u2|) comes back as given
    going = (2.0 * np.abs((u * v).sum(axis=1)) > uu) | ((v * v).sum(axis=1) < uu)
    while going.any():
        # a finished basis steps by 0, so it stays as it was
        v -= np.round((u * v).sum(axis=1) / uu * going)[:, None] * u
        going = (v * v).sum(axis=1) < uu  # v shorter than u: swap, reduce again
        b[going] = b[going, ::-1]
        uu = (u * u).sum(axis=1)
    return b


def dual(L: LatticeParams) -> LatticeParams:
    """The dual lattice L* of L of covolume s.  In the plane, inv(B)^T is
    the basis B turned by 90 degrees and divided by det B, so L* has L's
    (x, y) and covolume 1/s."""
    return LatticeParams(L.x, L.y, 1.0 / L.scale)


def _dx_corrected(x1: float, x2: float) -> float:
    best = math.inf
    for k in (-1, 0, 1):
        best = min(best, abs(x1 - x2 - k), abs(x1 + x2 - k))
    return best


def metric(L1: LatticeParams, L2: LatticeParams) -> float:
    """Distance on D respecting the x -> -x and x -> x+1 identifications."""
    dx = _dx_corrected(L1.x, L2.x)
    return math.hypot(dx, L1.y - L2.y)


def enumerate_points(bases: np.ndarray, R) -> tuple[int, int]:
    """Half-widths (m_max, n_max) of the coefficient box |m| <= m_max,
    |n| <= n_max that holds every point m*u1 + n*u2 of norm <= R_i of each
    lattice in a stack.

    ``bases`` is (k, 2, 2) with rows u1, u2 per lattice and ``R`` holds k
    cutoffs.  One box is shared by the stack; the caller builds its rows
    and keeps each lattice's points within its own R_i.  Raises
    ShellCapError past ``_POINT_CAP`` rows, counted over the full box.
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
    size = (2 * m_max + 1) * (2 * n_max + 1)
    if size > _POINT_CAP:
        raise ShellCapError(f"shell enumeration at R={R.max()} needs more "
                            f"than {_POINT_CAP} candidates")
    return m_max, n_max
