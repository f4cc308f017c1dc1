import math

import numpy as np
import pytest

import latticeforge.energy as en
import latticeforge.lattice as lat
from latticeforge import Basis2D, LatticeParams, TRIANGULAR

from conftest import random_lattice

SQ3 = math.sqrt(3.0)


def triangular_basis() -> Basis2D:
    # unit-density rescaling of ((1,0),(1/2,sqrt3/2))
    c = math.sqrt(2.0 / SQ3)
    return Basis2D((c, 0.0), (0.5 * c, 0.5 * SQ3 * c))


class TestFromParams:
    def test_square(self):
        b = lat.from_params(0.0, 1.0)
        assert b.matrix() == pytest.approx(np.eye(2))

    def test_triangular_gram(self):
        got = lat.from_params(0.5, 0.5 * SQ3).gram()
        want = triangular_basis().gram()
        assert got == pytest.approx(want, abs=1e-14)

    def test_half_two(self):
        b = lat.from_params(0.5, 2.0)
        r2 = math.sqrt(2.0)
        assert b.u1 == pytest.approx((1.0 / r2, 0.0))
        assert b.u2 == pytest.approx((1.0 / (2.0 * r2), r2))
        assert b.covolume() == pytest.approx(1.0, abs=1e-14)

    def test_covolume_unit(self, rng):
        for _ in range(50):
            L = random_lattice(rng)
            assert abs(L.basis().covolume() - 1.0) <= 1e-14

    def test_outside_domain_rejected(self):
        with pytest.raises(lat.LatticeDomainError):
            lat.from_params(0.3, 0.5)
        with pytest.raises(lat.LatticeDomainError):
            lat.from_params(0.7, 2.0)
        with pytest.raises(lat.LatticeDomainError):
            LatticeParams(-0.1, 2.0)


class TestReduce:
    def test_identity_basis(self):
        params, _ = lat.reduce(Basis2D((1.0, 0.0), (0.0, 1.0)))
        assert (params.x, params.y) == pytest.approx((0.0, 1.0))
        assert params.scale == pytest.approx(1.0)

    def test_rectangular(self):
        params, _ = lat.reduce(Basis2D((2.0, 0.0), (0.0, 0.5)))
        assert (params.x, params.y) == pytest.approx((0.0, 4.0))
        assert params.scale == pytest.approx(1.0)

    def test_triangular(self):
        params, _ = lat.reduce(triangular_basis())
        assert (params.x, params.y) == pytest.approx((0.5, 0.5 * SQ3))

    def test_roundtrip_on_domain(self, rng):
        for _ in range(100):
            L = random_lattice(rng)
            got, _ = lat.reduce(L.basis())
            assert got.x == pytest.approx(L.x, abs=1e-12)
            assert got.y == pytest.approx(L.y, abs=1e-12)

    def test_rotation_and_mixing_invariance(self, rng):
        # rotating and unimodularly remixing a basis must not change (x, y)
        for _ in range(30):
            L = random_lattice(rng)
            m = L.basis().matrix()
            phi = rng.uniform(0.0, 2.0 * math.pi)
            rot = np.array(
                [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
            )
            U = np.array([[1.0, 0.0], [rng.integers(-3, 4), 1.0]])
            m2 = (U @ m) @ rot.T
            got, _ = lat.reduce(Basis2D(tuple(m2[0]), tuple(m2[1])))
            assert got.x == pytest.approx(L.x, abs=1e-9)
            assert got.y == pytest.approx(L.y, abs=1e-9)

    def test_scale_recorded(self):
        params, _ = lat.reduce(Basis2D((3.0, 0.0), (0.0, 3.0)))
        assert params.scale == pytest.approx(9.0)
        assert (params.x, params.y) == pytest.approx((0.0, 1.0))

    def test_degenerate_rejected(self):
        with pytest.raises(lat.DegenerateBasisError):
            lat.reduce(Basis2D((1.0, 2.0), (2.0, 4.0)))


class TestDual:
    def test_square_self_dual(self):
        d = lat.dual(LatticeParams(0.0, 1.0))
        assert (d.x, d.y) == pytest.approx((0.0, 1.0))

    def test_triangular_self_dual(self):
        d = lat.dual(TRIANGULAR)
        assert (d.x, d.y) == pytest.approx((TRIANGULAR.x, TRIANGULAR.y))

    def test_rectangular(self):
        d = lat.dual(LatticeParams(0.0, 4.0))
        assert (d.x, d.y) == pytest.approx((0.0, 4.0))

    def test_involution(self, rng):
        for _ in range(50):
            L = random_lattice(rng)
            dd = lat.dual(lat.dual(L))
            assert dd.x == pytest.approx(L.x, abs=1e-12)
            assert dd.y == pytest.approx(L.y, abs=1e-12)

    def test_unit_density_preserved(self, rng):
        for _ in range(20):
            d = lat.dual(random_lattice(rng))
            assert d.scale == pytest.approx(1.0, abs=1e-12)


class TestMetric:
    def test_zero_on_diagonal(self, rng):
        for _ in range(10):
            L = random_lattice(rng)
            assert lat.metric(L, L) == 0.0

    def test_corrected_separates_square_pairs(self):
        # (0,1) and (1/2,1) are distinct lattices
        a = LatticeParams(0.0, 1.0)
        b = LatticeParams(0.5, 1.0)
        assert lat.metric(a, b) == pytest.approx(0.5)

    def test_symmetry_and_triangle(self, rng):
        for _ in range(50):
            A, B, C = (random_lattice(rng) for _ in range(3))
            assert lat.metric(A, B) == pytest.approx(lat.metric(B, A))
            assert lat.metric(A, C) <= lat.metric(A, B) + lat.metric(B, C) + 1e-12


def engine_points(L: LatticeParams, R: float) -> np.ndarray:
    """The points the lattice-sum engine sums over for L at cutoff R."""
    seen = []

    def h(pts, q):
        seen.append(pts)
        return q

    en._round_sums(h, lat.basis_matrix(L.x, L.y)[None], np.array([R]))
    return seen[0]


class TestEnumerateShells:
    def test_square_r1(self):
        pts = engine_points(LatticeParams(0.0, 1.0), 1.0)
        assert len(pts) == 4
        got = sorted(map(tuple, np.round(pts).astype(int)))
        assert got == [(-1, 0), (0, -1), (0, 1), (1, 0)]

    def test_square_r15(self):
        assert len(engine_points(LatticeParams(0.0, 1.0), 1.5)) == 8

    def test_triangular_first_shell(self):
        pts = engine_points(TRIANGULAR, 1.1)
        assert len(pts) == 6
        norms = np.linalg.norm(pts, axis=1)
        assert norms == pytest.approx(
            np.full(6, math.sqrt(2.0 / SQ3)), abs=1e-12
        )

    def test_closed_under_negation(self, rng):
        pts = engine_points(random_lattice(rng), 3.0)
        seen = {tuple(np.round(p, 9)) for p in pts}
        for p in pts:
            assert tuple(np.round(-p, 9)) in seen

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            L = random_lattice(rng)
            R = rng.uniform(0.5, 5.0)
            pts = engine_points(L, R)
            m = L.basis().matrix()
            box = 60
            ms, ns = np.meshgrid(
                np.arange(-box, box + 1), np.arange(-box, box + 1), indexing="ij"
            )
            coeffs = np.stack([ms.ravel(), ns.ravel()], axis=1)
            coeffs = coeffs[(coeffs[:, 0] != 0) | (coeffs[:, 1] != 0)]
            brute = coeffs @ m
            want = brute[np.linalg.norm(brute, axis=1) <= R * (1.0 + 1e-12)]
            assert len(pts) == len(want)
            assert np.sort(np.linalg.norm(pts, axis=1)) == pytest.approx(
                np.sort(np.linalg.norm(want, axis=1)), abs=1e-12
            )

    def test_cap(self):
        with pytest.raises(lat.ShellCapError):
            lat.enumerate_points(lat.basis_matrix(0.0, 1.0)[None], [1e5],
                                 cap=1000)

    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            lat.enumerate_points(lat.basis_matrix(0.5, 0.5 * SQ3)[None], [-1.0])
