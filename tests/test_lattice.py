import math
from functools import partial

import numpy as np
import pytest

import latticeforge.energy as en
import latticeforge.lattice as lat
from latticeforge import LatticeParams, TRIANGULAR

from conftest import random_lattice

SQ3 = math.sqrt(3.0)


def triangular_basis() -> np.ndarray:
    # unit-density rescaling of ((1,0),(1/2,sqrt3/2))
    c = math.sqrt(2.0 / SQ3)
    return np.array([[c, 0.0], [0.5 * c, 0.5 * SQ3 * c]])


def covolume(b: np.ndarray) -> float:
    return abs(np.linalg.det(b))


class TestFromParams:
    def test_square(self):
        b = LatticeParams(0.0, 1.0).basis()
        assert b == pytest.approx(np.eye(2))

    def test_triangular_gram(self):
        b, t = LatticeParams(0.5, 0.5 * SQ3).basis(), triangular_basis()
        assert b @ b.T == pytest.approx(t @ t.T, abs=1e-14)

    def test_half_two(self):
        b = LatticeParams(0.5, 2.0).basis()
        r2 = math.sqrt(2.0)
        assert b[0] == pytest.approx((1.0 / r2, 0.0))
        assert b[1] == pytest.approx((1.0 / (2.0 * r2), r2))
        assert covolume(b) == pytest.approx(1.0, abs=1e-14)

    def test_covolume_unit(self, rng):
        for _ in range(50):
            L = random_lattice(rng)
            assert abs(covolume(L.basis()) - 1.0) <= 1e-14

    def test_scaled_basis_spans_the_lattice(self):
        # covolume 9 and the Gram matrix of the unit-density basis times 9:
        # the same shape in D, at nine times the area per point
        b = LatticeParams(0.3, 1.4, scale=9.0).basis()
        unit = lat.basis_matrix(0.3, 1.4)
        assert covolume(b) == pytest.approx(9.0, rel=1e-14)
        assert b @ b.T == pytest.approx(9.0 * (unit @ unit.T), rel=1e-14)

    def test_outside_domain_rejected(self):
        with pytest.raises(lat.LatticeDomainError):
            LatticeParams(0.3, 0.5)
        with pytest.raises(lat.LatticeDomainError):
            LatticeParams(0.7, 2.0)
        with pytest.raises(lat.LatticeDomainError):
            LatticeParams(-0.1, 2.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_bad_covolume_rejected(self, scale):
        with pytest.raises(lat.LatticeDomainError):
            LatticeParams(0.0, 1.0, scale=scale)


class TestReduced:
    def test_stack_matches_each_basis_alone(self, rng):
        # bases on D, remixed and rotated ones, long-skewed ones needing
        # many reduction steps, and equal-length pairs, in one stack
        bases = [random_lattice(rng).basis() for _ in range(5)]
        bases += [np.array([[1.0, 0.0], [k + 0.3, 0.02]]) for k in (7, 40)]
        bases += [triangular_basis(), np.array([[3.0, 0.0], [0.0, 3.0]])]
        for b in bases[:5]:
            U = np.array([[1.0, 0.0], [rng.integers(-9, 10), 1.0]])
            phi = rng.uniform(0.0, 2.0 * math.pi)
            rot = np.array([[math.cos(phi), -math.sin(phi)],
                            [math.sin(phi), math.cos(phi)]])
            bases.append(U @ b @ rot.T)
        stack = lat._reduced(np.array(bases))
        for b, got in zip(bases, stack):
            assert np.array_equal(got, lat._reduced(b)[0])
            u, v = got
            assert u @ u <= v @ v and abs(u @ v) <= 0.5 * (u @ u)
            assert covolume(got) == pytest.approx(covolume(b), rel=1e-12)

    def test_reduced_bases_come_back_as_given(self, rng):
        # bases of D, and a reduced basis holding a -0.0 that any loop pass
        # would make +0.0: v -= round(u.v / u.u) u steps v by -0.0 u here
        bases = [random_lattice(rng).basis() for _ in range(20)]
        bases.append(np.array([[0.1, 1.0], [-1.2, -0.0]]))
        stack = np.array(bases)
        got = lat._reduced(stack)
        assert got.tobytes() == stack.tobytes()
        assert got is not stack


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

    @pytest.mark.parametrize("s", [0.25, 1.0, 9.0])
    def test_theta_over_inverse_transpose(self, s, rng):
        # an oracle that shares no code with dual: theta summed over the
        # rows of inv(B)^T, the textbook dual basis, by the engine
        for _ in range(20):
            L = random_lattice(rng)
            L = LatticeParams(L.x, L.y, scale=s)
            t = rng.uniform(0.2, 5.0)
            rows = np.linalg.inv(L.basis()).T

            def summand(pts, q):
                return np.exp(-math.pi * t * q)

            tail_of = partial(en.mixture_tail, [math.pi * t], [1.0])
            want = 1.0 + en._summed(summand, tail_of, rows, 1e-13)[0].item()
            got = en.theta(lat.dual(L), t, rtol=1e-13)
            assert got == pytest.approx(want, rel=1e-12)


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


def half_box_points(L: LatticeParams, R: float) -> np.ndarray:
    """The points the lattice-sum engine evaluates for L at cutoff R: those
    of the half box after the origin, whose sums it doubles."""
    seen = []

    def h(pts, q):
        seen.append(pts)
        return q

    en._round_sums(h, lat.basis_matrix(L.x, L.y)[None], np.array([R]))
    return seen[0]


def engine_points(L: LatticeParams, R: float) -> np.ndarray:
    """The points the engine's sums stand for: its half box and the negations."""
    half = half_box_points(L, R)
    return np.concatenate([half, -half])


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
        # the half box holds no point's negation, so doubling its sums
        # counts each point of the closed disk once
        half = half_box_points(random_lattice(rng), 3.0)
        seen = {tuple(np.round(p, 9)) for p in half}
        assert len(seen) == len(half) > 0
        for p in half:
            assert tuple(np.round(-p, 9)) not in seen

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            L = random_lattice(rng)
            R = rng.uniform(0.5, 5.0)
            pts = engine_points(L, R)
            m = L.basis()
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
