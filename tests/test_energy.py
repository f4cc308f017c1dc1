import math
from functools import partial

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import j1

import latticeforge.energy as en
import latticeforge.lattice as lat
import latticeforge.measure as msr
import latticeforge.potential as pot
from latticeforge import Basis2D, LatticeParams, TRIANGULAR

from conftest import random_lattice


def _theta_z2_oracle(t: float) -> float:
    n = np.arange(-10, 11)
    one_d = np.exp(-math.pi * t * n * n).sum()
    return float(one_d * one_d)


class TestTheta:
    def test_square_unit(self):
        L = LatticeParams(0.0, 1.0)
        assert en.theta(L, 1.0) == pytest.approx(_theta_z2_oracle(1.0), rel=1e-12)

    def test_large_t_limit(self, rng):
        for _ in range(5):
            L = random_lattice(rng)
            assert en.theta(L, 200.0) == pytest.approx(1.0, abs=1e-12)

    def test_triangular_below_square(self):
        assert en.theta(TRIANGULAR, 1.0) < en.theta(LatticeParams(0.0, 1.0), 1.0)

    def test_jacobi_identity(self, rng):
        for _ in range(20):
            L = random_lattice(rng)
            t = rng.uniform(0.2, 5.0)
            lhs = en.theta(L, t)
            rhs = en.theta(lat.dual(L), 1.0 / t) / t
            assert abs(lhs - rhs) <= 1e-9 * lhs

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            en.theta(TRIANGULAR, 0.0)


class TestPointEnergy:
    def test_report_consistency(self):
        rep = en.diffuse_energy(
            pot.gaussian(math.pi), msr.radial_gaussian(1.0), TRIANGULAR
        )
        assert rep.value == pytest.approx(
            rep.lattice_part + rep.constant_part, abs=1e-15
        )
        assert rep.tail_bound <= 1e-10 * max(abs(rep.lattice_part), 1e-300)
        assert rep.terms_used > 0


class TestDiffuseEnergy:
    def test_dirac_reduces_to_point_energy(self):
        P = pot.gaussian(math.pi)
        L = LatticeParams(0.0, 1.0)
        rep = en.diffuse_energy(P, msr.dirac(), L, rtol=1e-11)
        direct = _theta_z2_oracle(1.0) - 1.0
        fhat0 = math.pi / math.pi
        assert rep.value == pytest.approx(direct + fhat0 - 1.0, abs=1e-9)

    def test_fourier_vs_direct_gaussian_family(self, rng):
        P = pot.gaussian(math.pi)
        mu = msr.radial_gaussian(1.0)
        for L in [LatticeParams(0.0, 1.0), TRIANGULAR] + [
            random_lattice(rng) for _ in range(5)
        ]:
            rep = en.diffuse_energy(P, mu, L, rtol=1e-11)
            direct = en.diffuse_energy_direct(P, mu, L, rtol=1e-11)
            # lattice_part + constant compared against direct lattice sum
            assert rep.lattice_part + rep.constant_part == pytest.approx(
                direct, rel=1e-8
            )

    def test_triangular_minimality(self, rng):
        P = pot.gaussian(math.pi)
        mu = msr.radial_gaussian(0.5)
        e_tri = en.diffuse_energy(P, mu, TRIANGULAR).value
        for _ in range(10):
            L = random_lattice(rng)
            assert e_tri <= en.diffuse_energy(P, mu, L).value + 1e-12

    @pytest.mark.parametrize("scale", [1.0, 0.6, 2.5])
    def test_disk_vs_brute_force_dual_sum(self, rng, scale):
        # sum'_{p in L*} fhat(p) g(|p|)^2 over the inverse-transpose basis,
        # for exp(-alpha r^2) (fhat = (pi/alpha) exp(-pi^2 |p|^2 / alpha))
        # and the disk of radius r0 (g = 2 J1(2 pi r0 |p|) / (2 pi r0 |p|))
        alpha, r0 = 2.0, 0.8
        n = np.arange(-60, 61)
        ms, ns = (a.ravel() for a in np.meshgrid(n, n, indexing="ij"))
        nonzero = (ms != 0) | (ns != 0)
        ms, ns = ms[nonzero], ns[nonzero]
        for L in [TRIANGULAR, LatticeParams(0.0, 1.0)] + [
            random_lattice(rng) for _ in range(3)
        ]:
            L = LatticeParams(L.x, L.y, scale=scale)
            dual = np.linalg.inv(lat.basis_matrix(L.x, L.y) * math.sqrt(scale)).T
            p = np.outer(ms, dual[0]) + np.outer(ns, dual[1])
            r = np.sqrt((p * p).sum(axis=1))
            X = 2.0 * math.pi * r0 * r
            terms = (math.pi / alpha) * np.exp(-math.pi**2 * r * r / alpha) \
                * (2.0 * j1(X) / X) ** 2
            brute = np.sort(terms).sum()
            rep = en.diffuse_energy(pot.gaussian(alpha), msr.uniform_disk(r0), L)
            assert abs(rep.lattice_part - brute) <= (
                rep.tail_bound + 1e-13 * abs(brute))

    def test_fast_callable_matches_report(self, rng):
        P = pot.gaussian(2.0)
        mu = msr.radial_gaussian(0.8)
        E = en.diffuse_energy_fn(P, mu, rtol=1e-11, include_constant=True)
        for _ in range(5):
            L = random_lattice(rng)
            assert E(L.x, L.y) == pytest.approx(
                en.diffuse_energy(P, mu, L, rtol=1e-11).value, rel=1e-9
            )


class TestDiffuseEnergyDirect:
    def test_dirac_square(self):
        v = en.diffuse_energy_direct(
            pot.gaussian(math.pi), msr.dirac(), LatticeParams(0.0, 1.0)
        )
        assert v == pytest.approx(_theta_z2_oracle(1.0) - 1.0, rel=1e-11)

    def test_summand_vs_numeric_convolution(self):
        # 2D gaussians are separable, so (f*mu*mu)(x) is a product of two
        # 1D triple convolutions, each evaluated by adaptive quadrature
        alpha, sigma = math.pi, 0.8
        a_mu = math.pi / sigma**2
        c_mu1d = math.sqrt(1.0 / sigma**2)

        def triple_1d(z):
            val, _ = dblquad(
                lambda v, u: math.exp(-alpha * (z - u - v) ** 2)
                * c_mu1d * math.exp(-a_mu * u * u)
                * c_mu1d * math.exp(-a_mu * v * v),
                -6.0, 6.0, -6.0, 6.0, epsabs=1e-11,
            )
            return val

        mix = en._direct_mixture(pot.gaussian(alpha), msr.radial_gaussian(sigma))
        for x1, x2 in ((1.0, 0.0), (0.5, 0.5), (1.2, -0.3)):
            got = sum(c * math.exp(-a * (x1 * x1 + x2 * x2)) for a, c in mix.rep.atoms)
            assert got == pytest.approx(triple_1d(x1) * triple_1d(x2), abs=1e-7)

    def test_rotation_invariance(self):
        P = pot.gaussian(1.5)
        mu = msr.radial_gaussian(1.0)
        L = LatticeParams(0.3, 1.4)
        phi = 0.7
        rot = np.array(
            [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
        )
        m = L.basis().matrix() @ rot.T
        L2, _ = lat.reduce(Basis2D(tuple(m[0]), tuple(m[1])))
        assert en.diffuse_energy_direct(P, mu, L) == pytest.approx(
            en.diffuse_energy_direct(P, mu, L2), rel=1e-10
        )

    def test_unsupported_pair(self):
        with pytest.raises(en.NonconvergenceError):
            en.diffuse_energy_direct(
                pot.inverse_power(1.0, 2.0), msr.dirac(), TRIANGULAR
            )
        with pytest.raises(en.NonconvergenceError):
            en.diffuse_energy_direct(
                pot.gaussian(1.0), msr.uniform_disk(1.0), TRIANGULAR
            )


class TestPoissonCheck:
    def test_zero_shift_square(self):
        lhs, rhs, diff = en.poisson_check(
            pot.gaussian(math.pi), LatticeParams(0.0, 1.0), (0.0, 0.0)
        )
        assert lhs == pytest.approx(_theta_z2_oracle(1.0), rel=1e-11)
        assert diff <= 1e-10

    def test_half_shift_square(self):
        _, _, diff = en.poisson_check(
            pot.gaussian(math.pi), LatticeParams(0.0, 1.0), (0.5, 0.5)
        )
        assert diff <= 1e-10

    def test_random_lattice_and_shift(self, rng):
        P = pot.gaussian(2.0)
        for _ in range(10):
            L = random_lattice(rng)
            z = tuple(rng.uniform(-0.5, 0.5, size=2))
            _, _, diff = en.poisson_check(P, L, z)
            assert diff <= 1e-9


class TestBatchedEngine:
    def test_mixed_batch_matches_each_lattice_alone(self):
        # lattices spread over x in [0, 1/2], y in [1, 4] stop at different
        # rounds; each must get exactly what it gets when summed alone
        Phi = pot.fourier(pot.gaussian(math.pi))
        H, tail_of = en._fourier_summand(Phi, msr.uniform_disk(1.0))
        h = lambda pts, q: H(q)
        xs, ys = np.meshgrid(np.linspace(0.0, 0.5, 4), np.linspace(1.0, 4.0, 5))
        bases = np.linalg.inv(lat.basis_matrix(xs.ravel(), ys.ravel()))
        bases = bases.transpose(0, 2, 1)
        total, R, bound, terms = en._summed(h, tail_of, bases, 1e-10)
        rho = en._packing_radius(bases)
        rounds = np.round(np.log(R / np.maximum(6.0 * rho, 2.0)) / np.log(1.5))
        assert len(set(rounds)) > 1
        for i, basis in enumerate(bases):
            alone = en._summed(h, tail_of, basis, 1e-10)
            assert alone[0][0] == total[i]
            assert alone[1][0] == R[i]
            assert alone[2][0] == bound[i]
            assert alone[3][0] == terms[i]

    def test_batched_theta_square(self, rng):
        # gaussian exp(-pi r^2) is its own Fourier transform, so the dirac
        # point energy is theta(1) - 1 on every lattice of the batch
        E = en.diffuse_energy_fn(
            pot.from_atoms([(math.pi, 1.0)]), msr.dirac(), rtol=1e-12
        )
        Ls = [LatticeParams(0.0, 1.0)] + [random_lattice(rng) for _ in range(6)]
        got = E(np.array([L.x for L in Ls]), np.array([L.y for L in Ls]))
        assert got[0] == pytest.approx(_theta_z2_oracle(1.0) - 1.0, rel=1e-12)
        for L, v in zip(Ls, got):
            assert v == pytest.approx(en.theta(L, 1.0) - 1.0, rel=1e-12)

    def test_energy_fn_shapes(self):
        E = en.diffuse_energy_fn(pot.gaussian(math.pi), msr.uniform_disk(1.0))
        v = E(0.3, 1.2)
        assert type(v) is float
        xs = np.array([[0.0, 0.1, 0.2], [0.3, 0.4, 0.5]])
        ys = np.full((2, 3), 1.5)
        got = E(xs, ys)
        assert got.shape == (2, 3)
        assert got[1, 0] == E(0.3, 1.5)

    def test_cap_reached_through_batch(self, monkeypatch):
        monkeypatch.setattr(
            lat, "enumerate_points",
            partial(lat.enumerate_points, cap=100),
        )
        E = en.diffuse_energy_fn(pot.gaussian(50.0), msr.dirac())
        with pytest.raises(lat.ShellCapError):
            E(np.linspace(0.0, 0.5, 8), np.full(8, 2.0))

    def test_box_sliced_to_chunk_size(self, monkeypatch):
        # a box larger than the chunk is cut into slices, and the kept
        # values are joined before each lattice's sort, so no sum moves
        Phi = pot.fourier(pot.gaussian(math.pi))
        H, tail_of = en._fourier_summand(Phi, msr.uniform_disk(1.0))
        h = lambda pts, q: H(q)
        bases = lat.basis_matrix(np.array([0.5, 0.1, 0.3]), np.array([0.9, 3.0, 1.5]))
        sizes = []

        def recording(pts, q):
            sizes.append(len(q))
            return h(pts, q)

        whole = en._summed(h, tail_of, bases, 1e-12)
        monkeypatch.setattr(en, "_CHUNK_CANDIDATES", 64)
        sliced = en._summed(recording, tail_of, bases, 1e-12)
        assert max(sizes) <= 64 and len(sizes) > len(bases)
        for a, b in zip(whole, sliced):
            assert np.array_equal(a, b)

