import math
from functools import partial

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import j1

import latticeforge.energy as en
import latticeforge.lattice as lat
import latticeforge.measure as msr
import latticeforge.optimize as opt
import latticeforge.potential as pot
import latticeforge.stability as stab
from latticeforge import LatticeParams, TRIANGULAR

from conftest import every_rung_summed, fd_gradient_hessian, random_lattice


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
        L2 = lat.reduce(L.basis() @ rot.T)
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


class TestMixtureTail:
    """The packing bound against brute-force sums of its majorant."""

    @staticmethod
    def _brute_tail(ts, ws, basis, z, R):
        # sum over |x| > R of phi((|x| - |z|)_+), phi = sum w exp(-t r^2),
        # out to where every node has decayed below 1e-300
        o = math.hypot(*z)
        reach = o + 2.0 + math.sqrt(700.0 / min(ts))
        n = int(reach / 0.3) + 2  # the test lattices have |det| >= 0.3 |u|
        m = np.arange(-n, n + 1)
        pts = (m[:, None, None] * basis[0] + m[None, :, None] * basis[1]).reshape(-1, 2)
        r = np.hypot(pts[:, 0], pts[:, 1])
        u = np.maximum(r[r > R * (1.0 + 1e-12)] - o, 0.0)
        return sum(w * np.exp(-t * u * u).sum() for t, w in zip(ts, ws))

    @pytest.mark.parametrize("x, y", [(0.0, 1.0), (0.5, 0.5 * math.sqrt(3.0)),
                                      (0.3, 1.7)])
    @pytest.mark.parametrize("ts, ws", [([1000.0], [1.0]), ([0.5], [1.0]),
                                        ([3.0, 0.2], [0.7, 0.3])])
    @pytest.mark.parametrize("z", [(0.0, 0.0), (0.3, 0.1), (1.0, 0.0), (2.5, 1.0)])
    def test_bound_holds_below_and_above_the_shift(self, x, y, ts, ws, z):
        basis = lat.basis_matrix(x, y)
        rho = float(en._packing_radius(basis[None])[0])
        o = math.hypot(*z)
        tail = en.mixture_tail(ts, ws, rho, offset=o)
        for R in (0.0, rho, 2.0 * rho + 0.5 * o, 2.0 * rho + o, 6.0 * rho):
            assert tail(R) >= self._brute_tail(ts, ws, basis, z, R)

    def test_shifted_core_counts(self):
        # x = -z gives exp(0) = 1 on the square lattice; the bound used to
        # leave out phi(0) inside |y| < rho + offset and read 0.340
        assert en.mixture_tail([1000.0], [1.0], 0.5, offset=1.0)(0.0) >= 1.0

    def test_continuous_and_nonincreasing(self):
        # the phi(0) term falls to 0 at R = 2 rho + offset, where the
        # integral's lower end reaches 0
        rho, o = 0.5, 0.7
        tail = en.mixture_tail([2.0, 0.1], [0.5, 0.5], rho, offset=o)
        R = np.linspace(0.0, 6.0 * rho + o, 2001)
        vals = tail(R)
        assert np.all(np.diff(vals) <= 0.0)
        assert tail(2.0 * rho + o - 1e-9) == pytest.approx(tail(2.0 * rho + o),
                                                          rel=1e-8)


class TestSkippedRungs:
    """The engine sums only the rungs where a pair can stop, and returns
    what the every-rung ladder returns, bit for bit."""

    @pytest.fixture
    def rounds(self, monkeypatch):
        """Check every engine call against ``every_rung_summed``; the list
        holds the summand calls of each engine call."""
        real, rounds = en._summed, []

        def checked(h_eval, tail_of, bases, rtol, heads=1):
            calls = []

            def counted(pts, q):
                calls.append(len(q))
                return h_eval(pts, q)

            got = real(counted, tail_of, bases, rtol, heads)
            want = every_rung_summed(h_eval, tail_of, bases, rtol, heads)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            rounds.append(len(calls))
            return got

        monkeypatch.setattr(en, "_summed", checked)
        monkeypatch.setattr(stab, "_summed", checked)
        return rounds

    @pytest.mark.parametrize("mu", [msr.uniform_disk(1.0), msr.radial_gaussian(1.0)])
    def test_scan_grid(self, rounds, mu):
        E = en.diffuse_energy_fn(pot.gaussian(math.pi), mu, include_constant=True)
        opt.grid_scan(E, 40, 40, 4.0)
        # one call per column of 40 lattices, two rounds each (three when
        # every rung is summed)
        assert len(rounds) == 40 and max(rounds) <= 2

    @pytest.mark.parametrize("L", [LatticeParams(0.0, 1.0), TRIANGULAR,
                                   LatticeParams(0.3, math.sqrt(1.0 - 0.09))])
    def test_stencils_outside_the_domain(self, rounds, L):
        P, mu = pot.gaussian(math.pi), msr.uniform_disk(1.0)
        fd_gradient_hessian(en.diffuse_energy_fn(P, mu), L)
        en.diffuse_energy_jet(P, mu)(np.array([L.x, 0.25]), np.array([L.y, 2.0]))
        assert len(rounds) == 2

    def test_figure_curve_heads(self, rounds):
        eps = 0.05 * np.arange(1, 101)
        stab.t_coefficient_diffuse(pot.gaussian(math.pi), msr.uniform_disk(1.0), eps)
        # the first rung, R = 3.22, cannot stop any eps at rtol 1e-10
        assert rounds == [1]

    @pytest.mark.parametrize("t", [1e-3, 1e3])
    def test_theta(self, rounds, t):
        for L in (LatticeParams(0.0, 1.0), TRIANGULAR, LatticeParams(0.2, 2.5)):
            en.theta(L, t)

    @pytest.mark.parametrize("alpha, z", [(2.0, (0.1, 0.05)), (2.0, (0.3, 0.1)),
                                          (1000.0, (1.0, 0.0))])
    def test_poisson_check_sides(self, rounds, alpha, z):
        for L in (LatticeParams(0.0, 1.0), LatticeParams(0.3, 1.1)):
            en.poisson_check(pot.gaussian(alpha), L, z)
        assert len(rounds) == 4

    def test_invpower_shifted_sum_stops_in_one_box(self, monkeypatch):
        # the inverse power's smallest Laplace node is near 1e-9, so no
        # cutoff below the 10^7-candidate cap can close the shifted sum's
        # tail: the sum goes straight to a rung past the cap
        real, radii = lat.enumerate_points, []

        def counted(bases, R, *args, **kwargs):
            radii.append(float(np.max(R)))
            return real(bases, R, *args, **kwargs)

        monkeypatch.setattr(lat, "enumerate_points", counted)
        with pytest.raises(lat.ShellCapError):
            en.poisson_check(pot.inverse_power(1.0, 2.0), LatticeParams(0.0, 1.0),
                             (0.3, 0.1), rtol=1e-10)
        assert len(radii) == 1

    def test_no_rung_can_stop(self):
        # a tail that never falls stays above rtol times its reach, tail(0),
        # at every rung: the engine raises before any round
        calls = []
        with pytest.raises(en.NonconvergenceError, match="within 40 cutoffs"):
            en._summed(lambda pts, q: calls.append(q) or np.exp(-q),
                       lambda rho: lambda R: np.full(np.shape(R), 1e30),
                       lat.basis_matrix(0.0, 1.0), 1e-10)
        assert calls == []


class TestPackingRadius:
    @pytest.mark.parametrize("x, y", [
        (0.45, 0.011), (0.49, 0.004), (0.3, 0.02), (2.7, 0.5),
    ])
    def test_half_the_shortest_vector(self, x, y):
        # (x, y) far from D: the basis rows and their sum and difference
        # are all much longer than the lattice's shortest vector
        basis = lat.basis_matrix(x, y)
        k = np.arange(-60, 61)
        ms, ns = np.meshgrid(k, k, indexing="ij")
        pts = np.outer(ms.ravel(), basis[0]) + np.outer(ns.ravel(), basis[1])
        lengths = np.linalg.norm(pts, axis=1)
        shortest = lengths[lengths > 0].min()
        rho = en._packing_radius(basis[None])
        assert rho[0] == pytest.approx(0.5 * shortest, rel=1e-12)


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
        # one head: sums (1, 1, k) and R, bound, terms (1, k)
        total, R, bound, terms = (v.reshape(-1)
                                  for v in en._summed(h, tail_of, bases, 1e-10))
        rho = en._packing_radius(bases)
        rounds = np.round(np.log(R / np.maximum(6.0 * rho, 2.0)) / np.log(1.5))
        assert len(set(rounds)) > 1
        for i, basis in enumerate(bases):
            alone = [v.reshape(-1) for v in en._summed(h, tail_of, basis, 1e-10)]
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sum_raises_at_once(self, bad, monkeypatch):
        # a nan sum never meets the tail test and an inf one meets it at
        # once: both raise in round 1, long before the point cap
        monkeypatch.setattr(
            lat, "enumerate_points",
            partial(lat.enumerate_points, cap=10**4),
        )
        calls = []

        def h(pts, q):
            calls.append(len(q))
            return np.where(q > 1.5, bad, np.exp(-q))

        with pytest.raises(en.NonconvergenceError, match="not finite"):
            en._summed(h, partial(en.mixture_tail, [1.0], [1.0]),
                       lat.basis_matrix(0.0, 1.0), 1e-10)
        assert len(calls) == 1

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



class TestHeads:
    """A summand of (c, heads, n): each (lattice, head) pair stops alone."""

    @staticmethod
    def _summand(scales):
        # head i is scales[i] e^(-q), with a second column q e^(-q) each
        def h(pts, q):
            e = np.exp(-q)
            return np.stack([np.multiply.outer(scales, e),
                             np.multiply.outer(scales, q * e)])
        return h

    def test_each_head_as_if_alone(self, monkeypatch):
        # a head 1e-8 times smaller needs a tail 1e-8 times smaller, so it
        # runs more rounds than the others and stops at a larger R
        scales = np.array([1.0, 1e-8, 3.0])
        tail_of = partial(en.mixture_tail, [1.0], [1.0])
        bases = lat.basis_matrix(np.array([0.5, 0.0, 0.2]), np.array([0.9, 1.0, 2.5]))
        total, R, bound, terms = en._summed(self._summand(scales), tail_of, bases,
                                            1e-10, heads=3)
        assert total.shape == (2, 3, 3) and R.shape == bound.shape == (3, 3)
        assert np.all(R[1] > R[0]) and np.array_equal(R[0], R[2])
        for i, s in enumerate(scales):
            alone = en._summed(self._summand(np.array([s])), tail_of, bases,
                               1e-10, heads=1)
            assert np.array_equal(alone[0][:, 0], total[:, i])
            for got, want in zip(alone[1:], (R, bound, terms)):
                assert np.array_equal(got[0], want[i])
        # the chunk budget counts point x head pairs: a small one slices
        # the box for three heads into more calls, and no sum moves
        sizes = []

        def recording(pts, q):
            sizes.append(len(q))
            return self._summand(scales)(pts, q)

        monkeypatch.setattr(en, "_CHUNK_CANDIDATES", 96)
        sliced = en._summed(recording, tail_of, bases, 1e-10, heads=3)
        assert max(sizes) <= 32
        for a, b in zip((total, R, bound, terms), sliced):
            assert np.array_equal(a, b)

    def test_one_shape_for_every_summand(self):
        # the same summand as (n,), (1, n) and (1, 1, n) values: sums come
        # back (1, 1, k) and R, bounds and terms (1, k), all identical
        tail_of = partial(en.mixture_tail, [1.0], [1.0])
        bases = lat.basis_matrix(np.array([0.5, 0.0, 0.2]), np.array([0.9, 1.0, 2.5]))
        got = [en._summed(lambda pts, q, s=shape: np.exp(-q).reshape(s + (-1,)),
                          tail_of, bases, 1e-10)
               for shape in [(), (1,), (1, 1)]]
        for out in got:
            assert out[0].shape == (1, 1, 3)
            assert all(v.shape == (1, 3) for v in out[1:])
            for a, b in zip(out, got[0]):
                assert np.array_equal(a, b)
