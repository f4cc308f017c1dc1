import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import j1

import latticeforge.energy as en
import latticeforge.lattice as lat
import latticeforge.measure as msr
import latticeforge.optimize as opt
import latticeforge.potential as pot
import latticeforge.stability as stab
from latticeforge import LatticeParams, TRIANGULAR

from conftest import (convolved_gaussians, direct_gaussian_energy,
                      direct_lattice_sum, every_rung_summed, fd_gradient_hessian,
                      full_box_points, random_lattice)


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

    @pytest.mark.parametrize("s", [0.25, 9.0])
    def test_jacobi_identity_at_covolume(self, s, rng):
        # Poisson at covolume s: theta_L(t) = theta_{L*}(1/t) / (s t)
        for _ in range(20):
            L = random_lattice(rng)
            L = LatticeParams(L.x, L.y, scale=s)
            t = rng.uniform(0.2, 5.0)
            lhs = en.theta(L, t)
            rhs = en.theta(lat.dual(L), 1.0 / t) / (s * t)
            assert abs(lhs - rhs) <= 1e-9 * lhs

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            en.theta(TRIANGULAR, 0.0)

    def test_wide_box_is_built_slice_by_slice(self):
        # t = 1e-5 sums a box of 6.9M rows, 111 MB as whole (m, n) floats,
        # whose half after the origin, 3.5M rows, the engine builds in
        # slices of one engine chunk that hold a few MB each
        tracemalloc.start()
        try:
            value = en.theta(LatticeParams(0.0, 1.0), 1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        # twice the half box's box-order sum, plus 1; by Jacobi's identity
        # theta(t) = theta(1/t) / t
        assert value == 99999.99999978488
        assert value == pytest.approx(1e5, rel=1e-11)


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
            direct = direct_gaussian_energy([(math.pi, 1.0)], 1.0, L.basis())
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
            # the energy holds the dual sum over the covolume (Poisson), and
            # so does its bound
            assert abs(rep.lattice_part - brute / scale) <= (
                rep.tail_bound + 1e-13 * abs(brute / scale))
            assert rep.tail_bound * scale <= 1e-10 * abs(brute) * (1.0 + 1e-9)

    @pytest.mark.parametrize("s", [0.6, 2.5])
    @pytest.mark.parametrize("mu", [msr.uniform_disk(0.8), msr.radial_gaussian(0.8)])
    def test_energy_at_covolume(self, s, mu):
        # density is a potential dilation: exp(-alpha |x|^2) summed over L of
        # covolume s is exp(-s alpha |y|^2) over L at covolume 1, with the
        # particle dilated by 1/sqrt(s)
        alpha, x, y = 2.0, 0.3, 1.4
        rep = en.diffuse_energy(pot.gaussian(alpha), mu, LatticeParams(x, y, scale=s))
        unit = en.diffuse_energy(pot.from_atoms([(s * alpha, 1.0)]),
                                 msr.scale(mu, 1.0 / math.sqrt(s)), LatticeParams(x, y))
        assert rep.value == pytest.approx(unit.value, rel=1e-12, abs=1e-14)
        assert rep.tail_bound <= 1e-10 * abs(rep.lattice_part)
        if mu.kind == "gaussian":
            direct = direct_gaussian_energy([(alpha, 1.0)], mu.param,
                                            LatticeParams(x, y, scale=s).basis())
            assert rep.value == pytest.approx(direct, rel=1e-9)

    def test_fast_callable_matches_report(self, rng):
        P = pot.gaussian(2.0)
        mu = msr.radial_gaussian(0.8)
        E = en.diffuse_energy_fn(P, mu, rtol=1e-11, include_constant=True)
        for _ in range(5):
            L = random_lattice(rng)
            assert E(L.x, L.y) == pytest.approx(
                en.diffuse_energy(P, mu, L, rtol=1e-11).value, rel=1e-9
            )

    @pytest.mark.parametrize("a", [0.1, 1.0])
    @pytest.mark.parametrize("s", [1.1, 1.5, 2.0, 3.0])
    def test_inverse_power_constant(self, a, s):
        # fhat(0) - f(0) for a dirac particle at unit covolume, with fhat(0)
        # = int f over the plane by quadrature, far field included
        fhat0, _ = quad(lambda r: 2.0 * math.pi * r * (a + r * r) ** -s, 0.0, math.inf)
        rep = en.diffuse_energy(pot.inverse_power(a, s), msr.dirac(), TRIANGULAR)
        assert rep.constant_part == pytest.approx(fhat0 - a**-s, rel=1e-12)

    # the density's bulk sits near t = s/a; nodes cut at 38/a missed it
    @pytest.mark.parametrize("x, y", [(0.5, 0.5 * math.sqrt(3.0)), (0.2, 1.3)])
    # at a = 10, s = 150 the weights' factor e^(-a t) / Gamma(s) is subnormal
    @pytest.mark.parametrize("a, s", [(1.0, 10.0), (1.0, 20.0), (1.0, 30.0),
                                      (1.0, 50.0), (10.0, 150.0)])
    def test_inverse_power_dirac_against_direct_sum(self, a, s, x, y):
        # E = sum' (a + |x|^2)^(-s) comes from O(a^-s) Fourier terms that
        # cancel (about 6e-10 at a = 1, s = 30), so the gap is held
        # absolute, in units of a^-s
        L = LatticeParams(x, y)
        rep = en.diffuse_energy(pot.inverse_power(a, s), msr.dirac(), L)
        direct = direct_lattice_sum(lambda q: (a + q) ** -s, L.basis())
        assert abs(rep.value - direct) <= 1e-12 * a**-s


class TestDirectOracle:
    """The direct-space Gaussian oracle of ``conftest`` against its own
    checks: theta, quadrature of the convolution, and rotations."""

    def test_dirac_square(self):
        v = direct_gaussian_energy([(math.pi, 1.0)], 0.0,
                                   LatticeParams(0.0, 1.0).basis())
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

        mix = convolved_gaussians([(alpha, 1.0)], sigma)
        for x1, x2 in ((1.0, 0.0), (0.5, 0.5), (1.2, -0.3)):
            got = sum(c * math.exp(-a * (x1 * x1 + x2 * x2)) for a, c in mix)
            assert got == pytest.approx(triple_1d(x1) * triple_1d(x2), abs=1e-7)

    def test_rotation_invariance(self):
        basis = LatticeParams(0.3, 1.4).basis()
        phi = 0.7
        rot = np.array(
            [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
        )
        assert direct_gaussian_energy([(1.5, 1.0)], 1.0, basis) == pytest.approx(
            direct_gaussian_energy([(1.5, 1.0)], 1.0, basis @ rot.T), rel=1e-10
        )


def _poisson_sides(P, L: LatticeParams, z, n: int = 30):
    """Both sides of the Poisson summation identity at shift z, by brute force:
    lhs = sum_{x in L} f(x + z) and rhs = sum_{p in L*} cos(2 pi p.z) fhat(p),
    each over the basis coefficients (i, j) with |i|, |j| <= n, with no tail.

    A basis of D is reduced, and so is its dual basis inv(B)^T, so every
    point outside the box lies at least (sqrt(3)/2) n |u1| from the origin:
    at n = 30 and y <= 3, beyond 15, where the Gaussians summed here are
    far below double precision.  Only ``P.eval`` and ``fourier(P)`` come
    from the package.
    """
    z = np.asarray(z, dtype=float)
    m = np.arange(-n, n + 1)
    coef = np.stack(np.meshgrid(m, m), axis=-1).reshape(-1, 2).astype(float)
    basis = L.basis()
    x = coef @ basis + z
    p = coef @ np.linalg.inv(basis).T
    lhs = P.eval(np.einsum("ij,ij->i", x, x)).sum()
    rhs = (np.cos(2.0 * math.pi * (p @ z))
           * pot.fourier(P).eval(np.einsum("ij,ij->i", p, p))).sum()
    return lhs, rhs, abs(lhs - rhs)


class TestPoissonCheck:
    """``fourier(P)`` against ``P`` through the Poisson summation identity."""

    def test_zero_shift_square(self):
        lhs, rhs, diff = _poisson_sides(
            pot.gaussian(math.pi), LatticeParams(0.0, 1.0), (0.0, 0.0)
        )
        assert lhs == pytest.approx(_theta_z2_oracle(1.0), rel=1e-11)
        assert diff <= 1e-10

    def test_half_shift_square(self):
        _, _, diff = _poisson_sides(
            pot.gaussian(math.pi), LatticeParams(0.0, 1.0), (0.5, 0.5)
        )
        assert diff <= 1e-10

    def test_random_lattice_and_shift(self, rng):
        P = pot.gaussian(2.0)
        for _ in range(10):
            L = random_lattice(rng)
            z = tuple(rng.uniform(-0.5, 0.5, size=2))
            _, _, diff = _poisson_sides(P, L, z)
            assert diff <= 1e-9

    def test_shifted_square(self):
        _, _, diff = _poisson_sides(
            pot.gaussian(2.0), LatticeParams(0.0, 1.0), (0.3, 0.1)
        )
        assert diff <= 1e-10

    def test_two_atom_mixture(self):
        P = pot.from_atoms([(0.8, 0.6), (5.0, 0.4)])
        for L, z in ((TRIANGULAR, (0.2, -0.35)), (LatticeParams(0.3, 1.7), (0.45, 0.1))):
            lhs, rhs, diff = _poisson_sides(P, L, z)
            assert diff <= 1e-10 * lhs


class TestMixtureTail:
    """The packing bound against brute-force sums of its majorant."""

    @staticmethod
    def _brute_tail(ts, ws, basis, R):
        # sum over |x| > R of phi(|x|), phi = sum w exp(-t r^2), out to
        # where every node has decayed below 1e-300
        reach = 2.0 + math.sqrt(700.0 / min(ts))
        n = int(reach / 0.3) + 2  # the test lattices have |det| >= 0.3 |u|
        m = np.arange(-n, n + 1)
        pts = (m[:, None, None] * basis[0] + m[None, :, None] * basis[1]).reshape(-1, 2)
        r = np.hypot(pts[:, 0], pts[:, 1])
        u = r[r > R * (1.0 + 1e-12)]
        return sum(w * np.exp(-t * u * u).sum() for t, w in zip(ts, ws))

    # cutoffs R = k rho: the bound is flat up to 2 rho, and 3 rho probes
    # where it has started to fall
    @pytest.mark.parametrize("k", [0.0, 1.0, 2.0, 3.0, 6.0],
                             ids=lambda k: f"R{k:g}rho")
    @pytest.mark.parametrize("x, y", [(0.0, 1.0), (0.5, 0.5 * math.sqrt(3.0)),
                                      (0.3, 1.7)])
    @pytest.mark.parametrize("ts, ws", [([1000.0], [1.0]), ([0.5], [1.0]),
                                        ([3.0, 0.2], [0.7, 0.3])])
    def test_bound_holds_below_and_above_twice_rho(self, x, y, ts, ws, k):
        basis = lat.basis_matrix(x, y)
        rho = float(en._packing_radius(basis[None])[0])
        R = k * rho
        assert en.mixture_tail(ts, ws, rho)(R) >= self._brute_tail(ts, ws, basis, R)

    def test_continuous_and_nonincreasing(self):
        # flat up to R = 2 rho, where the integral's lower end reaches 0
        rho = 0.5
        tail = en.mixture_tail([2.0, 0.1], [0.5, 0.5], rho)
        R = np.linspace(0.0, 6.0 * rho, 2001)
        vals = tail(R)
        assert np.all(np.diff(vals) <= 0.0)
        assert tail(2.0 * rho - 1e-9) == pytest.approx(tail(2.0 * rho), rel=1e-8)


class TestSkippedRungs:
    """The engine sums only the rungs where a pair can stop, and returns
    what the every-rung ladder returns, bit for bit."""

    @pytest.fixture
    def rounds(self, monkeypatch):
        """Check every engine call against ``every_rung_summed``; the list
        holds the summand calls of each engine call."""
        real, rounds = en._summed, []

        def checked(h_eval, tail_of, bases, rtol):
            calls = []

            def counted(pts, q):
                calls.append(len(q))
                return h_eval(pts, q)

            got = real(counted, tail_of, bases, rtol)
            want = every_rung_summed(h_eval, tail_of, bases, rtol)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            rounds.append(len(calls))
            return got

        monkeypatch.setattr(en, "_summed", checked)
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
        # T climbs the same ladder over the triangular lattice's shells,
        # with no engine call: the first rung, R = 3.22, cannot stop any eps
        # at rtol 1e-10, so the curve's 100 eps run one round, one H call,
        # and each stops where the every-rung ladder over its points stops
        eps = 0.05 * np.arange(1, 101)
        Phi, disk = pot.fourier(pot.gaussian(math.pi)), msr.uniform_disk(1.0)
        H, tail_of = en._fourier_summand(Phi, disk, eps)
        calls = []

        def counted(q):
            calls.append(q.size)
            return H(q, derivatives=True)

        sums, (R, _) = stab._shell_sums(counted, tail_of, 1e-10, eps.size)
        assert len(calls) == 1 and rounds == []
        for i, e in enumerate(eps.tolist()):
            Hi = en._fourier_summand(Phi, disk, np.array([e]))[0]

            def cols(pts, q):
                h, d1, d2 = (v[0] for v in Hi(q, derivatives=True))
                return np.stack([h, q * (q * d2 + 2.0 * d1)])

            want, R_want = every_rung_summed(cols, tail_of, stab._BASIS, 1e-10)[:2]
            assert R[i] == R_want[0]
            assert abs(sums[1, i] - want[1, 0]) <= 1e-15 * np.abs(sums[1]).max()

    @pytest.mark.parametrize("t", [1e-3, 1e3])
    def test_theta(self, rounds, t):
        for L in (LatticeParams(0.0, 1.0), TRIANGULAR, LatticeParams(0.2, 2.5)):
            en.theta(L, t)

    def test_small_t_theta_stops_in_one_box(self, monkeypatch):
        # exp(-pi t r^2) at t = 1e-6 needs R near 4434 to close its tail,
        # past the 10^7-candidate cap: the sum goes straight to that rung
        real, radii = lat.enumerate_points, []

        def counted(bases, R, *args, **kwargs):
            radii.append(float(np.max(R)))
            return real(bases, R, *args, **kwargs)

        monkeypatch.setattr(lat, "enumerate_points", counted)
        with pytest.raises(lat.ShellCapError):
            en.theta(LatticeParams(0.0, 1.0), 1e-6)
        assert radii == [pytest.approx(4433.7, abs=0.1)]

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

    @staticmethod
    def _by_reduced_rows(bases):
        """rho from the four vectors of every basis's Lagrange-Gauss rows."""
        reduced = lat._reduced(bases)
        u1, u2 = reduced[:, 0], reduced[:, 1]
        vs = np.stack([u1, u2, u1 + u2, u1 - u2])
        return 0.5 * np.sqrt(np.einsum("...i,...i->...", vs, vs).min(axis=0))

    @staticmethod
    def _stacks(rng):
        # the triangular basis, whose |u2|^2 is one ulp below |u1|^2; bases
        # of D, the arc included; and bases far from D, stacked with them
        tri = lat.basis_matrix(TRIANGULAR.x, TRIANGULAR.y)[None]
        x = rng.uniform(0.0, 0.5, 200)
        y = np.sqrt(1.0 - x * x) + np.where(np.arange(200) < 20, 0.0,
                                            rng.exponential(0.5, 200))
        D = lat.basis_matrix(x, y)
        wild = lat.basis_matrix(rng.uniform(-5.0, 5.0, 100), rng.uniform(0.02, 3.0, 100))
        mixed = np.concatenate([D, wild, tri])[rng.permutation(301)]
        return {"triangular": tri, "D": D, "far from D": wild, "mixed": mixed,
                "mixed, scaled": 1e3 * mixed}

    def test_bit_for_bit_the_reduced_route(self, rng):
        for name, bases in self._stacks(rng).items():
            got = en._packing_radius(bases)
            assert got.tobytes() == self._by_reduced_rows(bases).tobytes(), name
            for b, r in zip(bases, got):  # no basis depends on the stack
                assert en._packing_radius(b[None])[0] == r

    def test_reduces_only_bases_without_an_obtuse_superbase(self, rng, monkeypatch):
        seen, orig = [], lat._reduced
        monkeypatch.setattr(lat, "_reduced", lambda b: seen.append(len(b)) or orig(b))
        stacks = self._stacks(rng)
        for name in ("triangular", "D"):
            en._packing_radius(stacks[name])
        assert seen == []
        en._packing_radius(stacks["mixed"])
        u1, u2 = stacks["mixed"][:, 0], stacks["mixed"][:, 1]
        obtuse = np.abs((u1 * u2).sum(1)) <= np.minimum((u1 * u1).sum(1), (u2 * u2).sum(1))
        assert 0 < seen[0] == np.count_nonzero(~obtuse) < 301


class TestBatchedEngine:
    def test_mixed_batch_matches_each_lattice_alone(self, monkeypatch):
        # lattices spread over x in [0, 1/2], y in [1, 4] stop at different
        # rounds; each must get exactly what it gets when summed alone.  A
        # tall lattice (y = 1e5) widens the batch's box past one slice.
        Phi = pot.fourier(pot.gaussian(math.pi))
        H, tail_of = en._fourier_summand(Phi, msr.uniform_disk(1.0))
        h = lambda pts, q: H(q)
        xs, ys = np.meshgrid(np.linspace(0.0, 0.5, 4), np.linspace(1.0, 4.0, 5))
        xs, ys = np.append(xs.ravel(), 0.25), np.append(ys.ravel(), 1e5)
        bases = np.linalg.inv(lat.basis_matrix(xs, ys)).transpose(0, 2, 1)
        slices, enumerate_points = [], lat.enumerate_points

        def recording(b, R):
            m_max, n_max = enumerate_points(b, R)
            rows = (2 * m_max + 1) * (2 * n_max + 1) - 1
            slices.append(-(-rows // (en._CHUNK_CANDIDATES // len(b))))
            return m_max, n_max

        monkeypatch.setattr(lat, "enumerate_points", recording)
        # one head: sums (1, 1, k) and R, bound, terms (1, k)
        total, R, bound, terms = (v.reshape(-1)
                                  for v in en._summed(h, tail_of, bases, 1e-10))
        assert slices[0] > 1
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
        monkeypatch.setattr(lat, "_POINT_CAP", 100)
        E = en.diffuse_energy_fn(pot.gaussian(50.0), msr.dirac())
        with pytest.raises(lat.ShellCapError):
            E(np.linspace(0.0, 0.5, 8), np.full(8, 2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sum_raises_at_once(self, bad, monkeypatch):
        # a nan sum never meets the tail test and an inf one meets it at
        # once: both raise in round 1, long before the point cap
        monkeypatch.setattr(lat, "_POINT_CAP", 10**4)
        calls = []

        def h(pts, q):
            calls.append(len(q))
            return np.where(q > 1.5, bad, np.exp(-q))

        with pytest.raises(en.NonconvergenceError, match="not finite"):
            en._summed(h, partial(en.mixture_tail, [1.0], [1.0]),
                       lat.basis_matrix(0.0, 1.0), 1e-10)
        assert len(calls) == 1

    def test_box_sliced_to_chunk_size(self, monkeypatch):
        # a box larger than the chunk is cut into slices, and each pair's
        # terms are still added in box order, so no sum moves
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

    @pytest.mark.parametrize("chunk", [en._CHUNK_CANDIDATES, 7,
                                       "origin-first", "origin-last"])
    def test_sums_in_box_order(self, chunk, monkeypatch):
        # each (column, lattice) sum is, bit for bit, twice a Python
        # float loop s += v over the lattice's kept points of the half box
        # after the origin (m > 0, or m = 0 < n) in the box's order, m then
        # n; the values are even in (x, y) and use only + * /, which round
        # the same in numpy and Python
        def values(x, y, q):
            return [1.0 / (1.0 + q), 1.0 / (3.0 + q),
                    x * x / (1.0 + q), x * y / (2.0 + q)]

        def h(pts, q):
            return np.array(values(pts[:, 0], pts[:, 1], q))

        bases = lat.basis_matrix(np.array([0.5, 0.1, 0.3]), np.array([0.9, 3.0, 1.5]))
        R = np.array([5.0, 7.0, 6.0])
        m_max, n_max = lat.enumerate_points(bases, R)
        box = [(m, n) for m in range(0, m_max + 1)
               for n in range(-n_max, n_max + 1) if m > 0 or n > 0]
        if chunk in ("origin-first", "origin-last"):
            # the first slice starts at (0, 1), next to the origin, and runs
            # past the end of the m = 0 row, or ends on it
            rows = n_max + 1 if chunk == "origin-first" else n_max
            chunk = rows * len(bases)  # points per slice
        monkeypatch.setattr(en, "_CHUNK_CANDIDATES", chunk)
        sums, counts = en._round_sums(h, bases, R)
        assert sums.shape == (4, 3)
        for j, (((ax, ay), (bx, by)), r) in enumerate(zip(bases.tolist(), R.tolist())):
            want, kept = [0.0] * 4, 0
            for m, n in box:
                x, y = m * ax + n * bx, m * ay + n * by
                q = x * x + y * y
                if q <= r * r * (1.0 + 1e-12):
                    kept += 1
                    for c, v in enumerate(values(x, y, q)):
                        want[c] += v
            assert counts[j] == 2 * kept
            assert sums[:, j].tolist() == [2.0 * v for v in want]

    def test_empty_batches_run_no_round(self, monkeypatch):
        # no lattice: empty sums of the summand's two columns, with no box
        # built
        def no_round(*args):
            raise AssertionError("an empty batch ran an engine round")

        monkeypatch.setattr(en, "_round_sums", no_round)
        h = lambda pts, q: np.stack([np.exp(-q), q * np.exp(-q)])
        total, *rest = en._summed(h, partial(en.mixture_tail, [1.0], [1.0]),
                                  np.zeros((0, 2, 2)), 1e-10)
        assert total.shape == (2, 0)
        assert [v.shape for v in rest] == [(0,)] * 3
        P, mu = pot.gaussian(math.pi), msr.uniform_disk(1.0)
        E, none = en.diffuse_energy_fn(P, mu), np.zeros(0)
        assert E(none, none).shape == (0,)
        assert E(np.zeros((0, 2)), np.zeros((0, 2))).shape == (0, 2)
        jet = en.diffuse_energy_jet(P, mu)(none, none)
        assert [v.shape for v in jet] == [(0,), (0, 2), (0, 2, 2)]

    def test_one_shape_for_every_summand(self):
        # the same summand as (n,) and (1, n) values: sums come back (1, k)
        # and R, bounds and terms (k,), all identical
        tail_of = partial(en.mixture_tail, [1.0], [1.0])
        bases = lat.basis_matrix(np.array([0.5, 0.0, 0.2]), np.array([0.9, 1.0, 2.5]))
        got = [en._summed(lambda pts, q, s=shape: np.exp(-q).reshape(s + (-1,)),
                          tail_of, bases, 1e-10)
               for shape in [(), (1,)]]
        for out in got:
            assert out[0].shape == (1, 3)
            assert all(v.shape == (3,) for v in out[1:])
            for a, b in zip(out, got[0]):
                assert np.array_equal(a, b)


class TestHalfBox:
    """The engine evaluates the half box after the origin, m > 0 or
    m = 0 < n, and doubles its sums and counts."""

    def test_sums_match_the_full_box(self, monkeypatch, rng):
        # theta, E (two kinds, batched) and the jet's seven columns against
        # fsum over the brute-force full box within each lattice's R, and
        # T's shell sums (five eps) over the triangular lattice's full box
        # within each eps's R, to 2e-15 of the sum of |terms|
        calls, shell_calls = [], []
        real, real_shells = en._summed, stab._shell_sums

        def recording(h_eval, tail_of, bases, rtol):
            out = real(h_eval, tail_of, bases, rtol)
            calls.append((h_eval, np.reshape(bases, (-1, 2, 2)), out))
            return out

        def recording_shells(H, tail_of, rtol, heads, select=None):
            out = real_shells(H, tail_of, rtol, heads, select)
            shell_calls.append((H, heads, out))
            return out

        monkeypatch.setattr(en, "_summed", recording)
        monkeypatch.setattr(stab, "_shell_sums", recording_shells)
        Ls = [TRIANGULAR, LatticeParams(0.0, 1.0)] + [random_lattice(rng)
                                                      for _ in range(10)]
        xs, ys = np.array([L.x for L in Ls]), np.array([L.y for L in Ls])
        P, disk = pot.gaussian(math.pi), msr.uniform_disk(1.0)
        for L in Ls:
            en.theta(L, 0.7)
        en.diffuse_energy_fn(P, disk)(xs, ys)
        en.diffuse_energy_fn(pot.inverse_power(1.0, 2.0),
                             msr.radial_gaussian(0.5))(xs, ys)
        en.diffuse_energy_jet(P, disk)(xs, ys)
        stab.t_coefficient_diffuse(P, disk, np.array([0.0, 0.3, 0.6031, 1.0, 3.0]))
        assert len(calls) == len(Ls) + 3 and len(shell_calls) == 1

        def check(sums, vals):
            want = np.array([math.fsum(v) for v in vals])
            scale = np.array([math.fsum(v) for v in np.abs(vals)])
            assert np.all(np.abs(sums - want) <= 2e-15 * scale)

        for h_eval, bases, (sums, R, _, terms) in calls:
            for j, basis in enumerate(bases):
                pts, q = full_box_points(basis, R[j])
                check(sums[:, j], np.reshape(h_eval(pts, q), (-1, len(q))))
                assert terms[j] == len(q)
        H, heads, (sums, (R, _)) = shell_calls[0]
        for i in range(heads):
            # each point at the exact q of its shell N = m^2 + mn + n^2
            q = np.rint(full_box_points(stab._BASIS, R[i])[1] * stab._SHELL) / stab._SHELL
            h, d1, d2 = (v[i] for v in H(q))
            check(sums[:, i], np.stack([h, q * (q * d2 + 2.0 * d1)]))
            # the shells' multiplicities count the full box's points
            assert stab._shells(R[i])[1].sum() == len(q)

    def test_summand_sees_only_the_half_box(self, monkeypatch, rng):
        # a small chunk cuts the box into slices; the points the summand is
        # given are m u1 + n u2 with m > 0, or m = 0 < n, once each, and
        # are half the full box's points within R
        monkeypatch.setattr(en, "_CHUNK_CANDIDATES", 16)
        for L in [TRIANGULAR, LatticeParams(0.0, 1.0)] + [random_lattice(rng)
                                                          for _ in range(8)]:
            basis, seen = L.basis(), []

            def h(pts, q):
                seen.append(pts)
                return q

            en._round_sums(h, basis[None], np.array([4.0]))
            assert len(seen) > 1
            coef = np.concatenate(seen) @ np.linalg.inv(basis)
            assert np.abs(coef - np.round(coef)).max() < 1e-9
            m, n = np.round(coef).astype(int).T
            assert np.all((m > 0) | ((m == 0) & (n > 0)))
            assert len(set(zip(m, n))) == len(m)
            assert 2 * len(m) == len(full_box_points(basis, 4.0)[1])

    @pytest.mark.parametrize("s", [1.0, 0.6, 2.5])
    def test_terms_used_counts_the_full_box(self, s, rng):
        P, mu = pot.gaussian(2.0), msr.uniform_disk(0.8)
        for L in [TRIANGULAR, LatticeParams(0.0, 1.0)] + [random_lattice(rng)
                                                          for _ in range(8)]:
            L = LatticeParams(L.x, L.y, scale=s)
            rep = en.diffuse_energy(P, mu, L)
            # E sums over L / s (its dual, turned by 90 degrees)
            pts, _ = full_box_points(L.basis() / s, rep.cutoff_R)
            assert rep.terms_used == len(pts)

    def test_sliced_batch_matches_each_lattice_alone(self, monkeypatch):
        # the batch's half box is cut into several slices, each lattice's
        # own into fewer: every lattice still gets the same bits
        monkeypatch.setattr(en, "_CHUNK_CANDIDATES", 1 << 8)
        H, tail_of = en._fourier_summand(pot.fourier(pot.gaussian(math.pi)),
                                         msr.uniform_disk(1.0))
        h = lambda pts, q: H(q)
        xs, ys = np.meshgrid(np.linspace(0.0, 0.5, 3), np.linspace(1.0, 3.0, 3))
        bases = lat.basis_matrix(xs.ravel(), ys.ravel())
        slices, enumerate_points = [], lat.enumerate_points

        def recording(b, R):
            m_max, n_max = enumerate_points(b, R)
            rows = (2 * m_max + 1) * (2 * n_max + 1) // 2  # after the origin
            slices.append(-(-rows // (en._CHUNK_CANDIDATES // len(b))))
            return m_max, n_max

        monkeypatch.setattr(lat, "enumerate_points", recording)
        batch = [v.reshape(-1) for v in en._summed(h, tail_of, bases, 1e-10)]
        assert slices[0] > 1
        for i, basis in enumerate(bases):
            alone = [v.reshape(-1) for v in en._summed(h, tail_of, basis, 1e-10)]
            assert [v[0] for v in alone] == [v[i] for v in batch]
