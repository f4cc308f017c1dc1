import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv

import latticeforge.measure as msr
import latticeforge.potential as pot

from conftest import disk_psi_nodes


class TestBessel:
    def test_origin(self):
        assert msr.bessel_j(0, 0.0) == pytest.approx(1.0)
        assert msr.bessel_j(1, 0.0) == 0.0
        assert msr.bessel_j(2, 0.0) == 0.0

    def test_first_zero_of_j0(self):
        assert abs(msr.bessel_j(0, 2.404825557695773)) <= 1e-10

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_against_reference(self, n):
        x = np.concatenate([
            np.linspace(0.0, 12.0, 500),
            np.linspace(12.0, 60.0, 500),
        ])
        assert np.max(np.abs(msr.bessel_j(n, x) - jv(n, x))) <= 5e-12

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_continuity_at_switch(self, n):
        lo = msr.bessel_j(n, 12.0)
        hi = msr.bessel_j(n, 12.0 + 1e-12)
        assert abs(hi - lo) <= 1e-11

    def test_derivative_identity(self):
        # J1'(x) = (J0(x) - J2(x)) / 2
        # fourth-order stencil: a plain central difference amplifies the
        # ~1e-12 evaluation noise above the 1e-9 target
        h = 2e-3
        for x in np.linspace(0.5, 29.5, 59):
            fd = (
                -msr.bessel_j(1, x + 2 * h) + 8.0 * msr.bessel_j(1, x + h)
                - 8.0 * msr.bessel_j(1, x - h) + msr.bessel_j(1, x - 2 * h)
            ) / (12.0 * h)
            ident = 0.5 * (msr.bessel_j(0, x) - msr.bessel_j(2, x))
            assert fd == pytest.approx(ident, abs=1e-9)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            msr.bessel_j(3, 1.0)
        with pytest.raises(ValueError):
            msr.bessel_j(0, -1.0)


def _hankel_quad(density, upper, t):
    val, _ = quad(
        lambda s: density(s) * jv(0, 2.0 * math.pi * s * t),
        0.0, upper, epsabs=1e-12, epsrel=1e-11, limit=200,
    )
    return val


class TestHankel:
    def test_dirac(self):
        mu = msr.dirac()
        t = np.linspace(0.0, 10.0, 11)
        assert msr.hankel(mu, t) == pytest.approx(np.ones_like(t))

    def test_disk_closed_form_vs_quadrature(self):
        mu = msr.uniform_disk(1.0)
        for t in np.linspace(0.25, 10.0, 16):
            want = _hankel_quad(lambda s: 2.0 * s, 1.0, t)
            assert msr.hankel(mu, t) == pytest.approx(want, abs=1e-8)

    def test_gaussian_closed_form_vs_quadrature(self):
        sigma = 1.0
        mu = msr.radial_gaussian(sigma)
        dens = lambda s: (2.0 * math.pi * s / sigma**2) * math.exp(
            -math.pi * s * s / sigma**2
        )
        for t in np.linspace(0.25, 10.0, 16):
            assert msr.hankel(mu, t) == pytest.approx(
                math.exp(-math.pi * sigma**2 * t * t), abs=1e-12
            )
            assert msr.hankel(mu, t) == pytest.approx(
                _hankel_quad(dens, 8.0 * sigma, t), abs=1e-8
            )

    def test_profile_nodes_match_closed_form(self):
        # quadrature path (kind "profile") against the tagged disk form
        s = np.linspace(0.0, 1.0, 2001)
        mu = msr.profile(zip(s, 2.0 * s))
        disk = msr.uniform_disk(1.0)
        for t in (0.3, 1.0, 4.0, 9.5):
            assert msr.hankel(mu, t) == pytest.approx(
                msr.hankel(disk, t), abs=1e-6
            )

    def test_mass_and_bound(self):
        for mu in (msr.dirac(), msr.uniform_disk(0.7),
                   msr.radial_gaussian(1.3)):
            assert msr.hankel(mu, 0.0) == pytest.approx(1.0, abs=1e-12)
            t = np.linspace(0.0, 10.0, 200)
            assert np.all(np.abs(msr.hankel(mu, t)) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("t", [-2.0, np.array([1.0, -1e-9])])
    def test_negative_argument_rejected(self, t):
        # the disk's small-X series would otherwise run for every X < 0
        with pytest.raises(ValueError):
            msr.hankel(msr.uniform_disk(1.0), t)


class TestScale:
    def test_zero_gives_dirac(self):
        assert msr.scale(msr.uniform_disk(1.0), 0.0).kind == "dirac"
        assert msr.scale(msr.radial_gaussian(2.0), 0.0).kind == "dirac"

    def test_disk_closed_form(self):
        eps = 0.37
        mu = msr.scale(msr.uniform_disk(1.0), eps)
        for t in (0.5, 2.0, 7.0):
            X = 2.0 * math.pi * eps * t
            assert msr.hankel(mu, t) == pytest.approx(
                2.0 * jv(1, X) / X, abs=1e-11
            )

    def test_dilation_identity(self):
        mu = msr.radial_gaussian(0.8)
        eps = 1.7
        t = np.linspace(0.1, 5.0, 20)
        assert msr.hankel(msr.scale(mu, eps), t) == pytest.approx(
            msr.hankel(mu, eps * t), abs=1e-13
        )

    def test_composition(self):
        mu = msr.uniform_disk(1.0)
        a, b = 0.6, 1.9
        t = np.linspace(0.1, 5.0, 20)
        assert msr.hankel(msr.scale(msr.scale(mu, a), b), t) == pytest.approx(
            msr.hankel(msr.scale(mu, a * b), t), abs=1e-12
        )

    def test_negative_rejected(self):
        with pytest.raises(msr.MeasureSpecError):
            msr.scale(msr.dirac(), -0.1)


class TestHankelMoments:
    def test_dirac(self):
        assert msr.hankel_moments(msr.dirac(), 0.7, 2.0) == (1.0, 0.0, 0.0)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            msr.hankel_moments(msr.uniform_disk(1.0), -0.5, 2.0)

    def test_disk_against_quadrature(self):
        eps, r = 1.0, 1.0
        c = 2.0 * math.pi * eps * math.sqrt(r)
        A0, A1, A2 = msr.hankel_moments(msr.uniform_disk(1.0), eps, r)
        dens = lambda s: 2.0 * s
        q0, _ = quad(lambda s: dens(s) * jv(0, c * s), 0, 1, epsabs=1e-13)
        q1, _ = quad(lambda s: dens(s) * s * jv(1, c * s), 0, 1, epsabs=1e-13)
        q2, _ = quad(
            lambda s: dens(s) * s * s * (jv(2, c * s) - jv(0, c * s)),
            0, 1, epsabs=1e-13,
        )
        assert A0 == pytest.approx(q0, abs=1e-9)
        assert A1 == pytest.approx(q1, abs=1e-9)
        assert A2 == pytest.approx(q2, abs=1e-9)

    def test_gaussian_against_quadrature(self):
        sigma, eps, r = 0.9, 0.6, 2.5
        c = 2.0 * math.pi * eps * math.sqrt(r)
        A0, A1, A2 = msr.hankel_moments(msr.radial_gaussian(sigma), eps, r)
        dens = lambda s: (2.0 * math.pi * s / sigma**2) * math.exp(
            -math.pi * s * s / sigma**2
        )
        hi = 8.0 * sigma
        q0, _ = quad(lambda s: dens(s) * jv(0, c * s), 0, hi, epsabs=1e-13)
        q1, _ = quad(lambda s: dens(s) * s * jv(1, c * s), 0, hi, epsabs=1e-13)
        q2, _ = quad(
            lambda s: dens(s) * s * s * (jv(2, c * s) - jv(0, c * s)),
            0, hi, epsabs=1e-13,
        )
        assert A0 == pytest.approx(q0, abs=1e-10)
        assert A1 == pytest.approx(q1, abs=1e-10)
        assert A2 == pytest.approx(q2, abs=1e-10)

    def test_disk_small_argument(self):
        # A0 -> 1 and A1 -> 0 linearly as eps sqrt(r) -> 0
        r = 1.0
        for eps in (1e-6, 1e-7):
            A0, A1, _ = msr.hankel_moments(msr.uniform_disk(1.0), eps, r)
            c = 2.0 * math.pi * eps
            assert A0 == pytest.approx(1.0, abs=1e-11)
            # int_0^1 s * (c s / 2) * 2 s ds = c / 4
            assert A1 == pytest.approx(c / 4.0, rel=1e-6)

    def test_g_squared_derivative_vs_fd(self):
        # (g_eps^2)'(r) = -(2 pi eps / sqrt r) A1 A0
        for mu in (msr.uniform_disk(1.0), msr.radial_gaussian(0.7)):
            for eps, r in ((0.5, 1.0), (1.2, 0.6)):
                A0, A1, _ = msr.hankel_moments(mu, eps, r)
                d = -(2.0 * math.pi * eps / math.sqrt(r)) * A1 * A0
                h = 1e-6 * r

                def g2(rr):
                    return msr.hankel(mu, eps * math.sqrt(rr)) ** 2

                fd = (g2(r + h) - g2(r - h)) / (2.0 * h)
                assert d == pytest.approx(fd, rel=1e-5)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            msr.hankel_moments(msr.dirac(), 1.0, 0.0)


class TestHankelMomentsArray:
    # eps = 0.01 with r on [1e-6, 1e5] puts X = c R from 6e-5 to 20 for
    # the unit disk: both sides of the small-X series switch and past 12
    EPS = 0.01
    R_GRID = np.logspace(-6.0, 5.0, 23)

    @staticmethod
    def _ring_profile():
        s = np.linspace(0.0, 1.0, 41)
        return msr.profile(zip(s, s * np.exp(-(((s - 0.6) / 0.2) ** 2))))

    @pytest.mark.parametrize("kind", ["dirac", "disk", "gauss", "profile"])
    def test_array_matches_scalar_calls(self, kind):
        mu = {
            "dirac": msr.dirac(),
            "disk": msr.uniform_disk(1.0),
            "gauss": msr.radial_gaussian(0.7),
            "profile": self._ring_profile(),
        }[kind]
        X = 2.0 * math.pi * self.EPS * np.sqrt(self.R_GRID)
        assert X.min() < 1e-4 and X.max() > 12.0
        arrays = msr.hankel_moments(mu, self.EPS, self.R_GRID)
        scalars = [msr.hankel_moments(mu, self.EPS, float(r))
                   for r in self.R_GRID]
        for i, A in enumerate(arrays):
            assert isinstance(A, np.ndarray) and A.shape == self.R_GRID.shape
            np.testing.assert_allclose(
                A, [sc[i] for sc in scalars], rtol=1e-15, atol=0.0
            )
        assert all(isinstance(a, float) for a in scalars[0])

    def test_disk_closed_form_vs_its_psi_quadrature(self):
        disk = msr.uniform_disk(1.0)
        nodes = msr.RadialMeasure(kind="profile", psi_nodes=disk_psi_nodes(1.0))
        closed = msr.hankel_moments(disk, self.EPS, self.R_GRID)
        summed = msr.hankel_moments(nodes, self.EPS, self.R_GRID)
        for a, b in zip(closed, summed):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10)

    def test_rejects_nonpositive_entry(self):
        with pytest.raises(ValueError):
            msr.hankel_moments(msr.uniform_disk(1.0), 1.0,
                               np.array([1.0, 0.0]))


class TestOneTransformPerFamily:
    # X = 2 pi R t from 1e-9 to 10 for the unit disk: both sides of the
    # small-X series switch at 1e-4, and every family at the same t
    X = np.logspace(-9.0, 1.0, 41)

    @pytest.mark.parametrize("kind", ["dirac", "disk", "gauss", "profile"])
    def test_hankel_is_the_a0_of_the_moments(self, kind):
        mu = {
            "dirac": msr.dirac(),
            "disk": msr.uniform_disk(1.0),
            "gauss": msr.radial_gaussian(0.7),
            "profile": TestHankelMomentsArray._ring_profile(),
        }[kind]
        t = self.X / (2.0 * math.pi)
        assert (self.X < 1e-4).any() and (self.X > 1e-4).any()
        # eps = 1 and r = t^2 put the moments at frequency sqrt(t^2) = t
        A0 = msr.hankel_moments(mu, 1.0, t * t)[0]
        np.testing.assert_array_equal(msr.hankel(mu, t), A0)
        for ti, a0 in zip(t.tolist(), A0.tolist()):
            assert msr.hankel(mu, ti) == msr.hankel_moments(mu, 1.0, ti * ti)[0] == a0


class TestMassAtCentre:
    # flat psi density on [0, 1]: the trapezoid rule puts weight h/2 at s = 0
    S = np.linspace(0.0, 1.0, 11)

    def _measure_and_weights(self):
        mu = msr.profile(zip(self.S, np.ones_like(self.S)))
        w = np.full(len(self.S), 0.1)
        w[[0, -1]] = 0.05
        return mu, w / w.sum()

    def test_hankel_counts_the_centre(self):
        mu, w = self._measure_and_weights()
        t = np.linspace(0.0, 6.0, 13)
        want = (w * jv(0, 2.0 * math.pi * np.outer(t, self.S))).sum(axis=1)
        np.testing.assert_allclose(msr.hankel(mu, t), want, rtol=1e-14,
                                   atol=1e-16)

    def test_moments_count_the_centre(self):
        mu, w = self._measure_and_weights()
        eps, r = 0.8, np.array([0.3, 1.0, 4.0])
        cs = np.outer(2.0 * math.pi * eps * np.sqrt(r), self.S)
        want = (
            (w * jv(0, cs)).sum(axis=1),
            (w * self.S * jv(1, cs)).sum(axis=1),
            (w * self.S**2 * (jv(2, cs) - jv(0, cs))).sum(axis=1),
        )
        for got, ref in zip(msr.hankel_moments(mu, eps, r), want):
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-16)


class TestSelfConvolution:
    def test_dirac_collapses(self):
        P = pot.gaussian(2.0)
        assert msr.self_convolution_at_zero(P, msr.dirac()) == pytest.approx(
            1.0, rel=1e-9
        )

    def test_gaussian_pair_closed_form(self):
        # 1D convolution algebra applied twice, squared for the 2D product
        alpha = math.pi
        for sigma in (0.5, 1.0, 2.0):
            a_mu = math.pi / sigma**2

            def conv(c1, a1, c2, a2):
                return (
                    c1 * c2 * math.sqrt(math.pi / (a1 + a2)),
                    a1 * a2 / (a1 + a2),
                )

            c, a = conv(1.0, alpha, math.sqrt(1.0 / sigma**2), a_mu)
            c, a = conv(c, a, math.sqrt(1.0 / sigma**2), a_mu)
            want = c * c  # separable 2D value at the origin
            got = msr.self_convolution_at_zero(
                pot.gaussian(alpha), msr.radial_gaussian(sigma)
            )
            assert got == pytest.approx(want, rel=1e-8)

    def test_bounded_by_value_at_origin(self, rng):
        pots = [pot.gaussian(1.0), pot.gaussian(5.0), pot.inverse_power(1.0, 2.0)]
        mus = [msr.dirac(), msr.uniform_disk(1.5), msr.radial_gaussian(0.8)]
        for P in pots:
            for mu in mus:
                v = msr.self_convolution_at_zero(P, mu)
                assert v <= P.value_at_origin() * (1.0 + 1e-9)
                assert v > 0.0


class TestProfileAndParse:
    def test_profile_normalizes(self):
        s = np.linspace(0.0, 2.0, 101)
        mu = msr.profile(zip(s, 3.0 * s * s))
        assert msr.hankel(mu, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_profile_rejects_bad_input(self):
        with pytest.raises(msr.MeasureSpecError):
            msr.profile([(0.0, 1.0)])
        with pytest.raises(msr.MeasureSpecError):
            msr.profile([(1.0, 1.0), (0.5, 1.0)])
        with pytest.raises(msr.MeasureSpecError):
            msr.profile([(0.0, -1.0), (1.0, 2.0)])
        with pytest.raises(msr.MeasureSpecError):
            msr.profile([(0.0, 0.0), (1.0, 0.0)])

    def test_parse(self, tmp_path):
        assert msr.parse_measure("dirac").kind == "dirac"
        assert msr.parse_measure("disk:r=2").param == pytest.approx(2.0)
        assert msr.parse_measure("gauss:sigma=0.5").param == pytest.approx(0.5)
        csv = tmp_path / "prof.csv"
        csv.write_text("# radius,density\n0,0\n0.5,1\n1,2\n")
        mu = msr.parse_measure(f"profile:file={csv}")
        assert mu.kind == "profile"
        assert msr.hankel(mu, 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "bad", ["ring:r=1", "disk:radius=1", "gauss:sigma=wide", "disk:r=-1"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(msr.MeasureSpecError):
            msr.parse_measure(bad)
