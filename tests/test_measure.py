import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv

import latticeforge.energy as en
import latticeforge.measure as msr
import latticeforge.potential as pot
from latticeforge import LatticeParams

from conftest import convolved_gaussians, disk_psi_nodes


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

    @pytest.mark.parametrize("t", [-2.0, np.array([1.0, -1e-9]), math.nan, math.inf,
                                   np.array([1.0, math.nan]), np.array([math.inf])])
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
        for eps in (-0.1, math.nan, math.inf):
            with pytest.raises(msr.MeasureSpecError):
                msr.scale(msr.dirac(), eps)
            with pytest.raises(msr.MeasureSpecError):
                msr.scale(msr.uniform_disk(1.0), eps)


class TestHankelMoments:
    def test_dirac(self):
        assert msr.hankel_moments(msr.dirac(), 0.7, 2.0) == (1.0, 0.0, 0.0)

    def test_negative_eps_rejected(self):
        for eps in (-0.5, math.inf):
            with pytest.raises(ValueError):
                msr.hankel_moments(msr.uniform_disk(1.0), eps, 2.0)

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

    @classmethod
    def _measure(cls, kind):
        return {
            "dirac": msr.dirac(),
            "disk": msr.uniform_disk(1.0),
            "gauss": msr.radial_gaussian(0.7),
            "profile": cls._ring_profile(),
        }[kind]

    @pytest.mark.parametrize("kind", ["dirac", "disk", "gauss", "profile"])
    def test_array_matches_scalar_calls(self, kind):
        mu = self._measure(kind)
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

    @pytest.mark.parametrize("kind", ["dirac", "disk", "gauss", "profile"])
    def test_eps_axis_rows_are_the_scaled_measures(self, kind):
        # the energy summand's moments: row i is scale(mu, eps[i]) at eps 1,
        # bit for bit, and eps = 0 is the point mass
        mu = self._measure(kind)
        eps = np.array([0.0, 1e-6, 0.01, 0.7, 3.0])
        t = np.sqrt(self.R_GRID)
        for moments in (False, True):
            rows = np.array(msr._transform(mu, t, moments, eps))
            assert rows.shape[-2:] == eps.shape + t.shape
            for i, e in enumerate(eps.tolist()):
                want = np.array(msr._transform(msr.scale(mu, e), t, moments))
                np.testing.assert_array_equal(rows[..., i, :], want)

    def test_eps_must_be_a_nonnegative_scalar_or_vector(self):
        # a 1-D array of eps is rejected too: the eps axis is _transform's
        for eps in (np.array([0.5, -0.1]), np.ones((2, 2)), math.nan,
                    np.array([0.5, 1.0]), math.inf):
            with pytest.raises(ValueError):
                msr.hankel_moments(msr.uniform_disk(1.0), eps, 1.0)

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


def _ring(samples: int):
    """A smooth ring on [0, 1.2]: psi-density s exp(-((s - 0.6) / 0.2)^2)."""
    s = np.linspace(0.0, 1.2, samples)
    return msr.profile(zip(s, s * np.exp(-(((s - 0.6) / 0.2) ** 2))))


class TestBlockedProfileTransform:
    """A profile's node sums run in blocks of (eps, t) pairs under
    ``potential._EVAL_PAIRS`` (pair, node) entries."""

    MU = _ring(41)  # 40 nodes: the density is 0 at s = 0
    EPS = np.array([0.0, 0.3, 0.0, 1.0, 2.5])
    T = np.concatenate([[0.0], np.linspace(0.1, 6.0, 22)])

    @staticmethod
    def _bits(out):
        out = out if isinstance(out, tuple) else (out,)
        return [(a.shape, a.tobytes()) for a in out]

    # a budget below one pair's nodes (one pair a block), of 3 pairs (one
    # eps row in blocks of t) and of 50 pairs (two whole eps rows a block)
    @pytest.mark.parametrize("pairs", [1, 3, 50])
    @pytest.mark.parametrize("eps, t", [
        (None, T), (None, T[1:].reshape(2, 11)), (None, T[:0]), (EPS, T), (EPS, T[:0]),
    ], ids=["t", "t-2d", "empty-t", "eps", "eps-empty-t"])
    def test_blocks_match_one_block(self, pairs, eps, t, monkeypatch):
        m = len(self.MU.psi_nodes)
        want = [self._bits(msr._transform(self.MU, t, moments, eps))
                for moments in (False, True)]
        sizes, bessel_j = [], msr.bessel_j

        def recording(n, x):
            sizes.append(np.size(x))
            return bessel_j(n, x)

        monkeypatch.setattr(msr, "bessel_j", recording)
        monkeypatch.setattr(pot, "_EVAL_PAIRS", pairs * m)
        got = [self._bits(msr._transform(self.MU, t, moments, eps))
               for moments in (False, True)]
        assert got == want
        # no Bessel argument array holds more than the budget's entries, and
        # more pairs than the budget take more than one block's 3 calls
        assert max(sizes, default=0) <= pairs * m
        assert (len(sizes) > 3) == ((1 if eps is None else eps.size) * t.size > pairs)

    def test_long_profile_energy_memory(self):
        # 80 nodes at about 10^5 points a round: in one pass, (point, node)
        # arrays of about 165 MB
        tracemalloc.start()
        try:
            en.diffuse_energy(pot.inverse_power(1e-3, 1.5), _ring(81),
                              LatticeParams(0.2, 1.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


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


class TestMomentsFromJ0J1:
    """The moments against the formulas that took J2 from ``jv(2, .)``."""

    X = np.concatenate([np.logspace(-9.0, -3.0, 25), np.linspace(1e-3, 60.0, 4001)])

    @staticmethod
    def _disk_by_jv(R, X):
        small = X < 1e-4
        Xs = np.where(small, 1.0, X)
        J1, J2 = jv(1, Xs), jv(2, Xs)
        return (np.where(small, 1.0 - X * X / 8.0, 2.0 * J1 / Xs),
                np.where(small, R * X / 4.0 * (1.0 - X * X / 12.0), R * 2.0 * J2 / Xs),
                np.where(small, R * R * (-0.5 + X * X / 8.0),
                         R * R * (12.0 * J2 / (Xs * Xs) - 4.0 * J1 / Xs)))

    @pytest.mark.parametrize("R", [1.0, 2.5])
    def test_disk_across_the_switch(self, R):
        # X = 2 pi R t on [0, 60]: both sides of the J2 series switch at 1
        # and of the moments' series switch at 1e-4
        assert (self.X < 1e-4).any() and ((self.X > 0.5) & (self.X < 1.5)).sum() > 50
        t = self.X / (2.0 * math.pi * R)
        got = msr.hankel_moments(msr.uniform_disk(R), 1.0, t * t)
        for k, (a, b) in enumerate(zip(got, self._disk_by_jv(R, self.X))):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-14 * R**k)
        at_zero = msr.hankel_moments(msr.uniform_disk(R), 0.0, 1.0)
        assert at_zero == (1.0, 0.0, -0.5 * R * R)

    def test_profile_of_40_nodes(self):
        s = np.linspace(0.0, 1.2, 40)
        mu = msr.profile(zip(s, s * np.exp(-(((s - 0.6) / 0.2) ** 2))))
        ss, ws = mu.nodes()
        R = ss.max()
        t = self.X / (2.0 * math.pi * R)
        cs = 2.0 * math.pi * np.outer(t, ss)
        want = ((ws * jv(0, cs)).sum(axis=1),
                (ws * ss * jv(1, cs)).sum(axis=1),
                (ws * ss * ss * (jv(2, cs) - jv(0, cs))).sum(axis=1))
        got = msr.hankel_moments(mu, 1.0, t * t)
        for k, (a, b) in enumerate(zip(got, want)):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-14 * R**k)
        # c = 0: the moments of the measure itself
        assert msr.hankel_moments(mu, 0.0, 1.0) == pytest.approx(
            (1.0, 0.0, -(ws * ss * ss).sum()), abs=1e-15)

    def test_profile_nodes_are_built_once(self):
        mu = TestHankelMomentsArray._ring_profile()
        first, again = mu.nodes(), mu.nodes()
        assert all(a is b for a, b in zip(first, again))
        assert not any(a.flags.writeable for a in first)


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

    @staticmethod
    def _disk_kernel(t, R):
        """E exp(-t |X - Y|^2) for X, Y uniform on the disk of radius R, by
        quadrature of the density of |X - Y| on [0, 2R]; past 8/sqrt(t) the
        integrand is below e^-64 times the density, and is left out."""
        def f(r):
            x = r / (2.0 * R)
            lens = math.acos(x) - x * math.sqrt(1.0 - x * x)
            return math.exp(-t * r * r) * 4.0 * r / (math.pi * R * R) * lens

        top = min(2.0 * R, 8.0 / math.sqrt(t))
        return quad(f, 0.0, top, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    @pytest.mark.parametrize("Z", [1e-10, 1e-4, 0.5, 0.99, 1.01, 3.0, 40.0,
                                   1e3, 1.8e7])
    def test_disk_against_distance_density(self, Z):
        # Z = 2 t R^2 on both sides of the series / closed-form switch at 1
        for R in (0.5, 3.0):
            t = Z / (2.0 * R * R)
            got = msr.self_convolution_at_zero(pot.gaussian(t), msr.uniform_disk(R))
            assert got == pytest.approx(self._disk_kernel(t, R), rel=1e-12, abs=0.0)

    def test_gaussian_against_direct_mixture(self):
        for atoms in ([(math.pi, 1.0)], [(1e4, 1.0)],
                      [(0.1, 1.0), (3.0, 2.0), (40.0, 0.5)]):
            P = pot.from_atoms(atoms)
            for sigma in (0.3, 1.0, 7.0):
                mu = msr.radial_gaussian(sigma)
                want = sum(c for _, c in convolved_gaussians(atoms, sigma))
                got = msr.self_convolution_at_zero(P, mu)
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("t", [0.3, 5.0, 400.0])
    def test_profile_ring_pairs_against_angle_quadrature(self, t):
        radii = (0.0, 0.4, 1.1)

        def ring_pair(a, b):
            # E exp(-t |X - Y|^2) for X, Y uniform on circles of radii a, b
            def f(th):
                return math.exp(-t * (a * a + b * b - 2.0 * a * b * math.cos(th)))

            return quad(f, 0.0, math.pi, epsabs=0.0, epsrel=1e-13, limit=200)[0] / math.pi

        for j, a in enumerate(radii):
            for b in radii[j:]:
                nodes = ((a, 1.0),) if a == b else ((a, 0.3), (b, 0.7))
                mu = msr.RadialMeasure(kind="profile", psi_nodes=nodes)
                want = sum(wj * wk * ring_pair(sj, sk)
                           for sj, wj in nodes for sk, wk in nodes)
                got = msr.self_convolution_at_zero(pot.gaussian(t), mu)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("P", [pot.gaussian(1e4), pot.inverse_power(1e-3, 3.0)],
                             ids=["gaussian-1e4", "invpower-1e-3-3"])
    def test_wide_disk_without_warnings(self, P):
        # a disk of radius 30 against a narrow potential, where adaptive
        # quadrature of the Plancherel integral stops short of its tolerance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = msr.self_convolution_at_zero(P, msr.uniform_disk(30.0))
        ts, ws = P.rep.nodes()
        want = sum(w * self._disk_kernel(t, 30.0) for t, w in zip(ts, ws))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

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
