import math

import numpy as np
import pytest

import latticeforge.potential as pot


class TestGaussian:
    def test_values(self):
        g = pot.gaussian(math.pi)
        assert g.eval(0.0) == pytest.approx(1.0)
        assert g.eval(1.0) == pytest.approx(math.exp(-math.pi))
        assert pot.gaussian(2.0).eval(3.0) == pytest.approx(math.exp(-6.0))

    def test_invalid_width(self):
        with pytest.raises(pot.PotentialSpecError):
            pot.gaussian(0.0)
        with pytest.raises(pot.PotentialSpecError):
            pot.gaussian(-1.0)


class TestInversePower:
    def test_values(self):
        f = pot.inverse_power(1.0, 2.0)
        assert f.eval(0.0) == pytest.approx(1.0, rel=1e-10)
        assert f.eval(1.0) == pytest.approx(0.25, rel=1e-10)

    def test_quadrature_accuracy(self):
        a, s = 1.0, 1.5
        f = pot.inverse_power(a, s)
        r = np.linspace(0.0, 20.0, 201)
        got = f.eval(r * r)
        want = (a + r * r) ** (-s)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-10

    def test_invalid_args(self):
        with pytest.raises(pot.PotentialSpecError):
            pot.inverse_power(0.0, 2.0)
        with pytest.raises(pot.PotentialSpecError):
            pot.inverse_power(1.0, 1.0)


class TestDerivatives:
    def test_gaussian_closed_forms(self):
        g = pot.gaussian(math.pi)
        assert pot.eval_derivatives(g, 0.0, 1) == pytest.approx(-math.pi)
        assert pot.eval_derivatives(g, 0.0, 2) == pytest.approx(math.pi**2)

    def test_inverse_power_first(self):
        f = pot.inverse_power(1.0, 2.0)
        assert pot.eval_derivatives(f, 1.0, 1) == pytest.approx(-0.25, abs=1e-9)

    @pytest.mark.parametrize(
        "P",
        [pot.gaussian(2.0), pot.inverse_power(1.0, 1.5),
         pot.from_atoms([(0.5, 1.0), (3.0, 0.2)])],
        ids=["gaussian", "invpower", "mixture"],
    )
    def test_matches_finite_differences(self, P):
        for r2 in (0.1, 1.0, 4.0):
            h = 1e-5 * (1.0 + r2)
            fd1 = (P.eval(r2 + h) - P.eval(r2 - h)) / (2.0 * h)
            d1 = pot.eval_derivatives(P, r2, 1)
            assert d1 == pytest.approx(fd1, rel=1e-6)
            fd2 = (P.eval(r2 + h) - 2.0 * P.eval(r2) + P.eval(r2 - h)) / (h * h)
            assert pot.eval_derivatives(P, r2, 2) == pytest.approx(fd2, rel=1e-4)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            pot.eval_derivatives(pot.gaussian(1.0), 0.0, 3)
        with pytest.raises(ValueError):
            pot.eval_derivatives(pot.gaussian(1.0), 0.0, (0, 3))

    @pytest.mark.parametrize("r2", [0.7, np.array([0.0, 0.3, 2.0, 9.0])])
    def test_orders_together_match_each_alone(self, r2):
        P = pot.inverse_power(1.0, 1.5)
        together = pot.eval_derivatives(P, r2, (0, 1, 2))
        assert len(together) == 3
        for k, got in enumerate(together):
            alone = pot.eval_derivatives(P, r2, k)
            assert type(got) is type(alone)
            np.testing.assert_array_equal(got, alone)
        np.testing.assert_array_equal(together[0], P.eval(r2))

    def test_order_zero_unaffected_by_overflowing_higher_orders(self):
        # w t^2 overflows at t = 1e200, but F itself is finite and no
        # RuntimeWarning (an error in this suite) may escape
        P = pot.from_atoms([(1e200, 1.0), (1.0, 1.0)])
        assert P.eval(1.0) == pytest.approx(math.exp(-1.0))

    def test_node_arrays_built_once(self):
        P = pot.from_atoms([(0.5, 1.0), (3.0, 0.2)])
        ts, ws = P.rep.nodes()
        again = P.rep.nodes()
        assert again[0] is ts and np.shares_memory(again[1], ws)
        assert ts.tolist() == [0.5, 3.0] and ws.tolist() == [1.0, 0.2]
        assert not ts.flags.writeable and not ws.flags.writeable


class TestFourier:
    def test_standard_gaussian_self_dual(self):
        Phi = pot.fourier(pot.gaussian(math.pi))
        (t, w), = Phi.rep.atoms
        assert t == pytest.approx(math.pi)
        assert w == pytest.approx(1.0)

    def test_involution(self):
        for P in (pot.gaussian(2.0), pot.inverse_power(1.0, 2.0)):
            Q = pot.fourier(pot.fourier(P))
            r2 = np.linspace(0.0, 9.0, 25)
            assert Q.eval(r2) == pytest.approx(P.eval(r2), rel=1e-10)

    def test_value_at_origin(self):
        for alpha in (0.5, 1.0, math.pi, 5.0):
            Phi = pot.fourier(pot.gaussian(alpha))
            assert Phi.value_at_origin() == pytest.approx(math.pi / alpha)

    def test_preserves_class(self):
        for P in (pot.gaussian(1.5), pot.inverse_power(2.0, 2.5)):
            Phi = pot.fourier(P)
            r = np.linspace(0.05, 10.0, 60)
            assert pot.check_completely_monotone(
                lambda t: Phi.eval(t), r, max_order=4
            )


class TestMonotoneAndDecay:
    @pytest.mark.parametrize(
        "P",
        [pot.gaussian(1.0), pot.inverse_power(0.5, 3.0),
         pot.from_atoms([(1.0, 0.5), (4.0, 2.0)])],
        ids=["gaussian", "invpower", "mixture"],
    )
    def test_positive_decreasing(self, P):
        r2 = np.linspace(0.0, 25.0, 200)
        v = P.eval(r2)
        assert np.all(v > 0.0)
        assert np.all(np.diff(v) <= 0.0)


class TestCheckCompletelyMonotone:
    def test_exponential_true(self):
        r = np.linspace(0.1, 10.0, 50)
        assert pot.check_completely_monotone(lambda t: math.exp(-t), r, 6)

    def test_shifted_sine_false(self):
        r = np.linspace(0.1, 10.0, 50)
        assert not pot.check_completely_monotone(
            lambda t: math.sin(t) + 2.0, r, 2
        )

    def test_product_of_gaussians_true(self):
        g1, g2 = pot.gaussian(1.0), pot.gaussian(2.0)
        r = np.linspace(0.1, 10.0, 50)
        assert pot.check_completely_monotone(
            lambda t: g1.eval(t) * g2.eval(t), r, 6
        )

    def test_bad_samples(self):
        with pytest.raises(ValueError):
            pot.check_completely_monotone(math.exp, [1.0, 0.5], 1)


class TestParse:
    def test_gaussian(self):
        P = pot.parse_potential("gaussian:alpha=2.5")
        assert P.eval(1.0) == pytest.approx(math.exp(-2.5))

    def test_invpower(self):
        P = pot.parse_potential("invpower:a=1,s=2")
        assert P.eval(1.0) == pytest.approx(0.25, rel=1e-10)

    def test_laplace_atoms(self):
        P = pot.parse_potential("laplace:atoms=[(1,0.5),(2,0.25)]")
        assert P.eval(0.0) == pytest.approx(0.75)

    @pytest.mark.parametrize(
        "bad",
        ["bogus:alpha=1", "gaussian:beta=1", "gaussian:alpha=zero",
         "invpower:a=1", "laplace:atoms=[]", "gaussian:alpha=-1"],
    )
    def test_rejects(self, bad):
        with pytest.raises(pot.PotentialSpecError):
            pot.parse_potential(bad)
