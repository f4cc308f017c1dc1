import math
from types import SimpleNamespace

import numpy as np
import pytest

import latticeforge.measure as msr
import latticeforge.potential as pot
import latticeforge.stability as stab
from latticeforge import TRIANGULAR, LatticeParams
from latticeforge.energy import (
    _fourier_summand, diffuse_energy_fn, diffuse_energy_jet,
)

from conftest import disk_psi_nodes


def _gaussian_theta_T(t: float) -> float:
    """T for the summand e^(-pi t q) via the closed double sum."""
    c = math.pi * t
    return stab.t_coefficient(
        lambda q: -c * np.exp(-c * q), lambda q: c * c * np.exp(-c * q)
    )


def _theta_lattice_energy(t: float):
    """E(x, y) = theta-like sum over the lattice itself, origin excluded.

    Built from a potential whose Fourier transform is exactly e^(-pi t r),
    so diffuse_energy_fn sums that summand directly.
    """
    P = pot.from_atoms([(math.pi / t, 1.0 / t)])
    return diffuse_energy_fn(P, msr.dirac(), rtol=1e-12)


def _h_derivatives(P, mu, eps, r):
    """(H', H'') of the Fourier summand for mu dilated by eps, at r."""
    H = _fourier_summand(pot.fourier(P), msr.scale(mu, eps))[0]
    return H(r, derivatives=True)[1:]


def _rings_by_loop(M: int):
    """Reference ring of the triangular sum: double loop over the box."""
    pairs = [(m, n) for m in range(-M, M + 1) for n in range(-M, M + 1)
             if max(abs(m), abs(n)) == M]
    m = np.array([p[0] for p in pairs], dtype=float)
    n = np.array([p[1] for p in pairs], dtype=float)
    return n * n, n**4, (2.0 / math.sqrt(3.0)) * (m * m + m * n + n * n)


@pytest.mark.parametrize("M", [1, 2, 5, 17])
def test_triangular_rings_match_loop(M):
    for got, want in zip(stab._triangular_rings(M), _rings_by_loop(M)):
        assert np.array_equal(got, want)
        assert not got.flags.writeable


class TestTCoefficient:
    def test_zero_for_constant(self):
        z = lambda q: np.zeros_like(q)
        assert stab.t_coefficient(z, z) == 0.0

    def test_gaussian_positive(self):
        assert _gaussian_theta_T(1.0) > 0.0

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_matches_fd_hessian_of_theta(self, t):
        T = _gaussian_theta_T(t)
        E = _theta_lattice_energy(t)
        _, hess = stab.fd_gradient_hessian(E, TRIANGULAR, step=1e-4)
        assert hess[0, 0] == pytest.approx(T, rel=1e-4)
        assert hess[1, 1] == pytest.approx(T, rel=1e-4)

    def test_nonconvergent_sum_raises(self):
        one = lambda q: np.ones_like(q)
        with pytest.raises(Exception):
            stab.t_coefficient(one, one, max_box=5)


class TestDiffuseHDerivatives:
    def test_dirac_reduces_to_phi(self):
        P = pot.gaussian(2.0)
        Phi = pot.fourier(P)
        for r in (0.5, 1.0, 3.0):
            H1, H2 = _h_derivatives(P, msr.dirac(), 0.8, r)
            assert H1 == pytest.approx(pot.eval_derivatives(Phi, r, 1), rel=1e-12)
            assert H2 == pytest.approx(pot.eval_derivatives(Phi, r, 2), rel=1e-12)

    def test_small_eps_limit(self):
        P = pot.gaussian(math.pi)
        Phi = pot.fourier(P)
        mu = msr.uniform_disk(1.0)
        r = 2.0
        gaps = []
        for eps in (0.1, 0.05, 0.025):
            H1, _ = _h_derivatives(P, mu, eps, r)
            gaps.append(abs(H1 - pot.eval_derivatives(Phi, r, 1)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-3

    @pytest.mark.parametrize(
        "mu", [msr.uniform_disk(1.0), msr.radial_gaussian(0.7)],
        ids=["disk", "gaussian"],
    )
    def test_matches_finite_differences(self, mu):
        P = pot.gaussian(math.pi)
        Phi = pot.fourier(P)
        eps, r = 0.5, 1.0

        def H(rr):
            g = msr.hankel(mu, eps * math.sqrt(rr))
            return Phi.eval(rr) * g * g

        h = 1e-5
        H1, H2 = _h_derivatives(P, mu, eps, r)
        fd1 = (H(r + h) - H(r - h)) / (2.0 * h)
        fd2 = (H(r + h) - 2.0 * H(r) + H(r - h)) / (h * h)
        assert H1 == pytest.approx(fd1, rel=1e-5)
        assert H2 == pytest.approx(fd2, rel=1e-4)


class TestStabilityCurve:
    def test_dirac_constant_in_eps(self):
        P = pot.gaussian(math.pi)
        curve = stab.stability_curve(P, msr.dirac(), [0.2, 1.0, 3.0])
        ts = [t for _, t in curve]
        assert ts[0] == pytest.approx(ts[1], rel=1e-12)
        assert ts[1] == pytest.approx(ts[2], rel=1e-12)
        assert ts[0] == pytest.approx(_gaussian_theta_T(1.0), rel=1e-9)

    def test_sign_change_bracketing(self):
        P = pot.gaussian(math.pi)
        mu = msr.uniform_disk(1.0)
        grid = [0.4, 0.55, 0.7, 0.85]
        curve = stab.stability_curve(P, mu, grid)
        zeros = stab.sign_changes(P, mu, curve, xtol=0.01)
        assert len(zeros) == 2
        # refined zeros stay inside their grid brackets
        assert 0.55 < zeros[0] < 0.7
        assert 0.7 < zeros[1] < 0.85

    def test_sign_invariant_under_mass_rescaling(self):
        # disk of total mass pi versus probability normalization
        P = pot.gaussian(math.pi)
        mu1 = msr.uniform_disk(1.0)
        pi_nodes = tuple((s, math.pi * w) for s, w in disk_psi_nodes(1.0))
        for eps in (0.3, 0.7, 1.0):
            t1 = stab.t_coefficient_diffuse(P, mu1, eps)
            # the closed-form disk carries no nodes; the mass-pi node set
            # goes through the quadrature path under the profile tag
            mu_q = msr.RadialMeasure(kind="profile", psi_nodes=pi_nodes)
            tq = stab.t_coefficient_diffuse(P, mu_q, eps)
            assert tq == pytest.approx(math.pi**2 * t1, rel=1e-6)
            assert math.copysign(1.0, tq) == math.copysign(1.0, t1)


class TestFdGradientHessian:
    def test_constant_energy(self):
        grad, hess = stab.fd_gradient_hessian(
            lambda x, y: 1.0, LatticeParams(0.2, 1.5)
        )
        assert np.allclose(grad, 0.0)
        assert np.allclose(hess, 0.0)

    def test_theta_critical_at_triangular(self):
        E = _theta_lattice_energy(1.0)
        grad, _ = stab.fd_gradient_hessian(E, TRIANGULAR, step=1e-5)
        assert np.linalg.norm(grad) <= 1e-7

    def test_theta_hessian_isotropic(self):
        E = _theta_lattice_energy(1.0)
        T = _gaussian_theta_T(1.0)
        _, hess = stab.fd_gradient_hessian(E, TRIANGULAR, step=1e-4)
        assert hess == pytest.approx(T * np.eye(2), abs=1e-4 * abs(T))

    def test_quadratic_bowl(self):
        f = lambda x, y: (x - 0.2) ** 2 + 3.0 * (y - 1.6) ** 2
        L = LatticeParams(0.25, 1.4)
        grad, hess = stab.fd_gradient_hessian(f, L, step=1e-4)
        assert grad == pytest.approx(
            [2.0 * (L.x - 0.2), 6.0 * (L.y - 1.6)], rel=1e-6
        )
        assert hess == pytest.approx(np.diag([2.0, 6.0]), abs=1e-5)

    def test_one_call_on_the_stencil(self):
        shapes = []

        def E(xs, ys):
            shapes.append((np.shape(xs), np.shape(ys)))
            return (xs - 0.2) ** 2 + 3.0 * (ys - 1.6) ** 2

        stab.fd_gradient_hessian(E, LatticeParams(0.25, 1.4))
        assert shapes == [((3, 3), (3, 3))]


class TestEnergyJet:
    @pytest.mark.parametrize("eps", [0.3, 0.6, 1.0, 2.0])
    def test_hessian_at_triangular_is_t(self, eps):
        P, disk = pot.gaussian(math.pi), msr.uniform_disk(1.0)
        T = stab.t_coefficient_diffuse(P, disk, eps)
        jet = diffuse_energy_jet(P, msr.scale(disk, eps), rtol=1e-12)
        hess = jet(np.array([TRIANGULAR.x]), np.array([TRIANGULAR.y]))[2][0]
        assert hess[0, 0] == pytest.approx(T, rel=1e-12)
        assert hess[1, 1] == pytest.approx(T, rel=1e-12)
        assert abs(hess[0, 1]) <= 1e-12 * abs(T)

    @pytest.mark.parametrize("P, mu", [
        (pot.gaussian(math.pi), msr.uniform_disk(1.0)),
        (pot.gaussian(2.0), msr.radial_gaussian(0.5)),
        (pot.inverse_power(1.0, 2.0), msr.uniform_disk(0.5)),
    ])
    def test_matches_finite_differences(self, P, mu):
        # truncation error of the step-1e-4 stencil, estimated by doubling
        # the step, plus what E's own tail bound b can do to the stencil
        E = diffuse_energy_fn(P, mu, rtol=1e-12)
        jet = diffuse_energy_jet(P, mu, rtol=1e-12)
        # (0.62, 0.85) lies outside D
        for x, y in [(0.1, 1.2), (0.45, 2.2), (0.3, 3.5), (0.62, 0.85), (0.0, 1.0)]:
            e, grad, hess = (v[0] for v in jet(np.array([x]), np.array([y])))
            at = SimpleNamespace(x=x, y=y)  # the stencil may leave D
            g1, h1 = stab.fd_gradient_hessian(E, at, step=1e-4)
            g2, h2 = stab.fd_gradient_hessian(E, at, step=2e-4)
            h, b = 1e-4 * (1.0 + y), 1e-12 * abs(e)
            assert np.all(np.abs(grad - g1) <= np.abs(g2 - g1) + b / h)
            assert np.all(np.abs(hess - h1) <= np.abs(h2 - h1) + 4.0 * b / h**2)
            assert np.abs(hess - h1).max() <= 1e-5 * np.abs(h1).max()

    def test_energy_column_is_energy_fn(self):
        P, mu = pot.gaussian(math.pi), msr.uniform_disk(1.0)
        E, jet = diffuse_energy_fn(P, mu), diffuse_energy_jet(P, mu)
        xs = np.array([0.0, 0.1, 0.25, 0.5, 0.5, 0.3])
        ys = np.array([1.0, 1.3, 2.0, 2.6909, 3.9, 1.1])
        mixed = jet(xs, ys)[0]
        assert np.array_equal(mixed, E(xs, ys))
        for i, (x, y) in enumerate(zip(xs, ys)):
            alone = jet(np.array([x]), np.array([y]))[0]
            assert alone[0] == mixed[i] == E(x, y)


class TestStabilityReport:
    def test_stable_case(self):
        rep = stab.stability_report(
            pot.gaussian(math.pi), msr.uniform_disk(1.0), 0.3
        )
        assert rep.classification == "stable"
        assert rep.T_analytic > 0.0
        assert abs(rep.grad_fd[0]) <= 1e-6
        assert abs(rep.grad_fd[1]) <= 1e-6
        T = rep.T_analytic
        assert abs(rep.hessian_fd[0, 1]) <= 1e-4 * abs(T)
        assert rep.hessian_fd[0, 0] == pytest.approx(T, rel=1e-4)

    def test_unstable_case(self):
        rep = stab.stability_report(
            pot.gaussian(math.pi), msr.uniform_disk(1.0), 0.7
        )
        assert rep.classification == "unstable"
        assert rep.T_analytic < 0.0
