import gc
import math
import tracemalloc
import weakref
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

import latticeforge.energy as en
import latticeforge.lattice as lat
import latticeforge.measure as msr
import latticeforge.potential as pot
import latticeforge.stability as stab
from latticeforge import TRIANGULAR, LatticeParams, cli
from latticeforge.cli import _parse_range
from latticeforge.energy import (
    _fourier_summand, diffuse_energy_fn, diffuse_energy_jet, mixture_tail,
)

from conftest import disk_psi_nodes, fd_gradient_hessian, full_box_points


def _exp_summand(c: float):
    """(H, H', H'') of H(q) = e^(-c q), and its tail factory."""

    def H(q):
        e = np.exp(-c * q)
        return e, -c * e, c * c * e

    return H, partial(mixture_tail, [c], [1.0])


def _every_point_sums(P, mu, eps: float, rtol: float = 1e-10):
    """(E, T's column) of one eps, and its R, from the engine's one-lattice
    sum over every point of the triangular lattice: the route T took
    before its shell sum."""
    H, tail_of = _fourier_summand(pot.fourier(P), mu, np.array([eps]))

    def cols(pts, q):
        h, d1, d2 = (v[0] for v in H(q, derivatives=True))
        return np.stack([h, q * (q * d2 + 2.0 * d1)])

    sums, R = en._summed(cols, tail_of, stab._BASIS, rtol)[:2]
    return sums[:, 0], R[0]


def _gaussian_theta_T(t: float) -> float:
    """T for the summand e^(-pi t q), from its closed-form q-derivatives."""
    return stab.t_coefficient(*_exp_summand(math.pi * t))


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


class TestTCoefficient:
    def test_zero_for_constant(self):
        z = lambda q: (np.zeros_like(q),) * 3
        # the zero summand is the mixture with weight 0: its tail bound is 0
        assert stab.t_coefficient(z, partial(mixture_tail, [1.0], [0.0])) == 0.0

    def test_gaussian_positive(self):
        assert _gaussian_theta_T(1.0) > 0.0

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_matches_fd_hessian_of_theta(self, t):
        T = _gaussian_theta_T(t)
        E = _theta_lattice_energy(t)
        _, hess = fd_gradient_hessian(E, TRIANGULAR, step=1e-4)
        assert hess[0, 0] == pytest.approx(T, rel=1e-4)
        assert hess[1, 1] == pytest.approx(T, rel=1e-4)

    def test_summand_called_once_per_shell(self):
        P, eps = pot.gaussian(math.pi), np.array([0.3, 0.6031, 2.5])
        H, tail_of = _fourier_summand(pot.fourier(P), _ring_profile(), eps)
        shells = []

        def recording(q):
            shells.append(q.copy())
            return H(q, derivatives=True)

        T = stab.t_coefficient(recording, tail_of, heads=eps.size)
        sums, (R, _) = stab._shell_sums(partial(H, derivatives=True), tail_of,
                                        1e-10, eps.size)
        # the calls take the exact q = (2/sqrt 3) N of every shell N = m^2 +
        # mn + n^2 within the largest R, once each, N increasing
        q = np.concatenate(shells)
        pts = full_box_points(stab._BASIS, R.max())[0]
        m, n = np.rint(np.linalg.solve(stab._BASIS.T, pts.T)).astype(int)
        N = np.unique(m * m + m * n + n * n)
        assert q.tolist() == (N / (math.sqrt(3) / 2)).tolist()
        # those q differ from the points' x^2 + y^2 by an ulp or so, and so
        # does T from the every-point sum of each eps
        every = np.array([_every_point_sums(P, _ring_profile(), e)[0][1]
                          for e in eps.tolist()]) * (2.0 / 3.0)
        assert np.abs(T - every).max() <= 1e-15 * np.abs(every).max()

    def test_nonconvergent_sum_raises(self, monkeypatch):
        # e^(-1e-9 q) needs a cutoff near 10^5 to close its tail; a
        # 10^4-candidate cap stops the growing cutoff after a few rounds
        monkeypatch.setattr(lat, "_POINT_CAP", 10**4)
        with pytest.raises(lat.ShellCapError):
            stab.t_coefficient(*_exp_summand(1e-9))


class TestShellSum:
    def test_multiplicities_match_the_divisor_sum(self):
        # r(N) = 6 sum_{d | N} chi(d), chi(d) = 0, 1, -1 for d = 0, 1, 2
        # (mod 3), and a brute-force count over a box, for every N <= 3000
        top = 3000
        shells, r = stab._shells(math.sqrt(top / stab._SHELL))
        table = dict(zip(shells.tolist(), r.tolist()))
        assert max(table) <= top
        chi = (0, 1, -1)
        k = np.arange(-70, 71)  # m^2 + mn + n^2 >= (3/4) max(|m|, |n|)^2
        N = (k[:, None] ** 2 + k[:, None] * k + k**2).ravel()
        brute = np.bincount(N[(N > 0) & (N <= top)], minlength=top + 1)
        for n in range(1, top + 1):
            divisors = 6 * sum(chi[d % 3] for d in range(1, n + 1) if n % d == 0)
            assert table.get(n, 0) == divisors == brute[n]

    @pytest.mark.parametrize("kind, eps", [
        ("disk", 0.05 * np.arange(1, 101)), ("profile", 0.25 * np.arange(1, 21))])
    def test_matches_the_every_point_engine(self, kind, eps):
        # the figure curve and the ring profile: each eps stops at the R of
        # the engine's one-lattice sum over every point, and T agrees
        P, mu = pot.gaussian(math.pi), _PARTICLES[kind]
        H, tail_of = _fourier_summand(pot.fourier(P), mu, eps)
        sums, (R, _) = stab._shell_sums(partial(H, derivatives=True), tail_of,
                                        1e-10, eps.size)
        every = [_every_point_sums(P, mu, e) for e in eps.tolist()]
        assert R.tolist() == [R_e for _, R_e in every]
        T, T_every = sums[1], np.array([v[1] for v, _ in every])
        assert np.abs(T - T_every).max() <= 1e-15 * np.abs(T_every).max()


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
        ts = stab.t_coefficient_diffuse(P, msr.dirac(), np.array([0.2, 1.0, 3.0]))
        assert ts[0] == pytest.approx(ts[1], rel=1e-12)
        assert ts[1] == pytest.approx(ts[2], rel=1e-12)
        assert ts[0] == pytest.approx(_gaussian_theta_T(1.0), rel=1e-9)

    def test_sign_change_bracketing(self):
        P = pot.gaussian(math.pi)
        mu = msr.uniform_disk(1.0)
        grid = np.array([0.4, 0.55, 0.7, 0.85])
        zeros = stab.sign_changes(P, mu, grid, stab.t_coefficient_diffuse(P, mu, grid))
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
        grad, hess = fd_gradient_hessian(
            lambda x, y: 1.0, LatticeParams(0.2, 1.5)
        )
        assert np.allclose(grad, 0.0)
        assert np.allclose(hess, 0.0)

    def test_theta_critical_at_triangular(self):
        E = _theta_lattice_energy(1.0)
        grad, _ = fd_gradient_hessian(E, TRIANGULAR, step=1e-5)
        assert np.linalg.norm(grad) <= 1e-7

    def test_theta_hessian_isotropic(self):
        E = _theta_lattice_energy(1.0)
        T = _gaussian_theta_T(1.0)
        _, hess = fd_gradient_hessian(E, TRIANGULAR, step=1e-4)
        assert hess == pytest.approx(T * np.eye(2), abs=1e-4 * abs(T))

    def test_quadratic_bowl(self):
        f = lambda x, y: (x - 0.2) ** 2 + 3.0 * (y - 1.6) ** 2
        L = LatticeParams(0.25, 1.4)
        grad, hess = fd_gradient_hessian(f, L, step=1e-4)
        assert grad == pytest.approx(
            [2.0 * (L.x - 0.2), 6.0 * (L.y - 1.6)], rel=1e-6
        )
        assert hess == pytest.approx(np.diag([2.0, 6.0]), abs=1e-5)

    def test_one_call_on_the_stencil(self):
        shapes = []

        def E(xs, ys):
            shapes.append((np.shape(xs), np.shape(ys)))
            return (xs - 0.2) ** 2 + 3.0 * (ys - 1.6) ** 2

        fd_gradient_hessian(E, LatticeParams(0.25, 1.4))
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
            g1, h1 = fd_gradient_hessian(E, at, step=1e-4)
            g2, h2 = fd_gradient_hessian(E, at, step=2e-4)
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

    def test_flat_energy_raises(self):
        # a disk of radius 1e300: every term of E and its gradient is 0, and
        # R^2 overflows against a zero Bessel factor in the Hessian (nan)
        jet = diffuse_energy_jet(pot.gaussian(math.pi), msr.uniform_disk(1e300))
        with pytest.raises(en.NonconvergenceError,
                           match=r"not finite at \(x, y\) = \(0.3, 1.5\)"):
            jet(np.array([0.3, 0.1]), np.array([1.5, 1.2]))


class TestStabilityReport:
    """T with the FD gradient and Hessian of E at the triangular point."""

    @staticmethod
    def _report(eps: float):
        P, mu = pot.gaussian(math.pi), msr.uniform_disk(1.0)
        T = stab.t_coefficient_diffuse(P, mu, eps)
        E = diffuse_energy_fn(P, msr.scale(mu, eps), rtol=1e-12)
        grad, _ = fd_gradient_hessian(E, TRIANGULAR, step=1e-5)
        _, hess = fd_gradient_hessian(E, TRIANGULAR, step=1e-4)
        return T, grad, hess

    def test_stable_case(self):
        T, grad, hess = self._report(0.3)
        assert T > 0.0
        assert abs(grad[0]) <= 1e-6
        assert abs(grad[1]) <= 1e-6
        assert abs(hess[0, 1]) <= 1e-4 * abs(T)
        assert hess[0, 0] == pytest.approx(T, rel=1e-4)

    def test_unstable_case(self):
        T, _, _ = self._report(0.7)
        assert T < 0.0


def _ring_profile():
    s = np.linspace(0.0, 1.0, 41)
    return msr.profile(zip(s, s * np.exp(-(((s - 0.6) / 0.2) ** 2))))


_PARTICLES = {
    "dirac": msr.dirac(),
    "disk": msr.uniform_disk(1.0),
    "gauss": msr.radial_gaussian(0.7),
    "profile": _ring_profile(),
}


def _t_by_scaled_measure(P, mu, eps, rtol=1e-10):
    """T of scale(mu, eps) summed alone, through the summand without an
    eps axis: the route each eps of a curve took before curves were
    batched."""
    H, tail_of = _fourier_summand(pot.fourier(P), msr.scale(mu, eps))
    return stab.t_coefficient(partial(H, derivatives=True), tail_of, rtol)


def _sequential_sign_changes(P, mu, eps, T, rtol=1e-10):
    """Sign changes bisected one bracket after another, one T per midpoint."""
    curve = list(zip(np.asarray(eps, dtype=float).tolist(),
                     np.asarray(T, dtype=float).tolist()))
    zeros = []
    for (e0, t0), (e1, t1) in zip(curve, curve[1:]):
        if t0 == 0.0:
            zeros.append(e0)
            continue
        if t0 * t1 < 0.0:
            lo, hi, flo = e0, e1, t0
            while hi - lo > stab._ZERO_XTOL:
                mid = 0.5 * (lo + hi)
                fm = stab.t_coefficient_diffuse(P, mu, mid, rtol=rtol)
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            zeros.append(0.5 * (lo + hi))
    if curve and curve[-1][1] == 0.0:
        zeros.append(curve[-1][0])
    return zeros


class TestBatchedCurve:
    """Every eps of a curve slice in one shell sum (``t_coefficient``)."""

    # eps = 0 is the point mass; at 1e-6 every point of the sum has
    # X = 2 pi eps R |p| below the disk's 1e-4 series switch, and at 1e-5
    # the points straddle it
    EPS = np.array([0.0, 1e-6, 1e-5, 0.05, 0.3, 0.6031, 1.0, 2.5, 5.0])

    @pytest.mark.parametrize("kind", list(_PARTICLES))
    def test_bit_for_bit_per_eps(self, kind, monkeypatch):
        P, mu = pot.gaussian(math.pi), _PARTICLES[kind]
        batched = stab.t_coefficient_diffuse(P, mu, self.EPS)
        assert batched.shape == self.EPS.shape
        for e, t in zip(self.EPS.tolist(), batched.tolist()):
            assert t == stab.t_coefficient_diffuse(P, mu, e)
            assert t == _t_by_scaled_measure(P, mu, e)
        # a chunk budget of 4 splits the curve into batches of 4, 4 and 1
        # eps, and slices every round's box into one-row summand calls
        monkeypatch.setattr(en, "_CHUNK_CANDIDATES", 4)
        assert stab.t_coefficient_diffuse(P, mu, self.EPS).tolist() == batched.tolist()

    def test_scalar_gives_a_float(self):
        T = stab.t_coefficient_diffuse(pot.gaussian(math.pi), msr.uniform_disk(1.0), 0.5)
        assert type(T) is float

    def test_negative_eps_rejected(self):
        P, mu = pot.gaussian(math.pi), msr.uniform_disk(1.0)
        for eps in (np.array([0.5, -0.1]), math.inf, math.nan,
                    np.array([0.5, math.inf])):
            with pytest.raises(msr.MeasureSpecError):
                stab.t_coefficient_diffuse(P, mu, eps)

    def test_eps_of_two_or_more_axes_rejected(self):
        # every value is a valid scale; the shape is not
        P, mu = pot.gaussian(math.pi), msr.uniform_disk(1.0)
        with pytest.raises(msr.MeasureSpecError,
                           match=r"scalar or a 1-D array, got an array of shape \(1, 2\)"):
            stab.t_coefficient_diffuse(P, mu, np.array([[0.5, 0.6]]))

    def test_one_engine_call_per_curve(self, monkeypatch):
        # one t_coefficient call per curve, and no lattice-sum engine call:
        # T is summed over the triangular lattice's shells
        calls, heads = [], []
        orig, t_coefficient = stab.t_coefficient_diffuse, stab.t_coefficient

        def recording(P, mu, eps, rtol=1e-10):
            calls.append(len(eps))
            return orig(P, mu, eps, rtol)

        def recording_t(H, tail_of, rtol=1e-10, n=None, select=None):
            heads.append(n)
            return t_coefficient(H, tail_of, rtol, n, select)

        def no_engine(*args):
            raise AssertionError("T called the lattice-sum engine")

        monkeypatch.setattr(stab, "t_coefficient_diffuse", recording)
        monkeypatch.setattr(stab, "t_coefficient", recording_t)
        monkeypatch.setattr(en, "_summed", no_engine)
        P, grid = pot.gaussian(math.pi), np.linspace(0.05, 5.0, 100)
        stab.t_coefficient_diffuse(P, msr.uniform_disk(1.0), grid)
        assert calls == heads == [100]
        # a profile's nodes do not split the curve
        calls.clear(), heads.clear()
        stab.t_coefficient_diffuse(P, _ring_profile(), grid[:20])
        assert calls == heads == [20]

    def test_batches_hold_at_most_the_chunk_budget(self, monkeypatch):
        P, mu = pot.gaussian(math.pi), msr.uniform_disk(1.0)
        eps = np.linspace(0.0, 5.0, 3001)
        whole = stab.t_coefficient_diffuse(P, mu, eps)
        heads = []
        orig = stab.t_coefficient

        def recording(H, tail_of, rtol=1e-10, n=None, select=None):
            heads.append(n)
            return orig(H, tail_of, rtol, n, select)

        monkeypatch.setattr(stab, "t_coefficient", recording)
        monkeypatch.setattr(en, "_CHUNK_CANDIDATES", 1 << 10)
        batched = stab.t_coefficient_diffuse(P, mu, eps)
        assert heads == [1024, 1024, 953]
        assert np.array_equal(batched, whole)

    def test_many_profile_eps_memory(self):
        # 800 eps of a 100-node ring: in one pass, (eps, point, node) arrays
        # of about 100 MB
        s = np.linspace(0.0, 1.2, 101)
        mu = msr.profile(zip(s, s * np.exp(-(((s - 0.6) / 0.2) ** 2))))
        tracemalloc.start()
        try:
            stab.t_coefficient_diffuse(pot.gaussian(math.pi), mu, np.linspace(0.0, 5.0, 800))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_no_eps_gives_no_t(self, monkeypatch):
        monkeypatch.setattr(stab, "_shells", None)  # no round may run
        for mu in _PARTICLES.values():
            T = stab.t_coefficient_diffuse(pot.inverse_power(1.0, 2.0), mu, [])
            assert T.shape == (0,)
            assert stab.sign_changes(pot.gaussian(math.pi), mu, [], T) == []


class TestLockstepSignChanges:
    @pytest.mark.parametrize("kind", ["disk", "profile"])
    def test_matches_sequential_bisection(self, kind):
        P, mu = pot.gaussian(math.pi), _PARTICLES[kind]
        eps = np.linspace(0.3, 3.0, 28)
        T = stab.t_coefficient_diffuse(P, mu, eps)
        want = _sequential_sign_changes(P, mu, eps, T)
        assert len(want) >= 3
        assert stab.sign_changes(P, mu, eps, T) == want

    # coarse grids, on which the secant's path misses: past eps = 5 the
    # zeros of the disk's T are about 0.23 apart
    COARSE = [("disk", "0.5:20:0.5"), ("disk", "5:20:5"), ("profile", "0.25:20:0.25")]

    @pytest.mark.parametrize("kind, grid", COARSE)
    def test_matches_sequential_bisection_on_coarse_grids(self, kind, grid):
        P, mu = pot.gaussian(math.pi), _PARTICLES[kind]
        eps = _parse_range(grid)
        T = stab.t_coefficient_diffuse(P, mu, eps)
        want = _sequential_sign_changes(P, mu, eps, T)
        assert len(want) >= 2
        assert stab.sign_changes(P, mu, eps, T) == want

    @staticmethod
    def _recorded(P, mu, eps, T, monkeypatch):
        """The zeros of the curve (eps, T), and the eps of each engine request."""
        requests, orig = [], stab.t_coefficient_diffuse

        def recording(P, mu, eps, rtol=1e-10):
            requests.append(np.asarray(eps).tolist())
            return orig(P, mu, eps, rtol)

        monkeypatch.setattr(stab, "t_coefficient_diffuse", recording)
        return stab.sign_changes(P, mu, eps, T), requests

    def test_requests_on_the_secant_path(self, monkeypatch):
        P, mu = pot.gaussian(math.pi), msr.uniform_disk(1.0)
        eps = np.linspace(0.05, 5.0, 100)
        T = stab.t_coefficient_diffuse(P, mu, eps)
        zeros, requests = self._recorded(P, mu, eps, T, monkeypatch)
        # brackets 0.05 wide: three halvings reach the 0.01 width, and the
        # secant's path holds every midpoint bisection visits
        assert len(zeros) == 19 and len(requests) <= 2
        assert sum(map(len, requests)) == 57

    @staticmethod
    def _bisection_tree(lo, hi):
        """Every midpoint bisection of [lo, hi] can form, by its depth."""
        depth, stack = {}, [(lo, hi, 1)]
        while stack:
            lo, hi, d = stack.pop()
            if hi - lo > stab._ZERO_XTOL:
                mid = 0.5 * (lo + hi)
                depth[mid] = d
                stack += [(lo, mid, d + 1), (mid, hi, d + 1)]
        return depth

    @pytest.mark.parametrize("kind, grid", [("disk", "0.05:5:0.05")] + COARSE)
    def test_every_request_is_a_bisection_node(self, kind, grid, monkeypatch):
        P, mu = pot.gaussian(math.pi), _PARTICLES[kind]
        eps = _parse_range(grid)
        T = stab.t_coefficient_diffuse(P, mu, eps)
        _, requests = self._recorded(P, mu, eps, T, monkeypatch)
        curve = list(zip(eps.tolist(), T.tolist()))
        trees = [self._bisection_tree(e0, e1)
                 for (e0, t0), (e1, t1) in zip(curve, curve[1:]) if t0 * t1 < 0.0]
        taken = [0] * len(trees)  # requests that hold a node of each bracket
        for eps in requests:
            owners = [[b for b, tree in enumerate(trees) if e in tree] for e in eps]
            assert all(len(o) == 1 for o in owners)
            for b in {o[0] for o in owners}:
                taken[b] += 1
        assert all(0 < n <= max(tree.values()) for n, tree in zip(taken, trees))

    # each curve is its (eps, T) arrays
    @pytest.mark.parametrize("curve, want", [
        (([0.0, 0.5, 1.0], [2.0, 1.0, 0.0]), [1.0]),
        (([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]), [0.0, 1.0]),
        (([0.0, 0.5, 1.0], [1.0, 0.0, 1.0]), [0.5]),
        (([1.0], [0.0]), [1.0]),
        (([], []), []),
    ])
    def test_exact_zeros_at_grid_points(self, curve, want):
        # no sign flips, so no T is evaluated
        P, mu = pot.gaussian(math.pi), msr.uniform_disk(1.0)
        assert stab.sign_changes(P, mu, *curve) == want
        assert _sequential_sign_changes(P, mu, *curve) == want


def _ring_samples() -> list[tuple[float, float]]:
    """The 40 samples (s, psi-density) of the ring of
    ``tools/cli_fingerprint.py``: s exp(-((s - 0.6) / 0.2)^2) at s = 1.2 i / 39."""
    s = 1.2 * np.arange(40) / 39
    return list(zip(s.tolist(), (s * np.exp(-(((s - 0.6) / 0.2) ** 2))).tolist()))


def _sample_ring():
    return msr.profile(_ring_samples())


def _stop_radius(P, mu, eps: float) -> float:
    """The R where eps stops alone, from a summand that takes q alone."""
    H, tail_of = _fourier_summand(pot.fourier(P), mu, np.array([eps]))
    return stab._shell_sums(partial(H, derivatives=True), tail_of, 1e-10, 1)[1][0, 0]


class TestRunningEps:
    """Each round evaluates the summand for the eps still running only."""

    @pytest.mark.parametrize("P", [pot.gaussian(math.pi), pot.inverse_power(1.0, 2.0)],
                             ids=["gaussian", "invpower"])
    def test_only_running_eps_are_evaluated(self, P, monkeypatch):
        # the one-shot 100-eps ring curve, whose eps stop at different rungs
        mu, eps = _sample_ring(), 0.05 * np.arange(1, 101)
        alone = [stab.t_coefficient_diffuse(P, mu, e) for e in eps.tolist()]
        stops = np.array([_stop_radius(P, mu, e) for e in eps.tolist()])
        rounds, calls = [], []
        stop_rule, transform = en._stop_rule, stab._transform

        def recording_stop_rule(round_sums, *args):
            def recording(live, R):
                rounds.append((live.tolist(), R[0]))
                return round_sums(live, R)
            return stop_rule(recording, *args)

        def recording_transform(mu, t, moments, eps=None):
            calls.append((len(rounds) - 1, np.array(eps).tolist(), t.size))
            return transform(mu, t, moments, eps)

        monkeypatch.setattr(en, "_stop_rule", recording_stop_rule)
        monkeypatch.setattr(stab, "_transform", recording_transform)
        T = stab.t_coefficient_diffuse(P, mu, eps)
        # each T bit for bit its single-eps call
        assert T.tolist() == alone
        # an eps runs in a round until the round at its own stop radius
        assert len(rounds) > 1
        shells_before, pairs = 0, 0
        for i, (live, R) in enumerate(rounds):
            assert live == np.flatnonzero(stops >= R).tolist()
            new = stab._shells(R)[0].size - shells_before
            shells_before += new
            mine = [c for c in calls if c[0] == i]
            assert all(c[1] == eps[live].tolist() for c in mine)
            assert sum(c[2] for c in mine) == new
            pairs += len(live) * new
        # stopped eps were skipped: fewer pairs than every eps on every shell
        assert sum(len(c[1]) * c[2] for c in calls) == pairs < eps.size * shells_before


class TestSharedTables:
    """The T requests of one command share the tail bounds of T's ladder
    and the summand's eps-free rows at each shell."""

    def test_ladder_is_the_stop_rules(self):
        # the R the stop rule gives T's tail are the first cutoffs of
        # _LADDER, bit for bit, as the table's lookup needs: e^(-1e-4 q)
        # climbs 14 rungs
        seen = []

        def tail_of(rho):
            tail = mixture_tail([1e-4], [1.0], rho)
            return lambda R: seen.append(np.ravel(R).tolist()) or tail(R)

        stab.t_coefficient(_exp_summand(1e-4)[0], tail_of)
        R = sorted({r for rs in seen for r in rs})
        assert len(R) > 12 and R == stab._LADDER[:len(R)].tolist()

    @pytest.mark.parametrize("P", [pot.gaussian(math.pi), pot.inverse_power(1.0, 2.0),
                                   pot.inverse_power(1e-3, 1.5)])
    def test_table_tail_is_the_tail(self, P):
        tables = stab._Tables(pot.fourier(P))
        tail = partial(mixture_tail, *pot.fourier(P).rep.nodes())(stab._RHO)
        looked_up = tables.tail_of(stab._RHO)
        for R in stab._LADDER.tolist():
            assert looked_up(np.array([R])) == tail(np.array([R]))
        both = np.array([[0.0], [stab._LADDER[1]]])  # the stop rule's first call
        assert looked_up(both).tolist() == tail(both).tolist()

    def test_tables_die_with_the_potential(self):
        # kept on the potential's Fourier transform and holding no reference
        # back, so reference counting frees them with the potential
        P = pot.gaussian(math.pi)
        stab.t_coefficient_diffuse(P, msr.uniform_disk(1.0), np.array([0.3, 0.6]))
        tables = weakref.ref(pot.fourier(P)._tables[stab.__name__])
        gc.disable()
        try:
            del P
            assert tables() is None
        finally:
            gc.enable()

    def test_one_command_builds_them_once(self, monkeypatch, tmp_path, capsys):
        # the 100-eps inverse-power ring curve and every bisection request
        # of its sign changes: one tail evaluation over the ladder, and
        # each shell's Phi once, in increasing N, in the first request
        # that reaches it
        path = tmp_path / "ring.csv"
        path.write_text("".join(f"{s!r},{d!r}\n" for s, d in _ring_samples()))
        requests, tails, phis = [], [], []
        t_diffuse, mixture, evals = (stab.t_coefficient_diffuse, en.mixture_tail,
                                     stab.eval_derivatives)

        def recording(P, mu, eps, rtol=1e-10):
            requests.append(np.size(eps))
            return t_diffuse(P, mu, eps, rtol)

        def counted_mixture(ts, ws, rho):
            bound = mixture(ts, ws, rho)
            return lambda R: tails.append(np.shape(R)) or bound(R)

        def recorded_evals(P, q, order):
            phis.append((len(requests), q.copy()))
            return evals(P, q, order)

        monkeypatch.setattr(stab, "t_coefficient_diffuse", recording)
        monkeypatch.setattr(en, "mixture_tail", counted_mixture)
        monkeypatch.setattr(stab, "eval_derivatives", recorded_evals)
        assert cli.main(["stability", "--potential", "invpower:a=1,s=2",
                         "--measure", f"profile:file={path}", "--eps", "0.05:5:0.05",
                         "--format", "json"]) == 0
        assert len(capsys.readouterr().out) > 0
        assert len(requests) >= 3  # the curve and at least two bisection requests
        assert tails == [stab._LADDER.shape]
        q = np.concatenate([v for _, v in phis])
        shells = stab._shells(math.sqrt(q[-1]))[0]
        assert q.tolist() == (shells[:q.size] / stab._SHELL).tolist()
