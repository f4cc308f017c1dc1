import math

import numpy as np
import pytest

import latticeforge.energy as en
import latticeforge.measure as msr
import latticeforge.optimize as opt
import latticeforge.potential as pot
from latticeforge import TRIANGULAR, LatticeParams, lattice, metric

SQ3 = math.sqrt(3.0)


def _theta_fn():
    E = None

    def f(x, y):
        # theta-like lattice sum without the origin term, defined for any y > 0
        nonlocal E
        if E is None:
            E = en.diffuse_energy_fn(
                pot.from_atoms([(math.pi, 1.0)]), msr.dirac(), rtol=1e-10
            )
        return E(x, y)

    return f


def _theta_jet():
    # gradient and Hessian of the _theta_fn sum
    return en.diffuse_energy_jet(
        pot.from_atoms([(math.pi, 1.0)]), msr.dirac(), rtol=1e-10
    )


def _quadratic_jet(a, b):
    """(x - a)^2 + (y - b)^2 with its gradient and Hessian."""

    def jet(x, y):
        grad = np.stack([2.0 * (x - a), 2.0 * (y - b)], axis=-1)
        hess = np.tile(2.0 * np.eye(2), (len(x), 1, 1))
        return (x - a) ** 2 + (y - b) ** 2, grad, hess

    return jet


def _sum_jet(x, y):
    """x + y with its gradient and Hessian."""
    return x + y, np.ones((len(x), 2)), np.zeros((len(x), 2, 2))


def _energy_and_jet(P, mu):
    return en.diffuse_energy_fn(P, mu), en.diffuse_energy_jet(P, mu)


class TestGridScan:
    def test_theta_argmin_near_triangular(self):
        scan = opt.grid_scan(_theta_fn(), 50, 50, 4.0)
        x, y, _ = scan.argmin
        cell = max(0.5 / 49, 3.0 / 49)
        assert abs(x - 0.5) <= cell + 1e-12
        assert abs(y - 0.5 * SQ3) <= cell + 1e-12

    def test_constant_tie_break(self):
        scan = opt.grid_scan(lambda x, y: 7.0, 5, 5, 4.0)
        assert scan.argmin[:2] == (0.0, 1.0)

    def test_constructed_objective(self):
        @np.vectorize  # grid_scan passes whole columns
        def E(x, y):
            return metric(
                LatticeParams(min(x, 0.5), max(y, 1.0)), TRIANGULAR
            ) ** 2

        # grid chosen so x = 1/2 is a node; y nodes vary per column
        scan = opt.grid_scan(E, 11, 41, 4.0)
        assert scan.argmin[0] == pytest.approx(0.5)
        assert scan.argmin[2] <= (4.0 - 0.5 * SQ3) / 40.0

    def test_one_call_per_column(self):
        shapes = []

        def E(xs, ys):
            shapes.append((np.shape(xs), np.shape(ys)))
            return xs + ys

        scan = opt.grid_scan(E, 7, 9, 3.0)
        assert shapes == [((9,), (9,))] * 7
        assert scan.grid.shape == (63, 3)

    def test_grid_points_in_domain(self):
        scan = opt.grid_scan(lambda x, y: 0.0, 8, 8, 3.0)
        for x, y, _ in scan.grid:
            assert 0.0 <= x <= 0.5
            assert x * x + y * y >= 1.0 - 1e-12

    @pytest.mark.parametrize("y_steps", [2, 3, 40])
    def test_huge_y_max_keeps_points_finite(self, y_steps):
        # (y_max - y_lo) * j overflows: the points still step evenly up to y_max
        y_max = np.finfo(float).max
        scan = opt.grid_scan(lambda x, y: 0.0, 2, y_steps, y_max)
        ys = scan.grid[:, 1].reshape(2, y_steps)
        assert np.isfinite(ys).all() and (ys <= y_max).all()
        assert (ys[:, -1] >= y_max * (1.0 - 1e-15)).all()
        assert (np.diff(ys, axis=1) > 0).all()

    def test_top_row_stays_at_or_below_y_max(self):
        # y_lo + (y_max - y_lo) rounds one ulp past 4.0 at some x of this grid
        scan = opt.grid_scan(lambda x, y: 0.0, 40, 101, 4.0)
        assert (scan.grid[:, 1] <= 4.0).all()
        assert (scan.grid[100::101, 1] >= 4.0 - 1e-15).all()


class TestLocalMinimize:
    def test_theta_from_interior(self):
        res = opt.local_minimize(_theta_jet(), (0.3, 1.2))
        assert res.converged
        assert abs(res.point[0] - 0.5) <= 1e-4
        assert abs(res.point[1] - 0.5 * SQ3) <= 1e-4
        assert res.dist_to_triangular <= 1e-4

    def test_start_at_minimizer(self):
        f = _quadratic_jet(0.25, 1.5)
        res = opt.local_minimize(f, (0.25, 1.5))
        assert res.converged
        assert res.iterations <= 60
        assert res.point == pytest.approx((0.25, 1.5), abs=1e-6)

    def test_boundary_respected(self):
        f = _quadratic_jet(0.6, 1.2)
        res = opt.local_minimize(f, (0.2, 1.5))
        assert res.point[0] <= 0.5 + 1e-12
        assert res.point[0] == pytest.approx(0.5, abs=1e-5)
        assert res.point[1] == pytest.approx(1.2, abs=1e-5)

    def test_max_iterations(self, monkeypatch):
        f = _sum_jet  # pushes toward the domain boundary corner
        monkeypatch.setattr(opt, "_MAX_ITER", 50)
        with pytest.raises(opt.MaxIterationsError):
            opt.local_minimize(f, (0.3, 2.0), tol=0.0)


class TestGlobalMinimize:
    def test_dirac_gaussian(self):
        E = _energy_and_jet(pot.gaussian(math.pi), msr.dirac())
        best, cands = opt.global_minimize(*E, x_steps=20, y_steps=20)
        assert best.dist_to_triangular <= 1e-4
        assert len(cands) == 5

    def test_gaussian_gaussian(self):
        E = _energy_and_jet(pot.gaussian(math.pi), msr.radial_gaussian(1.0))
        best, _ = opt.global_minimize(*E, x_steps=20, y_steps=20)
        assert best.dist_to_triangular <= 1e-4

    def test_refinement_never_increases_energy(self):
        E, jet = _energy_and_jet(pot.gaussian(2.0), msr.dirac())
        scan = opt.grid_scan(E, 20, 20, 4.0)
        best, cands = opt.global_minimize(E, jet, x_steps=20, y_steps=20)
        seeds = sorted(map(tuple, scan.grid), key=lambda r: (r[2], r[0], r[1]))
        for (x, y, e_seed), res in zip(seeds[:5], cands):
            assert res.energy <= e_seed + 1e-12

    def test_seeds_in_energy_then_x_then_y_order(self, monkeypatch):
        # a grid of tied energies: the seeds are the first five rows in
        # (E, x, y) order, as sorting the rows as tuples gives them
        def E(x, y):
            return np.floor(2.0 * (np.cos(7.0 * x) + np.sin(3.0 * y)))

        seen = []

        def refine(jet, starts, tol):
            seen.append(np.asarray(starts).tolist())
            return [opt.MinimizeResult((x, y), 0.0, 0.0, 0, True) for x, y in starts]

        monkeypatch.setattr(opt, "_refine", refine)
        opt.global_minimize(E, None, x_steps=9, y_steps=11, y_max=3.0)
        rows = opt.grid_scan(E, 9, 11, 3.0).grid
        assert len(np.unique(rows[:, 2])) <= 9  # 99 rows, mostly ties
        want = sorted(map(tuple, rows), key=lambda r: (r[2], r[0], r[1]))[:5]
        assert seen == [[[x, y] for x, y, _ in want]]
        # the landscape's argmin is the first of the same ranking
        assert opt.grid_scan(E, 9, 11, 3.0).argmin == tuple(want[0])

    def test_deterministic(self):
        E = _energy_and_jet(pot.gaussian(math.pi), msr.dirac())
        a, _ = opt.global_minimize(*E, x_steps=15, y_steps=15)
        b, _ = opt.global_minimize(*E, x_steps=15, y_steps=15)
        assert a == b


class TestPaperMinimizers:
    # Gaussian potential alpha = pi; the disk particle's minimizer is not
    # triangular, the Gaussian particle's is
    P = pot.gaussian(math.pi)

    def test_disk_particle(self):
        E, jet = _energy_and_jet(self.P, msr.uniform_disk(1.0))
        best, _ = opt.global_minimize(E, jet)
        x, y = best.point
        assert math.hypot(x - 0.5, y - 2.6909160157) <= 1e-7
        assert best.energy <= 3.853540226903571e-05 * (1.0 + 1e-10)
        for h in (1e-3, 1e-5):
            for dx in (-h, 0.0, h):
                for dy in (-h, 0.0, h):
                    a, b = x + dx, y + dy
                    if (dx or dy) and lattice.in_domain(a, b):
                        assert E(a, b) >= best.energy * (1.0 - 1e-10)

    def test_gaussian_particle(self):
        E, jet = _energy_and_jet(self.P, msr.radial_gaussian(1.0))
        best, _ = opt.global_minimize(E, jet)
        assert best.dist_to_triangular <= 1e-9
        # every scan grid holds the triangular point; start off it as well
        for start in [(0.4, 1.1), (0.1, 1.5), (0.5, 1.3), (0.25, 2.0)]:
            res = opt.local_minimize(jet, start, tol=1e-9)
            assert res.dist_to_triangular <= 1e-9


# the Theorem-2 route: every library potential with a dirac or Gaussian
# particle; the numeric search is its oracle
_CM_POTENTIALS = {
    "gaussian(1)": pot.gaussian(1.0),
    "gaussian(pi)": pot.gaussian(math.pi),
    "invpower(1,2)": pot.inverse_power(1.0, 2.0),
    "two atoms": pot.from_atoms([(0.5, 1.0), (3.0, 2.0)]),
}
_CM_SIGMAS = (0.0, 0.2, 1.0, 3.0)  # 0 is the dirac particle


def _cm_particle(sigma):
    return msr.dirac() if sigma == 0.0 else msr.radial_gaussian(sigma)


class TestTheorem2Route:
    def test_predicate(self):
        assert en._triangular_is_global(msr.dirac())
        assert en._triangular_is_global(msr.radial_gaussian(1.0))
        assert not en._triangular_is_global(msr.uniform_disk(1.0))
        assert not en._triangular_is_global(msr.profile([(0.0, 1.0), (1.0, 0.0)]))

    @pytest.mark.parametrize("name", list(_CM_POTENTIALS))
    @pytest.mark.parametrize("sigma", [0.2, 1.0, 3.0])
    def test_gaussian_particle_summand_is_a_nonnegative_laplace_mixture(
            self, name, sigma):
        P = _CM_POTENTIALS[name]
        t, w = P.rep.nodes()
        t_hat, w_hat = pot.fourier(P).rep.nodes()
        # the nodes of Phi are exactly (pi^2 / t, w pi / t)
        assert (t_hat == math.pi * math.pi / t).all()
        assert (w_hat == w * math.pi / t).all()
        # g^2 = exp(-2 pi sigma^2 q) shifts every node, and no weight is negative
        nodes = t_hat + 2.0 * math.pi * sigma**2
        assert (nodes > 0.0).all() and (w_hat >= 0.0).all()
        H, _ = en._fourier_summand(pot.fourier(P), msr.radial_gaussian(sigma))
        q = np.linspace(0.05, 4.0, 40)
        mixture = (w_hat * np.exp(-np.multiply.outer(q, nodes))).sum(axis=1)
        np.testing.assert_allclose(H(q), mixture, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", list(_CM_POTENTIALS))
    @pytest.mark.parametrize("sigma", _CM_SIGMAS)
    def test_search_agrees(self, name, sigma):
        P, mu = _CM_POTENTIALS[name], _cm_particle(sigma)
        E, jet = _energy_and_jet(P, mu)
        assert en._triangular_is_global(mu)
        certified = E(TRIANGULAR.x, TRIANGULAR.y)
        scanned = []

        def recorded(xs, ys):
            es = E(xs, ys)
            scanned.append(es)
            return es

        best, _ = opt.global_minimize(recorded, jet, x_steps=20, y_steps=20)
        assert best.dist_to_triangular <= 1e-4
        assert len(scanned) == 20
        assert np.concatenate(scanned).min() >= certified - 1e-10 * abs(certified)
