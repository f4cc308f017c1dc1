import math

import numpy as np
import pytest

import latticeforge.energy as en
import latticeforge.measure as msr
import latticeforge.optimize as opt
import latticeforge.potential as pot
from latticeforge import TRIANGULAR, LatticeParams, metric

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


class TestLocalMinimize:
    def test_theta_from_interior(self):
        res = opt.local_minimize(_theta_fn(), (0.3, 1.2))
        assert res.converged
        assert abs(res.point[0] - 0.5) <= 1e-4
        assert abs(res.point[1] - 0.5 * SQ3) <= 1e-4
        assert res.dist_to_triangular <= 1e-4

    def test_start_at_minimizer(self):
        f = lambda x, y: (x - 0.25) ** 2 + (y - 1.5) ** 2
        res = opt.local_minimize(f, (0.25, 1.5))
        assert res.converged
        assert res.iterations <= 60
        assert res.point == pytest.approx((0.25, 1.5), abs=1e-6)

    def test_boundary_respected(self):
        f = lambda x, y: (x - 0.6) ** 2 + (y - 1.2) ** 2
        res = opt.local_minimize(f, (0.2, 1.5))
        assert res.point[0] <= 0.5 + 1e-12
        assert res.point[0] == pytest.approx(0.5, abs=1e-5)
        assert res.point[1] == pytest.approx(1.2, abs=1e-5)

    def test_max_iterations(self):
        f = lambda x, y: x + y  # pushes toward the domain boundary corner
        with pytest.raises(opt.MaxIterationsError):
            opt.local_minimize(f, (0.3, 2.0), tol=0.0, max_iter=50)


class TestGlobalMinimize:
    def test_dirac_gaussian(self):
        E = en.diffuse_energy_fn(pot.gaussian(math.pi), msr.dirac())
        best, cands = opt.global_minimize(E, x_steps=20, y_steps=20)
        assert best.dist_to_triangular <= 1e-4
        assert len(cands) == 5

    def test_gaussian_gaussian(self):
        E = en.diffuse_energy_fn(pot.gaussian(math.pi), msr.radial_gaussian(1.0))
        best, _ = opt.global_minimize(E, x_steps=20, y_steps=20)
        assert best.dist_to_triangular <= 1e-4

    def test_refinement_never_increases_energy(self):
        E = en.diffuse_energy_fn(pot.gaussian(2.0), msr.dirac())
        scan = opt.grid_scan(E, 20, 20, 4.0)
        best, cands = opt.global_minimize(E, x_steps=20, y_steps=20)
        seeds = sorted(map(tuple, scan.grid), key=lambda r: (r[2], r[0], r[1]))
        for (x, y, e_seed), res in zip(seeds[:5], cands):
            assert res.energy <= e_seed + 1e-12

    def test_deterministic(self):
        E = en.diffuse_energy_fn(pot.gaussian(math.pi), msr.dirac())
        a, _ = opt.global_minimize(E, x_steps=15, y_steps=15)
        b, _ = opt.global_minimize(E, x_steps=15, y_steps=15)
        assert a == b
