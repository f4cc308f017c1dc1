"""Acceptance suite: one criterion per test, one pass/fail line each."""

import math
import time
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv

import latticeforge.energy as en
import latticeforge.lattice as lat
import latticeforge.measure as msr
import latticeforge.optimize as opt
import latticeforge.potential as pot
import latticeforge.stability as stab
from latticeforge import TRIANGULAR, LatticeParams

from conftest import (
    acceptance_lines, check_completely_monotone, direct_gaussian_energy,
    fd_gradient_hessian, random_lattice,
)


def _report(name: str, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    acceptance_lines.append(line)


def test_criterion_1_jacobi_poisson_identity():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        L = random_lattice(rng)
        t = rng.uniform(0.2, 5.0)
        lhs = en.theta(L, t)
        rhs = en.theta(lat.dual(L), 1.0 / t) / t
        worst = max(worst, abs(lhs - rhs) / lhs)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 5.0
    _report(
        "criterion 1 (theta duality identity)", ok,
        f"max rel residual {worst:.2e} over 100 lattices, {elapsed:.2f} s",
    )
    assert worst <= 1e-9
    assert elapsed <= 5.0


def test_criterion_2_triangular_theta_minimality():
    rng = np.random.default_rng(2)
    t_tri = {t: en.theta(TRIANGULAR, t) for t in (0.5, 1.0, 2.0, 4.0)}
    ok = True
    margin = math.inf
    for _ in range(200):
        L = random_lattice(rng)
        d = lat.metric(L, TRIANGULAR)
        for t, v_tri in t_tri.items():
            v = en.theta(L, t)
            ok = ok and v_tri <= v + 1e-12
            if d > 1e-3:
                ok = ok and v_tri < v
                margin = min(margin, v - v_tri)
    _report(
        "criterion 2 (triangular theta minimality)", ok,
        f"200 lattices x 4 scales, smallest strict margin {margin:.2e}",
    )
    assert ok


def test_criterion_3_gaussian_family_minimizers():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (1.0, math.pi, 5.0):
        for sigma in (0.2, 1.0):
            P, mu = pot.gaussian(alpha), msr.radial_gaussian(sigma)
            best, _ = opt.global_minimize(
                en.diffuse_energy_fn(P, mu), en.diffuse_energy_jet(P, mu),
                x_steps=20, y_steps=20,
            )
            worst = max(worst, best.dist_to_triangular)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed <= 60.0
    _report(
        "criterion 3 (gaussian-family minimizers at triangular point)", ok,
        f"max distance {worst:.2e} over 6 parameter pairs, {elapsed:.1f} s",
    )
    assert worst <= 1e-4
    assert elapsed <= 60.0


@pytest.fixture(scope="module")
def figure_curve():
    P = pot.gaussian(math.pi)
    mu = msr.uniform_disk(1.0)
    start = time.perf_counter()
    grid = np.arange(0.05, 5.0001, 0.05)
    T = stab.t_coefficient_diffuse(P, mu, grid)
    zeros = stab.sign_changes(P, mu, grid, T)
    elapsed = time.perf_counter() - start
    return P, mu, zeros, elapsed


def test_criterion_4a_first_sign_change_window(figure_curve):
    _, _, zeros, elapsed = figure_curve
    first = zeros[0] if zeros else math.nan
    ok = bool(zeros) and 0.50 <= first <= 0.60 and elapsed <= 120.0
    _report(
        "criterion 4a (first stability sign change in [0.50, 0.60])", ok,
        f"first sign change at {first:.4f}, curve+bisection {elapsed:.1f} s",
    )
    assert elapsed <= 120.0
    assert zeros, "no sign change found on (0, 5)"
    assert 0.50 <= first <= 0.60


def test_criterion_4b_alternation_beyond_first_zero(figure_curve):
    _, _, zeros, _ = figure_curve
    later = [z for z in zeros if 0.6 < z < 5.0]
    ok = len(later) >= 2
    _report(
        "criterion 4b (at least two further sign changes on (0.6, 5))", ok,
        f"{len(later)} sign changes: {[round(z, 3) for z in later[:6]]}",
    )
    assert ok


def test_criterion_5_fourier_vs_direct_energy():
    rng = np.random.default_rng(5)
    P = pot.gaussian(math.pi)
    mu = msr.radial_gaussian(1.0)
    worst = 0.0
    for _ in range(20):
        L = random_lattice(rng)
        fourier_side = en.diffuse_energy(P, mu, L, rtol=1e-11).value
        direct = direct_gaussian_energy([(math.pi, 1.0)], 1.0, L.basis())
        worst = max(worst, abs(fourier_side - direct) / abs(direct))
    ok = worst <= 1e-8
    _report(
        "criterion 5 (dual-sum energies vs the direct-sum test oracle)", ok,
        f"max rel gap {worst:.2e} over 20 lattices",
    )
    assert ok


def test_criterion_6_criticality_and_isotropy():
    P = pot.gaussian(math.pi)
    mu = msr.radial_gaussian(1.0)
    ok = True
    details = []
    for eps in (0.0, 0.3, 1.0):
        E = en.diffuse_energy_fn(P, msr.scale(mu, eps), rtol=1e-12)
        T = stab.t_coefficient_diffuse(P, mu, eps)
        grad, _ = fd_gradient_hessian(E, TRIANGULAR, step=1e-5)
        _, hess = fd_gradient_hessian(E, TRIANGULAR, step=1e-4)
        gn = float(np.linalg.norm(grad))
        off = abs(hess[0, 1])
        diag_gap = abs(hess[0, 0] - hess[1, 1]) / abs(hess[0, 0])
        ok = ok and gn <= 1e-7 and off <= 1e-6 * abs(T) and diag_gap <= 1e-6
        details.append(f"eps={eps}: |grad|={gn:.1e} off={off:.1e} "
                       f"diag gap={diag_gap:.1e}")
        assert gn <= 1e-7
        assert off <= 1e-6 * abs(T)
        assert diag_gap <= 1e-6
    _report("criterion 6 (critical point and isotropic curvature)", ok,
            "; ".join(details))


def test_criterion_7_t_coefficient_vs_fd_hessian():
    ok = True
    gaps = []
    for t in (0.5, 1.0, 2.0):
        c = math.pi * t
        T = stab.t_coefficient(
            lambda q: (np.exp(-c * q), -c * np.exp(-c * q), c * c * np.exp(-c * q)),
            partial(en.mixture_tail, [c], [1.0]),
        )
        P = pot.from_atoms([(math.pi / t, 1.0 / t)])
        E = en.diffuse_energy_fn(P, msr.dirac(), rtol=1e-12)
        _, hess = fd_gradient_hessian(E, TRIANGULAR, step=1e-4)
        gap = max(abs(hess[0, 0] / T - 1.0), abs(hess[1, 1] / T - 1.0))
        gaps.append(gap)
        ok = ok and gap <= 1e-4
    _report(
        "criterion 7 (closed-form curvature vs finite differences)", ok,
        f"rel gaps {[f'{g:.1e}' for g in gaps]} at three scales",
    )
    assert ok


def test_criterion_8_hankel_closed_forms():
    t_grid = np.linspace(0.25, 10.0, 40)
    disk = msr.uniform_disk(1.0)
    worst_disk = 0.0
    for t in t_grid:
        oracle, _ = quad(
            lambda s: 2.0 * s * jv(0, 2.0 * math.pi * s * t), 0.0, 1.0,
            epsabs=1e-12, epsrel=1e-11, limit=200,
        )
        worst_disk = max(worst_disk, abs(msr.hankel(disk, t) - oracle))
    sigma = 1.0
    gauss = msr.radial_gaussian(sigma)
    worst_gauss = 0.0
    for t in t_grid:
        oracle, _ = quad(
            lambda s: (2.0 * math.pi * s / sigma**2)
            * math.exp(-math.pi * s * s / sigma**2)
            * jv(0, 2.0 * math.pi * s * t),
            0.0, 8.0 * sigma, epsabs=1e-12, epsrel=1e-11, limit=200,
        )
        worst_gauss = max(worst_gauss, abs(msr.hankel(gauss, t) - oracle))
    ok = worst_disk <= 1e-8 and worst_gauss <= 1e-8
    _report(
        "criterion 8 (transform closed forms vs quadrature)", ok,
        f"max abs gap disk {worst_disk:.1e}, gaussian {worst_gauss:.1e}",
    )
    assert ok


def test_criterion_9_complete_monotonicity_closure():
    r = np.linspace(0.2, 10.0, 50)
    ok = True
    cases = []
    for P, pname in ((pot.gaussian(math.pi), "gaussian(pi)"),
                     (pot.gaussian(2.0), "gaussian(2)"),
                     (pot.inverse_power(1.0, 2.0), "invpower(1,2)"),
                     (pot.inverse_power(1.0, 1.5), "invpower(1,1.5)")):
        Phi = pot.fourier(P)
        for sigma in (0.5, 1.0):
            mu = msr.radial_gaussian(sigma)

            def H(rr):
                g = msr.hankel(mu, math.sqrt(rr))
                return Phi.eval(rr) * g * g

            verdict = check_completely_monotone(H, r, max_order=6)
            ok = ok and verdict
            cases.append(f"{pname} x sigma={sigma}: {verdict}")
    _report(
        "criterion 9 (product summands completely monotone)", ok,
        "; ".join(cases),
    )
    assert ok
