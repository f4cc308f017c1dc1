"""Checks that the oracles in oracles.py are right, independently of latticeforge.

    python3 perfbench/selfcheck.py

Each line is PASS or FAIL with the measured agreement; the exit code is 0
only if every check passes.  The checks pit each oracle route against a
route that shares none of its approximations:

- inverse-power sums by the K-Bessel Fourier route (exact transform,
  Poisson summation) against closed-form row sums in direct space;
- the finite-difference T against itself at half the step, and d2E/dx2
  against d2E/dy2 (the Hessian at the triangular point is T times I);
- the quad route for (f*mu*mu)(0) and the Fourier-side energy against the
  closed-form Gaussian convolution;
- the J1 form of the disk transform against direct quadrature of the disk.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy import integrate, special

import oracles as O
from workloads import ALPHA, T_SHARE

LATTICES = [O.TRIANGULAR, (0.0, 1.0), (0.17, 1.31), (0.42, 2.2), (0.05, 3.7)]


def check_row_sums() -> tuple[bool, str]:
    worst = 0.0
    for a in (1.0, 0.5):
        pot = O.InversePower(a, 2.0)
        one = lambda t: np.ones_like(np.asarray(t, dtype=float))
        for x, y in LATTICES:
            # sum'_x f(x) = fhat(0) + sum'_p fhat(p) - f(0) by Poisson summation
            kbessel = O.fourier_lattice_sum(pot, one, x, y) + pot.fhat0 - a ** -2.0
            rows = O.invpower2_direct(a, x, y)
            worst = max(worst, abs(kbessel - rows) / abs(rows))
    return worst <= 1e-13, f"K-Bessel vs row sums, (a+r^2)^-2, max rel diff {worst:.1e}"


def _profile():
    s = np.linspace(0.0, 1.2, 40)
    return O.profile_g(s, s * np.exp(-(((s - 0.55) / 0.22) ** 2)))


def check_fd_step() -> tuple[bool, str]:
    pot = O.Gaussian(ALPHA)
    eps = np.linspace(0.05, 5.0, 100)
    worst_step = worst_iso = 0.0
    for g in (O.disk_g(1.0), _profile()):
        T = O.t_fd(pot, g, eps)
        scale = float(np.max(np.abs(T)))
        half = O.t_fd(pot, g, eps, step=0.5e-4)
        yy = O.t_fd(pot, g, eps, axis=1)
        worst_step = max(worst_step, float(np.max(np.abs(T - half))) / scale)
        worst_iso = max(worst_iso, float(np.max(np.abs(T - yy))) / scale)
    limit = 0.2 * T_SHARE
    ok = worst_step <= limit and worst_iso <= limit
    return ok, (f"FD T step 1e-4 vs 5e-5: {worst_step:.1e} of max|T|; "
                f"d2E/dx2 vs d2E/dy2: {worst_iso:.1e}; limit {limit:.0e}")


def check_gaussian_routes() -> tuple[bool, str]:
    pot, sigma = O.Gaussian(ALPHA), 1.0
    c, _ = O.gauss_gauss_mixture(ALPHA, sigma)
    quad_c = O.self_convolution_at_zero(pot, O.gauss_g(sigma))
    const_err = abs(quad_c - c) / c
    worst = 0.0
    for x, y in LATTICES:
        fourier = O.fourier_energy(pot, O.gauss_g(sigma), quad_c, x, y)
        direct = O.gauss_gauss_energy(ALPHA, sigma, x, y)
        worst = max(worst, abs(fourier - direct) / abs(direct))
    ok = const_err <= 1e-14 and worst <= 1e-14
    return ok, (f"Gaussian particle: quad (f*mu*mu)(0) vs closed form {const_err:.1e}; "
                f"Fourier side vs direct space {worst:.1e}")


def check_disk_transform() -> tuple[bool, str]:
    g = O.disk_g(1.0)
    worst = 0.0
    for t in (0.1, 0.7, 1.3, 2.9):
        # uniform disk: psi density 2s on [0, 1]
        ref, _ = integrate.quad(lambda s: 2.0 * s * special.j0(2.0 * math.pi * s * t),
                                0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=200)
        worst = max(worst, abs(float(g(t)) - ref))
    return worst <= 1e-14, f"disk g(t) = 2 J1(X)/X vs quadrature of the disk: {worst:.1e}"


def main() -> int:
    ok_all = True
    for check in (check_row_sums, check_fd_step, check_gaussian_routes,
                  check_disk_transform):
        ok, detail = check()
        ok_all &= ok
        print(f"{'PASS' if ok else 'FAIL'} {check.__name__}: {detail}")
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
