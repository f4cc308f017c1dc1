import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from latticeforge import LatticeParams


def random_lattice(rng: np.random.Generator, y_max: float = 3.0) -> LatticeParams:
    """Uniform-ish sample of the fundamental domain (interior)."""
    x = rng.uniform(0.0, 0.5)
    y_lo = math.sqrt(max(1.0 - x * x, 0.0))
    y = rng.uniform(y_lo + 1e-6, y_max)
    return LatticeParams(x, y)


def disk_psi_nodes(R: float, n: int = 256):
    """Gauss-Legendre (s, weight) nodes of the disk's psi density 2s/R^2."""
    u, w = roots_legendre(n)
    s = 0.5 * R * (u + 1.0)
    ws = 0.5 * R * w * 2.0 * s / (R * R)
    return tuple(zip(s.tolist(), ws.tolist()))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# pass/fail lines recorded by the acceptance tests, echoed after the run
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
