"""lattice-forge: energies of spatially extended particles on 2D Bravais lattices."""

from .lattice import (
    TRIANGULAR,
    LatticeParams,
    dual,
    metric,
)
from .potential import (
    RadialPotential,
    eval_derivatives,
    fourier,
    gaussian,
    inverse_power,
    parse_potential,
)
from .measure import (
    RadialMeasure,
    bessel_j,
    dirac,
    hankel,
    hankel_moments,
    parse_measure,
    profile,
    radial_gaussian,
    scale,
    self_convolution_at_zero,
    uniform_disk,
)
from .energy import (
    EnergyReport,
    diffuse_energy,
    diffuse_energy_fn,
    diffuse_energy_jet,
    theta,
)
from .stability import (
    sign_changes,
    stability_curve,
    t_coefficient,
    t_coefficient_diffuse,
)
from .optimize import (
    Landscape,
    MinimizeResult,
    global_minimize,
    grid_scan,
    local_minimize,
)

__version__ = "0.1.0"
