"""lattice-forge: energies of spatially extended particles on 2D Bravais lattices."""

from .lattice import (
    TRIANGULAR,
    Basis2D,
    LatticeParams,
    dual,
    from_params,
    metric,
    reduce,
)
from .potential import (
    RadialPotential,
    check_completely_monotone,
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
    diffuse_energy_direct,
    diffuse_energy_fn,
    point_energy,
    poisson_check,
    theta,
)
from .stability import (
    StabilityReport,
    diffuse_h_derivatives,
    fd_gradient_hessian,
    sign_changes,
    stability_curve,
    stability_report,
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
