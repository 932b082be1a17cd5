"""Desk-scale laboratory for variational crack initiation in 2D anti-plane
elasticity: elastic states on cracked grids, certified release bounds via
convex duality, singularity classification, and quasistatic evolutions."""

# the one version literal: report.VERSION and pyproject.toml read it, so it
# is set before any submodule is imported
__version__ = "0.1.0"

from .energy import (
    CheckerboardCoefficient,
    ConstantCoefficient,
    ConstantMatrixCoefficient,
    Integrand,
    MeyersCoefficient,
    laplace_integrand,
    meyers_integrand,
    ppower_integrand,
    quadratic_integrand,
)
from .geometry import (
    CrackSet,
    Cover,
    CutTopology,
    Domain,
    Grid,
    connected_components,
    cover_crack,
    cut_grid,
    read_crack_file,
    write_crack_file,
)
from .solver import (
    ScalarField,
    SolveReport,
    StressField,
    bulk_energy,
    field_from_function,
    solve,
    stress,
    total_energy,
)
from .singularity import (
    classify,
    fit_exponent,
    local_energy,
    meyers_gamma,
    meyers_profile,
    meyers_reference,
)
from .dual import (
    AdmissibleStress,
    CutoffField,
    assemble_tau,
    corrector,
    cutoff,
    duality_gap,
    jump_flux_bound,
    member_collar,
    release_bound,
)
from .search import (
    CrackFamily,
    EnergyLandscape,
    boundary_debond_family,
    circle_crack,
    circles_family,
    concat_families,
    explicit_family,
    localization_check,
    minimize_total,
    release_curve,
    segments_family,
)
from .quasistatic import (
    Trajectory,
    energy_balance_residual,
    evolve,
    initiation_report,
    load_horizon,
    zero_speed_check,
)
from .poincare import (
    GraphDomain,
    optimal_constant,
    random_profile,
    uniformity_sweep,
)
