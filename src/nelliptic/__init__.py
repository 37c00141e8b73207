"""Locally uniformly elliptic operators: evaluation and ellipticity probes,
monotone Dirichlet solvers, convex-envelope/ABP geometry, and pointwise
Holder-regularity estimation against sharp closed-form examples."""

from .errors import NellipticError
from .fixtures import AnalyticFunction, fixture, fixture_claims, parse_fixture
from .geometry import (
    EnvelopeResult,
    SectionNormalization,
    abp_check,
    john_normalize,
    lower_convex_envelope,
    mvee,
    section,
)
from .grid import GridFunction, read_grid, write_grid
from .operators import (
    Jet,
    OperatorSpec,
    StructureConstants,
    SymMatrix,
    eigenvalues_sym,
    ellipticity_probe,
    evaluate,
    evaluate_many,
    is_k_admissible,
    pucci,
    shift,
    sigma_k,
)
from .polyfit import (
    MinimaxFit,
    Polynomial,
    ball_samples,
    minimax_fit,
    taylor_of,
)
from .regularity import (
    CampanatoConfig,
    RegularityReport,
    ViscosityReport,
    campanato_table,
    check_viscosity,
    estimate_exponent,
    holder_seminorm,
    oscillation_profile,
)
from .solver import (
    SolveConfig,
    SolveInfo,
    residual,
    solve_linear,
    solve_mean_curvature,
    solve_monge_ampere,
    solve_pucci,
)

__version__ = "0.1.0"
