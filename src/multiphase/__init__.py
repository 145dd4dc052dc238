"""Variable-exponent triple-phase operators: modular calculus, P1 finite
element solvers, and empirical regularity probes."""

__version__ = "0.1.0"

from .fields import (
    Domain2D,
    ExponentTriple,
    HypothesisReport,
    ScalarField,
    UNIT_SQUARE,
    WeightPair,
    check_h1,
    check_hprime,
    check_log_holder,
    compute_r0,
    critical_exponent,
    estimate_holder_constant,
    tighten_r0,
)
from .mesh import (
    Ball,
    FeFunction,
    QuadratureMeasure,
    TriMesh,
    ball_quadrature,
    interpolate,
    refine,
    structured_mesh,
    write_vtk,
)
from .modular import (
    ModularReport,
    PhaseFunction,
    PropertyReport,
    check_delta2,
    check_norm_modular_relations,
    check_seminorm_domination,
    check_subadditivity,
    check_uniform_convexity,
    luxemburg_norm,
    modular,
    t_value,
    weighted_seminorm,
)
from .operator import (
    FluxParams,
    check_coercive,
    check_gateaux,
    check_monotone,
    energy,
)
from .solver import (
    PhaseProblem,
    SolveReport,
    SourceTerm,
    check_h2,
    check_h3,
    first_eigenvalue,
    solve_convection,
    solve_variational,
    verify_uniqueness_empirical,
    weak_residual_sup,
)
from .regularity import (
    BallFamily,
    ProbeReport,
    boundary_higher_integrability_probe,
    caccioppoli_ratio,
    caccioppoli_truncation_ratio,
    higher_integrability_probe,
    minimize_dirichlet,
    poincare_w0_ratio,
    sobolev_poincare_ratio,
    sobolev_poincare_zero_set,
)
