"""Numerical toolkit for constrained HJB equations with face-lifted terminal
data and Monte-Carlo certification of stochastic sub/super-solutions."""

from .certify import (
    BracketConfig,
    CandidateFunction,
    CertificationReport,
    CertifyConfig,
    bracket_report,
    candidate_from_solution,
    certify_subsolution,
    certify_supersolution,
    constant_candidate,
    lattice_max,
    lattice_min,
    merton_candidate,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DomainError,
    GridMismatchError,
    NumericalError,
)
from .facelift import concave_envelope, facelift_general
from .grids import Box, GridFunction, SpatialGrid, log_grid, uniform_grid
from .oracles import heat_value, merton_lambda, merton_optimal_control, merton_value
from . import problem
from .problem import (
    ControlProblem,
    constant_coefficient_problem,
    heat_problem,
    merton_problem,
    proportional_control_problem,
)
from .simulate import (
    FeedbackPolicy,
    PathEnsemble,
    constant_policy,
    estimate_value,
    simulate_paths,
)
from .solver import (
    SchemeConfig,
    SpaceTimeSolution,
    convergence_study,
    extract_policy,
    solve_hjb,
)

__version__ = "0.1.0"
