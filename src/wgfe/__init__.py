"""Weighted grouped fixed effects estimation for panel data.

Linear panel models with latent unit groupings, where groups differ both in
their time-effect paths and in their error scales.  The weighted estimator
clusters units and estimates slopes jointly while discounting noisy groups;
the unweighted grouped fixed effects estimator is included as the baseline,
along with inference helpers, a covariance-based extension, a simulation
laboratory, and a command line interface.
"""

import logging

from .errors import (
    DuplicateCellError,
    EmptyGroupError,
    GroupCountMismatchError,
    IllConditionedError,
    NonConvergenceError,
    NonSpdError,
    ParseError,
    SingularDesignError,
    UnbalancedPanelError,
    WgfeError,
)
from .model import (
    GroupAssignment,
    GroupParameters,
    ObjectiveBreakdown,
    PanelDataset,
    gfe_assign,
    gfe_objective,
    group_ssr,
    residual_profiles,
    sigma_floor,
    wgfe_assign,
    wgfe_objective,
)
from .solvers import (
    EstimationResult,
    SolverConfig,
    initialize,
    lloyd,
    multi_start,
    solve_theta_fixed_point,
    vns,
)
from .inference import (
    GroupCandidate,
    GroupSelection,
    HomoskedasticityTest,
    InferenceResult,
    homoskedasticity_test,
    select_n_groups,
    variance_estimates,
)
from .ggfe import (
    SoftAssignment,
    SpdMatrix,
    assignment_gradient,
    barycenter_fixed_point,
    ggfe_descent,
    ggfe_objective,
    group_covariances,
)
from .simlab import (
    AR1Covariates,
    FixedCovariates,
    SimpleCaseResult,
    SimulationSpec,
    StudyReport,
    generate,
    misclassification_rate,
    run_study,
    simple_case_misclass,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "PanelDataset",
    "GroupAssignment",
    "GroupParameters",
    "ObjectiveBreakdown",
    "group_ssr",
    "wgfe_objective",
    "gfe_objective",
    "wgfe_assign",
    "gfe_assign",
    "residual_profiles",
    "sigma_floor",
    "SolverConfig",
    "EstimationResult",
    "solve_theta_fixed_point",
    "initialize",
    "lloyd",
    "vns",
    "multi_start",
    "InferenceResult",
    "HomoskedasticityTest",
    "GroupCandidate",
    "GroupSelection",
    "variance_estimates",
    "homoskedasticity_test",
    "select_n_groups",
    "SpdMatrix",
    "SoftAssignment",
    "group_covariances",
    "barycenter_fixed_point",
    "ggfe_objective",
    "assignment_gradient",
    "ggfe_descent",
    "SimulationSpec",
    "AR1Covariates",
    "FixedCovariates",
    "StudyReport",
    "SimpleCaseResult",
    "generate",
    "misclassification_rate",
    "simple_case_misclass",
    "run_study",
    "WgfeError",
    "EmptyGroupError",
    "SingularDesignError",
    "NonConvergenceError",
    "GroupCountMismatchError",
    "NonSpdError",
    "IllConditionedError",
    "ParseError",
    "DuplicateCellError",
    "UnbalancedPanelError",
    "__version__",
]
