"""Newton-flow solver for nonlinear operator equations on Sobolev scales."""

from .conditions import (
    AdmissibilityVerdict,
    ConstantsReport,
    EstimationError,
    admissibility_check,
    estimate_constants,
    r_bound,
    rho_max,
)
from .flow import (
    FlowConfig,
    Trajectory,
    TrajectorySample,
    decay_fit,
    integrate_flow,
    residual,
    verify_trajectory_bounds,
)
from .newton_lab import (
    ClassicalIFTConfig,
    ContractionEscapeError,
    ConvergenceError,
    IterationRecord,
    LossProbeResult,
    contraction_solve,
    newton_solve,
    newton_step,
    smoothing_loss_probe,
)
from .operators import (
    DegenerateCoefficient,
    LinearSmoothing,
    ProblemSetup,
    QuadraticVolterra,
    ScaleOperator,
    dsm_vector_field,
    make_operator,
)
from .scale import (
    GridFunction,
    GridMismatchError,
    ball_distance,
    derivative,
    integrate_from_zero,
    read_grid_csv,
    sobolev_norm,
    write_grid_csv,
)

__version__ = "0.1.0"
