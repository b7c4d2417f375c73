"""Small-noise mean-field jump diffusions: simulation, rate functions, checks."""

__version__ = "0.1.0"

from .core import (
    Control,
    LawSummary,
    MdpControl,
    ModelSpec,
    Path,
    TimeGrid,
    make_time_grid,
    null_control,
    null_mdp_control,
)
from .dynamics import (
    Lane,
    ParticleEnsemble,
    simulate_controlled_frozen,
    simulate_controlled_selfconsistent,
    simulate_lanes,
    simulate_mdp_controlled,
    simulate_mvsde,
)
from .errors import (
    DivergenceError,
    GridMismatchError,
    InvalidArgumentError,
    InvalidControlError,
    MvsdeError,
    NoConvergenceError,
    NumericError,
    UnsupportedError,
)
from .levy import IntensityMeasure, JumpStream, sample_controlled_prm, sample_prm
from .models import get_model, list_models, load_model_file
from .rate import (
    EventSpec,
    OptimizerConfig,
    RateResult,
    ell,
    ldp_rate,
    mdp_cost,
    mdp_rate,
    q1_cost,
    q2_cost,
)
from .skeleton import (
    SkeletonSolution,
    jacobian_b_x,
    solve_ldp_skeleton,
    solve_limit_ode,
    solve_mdp_skeleton,
)
from .verify import (
    ConvergenceReport,
    DemoReport,
    SlopeReport,
    check_controlled_convergence,
    check_ldp,
    check_limit_convergence,
    check_mdp,
    demo_frozen_vs_selfconsistent,
    fit_rate_extrapolation,
)

__all__ = [
    "__version__",
    # core types
    "TimeGrid", "Path", "Control", "MdpControl", "LawSummary",
    "ModelSpec", "make_time_grid", "null_control", "null_mdp_control",
    # errors
    "MvsdeError", "InvalidArgumentError", "GridMismatchError",
    "InvalidControlError", "UnsupportedError", "NumericError",
    "DivergenceError", "NoConvergenceError",
    # jump noise
    "IntensityMeasure", "JumpStream", "sample_prm", "sample_controlled_prm",
    # models
    "get_model", "list_models", "load_model_file",
    # deterministic solvers
    "SkeletonSolution", "solve_limit_ode", "solve_ldp_skeleton",
    "solve_mdp_skeleton", "jacobian_b_x",
    # stochastic simulation
    "ParticleEnsemble", "simulate_mvsde", "simulate_controlled_frozen",
    "simulate_controlled_selfconsistent", "simulate_mdp_controlled",
    "Lane", "simulate_lanes",
    # rate functions
    "EventSpec", "OptimizerConfig", "RateResult",
    "ell", "q1_cost", "q2_cost", "mdp_cost", "ldp_rate", "mdp_rate",
    # verification
    "SlopeReport", "ConvergenceReport", "DemoReport",
    "check_ldp", "check_mdp", "check_limit_convergence",
    "check_controlled_convergence", "demo_frozen_vs_selfconsistent",
    "fit_rate_extrapolation",
]
