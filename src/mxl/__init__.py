"""Matrix exponential learning for stochastic games on trace-bounded PSD sets."""

from .spectral import (
    DomainError,
    Spectrahedron,
    dual_norm,
    entropy_conjugate,
    entropy_gradient,
    fenchel_coupling,
    hermitize,
    mirror_map,
    nuclear_norm,
    quantum_kl,
    trace_inner,
)
from .games import (
    BilinearGame,
    GameModel,
    LinearGame,
    PlayerSpec,
    StabilityReport,
    ZeroGame,
    check_hessian_definiteness,
    check_monotonicity,
    check_variational_stability,
    finite_diff_gradient_check,
    hessian_quadratic_form,
    nash_residual,
)
from .solver import (
    AsyncSchedule,
    ConfigurationError,
    NoiseModel,
    NonFiniteGradientError,
    RunTrace,
    SolverConfig,
    StepSchedule,
    inject_noise,
    profile_kl,
    relative_sigma,
    run,
    run_async,
)
from .families import (
    ChannelSet,
    EeGame,
    MacGame,
    MetricLearningProblem,
    make_cluster_dataset,
    scalar_profile,
    synth_channels,
    transform_q_to_x,
    transform_x_to_q,
    uniform_baseline,
)
from .verify import (
    ConvergenceError,
    RateFit,
    StrongStabilityEstimate,
    brute_force_ne,
    estimate_strong_stability,
    max_sampled_gradient_norm,
    rate_experiment,
)

__version__ = "0.1.0"
