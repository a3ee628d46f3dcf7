"""Spectral Monte Carlo simulator and verification harness for a Wick-renormalized
stochastic quadratic Schrodinger equation on a periodic box."""

__version__ = "0.1.0"

from .grid import (  # noqa: F401
    CutoffRho,
    Field,
    GridError,
    SpectralGrid,
    apply_bessel,
    apply_multiplier,
    apply_propagator,
    apply_truncation,
    bessel_weight,
    forward,
    inverse,
    localized_norm,
    pointwise_product,
    propagator_phase,
    sobolev_norm,
    truncation_mask,
)
from .noise import mode_increment_variance  # noqa: F401
from .reference import (  # noqa: F401
    PaperParams,
    ParameterError,
    SmoothingGain,
    alpha_threshold,
    covariance_oracle,
    is_admissible,
    kappa,
    renorm_constant,
)
from .solver import SolverConfig, SolverOutput, StepFailure, solve  # noqa: F401
from .stochastic import (  # noqa: F401
    PathEnsemble,
    StochasticPath,
    sample_path,
    zero_path,
)
from .studies import StudyConfig, StudyResult, default_config, run_study  # noqa: F401
