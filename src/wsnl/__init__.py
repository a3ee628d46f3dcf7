"""Spectral Monte Carlo simulator and verification harness for a Wick-renormalized
stochastic quadratic Schrodinger equation on a periodic box."""

__version__ = "0.1.0"

from .grid import (  # noqa: F401
    CutoffRho,
    Field,
    GridError,
    SpectralGrid,
    bessel_weight,
    propagator_phase,
    truncation_mask,
)
from .noise import mode_increment_variance  # noqa: F401
from .reference import (  # noqa: F401
    PaperParams,
    ParameterError,
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
    sample_paths,
    zero_path,
)
from .studies import StudyConfig, StudyResult, run_study  # noqa: F401
