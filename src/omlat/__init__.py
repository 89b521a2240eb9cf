"""Stochastic lattice dynamics with time-varying diagonal noise.

Simulation of the truncated lattice system, evaluation of the path action
whose minimizers are most-probable transition paths, a two-point
boundary-value solver for those paths, and the spectral / small-ball /
tube-probability machinery used to verify the theory at desk scale.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .action import OMReport, om_action, trace_term
from .errors import (
    ConfigurationError,
    DegenerateNoiseError,
    IntegrationError,
    OmlatError,
    StatisticalPowerError,
)
from .lattice import (
    LatticeConfig,
    PolynomialNonlinearity,
    apply_A,
    drift,
    weighted_norm,
)
from .noise import (
    NoiseCoefficient,
    NoisePath,
    sample_noise,
    shift_noise,
    wq_path,
)
from .config import load_config, parse_config, parse_q_spec
from .kl import (
    KLSpectrum,
    SmallBallMC,
    kl_spectrum,
    smallball_mc,
    smallball_rates,
    wilson_interval,
)
from .mpp import BVPSpec, MPPResult, solve_mpp
from .paths import Path
from .sde import BoundReport, apriori_bound_check, cocycle_check, integrate, truncation_tail
from .tube import TubeExperiment, TubeTable, tube_ratio

# Submodules bind themselves here on import; they are not part of the API.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
