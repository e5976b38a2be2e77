"""Pairwise maximum-entropy (Ising) modelling of binarized market data.

Infers coupling/field models from ±1 orientation matrices, validates them
against exact small-system enumeration, TAP mean-field theory and Glauber
sampling, and characterizes coupling distributions and correlation spectra.
"""

__version__ = "0.1.0"

from .errors import ToolkitError
from .exact import (
    EntropyReport,
    entropy_empirical,
    entropy_exact,
    entropy_independent,
    exact_moments,
    fit_maxent_exact,
    gibbs_probabilities,
    log_partition,
    multi_information_ratio,
)
from .ingest import OhlcFormat, PriceSeries, SpinMatrix, binarize, parse_ohlc
from .inverse import nmf_invert, plm_fit, tap_invert
from .model import FitReport, IsingModel
from .moments import (
    MomentSet,
    Spectrum,
    correlation_spectrum,
    covariance_spectrum,
    empirical_moments,
    finite_size_band,
    marchenko_pastur_bounds,
)
from .sampler import NoiseReport, SamplerConfig, glauber_sample, noise_ratio
from .stats import (
    NormalityReport,
    ScalingFit,
    bias_decomposition,
    critical_spectrum_demo,
    negative_fraction,
    normality_tests,
    powerlaw_fit,
    qq_compare,
    trim_upper_tail,
)
from .tap import TapSolution, stability_x, tap_fixed_point

__all__ = [
    "EntropyReport",
    "FitReport",
    "IsingModel",
    "MomentSet",
    "NoiseReport",
    "NormalityReport",
    "OhlcFormat",
    "PriceSeries",
    "SamplerConfig",
    "ScalingFit",
    "Spectrum",
    "SpinMatrix",
    "TapSolution",
    "ToolkitError",
    "binarize",
    "bias_decomposition",
    "correlation_spectrum",
    "covariance_spectrum",
    "critical_spectrum_demo",
    "empirical_moments",
    "entropy_empirical",
    "entropy_exact",
    "entropy_independent",
    "exact_moments",
    "finite_size_band",
    "fit_maxent_exact",
    "gibbs_probabilities",
    "glauber_sample",
    "log_partition",
    "marchenko_pastur_bounds",
    "multi_information_ratio",
    "negative_fraction",
    "nmf_invert",
    "noise_ratio",
    "normality_tests",
    "parse_ohlc",
    "plm_fit",
    "powerlaw_fit",
    "qq_compare",
    "stability_x",
    "tap_fixed_point",
    "tap_invert",
    "trim_upper_tail",
]
