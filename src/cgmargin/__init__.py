"""Robust stability bounds for a rank-1 real parametric uncertainty.

Builds the uncertain longitudinal aircraft model (uncertain c.g.
location), extracts the SISO M-Delta structure, and computes the exact,
small gain, circle, positive real, and Popov stability intervals.
"""

from .aircraft import (
    DimensionalDerivatives,
    DimensionlessDerivatives,
    FlightCondition,
    UncertainPlant,
    augment_uncertain_plant,
    build_uncertain_plant,
    dimensionalize,
    load_default_model,
    load_model_file,
)
from .criteria import (
    CRITERIA,
    StabilityInterval,
    VerificationReport,
    circle_bounds,
    exact_bounds,
    popov_bounds,
    positive_real_bounds,
    sample_locus,
    small_gain_bounds,
    verify_interval,
)
from .lti import (
    FrequencyLocus,
    StateSpace,
    freq_response,
    imaginary_zeros,
    ss_from_zpk,
    zpk_of_ss,
)
from .mdelta import MDeltaModel, build_mdelta, closed_loop_uncertain, m_transfer, rank_one_factor
from .pipeline import AnalysisConfig, AnalysisResult, build_session, run_analysis

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "CRITERIA",
    "DimensionalDerivatives",
    "DimensionlessDerivatives",
    "FlightCondition",
    "FrequencyLocus",
    "MDeltaModel",
    "StabilityInterval",
    "StateSpace",
    "UncertainPlant",
    "VerificationReport",
    "augment_uncertain_plant",
    "build_mdelta",
    "build_session",
    "build_uncertain_plant",
    "circle_bounds",
    "closed_loop_uncertain",
    "dimensionalize",
    "exact_bounds",
    "freq_response",
    "imaginary_zeros",
    "load_default_model",
    "load_model_file",
    "m_transfer",
    "popov_bounds",
    "positive_real_bounds",
    "rank_one_factor",
    "run_analysis",
    "sample_locus",
    "small_gain_bounds",
    "ss_from_zpk",
    "verify_interval",
    "zpk_of_ss",
]
