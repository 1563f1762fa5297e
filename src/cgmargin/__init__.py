"""Robust stability bounds for a rank-1 real parametric uncertainty.

Builds the uncertain longitudinal aircraft model (uncertain c.g.
location), extracts the SISO M-Delta structure, and computes the exact,
small gain, circle, positive real, and Popov stability intervals.
"""

from .criteria import sample_locus
from .mdelta import model_of
from .pipeline import AnalysisConfig, analyze_model, build_session, run_analysis

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "analyze_model",
    "build_session",
    "model_of",
    "run_analysis",
    "sample_locus",
]
