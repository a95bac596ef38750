"""Exact enumeration and genus statistics for 2-bridge knots.

Billiard table words over {+,-} are reduced to run form and enumerated
as model words per crossing number.  One pass over a model word's runs
gives each crossing of its alternating diagram a generator, a smoothing
and a viability flag; analyze folds these into the Seifert circle count
2 + #viable and the genus, and run_census aggregates the analyses into
exact (fraction-valued) census statistics with a closed-form lower
bound on the average genus.  A planar-diagram oracle redraws each
diagram from its generators alone and checks the smoothings and circle
counts that analyze reports.
"""

__version__ = "0.1.0"

from .census import lower_bound_avg_genus, model_count, run_census
from .diagram import analyze, genus
from .words import RunWord, enumerate_model_words, normalize_to_model, reduce

__all__ = [
    "RunWord",
    "analyze",
    "enumerate_model_words",
    "genus",
    "lower_bound_avg_genus",
    "model_count",
    "normalize_to_model",
    "reduce",
    "run_census",
]
