"""Exact Ext computations over truncated polynomial coalgebras, their limit
over truncation levels, closed-form cross-checks, and Adams-style charts."""

from .grading import RO2Degree, CobarMonomial, binom_mod2

__version__ = "0.1.0"

__all__ = ["RO2Degree", "CobarMonomial", "binom_mod2", "__version__"]
