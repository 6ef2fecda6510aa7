"""Defaults of the Monte Carlo checks, kept free of numpy.

The command-line parser reads these without importing the sampling
engine, which needs numpy.
"""

DEFAULT_COUNT = 1_000_000
DEFAULT_ORDER = 4
DEFAULT_Z = 5.0
