"""Stochastic economic dispatch toolkit: wind uncertainty via Karhunen-Loeve
expansions, per-scenario DC dispatch LPs, and expected-cost estimation by
Monte Carlo and sparse-quadrature polynomial chaos."""
import os

# No code path of windsed makes a threaded BLAS call, while OpenBLAS's helper
# threads spin and burn CPU from the moment numpy loads: one thread, unless
# the environment asks for another count.  Set before any module here
# imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
