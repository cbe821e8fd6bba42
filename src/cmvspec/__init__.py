"""Numerical toolkit for multi-frequency quasi-periodic CMV operators.

The package imports no submodule, so the command-line entry point can pin
BLAS thread counts before any numerical library loads; import each
submodule by name.
"""

__version__ = "0.1.0"
