"""Arbitrary-precision toolkit for a band-limited L1 extremal problem.

The package computes the extremal constant of the problem (the best
constant C relating the value of a Paley-Wiener function at a point to its
L1 norm), reconstructs the extremal function and its entire factor, and
ships verification suites for the algebraic identities satisfied by these
objects: differential and functional equations, zero asymptotics, Fourier
representations, summation formulas, and Dirichlet-type series built over
the zero set.

Entry points:

* :func:`pwextremal.spectral.solve_constants` for the constants,
* :mod:`pwextremal.extremal` for Taylor models, zeros, and identity checks,
* :mod:`pwextremal.fourier` for the transform-side objects,
* :mod:`pwextremal.lseries` for series over the zeros and the conjecture
  probes,
* ``pwx`` (:mod:`pwextremal.cli`) for the command line.
"""

__version__ = "0.1.0"

from .mpcore import UsageError  # noqa: F401
