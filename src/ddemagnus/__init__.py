"""Spectral-Magnus toolkit for delay differential equations.

Delay problems are reduced to stiff linear (or quasilinear) ODE systems
by Chebyshev collocation of the delay window, then advanced with
one-step Magnus integrators; periodic problems additionally get Floquet
analysis through the monodromy matrix.
"""

__version__ = "0.1.0"

from .spectral import (ChebyshevGrid, OutOfRangeError, chebyshev_nodes,
                       differentiation_matrix, interpolate_window)
from .linalg import (NumericalFailure, commutator, eigenvalues, expm,
                     sort_spectrum)
from .magnus_linear import LINEAR_ORDERS, magnus_step, magnus_step_matrix
from .magnus_nonlinear import NONLINEAR_ORDERS, nonlinear_magnus_step
from .dde import (DiscretizedSystem, LinearDDEProblem, MonodromyResult,
                  QuasilinearDDEProblem, Trajectory, discretize, monodromy,
                  solve, stability_verdict)
from .models import (BenchmarkProblem, MATHIEU_CRITICAL_B,
                     MATHIEU_REFERENCE_MULTIPLIER, builtin_problem,
                     example1_scalar_periodic, example2_delayed_mathieu,
                     example3_scalar_nonlinear, example4_delayed_sir)

__all__ = [
    "ChebyshevGrid", "OutOfRangeError", "chebyshev_nodes",
    "differentiation_matrix", "interpolate_window",
    "NumericalFailure", "commutator", "eigenvalues", "expm", "sort_spectrum",
    "LINEAR_ORDERS", "magnus_step", "magnus_step_matrix",
    "NONLINEAR_ORDERS", "nonlinear_magnus_step",
    "DiscretizedSystem", "LinearDDEProblem", "MonodromyResult",
    "QuasilinearDDEProblem", "Trajectory", "discretize", "monodromy",
    "solve", "stability_verdict", "BenchmarkProblem",
    "MATHIEU_CRITICAL_B", "MATHIEU_REFERENCE_MULTIPLIER", "builtin_problem",
    "example1_scalar_periodic", "example2_delayed_mathieu",
    "example3_scalar_nonlinear", "example4_delayed_sir",
]
