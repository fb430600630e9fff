"""Built-in benchmark delay problems with reference data.

Four classic test cases: a scalar periodic equation with a known
solution, the delayed Mathieu oscillator, the scalar quasilinear
equation the first example linearizes, and a delayed SIR epidemic model
whose coefficient matrix is a graph Laplacian.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .dde import LinearDDEProblem, QuasilinearDDEProblem

# High-precision Floquet reference (semi-discretization literature,
# Insperger & Stepan) for the delayed Mathieu equation at
# delta = 1.5, epsilon = 0.5, b = -0.2, tau = T = 2*pi.
MATHIEU_REFERENCE_MULTIPLIER = complex(0.22751840350292177638239482513,
                                       1.417175174215530683457881875737)

# For delta = 2, epsilon = 1 the dominant multiplier crosses the unit
# circle at this coupling (same source, full double precision).
MATHIEU_CRITICAL_B = 0.7068337166604264


@dataclass(frozen=True)
class BenchmarkProblem:
    """A ready-to-run problem plus whatever reference data exists for it.

    ``exact`` (when present) maps a time to the exact length-d solution;
    ``reference_multiplier`` is a trusted Floquet multiplier;
    ``conserved_total`` marks population-style models whose component
    sum is invariant.  ``provenance`` says where the reference data
    comes from.
    """

    name: str
    problem: Union[LinearDDEProblem, QuasilinearDDEProblem]
    exact: Optional[Callable[[float], np.ndarray]] = None
    reference_multiplier: Optional[complex] = None
    provenance: str = ""
    conserved_total: Optional[float] = None


def example1_scalar_periodic() -> BenchmarkProblem:
    """Scalar 2*pi-periodic equation x' = cos(t) x - exp(sin t + cos t) x(t - pi/2).

    x(t) = exp(sin t) cos t solves the equation for every t (it is the
    derivative of the periodic orbit of the quasilinear problem in
    :func:`example3_scalar_nonlinear`), so mu = 1 is an exact
    characteristic multiplier and the same expression serves as initial
    function and as reference solution.  The multiplier mu = 1 is double:
    substituting x = exp(sin t) w gives w' = -w(t - pi/2), which sin t
    solves as well as cos t, so exp(sin t) sin t is a second periodic
    solution.
    """
    tau = math.pi / 2.0

    def coeff_a(t):
        return np.array([[math.cos(t)]])

    def coeff_b(t):
        return np.array([[-math.exp(math.sin(t) + math.cos(t))]])

    def exact(t):
        return np.array([math.exp(math.sin(t)) * math.cos(t)])

    problem = LinearDDEProblem(d=1, tau=tau, A=coeff_a, B=coeff_b, phi=exact,
                               period=2.0 * math.pi)
    return BenchmarkProblem(
        name="example1", problem=problem, exact=exact,
        reference_multiplier=1.0 + 0.0j,
        provenance="exp(sin t) cos t is an exact periodic solution, hence mu = 1")


def example2_delayed_mathieu(delta: float = 1.5, epsilon: float = 0.5,
                             b: float = -0.2) -> BenchmarkProblem:
    """Delayed Mathieu equation x'' + (delta + epsilon cos t) x = b x(t - 2*pi).

    First-order form with state (x, x'): A(t) = [[0, 1],
    [-(delta + epsilon cos t), 0]], and the delayed coupling enters the
    velocity equation, B = [[0, 0], [b, 0]] (b multiplies the delayed
    position inside x'').  Delay equals the principal period 2*pi.  The
    default initial function is phi(t) = (t, 1).  A high-precision
    reference multiplier is attached for the two canonical parameter
    sets.
    """
    if not all(map(math.isfinite, (delta, epsilon, b))):
        raise ValueError(f"delta, epsilon and b must be finite, got {delta!r}, {epsilon!r}, "
                         f"{b!r}")
    tau = period = 2.0 * math.pi

    def coeff_a(t):
        return np.array([[0.0, 1.0], [-(delta + epsilon * math.cos(t)), 0.0]])

    b_matrix = np.array([[0.0, 0.0], [b, 0.0]])

    def coeff_b(t):
        return b_matrix

    def phi(t):
        return np.array([t, 1.0])

    reference = None
    provenance = ""
    if (delta, epsilon, b) == (1.5, 0.5, -0.2):
        reference = MATHIEU_REFERENCE_MULTIPLIER
        provenance = ("30-digit Floquet multiplier from the semi-discretization "
                      "literature (Insperger & Stepan)")
    elif (delta, epsilon, b) == (2.0, 1.0, MATHIEU_CRITICAL_B):
        reference = 1.0 + 0.0j
        provenance = ("coupling tuned so a multiplier branch crosses the unit "
                      "circle at +1 (stability-chart boundary); other branches "
                      "are already unstable at these delta, epsilon")
    problem = LinearDDEProblem(d=2, tau=tau, A=coeff_a, B=coeff_b, phi=phi,
                               period=period)
    return BenchmarkProblem(name="mathieu", problem=problem, exact=None,
                            reference_multiplier=reference, provenance=provenance)


def example3_scalar_nonlinear() -> BenchmarkProblem:
    """Quasilinear scalar equation z' = -log(z(t - pi/2)) z(t).

    z(t) = exp(sin t) is an exact periodic solution and doubles as the
    initial function.  The coefficient evaluator rejects nonpositive
    delayed states (log domain guard).
    """
    tau = math.pi / 2.0

    def coeff(x):
        delayed = float(np.atleast_1d(x)[0])
        if delayed <= 0.0:
            raise ValueError("delayed state must stay positive (argument of log)")
        return np.array([[-math.log(delayed)]])

    def exact(t):
        return np.array([math.exp(math.sin(t))])

    problem = QuasilinearDDEProblem(d=1, tau=tau, A=coeff, phi=exact)
    return BenchmarkProblem(name="nonlinear-scalar", problem=problem, exact=exact,
                            provenance="exp(sin t) satisfies the equation identically")


def example4_delayed_sir(alpha: float = 0.0, beta: float = 1.0,
                         gamma: float = 1.0, tau: float = 1.0,
                         s0: float = 0.7, i0: float = 0.2, r0: float = 0.1,
                         history: str = "decreasing") -> BenchmarkProblem:
    """Delayed SIR model with latent period tau.

        S' = -beta S q,   I' = beta S q - gamma I,   R' = gamma I,
        q = I(t - tau) / (1 + alpha I(t - tau)).

    In quasilinear form the coefficient matrix is a graph Laplacian for
    any nonnegative delayed state (columns sum to zero, off-diagonal
    nonnegative), which is what makes the integrators conserve
    S + I + R and preserve positivity at the breaking points t = n*tau.

    alpha = 0 is the bilinear incidence rate and alpha = 1 the saturated
    one; other values are accepted with a warning.  The infected history
    is i0 - t/2 (``history="decreasing"``) or i0 + t/2 (``"increasing"``);
    S and R are held constant on [-tau, 0] since only the delayed I
    enters the dynamics.
    """
    if not (0 < beta < math.inf and 0 < gamma < math.inf):
        raise ValueError(f"beta and gamma must be positive and finite, got {beta!r}, {gamma!r}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if not all(map(math.isfinite, (s0, i0, r0))):
        raise ValueError(f"s0, i0 and r0 must be finite, got {s0!r}, {i0!r}, {r0!r}")
    if alpha not in (0.0, 1.0):
        warnings.warn("alpha outside {0, 1} has no standard epidemiological "
                      "reading; proceeding anyway", UserWarning, stacklevel=2)
    if history == "decreasing":
        slope = -0.5
    elif history == "increasing":
        slope = 0.5
    else:
        raise ValueError("history must be 'decreasing' or 'increasing'")

    def coeff(x):
        infected = float(np.atleast_1d(x)[1])
        q = beta * infected / (1.0 + alpha * infected)
        return np.array([[-q, 0.0, 0.0],
                         [q, -gamma, 0.0],
                         [0.0, gamma, 0.0]])

    def phi(t):
        return np.array([s0, i0 + slope * t, r0])

    problem = QuasilinearDDEProblem(d=3, tau=tau, A=coeff, phi=phi)
    return BenchmarkProblem(
        name="sir", problem=problem, exact=None,
        conserved_total=s0 + i0 + r0,
        provenance="columns of the coefficient matrix sum to zero, so the "
                   "total population is a first integral")


BUILTIN_PROBLEMS = {
    "example1": example1_scalar_periodic,
    "mathieu": example2_delayed_mathieu,
    "nonlinear-scalar": example3_scalar_nonlinear,
    "sir": example4_delayed_sir,
}

_ALIASES = {
    "example2": "mathieu",
    "example3": "nonlinear-scalar",
    "example4": "sir",
}


def builtin_problem(name: str, **params) -> BenchmarkProblem:
    """Look up a benchmark by name and build it with parameter overrides."""
    key = _ALIASES.get(name, name)
    try:
        factory = BUILTIN_PROBLEMS[key]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_PROBLEMS))
        raise KeyError(f"unknown problem {name!r}; available: {known}") from None
    return factory(**params)
