"""One-step Magnus integrators of orders 2, 4 and 6 for y' = A(t) y.

Each step builds a truncated Magnus exponent from Gauss-Legendre
evaluations of A (one, two or three points) plus the few commutators the
order requires, then advances the state through one matrix exponential.
For constant A every scheme reduces to exp(h*A), i.e. the step is exact
on autonomous problems regardless of h.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .linalg import commutator, expm

LINEAR_ORDERS = (2, 4, 6)

_SQRT3 = math.sqrt(3.0)
_SQRT15 = math.sqrt(15.0)


class MagnusConvergenceWarning(UserWarning):
    """Step size exceeds the safeguard under which the Magnus series is
    guaranteed to converge.  The step is still taken; in practice the
    bound is very pessimistic for stiff spectral operators."""


def _eval_matrix(A, time: float) -> np.ndarray:
    M = np.asarray(A(time), dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix evaluator must return a square matrix")
    return M


def _check_convergence_bound(midpoint_matrix: np.ndarray, h: float) -> None:
    # 2-norm estimated as sqrt(norm_1 * norm_inf) to avoid an SVD
    abs_m = np.abs(midpoint_matrix)
    est = math.sqrt(abs_m.sum(axis=0).max() * abs_m.sum(axis=1).max())
    if h * est >= math.pi:
        warnings.warn(
            f"step size may exceed the Magnus convergence safeguard: "
            f"h * ||A(midpoint)||_2 ~ {h * est:.3g} >= pi",
            MagnusConvergenceWarning, stacklevel=4)


def _omega(A, t: float, h: float, order: int) -> np.ndarray:
    """Truncated Magnus exponent for one step from t to t + h."""
    if h <= 0:
        raise ValueError("step size h must be positive")
    if order == 2:
        a_mid = _eval_matrix(A, t + 0.5 * h)
        _check_convergence_bound(a_mid, h)
        return h * a_mid
    if order == 4:
        a1 = _eval_matrix(A, t + (0.5 - _SQRT3 / 6.0) * h)
        a2 = _eval_matrix(A, t + (0.5 + _SQRT3 / 6.0) * h)
        # the Gauss-point mean stands in for A(midpoint): no third evaluation
        _check_convergence_bound(0.5 * (a1 + a2), h)
        return 0.5 * h * (a1 + a2) - (h * h * _SQRT3 / 12.0) * commutator(a1, a2)
    if order == 6:
        a1 = _eval_matrix(A, t + (0.5 - _SQRT15 / 10.0) * h)
        a2 = _eval_matrix(A, t + 0.5 * h)
        a3 = _eval_matrix(A, t + (0.5 + _SQRT15 / 10.0) * h)
        _check_convergence_bound(a2, h)
        alpha1 = h * a2
        alpha2 = (_SQRT15 * h / 3.0) * (a3 - a1)
        alpha3 = (10.0 * h / 3.0) * (a3 - 2.0 * a2 + a1)
        c1 = commutator(alpha1, alpha2)
        c2 = (-1.0 / 60.0) * commutator(alpha1, 2.0 * alpha3 + c1)
        return (alpha1 + alpha3 / 12.0
                + (1.0 / 240.0) * commutator(-20.0 * alpha1 - alpha3 + c1,
                                             alpha2 + c2))
    raise ValueError(f"order must be one of {LINEAR_ORDERS}, got {order}")


def magnus_step(A, t: float, h: float, y, order: int, *, memo=None) -> np.ndarray:
    """Advance y' = A(t) y from (t, y) to t + h with the order-2p Magnus scheme.

    Parameters
    ----------
    A : callable
        Maps a time to the square system matrix (same size every call).
    t, h : float
        Step start and step size, h > 0.
    y : array, shape (m,)
        State at time t.
    order : {2, 4, 6}
        Convergence order of the scheme; the local error is O(h^(order+1)).
    memo : dict, optional
        Step exponentials keyed by ``(t, h)``: a hit reuses the stored
        exp(Omega) without evaluating A, a miss computes and stores it.
        One dict must serve a single A and order.
    """
    exponential = None if memo is None else memo.get((t, h))
    if exponential is None:
        exponential = expm(_omega(A, t, h, order))
        if memo is not None:
            memo[(t, h)] = exponential
    return exponential @ np.asarray(y, dtype=float)


def magnus_step_matrix(A, t: float, h: float, Y, order: int, *, memo=None) -> np.ndarray:
    """Matrix-valued variant of :func:`magnus_step` for Y' = A(t) Y.

    Used to propagate fundamental matrices (e.g. all columns of a
    monodromy computation in a single pass).
    """
    if np.ndim(Y) != 2:
        raise ValueError("Y must be a matrix")
    return magnus_step(A, t, h, Y, order, memo=memo)
