"""One-step Magnus integrators of orders 2, 4 and 6 for y' = A(t) y.

Each step builds a truncated Magnus exponent from Gauss-Legendre
evaluations of A (one, two or three points) plus the few commutators the
order requires, then advances the state through one matrix exponential.
For constant A every scheme reduces to exp(h*A), i.e. the step is exact
on autonomous problems regardless of h.  A is evaluated as its varying
top rows over constant lower rows (:class:`TopRows`), the structure of
the spectrally discretized delay system.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from functools import partial

import numpy as np

from .linalg import commutator, expm

LINEAR_ORDERS = (2, 4, 6)

_SQRT3 = math.sqrt(3.0)
_SQRT15 = math.sqrt(15.0)

# (t, h ||A||_2 estimate) of each step over the convergence safeguard while
# a caller collects them (collected_safeguard); None warns at each such step
_SAFEGUARD_HITS: ContextVar = ContextVar("safeguard_hits", default=None)

# Gauss-Legendre nodes on [0, 1] of each order's quadrature
_NODES = {2: (0.5,),
          4: (0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0),
          6: (0.5 - _SQRT15 / 10.0, 0.5, 0.5 + _SQRT15 / 10.0)}


class MagnusConvergenceWarning(UserWarning):
    """Step size exceeds the safeguard under which the Magnus series is
    guaranteed to converge.  The step is still taken; in practice the
    bound is very pessimistic for stiff spectral operators."""


class TopRows:
    """A(t) = [top(t); lower] = L + P R(t) with P = [I_d; 0]: ``top`` maps
    a time to the (d, n) rows R(t), ``lower`` is the constant (n - d, n)
    block of L, used by reference; None means d = n.  The |lower| column
    sums and largest row sum feed the convergence safeguard.
    """

    def __init__(self, top, lower=None):
        self.top = top
        self.lower = lower
        if lower is None:
            self.lower_col_sums, self.lower_row_max = 0.0, 0.0
        else:
            abs_lower = np.abs(lower)
            self.lower_col_sums = abs_lower.sum(axis=0)
            self.lower_row_max = float(abs_lower.sum(axis=1).max(initial=0.0))


def _eval_matrix(A, time: float) -> np.ndarray:
    M = np.asarray(A(time), dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix evaluator must return a square matrix")
    return M


@contextmanager
def collected_safeguard():
    """Collect the convergence-safeguard hits of the steps taken inside the
    block as (step start, h ||A||_2 estimate) pairs, in step order, instead
    of warning at each: a driver can then warn once for many steps."""
    hits = []
    token = _SAFEGUARD_HITS.set(hits)
    try:
        yield hits
    finally:
        _SAFEGUARD_HITS.reset(token)


def _check_convergence_bound(A: TopRows, top: np.ndarray, t: float, h: float) -> None:
    # 2-norm of [top; lower] estimated as sqrt(norm_1 * norm_inf) to avoid an SVD
    abs_top = np.abs(top)
    est = h * math.sqrt((A.lower_col_sums + abs_top.sum(axis=0)).max()
                        * max(A.lower_row_max, abs_top.sum(axis=1).max()))
    if est >= math.pi:
        hits = _SAFEGUARD_HITS.get()
        if hits is not None:
            hits.append((t, est))
            return
        # stacklevel 4: past _omega and magnus_step(_matrix), their caller
        warnings.warn(
            f"step size may exceed the Magnus convergence safeguard: "
            f"h * ||A(midpoint)||_2 ~ {est:.3g} >= pi",
            MagnusConvergenceWarning, stacklevel=4)


def _dense_omega(rows, h: float, order: int) -> np.ndarray:
    """The exponent of :func:`_omega` from full matrices at the Gauss points,
    with dense commutators."""
    if order == 2:
        return h * rows[0]
    if order == 4:
        r1, r2 = rows
        return 0.5 * h * (r1 + r2) - (h * h * _SQRT3 / 12.0) * commutator(r1, r2)
    r1, r2, r3 = rows
    alpha1 = h * r2
    alpha2 = (_SQRT15 * h / 3.0) * (r3 - r1)
    alpha3 = (10.0 * h / 3.0) * (r3 - 2.0 * r2 + r1)
    c1 = commutator(alpha1, alpha2)
    c2 = (-1.0 / 60.0) * commutator(alpha1, 2.0 * alpha3 + c1)
    return (alpha1 + alpha3 / 12.0
            + commutator(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0)


def _omega(A: TopRows, t: float, h: float, order: int) -> np.ndarray:
    """Truncated Magnus exponent for one step from t to t + h.

    The Gauss-point differences (order 4's a2 - a1, order 6's alpha2 =
    P x2 and alpha3 = P x3) live in the top d rows, so each commutator is
    taken in factored form, [Y, P X] = Y[:, :d] X - P (X Y) and
    [Y, U V] = (Y U) V - U (V Y), at O(d n^2) instead of O(n^3).  Without
    a lower block (d = n) the factors are wider than the matrices, so the
    commutators are taken dense.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    if order not in _NODES:
        raise ValueError(f"order must be one of {LINEAR_ORDERS}, got {order}")
    rows = [A.top(t + c * h) for c in _NODES[order]]
    # A(midpoint); order 4 has no midpoint evaluation, the Gauss-point mean stands in
    _check_convergence_bound(A, 0.5 * (rows[0] + rows[1]) if order == 4
                             else rows[len(rows) // 2], t, h)
    if A.lower is None:
        return _dense_omega(rows, h, order)
    d, n = rows[0].shape
    lower = A.lower
    if order == 2:
        return np.concatenate((h * rows[0], h * lower))
    if order == 4:
        r1, r2 = rows
        # [a1, a2] = [a1, a2 - a1] and a2 - a1 = P (r2 - r1)
        a1, diff = np.concatenate((r1, lower)), r2 - r1
        scale = h * h * _SQRT3 / 12.0
        out = np.concatenate((0.5 * h * (r1 + r2), h * lower))
        out -= scale * (a1[:, :d] @ diff)
        out[:d] += scale * (diff @ a1)
        return out
    r1, r2, r3 = rows
    alpha1 = np.concatenate((h * r2, h * lower))
    a1d = alpha1[:, :d]
    x2 = (_SQRT15 * h / 3.0) * (r3 - r1)           # alpha2 = P x2
    x3 = (10.0 * h / 3.0) * (r3 - 2.0 * r2 + r1)   # alpha3 = P x3
    # c1 = [alpha1, alpha2] = a1d x2 - P g
    g = x2 @ alpha1
    # 2 alpha3 + c1 = a1d x2 + P u, so c2 = -[alpha1, a1d x2 + P u] / 60 is
    # U V + P w with U = [alpha1 a1d, a1d] and V = -[x2; u - g] / 60
    u = 2.0 * x3 - g
    U = np.concatenate((alpha1 @ a1d, a1d), axis=1)
    V = (-1.0 / 60.0) * np.concatenate((x2, u - g))
    w = (u @ alpha1) / 60.0
    # Omega = alpha1 + alpha3 / 12 + [Z, alpha2 + c2] / 240 with
    # Z = -20 alpha1 - alpha3 + c1 and alpha2 + c2 = U V + P (x2 + w)
    Z = -20.0 * alpha1 + a1d @ x2
    Z[:d] -= x3 + g
    s = x2 + w
    VsZ = np.concatenate((V, s)) @ Z
    VZ, sZ = VsZ[:2 * d], VsZ[2 * d:]
    out = (1.0 / 240.0) * (np.concatenate((Z @ U, Z[:, :d], U), axis=1)
                           @ np.concatenate((V, s, -VZ)))
    out[:d] += x3 / 12.0 - sZ / 240.0
    out += alpha1
    return out


def magnus_step(A, t: float, h: float, y, order: int) -> np.ndarray:
    """Advance y' = A(t) y from (t, y) to t + h with the order-2p Magnus scheme.

    Parameters
    ----------
    A : callable or TopRows
        Maps a time to the square system matrix (same size every call),
        or gives its varying top rows and constant lower block.
    t, h : float
        Step start and step size, h > 0.
    y : array, shape (m,)
        State at time t.
    order : {2, 4, 6}
        Convergence order of the scheme; the local error is O(h^(order+1)).

    A step over the convergence safeguard warns from the caller, unless
    it runs inside :func:`collected_safeguard`.
    """
    if not isinstance(A, TopRows):
        A = TopRows(partial(_eval_matrix, A))
    return expm(_omega(A, t, h, order)) @ np.asarray(y, dtype=float)


def magnus_step_matrix(A, t: float, h: float, Y, order: int) -> np.ndarray:
    """Matrix-valued variant of :func:`magnus_step` for Y' = A(t) Y.

    Used to propagate fundamental matrices (e.g. all columns of a
    monodromy computation in a single pass, or the products of a period's
    step exponentials).
    """
    if np.ndim(Y) != 2:
        raise ValueError("Y must be a matrix")
    if not isinstance(A, TopRows):
        A = TopRows(partial(_eval_matrix, A))
    return expm(_omega(A, t, h, order)) @ np.asarray(Y, dtype=float)
