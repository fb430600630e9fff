"""One-step Magnus integrators of orders 2, 4 and 6 for y' = A(t) y.

Each step builds a truncated Magnus exponent from Gauss-Legendre
evaluations of A (one, two or three points) plus the few commutators the
order requires, then advances the state through one matrix exponential.
A run of consecutive steps builds its exponents in one pass, as a stack,
and exponentiates the stack in one :func:`expm` call.
For constant A every scheme reduces to exp(h*A), i.e. the step is exact
on autonomous problems regardless of h.  No bound on h ||A|| is checked:
the spectral rows alone put it at O(N^2 / M), far beyond the sufficient
condition h ||A|| < pi for the Magnus series to converge, and the schemes
still reach their order there.  A is evaluated as its varying
top rows over constant lower rows (:class:`TopRows`), the structure of
the spectrally discretized delay system.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

# commutator is not called here, but stays bound: bench/tracer.py wraps
# magnus_linear.commutator and reports a missing name as a broken target
from .linalg import commutator, expm, expm_numbers  # noqa: F401

LINEAR_ORDERS = (2, 4, 6)

_SQRT3 = math.sqrt(3.0)
_SQRT15 = math.sqrt(15.0)

# Gauss-Legendre nodes on [0, 1] of each order's quadrature
_NODES = {2: (0.5,),
          4: (0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0),
          6: (0.5 - _SQRT15 / 10.0, 0.5, 0.5 + _SQRT15 / 10.0)}


class TopRows:
    """A(t) = [top(t); lower] = L + P R(t) with P = [I_d; 0]: ``top`` maps a
    sequence of times to the stacked (d, n) rows R(t), shape (len, d, n),
    and raises ValueError for a time whose rows it rejects; ``lower`` is
    the constant (n - d, n) block of L, used by reference; None means
    d = n, an empty lower block.
    """

    def __init__(self, top, lower=None):
        self.top = top
        self.lower = lower


def _eval_matrices(A, times) -> np.ndarray:
    """A(t) at each of ``times``, stacked: one square size throughout."""
    rows = []
    for time in times:
        M = np.asarray(A(time), dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or (rows and M.shape != rows[0].shape):
            raise ValueError("matrix evaluator must return a square matrix of one size")
        rows.append(M)
    return np.array(rows)


def _omega(A: TopRows, starts, h: float, order: int) -> np.ndarray:
    """Truncated Magnus exponents of the steps from each of ``starts`` to
    start + h, stacked, shape (steps, n, n).

    The top rows at the Gauss points of every step come from one
    ``A.top`` call over the points in time order, and each formula below
    runs once over the stack.  The Gauss-point differences (order 4's
    a2 - a1, order 6's alpha2 = P x2 and alpha3 = P x3) live in the top d
    rows, so each commutator is taken in factored form, [Y, P X] =
    Y[:, :d] X - P (X Y) and [Y, U V] = (Y U) V - U (V Y), at O(d n^2)
    instead of O(n^3).  Without a lower block (d = n) the same formulas run
    over an empty one.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"step size h must be positive and finite, got {h!r}")
    if order not in _NODES:
        raise ValueError(f"order must be one of {LINEAR_ORDERS}, got {order}")
    nodes = _NODES[order]
    rows = A.top([start + c * h for start in starts for c in nodes])
    points = [rows[i::len(nodes)] for i in range(len(nodes))]
    d, n = rows.shape[-2:]

    def stacked(top, lower):
        # [top; lower], the constant lower block under every step's top rows
        out = np.empty(top.shape[:-2] + (n, n))
        out[..., :d, :] = top
        out[..., d:, :] = lower
        return out

    lower = np.empty((0, n)) if A.lower is None else A.lower
    h_lower = h * lower
    if order == 2:
        return stacked(h * points[0], h_lower)
    if order == 4:
        r1, r2 = points
        # [a1, a2] = [a1, a2 - a1] and a2 - a1 = P (r2 - r1)
        a1, diff = stacked(r1, lower), r2 - r1
        scale = h * h * _SQRT3 / 12.0
        out = stacked(0.5 * h * (r1 + r2), h_lower)
        out -= scale * (a1[..., :d] @ diff)
        out[..., :d, :] += scale * (diff @ a1)
        return out
    r1, r2, r3 = points
    alpha1 = stacked(h * r2, h_lower)
    a1d = alpha1[..., :d]
    x2 = (_SQRT15 * h / 3.0) * (r3 - r1)           # alpha2 = P x2
    x3 = (10.0 * h / 3.0) * (r3 - 2.0 * r2 + r1)   # alpha3 = P x3
    # c1 = [alpha1, alpha2] = a1d x2 - P g
    g = x2 @ alpha1
    # 2 alpha3 + c1 = a1d x2 + P u, so c2 = -[alpha1, a1d x2 + P u] / 60 is
    # U V + P w with U = [alpha1 a1d, a1d] and V = -[x2; u - g] / 60
    u = 2.0 * x3 - g
    U = np.concatenate((alpha1 @ a1d, a1d), axis=-1)
    V = (-1.0 / 60.0) * np.concatenate((x2, u - g), axis=-2)
    w = (u @ alpha1) / 60.0
    # Omega = alpha1 + alpha3 / 12 + [Z, alpha2 + c2] / 240 with
    # Z = -20 alpha1 - alpha3 + c1 and alpha2 + c2 = U V + P (x2 + w)
    # in place where the order of the operands does not change a bit: one
    # n x n temporary fewer each, at a chunk's peak
    Z = a1d @ x2
    Z -= 20.0 * alpha1
    Z[..., :d, :] -= x3 + g
    s = x2 + w
    VsZ = np.concatenate((V, s), axis=-2) @ Z
    VZ, sZ = VsZ[..., :2 * d, :], VsZ[..., 2 * d:, :]
    out = (np.concatenate((Z @ U, Z[..., :d], U), axis=-1)
           @ np.concatenate((V, s, -VZ), axis=-2))
    out *= 1.0 / 240.0
    out[..., :d, :] += x3 / 12.0 - sZ / 240.0
    out += alpha1
    return out


def step_numbers(b: int, n: int, width: int) -> int:
    """8-byte numbers one :func:`magnus_step` call over b steps holds at its
    peak at system size n, for a state of ``width`` columns: the stacked
    :func:`expm`'s, the exponents and at most five n x n temporaries of
    :func:`_omega` per step, and the states."""
    return expm_numbers(b, n) + b * n * (6 * n + width)


def magnus_step(A, t, h: float, y, order: int) -> np.ndarray:
    """Advance y' = A(t) y from (t, y) to t + h with the order-2p Magnus scheme.

    Given a sequence of step starts t_0, t_1 = t_0 + h, ... instead of one
    t, takes those steps in a row and returns the state after each,
    stacked.  Their exponents come from one :func:`_omega` pass and go
    through one stacked :func:`expm` call, a single step's as a stack of
    one, and are then applied in order; each state equals that of a loop
    of single steps bit for bit.  A point of A that fails raises
    ValueError, and so does an exponential that is not finite; a caller
    that needs the failing step retakes the steps one at a time.

    Parameters
    ----------
    A : callable or TopRows
        Maps a time to the square system matrix (same size every call),
        or gives its varying top rows and constant lower block.
    t : float or sequence of floats
        Step start, or the starts of consecutive steps.
    h : float
        Step size, 0 < h < inf.
    y : array, shape (m,) or (m, k)
        State at the (first) start; a matrix steps k columns at once, e.g.
        a fundamental matrix for Y' = A(t) Y.
    order : {2, 4, 6}
        Convergence order of the scheme; the local error is O(h^(order+1)).
    """
    if not isinstance(A, TopRows):
        A = TopRows(partial(_eval_matrices, A))
    single = np.ndim(t) == 0
    y = np.asarray(y, dtype=float)
    exponentials = expm(_omega(A, [t] if single else t, h, order))
    states = np.empty((len(exponentials),) + y.shape)
    for E, state in zip(exponentials, states):
        y = np.matmul(E, y, out=state)
    return y if single else states


# the matrix-valued step Y' = A(t) Y is the same function
magnus_step_matrix = magnus_step
