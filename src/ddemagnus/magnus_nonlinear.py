"""One-step Magnus integrators of orders 2 and 3 for the quasilinear form y' = A(y) y.

Both schemes alternate evaluations of A along provisional exponential
updates, so a step applies a handful of matrix exponentials to the
state.  By default each is a dense ``expm(M) @ y``.

For the spectrally discretized delay system only the top-left d x d
block of A(y) depends on the state; rows d.. are the constant
differentiation rows L = [L21, L22].  Every exponent the two schemes
build is then T = [[P, 0], [L21 @ W, c * L22]] with d x d blocks P and
W and a scalar c, carried as a :class:`DelayExponent`, and
:class:`BlockTriangularExpmv` applies exp(T) from tables built once per
step size instead of exponentiating the full matrix at every stage.
"""

from __future__ import annotations

import math

import numpy as np

# commutator is not called here, but stays bound: bench/tracer.py wraps
# magnus_nonlinear.commutator and reports a missing name as a broken target
from .linalg import commutator, expm  # noqa: F401

NONLINEAR_ORDERS = (2, 3)

# The series runs on P/m with ||P/m||_1 <= _THETA and stops at the first
# K with nu^K / K! <= 2^-53 (nu = ||P/m||_1); the tables hold the K
# needed at nu = _THETA.
_THETA = 1.0
_UNIT_ROUNDOFF = 2.0 ** -53


def _series_terms(nu: float) -> int:
    """Smallest K >= 1 with nu^K / K! <= 2^-53."""
    k, term = 1, nu
    while term > _UNIT_ROUNDOFF:
        k += 1
        term *= nu / k
    return k


_MAX_TERMS = _series_terms(_THETA)
_INV_FACTORIALS = np.array([1.0 / math.factorial(k) for k in range(_MAX_TERMS + 1)])


def dense_expmv(M, y) -> np.ndarray:
    """exp(M) @ y through the full matrix exponential; any square M."""
    return expm(M) @ y


class DelayExponent:
    """T = [[P, 0], [L21 @ W, c * L22]] over the constant rows [L21, L22]
    of a discretized quasilinear system, held as its d x d blocks P and W
    and the scalar c.

    Sums, differences, negation and scalar multiples act blockwise.  A
    product is formed only where it keeps this form: when the left factor
    has c = 0, or the right one has W = 0 and c = 0, T1 @ T2 is
    (P1 P2, W1 P2, 0); any other product raises ValueError.
    """

    __array_ufunc__ = None  # `numpy scalar * exponent` goes to __rmul__

    def __init__(self, P, W, c: float):
        self.P, self.W, self.c = P, W, c

    def __add__(self, other):
        return DelayExponent(self.P + other.P, self.W + other.W, self.c + other.c)

    def __sub__(self, other):
        return DelayExponent(self.P - other.P, self.W - other.W, self.c - other.c)

    def __neg__(self):
        return DelayExponent(-self.P, -self.W, -self.c)

    def __mul__(self, s):
        s = float(s)
        return DelayExponent(s * self.P, s * self.W, s * self.c)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if self.c != 0.0 and (other.c != 0.0 or other.W.any()):
            raise ValueError("product of delay exponents is not of the form "
                             "[[P, 0], [L21 W, c L22]]")
        return DelayExponent(self.P @ other.P, self.W @ other.P, 0.0)


class BlockTriangularExpmv:
    """exp(T) @ y for a :class:`DelayExponent` T of the discretized
    quasilinear system.

    ``lower`` holds the constant rows [L21, L22] of the system matrix,
    shape (n - d, n).  With R = c L22 and S = W / c,

        exp(T) y = [ sum_k P^k y1 / k! ;  e^R y2 + sum_k G_k S P^k y1 ],

    where G_k = phi_{k+1}(R) c L21.  Tables e^R and G_0..G_{K-1} come
    from one ``expm`` of [[R, c L21, 0 ...], [0, 0, I, ...], ...] of size
    (n - d) + K d (Al-Mohy & Higham 2011), built when a (c, m) pair first
    occurs.  m = 1 while ||P||_1 <= 1.  Beyond that m = 2^j with
    ||P/m||_1 <= 1: the series builds the blocks of exp(T/m) from tables
    for R/m, and j block-triangular squarings give exp(T), so a large P
    costs j small products rather than a long, cancelling series.  A
    non-finite P or W, or a c that is zero or not finite, raises
    ValueError.
    """

    def __init__(self, lower, d: int):
        lower = np.asarray(lower, dtype=float)
        if d < 1 or lower.ndim != 2 or lower.shape[1] != lower.shape[0] + d:
            raise ValueError(f"lower rows must have shape (n - {d}, n), got {lower.shape}")
        self.d = d
        self._l21 = lower[:, :d].copy()
        self._l22 = lower[:, d:].copy()
        self._tables = {}   # (c, m) -> see _table

    def _table(self, c: float, m: int) -> tuple:
        """([e^{R/m}, e^{2R/m}, ..., e^R], [G_0 ... G_{K-1}] of R/m) for
        R = c L22 and m = 2^j."""
        table = self._tables.get((c, m))
        if table is None:
            nl, d, K = self._l22.shape[0], self.d, _MAX_TERMS
            Z = np.zeros((nl + K * d, nl + K * d))
            Z[:nl, :nl] = (c / m) * self._l22
            Z[:nl, nl:nl + d] = (c / m) * self._l21
            Z[nl:nl + (K - 1) * d, nl + d:] = np.eye((K - 1) * d)
            F = expm(Z)
            squares = [F[:nl, :nl].copy()]
            while len(squares) < m.bit_length():
                squares.append(squares[-1] @ squares[-1])
            table = self._tables[(c, m)] = (squares, F[:nl, nl:].copy())
        return table

    def __call__(self, T: DelayExponent, y) -> np.ndarray:
        d, P, c = self.d, T.P, T.c
        norm = float(np.abs(P).sum(axis=0).max())
        if not (math.isfinite(norm) and np.isfinite(T.W).all()):
            raise ValueError("exponent has non-finite entries")
        if not (math.isfinite(c) and c != 0.0):
            raise ValueError(f"exponent has a zero or non-finite scale c = {c!r}")
        m = 1 if norm <= _THETA else 2 ** math.ceil(math.log2(norm / _THETA))
        squares, G = self._table(c, m)
        # m = 1: the series acts on the column y1 and gives exp(T) y directly;
        # m > 1: it builds the blocks of exp(T/m) = [[E, 0], [Y, e^{R/m}]],
        # which j block-triangular squarings turn into those of exp(T)
        y = np.asarray(y, dtype=float)
        K = _series_terms(norm / m)
        Pm, powers = P / m, [y[:d, None] if m == 1 else np.eye(d)]
        for _ in range(K):
            powers.append(Pm @ powers[-1])
        powers = np.array(powers)
        E = (_INV_FACTORIALS[:K + 1] @ powers.reshape(K + 1, -1)).reshape(powers.shape[1:])
        Y = G[:, :K * d] @ ((T.W / c) @ powers[:K]).reshape(K * d, -1)
        for B in squares[:-1]:
            Y = Y @ E + B @ Y
            E = E @ E
        if m > 1:
            E, Y = E @ y[:d, None], Y @ y[:d, None]
        return np.concatenate([E[:, 0], Y[:, 0] + squares[-1] @ y[d:]])


def _eval_state_matrix(A, y: np.ndarray):
    M = A(y)
    if isinstance(M, DelayExponent):
        return M
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("state-matrix evaluator must return a square matrix")
    return M


def nonlinear_magnus_step(A, h: float, y, order: int, *,
                          expmv=dense_expmv) -> np.ndarray:
    """Advance y' = A(y) y one step of size h with the order-2 or order-3 scheme.

    Order 2 (trapezoidal correction of the frozen exponent):
        u = h A(y);  v = (u + h A(e^u y)) / 2;  y_next = e^v y.
    Order 3 adds two more corrector evaluations and one commutator.
    Local error is O(h^(order+1)).  ``A(y)`` returns a square matrix or
    a :class:`DelayExponent`; ``expmv(M, y)`` applies exp(M) to y.  The
    default exponentiates a matrix in full, :class:`BlockTriangularExpmv`
    applies a :class:`DelayExponent`.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"step size h must be positive and finite, got {h!r}")
    y = np.asarray(y, dtype=float)
    if order == 2:
        u = h * _eval_state_matrix(A, y)
        v = 0.5 * (u + h * _eval_state_matrix(A, expmv(u, y)))
        return expmv(v, y)
    if order == 3:
        q1 = h * _eval_state_matrix(A, y)
        q2 = h * _eval_state_matrix(A, expmv(0.5 * q1, y)) - q1
        u1 = 0.5 * q1 + 0.25 * q2
        u2 = q1 + q2
        q3 = -u2 + h * _eval_state_matrix(A, expmv(u1, y))
        q4 = -u2 - q2 + h * _eval_state_matrix(A, expmv(u2, y))
        u3 = u2 + (2.0 / 3.0) * q3 + (1.0 / 6.0) * q4 - (1.0 / 6.0) * (q1 @ q2 - q2 @ q1)
        return expmv(u3, y)
    raise ValueError(f"order must be one of {NONLINEAR_ORDERS}, got {order}")
