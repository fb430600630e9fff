"""One-step Magnus integrators of orders 2 and 3 for the quasilinear form y' = A(y) y.

Both schemes alternate evaluations of A along provisional exponential
updates, so a step applies a handful of matrix exponentials to the
state.  By default each is a dense ``expm(M) @ y``.

For the spectrally discretized delay system only the top-left d x d
block of A(y) depends on the state; rows d.. are the constant
differentiation rows L = [L21, L22].  Every exponent the two schemes
build is then block lower triangular, T = [[P, 0], [c*L21 @ S, c*L22]]
with a scalar c (h or h/2) and d x d blocks P and S, and
:class:`BlockTriangularExpmv` applies exp(T) from tables built once per
step size instead of exponentiating the full matrix at every stage.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import commutator, expm

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


def structure_check(M, d: int) -> bool:
    """True iff rows 0..d-1 of the square matrix M vanish outside columns 0..d-1.

    This is the pattern of the spectrally discretized quasilinear
    operator, which matrix exponentials and the integrators below
    preserve exactly.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("structure_check expects a square matrix")
    if d < 1 or M.shape[0] % d != 0:
        raise ValueError(
            f"matrix dimension {M.shape[0]} is not a multiple of the block size {d}")
    return bool(np.all(M[:d, d:] == 0.0))


def dense_expmv(M, y) -> np.ndarray:
    """exp(M) @ y through the full matrix exponential; any square M."""
    return expm(M) @ y


class BlockTriangularExpmv:
    """exp(T) @ y for the exponents of the discretized quasilinear system.

    ``lower`` holds the constant rows [L21, L22] of the system matrix,
    shape (n - d, n).  An accepted exponent has a zero top-right d x
    (n - d) block, a lower-right block R equal to c * L22 for a scalar
    c, and a lower-left block X = c * L21 @ S for some d x d matrix S;
    anything else raises ValueError.  The first R seen for each c is
    kept, and a later R with the same probe entry must equal it bit for
    bit.  With P the top-left block,

        exp(T) y = [ sum_k P^k y1 / k! ;  e^R y2 + sum_k G_k S P^k y1 ],

    where G_k = phi_{k+1}(R) c L21.  Tables e^R and G_0..G_{K-1} come
    from one ``expm`` of [[R, c L21, 0 ...], [0, 0, I, ...], ...] of size
    (n - d) + K d (Al-Mohy & Higham 2011), built when a (c, m) pair first
    occurs.  m = 1 while ||P||_1 <= 1.  Beyond that m = 2^j with
    ||P/m||_1 <= 1: the series builds the blocks of exp(T/m) from tables
    for R/m, and j block-triangular squarings give exp(T), so a large P
    costs j small products rather than a long, cancelling series.
    """

    def __init__(self, lower, d: int):
        lower = np.asarray(lower, dtype=float)
        if d < 1 or lower.ndim != 2 or lower.shape[1] != lower.shape[0] + d:
            raise ValueError(f"lower rows must have shape (n - {d}, n), got {lower.shape}")
        self.d = d
        self._l21 = lower[:, :d].copy()
        self._l22 = lower[:, d:].copy()
        # least-squares left inverse of L21 (v kron I_d, so L21^T L21 = |v|^2 I_d)
        self._l21_pinv = np.linalg.solve(self._l21.T @ self._l21, self._l21.T)
        self._l21_max = float(np.abs(self._l21).max())
        self._probe = int(np.abs(self._l22).argmax())
        self._scales = {}   # probe entry of R -> (R, c)
        self._tables = {}   # (probe entry of R, m) -> see _table

    def _scale_of(self, R: np.ndarray) -> tuple:
        """(key, c) with R = c * L22; a known key must come with the same R."""
        key = float(R.flat[self._probe])
        known = self._scales.get(key)
        if known is not None:
            if not (R == known[0]).all():
                raise ValueError("lower-right block of the exponent matches none of "
                                 "the tables built for this system")
            return key, known[1]
        c = key / self._l22.flat[self._probe]
        if not (math.isfinite(c) and c != 0.0
                and np.abs(R - c * self._l22).max() <= 8 * _UNIT_ROUNDOFF * abs(key)):
            raise ValueError("lower-right block of the exponent is not a multiple "
                             "of the differentiation rows")
        self._scales[key] = (R.copy(), c)
        return key, c

    def _table(self, key: float, R: np.ndarray, c: float, m: int) -> tuple:
        """([e^{R/m}, e^{2R/m}, ..., e^R], [G_0 ... G_{K-1}] of R/m) for m = 2^j."""
        table = self._tables.get((key, m))
        if table is None:
            nl, d, K = R.shape[0], self.d, _MAX_TERMS
            W = np.zeros((nl + K * d, nl + K * d))
            W[:nl, :nl] = R / m
            W[:nl, nl:nl + d] = (c / m) * self._l21
            W[nl:nl + (K - 1) * d, nl + d:] = np.eye((K - 1) * d)
            F = expm(W)
            squares = [F[:nl, :nl].copy()]
            while len(squares) < m.bit_length():
                squares.append(squares[-1] @ squares[-1])
            table = self._tables[(key, m)] = (squares, F[:nl, nl:].copy())
        return table

    def __call__(self, T, y) -> np.ndarray:
        d, n = self.d, self._l21.shape[0] + self.d
        T = np.asarray(T, dtype=float)
        if T.shape != (n, n):
            raise ValueError(f"exponent has shape {T.shape}, expected {(n, n)}")
        if not structure_check(T, d):
            raise ValueError("exponent has a nonzero top-right block")
        P, X, R = T[:d, :d], T[d:, :d], T[d:, d:]
        key, c = self._scale_of(R)
        cS = self._l21_pinv @ X
        norm = float(np.abs(P).sum(axis=0).max())
        if not (math.isfinite(norm) and np.isfinite(cS).all()):
            raise ValueError("exponent has non-finite entries")
        if not (np.abs(X - self._l21 @ cS).max()
                <= 1e-12 * self._l21_max * (abs(c) + np.abs(cS).max())):
            raise ValueError("lower-left block of the exponent is not the "
                             "differentiation column times a d x d matrix")
        m = 1 if norm <= _THETA else 2 ** math.ceil(math.log2(norm / _THETA))
        squares, G = self._table(key, R, c, m)
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
        Y = G[:, :K * d] @ ((cS / c) @ powers[:K]).reshape(K * d, -1)
        for B in squares[:-1]:
            Y = Y @ E + B @ Y
            E = E @ E
        if m > 1:
            E, Y = E @ y[:d, None], Y @ y[:d, None]
        return np.concatenate([E[:, 0], Y[:, 0] + squares[-1] @ y[d:]])


def _eval_state_matrix(A, y: np.ndarray) -> np.ndarray:
    M = np.asarray(A(y), dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("state-matrix evaluator must return a square matrix")
    return M


def nonlinear_magnus_step(A, h: float, y, order: int, *,
                          expmv=dense_expmv) -> np.ndarray:
    """Advance y' = A(y) y one step of size h with the order-2 or order-3 scheme.

    Order 2 (trapezoidal correction of the frozen exponent):
        u = h A(y);  v = (u + h A(e^u y)) / 2;  y_next = e^v y.
    Order 3 adds two more corrector evaluations and one commutator.
    Local error is O(h^(order+1)).  ``expmv(M, y)`` applies exp(M) to y;
    the default exponentiates M in full, :class:`BlockTriangularExpmv`
    exploits the delay-system block structure.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
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
        u3 = u2 + (2.0 / 3.0) * q3 + (1.0 / 6.0) * q4 - (1.0 / 6.0) * commutator(q1, q2)
        return expmv(u3, y)
    raise ValueError(f"order must be one of {NONLINEAR_ORDERS}, got {order}")
