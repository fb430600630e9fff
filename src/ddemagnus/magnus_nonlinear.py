"""One-step Magnus integrators of orders 2 and 3 for the quasilinear form y' = A(y) y.

Both schemes alternate evaluations of A along provisional exponential
updates, so a step applies a handful of matrix exponentials to the
state.

For the spectrally discretized delay system only the top-left d x d
block of A(y) depends on the state; rows d.. are the constant
differentiation rows L = [L21, L22].  Every exponent the two schemes
build is then T = [[P, 0], [L21 @ W, c * L22]], and the step works on
its d x d blocks P and W and its scalar c alone: the schemes' sums and
products act on P, while W and c follow from the step size.
:class:`BlockTriangularExpmv` applies exp(T) from tables built once per
scale c instead of exponentiating the full matrix at every stage: a
series in P summed by doubling, then one product with the table.  The
provisional exponentials of a step, whose results only feed A, return
the delayed block, the last d entries, alone; the final one returns the
whole state.  With 1 OpenBLAS thread that took the median `sir-audit`
call from 0.0272 to 0.0248 s and a SIR solve at N = 60 from 38.5 to
36.9 ms (README, quasilinear steps).
"""

from __future__ import annotations

import math

import numpy as np

# commutator is not called here, but stays bound: bench/tracer.py wraps
# magnus_nonlinear.commutator and reports a missing name as a broken target
from .linalg import commutator, expm, expm_numbers  # noqa: F401

NONLINEAR_ORDERS = (2, 3)

# The series runs on P/m with ||P/m||_1 <= _THETA and stops at the first
# K with nu^K / K! <= 2^-53 (nu = ||P/m||_1); the tables hold the K
# needed at nu = _THETA.
_THETA = 1.0
_UNIT_ROUNDOFF = 2.0 ** -53
_MAX_SQUARINGS = 52   # m = 2^j <= 2^52: beyond, the error bound m eps is 1/2 or more


def _series_terms(nu: float) -> int:
    """Smallest K >= 1 with nu^K / K! <= 2^-53."""
    k, term = 1, nu
    while term > _UNIT_ROUNDOFF:
        k += 1
        term *= nu / k
    return k


_MAX_TERMS = _series_terms(_THETA)
_INV_FACTORIALS = np.array([1.0 / math.factorial(k) for k in range(_MAX_TERMS + 1)])


def dense_expmv(M, W, c, y, delayed: bool = False) -> np.ndarray:
    """exp(M) @ y through the full matrix exponential; any square M.  W, c
    and the request for the delayed block alone, which only the block form
    reads, are ignored: the whole state comes back."""
    return expm(M) @ y


class BlockTriangularExpmv:
    """exp(T) @ y for T = [[P, 0], [L21 W, c L22]] of the discretized
    quasilinear system, given its d x d blocks P and W and the scalar c;
    W None stands for c I, which is then neither checked nor multiplied
    as a matrix (c V has the bits of V (c I)^T).  With ``delayed`` the
    call returns only the last d entries of exp(T) y, bit for bit those
    of the full action.

    ``lower`` holds the constant rows [L21, L22] of the system matrix,
    shape (n - d, n).  With R = c L22,

        exp(T) y = [ sum_k P^k y1 / k! ;  e^R y2 + sum_k (G_k / c) W P^k y1 ],

    where G_k = phi_{k+1}(R) c L21.  The table H(c) = [e^R | G_0/c ...
    G_{K-1}/c] comes from one ``expm`` of [[R, c L21, 0 ...], [0, 0, I,
    ...], ...] of size (n - d) + K d (Al-Mohy & Higham 2011), built when
    its scale c first occurs.  The series rows (P^k y1)^T fill by doubling,
    so K = 9-11 terms take 4 products and 3 squarings of P, and the lower
    block is one product of H(c) with [y2; W P^0 y1; ...; W P^{K-1} y1],
    whose rows the series writes in place; a delayed call skips the top
    block and slices the last d entries of that product (a product with
    the last d columns of H(c) alone would change their last bits).
    m = 1 while ||P||_1 <= 1.  Beyond that m = 2^j with ||P/m||_1 <= 1:
    the series builds the blocks of exp(T/m) from H(c/m), and j
    block-triangular squarings, the i-th reading e^{2^i R/m} from
    H(c 2^(i-j)), give exp(T), so a large P costs j small products rather
    than a long, cancelling series, and a delayed call slices its result.
    A non-finite P or W, a c that is zero or not finite, or a ||P||_1
    above 2^52, where the squarings' error bound m eps reaches 1/2,
    raises ValueError before any table is built.
    """

    def __init__(self, lower, d: int):
        lower = np.asarray(lower, dtype=float)
        if d < 1 or lower.ndim != 2 or lower.shape[1] != lower.shape[0] + d:
            raise ValueError(f"lower rows must have shape (n - {d}, n), got {lower.shape}")
        self.d = d
        self._l21 = lower[:, :d].copy()
        self._l22 = lower[:, d:].copy()
        self._tables = {}   # scale c -> H(c), see _table

    @staticmethod
    def numbers(n: int, d: int) -> int:
        """8-byte numbers an instance for a system of size n holds at most
        in a solve: its lower rows, the tables of the 54 scales c = h and
        h/2 reach under the cap on j, for the whole and the trailing step
        size h, and the block matrix and :func:`expm` of building one."""
        nl, size = n - d, n + (_MAX_TERMS - 1) * d
        return nl * n + 2 * (_MAX_SQUARINGS + 2) * size * nl + size * size + expm_numbers(1, size)

    def _table(self, c: float) -> np.ndarray:
        """H(c) = [e^R | G_0/c ... G_{K-1}/c]^T for R = c L22, held
        transposed, so that its first nl + k d rows, all a series of k
        terms reads, are one contiguous block."""
        H = self._tables.get(c)
        if H is None:
            nl, d, K = self._l22.shape[0], self.d, _MAX_TERMS
            Z = np.zeros((nl + K * d, nl + K * d))
            Z[:nl, :nl] = c * self._l22
            Z[:nl, nl:nl + d] = c * self._l21
            Z[nl:nl + (K - 1) * d, nl + d:] = np.eye((K - 1) * d)
            H = self._tables[c] = expm(Z)[:nl].T.copy()
            H[nl:] /= c
        return H

    def __call__(self, P, W, c: float, y, delayed: bool = False) -> np.ndarray:
        d = self.d
        # the column sums of |P| and |W|, in one pass; W None is c I
        if W is None:
            p_cols, w_cols = np.abs(P).sum(axis=0).tolist(), []
        else:
            p_cols, w_cols = np.abs((P, W)).sum(axis=1).tolist()
        if not all(map(math.isfinite, p_cols + w_cols)):
            raise ValueError("exponent has non-finite entries")
        if not (math.isfinite(c) and c != 0.0):
            raise ValueError(f"exponent has a zero or non-finite scale c = {c!r}")
        norm = max(p_cols)
        if norm > _THETA * 2.0 ** _MAX_SQUARINGS:
            raise ValueError(f"exponent has ||P||_1 = {norm!r}, above 2**52: too large to scale")
        j = 0 if norm <= _THETA else math.ceil(math.log2(norm / _THETA))
        m = 2.0 ** j
        H = self._table(c / m)
        y = np.asarray(y, dtype=float)
        nl, K = H.shape[1], _series_terms(norm / m)
        if j == 0:
            # z = [y2; W P^0 y1; ...; W P^{K-1} y1], with the series row
            # (P^K y1)^T after it; ndarray.dot, not @: on these small
            # blocks its call costs half
            z = np.empty(nl + (K + 1) * d)
            z[:nl] = y[d:]
            V = _series_rows(P, y[:d, None], K, z[nl:].reshape(K + 1, d))
            top = None if delayed else _INV_FACTORIALS[:K + 1].dot(V)
            if W is None:
                V[:K] *= c
            else:
                V[:K] = V[:K].dot(W.T)
            lower = z[:nl + K * d].dot(H[:nl + K * d])
            return lower[-d:] if delayed else np.concatenate([top, lower])
        # the blocks of exp(T/m) = [[E, 0], [Y, e^{R/m}]], which j
        # block-triangular squarings turn into those of exp(T) (the rows of
        # (P^T/m)^k I are the blocks (P/m)^k; H(c/m) holds G/(c/m), so Y / m)
        V = _series_rows(P.T / m, np.eye(d), K)
        E = _INV_FACTORIALS[:K + 1].dot(V.reshape(K + 1, -1)).reshape(d, d)
        blocks = V[:K * d].reshape(K, d, d)
        WV = c * blocks if W is None else W @ blocks
        Y = H[nl:nl + K * d].T @ WV.reshape(K * d, d) / m
        for i in range(j):
            Y = Y @ E + self._table(c / 2.0 ** (j - i))[:nl].T @ Y
            E = E @ E
        out = np.concatenate([E @ y[:d], Y @ y[:d] + self._table(c)[:nl].T @ y[d:]])
        return out[-d:] if delayed else out


def _series_rows(P, start, K: int, out=None) -> np.ndarray:
    """The rows (P^k start)^T, k = 0..K, of a d x b block ``start``, stacked
    into a ((K + 1) b, d) array, ``out`` when given.  They fill by
    doubling: the rows of k = w..2w-1 are those of k = 0..w-1 times
    (P^w)^T, so K terms take ceil(log2(K + 1)) products and one squaring
    fewer."""
    b = start.shape[1]
    V = np.empty(((K + 1) * b, P.shape[0])) if out is None else out
    V[:b] = start.T
    w, Q = 1, P.T
    while True:
        n = min(w, K + 1 - w)
        V[w * b:(w + n) * b] = V[:n * b].dot(Q)
        w *= 2
        if w > K:
            return V
        Q = Q.dot(Q)


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
    Local error is O(h^(order+1)).  ``A(y)`` returns the state-dependent
    top-left block of the system matrix, the whole matrix for a plain
    ODE; ``expmv(P, W, c, y, delayed)`` applies exp([[P, 0], [L21 W, c
    L22]]) to y, W None meaning c I, which the default,
    :func:`dense_expmv`, takes as exp(P) y.

    Each evaluation h A(y) is the exponent (h A(y), h I, h), so q2, q3 and
    q4, differences of two such, have W = 0 and c = 0 exactly; the
    formulas below run on P alone, and each exponential is given the W
    and c that its exponent has by construction: (h/2 I, h/2) for q1/2
    and u1, (h I, h) for u, v and u2, and (h I - (h/6) q2, h) for u3, whose
    commutator [q1, q2] has lower block L21 (h I) q2; every W = c I is
    passed as None.  The provisional exponentials, of u at order 2 and of
    q1/2, u1 and u2 at order 3, ask for the delayed block alone
    (``delayed=True``): a structured ``expmv`` then returns a d-vector,
    and ``A`` is called on it as on the state, so ``A`` must read only
    the last d entries of its argument.  The final exponential returns
    the whole state.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"step size h must be positive and finite, got {h!r}")
    if order not in NONLINEAR_ORDERS:
        raise ValueError(f"order must be one of {NONLINEAR_ORDERS}, got {order}")
    y = np.asarray(y, dtype=float)
    q1 = h * _eval_state_matrix(A, y)
    if order == 2:
        v = 0.5 * (q1 + h * _eval_state_matrix(A, expmv(q1, None, h, y, delayed=True)))
        return expmv(v, None, h, y)
    half_h = 0.5 * h
    q2 = h * _eval_state_matrix(A, expmv(0.5 * q1, None, half_h, y, delayed=True)) - q1
    u1 = 0.5 * q1 + 0.25 * q2
    u2 = q1 + q2
    q3 = -u2 + h * _eval_state_matrix(A, expmv(u1, None, half_h, y, delayed=True))
    q4 = -u2 - q2 + h * _eval_state_matrix(A, expmv(u2, None, h, y, delayed=True))
    u3 = u2 + (2.0 / 3.0) * q3 + (1.0 / 6.0) * q4 - (1.0 / 6.0) * (q1 @ q2 - q2 @ q1)
    return expmv(u3, h * np.eye(len(q1)) - (1.0 / 6.0) * (h * q2), h, y)
