"""Dense small-matrix kernels: Taylor matrix exponential, commutators, eigenvalues.

The exponential uses scaling and squaring around Taylor polynomials of
degree 1, 2, 4, 8, 12 or 18, picked from the 1-norm of the input; the
higher-degree polynomials are evaluated with the product-saving schemes
of Bader, Blanes and Casas (Mathematics 7:1174, 2019), which makes each
exponential noticeably cheaper than a Pade-based routine at the same
accuracy.  At degree 18 the 1-norm only bounds the squaring count from
above: the count is taken from bounds on ||A^k||_1^(1/k), k >= 19, built
from the norms of the powers the scheme forms anyway (the alpha_p of
Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31:970, 2009), which for
non-normal inputs lie well below ||A||_1 and save squarings and their
round-off.  At degrees 12 and 18 the q_i of the scheme come from one
product of the coefficient table with the stacked powers of the scaled
input, and the squarings run in two reused n x n buffers.
"""

from __future__ import annotations

import functools
import math

import numpy as np


class NumericalFailure(RuntimeError):
    """An iterative kernel failed; carries whatever context is available.

    Attributes ``interval`` and ``step`` locate the failure inside a
    time integration (None elsewhere); ``partial`` holds a partial
    result when the failing routine can provide one.
    """

    def __init__(self, message, *, interval=None, step=None, partial=None):
        super().__init__(message)
        self.interval = interval
        self.step = step
        self.partial = partial


# Largest 1-norm for which a degree-m Taylor polynomial of exp reaches
# double-precision accuracy (Bader/Blanes/Casas 2019, double precision).
_TAYLOR_THETA = (
    (1, 2.220446049250313e-16),
    (2, 2.580956802971767e-08),
    (4, 3.397168839976962e-04),
    (8, 4.991228871115323e-02),
    (12, 2.996158913811580e-01),
    (18, 1.090863719290036e+00),
)

# b_ij of q_i = sum_j b_ij A^j, j over I, A, A^2, A^3 (and A^6), for degrees 12
# and 18; both evaluate q_0 + (q_1 + qaux) qaux with qaux = q_3 q_last + q_2, so
# the degree-18 rows are the paper's q_1, q_2, q_3, q_0, q_4.
_BBC_TABLES = {
    12: np.array([
        [-1.86023205146205530824e-02, -5.00702322573317714499e-03,
         -5.73420122960522249400e-01, -1.33399693943892061476e-01],
        [4.6, 9.92875103538486847299e-01,
         -1.32445561052799642976e-01, 1.72990000000000000000e-03],
        [2.11693118299809440730e-01, 1.58224384715726723583e-01,
         1.65635169436727403003e-01, 1.07862779315792429308e-02],
        [0.0, -1.31810610138301836924e-01,
         -2.02785554058925905629e-02, -6.75951846863086323186e-03],
    ]),
    18: np.array([
        [0.0, 3.97849749499645077844e-01, 1.36783778460411720168e+00,
         4.98289622525382669416e-01, -6.37898194594723280150e-04],
        [-1.09676396052962061844e+01, 1.68015813878906206114e+00,
         5.71779846478865511061e-02, -6.98210122488052056106e-03,
         3.34975017086070470649e-05],
        [-9.04316832390810593223e-02, -6.76404519071381882256e-02,
         6.75961301770459654925e-02, 2.95552570429315521194e-02,
         -1.39180257516060693404e-05],
        [0.0, -1.00365581030144618291e-01, -8.02924648241156932449e-03,
         -8.92138498045729985177e-04, 0.0],
        [0.0, 0.0, -9.23364619367118555360e-02,
         -1.69364939002081722752e-02, -1.40086798182036094347e-05],
    ]),
}

def _taylor_exp(A: np.ndarray, degree: int) -> np.ndarray:
    """Taylor polynomial of exp(A) of degree 1, 2, 4 or 8, ||A||_1 <= theta(degree)."""
    n = A.shape[0]
    eye = np.eye(n)
    if degree == 1:
        return eye + A
    A2 = A @ A
    if degree == 2:
        return eye + A + 0.5 * A2
    if degree == 4:
        return eye + A + A2 @ (0.5 * eye + A / 6.0 + A2 / 24.0)
    if degree == 8:
        sqrt177 = np.sqrt(177.0)
        x3 = 2.0 / 3.0
        a1 = (1.0 + sqrt177) * x3 / 88.0
        a2 = (1.0 + sqrt177) * x3 / 352.0
        u2 = (857.0 - 58.0 * sqrt177) / 630.0
        c0 = (-271.0 + 29.0 * sqrt177) / (315.0 * x3)
        c1 = 11.0 * (-1.0 + sqrt177) / (1260.0 * x3)
        c2 = 11.0 * (-9.0 + sqrt177) / (5040.0 * x3)
        c4 = -(-89.0 + sqrt177) / (5040.0 * x3 * x3)
        A4 = A2 @ (a1 * A + a2 * A2)
        A8 = (x3 * A2 + A4) @ (c0 * eye + c1 * A + c2 * A2 + c4 * A4)
        return eye + A + u2 * A2 + A8
    raise ValueError(f"unsupported Taylor degree {degree}")


_LOG2_THETA_18 = math.log2(_TAYLOR_THETA[-1][1])
# At most this many squarings are dropped, so that the A^6 column scaled by
# 2^(6 drop) stays finite; only a zero or subnormal ||(A / 2^s)^6|| allows more.
_MAX_DROP = 170


@functools.lru_cache(maxsize=None)
def _dropped_table(drop: int) -> np.ndarray:
    """The degree-18 table for powers of A / 2^s applied as powers of A / 2^(s - drop):
    column j, which multiplies A^j for j = 0, 1, 2, 3, 6, times 2^(j drop)."""
    return np.ldexp(_BBC_TABLES[18], drop * np.array([0, 1, 2, 3, 6]))


def _log2_alpha(l1: float, l2: float, l3: float, l6: float, l12: float | None = None) -> float:
    """log2 of an alpha with ||A^k||_1 <= alpha^k for every k >= 19, from l_j = log2 ||A^j||_1.

    Al-Mohy and Higham (2009): for k = 19 .. 18 + p each ||A^k|| is at most
    a product of the given norms, with ||A^4|| <= ||A^2||^2 and ||A^5|| <=
    ||A^2|| ||A^3||, and alpha >= ||A^p||^(1/p) carries the bound on to
    every larger k; p is 12 when ``l12`` is given, else 6.
    """
    l4, l5 = 2 * l2, l2 + l3
    if l12 is None:   # ||A^(18 + r)|| <= ||A^6||^3 ||A^r||
        h = 3 * l6
        return max(l6 / 6, (h + l1) / 19, (h + l2) / 20, (h + l3) / 21, (h + l4) / 22,
                   (h + l5) / 23)
    # ||A^(18 + r)|| <= ||A^12|| ||A^6|| ||A^r||, ||A^(24 + r)|| <= ||A^12||^2 ||A^r||
    h, g = l12 + l6, 2 * l12
    return max(l12 / 12, (h + l1) / 19, (h + l2) / 20, (h + l3) / 21, (h + l4) / 22,
               (h + l5) / 23, (g + l1) / 25, (g + l2) / 26, (g + l3) / 27, (g + l4) / 28,
               (g + l5) / 29, (g + l6) / 30)


def _squarings(powers: np.ndarray, s: int, norm: float, scratch: np.ndarray) -> int:
    """The squarings the degree-18 scheme needs for A = 2^s B, at most s.

    ``powers`` stacks B, B^2, B^3 and B^6, ``norm`` is ||A||_1 and s the count
    that it implies; ``scratch`` holds three n x n buffers.  theta_18 bounds
    alpha as it bounds ||A||_1, since sum_{k >= 19} ||A^k|| / k! <= sum
    alpha^k / k!: the count is max(0, ceil(log2(alpha / theta_18))).  alpha
    comes from ||B^6|| and, if that still leaves squarings, from ||B^12||
    formed in ``scratch``.
    """
    ones = np.ones(powers.shape[1])
    np.abs(powers[1:], out=scratch[:3])
    n2, n3, n6 = (ones @ scratch[:3]).max(axis=1).tolist()
    if n6 == 0.0:   # B^6 = 0: every term of degree 19 or more vanishes
        return max(0, s - _MAX_DROP)
    # log2 ||A^j|| = log2 ||B^j|| + j s
    logs = (math.log2(norm), math.log2(n2) + 2 * s, math.log2(n3) + 3 * s,
            math.log2(n6) + 6 * s)
    taken = min(s, max(0, math.ceil(_log2_alpha(*logs) - _LOG2_THETA_18)))
    if taken:
        np.matmul(powers[3], powers[3], out=scratch[0])
        n12 = (ones @ np.abs(scratch[0], out=scratch[1])).max()
        taken = 0 if n12 == 0.0 else min(taken, max(0, math.ceil(
            _log2_alpha(*logs, math.log2(n12) + 12 * s) - _LOG2_THETA_18)))
    return max(taken, s - _MAX_DROP)


def _scaled_taylor_exp(A: np.ndarray, degree: int, norm: float) -> np.ndarray:
    """exp(A) as the 2^s-th power of the degree-12 or -18 polynomial at A / 2^s.

    One block holds the powers of A / 2^s, then the q_i, formed by one
    product with the coefficient table; the combining products and the
    squarings alternate between a spent power and the returned array.
    One block, not one array per term, keeps glibc from handing the pages
    back to the system after each call and faulting them in again.  The
    powers are formed at the s of the 1-norm rule; when :func:`_squarings`
    takes fewer, the exact factors 2^(j drop) go into the table's columns.
    """
    s = max(0, int(np.ceil(np.log2(norm / _TAYLOR_THETA[-1][1]))))
    b = _BBC_TABLES[degree]
    m, k = b.shape[0], b.shape[1] - 1
    n = A.shape[0]
    block = np.empty((k + m, n, n))
    powers, q = block[:k], block[k:]
    np.multiply(A, 0.5 ** s, out=powers[0])
    np.matmul(powers[0], powers[0], out=powers[1])
    np.matmul(powers[0], powers[1], out=powers[2])
    if k == 4:
        np.matmul(powers[2], powers[2], out=powers[3])
    if s:   # only degree 18 scales: degree 12 covers norms up to theta_12
        taken = _squarings(powers, s, norm, q)
        b, s = _dropped_table(s - taken), taken
    np.matmul(b[:, 1:], powers.reshape(k, n * n), out=q.reshape(m, n * n))
    q.reshape(m, n * n)[:, ::n + 1] += b[:, :1]
    qaux, work = powers[0], powers[1]  # the powers are spent once q is formed
    np.matmul(q[3], q[-1], out=qaux)
    qaux += q[2]
    q[1] += qaux
    result = np.empty((n, n))
    X, Y = (result, work) if s % 2 == 0 else (work, result)
    np.matmul(q[1], qaux, out=X)
    X += q[0]
    for _ in range(s):
        np.matmul(X, X, out=Y)
        X, Y = Y, X
    return X


def _validated_square(M, name: str) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} expects a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} expects finite entries")
    return A


def expm(M) -> np.ndarray:
    """Matrix exponential of a real square matrix.

    Scaling and squaring with a degree-adapted Taylor polynomial: the
    degree is the smallest of {1, 2, 4, 8, 12, 18} whose accuracy
    threshold covers ``||M||_1``.  At degree 18 the squaring count is
    max(0, ceil(log2(alpha / theta_18))), with alpha >= ||M^k||_1^(1/k)
    for every k >= 19 bounded from ||M||_1, ||M^2||_1, ||M^3||_1,
    ||M^6||_1 and ||M^12||_1 (Al-Mohy and Higham 2009); alpha <= ||M||_1,
    so this is never more than max(0, ceil(log2(||M||_1 / theta_18))).
    Raises ValueError, without numpy's overflow warnings, when ``||M||_1``
    or the result is not finite.
    """
    A = _validated_square(M, "expm")
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(A).sum(axis=0).max()
        if not np.isfinite(norm):
            raise ValueError(f"expm needs a finite 1-norm to scale its input, got {norm}")
        degree = next((d for d, theta in _TAYLOR_THETA if norm <= theta), 18)
        if A.shape[0] == 1:
            X = np.exp(A)
        elif degree <= 8:
            X = _taylor_exp(A, degree)
        else:
            X = _scaled_taylor_exp(A, degree, norm)
    if not np.isfinite(X).all():
        raise ValueError(f"expm result is not finite (input 1-norm {norm:.6g})")
    return X


def commutator(A, B) -> np.ndarray:
    """Matrix commutator A @ B - B @ A."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != B.shape:
        raise ValueError(
            f"commutator needs square matrices of equal size, got {A.shape} and {B.shape}")
    return A @ B - B @ A


def sort_spectrum(values) -> np.ndarray:
    """Canonical ordering for eigenvalue output.

    Sorted by modulus descending; ties broken by real part descending,
    then imaginary part descending.  The comparisons are exact, so the
    ordering is bit-reproducible for identical inputs.
    """
    v = np.asarray(values, dtype=complex)
    order = np.lexsort((-v.imag, -v.real, -np.abs(v)))
    return v[order]


def eigenvalues(M) -> np.ndarray:
    """All eigenvalues of a real square matrix, in the canonical sort order.

    Delegates to LAPACK's balanced Hessenberg-QR solver (via
    ``numpy.linalg.eigvals``), which is backward stable and returns every
    eigenvalue with its algebraic multiplicity; this routine only adds
    the deterministic ordering of :func:`sort_spectrum`.
    """
    A = _validated_square(M, "eigenvalues")
    try:
        vals = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigenvalue iteration failed to converge: {exc}",
                               partial=None) from exc
    return sort_spectrum(vals)
