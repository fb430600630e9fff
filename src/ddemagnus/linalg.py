"""Dense small-matrix kernels: Taylor matrix exponential, commutators, eigenvalues.

The exponential uses scaling and squaring around the degree-18 Taylor
polynomial, evaluated with the product-saving scheme of Bader, Blanes
and Casas (Mathematics 7:1174, 2019), which makes each exponential
noticeably cheaper than a Pade-based routine at the same accuracy.  One
degree serves every input: the benchmark's inputs all have 1-norms
above the threshold of degree 12, so a ladder of lower degrees would
save products on no input of theirs.  The 1-norm only bounds the
squaring count from above: the count is taken from bounds on
||A^k||_1^(1/k), k >= 19, built from the norms of the powers the scheme
forms anyway (the alpha_p of Al-Mohy and Higham, SIAM J. Matrix Anal.
Appl. 31:970, 2009), which for non-normal inputs lie well below ||A||_1
and save squarings and their round-off.  The q_i of the scheme come from
one product of the coefficient table with the stacked powers of the
scaled input, and the squarings run in two reused buffers.  One kernel
takes a stack of matrices, a single matrix being the stack of one: each
slice gets its own squaring count and table, bit for bit as on its own.
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


class SliceError(ValueError):
    """A ValueError about one slice of a stacked input; ``index`` is its position."""

    def __init__(self, message, index: int):
        super().__init__(message)
        self.index = index


# Largest 1-norm for which the degree-18 Taylor polynomial of exp reaches
# double-precision accuracy (Bader/Blanes/Casas 2019, double precision).
_THETA_18 = 1.090863719290036e+00
_LOG2_THETA_18 = math.log2(_THETA_18)

# b_ij of q_i = sum_j b_ij A^j, j over I, A, A^2, A^3 and A^6, evaluated as
# q_0 + (q_1 + qaux) qaux with qaux = q_3 q_4 + q_2; the rows are the paper's
# q_1, q_2, q_3, q_0, q_4.
_BBC_TABLE = np.array([
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
])

# At most this many squarings are dropped, so that the A^6 column scaled by
# 2^(6 drop) stays finite; only a zero or subnormal ||(A / 2^s)^6|| allows more.
_MAX_DROP = 170


@functools.lru_cache(maxsize=None)
def _dropped_table(drop: int) -> np.ndarray:
    """The degree-18 table for powers of A / 2^s applied as powers of A / 2^(s - drop):
    column j, which multiplies A^j for j = 0, 1, 2, 3, 6, times 2^(j drop)."""
    return np.ldexp(_BBC_TABLE, drop * np.array([0, 1, 2, 3, 6]))


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


def _squarings(powers: np.ndarray, s: list, norms: list, scratch: np.ndarray) -> list:
    """The squarings the degree-18 scheme needs for each A_i = 2^(s_i) B_i of a
    stack, each at most s_i.

    ``powers`` stacks the B_i, B_i^2, B_i^3 and B_i^6, shape (4, b, n, n),
    ``norms`` holds the ||A_i||_1 and ``s`` the counts they imply;
    ``scratch`` holds (3, b, n, n).  theta_18 bounds alpha as it bounds
    ||A||_1, since sum_{k >= 19} ||A^k|| / k! <= sum alpha^k / k!: the count
    is max(0, ceil(log2(alpha / theta_18))).  alpha comes from ||B^6|| and,
    for the slices that still need squarings, from ||B^12||.  The norms
    come from one product of ones with the stacked |B_i^j|, the same gemv
    for each slice as for that matrix alone.
    """
    ones = np.ones(powers.shape[-1])
    np.abs(powers[1:], out=scratch)
    high = (ones @ scratch).max(axis=-1).T.tolist()
    # log2 ||A^j|| = log2 ||B^j|| + j s; B^6 = 0 leaves no term of degree 19 or more
    logs = [None if n6 == 0.0 else (math.log2(norm), math.log2(n2) + 2 * s_i,
                                     math.log2(n3) + 3 * s_i, math.log2(n6) + 6 * s_i)
            for s_i, norm, (n2, n3, n6) in zip(s, norms, high)]
    taken = [0 if l is None else min(s_i, max(0, math.ceil(_log2_alpha(*l) - _LOG2_THETA_18)))
             for s_i, l in zip(s, logs)]
    live = [i for i, t in enumerate(taken) if t]
    if live:
        sixth = powers[3] if len(live) == len(s) else powers[3][live]
        twelfth = np.matmul(sixth, sixth, out=scratch[0, :len(live)])
        n12 = (ones @ np.abs(twelfth, out=scratch[1, :len(live)])).max(axis=-1).tolist()
        for i, n12_i in zip(live, n12):
            taken[i] = 0 if n12_i == 0.0 else min(taken[i], max(0, math.ceil(
                _log2_alpha(*logs[i], math.log2(n12_i) + 12 * s[i]) - _LOG2_THETA_18)))
    return [max(t, s_i - _MAX_DROP) for t, s_i in zip(taken, s)]


def _scaled_taylor_exp(A: np.ndarray, norms: list, out: np.ndarray) -> None:
    """exp(A_i) for each A_i of a (b, n, n) stack as the 2^(s_i)-th power of the
    degree-18 polynomial at A_i / 2^(s_i), into ``out``.

    One block holds the powers of the A_i / 2^(s_i), then the q_i, each
    as a (b, n, n) stack, so every product runs once over the stack; per
    slice the q_i come from one product of its (5, 4) coefficient table
    with its (4, n^2) powers.  The combining products and the squarings
    alternate between a spent power and ``out``, and a slice is squared
    only as often as it needs.  One block, not one array per term, keeps
    glibc from handing the pages back to the system after each call and
    faulting them in again.  The powers are formed at the s_i of the
    1-norm rule; when :func:`_squarings` takes fewer, the exact factors
    2^(j drop) go into the columns of that slice's table.
    """
    s = [0 if norm <= _THETA_18 else math.ceil(math.log2(norm / _THETA_18)) for norm in norms]
    tables = _BBC_TABLE
    b, n = A.shape[0], A.shape[-1]
    block = np.empty((9, b, n, n))
    powers, q = block[:4], block[4:]
    np.multiply(A, np.array([0.5 ** s_i for s_i in s])[:, None, None], out=powers[0])
    np.matmul(powers[0], powers[0], out=powers[1])
    np.matmul(powers[0], powers[1], out=powers[2])
    np.matmul(powers[2], powers[2], out=powers[3])
    if any(s):
        taken = _squarings(powers, s, norms, q[:3])
        tables = np.array([_dropped_table(s_i - t) for s_i, t in zip(s, taken)])
        s = taken
    q_flat = q.reshape(5, b, n * n).swapaxes(0, 1)
    np.matmul(tables[..., 1:], powers.reshape(4, b, n * n).swapaxes(0, 1), out=q_flat)
    q_flat[..., ::n + 1] += tables[..., :1]
    qaux, work = powers[0], powers[1]  # the powers are spent once q is formed
    np.matmul(q[3], q[4], out=qaux)
    qaux += q[2]
    q[1] += qaux
    X, Y = (out, work) if max(s) % 2 == 0 else (work, out)
    np.matmul(q[1], qaux, out=X)
    X += q[0]
    for j in range(max(s)):
        live = [i for i, s_i in enumerate(s) if s_i > j]
        if len(live) == b:
            np.matmul(X, X, out=Y)
        else:
            Y[...] = X
            Y[live] = X[live] @ X[live]
        X, Y = Y, X


def _validated_square(M, name: str) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} expects a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} expects finite entries")
    return A


def expm_numbers(b: int, n: int) -> int:
    """8-byte numbers :func:`expm` of a (b, n, n) stack holds at its peak
    beside its input: the degree-18 block of four powers and five q_i
    (:func:`_scaled_taylor_exp`) and the result."""
    return 10 * b * n * n


def expm(M) -> np.ndarray:
    """Matrix exponential of a real square matrix, or of each matrix of a stack.

    Scaling and squaring with the degree-18 Taylor polynomial of Bader,
    Blanes and Casas (2019), whose accuracy threshold theta_18 = 1.09 the
    scaled input's 1-norm must meet: five products form it at any input,
    whatever its norm.  The squaring count is
    max(0, ceil(log2(alpha / theta_18))), with alpha >= ||M^k||_1^(1/k)
    for every k >= 19 bounded from ||M||_1, ||M^2||_1, ||M^3||_1,
    ||M^6||_1 and ||M^12||_1 (Al-Mohy and Higham 2009); alpha <= ||M||_1,
    so this is never more than max(0, ceil(log2(||M||_1 / theta_18))),
    and an input with ||M||_1 <= theta_18 takes none.  A 1 x 1 input is
    exponentiated directly.

    A (b, n, n) stack returns the b exponentials stacked; a matrix is the
    stack of one.  Each slice gets its own squaring count and its own
    coefficient table, and goes through the same products as on its own,
    so ``expm(M)[i]`` equals ``expm(M[i])`` bit for bit.
    Raises a :class:`SliceError` (a ValueError) whose ``index`` is the
    first failing slice, without numpy's overflow warnings, when its
    entries, its ``||M||_1`` or its result are not finite.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expm expects a square matrix or a stack of them, got shape {A.shape}")
    result = np.empty(A.shape)
    stack, out = A.reshape((-1,) + A.shape[-2:]), result.reshape((-1,) + A.shape[-2:])
    n = stack.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.abs(stack).sum(axis=1).max(axis=1).tolist()
        bad = [i for i, norm in enumerate(norms) if not math.isfinite(norm)]
        if bad:
            i = bad[0]
            if not np.isfinite(stack[i]).all():
                raise SliceError("expm expects finite entries", i)
            raise SliceError(f"expm needs a finite 1-norm to scale its input, got {norms[i]}", i)
        if n == 1:
            np.exp(stack, out=out)
        else:
            _scaled_taylor_exp(stack, norms, out)
    finite = np.isfinite(out).all(axis=(1, 2))
    if not finite.all():
        i = int(np.argmin(finite))
        raise SliceError(f"expm result is not finite (input 1-norm {norms[i]:.6g})", i)
    return result


def commutator(A, B) -> np.ndarray:
    """Matrix commutator A @ B - B @ A, of two matrices or slice by slice of two stacks."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2] or A.shape != B.shape:
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
