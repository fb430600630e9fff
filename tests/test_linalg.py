import math

import numpy as np
import pytest
import scipy.linalg

from ddemagnus import (MATHIEU_REFERENCE_MULTIPLIER, NumericalFailure, builtin_problem,
                       commutator, discretize, eigenvalues, expm, linalg, monodromy,
                       sort_spectrum)
from ddemagnus.magnus_linear import TopRows, _omega

# accuracy threshold of the degree-18 Taylor polynomial (linalg._THETA_18)
THETA_18 = 1.090863719290036


def norm1(M):
    return np.abs(M).sum(axis=0).max()


def scaled_random(n, norm, seed):
    """A random n x n matrix with 1-norm ``norm``."""
    M = np.random.default_rng(seed).standard_normal((n, n))
    return M * (norm / np.abs(M).sum(axis=0).max())


def equal_column_sums(n, norm, seed):
    """A random positive n x n matrix whose columns each sum to ``norm``, so
    that ||M^k||_1 = norm^k and expm squares as often as the 1-norm says."""
    M = np.random.default_rng(seed).random((n, n))
    return M * (norm / M.sum(axis=0))


def assert_matches_scipy(M, rtol=1e-12):
    ref = scipy.linalg.expm(M)
    assert np.abs(expm(M) - ref).max() <= rtol * np.abs(ref).max()


def squarings_taken(M):
    """The squaring count of expm: the 1-norm rule's s, then
    linalg._squarings on the powers of M / 2^s, formed as expm forms them."""
    norm = norm1(M)
    if norm <= THETA_18:
        return 0
    s = int(np.ceil(np.log2(norm / THETA_18)))
    B = M * 0.5 ** s
    B2 = B @ B
    B3 = B @ B2
    powers = np.stack([B, B2, B3, B3 @ B3])[:, None]
    return linalg._squarings(powers, [s], [norm], np.empty((3, 1, *M.shape)))[0]


def longdouble_expm(M, degree=23):
    """exp(M) in numpy.longdouble: the Taylor polynomial of ``degree`` at
    B = M / 2^s with ||B||_1 <= 1 (1/24! is below the long-double epsilon),
    summed as a polynomial in B^6, then s squarings.  No more squarings than
    that, since each amplifies the reference's own round-off."""
    A = np.asarray(M, dtype=np.longdouble)
    s = max(0, int(np.ceil(np.log2(float(norm1(A))))))
    powers = [np.eye(len(A), dtype=np.longdouble), A / np.longdouble(2) ** s]
    for _ in range(5):
        powers.append(powers[-1] @ powers[1])
    coef = np.cumprod([np.longdouble(1)] + [1 / np.longdouble(k) for k in range(1, degree + 1)])
    blocks = [sum(coef[6 * j + i] * powers[i] for i in range(6)) for j in range(degree // 6 + 1)]
    X = blocks[-1]
    for block in reversed(blocks[:-1]):
        X = X @ powers[6] + block
    for _ in range(s):
        X = X @ X
    return X


def mathieu_exponent(N, order, M=128, k=37):
    """The Magnus exponent of step k of the Mathieu benchmark at N and M."""
    problem = builtin_problem("mathieu").problem
    system = discretize(problem, N)
    h = problem.period / M
    return _omega(TopRows(system.top_rows, system._lower), [k * h], h, order)[0]


def test_expm_zero_matrix():
    np.testing.assert_array_equal(expm(np.zeros((4, 4))), np.eye(4))


def test_expm_diagonal():
    got = expm(np.diag([0.5, -1.2]))
    np.testing.assert_allclose(got, np.diag(np.exp([0.5, -1.2])), rtol=1e-15)
    assert got[0, 1] == got[1, 0] == 0.0


def test_expm_nilpotent():
    np.testing.assert_allclose(expm([[0.0, 1.0], [0.0, 0.0]]),
                               [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


def test_expm_scaling_identity():
    # exp(M) must agree with exp(M/2)^2
    rng = np.random.default_rng(42)
    for _ in range(5):
        M = rng.standard_normal((10, 10))
        M /= np.abs(M).sum(axis=0).max()
        full = expm(M)
        half = expm(M / 2.0)
        assert np.abs(full - half @ half).max() <= 1e-13 * np.abs(full).max()


def test_expm_inverse_identity():
    rng = np.random.default_rng(43)
    for scale in (0.5, 3.0, 10.0):
        M = rng.standard_normal((8, 8))
        M *= scale / np.abs(M).sum(axis=0).max()
        residual = expm(M) @ expm(-M) - np.eye(8)
        assert np.abs(residual).max() <= 1e-12


@pytest.mark.parametrize("target_norm",
                         [0.0, 1e-17, 1e-9, 1e-5, 1e-3, 0.03, 0.2, 0.8, 5.0, 40.0, 300.0])
def test_expm_matches_pade_oracle(target_norm):
    # scipy's expm is Pade-based: an independent route through the
    # polynomial alone and through the scaling loop.  Norms up to theta_18,
    # which take no squaring, run at n = 2 and at the benchmark's n = 21 and
    # 122 too (at n = 2 and norm 300 scipy's own error is 1.1e-12 against a
    # long-double reference, where expm's is 1.3e-14).
    seed = max(0, int(1000 * np.log10(target_norm) + 10_000)) if target_norm else 0
    for n in (9, 2, 21, 122) if target_norm <= THETA_18 else (9,):
        assert_matches_scipy(scaled_random(n, target_norm, seed))


def test_expm_large_norm_contract_bound():
    rng = np.random.default_rng(99)
    M = rng.standard_normal((6, 6))
    M *= 1000.0 / np.abs(M).sum(axis=0).max()
    ours = expm(M)
    ref = scipy.linalg.expm(M)
    assert np.isfinite(ours).all()
    assert np.abs(ours - ref).max() <= 1e-9 * np.abs(ref).max()


def test_expm_degree_18_on_mathieu_exponents_at_workload_size():
    # order-6 exponents of the Mathieu benchmark at N = 60, M = 128: n = 122
    # and ||Omega||_1 = 34.2, so the 1-norm rule would square 5 times, but
    # ||Omega^12||_1^(1/12) = 5.5 lets degree 18 take 3 squarings
    for k in (0, 37, 90):
        omega = mathieu_exponent(60, 6, k=k)
        assert omega.shape == (122, 122)
        assert int(np.ceil(np.log2(norm1(omega) / THETA_18))) == 5
        assert squarings_taken(omega) == 3
        assert_matches_scipy(omega)


# Relative error of one step exponential against the long-double reference,
# per N; each bound is about 1.5 times what the power-norm squaring count
# gives (orders 4 and 6 alike) and below the 1.3e-14, 2.1e-14 and 1.3e-13
# that the 1-norm count gives.
_EXPONENT_ERROR = {40: 6e-15, 60: 1.2e-14, 80: 3e-14}


@pytest.mark.parametrize("order", [4, 6])
@pytest.mark.parametrize("N", sorted(_EXPONENT_ERROR))
def test_expm_of_magnus_exponents_against_long_double(N, order):
    omega = mathieu_exponent(N, order)
    ref = longdouble_expm(omega)
    err = float(np.abs(expm(omega) - ref).max() / np.abs(ref).max())
    assert err <= _EXPONENT_ERROR[N]


def test_mathieu_multiplier_at_512_steps():
    # at N = 40, M = 512 the squarings of the 1-norm rule left an error of 3.1e-13
    mu = monodromy(builtin_problem("mathieu").problem, 40, 512, 6).dominant
    assert abs(mu - MATHIEU_REFERENCE_MULTIPLIER) <= 1e-13


def _non_normal(n, seed):
    """A rotated strictly upper triangular matrix times 10, shifted by -I."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q @ (10.0 * np.triu(rng.standard_normal((n, n)), 1) - np.eye(n)) @ Q.T


# inputs whose ||M^k||_1^(1/k) falls slowly or not at all (the Jordan block,
# the rank-one and the Gaussian matrix), or far below ||M||_1
_SLOW_POWERS = {
    "jordan": -np.eye(30) + 3.0 * np.eye(30, k=1),
    "rank one": 2.0 * np.outer(*np.random.default_rng(5).standard_normal((2, 30))),
    "gaussian": 10.0 / np.sqrt(60) * np.random.default_rng(6).standard_normal((60, 60)),
    "triangular": (5.0 * np.triu(np.random.default_rng(7).standard_normal((30, 30)), 1)
                   - np.diag(np.arange(30) / 4.0)),
    "rotated triangular": _non_normal(8, 8),
    "2 x 2": np.array([[-1.0, 1e4], [0.0, -2.0]]),
    "1e308 norm": -1e308 * np.eye(2),
}


@pytest.mark.parametrize("name", list(_SLOW_POWERS))
def test_expm_matches_scipy_on_non_normal_inputs(name):
    assert_matches_scipy(_SLOW_POWERS[name])


@pytest.mark.parametrize("N", [
    100.0 * np.triu(np.random.default_rng(5).standard_normal((5, 5)), 1),
    10.0 * np.eye(8, k=1),
    np.array([[0.0, 1e60], [0.0, 0.0]]),
], ids=["N^5 = 0", "N^8 = 0", "norm 1e60"])
def test_expm_of_a_nilpotent_input(N):
    # no term of degree 19 or more, since N^6 = 0 or N^12 = 0: exp(N) is a
    # Taylor polynomial and takes no squaring, but at 1e60 the finite
    # 2^(6 drop) column factor caps the dropped squarings at 170
    exact = sum(np.linalg.matrix_power(N, j) / math.factorial(j) for j in range(len(N)))
    s = int(np.ceil(np.log2(norm1(N) / THETA_18)))
    assert squarings_taken(N) == max(0, s - 170)
    assert np.abs(expm(N) - exact).max() <= 1e-15 * np.abs(exact).max()


def _cyclic_shift(weights):
    """x_i -> w_i x_(i+1), indices mod n: M^k multiplies k weights in a row."""
    return np.roll(np.diag(weights), 1, axis=1)


# A cyclic shift of period 5 with one weight 1e-3 has ||M^6|| = 1e-3 yet
# ||M^19|| = 1e-9, above ||M^6||^(19/6): there the bound takes its product
# term ||M^6||^3 ||M||, exactly.
@pytest.mark.parametrize("M", [_non_normal(12, seed) / 8.0 for seed in range(3)]
                         + [_cyclic_shift([1.0, 1.0, 1e-3, 1.0, 1.0])])
def test_power_norm_bound_holds_for_every_later_power(M):
    # alpha >= ||M^k||_1^(1/k) for k >= 19, checked up to 60 on explicit powers
    logs = [np.log2(norm1(np.linalg.matrix_power(M, j))) for j in (1, 2, 3, 6)]
    log12 = np.log2(norm1(np.linalg.matrix_power(M, 12)))
    for log_alpha in (linalg._log2_alpha(*logs), linalg._log2_alpha(*logs, log12)):
        assert log_alpha <= logs[0] + 1e-12
        for k in range(19, 61):
            assert np.log2(norm1(np.linalg.matrix_power(M, k))) / k <= log_alpha + 1e-12


@pytest.mark.parametrize("s", [0, 1, 2])
def test_expm_degree_18_squaring_counts(s):
    # norms in (2^(s-1), 2^s] * theta_18
    M = equal_column_sums(122, 0.75 * 2.0 ** s * THETA_18, 100 + s)
    assert squarings_taken(M) == s
    assert_matches_scipy(M)


@pytest.mark.parametrize("n", [2, 21, 122])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_expm_result_owns_its_memory(n, s):
    # s = 0 computes the polynomial straight into the result; odd and
    # even s end the squarings in it from either work buffer
    M = equal_column_sums(n, 0.75 * 2.0 ** s * THETA_18, n + s)
    assert squarings_taken(M) == s
    first = expm(M)
    kept = first.copy()
    assert first.flags.c_contiguous and first.flags.owndata
    assert not np.shares_memory(first, M)
    second = expm(M)
    assert not np.shares_memory(first, second)
    expm(-M)
    expm(2.0 * M)
    np.testing.assert_array_equal(first, kept)
    np.testing.assert_array_equal(second, kept)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_expm_rejects_an_input_whose_1_norm_overflows():
    with pytest.raises(ValueError, match="1-norm"):
        expm([[1e308, 0.0], [1e308, 0.0]])


def test_expm_scales_by_an_exact_power_of_two():
    # ||M||_1 = 1e308 needs s = 1024 squarings: the scale 0.5**1024 is
    # exact, and the result underflows to exact zeros
    got = expm(-1e308 * np.eye(2))
    np.testing.assert_array_equal(got, np.zeros((2, 2)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_expm_rejects_a_result_that_is_not_finite():
    with pytest.raises(ValueError, match="not finite"):
        expm([[1e308, 1e308], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not finite"):
        expm([[1000.0]])


def test_expm_scalar_case():
    np.testing.assert_allclose(expm([[2.5]]), [[np.exp(2.5)]], rtol=1e-15)


def test_expm_preserves_delay_block_pattern():
    # rows 0..d-1 zero outside the leading d x d block, coupling only
    # feeding the lower rows: the pattern survives exponentiation with
    # exact zeros, and the leading block of the result is its own exp
    rng = np.random.default_rng(3)
    d, n = 2, 10
    M = rng.standard_normal((n, n))
    M[:d, d:] = 0.0
    E = expm(M)
    assert np.all(E[:d, d:] == 0.0)
    np.testing.assert_allclose(E[:d, :d], expm(M[:d, :d]), rtol=1e-13)


def test_expm_input_validation():
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        expm(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_commutator_basics():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 5))
    B = rng.standard_normal((5, 5))
    np.testing.assert_array_equal(commutator(A, A), np.zeros((5, 5)))
    np.testing.assert_array_equal(commutator(np.eye(5), B), np.zeros((5, 5)))
    raising = np.array([[0.0, 1.0], [0.0, 0.0]])
    lowering = np.array([[0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(commutator(raising, lowering),
                                  [[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError):
        commutator(A, np.zeros((4, 4)))


def test_eigenvalues_diagonal_sorted():
    np.testing.assert_allclose(eigenvalues(np.diag([3.0, 1.0, 2.0])),
                               [3.0, 2.0, 1.0], atol=1e-14)


def test_eigenvalues_rotation_tie_break():
    # both eigenvalues have modulus 1 and zero real part; the tie falls
    # to the imaginary part, descending
    vals = eigenvalues([[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_allclose(vals, [1.0j, -1.0j], atol=1e-14)


def test_eigenvalues_companion_cubic():
    # companion matrix of x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3)
    C = np.array([[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(eigenvalues(C), [3.0, 2.0, 1.0], atol=1e-10)


def test_eigenvalues_multiplicity():
    vals = eigenvalues(np.eye(4))
    np.testing.assert_allclose(vals, np.ones(4), atol=1e-14)


@pytest.mark.parametrize("n", [3, 6, 12])
def test_eigenvalues_trace_and_determinant(n):
    rng = np.random.default_rng(500 + n)
    M = rng.standard_normal((n, n))
    vals = eigenvalues(M)
    norm = np.abs(M).sum(axis=0).max()
    assert abs(vals.sum() - np.trace(M)) <= 1e-10 * max(1.0, norm)
    det = np.linalg.det(M)  # LU-based, independent of the QR route
    assert abs(vals.prod() - det) <= 1e-8 * max(1e-30, abs(det))


def test_sort_spectrum_order_is_canonical():
    values = [1.0 - 2.0j, 3.0, -3.0, 1.0 + 2.0j, 0.1]
    got = sort_spectrum(values)
    np.testing.assert_array_equal(got, [3.0 + 0.0j, -3.0 + 0.0j, 1.0 + 2.0j,
                                        1.0 - 2.0j, 0.1 + 0.0j])


def test_eigenvalues_input_validation():
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues(np.array([[np.inf, 0.0], [0.0, 0.0]]))


def test_numerical_failure_carries_context():
    err = NumericalFailure("boom", interval=3, step=7, partial=None)
    assert err.interval == 3 and err.step == 7 and err.partial is None


def _mixed_stack(n, count):
    """``count`` n x n inputs that cycle through the zero matrix, 1-norms from
    1e-17 to 0.8 that take the polynomial alone, 0 to 5 squarings, a
    nilpotent input and one at the 170-drop cap, in an order that mixes
    them in any stretch of a few."""
    kinds = [0.0, 1e-17, 1e-9, 1e-4, 0.03, 0.2, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6,
             "nilpotent", "cap"]
    stack = np.empty((count, n, n))
    for i in range(count):
        kind = kinds[(3 * i + 12) % len(kinds)]
        if kind == "nilpotent":
            stack[i] = 10.0 * np.eye(n, k=1)
        elif kind == "cap":   # N^2 = 0 at 1-norm 1e60: s = 200, of which 170 are dropped
            stack[i] = 0.0
            stack[i, 0, -1] = 1e60
        else:
            stack[i] = equal_column_sums(n, kind, 1000 * n + i)
    return stack


@pytest.mark.parametrize("n", [2, 21, 122])
@pytest.mark.parametrize("count", [1, 7, 66])
def test_stacked_expm_equals_expm_of_each_slice(n, count):
    # each slice takes its own squaring count and table, so a stack changes
    # no bit of any exponential
    stack = _mixed_stack(n, count)
    got = expm(stack)
    assert got.shape == stack.shape and got.flags.c_contiguous and got.flags.owndata
    for i in range(count):
        np.testing.assert_array_equal(got[i], expm(stack[i]))
    if count == 66:
        assert {squarings_taken(M) for M in stack} == {0, 1, 2, 3, 4, 5, 30}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry, message", [
    (np.nan, "expm expects finite entries"),
    (1e308, "expm needs a finite 1-norm to scale its input, got inf"),
    (1000.0, r"expm result is not finite \(input 1-norm 2000\)"),
])
def test_stacked_expm_names_the_slice_that_fails(entry, message):
    stack = _mixed_stack(4, 7)
    stack[3] = np.diag([entry, 0.0, 0.0, entry])
    stack[3, 1, 3] = entry
    # the message is the one of that slice alone; the index names the slice
    with pytest.raises(ValueError, match=message) as info:
        expm(stack[3])
    assert isinstance(info.value, linalg.SliceError) and info.value.index == 0
    with pytest.raises(ValueError, match=message) as info:
        expm(stack)
    assert isinstance(info.value, linalg.SliceError) and info.value.index == 3
