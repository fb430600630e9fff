import numpy as np
import pytest
import scipy.linalg

from ddemagnus import (NumericalFailure, builtin_problem, commutator, discretize, eigenvalues,
                       expm, sort_spectrum)
from ddemagnus.magnus_linear import TopRows, _omega

# accuracy thresholds of the Taylor degrees 8, 12 and 18 (linalg._TAYLOR_THETA)
THETA_8, THETA_12, THETA_18 = 4.991228871115323e-02, 2.996158913811580e-01, 1.090863719290036


def scaled_random(n, norm, seed):
    """A random n x n matrix with 1-norm ``norm``."""
    M = np.random.default_rng(seed).standard_normal((n, n))
    return M * (norm / np.abs(M).sum(axis=0).max())


def assert_matches_scipy(M, rtol=1e-12):
    ref = scipy.linalg.expm(M)
    assert np.abs(expm(M) - ref).max() <= rtol * np.abs(ref).max()


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
                         [1e-9, 1e-5, 1e-3, 0.03, 0.2, 0.8, 5.0, 40.0, 300.0])
def test_expm_matches_pade_oracle(target_norm):
    # scipy's expm is Pade-based: an independent route through every
    # Taylor degree branch and the scaling loop
    rng = np.random.default_rng(int(1000 * np.log10(target_norm) + 10_000))
    M = rng.standard_normal((9, 9))
    M *= target_norm / np.abs(M).sum(axis=0).max()
    ours = expm(M)
    ref = scipy.linalg.expm(M)
    assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()


def test_expm_large_norm_contract_bound():
    rng = np.random.default_rng(99)
    M = rng.standard_normal((6, 6))
    M *= 1000.0 / np.abs(M).sum(axis=0).max()
    ours = expm(M)
    ref = scipy.linalg.expm(M)
    assert np.isfinite(ours).all()
    assert np.abs(ours - ref).max() <= 1e-9 * np.abs(ref).max()


def test_expm_degree_18_on_mathieu_exponents_at_workload_size():
    # order-6 exponents of the Mathieu benchmark at N = 60, M = 128:
    # n = 122, ||Omega||_1 = 34.2, so degree 18 with s = 5 squarings
    problem = builtin_problem("mathieu").problem
    system = discretize(problem, 60)
    rows = TopRows(system.top_rows, system._lower)
    h = problem.period / 128
    for k in (0, 37, 90):
        omega = _omega(rows, k * h, h, 6)
        assert omega.shape == (122, 122)
        assert int(np.ceil(np.log2(np.abs(omega).sum(axis=0).max() / THETA_18))) == 5
        assert_matches_scipy(omega)


def test_expm_degree_12_at_workload_size():
    M = scaled_random(122, 0.9 * THETA_12, 12)
    assert THETA_8 < np.abs(M).sum(axis=0).max() <= THETA_12
    assert_matches_scipy(M)


@pytest.mark.parametrize("s", [0, 1, 2])
def test_expm_degree_18_squaring_counts(s):
    # norms in (2^(s-1), 2^s] * theta_18 (above theta_12 for s = 0)
    M = scaled_random(122, 0.75 * 2.0 ** s * THETA_18, 100 + s)
    norm = np.abs(M).sum(axis=0).max()
    assert norm > THETA_12 and max(0, int(np.ceil(np.log2(norm / THETA_18)))) == s
    assert_matches_scipy(M)


@pytest.mark.parametrize("n", [2, 21, 122])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_expm_result_owns_its_memory(n, s):
    # s = 0 computes the polynomial straight into the result; odd and
    # even s end the squarings in it from either work buffer
    M = scaled_random(n, 0.75 * 2.0 ** s * THETA_18, n + s)
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
