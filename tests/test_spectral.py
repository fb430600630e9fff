import numpy as np
import pytest

from ddemagnus import (ChebyshevGrid, OutOfRangeError, chebyshev_nodes,
                       differentiation_matrix, interpolate_window)

SQRT2 = np.sqrt(2.0)


def test_nodes_small_cases():
    np.testing.assert_allclose(chebyshev_nodes(1), [1.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(chebyshev_nodes(2), [1.0, 0.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(chebyshev_nodes(4),
                               [1.0, SQRT2 / 2, 0.0, -SQRT2 / 2, -1.0], atol=1e-15)


def test_nodes_endpoints_exact_and_decreasing():
    for N in (1, 2, 7, 20, 33):
        t = chebyshev_nodes(N)
        assert t[0] == 1.0 and t[-1] == -1.0
        assert np.all(np.diff(t) < 0)


def test_nodes_rejects_degenerate_grid():
    with pytest.raises(ValueError):
        chebyshev_nodes(0)


def test_diff_matrix_two_nodes():
    # derivative of the linear interpolant through (1, f0), (-1, f1) is
    # (f0 - f1) / 2 at both nodes
    np.testing.assert_allclose(differentiation_matrix(1),
                               [[0.5, -0.5], [0.5, -0.5]], atol=1e-15)


def test_diff_matrix_quadratic_samples():
    D = differentiation_matrix(2)
    np.testing.assert_allclose(D @ np.array([1.0, 0.0, 1.0]),
                               [2.0, 0.0, -2.0], atol=1e-13)


@pytest.mark.parametrize("N", [1, 3, 8, 21, 40])
def test_diff_matrix_annihilates_constants(N):
    D = differentiation_matrix(N)
    assert np.abs(D @ np.ones(N + 1)).max() <= 1e-13 * N


@pytest.mark.parametrize("N", [4, 9, 17, 33, 40])
def test_diff_matrix_polynomial_exactness(N):
    rng = np.random.default_rng(100 + N)
    t = chebyshev_nodes(N)
    D = differentiation_matrix(N)
    for _ in range(5):
        p = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, N + 1))
        dp = p.deriv()
        err = np.abs(D @ p(t) - dp(t)).max()
        assert err <= 1e-9 * (1.0 + np.abs(dp(t)).max())


def test_grid_shifted_nodes_exact_endpoints():
    grid = ChebyshevGrid.build(6, 0.7)
    assert grid.nodes_shifted[0] == 0.0
    assert grid.nodes_shifted[-1] == -0.7
    assert np.all(np.diff(grid.nodes_shifted) < 0)


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ChebyshevGrid.build(5, 0.0)
    for delay in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            ChebyshevGrid.build(4, delay)
    with pytest.raises(ValueError):
        ChebyshevGrid.build(0, 1.0)


def test_grid_scaled_derivative_of_identity():
    # d/dtheta of theta sampled on the shifted window is one everywhere
    grid = ChebyshevGrid.build(14, 2.3)
    result = grid.scaled_diff_matrix @ grid.nodes_shifted
    np.testing.assert_allclose(result, np.ones(15), atol=1e-12)


def test_grid_arrays_are_read_only():
    grid = ChebyshevGrid.build(4, 1.0)
    with pytest.raises(ValueError):
        grid.diff_matrix[0, 0] = 99.0
    with pytest.raises(ValueError):
        grid.nodes_shifted[0] = 99.0


def test_interpolate_hits_nodes_exactly():
    rng = np.random.default_rng(5)
    grid = ChebyshevGrid.build(9, 1.3)
    values = rng.standard_normal(2 * 10)
    for i in (0, 3):
        for j in (0, 4, 9):
            t = i * grid.delay + grid.nodes_shifted[j]
            got = interpolate_window(values, grid, i * grid.delay, t)
            np.testing.assert_array_equal(got, values.reshape(10, 2)[j])


def test_interpolate_constant_everywhere():
    grid = ChebyshevGrid.build(11, 0.9)
    values = np.full(12, 3.25)
    for t in np.linspace(-0.9, 0.0, 17):
        np.testing.assert_allclose(interpolate_window(values, grid, 0.0, t), [3.25],
                                   rtol=1e-14)


def test_interpolate_sin_between_nodes():
    tau = np.pi / 2
    grid = ChebyshevGrid.build(20, tau)
    i = 1
    values = np.sin(i * tau + grid.nodes_shifted)
    t = i * tau - tau / 3.0
    got = interpolate_window(values, grid, i * grid.delay, t)
    assert abs(got[0] - np.sin(t)) <= 1e-12


@pytest.mark.parametrize("N", [5, 12, 25])
def test_interpolate_reproduces_polynomials(N):
    rng = np.random.default_rng(200 + N)
    grid = ChebyshevGrid.build(N, 1.7)
    p = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, N + 1))
    values = p(grid.nodes_reference)
    scale = np.abs(values).max()
    for t in rng.uniform(-1.7, 0.0, 100):
        s = 2.0 * t / 1.7 + 1.0
        got = interpolate_window(values, grid, 0.0, t)
        assert abs(got[0] - p(s)) <= 1e-10 * (1.0 + scale)


def test_interpolate_rejects_extrapolation():
    grid = ChebyshevGrid.build(6, 1.0)
    values = np.zeros(7)
    with pytest.raises(OutOfRangeError):
        interpolate_window(values, grid, 1.0, 1.5)
    with pytest.raises(OutOfRangeError):
        interpolate_window(values, grid, 1.0, -0.5)
    with pytest.raises(ValueError):
        interpolate_window(np.zeros(8), grid, 0.0, -0.5)  # not a block multiple
    for t in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(OutOfRangeError):
            interpolate_window(values, grid, 0.0, t)
