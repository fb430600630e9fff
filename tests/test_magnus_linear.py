import numpy as np
import pytest

from ddemagnus import (MagnusConvergenceWarning, expm, magnus_step,
                       magnus_step_matrix)


@pytest.mark.parametrize("order", [2, 4, 6])
def test_autonomous_step_is_exact(order):
    # for constant coefficients every scheme collapses to exp(h*C)
    rng = np.random.default_rng(order)
    C = rng.standard_normal((4, 4))
    y0 = rng.standard_normal(4)
    for h in (0.05, 0.7, 2.5):
        got = magnus_step(lambda t: C, 0.3, h, y0, order)
        ref = expm(h * C) @ y0
        assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def test_scalar_linear_coefficient_integrates_exactly():
    # A(t) = t commutes with itself; Gauss quadrature integrates it
    # exactly, so one order-4 step from 0 with h=1 gives exp(1/2)
    got = magnus_step(lambda t: np.array([[t]]), 0.0, 1.0, np.array([1.0]), 4)
    np.testing.assert_allclose(got, [np.exp(0.5)], rtol=1e-14)


@pytest.mark.parametrize("order", [4, 6])
def test_commuting_rotation_family(order):
    # A(t) = t * J with J the rotation generator: Omega = J/2 exactly
    def A(t):
        return np.array([[0.0, t], [-t, 0.0]])

    got = magnus_step(A, 0.0, 1.0, np.array([1.0, 0.0]), order)
    np.testing.assert_allclose(got, [np.cos(0.5), -np.sin(0.5)], atol=1e-12)


def test_matrix_and_vector_paths_agree():
    def A(t):
        return np.array([[0.1 * t, 1.0 + t * t], [-1.0, 0.2]])

    rng = np.random.default_rng(11)
    y = rng.standard_normal(2)
    Y = magnus_step_matrix(A, 0.2, 0.3, np.eye(2), 6)
    np.testing.assert_allclose(Y @ y, magnus_step(A, 0.2, 0.3, y, 6), atol=1e-13)


def test_traceless_family_keeps_determinant_one():
    # Mathieu body: traceless A(t) gives a traceless Magnus exponent at
    # every order, so the propagator stays unimodular
    def A(t):
        return np.array([[0.0, 1.0], [-(1.5 + 0.5 * np.cos(t)), 0.0]])

    h = 2.0 * np.pi / 100.0
    Y = np.eye(2)
    for k in range(100):
        Y = magnus_step_matrix(A, k * h, h, Y, 6)
    assert abs(np.linalg.det(Y) - 1.0) <= 1e-10


@pytest.mark.parametrize("order,window", [(2, (1.7, 2.3)), (4, (3.6, 4.4)),
                                          (6, (5.5, 6.5))])
def test_nominal_convergence_order(order, window):
    # scalar problem y' = cos(t) y with exact solution exp(sin t); the
    # Gauss rules make the scheme's quadrature order visible directly
    def A(t):
        return np.array([[np.cos(t)]])

    errs = []
    for M in (4, 8, 16, 32):
        y = np.array([1.0])
        h = 2.0 / M
        for k in range(M):
            y = magnus_step(A, k * h, h, y, order)
        errs.append(abs(y[0] - np.exp(np.sin(2.0))))
    slope = -np.polyfit(np.log([4, 8, 16, 32]), np.log(errs), 1)[0]
    assert window[0] <= slope <= window[1]


def test_convergence_guard_warns_but_computes():
    def A(t):
        return np.array([[0.0, 10.0], [-10.0, 0.0]])

    with pytest.warns(MagnusConvergenceWarning):
        got = magnus_step(A, 0.0, 1.0, np.array([1.0, 0.0]), 2)
    assert np.isfinite(got).all()


def test_order4_guard_warns_on_stiff_step():
    def A(t):
        return np.array([[0.0, 10.0 + t], [-10.0 - t, 0.0]])

    with pytest.warns(MagnusConvergenceWarning):
        got = magnus_step(A, 0.0, 1.0, np.array([1.0, 0.0]), 4)
    assert np.isfinite(got).all()


def test_order4_step_evaluates_coefficient_twice():
    # the two Gauss points feed both the exponent and the convergence guard
    calls = []

    def A(t):
        calls.append(t)
        return np.array([[0.0, 1.0 + t], [-1.0, 0.0]])

    magnus_step(A, 0.0, 0.1, np.array([1.0, 0.0]), 4)
    assert len(calls) == 2


def test_memo_reuses_the_exponential_of_a_step():
    calls = []

    def A(t):
        calls.append(t)
        return np.array([[0.0, 1.0 + t], [-1.0, 0.0]])

    memo = {}
    y = np.array([1.0, 0.5])
    first = magnus_step(A, 0.2, 0.1, y, 6, memo=memo)
    assert len(calls) == 3 and list(memo) == [(0.2, 0.1)]
    assert np.array_equal(first, magnus_step(A, 0.2, 0.1, y, 6))
    calls.clear()
    again = magnus_step_matrix(A, 0.2, 0.1, np.eye(2), 6, memo=memo)
    assert not calls
    assert np.array_equal(again, memo[(0.2, 0.1)])
    assert np.array_equal(again @ y, first)


def test_no_warning_inside_bound():
    import warnings

    def A(t):
        return np.array([[0.0, 1.0], [-1.0, 0.0]])

    with warnings.catch_warnings():
        warnings.simplefilter("error", MagnusConvergenceWarning)
        magnus_step(A, 0.0, 0.1, np.array([1.0, 0.0]), 2)


def test_step_input_validation():
    A = lambda t: np.eye(2)
    with pytest.raises(ValueError):
        magnus_step(A, 0.0, 0.0, np.zeros(2), 2)
    with pytest.raises(ValueError):
        magnus_step(A, 0.0, -0.1, np.zeros(2), 4)
    with pytest.raises(ValueError):
        magnus_step(A, 0.0, 0.1, np.zeros(2), 5)
    with pytest.raises(ValueError):
        magnus_step(lambda t: np.zeros(3), 0.0, 0.1, np.zeros(3), 2)
