import numpy as np
import pytest

from ddemagnus import (ChebyshevGrid, builtin_problem, commutator, discretize,
                       expm, magnus_step, magnus_step_matrix, monodromy)
from ddemagnus.magnus_linear import TopRows, _omega

SQRT3, SQRT15 = np.sqrt(3.0), np.sqrt(15.0)


def dense_omega(A, t, h, order):
    """The order-2/4/6 exponents from full matrices and dense commutators."""
    if order == 2:
        return h * A(t + 0.5 * h)
    if order == 4:
        a1 = A(t + (0.5 - SQRT3 / 6.0) * h)
        a2 = A(t + (0.5 + SQRT3 / 6.0) * h)
        return 0.5 * h * (a1 + a2) - (h * h * SQRT3 / 12.0) * commutator(a1, a2)
    a1, a2, a3 = (A(t + c * h) for c in (0.5 - SQRT15 / 10.0, 0.5, 0.5 + SQRT15 / 10.0))
    alpha1 = h * a2
    alpha2 = (SQRT15 * h / 3.0) * (a3 - a1)
    alpha3 = (10.0 * h / 3.0) * (a3 - 2.0 * a2 + a1)
    c1 = commutator(alpha1, alpha2)
    c2 = (-1.0 / 60.0) * commutator(alpha1, 2.0 * alpha3 + c1)
    return (alpha1 + alpha3 / 12.0
            + commutator(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0)


def at_each(f):
    """The ``TopRows.top`` form of a function of one time: stacked over a sequence."""
    return lambda times: np.array([f(t) for t in times])


def delay_rows(d, seed, N=8, tau=1.0):
    """Random smooth top rows over the delay rows (2/tau)(D kron I_d), as
    TopRows and as the full-matrix callable."""
    lower = np.kron(ChebyshevGrid.build(N, tau).scaled_diff_matrix, np.eye(d))[d:]
    c0, c1, c2 = np.random.default_rng(seed).standard_normal((3, d, lower.shape[1]))

    def top(t):
        return c0 + np.sin(t) * c1 + np.cos(2.0 * t) * c2

    return TopRows(at_each(top), lower), lambda t: np.vstack((top(t), lower))


def assert_relative(got, ref, tol):
    assert np.abs(got - ref).max() <= tol * np.abs(ref).max()


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


def test_order4_step_evaluates_coefficient_twice():
    # one evaluation at each of the two Gauss points, none elsewhere
    calls = []

    def A(t):
        calls.append(t)
        return np.array([[0.0, 1.0 + t], [-1.0, 0.0]])

    magnus_step(A, 0.0, 0.1, np.array([1.0, 0.0]), 4)
    assert len(calls) == 2


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("h", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("order", [2, 4, 6])
def test_step_rejects_nonfinite_step_size(h, order):
    A = lambda t: np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="step size h must be positive and finite"):
        magnus_step(A, 0.0, h, np.ones(2), order)
    with pytest.raises(ValueError, match="step size h must be positive and finite"):
        magnus_step_matrix(A, 0.0, h, np.eye(2), order)


@pytest.mark.parametrize("order", [4, 6])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_structured_omega_matches_dense_formula(order, d):
    rows, full = delay_rows(d, seed=d)
    for t, h in ((0.0, 0.05), (0.3, 0.125), (1.1, 0.4)):
        ref = dense_omega(full, t, h, order)
        assert_relative(_omega(rows, [t], h, order)[0], ref, 1e-13)
        # a plain callable is the case d = n, over an empty lower block
        assert_relative(_omega(TopRows(at_each(full)), [t], h, order)[0], ref, 1e-13)


@pytest.mark.parametrize("order", [2, 4, 6])
def test_plain_callable_and_factored_forms_give_the_same_exponent(order):
    # a plain callable, the same matrix as top rows over an empty lower
    # block (d = n) and the delay system's own top rows all take factored
    # commutators, and agree with the dense formula
    rows, full = delay_rows(2, seed=5)
    n = rows.lower.shape[1]
    for t, h in ((0.0, 0.05), (0.3, 0.125), (1.1, 0.4)):
        dense = dense_omega(full, t, h, order)
        assert_relative(_omega(TopRows(at_each(full)), [t], h, order)[0], dense, 1e-13)
        assert_relative(_omega(TopRows(at_each(full), np.empty((0, n))), [t], h, order)[0], dense,
                        1e-13)
        assert_relative(_omega(rows, [t], h, order)[0], dense, 1e-13)


def test_mathieu_monodromy_matches_dense_reference_propagation():
    problem = builtin_problem("mathieu").problem
    system = discretize(problem, 30)
    h = problem.period / 64
    ref = np.eye(system.big_dim)
    for k in range(64):
        ref = expm(dense_omega(system.matrix_at, k * h, h, 6)) @ ref
    assert_relative(monodromy(problem, 30, 64, 6).monodromy, ref, 1e-12)


@pytest.mark.parametrize("order", [2, 4, 6])
def test_a_sequence_of_starts_equals_a_loop_of_single_steps(order):
    # one call over consecutive steps stacks their exponents and states,
    # for top rows and for a plain callable alike
    rows, full = delay_rows(2, seed=order)
    h, starts = 0.05, [0.3 + k * 0.05 for k in range(5)]
    for A, y in ((rows, np.linspace(1.0, 2.0, rows.lower.shape[1])), (full, np.eye(18))):
        states = magnus_step(A, starts, h, y, order)
        assert states.shape == (5,) + y.shape
        for t, state in zip(starts, states):
            y = magnus_step(A, t, h, y, order)
            np.testing.assert_array_equal(state, y)
