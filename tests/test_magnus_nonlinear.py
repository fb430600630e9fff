import numpy as np
import pytest

from ddemagnus import (ChebyshevGrid, builtin_problem, expm,
                       nonlinear_magnus_step, solve)
from ddemagnus.magnus_nonlinear import BlockTriangularExpmv, DelayExponent


@pytest.mark.parametrize("order", [2, 3])
def test_state_independent_coefficients_are_exact(order):
    # A(y) = C constant collapses every stage to h*C
    rng = np.random.default_rng(order + 20)
    C = rng.standard_normal((3, 3)) * 0.4
    y0 = rng.standard_normal(3)
    got = nonlinear_magnus_step(lambda y: C, 0.25, y0, order)
    ref = expm(0.25 * C) @ y0
    assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def scalar_quadratic_decay(y):
    # y' = -y^2 in quasilinear form; exact solution 1/(1+t) from y(0)=1
    return np.array([[-y[0]]])


def test_order2_local_error_on_quadratic_decay():
    err_h = abs(nonlinear_magnus_step(scalar_quadratic_decay, 0.1,
                                      np.array([1.0]), 2)[0] - 1.0 / 1.1)
    err_h2 = abs(nonlinear_magnus_step(scalar_quadratic_decay, 0.05,
                                       np.array([1.0]), 2)[0] - 1.0 / 1.05)
    assert err_h <= 1e-3
    # one step has local error O(h^3): halving h divides it by ~8
    assert 5.5 <= err_h / err_h2 <= 10.5


def test_order3_local_error_on_quadratic_decay():
    err_h = abs(nonlinear_magnus_step(scalar_quadratic_decay, 0.1,
                                      np.array([1.0]), 3)[0] - 1.0 / 1.1)
    err_h2 = abs(nonlinear_magnus_step(scalar_quadratic_decay, 0.05,
                                       np.array([1.0]), 3)[0] - 1.0 / 1.05)
    # local error O(h^4): ratio ~16 up to an O(h) correction
    assert 11.0 <= err_h / err_h2 <= 20.0


def test_step_input_validation():
    A = lambda y: np.eye(2)
    with pytest.raises(ValueError):
        nonlinear_magnus_step(A, 0.0, np.zeros(2), 2)
    with pytest.raises(ValueError):
        nonlinear_magnus_step(A, 0.1, np.zeros(2), 4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("h", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("order", [2, 3])
def test_step_rejects_nonfinite_step_size(h, order):
    A = lambda y: np.array([[-1.0, 0.0], [0.0, -y[0] ** 2]])
    with pytest.raises(ValueError, match="step size h must be positive and finite"):
        nonlinear_magnus_step(A, h, np.ones(2), order)


def delay_rows(N, d, tau=1.0):
    """Constant rows d.. of the discretized delay system: (2/tau)(D kron I_d)[d:]."""
    return np.kron(ChebyshevGrid.build(N, tau).scaled_diff_matrix, np.eye(d))[d:]


def dense(T, lower):
    """The n x n matrix [[P, 0], [L21 W, c L22]] that a DelayExponent stands for."""
    d = T.P.shape[0]
    M = np.zeros((lower.shape[1], lower.shape[1]))
    M[:d, :d] = T.P
    M[d:, :d] = lower[:, :d] @ T.W
    M[d:, d:] = T.c * lower[:, d:]
    return M


def rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def random_exponent(rng, d, c, zero_w=False):
    W = np.zeros((d, d)) if zero_w else rng.standard_normal((d, d))
    return DelayExponent(rng.standard_normal((d, d)), W, c)


def test_delay_exponent_linear_operations_act_blockwise():
    rng = np.random.default_rng(41)
    d, lower = 2, delay_rows(4, 2)
    S, T = random_exponent(rng, d, 0.3), random_exponent(rng, d, -0.7)
    for got, ref in [(S + T, dense(S, lower) + dense(T, lower)),
                     (S - T, dense(S, lower) - dense(T, lower)),
                     (-S, -dense(S, lower)),
                     (2.5 * S, 2.5 * dense(S, lower)),
                     (S * 2.5, 2.5 * dense(S, lower)),
                     (np.float64(-0.25) * S, -0.25 * dense(S, lower))]:
        assert isinstance(got, DelayExponent)
        np.testing.assert_allclose(dense(got, lower), ref, rtol=0, atol=1e-13)


def test_delay_exponent_products_in_the_closed_cases():
    rng = np.random.default_rng(42)
    d, lower = 3, delay_rows(5, 3)
    general = random_exponent(rng, d, 0.4)
    top_only = random_exponent(rng, d, 0.0, zero_w=True)
    no_shift = random_exponent(rng, d, 0.0)
    for left, right in [(general, top_only), (top_only, general), (no_shift, general),
                        (no_shift, top_only), (top_only, top_only)]:
        got = left @ right
        assert got.c == 0.0
        ref = dense(left, lower) @ dense(right, lower)
        np.testing.assert_allclose(dense(got, lower), ref, rtol=0,
                                   atol=1e-13 * np.abs(ref).max())


def test_delay_exponent_rejects_products_outside_the_form():
    rng = np.random.default_rng(43)
    d = 2
    general = random_exponent(rng, d, 0.4)
    for right in [random_exponent(rng, d, 0.5),
                  random_exponent(rng, d, 0.0),
                  random_exponent(rng, d, 0.5, zero_w=True)]:
        with pytest.raises(ValueError):
            general @ right


@pytest.mark.parametrize("order", [2, 3])
def test_intermediates_keep_delay_pattern(order):
    # a state-dependent evaluator with the discretized-delay pattern: the
    # structured action must accept every exponent the step builds and
    # agree with the dense exponential on it, and each exponent must be
    # the one the dense scheme builds from the assembled matrices
    rng = np.random.default_rng(order + 77)
    d, N = 2, 3
    lower = delay_rows(N, d)
    n = lower.shape[1]
    structured = BlockTriangularExpmv(lower, d)
    seen, seen_dense = [], []

    def expmv(T, y):
        got = structured(T, y)
        assert rel_err(got, expm(dense(T, lower)) @ y) <= 1e-13
        seen.append(dense(T, lower))
        return got

    def dense_expmv(M, y):
        seen_dense.append(M)
        return expm(M) @ y

    def top(y):
        return np.array([[0.0, 1.0], [-1.0 - 0.1 * y[-1] ** 2, 0.0]])

    def A(y):
        M = np.zeros((n, n))
        M[:d, :d] = top(y)
        M[d:, :] = lower
        return M

    y0 = rng.standard_normal(n) * 0.2
    out = nonlinear_magnus_step(lambda y: DelayExponent(top(y), np.eye(d), 1.0),
                                0.05, y0, order, expmv=expmv)
    assert np.isfinite(out).all()
    assert len(seen) == {2: 2, 3: 4}[order]
    ref = nonlinear_magnus_step(A, 0.05, y0, order, expmv=dense_expmv)
    assert len(seen_dense) == len(seen)
    for T, M in zip(seen, seen_dense):
        assert not M[:d, d:].any()
        assert np.abs(T - M).max() <= 1e-13 * np.abs(M).max()
    assert rel_err(out, ref) <= 1e-13


def record_actions(monkeypatch, lower):
    """Route every structured action through a recorder of (dense T, y, result)."""
    calls = []
    action = BlockTriangularExpmv.__call__

    def recorded(self, T, y):
        out = action(self, T, y)
        calls.append((dense(T, lower), np.array(y), out))
        return out
    monkeypatch.setattr(BlockTriangularExpmv, "__call__", recorded)
    return calls


@pytest.mark.parametrize("name, N, M, order, t_final", [
    ("sir", 20, 20, 3, 10.0),
    ("sir", 20, 20, 2, 4.0),
    ("nonlinear-scalar", 16, 16, 3, 6.0),
    ("nonlinear-scalar", 16, 16, 2, 6.0),
])
def test_structured_action_matches_dense_on_solve_exponents(monkeypatch, name, N, M,
                                                            order, t_final):
    problem = builtin_problem(name).problem
    calls = record_actions(monkeypatch, delay_rows(N, problem.d, problem.tau))
    solve(problem, N, M, order, t_final)
    assert len(calls) >= {2: 2, 3: 4}[order] * M * int(t_final / problem.tau)
    worst = max(rel_err(out, expm(T) @ y) for T, y, out in calls)
    assert worst <= 1e-13


def population_matrix(rng, d):
    """A random graph Laplacian: off-diagonal >= 0, columns summing to 0."""
    W = rng.uniform(0.0, 1.0, (d, d))
    np.fill_diagonal(W, 0.0)
    return W - np.diag(W.sum(axis=0))


@pytest.mark.parametrize("norm", [0.1, 1.0, 3.0, 10.0, 30.0, 100.0])
def test_structured_action_matches_scipy_for_large_top_block(norm):
    # exponent of the SIR grid at h = 0.05 with ||P||_1 = norm, decaying
    # (Laplacian) and growing (its negative) top-left blocks
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(int(norm * 10))
    d, h = 3, 0.05
    lower = delay_rows(20, d)
    n = lower.shape[1]
    for sign in (1.0, -1.0):
        P = sign * population_matrix(rng, d)
        P *= norm / np.abs(P).sum(axis=0).max()
        S = np.eye(d) + 0.3 * rng.standard_normal((d, d))
        T = DelayExponent(P, h * S, h)
        y = rng.standard_normal(n)
        got = BlockTriangularExpmv(lower, d)(T, y)
        assert rel_err(got, linalg.expm(dense(T, lower)) @ y) <= 1e-12


def test_stiff_top_block_squares_instead_of_substepping():
    # ||P||_1 = 1e4 asks for m = 2^14: one table for R/m and 14 squarings of
    # the block-triangular exponential; the error grows like m * eps, as it
    # does for any scaling and squaring
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(7)
    d, h = 3, 0.05
    lower = delay_rows(20, d)
    n = lower.shape[1]
    P = population_matrix(rng, d)
    P *= 1e4 / np.abs(P).sum(axis=0).max()
    T = DelayExponent(P, h * (np.eye(d) + 0.3 * rng.standard_normal((d, d))), h)
    y = rng.standard_normal(n)
    action = BlockTriangularExpmv(lower, d)
    got = action(T, y)
    assert [m for _, m in action._tables] == [2 ** 14]
    assert rel_err(got, linalg.expm(dense(T, lower)) @ y) <= 1e-11


def test_trailing_partial_interval_builds_its_own_tables(monkeypatch):
    # 10.37 = ten delays plus a trailing interval of 8 steps of 0.04625
    problem = builtin_problem("sir").problem
    built = []
    table = BlockTriangularExpmv._table

    def spy(self, c, m):
        if (c, m) not in self._tables:
            built.append((c, m))
        return table(self, c, m)
    monkeypatch.setattr(BlockTriangularExpmv, "_table", spy)
    fast = solve(problem, 20, 20, 3, 10.37)
    assert sorted(c for c, _ in built) == pytest.approx([0.023125, 0.025, 0.04625, 0.05])
    assert all(m == 1 for _, m in built)
    lower = delay_rows(20, problem.d, problem.tau)
    monkeypatch.setattr(BlockTriangularExpmv, "__call__",
                        lambda self, T, y: expm(dense(T, lower)) @ y)
    dense_run = solve(problem, 20, 20, 3, 10.37)
    for got, ref in zip(fast.states, dense_run.states):
        assert rel_err(got, ref) <= 1e-12


def test_structured_action_rejects_broken_invariant():
    d, h = 3, 0.05
    lower = delay_rows(6, d)
    n = lower.shape[1]
    P = np.array([[-0.1, 0.0, 0.0], [0.1, -0.05, 0.0], [0.0, 0.05, 0.0]])
    W = h * np.eye(d)
    y = np.linspace(1.0, 2.0, n)
    action = BlockTriangularExpmv(lower, d)
    action(DelayExponent(P, W, h), y)

    def broken(block, index, value):
        bad = {"P": P.copy(), "W": W.copy()}
        bad[block][index] = value
        return DelayExponent(bad["P"], bad["W"], h)

    cases = [broken("P", (0, 0), np.nan), broken("P", (1, 2), np.inf),
             broken("W", (2, 1), np.nan), broken("W", (0, 0), -np.inf)]
    cases += [DelayExponent(P, W, c) for c in (0.0, -0.0, np.nan, np.inf, -np.inf)]
    for bad in cases:
        with pytest.raises(ValueError):
            action(bad, y)
        with pytest.raises(ValueError):
            BlockTriangularExpmv(lower, d)(bad, y)
