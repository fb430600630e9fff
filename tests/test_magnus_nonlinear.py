import numpy as np
import pytest

from ddemagnus import (ChebyshevGrid, builtin_problem, expm,
                       nonlinear_magnus_step, solve, structure_check)
from ddemagnus.magnus_nonlinear import BlockTriangularExpmv


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


def _patterned(rng, d, n):
    M = rng.standard_normal((n, n))
    M[:d, d:] = 0.0
    return M


def test_structure_check_patterns():
    rng = np.random.default_rng(31)
    assert structure_check(_patterned(rng, 2, 8), 2)
    assert structure_check(np.zeros((6, 6)), 3)
    assert not structure_check(rng.standard_normal((8, 8)), 2)


def test_structure_check_validation():
    with pytest.raises(ValueError):
        structure_check(np.zeros((4, 5)), 2)
    with pytest.raises(ValueError):
        structure_check(np.zeros((5, 5)), 2)  # 5 not a multiple of 2
    with pytest.raises(ValueError):
        structure_check(np.zeros((4, 4)), 0)


def delay_rows(N, d, tau=1.0):
    """Constant rows d.. of the discretized delay system: (2/tau)(D kron I_d)[d:]."""
    return np.kron(ChebyshevGrid.build(N, tau).scaled_diff_matrix, np.eye(d))[d:]


def rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("order", [2, 3])
def test_intermediates_keep_delay_pattern(order):
    # a state-dependent evaluator with the discretized-delay pattern: the
    # structured action must accept every exponent the step builds and
    # agree with the dense exponential on it
    rng = np.random.default_rng(order + 77)
    d, N = 2, 3
    lower = delay_rows(N, d)
    n = lower.shape[1]
    structured = BlockTriangularExpmv(lower, d)
    seen = []

    def expmv(T, y):
        got = structured(T, y)
        assert rel_err(got, expm(T) @ y) <= 1e-13
        seen.append(T)
        return got

    def A(y):
        M = np.zeros((n, n))
        M[:d, :d] = np.array([[0.0, 1.0], [-1.0 - 0.1 * y[-1] ** 2, 0.0]])
        M[d:, :] = lower
        return M

    y0 = rng.standard_normal(n) * 0.2
    out = nonlinear_magnus_step(A, 0.05, y0, order, expmv=expmv)
    assert np.isfinite(out).all()
    assert len(seen) == {2: 2, 3: 4}[order]
    assert all(structure_check(T, d) for T in seen)
    dense = nonlinear_magnus_step(A, 0.05, y0, order)
    assert rel_err(out, dense) <= 1e-13


def record_actions(monkeypatch):
    """Route every structured action through a recorder of (T, y, result)."""
    calls = []
    action = BlockTriangularExpmv.__call__

    def recorded(self, T, y):
        out = action(self, T, y)
        calls.append((np.array(T), np.array(y), out))
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
    calls = record_actions(monkeypatch)
    problem = builtin_problem(name).problem
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
        T = np.zeros((n, n))
        T[:d, :d] = P
        T[d:, :d] = h * lower[:, :d] @ S
        T[d:, d:] = h * lower[:, d:]
        y = rng.standard_normal(n)
        got = BlockTriangularExpmv(lower, d)(T, y)
        assert rel_err(got, linalg.expm(T) @ y) <= 1e-12


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
    T = np.zeros((n, n))
    T[:d, :d] = P
    T[d:, :d] = h * lower[:, :d] @ (np.eye(d) + 0.3 * rng.standard_normal((d, d)))
    T[d:, d:] = h * lower[:, d:]
    y = rng.standard_normal(n)
    action = BlockTriangularExpmv(lower, d)
    got = action(T, y)
    assert [m for _, m in action._tables] == [2 ** 14]
    assert rel_err(got, linalg.expm(T) @ y) <= 1e-11


def test_trailing_partial_interval_builds_its_own_tables(monkeypatch):
    # 10.37 = ten delays plus a trailing interval of 8 steps of 0.04625
    problem = builtin_problem("sir").problem
    built = []
    table = BlockTriangularExpmv._table

    def spy(self, key, R, c, m):
        if (key, m) not in self._tables:
            built.append((c, m))
        return table(self, key, R, c, m)
    monkeypatch.setattr(BlockTriangularExpmv, "_table", spy)
    fast = solve(problem, 20, 20, 3, 10.37)
    assert sorted(c for c, _ in built) == pytest.approx([0.023125, 0.025, 0.04625, 0.05])
    assert all(m == 1 for _, m in built)
    monkeypatch.setattr(BlockTriangularExpmv, "__call__", lambda self, T, y: expm(T) @ y)
    dense = solve(problem, 20, 20, 3, 10.37)
    for got, ref in zip(fast.states, dense.states):
        assert rel_err(got, ref) <= 1e-12


def test_structured_action_rejects_broken_invariant():
    d, h = 3, 0.05
    lower = delay_rows(6, d)
    n = lower.shape[1]
    T = np.zeros((n, n))
    T[:d, :d] = [[-0.1, 0.0, 0.0], [0.1, -0.05, 0.0], [0.0, 0.05, 0.0]]
    T[d:] = h * lower
    y = np.linspace(1.0, 2.0, n)
    action = BlockTriangularExpmv(lower, d)
    action(T, y)

    def broken(index, value):
        bad = T.copy()
        bad[index] = value
        return bad

    noise = np.random.default_rng(3).standard_normal((n - d, n - d))
    cases = [
        broken((0, n - 1), 1e-3),                       # nonzero top-right block
        broken((n - 1, n - 1), 1.5 * T[n - 1, n - 1]),  # R not a multiple of L22
        broken((slice(d, None), slice(d, None)), noise),
        broken((d, 0), T[d, 0] + 1.0),                  # X not L21 @ S
        broken((0, 0), np.nan),
    ]
    for bad in cases:
        with pytest.raises(ValueError):
            action(bad, y)
        with pytest.raises(ValueError):
            BlockTriangularExpmv(lower, d)(bad, y)
    with pytest.raises(ValueError):
        action(T[:-d, :-d], y[:-d])
