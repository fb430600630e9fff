import math

import numpy as np
import pytest

from ddemagnus import (ChebyshevGrid, builtin_problem, discretize, expm,
                       nonlinear_magnus_step, solve)
from ddemagnus import magnus_nonlinear
from ddemagnus.linalg import expm_numbers
from ddemagnus.magnus_nonlinear import (_MAX_TERMS, BlockTriangularExpmv, _series_terms,
                                        dense_expmv)


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


@pytest.mark.parametrize("shape", [(2, 3), (2,), (1, 2, 2)])
def test_step_rejects_a_state_matrix_that_is_not_square(shape):
    with pytest.raises(ValueError, match="evaluator must return a square matrix"):
        nonlinear_magnus_step(lambda y: np.ones(shape), 0.1, np.ones(2), 2)


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


def dense(P, W, c, lower):
    """The n x n matrix [[P, 0], [L21 W, c L22]] of the blocks P, W and c,
    W None standing for c I."""
    d = P.shape[0]
    M = np.zeros((lower.shape[1], lower.shape[1]))
    M[:d, :d] = P
    M[d:, :d] = lower[:, :d] @ (c * np.eye(d) if W is None else W)
    M[d:, d:] = c * lower[:, d:]
    return M


def dense_action(P, W, c, y, delayed, lower):
    """exp([[P, 0], [L21 W, c L22]]) y through the full exponential: its
    last d entries when ``delayed`` asks for them alone."""
    out = expm(dense(P, W, c, lower)) @ y
    return out[-len(P):] if delayed else out


def rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("order", [2, 3])
def test_intermediates_keep_delay_pattern(order):
    # a state-dependent evaluator with the discretized-delay pattern: the
    # structured action must accept every exponent the step builds and
    # agree with the dense exponential on it (a stage on its delayed
    # block, which alone it returns), and each exponent's blocks, W and c
    # among them, must give the matrix the dense scheme builds from the
    # assembled matrices
    rng = np.random.default_rng(order + 77)
    d, N = 2, 3
    lower = delay_rows(N, d)
    n = lower.shape[1]
    structured = BlockTriangularExpmv(lower, d)
    seen, seen_dense, requests = [], [], []

    def expmv(P, W, c, y, delayed=False):
        got = structured(P, W, c, y, delayed)
        assert got.shape == ((d,) if delayed else (n,))
        assert rel_err(got, dense_action(P, W, c, y, delayed, lower)) <= 1e-13
        seen.append(dense(P, W, c, lower))
        requests.append(delayed)
        return got

    def dense_expmv(M, W, c, y, delayed=False):
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
    out = nonlinear_magnus_step(top, 0.05, y0, order, expmv=expmv)
    assert np.isfinite(out).all()
    assert len(seen) == {2: 2, 3: 4}[order]
    assert requests == {2: [True, False], 3: [True, True, True, False]}[order]
    ref = nonlinear_magnus_step(A, 0.05, y0, order, expmv=dense_expmv)
    assert len(seen_dense) == len(seen)
    for T, M in zip(seen, seen_dense):
        assert not M[:d, d:].any()
        assert np.abs(T - M).max() <= 1e-13 * np.abs(M).max()
    assert rel_err(out, ref) <= 1e-13


class Blocks:
    """Reference algebra of exponents T = [[P, 0], [L21 W, c L22]] held as
    (P, W, c): sums, negation and scalar multiples act blockwise, and a
    product, formed only where it keeps the form (c = 0 on the left, or
    W = 0 and c = 0 on the right), is (P1 P2, W1 P2, 0)."""

    def __init__(self, P, W, c):
        self.P, self.W, self.c = P, W, c

    def __add__(self, other):
        return Blocks(self.P + other.P, self.W + other.W, self.c + other.c)

    def __sub__(self, other):
        return Blocks(self.P - other.P, self.W - other.W, self.c - other.c)

    def __neg__(self):
        return Blocks(-self.P, -self.W, -self.c)

    def __rmul__(self, s):
        return Blocks(s * self.P, s * self.W, s * self.c)

    def __matmul__(self, other):
        assert self.c == 0.0 or (other.c == 0.0 and not other.W.any())
        return Blocks(self.P @ other.P, self.W @ other.P, 0.0)


def blocks_step(top, h, y, order, action):
    """One step of the order-2 or order-3 scheme with every exponent carried
    as :class:`Blocks`, each evaluation being (h top(y), h I, h)."""
    d = top(y).shape[0]
    A = lambda y: Blocks(top(y), np.eye(d), 1.0)
    expmv = lambda T, y: action(T.P, T.W, T.c, y)
    if order == 2:
        u = h * A(y)
        v = 0.5 * (u + h * A(expmv(u, y)))
        return expmv(v, y)
    q1 = h * A(y)
    q2 = h * A(expmv(0.5 * q1, y)) - q1
    u1 = 0.5 * q1 + 0.25 * q2
    u2 = q1 + q2
    q3 = -u2 + h * A(expmv(u1, y))
    q4 = -u2 - q2 + h * A(expmv(u2, y))
    u3 = u2 + (2.0 / 3.0) * q3 + (1.0 / 6.0) * q4 - (1.0 / 6.0) * (q1 @ q2 - q2 @ q1)
    return expmv(u3, y)


@pytest.mark.parametrize("order", [2, 3])
def test_step_gives_the_bits_of_the_block_algebra(order):
    # the step sets W and c by construction; on SIR blocks along a solve's
    # first interval and a half it must give, bit for bit, the state the
    # same scheme gives with (P, W, c) carried through the block algebra
    problem = builtin_problem("sir").problem
    N, M, d = 20, 20, problem.d
    h = problem.tau / M
    action = BlockTriangularExpmv(delay_rows(N, d, problem.tau), d)
    top = lambda y: problem.A(y[-d:])
    y = ref = discretize(problem, N).phi_vector
    for _ in range(3 * M // 2):
        y = nonlinear_magnus_step(top, h, y, order, expmv=action)
        ref = blocks_step(top, h, ref, order, action)
        assert y.tobytes() == ref.tobytes()


def record_actions(monkeypatch):
    """Route every structured action through a recorder of (blocks, y,
    request, result)."""
    calls = []
    action = BlockTriangularExpmv.__call__

    def recorded(self, P, W, c, y, delayed=False):
        out = action(self, P, W, c, y, delayed)
        calls.append(((P, W, c), np.array(y), delayed, out))
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
    calls = record_actions(monkeypatch)
    solve(problem, N, M, order, t_final)
    assert len(calls) >= {2: 2, 3: 4}[order] * M * int(t_final / problem.tau)
    lower = delay_rows(N, problem.d, problem.tau)
    worst = max(rel_err(out, dense_action(*blocks, y, delayed, lower))
                for blocks, y, delayed, out in calls)
    assert worst <= 1e-13


def population_matrix(rng, d):
    """A random graph Laplacian: off-diagonal >= 0, columns summing to 0."""
    W = rng.uniform(0.0, 1.0, (d, d))
    np.fill_diagonal(W, 0.0)
    return W - np.diag(W.sum(axis=0))


def norm_with_terms(K):
    """A ||P||_1 <= 1 that the series sums with exactly K terms: 1 % below
    the largest nu with nu^K / K! <= 2^-53, capped below 1."""
    return 0.99 * min(1.0, (2.0 ** -53 * math.factorial(K)) ** (1.0 / K))


def test_norms_with_terms_cover_every_series_length():
    assert [_series_terms(norm_with_terms(K)) for K in range(1, _MAX_TERMS + 1)] == \
        list(range(1, _MAX_TERMS + 1))


@pytest.mark.parametrize("norm", [30.0, 1e4] + [
    pytest.param(norm_with_terms(K), id=f"K={K}") for K in range(1, _MAX_TERMS + 1)])
def test_delayed_block_is_the_last_of_the_full_action(norm):
    # a stage asks for the last d entries of exp(T) y alone: for every
    # series length at m = 1 and on the stiff branch they are the full
    # action's bit for bit, with W = c I passed as None and with a general W
    rng = np.random.default_rng(int(norm * 1000) % 2 ** 32)
    d, h = 3, 0.05
    lower = delay_rows(20, d)
    P = population_matrix(rng, d)
    P *= norm / np.abs(P).sum(axis=0).max()
    W = h * (np.eye(d) + 0.3 * rng.standard_normal((d, d)))
    y = rng.standard_normal(lower.shape[1])
    action = BlockTriangularExpmv(lower, d)
    for c in (h, h / 2):
        full = action(P, c * np.eye(d), c, y)
        assert action(P, None, c, y).tobytes() == full.tobytes()
        assert action(P, None, c, y, delayed=True).tobytes() == full[-d:].tobytes()
        assert action(P, W, c, y, delayed=True).tobytes() == action(P, W, c, y)[-d:].tobytes()


def test_dense_action_returns_the_whole_state_whatever_is_asked():
    rng = np.random.default_rng(5)
    M, y = 0.3 * rng.standard_normal((4, 4)), rng.standard_normal(4)
    full = expm(M) @ y
    for W in (None, np.eye(2)):
        assert dense_expmv(M, W, 1.0, y, delayed=True).tobytes() == full.tobytes()
        assert dense_expmv(M, W, 1.0, y).tobytes() == full.tobytes()


@pytest.mark.parametrize("name, params, N, order, t_final", [
    ("sir", {}, 20, 3, 10.0),
    ("sir", {}, 20, 2, 10.0),
    ("sir", {"beta": 30.0}, 20, 3, 10.0),
    ("sir", {}, 20, 3, 10.37),
    ("nonlinear-scalar", {}, 16, 3, 6.0),
    ("nonlinear-scalar", {}, 16, 2, 6.0),
], ids=["sir-3", "sir-2", "sir-beta30", "sir-10.37", "scalar-3", "scalar-2"])
def test_delayed_stages_give_the_bits_of_full_stages(monkeypatch, name, params, N, order,
                                                     t_final):
    # every stored state equals, bit for bit, that of the same solve with
    # each stage taken as the full action on W = c I and then sliced
    problem = builtin_problem(name, **params).problem
    fast = solve(problem, N, N, order, t_final, store_steps=True)
    call = BlockTriangularExpmv.__call__

    def full(self, P, W, c, y, delayed=False):
        out = call(self, P, c * np.eye(self.d) if W is None else W, c, y)
        return out[-self.d:] if delayed else out
    monkeypatch.setattr(BlockTriangularExpmv, "__call__", full)
    slow = solve(problem, N, N, order, t_final, store_steps=True)
    assert fast.states.tobytes() == slow.states.tobytes()


def shifted_scipy_action(linalg, P, W, c, lower, y):
    """exp(T) y as e^s scipy.linalg.expm(T - s I) y, s >= 0 the spectral
    abscissa of P.  Unshifted, scipy's expm is off by up to 2.5e-12 on a
    growing P with ||P||_1 = 30 or 100 at d = 1; shifted, it stays within
    2e-15 of a 40-digit mpmath reference on such exponents at ||P||_1 = 1
    to 100, d = 1 and 3, both signs."""
    M = dense(P, W, c, lower)
    s = max(0.0, np.linalg.eigvals(P).real.max())
    return math.exp(s) * (linalg.expm(M - s * np.eye(len(M))) @ y)


@pytest.mark.parametrize("norm", [0.1, 1.0, 3.0, 10.0, 30.0, 100.0] + [
    pytest.param(norm_with_terms(K), id=f"K={K}") for K in range(1, _MAX_TERMS + 1)])
def test_structured_action_matches_scipy_for_large_top_block(norm):
    # exponent of the SIR grid (d = 3) and of a scalar delay (d = 1) at
    # h = 0.05 with ||P||_1 = norm, decaying (Laplacian) and growing (its
    # negative) top-left blocks; up to norm 1 (m = 1) the series alone
    # gives exp(T) y, beyond it squarings follow
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(int(norm * 10))
    h, bound = 0.05, 1e-14 if norm <= 1.0 else 1e-12
    for d in (3, 1):
        lower = delay_rows(20, d)
        n = lower.shape[1]
        for sign in (1.0, -1.0):
            P = sign * (population_matrix(rng, d) if d > 1 else -np.ones((1, 1)))
            P *= norm / np.abs(P).sum(axis=0).max()
            S = np.eye(d) + 0.3 * rng.standard_normal((d, d))
            y = rng.standard_normal(n)
            got = BlockTriangularExpmv(lower, d)(P, h * S, h, y)
            assert rel_err(got, shifted_scipy_action(linalg, P, h * S, h, lower, y)) <= bound


def test_stiff_top_block_squares_instead_of_substepping():
    # ||P||_1 = 1e4 asks for m = 2^14: the series on the table of h/m and 14
    # squarings of the block-triangular exponential, the i-th reading
    # e^{2^i R/m} from the table of h 2^(i-14), so 15 scales h/2^14 ... h;
    # the error grows like m * eps, as it does for any scaling and squaring
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(7)
    d, h = 3, 0.05
    lower = delay_rows(20, d)
    n = lower.shape[1]
    P = population_matrix(rng, d)
    P *= 1e4 / np.abs(P).sum(axis=0).max()
    W = h * (np.eye(d) + 0.3 * rng.standard_normal((d, d)))
    y = rng.standard_normal(n)
    action = BlockTriangularExpmv(lower, d)
    got = action(P, W, h, y)
    assert sorted(action._tables) == [h / 2.0 ** k for k in range(14, -1, -1)]
    assert rel_err(got, linalg.expm(dense(P, W, h, lower)) @ y) <= 1e-12


def test_structured_action_rejects_a_norm_too_large_to_scale():
    # ||P||_1 = 2^52 scales by m = 2^52 and squares 52 times; above it the
    # error bound m * eps is 1/2 or more, which is a ValueError naming the
    # norm, raised before any table is built
    lower = delay_rows(4, 1)
    action, W, y = BlockTriangularExpmv(lower, 1), 0.05 * np.eye(1), np.ones(5)
    assert np.isfinite(action(np.array([[-2.0 ** 52]]), W, 0.05, y)).all()
    for norm in (np.nextafter(2.0 ** 52, np.inf), 1e308, np.finfo(float).max):
        fresh = BlockTriangularExpmv(lower, 1)
        with pytest.raises(ValueError, match=r"\|\|P\|\|_1 = .*, above 2\*\*52: too large"):
            fresh(np.array([[-norm]]), W, 0.05, y)
        assert fresh._tables == {}


def test_a_stiff_action_reads_the_table_of_half_its_scale(monkeypatch):
    # a j = 1 action at c = h squares once from the table of h/2, the very
    # table a series action at c = h/2 built, and builds only that of h
    d, h = 3, 0.05
    lower = delay_rows(20, d)
    n = lower.shape[1]
    built, read = [], []
    table = BlockTriangularExpmv._table

    def spy(self, c):
        read.append(table(self, c))
        return read[-1]
    monkeypatch.setattr(BlockTriangularExpmv, "_table", spy)
    monkeypatch.setattr(magnus_nonlinear, "expm", lambda Z: built.append(Z) or expm(Z))
    P, W, y = np.diag([-2.0, -1.0, 0.0]), h * np.eye(d), np.linspace(1.0, 2.0, n)
    action = BlockTriangularExpmv(lower, d)
    action(P / 2, W / 2, h / 2, y)
    [half] = read
    action(P, W, h, y)
    assert sorted(action._tables) == [h / 2, h] and len(built) == 2
    assert read[1] is half


def test_trailing_partial_interval_builds_its_own_tables(monkeypatch):
    # 10.37 = ten delays plus a trailing interval of 8 steps of 0.04625;
    # no action is stiff, so the tables are those of h and h/2 alone
    problem = builtin_problem("sir").problem
    built = []
    table = BlockTriangularExpmv._table

    def spy(self, c):
        if c not in self._tables:
            built.append(c)
        return table(self, c)
    monkeypatch.setattr(BlockTriangularExpmv, "_table", spy)
    fast = solve(problem, 20, 20, 3, 10.37)
    assert sorted(built) == pytest.approx([0.023125, 0.025, 0.04625, 0.05])
    lower = delay_rows(20, problem.d, problem.tau)
    monkeypatch.setattr(BlockTriangularExpmv, "__call__",
                        lambda self, P, W, c, y, delayed=False:
                        dense_action(P, W, c, y, delayed, lower))
    dense_run = solve(problem, 20, 20, 3, 10.37)
    for got, ref in zip(fast.states, dense_run.states):
        assert rel_err(got, ref) <= 1e-12


def owned_bytes(a):
    """Bytes an array keeps alive: its base's, when it is a view."""
    return (a if a.base is None else a.base).nbytes


def spy_on_builds(monkeypatch):
    """Record each instance made and each block matrix its tables exponentiate."""
    instances, blocks = [], []
    init = BlockTriangularExpmv.__init__

    def spy_init(self, lower, d):
        init(self, lower, d)
        instances.append(self)
    monkeypatch.setattr(BlockTriangularExpmv, "__init__", spy_init)
    monkeypatch.setattr(magnus_nonlinear, "expm", lambda Z: blocks.append(Z) or expm(Z))
    return instances, blocks


def peak_bytes(action, blocks):
    """The lower rows and tables the instance holds, plus the block matrix
    and the expm workspace of building the last table."""
    held = owned_bytes(action._l21) + owned_bytes(action._l22) + sum(
        map(owned_bytes, action._tables.values()))
    return held + blocks[-1].nbytes + 8 * expm_numbers(1, len(blocks[-1]))


def test_numbers_bounds_what_a_sir_solve_holds(monkeypatch):
    # whatever share of its actions is stiff, a sir solve builds each table
    # with one expm and holds within numbers(): without a parameter its two
    # tables of h and h/2, with a large beta a table of every scale its
    # squarings reach
    instances, blocks = spy_on_builds(monkeypatch)
    norms = []
    call = BlockTriangularExpmv.__call__

    def spy_call(self, P, W, c, y, delayed=False):
        norms.append(np.abs(P).sum(axis=0).max())
        return call(self, P, W, c, y, delayed)
    monkeypatch.setattr(BlockTriangularExpmv, "__call__", spy_call)
    for params, stiff in [({}, 0), ({"beta": 30.0}, 86), ({"beta": 1000.0}, 413),
                          ({"beta": 1e6}, 800)]:
        problem = builtin_problem("sir", **params).problem
        N, d = 20, problem.d
        instances.clear(), blocks.clear(), norms.clear()
        solve(problem, N, 20, 3, 10.0)
        [action] = instances
        assert sum(norm > 1.0 for norm in norms) == stiff
        assert len(action._tables) == len(blocks)
        assert (len(blocks) == 2) == (stiff == 0)
        assert peak_bytes(action, blocks) <= 8 * BlockTriangularExpmv.numbers(d * (N + 1), d)


def test_numbers_bounds_every_scale_the_cap_allows(monkeypatch):
    # actions at c = h and h/2 of two step sizes whose ratio is no power of
    # two, each at every ||P||_1 = 2^j the cap allows, reach the 2 x 54
    # scales numbers() counts, each built once
    N, d = 4, 3
    lower = delay_rows(N, d)
    _, blocks = spy_on_builds(monkeypatch)
    action = BlockTriangularExpmv(lower, d)
    y = np.linspace(1.0, 2.0, lower.shape[1])
    for h in (0.05, 0.04625):
        for c in (h, h / 2):
            for j in range(53):
                P = np.diag([-1.0, -0.5, 0.0]) * 2.0 ** j
                assert np.isfinite(action(P, c * np.eye(d), c, y)).all()
    assert len(action._tables) == len(blocks) == 2 * 54
    assert peak_bytes(action, blocks) <= 8 * BlockTriangularExpmv.numbers(d * (N + 1), d)


def test_structured_action_rejects_broken_invariant():
    d, h = 3, 0.05
    lower = delay_rows(6, d)
    n = lower.shape[1]
    P = np.array([[-0.1, 0.0, 0.0], [0.1, -0.05, 0.0], [0.0, 0.05, 0.0]])
    W = h * np.eye(d)
    y = np.linspace(1.0, 2.0, n)
    action = BlockTriangularExpmv(lower, d)
    action(P, W, h, y)

    def broken(block, index, value):
        bad = {"P": P.copy(), "W": W.copy()}
        bad[block][index] = value
        return bad["P"], bad["W"], h

    cases = [broken("P", (0, 0), np.nan), broken("P", (1, 2), np.inf),
             broken("W", (2, 1), np.nan), broken("W", (0, 0), -np.inf)]
    cases += [(P, W, c) for c in (0.0, -0.0, np.nan, np.inf, -np.inf)]
    for bad in cases:
        with pytest.raises(ValueError):
            action(*bad, y)
        with pytest.raises(ValueError):
            BlockTriangularExpmv(lower, d)(*bad, y)


@pytest.mark.parametrize("shape, d", [((4, 6), 3), ((4, 4), 1), ((7,), 3), ((4, 4), 0)])
def test_structured_action_rejects_lower_rows_of_the_wrong_shape(shape, d):
    with pytest.raises(ValueError, match="lower rows must have shape"):
        BlockTriangularExpmv(np.zeros(shape), d)
