import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ddemagnus import (ChebyshevGrid, DiscretizedSystem, LinearDDEProblem,
                       NumericalFailure, OutOfRangeError, QuasilinearDDEProblem,
                       builtin_problem, dde, discretize, eigenvalues, expm, magnus_step,
                       monodromy, solve, stability_verdict)
from ddemagnus.dde import MonodromyResult, Trajectory, _interval_plan
from ddemagnus.magnus_linear import TopRows

SQRT2 = np.sqrt(2.0)


def scalar_linear(a, b, tau, phi=None, period=None):
    return LinearDDEProblem(
        d=1, tau=tau,
        A=lambda t: np.array([[a]]),
        B=lambda t: np.array([[b]]),
        phi=phi or (lambda t: np.array([1.0])),
        period=period)


def paper_a4(a, b, tau):
    return (2.0 / tau) * np.array([
        [tau / 2 * a, 0.0, 0.0, 0.0, tau / 2 * b],
        [1 + SQRT2 / 2, -SQRT2 / 2, -SQRT2, SQRT2 / 2, -1 / (2 + SQRT2)],
        [-0.5, SQRT2, 0.0, -SQRT2, 0.5],
        [1 / (2 + SQRT2), -SQRT2 / 2, SQRT2, SQRT2 / 2, -1 - SQRT2 / 2],
        [-0.5, 4 / (2 + SQRT2), -2.0, 4 / (2 - SQRT2), -5.5],
    ])


@pytest.mark.parametrize("a,b,tau", [(0.37, -1.2, 0.9), (2.0, 3.0, np.pi / 2)])
def test_assemble_linear_reproduces_reference_5x5(a, b, tau):
    grid = ChebyshevGrid.build(4, tau)
    got = DiscretizedSystem(scalar_linear(a, b, tau), grid).matrix_at(0.0)
    expected = paper_a4(a, b, tau)
    assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
    assert np.all(got[0, 1:4] == 0.0)


def test_assemble_linear_zero_delay_coupling():
    grid = ChebyshevGrid.build(6, 1.0)
    got = DiscretizedSystem(scalar_linear(0.4, 0.0, 1.0), grid).matrix_at(0.0)
    assert np.all(got[0, 1:] == 0.0)


def test_assemble_linear_differentiates_smooth_history():
    # lower row blocks apply d/dtheta: samples of theta^2 map to 2*theta
    tau = 1.4
    grid = ChebyshevGrid.build(8, tau)
    system_matrix = DiscretizedSystem(scalar_linear(0.0, 0.0, tau), grid).matrix_at(0.0)
    samples = grid.nodes_shifted ** 2
    got = system_matrix @ samples
    np.testing.assert_allclose(got[1:], 2.0 * grid.nodes_shifted[1:], atol=1e-10)


def test_assemble_linear_grid_mismatch():
    grid = ChebyshevGrid.build(4, 0.5)
    with pytest.raises(ValueError, match="grid delay does not match"):
        DiscretizedSystem(scalar_linear(1.0, 1.0, 1.0), grid)


def test_assemble_quasilinear_uses_last_block_only():
    bench = builtin_problem("sir")
    grid = ChebyshevGrid.build(4, 1.0)
    state = np.zeros(15)
    state[-3:] = [0.7, 0.2, 0.1]
    system = DiscretizedSystem(bench.problem, grid)
    got = system.matrix_of_state(state)
    q = 0.2  # beta * I / (1 + alpha I) with alpha = 0, beta = 1
    np.testing.assert_allclose(got[:3, :3],
                               [[-q, 0, 0], [q, -1.0, 0], [0, 1.0, 0]],
                               atol=1e-15)
    assert not got[:3, 3:].any()  # rows 0..d-1 vanish outside columns 0..d-1
    # dependence comes only through the delayed block
    other = state.copy()
    other[:-3] = 123.0
    np.testing.assert_array_equal(got, system.matrix_of_state(other))


def test_assemble_quasilinear_constant_coefficient():
    prob = QuasilinearDDEProblem(d=1, tau=1.0, A=lambda x: np.array([[2.0]]),
                                 phi=lambda t: np.array([1.0]))
    grid = ChebyshevGrid.build(3, 1.0)
    system = DiscretizedSystem(prob, grid)
    m1 = system.matrix_of_state(np.ones(4))
    m2 = system.matrix_of_state(np.full(4, -9.0))
    np.testing.assert_array_equal(m1, m2)


def test_discretize_samples_initial_function():
    prob = scalar_linear(0.0, 0.0, 1.0, phi=lambda t: np.array([t]))
    system = discretize(prob, 2)
    np.testing.assert_allclose(system.phi_vector, [0.0, -0.5, -1.0], atol=1e-15)

    bench = builtin_problem("example1")
    np.testing.assert_allclose(discretize(bench.problem, 6).phi_vector[0], 1.0,
                               rtol=1e-15)

    sir = builtin_problem("sir")
    vec = discretize(sir.problem, 5).phi_vector
    assert vec[-2] == pytest.approx(0.7, abs=1e-15)  # I history at theta = -tau


def test_solve_constant_history_first_interval():
    # x' = -x(t-1), phi = 1: x(t) = 1 - t on [0, 1]. The constant history
    # has a derivative kink at t = 0, so the window representation is not
    # spectrally exact mid-window; the endpoint block is the accurate one.
    prob = scalar_linear(0.0, -1.0, 1.0)
    traj = solve(prob, 20, 4, 4, 1.0)
    exact = -traj.grid.nodes_shifted  # 1 - (1 + theta)
    assert abs(traj.states[-1][0] - 0.0) <= 1e-4
    assert np.abs(traj.states[-1] - exact).max() <= 5e-2


@pytest.mark.parametrize("order", [2, 4, 6])
def test_autonomous_collapse_one_step(order):
    rng = np.random.default_rng(order + 40)
    Ac = rng.standard_normal((2, 2)) * 0.6
    Bc = rng.standard_normal((2, 2)) * 0.6
    prob = LinearDDEProblem(d=2, tau=1.0, A=lambda t: Ac, B=lambda t: Bc,
                            phi=lambda t: np.array([np.cos(t), np.sin(t) + 0.5]))
    system = discretize(prob, 10)
    ref = expm(prob.tau * system.matrix_at(0.0)) @ system.phi_vector
    traj = solve(prob, 10, 1, order, 1.0)
    assert np.abs(traj.final_state - ref).max() <= 1e-13 * np.abs(ref).max()


def test_solve_chains_bitwise():
    bench = builtin_problem("example1")
    tau = bench.problem.tau
    full = solve(bench.problem, 8, 4, 4, 2 * tau)
    first = solve(bench.problem, 8, 4, 4, tau)
    resumed = solve(bench.problem, 8, 4, 4, 2 * tau, t_start=tau,
                    initial_state=first.final_state)
    np.testing.assert_array_equal(full.states[1], first.final_state)
    np.testing.assert_array_equal(full.final_state, resumed.final_state)


@pytest.mark.parametrize("t_start", [math.inf, -math.inf, math.nan])
def test_solve_rejects_nonfinite_t_start(t_start):
    bench = builtin_problem("example1")
    tau = bench.problem.tau
    first = solve(bench.problem, 8, 4, 4, tau)
    with pytest.raises(ValueError, match="t_start must be finite"):
        solve(bench.problem, 8, 4, 4, 2 * tau, t_start=t_start,
              initial_state=first.final_state)


def test_solve_snaps_final_time_to_breakpoints():
    bench = builtin_problem("example1")
    traj = solve(bench.problem, 6, 4, 2, 6.2832)  # 2*pi typed to 4 digits
    assert len(traj.times) == 5  # initial window + 4 whole intervals
    assert traj.final_time == pytest.approx(4 * bench.problem.tau, rel=1e-9)


def test_solve_partial_interval_ends_exactly():
    rng = np.random.default_rng(8)
    Ac = rng.standard_normal((2, 2)) * 0.5
    prob = LinearDDEProblem(d=2, tau=1.0, A=lambda t: Ac,
                            B=lambda t: np.zeros((2, 2)),
                            phi=lambda t: np.array([1.0, -0.5]))
    t_final = 1.3
    traj = solve(prob, 8, 4, 4, t_final)
    assert traj.final_time == t_final
    assert len(traj.times) == 3  # phi window, t=1, t=1.3
    # autonomous case: the chained exponentials equal one exponential
    system = discretize(prob, 8)
    ref = expm(t_final * system.matrix_at(0.0)) @ system.phi_vector
    assert np.abs(traj.final_state - ref).max() <= 1e-12 * np.abs(ref).max()


def test_solve_stores_steps_on_request():
    bench = builtin_problem("example1")
    tau = bench.problem.tau
    traj = solve(bench.problem, 6, 5, 2, tau, store_steps=True)
    np.testing.assert_array_equal(traj.intervals, [0, 1, 1, 1, 1, 1])
    assert traj.times.shape == (6,) and traj.states.shape == (6, 7)
    np.testing.assert_array_equal(traj.times[1:], np.arange(1, 6) * (tau / 5))
    assert traj.final_time == pytest.approx(tau)
    np.testing.assert_array_equal(traj.final_state, solve(bench.problem, 6, 5, 2, tau).final_state)


def test_trajectory_interpolation_matches_exact_solution():
    bench = builtin_problem("example1")
    traj = solve(bench.problem, 20, 32, 6, 2 * np.pi)
    for t in (0.4, 1.9, 5.8):
        got = traj.at(t)
        assert abs(got[0] - bench.exact(t)[0]) <= 1e-6
    with pytest.raises(OutOfRangeError):
        traj.at(7.0)
    for t in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(OutOfRangeError):
            traj.at(t)


def test_solve_argument_validation():
    bench = builtin_problem("example1")
    sir = builtin_problem("sir")
    with pytest.raises(ValueError):
        solve(bench.problem, 8, 4, 3, 1.0)  # order 3 is quasilinear-only
    with pytest.raises(ValueError):
        solve(sir.problem, 8, 4, 6, 1.0)  # order 6 is linear-only
    with pytest.raises(ValueError):
        solve(bench.problem, 8, 0, 2, 1.0)
    with pytest.raises(ValueError):
        solve(bench.problem, 8, 4, 2, 0.0)
    with pytest.raises(ValueError):
        solve(bench.problem, 8, 4, 2, 1e-7 * bench.problem.tau)  # below snap
    with pytest.raises(ValueError):
        solve(bench.problem, 8, 4, 2, 2.0, t_start=bench.problem.tau)


def _sir_matrix_of_state(state):
    system = DiscretizedSystem(builtin_problem("sir").problem, ChebyshevGrid.build(4, 1.0))
    return system.matrix_of_state(state)


def _resume(t_start, shape=(9,)):
    return solve(scalar_linear(0.5, -1.0, 1.0), 8, 4, 2, 3.0, t_start=t_start,
                 initial_state=np.ones(shape))


# (input check, a call it rejects, the start of its message)
_REJECTED_INPUTS = [
    ("linear d", lambda: LinearDDEProblem(d=0, tau=1.0, A=np.eye, B=np.eye, phi=np.ones),
     "state dimension d must be >= 1"),
    ("quasilinear d", lambda: QuasilinearDDEProblem(d=0, tau=1.0, A=np.eye, phi=np.ones),
     "state dimension d must be >= 1"),
    ("initial function", lambda: discretize(
        scalar_linear(1.0, -1.0, 1.0, phi=lambda t: np.array([np.nan if t < -0.5 else 1.0])), 4),
     "initial function returned a non-finite value"),
    ("t_start between breaking points", lambda: _resume(0.5), "t_start must be a nonnegative"),
    ("negative t_start", lambda: _resume(-1.0), "t_start must be a nonnegative"),
    ("initial_state shape", lambda: _resume(1.0, (8,)), "initial_state must have shape"),
    ("initial_state rank", lambda: _resume(1.0, (9, 1)), "initial_state must have shape"),
    ("short state", lambda: _sir_matrix_of_state(np.ones(14)), "state has shape"),
    ("matrix state", lambda: _sir_matrix_of_state(np.ones((15, 2))), "state has shape"),
]


@pytest.mark.parametrize("build, message", [case[1:] for case in _REJECTED_INPUTS],
                         ids=[case[0] for case in _REJECTED_INPUTS])
def test_input_checks_reject_bad_problems_and_states(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def nan_after(t_bad, period=None):
    # x' = -x(t - 1) + 0.1 sin(t) x, with A turning NaN for t > t_bad
    return LinearDDEProblem(
        d=1, tau=1.0,
        A=lambda t: np.array([[0.1 * np.sin(t) if t <= t_bad else np.nan]]),
        B=lambda t: np.array([[-1.0]]),
        phi=lambda t: np.array([1.0]), period=period)


def _step_loop(problem, N, M, order, t_final, state):
    """The state after each step of a plain loop of single magnus_step calls
    over the interval plan of :func:`solve` and :func:`monodromy`."""
    system = discretize(problem, N)
    A = TopRows(system.top_rows, system._lower)
    states = []
    for _, t0, length, _, n_steps, _ in _interval_plan(0, t_final, problem.tau, M):
        h = length / n_steps
        for k in range(n_steps):
            state = magnus_step(A, t0 + k * h, h, state, order)
            states.append(state)
    return np.array(states)


# (CHUNK_BYTES, steps per chunk at N = 6): one chunk per interval of 16 steps,
# or chunks of 5, which split 16 steps 5 + 5 + 5 + 1 and the 7 of the
# trailing partial interval 5 + 2
_CHUNKINGS = [(dde.CHUNK_BYTES, 148), (5 * 9 * 8 * 14 ** 2, 5)]


@pytest.mark.parametrize("chunk_bytes, chunk", _CHUNKINGS, ids=["whole", "uneven"])
@pytest.mark.parametrize("order", [2, 4, 6])
def test_chunked_intervals_equal_the_step_loop(monkeypatch, order, chunk_bytes, chunk):
    monkeypatch.setattr(dde, "CHUNK_BYTES", chunk_bytes)
    mathieu = builtin_problem("mathieu").problem   # d = 2, n = 14 at N = 6
    assert discretize(mathieu, 6).stepper(order)[1] == chunk
    # a vector state over two intervals and a partial one, without reuse
    problem = dataclasses.replace(mathieu, period=None)
    t_final = 2.4 * problem.tau
    states = solve(problem, 6, 16, order, t_final, store_steps=True).states
    np.testing.assert_array_equal(
        states[1:], _step_loop(problem, 6, 16, order, t_final, states[0]))
    # a matrix state over a period of one interval and a half
    problem = dataclasses.replace(mathieu, period=1.5 * mathieu.tau)
    np.testing.assert_array_equal(
        monodromy(problem, 6, 16, order).monodromy,
        _step_loop(problem, 6, 16, order, problem.period, np.eye(14))[-1])


def test_a_wide_system_exponentiates_one_step_at_a_time():
    # 9 n^2 doubles of Taylor block per step: a chunk holds 66 steps at
    # n = 21 but one at n = 122, where a Mathieu interval of 14 steps would
    # stack 15 MB; its peak stays near the 1.07 MB of one 2-D block
    assert discretize(builtin_problem("example1").problem, 20).stepper(6)[1] == 66
    problem = builtin_problem("mathieu").problem
    assert discretize(problem, 60).stepper(6)[1] == 1
    solve(problem, 60, 14, 6, problem.tau)   # what a first call allocates once
    tracemalloc.start()
    try:
        solve(problem, 60, 14, 6, problem.tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 9 * 122 ** 2 * 8


def _rejects_in(step_of):
    """x' = a(t) x - x(t - 1), stepped 16 times per delay in one chunk at N = 6;
    ``step_of`` maps the step a time falls in to what A returns there."""
    def A(t):
        return step_of(min(int(16 * t), 15))
    return LinearDDEProblem(d=1, tau=1.0, A=A, B=lambda t: np.array([[-1.0]]),
                            phi=lambda t: np.array([1.0]))


@pytest.mark.parametrize("A, step, message", [
    (lambda k: np.array([[np.nan if k >= 9 else 0.1]]), 9,
     "coefficient A returned non-finite entries"),
    (lambda k: np.zeros((2, 2) if k == 5 else (1, 1)), 5,
     "coefficient A returned shape (2, 2), expected (1, 1)"),
    # the first failure in time order wins over a later one of another kind
    (lambda k: np.array([[np.nan]]) if k == 9 else np.zeros((2, 2) if k == 12 else (1, 1)), 9,
     "coefficient A returned non-finite entries"),
], ids=["nan at step 9", "shape at step 5", "nan before shape"])
def test_a_failure_inside_a_chunk_reports_its_own_step(A, step, message):
    problem = _rejects_in(A)
    assert discretize(problem, 6).stepper(6)[1] >= 16
    with pytest.raises(NumericalFailure) as info:
        solve(problem, 6, 16, 6, 1.0)
    assert (info.value.interval, info.value.step) == (0, step)
    assert f"{message} in interval 0, step {step}" in str(info.value)
    # the chunk is retaken up to the failing step: partial is the state
    # that step starts from, as in a loop of single steps
    system = discretize(problem, 6)
    A, state = TopRows(system.top_rows, system._lower), system.phi_vector
    for k in range(step):
        state = magnus_step(A, k / 16, 1 / 16, state, 6)
    np.testing.assert_array_equal(info.value.partial, state)


def test_nonfinite_coefficient_reports_location():
    # steps of 0.25 in interval 1: the step from t = 1.5 is the first to
    # sample A beyond 1.5
    for run in (lambda p: solve(p, 6, 4, 6, 3.0),
                lambda p: monodromy(p, 6, 4, 6)):
        with pytest.raises(NumericalFailure) as info:
            run(nan_after(1.5, period=3.0))
        assert (info.value.interval, info.value.step) == (1, 2)
        assert "interval 1, step 2" in str(info.value)


def test_nonfinite_coefficient_in_a_reused_phase_reports_location():
    # period 1 = tau, so interval 0 forms the propagators every later
    # interval reuses; A turns NaN past t = 0.5, first sampled by step 2
    prob = LinearDDEProblem(
        d=1, tau=1.0, A=lambda t: np.array([[np.sin(2.0 * np.pi * t) if t <= 0.5 else np.nan]]),
        B=lambda t: np.array([[-1.0]]), phi=lambda t: np.array([1.0]), period=1.0)
    with pytest.raises(NumericalFailure) as info:
        solve(prob, 6, 4, 6, 3.0)
    assert (info.value.interval, info.value.step) == (0, 2)
    assert "coefficient A returned non-finite entries in interval 0, step 2" in str(info.value)


def test_nonfinite_quasilinear_coefficient_reports_location():
    # x' = -x(t - 1) x from x = 1: x(t) = exp(-t) on [0, 1], and A(x) turns
    # NaN once the delayed state drops below 0.5, i.e. past t = 1 + log 2;
    # order 2 at h = 0.25 first evaluates A there inside step 2 of interval 1
    prob = QuasilinearDDEProblem(
        d=1, tau=1.0, A=lambda x: np.array([[-x[0] if x[0] >= 0.5 else np.nan]]),
        phi=lambda t: np.array([1.0]))
    with pytest.raises(NumericalFailure) as info:
        solve(prob, 6, 4, 2, 3.0)
    assert (info.value.interval, info.value.step) == (1, 2)
    assert "coefficient A(x) returned non-finite entries" in str(info.value)
    assert "interval 1, step 2" in str(info.value)


def test_nonfinite_t_final_is_rejected():
    bench = builtin_problem("example1")
    for t_final in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t_final must be finite"):
            solve(bench.problem, 8, 4, 2, t_final)


_BAD_DELAYS = [(math.nan, "must be finite"), (math.inf, "must be finite"),
               (0.0, "must be positive"), (-1.0, "must be positive")]


@pytest.mark.parametrize("field", ["tau", "period"])
@pytest.mark.parametrize("value, message", _BAD_DELAYS)
def test_linear_problem_rejects_bad_delay_and_period(field, value, message):
    kwargs = {"tau": 1.0, "period": 2.0, field: value}
    with pytest.raises(ValueError, match=f"{field} {message}"):
        scalar_linear(1.0, -1.0, kwargs["tau"], period=kwargs["period"])


@pytest.mark.parametrize("value, message", _BAD_DELAYS)
def test_quasilinear_problem_rejects_bad_delay(value, message):
    with pytest.raises(ValueError, match=f"delay tau {message}"):
        QuasilinearDDEProblem(d=1, tau=value, A=lambda x: np.array([[-1.0]]),
                              phi=lambda t: np.array([1.0]))


def test_wrong_shaped_coefficient_reports_location():
    prob = LinearDDEProblem(d=1, tau=1.0,
                            A=lambda t: np.zeros((1, 1) if t < 1.0 else (2, 2)),
                            B=lambda t: np.array([[-1.0]]),
                            phi=lambda t: np.array([1.0]))
    with pytest.raises(NumericalFailure) as info:
        solve(prob, 6, 4, 2, 2.0)
    assert (info.value.interval, info.value.step) == (1, 0)
    assert "shape" in str(info.value)


def test_monodromy_matches_solve_over_partial_period():
    # period 2.5 = two whole delay intervals plus a half one: both drivers
    # walk the same plan, so Y(T) phi equals the solution state at T
    prob = LinearDDEProblem(
        d=2, tau=1.0,
        A=lambda t: np.array([[0.0, 1.0], [-1.0 - 0.5 * np.cos(0.8 * np.pi * t), -0.1]]),
        B=lambda t: np.array([[0.0, 0.0], [0.3 * np.sin(0.8 * np.pi * t), 0.0]]),
        phi=lambda t: np.array([np.cos(t), -np.sin(t)]), period=2.5)
    propagated = monodromy(prob, 10, 8, 6).monodromy @ discretize(prob, 10).phi_vector
    final = solve(prob, 10, 8, 6, 2.5).final_state
    assert np.abs(propagated - final).max() <= 1e-12 * np.abs(final).max()


@pytest.mark.parametrize("name, N, M, t_final", [
    ("example1", 12, 16, 3 * 2 * np.pi + 0.3 * np.pi),   # 3 periods plus a partial interval
    ("example1", 20, 64, 20 * 2 * np.pi),                # 20 periods: no drift in the C_k
    ("mathieu", 8, 8, 3 * 2 * np.pi),                    # p = 1: three delays
])
def test_periodic_reuse_matches_uncached_solve(name, N, M, t_final):
    problem = builtin_problem(name).problem
    reused = solve(problem, N, M, 6, t_final, store_steps=True)
    direct = solve(dataclasses.replace(problem, period=None), N, M, 6, t_final,
                   store_steps=True)
    np.testing.assert_array_equal(reused.intervals, direct.intervals)
    np.testing.assert_array_equal(reused.times, direct.times)
    assert reused.states.shape == direct.states.shape == (len(direct.times),
                                                          problem.d * (N + 1))
    for state_a, state_b in zip(reused.states, direct.states):
        assert np.abs(state_a - state_b).max() <= 1e-12 * np.abs(state_b).max()


def test_periodic_reuse_evaluates_first_period_only():
    bench = builtin_problem("example1")
    calls = []

    def counted(t):
        calls.append(t)
        return bench.problem.A(t)

    problem = dataclasses.replace(bench.problem, A=counted)
    counts = []
    for periods in (1, 10):
        calls.clear()
        solve(problem, 8, 8, 6, periods * problem.period)
        counts.append(len(calls))
    assert counts[1] < 2 * counts[0]


def test_period_spot_check_evaluates_each_phase_once():
    # a reused interval evaluates A and B once each, at its start, and
    # compares them with the values at its phase, taken once when the
    # phase's propagators were formed
    bench = builtin_problem("example1")
    calls = {"A": 0, "B": 0}

    def counted(name):
        coeff = getattr(bench.problem, name)

        def evaluate(t):
            calls[name] += 1
            return coeff(t)
        return evaluate

    problem = dataclasses.replace(bench.problem, A=counted("A"), B=counted("B"))
    p = round(problem.period / problem.tau)
    counts = []
    for periods in (2, 10):
        calls.update(A=0, B=0)
        solve(problem, 8, 8, 6, periods * problem.period)
        counts.append(dict(calls))
    for name in ("A", "B"):
        assert counts[1][name] - counts[0][name] == (10 - 2) * p


def test_overflow_in_a_reused_interval_reports_the_uncached_location():
    # x' = 20 x(t) + sin(2 pi t) x(t - 1): the state passes 1.8e308 near t = 35,
    # far into the intervals that reuse the first period's propagators
    problem = LinearDDEProblem(d=1, tau=1.0, A=lambda t: np.array([[20.0]]),
                               B=lambda t: np.array([[np.sin(2.0 * np.pi * t)]]),
                               phi=lambda t: np.array([1.0]), period=2.0)
    located = []
    for period in (2.0, None):
        with pytest.raises(NumericalFailure) as info:
            solve(dataclasses.replace(problem, period=period), 6, 16, 4, 50.0)
        assert "non-finite state" in str(info.value)
        located.append((info.value.interval, info.value.step))
    assert located[0] == located[1]
    assert located[0][0] >= 30 and 0 < located[0][1] < 16


def test_wrong_period_fails_the_spot_check():
    # example1 is 2*pi-periodic; a period of pi (two delays) is caught at
    # the first reused interval, where A(pi) = -1 differs from A(0) = 1
    problem = dataclasses.replace(builtin_problem("example1").problem, period=math.pi)
    with pytest.raises(NumericalFailure) as info:
        solve(problem, 8, 8, 6, 4 * math.pi)
    assert (info.value.interval, info.value.step) == (2, 0)
    assert "period 3.14159" in str(info.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_reports_numerical_failure_location():
    prob = scalar_linear(2000.0, 0.0, 1.0)
    with pytest.raises(NumericalFailure) as info:
        solve(prob, 6, 2, 2, 3.0)
    assert info.value.interval is not None
    assert info.value.step is not None


def test_monodromy_autonomous_equals_exponential():
    rng = np.random.default_rng(4)
    Ac = rng.standard_normal((2, 2)) * 0.4
    Bc = rng.standard_normal((2, 2)) * 0.4
    prob = LinearDDEProblem(d=2, tau=1.0, A=lambda t: Ac, B=lambda t: Bc,
                            phi=lambda t: np.zeros(2), period=1.0)
    result = monodromy(prob, 8, 1, 4)
    system = discretize(prob, 8)
    ref = expm(system.matrix_at(0.0))
    assert np.abs(result.monodromy - ref).max() <= 1e-12 * np.abs(ref).max()


def test_monodromy_multiplier_count_and_order():
    bench = builtin_problem("mathieu")
    result = monodromy(bench.problem, 5, 4, 2)
    assert result.multipliers.shape == (2 * 6,)
    mods = np.abs(result.multipliers)
    assert np.all(np.diff(mods) <= 1e-12)  # sorted by modulus, descending


def test_monodromy_memory_does_not_grow_with_the_interval_count():
    # 250 and 1,000 periods of example1 are 1,000 and 4,000 delay intervals;
    # a list of them, or a stack of the fundamental matrix at every interval
    # end (7 MB at 2,000), would grow with the count
    bench = builtin_problem("example1")
    monodromy(bench.problem, 20, 1, 2)   # what a first call allocates once
    n, peaks = 21, []
    for periods in (250, 1000):
        problem = dataclasses.replace(bench.problem, period=periods * bench.problem.period)
        tracemalloc.start()
        try:
            result = monodromy(problem, 20, 1, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.monodromy.shape == (n, n)
    assert peaks[1] <= 1.5 * peaks[0]


def test_monodromy_requires_periodic_linear_problem():
    bench = builtin_problem("example1")
    aperiodic = scalar_linear(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        monodromy(aperiodic, 6, 4, 2)
    sir = builtin_problem("sir")
    with pytest.raises(ValueError):
        monodromy(sir.problem, 6, 4, 2)
    with pytest.raises(ValueError):
        monodromy(bench.problem, 6, 4, 3)


def _result_with(multipliers):
    values = np.asarray(multipliers, dtype=complex)
    return MonodromyResult(monodromy=np.eye(len(values)), multipliers=values)


def test_stability_verdict_cases():
    assert stability_verdict(_result_with([0.5, 0.3 + 0.2j]), 1e-9) == "stable"
    assert stability_verdict(_result_with([1.2, 0.1]), 1e-9) == "unstable"
    assert stability_verdict(_result_with([1.0 + 5e-10, 0.2]), 1e-6) == "marginal"
    with pytest.raises(ValueError):
        stability_verdict(_result_with([1.0]), -1.0)
    with pytest.raises(ValueError):
        stability_verdict(_result_with([1.0]), math.nan)


def window(values, grid, window_end):
    """A one-window Trajectory holding ``values`` on [window_end - tau, window_end]."""
    return Trajectory(grid=grid, d=len(values) // (grid.N + 1), times=np.array([window_end]),
                      states=values[None], intervals=np.zeros(1, int))


def test_mean_error_basics():
    grid = ChebyshevGrid.build(6, 1.0)
    values = np.linspace(-1.0, 2.0, 7)
    exact = lambda t: np.array([np.interp(t, [0, 1], [0, 1])])

    def self_reference(t):
        # reconstruct the stored values from the node times
        j = int(np.argmin(np.abs(1.0 + grid.nodes_shifted - t)))
        return np.array([values[j]])

    assert window(values, grid, 1.0).mean_error(self_reference) == 0.0
    offset = lambda t: np.array([self_reference(t)[0] + 0.25])
    assert window(values, grid, 1.0).mean_error(offset) == pytest.approx(0.25, rel=1e-13)


def test_mean_error_order_ratio_between_refinements():
    bench = builtin_problem("example1")
    errs = [solve(bench.problem, 10, M, 2, 2 * np.pi).mean_error(bench.exact)
            for M in (16, 32)]
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_mean_error_component_selection():
    # block layout (position, velocity): the component argument picks
    # which entry is compared against the reference
    grid = ChebyshevGrid.build(5, 1.0)
    times = 2.0 + grid.nodes_shifted
    values = np.column_stack([np.sin(times), np.cos(times)]).ravel()
    reference = lambda t: np.array([np.sin(t), np.cos(t) + 0.125])
    assert window(values, grid, 2.0).mean_error(reference, component=0) <= 1e-15
    assert window(values, grid, 2.0).mean_error(reference, component=1) == pytest.approx(0.125)
    with pytest.raises(ValueError):
        window(values, grid, 2.0).mean_error(reference, component=2)


def test_solve_quasilinear_tracks_exact_orbit():
    # z' = -log(z(t - pi/2)) z with the periodic orbit exp(sin t) as
    # history: order 3 at h = tau/128 lands in the few-1e-8 range
    bench = builtin_problem("nonlinear-scalar")
    traj = solve(bench.problem, 20, 128, 3, np.pi / 2)
    assert traj.mean_error(bench.exact) <= 1e-7


def test_rightmost_eigenvalue_converges_to_characteristic_root():
    # x' = -x(t-1): lambda + exp(-lambda) = 0, principal root by Newton
    lam = complex(-0.3, 1.3)
    for _ in range(60):
        lam -= (lam + np.exp(-lam)) / (1.0 - np.exp(-lam))
    assert abs(lam + np.exp(-lam)) < 1e-14
    prob = scalar_linear(0.0, -1.0, 1.0)
    errors = []
    for N in (5, 10, 15, 20):
        grid = ChebyshevGrid.build(N, 1.0)
        vals = eigenvalues(DiscretizedSystem(prob, grid).matrix_at(0.0))
        rightmost = vals[np.argmax(vals.real)]
        errors.append(abs(rightmost - lam))
    assert all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    assert errors[-1] <= 1e-8


def _pair_errors(multipliers):
    """Distances to 1 of the two multipliers nearest 1, ascending."""
    return np.sort(np.abs(np.asarray(multipliers) - 1.0))[:2]


def test_example1_double_multiplier_oracle():
    # example1 has mu = 1 twice: w' = -w(t - pi/2) is solved by cos t and
    # sin t, so exp(sin t) cos t and exp(sin t) sin t are both periodic.
    # An independent high-accuracy integration of the same collocated ODE
    # Y' = A_N(t) Y puts both multipliers at 1, so N = 20 adds no error and
    # what remains at coarse M is the time stepping, which must shrink at
    # order 6 (a 2**5 floor leaves room for the pre-asymptotic constant).
    integrate = pytest.importorskip("scipy.integrate")
    bench = builtin_problem("example1")
    system = discretize(bench.problem, 20)
    n = system.big_dim
    sol = integrate.solve_ivp(
        lambda t, y: (system.matrix_at(t) @ y.reshape(n, n)).ravel(),
        (0.0, bench.problem.period), np.eye(n).ravel(), method="DOP853",
        rtol=1e-13, atol=1e-13)
    assert sol.success
    oracle = _pair_errors(eigenvalues(sol.y[:, -1].reshape(n, n)))
    assert oracle.max() <= 1e-12

    coarse = _pair_errors(monodromy(bench.problem, 20, 64, 6).multipliers)
    fine = _pair_errors(monodromy(bench.problem, 20, 128, 6).multipliers)
    assert np.all(fine * 2.0 ** 5 <= coarse)
