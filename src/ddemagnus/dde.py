"""Delay differential equations by spectral discretization plus Magnus stepping.

A problem with delay tau is turned into a d(N+1)-dimensional ODE: the
state vector stacks approximations to x(t + theta_j) at the shifted
Chebyshev nodes theta_j, the first d rows of the system matrix carry the
DDE coefficients and the remaining rows the scaled spectral
differentiation of the history window.  Integration proceeds in the
method-of-steps fashion, one delay interval [i*tau, (i+1)*tau] at a
time, so step boundaries always coincide with the breaking points where
the solution loses smoothness.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .linalg import TAYLOR_BLOCK, NumericalFailure, eigenvalues
# magnus_step_matrix is magnus_step and is not called here, but stays bound:
# bench/tracer.py wraps dde.magnus_step_matrix and reports a missing name
from .magnus_linear import (LINEAR_ORDERS, TopRows, magnus_step, magnus_step_matrix,  # noqa: F401
                            step_numbers)
from .magnus_nonlinear import NONLINEAR_ORDERS, BlockTriangularExpmv, nonlinear_magnus_step
from .spectral import ChebyshevGrid, interpolate_window

# t_final within this fraction of tau of a breaking point snaps onto it,
# so truncated-decimal inputs like 6.2832 for 2*pi still produce whole
# delay intervals.
BREAKPOINT_SNAP = 1e-4

# Most delay intervals one run may span: a run's time and the windows a
# solve stores grow with the count, so a horizon of 1e300 (or tau = 1e-9
# over 1) fails before the first interval.  2**20 is 1000 times the
# longest run in the tests.
MAX_INTERVALS = 2 ** 20

# Bytes the Taylor block of one stacked expm may take: a chunk of b linear
# steps at system size n takes TAYLOR_BLOCK n^2 8 b of them, so b = 33 at
# n = 21 and b = 1 from n = 86 on.
CHUNK_BYTES = 2 ** 20

# Most bytes one run may hold at once, as :func:`_check_memory` estimates
# them before anything is allocated: N = 200000, M = 10^8 over a few
# periods, or a Mathieu monodromy at N = 3000 fails with a ValueError, not
# with a MemoryError part way through.
MAX_BYTES = 2 ** 31


def _check_positive_finite(name: str, value: float) -> None:
    # a bare `value <= 0` test would let NaN and inf through
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive" if value <= 0 else f"{name} must be finite")


def _check_problem(problem) -> None:
    """Raise ValueError unless d is an integer >= 1 and tau positive and finite."""
    if not isinstance(problem.d, numbers.Integral):
        raise ValueError(f"state dimension d must be an integer, got {problem.d!r}")
    if problem.d < 1:
        raise ValueError("state dimension d must be >= 1")
    _check_positive_finite("delay tau", problem.tau)


@dataclass
class LinearDDEProblem:
    """x'(t) = A(t) x(t) + B(t) x(t - tau), x = phi on [-tau, 0].

    ``A`` and ``B`` map a time to a (d, d) array, ``phi`` maps a time in
    [-tau, 0] to a length-d array (a scalar is fine for d = 1).  ``period``
    marks the problem as T-periodic for Floquet analysis.  When it is a
    whole number of delays, :func:`solve` also reuses the step
    propagators of the first period in the later ones; A and B are then
    compared at the start of every reused interval and one period
    earlier, and a mismatch fails the solve.  Periodicity is otherwise
    the caller's assertion.
    """

    d: int
    tau: float
    A: Callable[[float], np.ndarray]
    B: Callable[[float], np.ndarray]
    phi: Callable[[float], np.ndarray]
    period: Optional[float] = None

    def __post_init__(self):
        _check_problem(self)
        if self.period is not None:
            _check_positive_finite("period", self.period)


@dataclass
class QuasilinearDDEProblem:
    """x'(t) = A(x(t - tau)) x(t), x = phi on [-tau, 0].

    ``A`` maps the delayed state (length-d array) to a (d, d) array.
    The form is autonomous: the coefficients depend on time only through
    the delayed state.
    """

    d: int
    tau: float
    A: Callable[[np.ndarray], np.ndarray]
    phi: Callable[[float], np.ndarray]

    def __post_init__(self):
        _check_problem(self)


DDEProblem = Union[LinearDDEProblem, QuasilinearDDEProblem]


def _checked(func, arg, shape: tuple, name: str, t: Optional[float] = None) -> np.ndarray:
    """func(arg), a function the problem supplies, as a finite float array of
    ``shape``; otherwise a ValueError naming ``name``, chained to the call's
    ArithmeticError (naming ``t`` too, where given) if it raised one."""
    try:
        value = func(arg)
    except ArithmeticError as exc:
        at = "" if t is None else f" at t = {t!r}"
        raise ValueError(f"{name}{at} raised {type(exc).__name__}: {exc}") from exc
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ValueError(f"{name} returned shape {value.shape}, expected {shape}")
    if not np.isfinite(value).all():
        raise ValueError(f"{name} returned non-finite entries")
    return value


def _chunk_steps(n: int) -> int:
    """Linear steps one stacked expm takes at system size n (see CHUNK_BYTES)."""
    return max(1, CHUNK_BYTES // (TAYLOR_BLOCK * 8 * n * n))


def admissible_orders(problem: DDEProblem):
    """Problem kind and its integrator orders: ('linear', LINEAR_ORDERS) or
    ('quasilinear', NONLINEAR_ORDERS)."""
    if isinstance(problem, LinearDDEProblem):
        return "linear", LINEAR_ORDERS
    return "quasilinear", NONLINEAR_ORDERS


@dataclass
class DiscretizedSystem:
    """A DDE problem sampled on a Chebyshev grid, ready for time stepping.

    Builds the constant rows d.. of the system matrix, (2/tau) * (D kron
    I_d) without its first d rows, once; every step uses them by
    reference.  ``phi_vector`` is the sampled initial function, None when
    the system only assembles.
    """

    problem: DDEProblem
    grid: ChebyshevGrid
    phi_vector: Optional[np.ndarray] = None
    _lower: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.grid.delay != self.problem.tau:
            raise ValueError("grid delay does not match the problem delay")
        d = self.d
        self._lower = np.kron(self.grid.scaled_diff_matrix, np.eye(d))[d:, :]

    @property
    def d(self) -> int:
        return self.problem.d

    @property
    def big_dim(self) -> int:
        return self.problem.d * (self.grid.N + 1)

    def coefficients(self, times) -> np.ndarray:
        """A(t) and B(t) of a linear problem at each of ``times``, shape
        (len(times), 2, d, d), evaluated once each, in time order.

        The first of them in time order that raises ValueError or
        ArithmeticError, is not d x d or has a non-finite entry is evaluated
        again through :func:`_checked`, whose ValueError it raises.
        """
        d, funcs = self.d, (self.problem.A, self.problem.B)
        out = np.empty((len(times), 2, d, d))
        flat = out.reshape(-1, d, d)
        k = 0
        try:
            for t in times:
                for func in funcs:
                    M = np.asarray(func(t), dtype=float)
                    if M.shape != (d, d):
                        raise ValueError
                    flat[k] = M
                    k += 1
        except (ValueError, ArithmeticError):
            pass   # evaluation k failed
        # one finiteness check for all; a non-finite entry is an earlier failure
        if not np.isfinite(flat[:k]).all():
            k = int(np.argmin(np.isfinite(flat[:k]).all(axis=(1, 2))))
        if k < len(flat):
            t, name = times[k // 2], f"coefficient {'AB'[k % 2]}"
            _checked(funcs[k % 2], t, (d, d), name, t)
            raise ValueError(f"{name} at t = {t!r} failed, then passed when evaluated again")
        return out

    def top_rows(self, times) -> np.ndarray:
        """First d rows of the system matrix at each of ``times`` (linear
        problems), shape (len(times), d, n): A(t) in the leading d x d block,
        B(t) in the trailing one; checked as in :meth:`coefficients`."""
        d, n = self.d, self.big_dim
        coefficients = self.coefficients(times)
        out = np.zeros((len(times), d, n))
        out[:, :, :d] = coefficients[:, 0]
        out[:, :, n - d:] = coefficients[:, 1]
        return out

    def matrix_at(self, t: float) -> np.ndarray:
        """Assembled system matrix at time t (linear problems)."""
        return np.concatenate((self.top_rows([t])[0], self._lower))

    def matrix_of_state(self, state: np.ndarray) -> np.ndarray:
        """Assembled system matrix for a big state vector (quasilinear problems),
        whose last d components (the fully delayed block) give A(x)."""
        d, n = self.d, self.big_dim
        state = np.asarray(state, dtype=float)
        if state.shape != (n,):
            raise ValueError(f"state has shape {state.shape}, expected ({n},)")
        out = np.zeros((d, n))
        out[:, :d] = _checked(self.problem.A, state[n - d:], (d, d), "coefficient A(x)")
        return np.concatenate((out, self._lower))

    def stepper(self, order: int):
        """Step function ``(starts, h, state) -> states`` of the given order,
        and the most steps one call may take.

        The function takes the consecutive steps of size h from the times
        ``starts`` and returns the state after each, stacked.  Raises
        ValueError for an order outside :func:`admissible_orders`.  Linear
        problems step ``top_rows`` over the constant rows (a
        :class:`TopRows`) with :func:`magnus_step`, a vector or a matrix
        state alike, as many steps per call as keep its stacked
        :func:`expm` within :data:`CHUNK_BYTES`; a coefficient or an
        exponential that fails raises ValueError.  Quasilinear problems
        take one step per call on the d x d block A(x) alone, applying
        every exponential through one :class:`BlockTriangularExpmv` of the
        constant rows; its provisional exponentials return only the
        delayed block, on which the step's A, reading the last d entries
        of what it is given, evaluates A(x) as it does on a state; a
        coefficient it rejects (see :func:`_checked`) raises ValueError.
        """
        kind, orders = admissible_orders(self.problem)
        if order not in orders:
            raise ValueError(f"order {order} invalid for {kind} problems; admissible: {orders}")
        if kind == "quasilinear":
            d, expmv = self.d, BlockTriangularExpmv(self._lower, self.d)

            def A(y):
                return _checked(self.problem.A, y[-d:], (d, d), "coefficient A(x)")
            return (lambda starts, h, y: nonlinear_magnus_step(A, h, y, order, expmv=expmv)[None]), 1
        A = TopRows(self.top_rows, self._lower)
        return (lambda starts, h, y: magnus_step(A, starts, h, y, order),
                _chunk_steps(self.big_dim))

    def check_period(self, t: float, phase: float, at_phase: np.ndarray) -> None:
        """Raise ValueError unless A and B at t agree with ``at_phase``, their
        :meth:`coefficients` at ``phase``, the time a whole number of periods
        earlier (linear problems)."""
        # a few entries each: plain floats take fewer calls than numpy reductions
        now = self.coefficients([t])[0].reshape(2, -1).tolist()
        for name, a, b in zip("AB", now, at_phase.reshape(2, -1).tolist()):
            gap = max(abs(x - y) for x, y in zip(a, b))
            if not gap <= 1e-9 * (1.0 + max(map(abs, a + b))):
                raise ValueError(f"{name} at t = {t!r} differs by {gap:.3g} from {name} at "
                                 f"t = {phase!r}: period {self.problem.period!r} is not a "
                                 f"period of the coefficients")


def discretize(problem: DDEProblem, N: int) -> DiscretizedSystem:
    """Build the grid for the problem's delay and sample phi at the shifted nodes."""
    grid = ChebyshevGrid.build(N, problem.tau)
    d = problem.d
    # raveled, so a scalar phi serves for d = 1; before stepping, so each
    # node names its time, where a coefficient's failure names its step
    blocks = [_checked(lambda t: np.ravel(problem.phi(t)), theta, (d,),
                       f"initial function at t = {float(theta)!r}")
              for theta in grid.nodes_shifted]
    return DiscretizedSystem(problem, grid, np.concatenate(blocks))


@dataclass
class Trajectory:
    """Solution of a discretized DDE: one stack of delay windows.

    ``states[k]`` is the big state vector at ``times[k]``; its block j
    approximates x(times[k] + theta_j), so it covers the window
    [times[k] - tau, times[k]].  ``states[0]`` holds the sampled initial
    function.  ``intervals[k]`` is the position, counting from 1, of the
    delay interval that window k ends in (0 for the initial function).
    The windows are the interval ends, or, when the solve was asked to
    store every step, the step ends t0 + j h of each interval; the last
    of those can differ from t_final in the last bit.
    """

    grid: ChebyshevGrid
    d: int
    times: np.ndarray
    states: np.ndarray
    intervals: np.ndarray

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def endpoint_values(self, index: int = -1) -> np.ndarray:
        """x at times[index] (block 0 of the stored state)."""
        return self.states[index][:self.d]

    def at(self, t: float) -> np.ndarray:
        """Interpolated solution value x(t) from the covering window."""
        k = int(np.searchsorted(self.times, t, side="left"))
        if k == len(self.times):
            k -= 1
        return interpolate_window(self.states[k], self.grid, float(self.times[k]), t)

    def mean_error(self, reference, index: int = -1, component: int = 0) -> float:
        """Mean absolute node error of the stored window against a reference.

        ``reference`` maps a time to the exact length-d value (or a
        scalar for d = 1); ``component`` picks the compared entry inside
        each block, e.g. 0 for the position of a second-order system.
        The error is averaged over all N+1 nodes of the window.
        """
        blocks = np.asarray(self.states[index], dtype=float).reshape(self.grid.N + 1, -1)
        if not 0 <= component < blocks.shape[1]:
            raise ValueError(f"component {component} out of range for block size {blocks.shape[1]}")
        window_end = float(self.times[index])
        total = 0.0
        for theta, block in zip(self.grid.nodes_shifted, blocks):
            ref = np.atleast_1d(np.asarray(reference(window_end + theta), dtype=float))
            total += abs(ref[component] - block[component])
        return total / (self.grid.N + 1)


def _interval_plan(first: int, t_final: float, tau: float, M: int,
                   period: Optional[float] = None) -> Iterator[tuple]:
    """(index, t0, length, t_end, steps, phase) of each delay interval from
    first * tau to t_final, with the step counts described in :func:`solve`.

    The arguments are checked when called; the intervals are then produced
    one at a time, so a run over many of them holds none but the current.

    ``phase`` is None unless the interval shares its step exponentials:
    when ``period`` is p >= 1 whole delays and the full intervals revisit a
    phase, full interval g takes the steps of interval g mod p, and
    ``phase`` is its reduced start (g mod p) * tau.  For g < p that is the
    same float as ``t0``.
    """
    if M < 1:
        raise ValueError("M (steps per delay interval) must be >= 1")
    ratio = (t_final - first * tau) / tau
    if ratio > MAX_INTERVALS:   # also an infinite ratio, which floor would reject
        raise ValueError(f"t_final = {t_final!r} spans {ratio:.3g} delay intervals, "
                         f"more than the {MAX_INTERVALS} a run may take")
    n_full = int(math.floor(ratio + BREAKPOINT_SNAP))
    frac = ratio - n_full
    if n_full < 1 and frac <= BREAKPOINT_SNAP:
        raise ValueError(f"t_final = {t_final!r} is indistinguishable from the start "
                         f"time (closer than the breaking-point snap tolerance)")
    p = round(period / tau) if period is not None else 0
    shared = p >= 1 and abs(period - p * tau) <= 1e-12 * period and n_full > p

    def intervals():
        for g in range(first, first + n_full):
            yield g, g * tau, tau, (g + 1) * tau, M, (g % p) * tau if shared else None
        if frac > BREAKPOINT_SNAP:
            g = first + n_full
            yield g, g * tau, t_final - g * tau, t_final, int(math.ceil(M * frac)), None
    return intervals()


def _check_finite(g: int, k: int, states: np.ndarray) -> None:
    """Raise NumericalFailure at the first of ``states``, steps k, k + 1, ...
    of interval g, that is not finite."""
    if not np.isfinite(states).all():
        j = int(np.argmin(np.isfinite(states.reshape(len(states), -1)).all(axis=1)))
        raise NumericalFailure(f"non-finite state in interval {g}, step {k + j}",
                               interval=g, step=k + j, partial=states[j])


def _check_memory(problem: DDEProblem, N: int, M: int, plan, every_step: bool = False,
                  stored: bool = False, width: int = 1) -> tuple:
    """Raise ValueError when a run over ``plan`` would hold more than
    :data:`MAX_BYTES`; return the number of windows it keeps, one per
    interval or with ``every_step`` one per step, and of its intervals.

    The estimate counts the 8-byte numbers a run holds at its peak from the
    sizes alone: the differentiation matrix, its Kronecker product and the
    constant lower rows; for a linear problem one chunk's
    :func:`~.magnus_linear.step_numbers`, for a quasilinear one
    :meth:`BlockTriangularExpmv.numbers`; the state, of
    ``width`` columns of length n = d(N + 1) (n for a fundamental matrix);
    one interval's kept windows; the C_k of every phase; and, when they are
    ``stored`` (as :func:`solve` stores them), all the windows.
    """
    windows, intervals, phases, t_end = 0, 0, set(), None
    for *_, t_end, n_steps, phase in plan:
        windows += n_steps if every_step else 1
        intervals += 1
        phases.add(phase)
    phases.discard(None)
    d, n = problem.d, problem.d * (N + 1)
    if isinstance(problem, LinearDDEProblem):
        work = step_numbers(min(_chunk_steps(n), M), n, width)
    else:
        work = BlockTriangularExpmv.numbers(n, d)
    numbers = (2 * (N + 1) ** 2 + 2 * n * n + work + 2 * n * width
               + (M if every_step else 1) * n * width + len(phases) * M * n * n
               + (windows * (n * width + 2) if stored else 0))
    if 8 * numbers > MAX_BYTES:
        horizon = f" and t_final = {t_end!r}" if stored else ""
        raise ValueError(f"N = {N}, M = {M}{horizon} need about {8 * numbers / 2 ** 30:.3g} "
                         f"GiB, more than the {MAX_BYTES / 2 ** 30:g} GiB a run may hold")
    return windows, intervals


def _propagate(system: DiscretizedSystem, order: int, state: np.ndarray, plan,
               every_step: bool = False) -> Iterator[tuple]:
    """Advance a vector or matrix state across the planned intervals.

    Yields, as each interval finishes, its position in the plan counting
    from 1, the end times of its kept windows and their states: the
    interval end, or with ``every_step`` each step end.  Nothing of an
    interval is held once the next has finished.  An interval without a
    ``phase`` takes its steps in chunks (:meth:`DiscretizedSystem.stepper`):
    one call per chunk evaluates the coefficients of its steps in time
    order, exponentiates them in one stacked :func:`expm` and applies the
    exponentials in order.  The first interval of a ``phase`` forms the
    cumulative propagators C_k = E_k ... E_1 of its steps by propagating
    the identity over it at the reduced times, as :func:`monodromy` does
    over a period; every interval of that phase then gets all of its states
    as one product of the stacked C_k with its start state, after a spot
    check of the period: A and B at its start against their values at the
    phase, evaluated once and kept with the C_k.

    A coefficient or exponential that rejects its input (wrong shape,
    non-finite entries), a failed spot check and a non-finite state or C_k
    all raise NumericalFailure with the interval and step.  For a
    non-finite state ``partial`` holds that state, for a rejected input the
    state the failing step starts from: a chunk applies none of its steps
    until all of its exponentials are formed, so after a chunk fails the
    rest of its interval is retaken one step at a time, and the first step
    that fails raises from its own start state.  numpy's overflow
    warnings, which would only repeat such a failure, are silenced while an
    interval steps, and only then: not while its windows are handed on.
    """
    step, chunk = system.stepper(order)
    cumulative = {}
    for position, (g, t0, length, t_end, n_steps, phase) in enumerate(plan, start=1):
        h = length / n_steps
        kept = np.empty((n_steps,) + state.shape) if every_step else None
        k = 0
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                if phase is None:
                    take = chunk
                    while k < n_steps:
                        starts = [t0 + j * h for j in range(k, min(k + take, n_steps))]
                        try:
                            states = step(starts, h, state)
                        except ValueError:
                            if take == 1:
                                raise
                            # the failing step may be any of the chunk's
                            take = 1
                            continue
                        _check_finite(g, k, states)
                        if every_step:
                            kept[k:k + len(states)] = states
                        state, k = states[-1], k + len(states)
                else:
                    at_phase, C = cumulative.get(phase) or (system.coefficients([phase])[0], None)
                    if phase != t0:
                        system.check_period(t0, phase, at_phase)
                    if C is None:
                        [(_, _, C)] = _propagate(system, order, np.eye(system.big_dim),
                                                 [(g, phase, length, None, n_steps, None)], True)
                        cumulative[phase] = at_phase, C
                    states = kept if every_step else np.empty((n_steps,) + state.shape)
                    np.matmul(C.reshape(-1, C.shape[-1]), state,
                              out=states.reshape((-1,) + state.shape[1:]))
                    _check_finite(g, 0, states)
                    state = states[-1]
        except ValueError as exc:
            raise NumericalFailure(f"{exc} in interval {g}, step {k}",
                                   interval=g, step=k, partial=state) from exc
        if every_step:
            yield position, t0 + np.arange(1, n_steps + 1) * h, kept
        else:
            # a copy: the state is a view of the interval's last chunk or
            # product, which a consumer that keeps the block would keep too
            yield position, np.array([t_end]), state[None].copy()


def _prepared(problem: DDEProblem, N: int, M: int, t_final: float, store_steps: bool,
              t_start: float, initial_state, stored: bool) -> tuple:
    """Check the inputs of :func:`solve` and the memory its run needs (its
    windows counted only if ``stored``); then the system, the start time and
    state, the interval plan and the numbers of windows the run keeps and
    of its intervals."""
    if not math.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final!r}")
    if not math.isfinite(t_start):
        raise ValueError(f"t_start must be finite, got {t_start!r}")
    tau = problem.tau
    g0 = int(round(t_start / tau))
    if abs(t_start - g0 * tau) > 1e-9 * tau or g0 < 0:
        raise ValueError("t_start must be a nonnegative multiple of tau")
    if initial_state is None and g0 != 0:
        raise ValueError("resuming at t_start > 0 requires initial_state")
    if t_final <= g0 * tau:
        raise ValueError("t_final must lie beyond t_start")

    def plan():
        return _interval_plan(g0, t_final, tau, M, getattr(problem, "period", None))
    windows, intervals = _check_memory(problem, N, M, plan(), store_steps, stored)
    system = discretize(problem, N)
    if initial_state is None:
        state = system.phi_vector.copy()
    else:
        state = np.asarray(initial_state, dtype=float).copy()
        if state.shape != (system.big_dim,):
            raise ValueError(f"initial_state must have shape ({system.big_dim},)")
        if not np.isfinite(state).all():
            raise ValueError("initial_state must be finite")
    return system, g0 * tau, state, plan(), windows, intervals


def solve(problem: DDEProblem, N: int, M: int, order: int, t_final: float, *,
          store_steps: bool = False, t_start: float = 0.0,
          initial_state=None) -> Trajectory:
    """Integrate a DDE up to t_final with the method of steps.

    Each delay interval [i*tau, (i+1)*tau] is integrated with M Magnus
    steps of size tau/M (orders 2/4/6 for linear problems, 2/3 for
    quasilinear ones), chaining the final state of one interval into the
    next.  If t_final is not a multiple of tau, the trailing partial
    interval of fractional length ``frac`` is covered by ceil(M * frac)
    equal steps ending exactly at t_final.  A linear problem whose period
    is a whole number of delays forms the step propagators of its first
    period once and applies them to every later full interval (see
    :func:`_interval_plan` and :func:`_propagate`).  The trajectory holds
    the window at each interval end, or with ``store_steps`` at each step
    end (see :class:`Trajectory`); :func:`solve_blocks` hands the same
    windows on an interval at a time.

    ``t_start``/``initial_state`` resume an integration from a stored
    window at a multiple of tau; by default the run starts at 0 from the
    sampled initial function.  A run whose memory estimate, its windows
    included, exceeds :data:`MAX_BYTES` raises ValueError before it starts.
    """
    system, t0, state, plan, windows, _ = _prepared(problem, N, M, t_final, store_steps,
                                                    t_start, initial_state, True)
    times, states = np.empty(1 + windows), np.empty((1 + windows, system.big_dim))
    intervals = np.zeros(1 + windows, dtype=int)
    times[0], states[0], row = t0, state, 1
    for position, ends, kept in _propagate(system, order, state, plan, store_steps):
        rows = slice(row, row + len(kept))
        times[rows], states[rows], intervals[rows] = ends, kept, position
        row += len(kept)
    return Trajectory(grid=system.grid, d=problem.d, times=times, states=states,
                      intervals=intervals)


def solve_blocks(problem: DDEProblem, N: int, M: int, order: int, t_final: float, *,
                 store_steps: bool = False) -> tuple:
    """The grid of ``solve(problem, N, M, order, t_final, store_steps=...)``,
    its number of delay intervals and an iterator over its windows after
    the first, one interval at a time.

    The iterator yields (interval, times, states) as each interval finishes:
    its position counting from 1, as in :attr:`Trajectory.intervals`, and
    the times and states of its windows, bit for bit those of the
    trajectory; it holds none of an interval's windows once the next has
    finished, so a run's memory does not grow with t_final.  The inputs and
    the memory estimate, without the windows, are checked when called; a
    numerical failure is raised from the iteration, once the intervals
    before it have been yielded.
    """
    system, _, state, plan, _, intervals = _prepared(problem, N, M, t_final, store_steps,
                                                     0.0, None, False)
    return system.grid, intervals, _propagate(system, order, state, plan, store_steps)


@dataclass
class MonodromyResult:
    """Fundamental matrix over one period and its characteristic multipliers.

    ``multipliers`` holds all d(N+1) eigenvalues of the monodromy matrix
    in the canonical order (modulus descending, ties by real then
    imaginary part).
    """

    monodromy: np.ndarray
    multipliers: np.ndarray

    @property
    def dominant(self) -> complex:
        return complex(self.multipliers[0])


def monodromy(problem: LinearDDEProblem, N: int, M: int, order: int) -> MonodromyResult:
    """Propagate Y' = A_N(t) Y, Y(0) = I over one period and take eigenvalues.

    All d(N+1) columns are advanced together through the same interval
    plan and propagator as :func:`solve`, one interval at a time, so only
    the current matrix is held: interval boundaries align with multiples
    of tau (and with the period itself when it is not a multiple).  A run
    whose memory estimate exceeds :data:`MAX_BYTES` raises ValueError before
    it starts.
    """
    if not isinstance(problem, LinearDDEProblem):
        raise ValueError("monodromy analysis needs a linear problem")
    if problem.period is None:
        raise ValueError("problem has no period set")
    tau, period = problem.tau, problem.period
    _check_memory(problem, N, M, _interval_plan(0, period, tau, M), width=problem.d * (N + 1))
    system = discretize(problem, N)
    Y = np.eye(system.big_dim)
    for *_, kept in _propagate(system, order, Y, _interval_plan(0, period, tau, M)):
        Y = kept[-1]
    return MonodromyResult(monodromy=Y, multipliers=eigenvalues(Y))


def stability_verdict(result: MonodromyResult, tol: float = 0.0) -> str:
    """Classify a multiplier spectrum: 'stable', 'unstable' or 'marginal'.

    Stable iff every multiplier has modulus below 1 - tol, unstable iff
    the dominant one exceeds 1 + tol, marginal in between.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    dominant = float(np.abs(result.multipliers).max())
    if dominant < 1.0 - tol:
        return "stable"
    if dominant > 1.0 + tol:
        return "unstable"
    return "marginal"
