"""Reference solutions by collocating each delay interval at its window's nodes.

On a delay interval [t0, t0 + tau] the new window takes the same shifted
Chebyshev nodes as the old one, so the delayed time of new node j is the
time of old node j: x(t - tau) there is a stored value, not an
interpolant.  For a quasilinear problem A(x(t - tau)) is then known at
every node before the interval is solved, so the system stays linear.
Collocating x' at new nodes 0..N-1 and matching new node N (time t0) to
old node 0 gives one d(N+1) linear system per interval,
K u_new = J u_old.  This is pseudospectral collocation of the evolution
operator (Breda, Maset & Vermiglio, SIAM J. Numer. Anal. 50, 2012).  It
shares the grid with the package and none of its Magnus stepping.
"""

import numpy as np

from ddemagnus import ChebyshevGrid, LinearDDEProblem


def advance(problem, grid: ChebyshevGrid, t0: float, window: np.ndarray) -> np.ndarray:
    """The window at t0 + tau from the one at t0, a d(N+1) vector; for a
    linear problem also a matrix whose columns are windows."""
    d, N = problem.d, grid.N
    old = window.reshape((N + 1, d) + window.shape[1:])
    K = np.kron(grid.scaled_diff_matrix, np.eye(d))
    rhs = np.zeros_like(old)
    for j, theta in enumerate(grid.nodes_shifted[:N]):
        rows = slice(j * d, (j + 1) * d)
        if isinstance(problem, LinearDDEProblem):
            t = t0 + grid.delay + theta
            K[rows, rows] -= problem.A(t)
            rhs[j] = problem.B(t) @ old[j]
        else:
            K[rows, rows] -= problem.A(old[j])
    K[-d:] = 0.0
    K[-d:, -d:] = np.eye(d)
    rhs[N] = old[0]
    return np.linalg.solve(K, rhs.reshape(window.shape))


def _intervals(span: float, tau: float) -> int:
    count = round(span / tau)
    assert count >= 1 and abs(span - count * tau) <= 1e-12 * span, "not whole delays"
    return count


def multipliers(problem: LinearDDEProblem, N: int) -> np.ndarray:
    """Eigenvalues of the monodromy over a period of whole delays, by
    modulus descending."""
    grid = ChebyshevGrid.build(N, problem.tau)
    Y = np.eye(problem.d * (N + 1))
    for g in range(_intervals(problem.period, problem.tau)):
        Y = advance(problem, grid, g * problem.tau, Y)
    mu = np.linalg.eigvals(Y)
    return mu[np.argsort(-np.abs(mu), kind="stable")]


def final_window(problem, N: int, t_final: float) -> np.ndarray:
    """The window at t_final, a whole number of delays, from phi sampled at
    the nodes; block j approximates x(t_final + theta_j)."""
    grid = ChebyshevGrid.build(N, problem.tau)
    window = np.concatenate([np.ravel(problem.phi(theta)) for theta in grid.nodes_shifted])
    for g in range(_intervals(t_final, problem.tau)):
        window = advance(problem, grid, g * problem.tau, window)
    return window
