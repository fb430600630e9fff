"""Chebyshev collocation grids, spectral differentiation and barycentric interpolation.

Node ordering is fixed throughout the package: the reference nodes
``t_j = cos(j*pi/N)`` run from +1 down to -1, so the shifted nodes
``theta_j = (t_j - 1) * tau / 2`` run from 0 down to -tau.  Every
block-structured state vector in this package inherits that ordering:
block 0 carries the newest value, block N the fully delayed one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class OutOfRangeError(ValueError):
    """Evaluation time lies outside the window covered by a state vector."""


def chebyshev_nodes(N: int) -> np.ndarray:
    """Return the N+1 Chebyshev collocation points cos(j*pi/N), j = 0..N.

    The nodes decrease strictly from +1 to -1.  N is the polynomial
    degree of the underlying interpolant, so at least N = 1 (two nodes)
    is required.
    """
    if N < 1:
        raise ValueError("need N >= 1 (a grid has at least two nodes)")
    j = np.arange(N + 1)
    return np.cos(np.pi * j / N)


def differentiation_matrix(N: int) -> np.ndarray:
    """Spectral differentiation matrix on the N+1 Chebyshev points.

    ``D @ f`` reproduces the sampled derivative exactly (up to round-off)
    whenever ``f`` holds samples of a polynomial of degree <= N at
    ``chebyshev_nodes(N)``.  Off-diagonal entries follow the classic
    (c_i / c_j) (-1)^(i+j) / (t_i - t_j) formula with c_0 = c_N = 2 and
    c_j = 1 otherwise; each diagonal entry is the negative sum of the
    rest of its row, which roughly halves the worst-case rounding error
    compared with the closed form.
    """
    t = chebyshev_nodes(N)
    c = np.ones(N + 1)
    c[0] = c[N] = 2.0
    c *= (-1.0) ** np.arange(N + 1)
    spread = t[:, None] - t[None, :] + np.eye(N + 1)
    D = np.outer(c, 1.0 / c) / spread
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ChebyshevGrid:
    """Collocation grid for one delay window [-tau, 0].

    Attributes
    ----------
    N : int
        Number of intervals; the grid has N+1 nodes.
    delay : float
        Window length tau > 0, in time units.
    nodes_reference : ndarray, shape (N+1,)
        Chebyshev points on [-1, 1], descending.
    nodes_shifted : ndarray, shape (N+1,)
        The same nodes mapped to [-tau, 0]; entry 0 is exactly 0.0 and
        entry N exactly -tau.
    diff_matrix : ndarray, shape (N+1, N+1)
        Differentiation matrix on the reference interval.  On the
        shifted window the derivative operator is (2/tau) * diff_matrix.
    bary_weights : ndarray, shape (N+1,)
        Barycentric weights (-1)^j * delta_j with delta halved at the
        endpoints; used by :func:`interpolate_window`.

    All arrays are marked read-only, so a grid can be shared freely
    across threads once built.
    """

    N: int
    delay: float
    nodes_reference: np.ndarray
    nodes_shifted: np.ndarray
    diff_matrix: np.ndarray
    bary_weights: np.ndarray

    @classmethod
    def build(cls, N: int, delay: float) -> "ChebyshevGrid":
        if not 0 < delay < math.inf:
            raise ValueError(f"delay must be positive and finite, got {delay}")
        t = chebyshev_nodes(N)
        theta = (t - 1.0) * (delay / 2.0)
        weights = (-1.0) ** np.arange(N + 1)
        weights[0] *= 0.5
        weights[N] *= 0.5
        return cls(
            N=N,
            delay=float(delay),
            nodes_reference=_readonly(t),
            nodes_shifted=_readonly(theta),
            diff_matrix=_readonly(differentiation_matrix(N)),
            bary_weights=_readonly(weights),
        )

    @property
    def scaled_diff_matrix(self) -> np.ndarray:
        """Differentiation matrix acting on samples over [-tau, 0]."""
        return (2.0 / self.delay) * self.diff_matrix


def interpolate_window(values: np.ndarray, grid: ChebyshevGrid,
                       window_end: float, t: float) -> np.ndarray:
    """Barycentric evaluation of a state vector whose window ends at ``window_end``.

    Block j of ``values`` is the d-vector sample at ``window_end + theta_j``;
    there is no extrapolation outside [window_end - tau, window_end].

    Uses the second (true) barycentric form with Chebyshev weights, which
    costs O(N) per evaluation and is backward stable.  When t coincides
    with a node to within 1e-14 * tau the stored block is returned
    directly.
    """
    values = np.asarray(values, dtype=float)
    n_nodes = grid.N + 1
    if values.ndim != 1 or values.size % n_nodes != 0:
        raise ValueError(
            f"state vector length {values.size} is not a multiple of N+1 = {n_nodes}")
    d = values.size // n_nodes
    tau = grid.delay
    slop = 1e-12 * (abs(window_end) + tau)
    if not window_end - tau - slop <= t <= window_end + slop:  # NaN fails too
        raise OutOfRangeError(
            f"t = {t} outside the covered window [{window_end - tau}, {window_end}]")
    blocks = values.reshape(n_nodes, d)
    node_times = window_end + grid.nodes_shifted
    nearest = int(np.argmin(np.abs(t - node_times)))
    if abs(t - node_times[nearest]) < 1e-14 * tau:
        return blocks[nearest].copy()
    # map to the reference interval and evaluate there
    s = 2.0 * (t - window_end) / tau + 1.0
    spread = s - grid.nodes_reference
    hit = np.nonzero(spread == 0.0)[0]
    if hit.size:  # node hit that the coarser time-domain test missed
        return blocks[hit[0]].copy()
    w = grid.bary_weights / spread
    return (w @ blocks) / w.sum()
