"""The collocation reference (tests/collocation.py) against the references the
package stores, and the package's runs at the benchmark workloads' settings
against it.  Each bound is a few times the error measured with one BLAS
thread, given beside it."""

import math

import numpy as np

from collocation import final_window, multipliers
from ddemagnus import (MATHIEU_CRITICAL_B, MATHIEU_REFERENCE_MULTIPLIER, builtin_problem,
                       monodromy, solve)


def test_mathieu_multiplier_matches_the_30_digit_reference():
    mu = multipliers(builtin_problem("mathieu").problem, 40)[0]
    assert abs(mu - MATHIEU_REFERENCE_MULTIPLIER) <= 1e-14   # measured 1.2e-15


def test_example1_has_the_double_multiplier_one():
    mu = multipliers(builtin_problem("example1").problem, 20)
    assert np.sort(np.abs(mu - 1.0))[:2].max() <= 3e-14   # measured 1.1e-15, 6.0e-15


def test_critical_b_mathieu_spectrum_touches_one():
    problem = builtin_problem("mathieu", delta=2.0, epsilon=1.0, b=MATHIEU_CRITICAL_B).problem
    assert np.abs(multipliers(problem, 40) - 1.0).min() <= 2e-15   # measured 2.2e-16


def test_nonlinear_scalar_matches_its_exact_solution():
    bench = builtin_problem("nonlinear-scalar")
    t = 10.0 * math.pi
    x = final_window(bench.problem, 24, t)[0]
    assert abs(x - bench.exact(t)[0]) <= 1e-14   # measured 1.4e-15


def test_the_mathieu_floquet_setting_against_the_reference():
    problem = builtin_problem("mathieu").problem
    mu = monodromy(problem, 60, 128, 6).dominant
    assert abs(mu - multipliers(problem, 40)[0]) <= 3e-12   # measured 8.6e-13


def test_the_sir_audit_setting_against_the_reference():
    problem = builtin_problem("sir").problem
    reference = final_window(problem, 24, 10.0)[:3]
    # the reference has converged in N: N = 32 moves it by round-off
    assert np.abs(reference - final_window(problem, 32, 10.0)[:3]).max() <= 5e-14   # 7.0e-15
    x = solve(problem, 20, 20, 3, 10.0).endpoint_values()
    assert np.abs(x - reference).max() <= 1.5e-7   # measured 4.6e-8
