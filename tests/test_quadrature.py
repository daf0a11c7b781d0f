"""Adaptive Gauss-Kronrod panel quadrature."""

import math

import numpy as np
import pytest

from nediff.errors import NumericalError
from nediff.quadrature import adaptive_quad


def test_polynomial_exact():
    (val,), (err,) = adaptive_quad(lambda x: (x**4,), 0.0, 2.0, tol=1e-12,
                                   max_panel=2.0)
    assert val == pytest.approx(32.0 / 5.0, rel=1e-14)
    assert err < 1e-12


def test_damped_oscillation_matches_closed_form():
    a, b, upper = 1.0, 3.0, 10.0

    def f(x):
        return (np.exp(-a * x) * np.cos(b * x),)

    exact = (a - math.exp(-a * upper) * (
        a * math.cos(b * upper) - b * math.sin(b * upper))) / (a * a + b * b)
    (val,), _ = adaptive_quad(f, 0.0, upper, tol=1e-12, max_panel=math.pi / (4 * b))
    assert val == pytest.approx(exact, abs=1e-12)


def test_vector_valued_integrand():
    scales = np.array([1.0, 2.0, 3.0])

    def f(x):
        return (np.exp(-np.outer(x, scales) ** 2 / 2.0),)

    (val,), _ = adaptive_quad(f, -20.0, 20.0, tol=1e-11, max_panel=40.0)
    expected = np.sqrt(2.0 * np.pi) / scales
    assert np.allclose(val, expected, rtol=0, atol=1e-11)


def test_tolerance_is_absolute():
    # Broad integrand with a sharp feature; the panel budget must adapt.
    def f(x):
        return (1.0 / (1.0 + 2500.0 * (x - 0.7) ** 2),)

    exact = (math.atan(50.0 * (1.0 - 0.7)) - math.atan(50.0 * (-1.0 - 0.7))) / 50.0
    (val,), (err,) = adaptive_quad(f, -1.0, 1.0, tol=1e-12, max_panel=2.0)
    assert err <= 1e-12
    assert val == pytest.approx(exact, abs=5e-12)


def test_budget_exhaustion_reports_achieved_error():
    # Integrable singularity cannot reach 1e-14 with four panels.
    def f(x):
        return (np.abs(x - math.sqrt(0.5)) ** -0.4,)

    with pytest.raises(NumericalError) as excinfo:
        adaptive_quad(f, 0.0, 1.0, tol=1e-14, max_panel=1.0, max_panels=4)
    assert excinfo.value.achieved is not None
    assert excinfo.value.achieved > 1e-14


def test_initial_split_beyond_budget_fails_before_evaluating():
    calls = []

    def f(x):
        calls.append(len(x))
        return (x,)

    with pytest.raises(NumericalError, match="initial panels"):
        adaptive_quad(f, 0.0, 100.0, tol=1e-10, max_panel=0.01, max_panels=4096)
    assert calls == []


def test_nan_integrand_is_not_converged():
    # A NaN error estimate compares false against the tolerance either way.
    with pytest.raises(NumericalError) as info:
        adaptive_quad(lambda x: (np.full_like(x, np.nan),), 0.0, 1.0, tol=1e-10,
                      max_panel=1.0, max_panels=16)
    assert math.isnan(info.value.achieved)


def test_bare_array_integrand_is_rejected():
    # A bare ndarray would otherwise be taken apart row by row as components.
    with pytest.raises(TypeError, match="tuple"):
        adaptive_quad(lambda x: x**2, 0.0, 1.0, tol=1e-10, max_panel=1.0)
