"""Property suite for the convex gap function and its sharp minorants.

The four comparison inequalities plus the expectation form are the load
bearing elementary facts behind every certificate constant, so they are
checked densely (1e4-point grids) with zero tolerance for violations.
"""

import math

import numpy as np
import pytest

from lsdeficit.deltafn import (
    LINEAR_BAND_CONSTANT,
    delta,
    delta_quadratic_floor,
    delta_scale,
)
from lsdeficit.errors import ArgumentError

N_GRID = 10_000


def test_value_and_vectorisation():
    assert delta(0.0) == 0.0
    assert delta(1.0) == pytest.approx(1.0 - math.log(2.0), abs=1e-15)
    arr = delta(np.array([0.0, 1.0, 3.0]))
    assert arr.shape == (3,)
    assert arr[2] == pytest.approx(3.0 - math.log(4.0), abs=1e-15)


def test_domain_edge_rejected():
    with pytest.raises(ArgumentError):
        delta(-1.0)
    with pytest.raises(ArgumentError):
        delta(np.array([0.5, -2.0]))


def test_nonnegative_and_vanishes_only_at_zero():
    t = np.linspace(-0.999, 50.0, N_GRID)
    vals = delta(t)
    assert np.all(vals >= 0.0)
    zero_mask = vals == 0.0
    assert np.all(np.abs(t[zero_mask]) < 1e-12)


def test_scaling_lower_bound():
    """delta(c t) >= min(c, c^2) delta(t) on a c x t product grid."""
    c = np.linspace(0.0, 8.0, 100)
    t = np.linspace(0.0, 40.0, 100)
    C, T = np.meshgrid(c, t)
    lhs = delta(C * T)
    rhs = delta_scale(C, T)
    assert np.all(lhs - rhs >= -1e-12)


def test_left_quadratic_bound():
    """delta(t) >= t^2 / 2 on (-1, 0]."""
    t = np.linspace(-0.9999, 0.0, N_GRID)
    assert np.all(delta(t) - 0.5 * t * t >= 0.0)


def test_capped_quadratic_bound():
    """delta(t) >= (delta(a)/a^2) t^2 on [0, a], several caps."""
    for a in (0.5, 1.0, 4.0, 10.0):
        coef = delta_quadratic_floor(a)
        t = np.linspace(0.0, a, N_GRID)
        assert np.all(delta(t) - coef * t * t >= -1e-15)
    # the cap used by the quadratic-decay certificate constant
    assert delta_quadratic_floor(4.0) * (1.0 / 16.0) * 16.0 == pytest.approx(
        (4.0 - math.log(5.0)) / 16.0, abs=1e-15
    )


def test_linear_band():
    """(1 - log 2) min(t, t^2) <= delta(t) <= t on [0, inf)."""
    t = np.linspace(0.0, 200.0, N_GRID)
    vals = delta(t)
    low = LINEAR_BAND_CONSTANT * np.minimum(t, t * t)
    assert np.all(vals - low >= -1e-12)
    assert np.all(t - vals >= 0.0)
    # sharp at t = 1 on the lower side
    assert delta(1.0) == pytest.approx(LINEAR_BAND_CONSTANT, abs=1e-16)


def test_expectation_form():
    """(1-log2) min(E xi, (E xi)^2) <= E delta(xi) <= E xi for xi >= 0.

    Checked on random finitely supported laws; Jensen gives the lower
    bound no free pass since min{t, t^2} is not convex.
    """
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = rng.integers(1, 6)
        atoms = rng.uniform(0.0, 10.0, size=k)
        w = rng.dirichlet(np.ones(k))
        e_xi = float(w @ atoms)
        e_delta = float(w @ delta(atoms))
        assert e_delta <= e_xi + 1e-12
        assert e_delta >= LINEAR_BAND_CONSTANT * min(e_xi, e_xi * e_xi) - 1e-12


def test_scale_argument_validation():
    with pytest.raises(ArgumentError):
        delta_scale(-0.5, 1.0)
    with pytest.raises(ArgumentError):
        delta_scale(1.0, -0.5)
    with pytest.raises(ArgumentError):
        delta_quadratic_floor(0.0)
