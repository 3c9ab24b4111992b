"""Conditional recentering and per-coordinate decompositions."""

import math

import numpy as np
import pytest

from lsdeficit.bounds import evaluate_bound
from lsdeficit.densities import (
    GaussianDensity,
    MixtureDensity,
    ProductDensity,
    bivariate_gaussian_grid,
    standard_gaussian,
)
from lsdeficit.errors import ArgumentError
from lsdeficit.functionals import relative_entropy, relative_fisher
from lsdeficit.recentering import RecenteredDensity, TensorDecomposition, recenter, tensorise
from lsdeficit.transport import COST_ABS, COST_DELTA, COST_SQ


class TestRecenter1D:
    """Mean removal for scalar densities."""

    def test_gaussian_shift_removed(self):
        out = recenter(GaussianDensity(3.0, 1.0))
        assert out.shifts == (3.0,)
        x = np.linspace(-3.0, 3.0, 11)
        np.testing.assert_allclose(
            np.asarray(out.recentered.log_pdf(x)),
            np.asarray(standard_gaussian().log_pdf(x)),
            atol=1e-12,
        )

    def test_mixture_mean_removed(self):
        mix = MixtureDensity([(0.3, -1.0, 1.0), (0.7, 2.0, 0.49)])
        out = recenter(mix)
        np.testing.assert_allclose(out.shifts[0], mix.mean(), rtol=1e-12)
        np.testing.assert_allclose(out.recentered.mean(), 0.0, atol=1e-9)
        assert out.original is mix

    def test_already_centered_is_noop(self):
        out = recenter(standard_gaussian())
        np.testing.assert_allclose(out.shifts[0], 0.0, atol=1e-12)

    def test_mixture_keeps_certified_convexity_floor(self):
        mix = MixtureDensity([(0.3, -0.5, 1.0), (0.7, 0.5, 1.0)], convexity_lower_bound=0.5)
        assert mix.convexity_lower_bound == 0.5
        centered = recenter(mix).recentered
        assert centered.convexity_lower_bound == 0.5
        # the centered form is what the convexity-gated bound certifies
        assert evaluate_bound("thm4.2", centered).constants["eps"] == 0.5


class TestRecenterProduct:
    """Coordinatewise mean removal."""

    def test_factor_means_removed(self):
        p = ProductDensity([GaussianDensity(1.0, 4.0), GaussianDensity(-0.5, 1.0)])
        out = recenter(p)
        np.testing.assert_allclose(out.shifts, (1.0, -0.5), atol=1e-12)
        for f in out.recentered.factors:
            np.testing.assert_allclose(f.mean(), 0.0, atol=1e-9)

    def test_relative_entropy_drops_by_half_squared_mean(self):
        # D(N(m, v) | gamma) - D(N(0, v) | gamma) = m^2 / 2
        p = ProductDensity([GaussianDensity(1.0, 1.0), GaussianDensity(0.0, 4.0)])
        out = recenter(p)
        before = relative_entropy(p).value
        after = relative_entropy(out.recentered).value
        np.testing.assert_allclose(before - after, 0.5, atol=1e-9)


class TestRecenterGrid2D:
    """Conditional mean removal on bivariate grids."""

    def test_correlated_gaussian_factorises(self):
        # X2 | X1 = x is N(rho x, 1 - rho^2); removing the conditional mean
        # leaves exactly N(0,1) (x) N(0, 0.75)
        out = recenter(bivariate_gaussian_grid(0.5))
        grid = out.recentered
        xs = grid.spec_x.nodes()[:, None]
        ys = grid.spec_y.nodes()[None, :]
        want = np.broadcast_to(
            -0.5 * xs**2 - 0.5 * math.log(2.0 * math.pi)
            - 0.5 * ys**2 / 0.75 - 0.5 * math.log(2.0 * math.pi * 0.75),
            grid.log_values.shape,
        )
        # rows shifted past the window edge are floored; compare where the
        # factorised density carries any mass
        live = want >= -40.0
        np.testing.assert_allclose(grid.log_values[live], want[live], atol=1e-7)

    def test_shift_fields(self):
        out = recenter(bivariate_gaussian_grid(0.5))
        first, second = out.shifts
        np.testing.assert_allclose(first, 0.0, atol=1e-8)
        xs = out.original.spec_x.nodes()
        second = np.asarray(second)
        # conditional means grow linearly with slope rho on the bulk of the
        # window; the extreme tail rows carry no mass
        bulk = np.abs(xs) <= 6.0
        np.testing.assert_allclose(second[bulk], 0.5 * xs[bulk], atol=1e-6)

    def test_entropy_after_recentering(self):
        # all that survives is the conditional variance gap
        out = recenter(bivariate_gaussian_grid(0.5))
        want = 0.5 * (math.log(1.0 / 0.75) + 0.75 - 1.0)
        np.testing.assert_allclose(relative_entropy(out.recentered).value, want, atol=1e-6)

    def test_uncorrelated_grid_unchanged(self):
        out = recenter(bivariate_gaussian_grid(0.0))
        np.testing.assert_allclose(
            out.recentered.log_values, out.original.log_values, atol=1e-7
        )

    def test_rejects_unknown_type(self):
        with pytest.raises(ArgumentError):
            recenter("density")


class TestTensorise:
    """Per-coordinate D, I and transport parts."""

    def test_1d_matches_direct_functionals(self):
        mu = GaussianDensity(0.0, 4.0)
        dec = tensorise(mu, costs=(COST_SQ,))
        assert dec.cost_id == "sq"
        np.testing.assert_allclose(dec.D_parts[0], relative_entropy(mu).value, rtol=1e-12)
        np.testing.assert_allclose(dec.I_parts[0], relative_fisher(mu).value, rtol=1e-12)
        np.testing.assert_allclose(dec.T_parts[0], 1.0, atol=1e-7)

    def test_product_parts_sum_to_totals(self):
        p = ProductDensity([GaussianDensity(0.0, 0.25), MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)])])
        dec = tensorise(p, costs=(COST_DELTA, COST_SQ))
        np.testing.assert_allclose(
            dec.total(dec.D_parts), relative_entropy(p).value, rtol=1e-12
        )
        np.testing.assert_allclose(
            dec.total(dec.I_parts), relative_fisher(p).value, rtol=1e-12
        )
        assert set(dec.cost_parts) == {"delta", "sq"}
        assert dec.T_parts == dec.cost_parts["delta"]

    def test_grid2d_entropy_parts(self):
        # marginal part vanishes (X1 is standard); the conditional part
        # carries the whole correlation: E_x D(N(x/2, 3/4) | gamma) = D(mu)
        dec = tensorise(bivariate_gaussian_grid(0.5), costs=(COST_SQ,))
        np.testing.assert_allclose(dec.D_parts[0], 0.0, atol=1e-7)
        np.testing.assert_allclose(dec.D_parts[1], -0.5 * math.log(0.75), atol=1e-6)

    def test_grid2d_information_parts(self):
        # E_x I(N(x/2, 3/4) | gamma) = 1/4 + 1/12; conditional information
        # is smaller than the joint's 2/3 because the x1-score of the joint
        # also feels the conditional mean moving
        dec = tensorise(bivariate_gaussian_grid(0.5), costs=(COST_SQ,))
        np.testing.assert_allclose(dec.I_parts[0], 0.0, atol=1e-6)
        np.testing.assert_allclose(dec.I_parts[1], 0.25 + 1.0 / 12.0, atol=1e-5)

    def test_grid2d_transport_parts(self):
        # E_x W2^2(N(x/2, 3/4), gamma) = 1/4 + (sqrt(3)/2 - 1)^2
        dec = tensorise(bivariate_gaussian_grid(0.5), costs=(COST_SQ,))
        np.testing.assert_allclose(dec.T_parts[0], 0.0, atol=1e-6)
        want = 0.25 + (math.sqrt(0.75) - 1.0) ** 2
        np.testing.assert_allclose(dec.T_parts[1], want, atol=1e-5)

    def test_recentered_grid_loses_mean_part(self):
        out = recenter(bivariate_gaussian_grid(0.5))
        dec = tensorise(out.recentered, costs=(COST_SQ,))
        np.testing.assert_allclose(dec.T_parts[1], (math.sqrt(0.75) - 1.0) ** 2, atol=1e-5)

    def test_needs_a_cost(self):
        with pytest.raises(ArgumentError):
            tensorise(standard_gaussian(), costs=())

    def test_rejects_unknown_type(self):
        with pytest.raises(ArgumentError):
            tensorise(3.14)

    def test_total_helper(self):
        dec = TensorDecomposition((0.1, 0.2), (0.3,), (0.0,), "sq", {"sq": (0.0,)})
        np.testing.assert_allclose(dec.total(dec.D_parts), 0.3, rtol=1e-15)
