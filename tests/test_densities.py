"""Density layer: normalisation, cdf/quantile inversion, scores, convolution."""

import math

import numpy as np
import pytest

from lsdeficit.densities import (
    GaussianDensity,
    Grid2DDensity,
    GridDensity,
    MixtureDensity,
    ProductDensity,
    TiltedDensity,
    bivariate_gaussian_grid,
    convolve,
    gaussian_convolve,
    gaussian_convolve_2d,
    standard_gaussian,
)
from lsdeficit.errors import ArgumentError
from lsdeficit.functionals import fisher_information
from lsdeficit.quadrature import GridSpec, integrate, integrate_values_2d, simpson_weights


def _gaussian_like_grid(mean=0.3, var=1.44, n=2049):
    spec = GridSpec(mean - 10 * math.sqrt(var), mean + 10 * math.sqrt(var), n)
    x = spec.nodes()
    return GridDensity(spec, -0.5 * (x - mean) ** 2 / var - 0.5 * math.log(2 * math.pi * var))


def _one_d_family():
    return [
        GaussianDensity(0.0, 1.0),
        GaussianDensity(-1.5, 0.49),
        MixtureDensity([(0.3, -1.0, 1.0), (0.7, 2.0, 0.25)]),
        TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05]),
        _gaussian_like_grid(),
    ]


class TestNormalisation:
    def test_1d_mass(self):
        for mu in _one_d_family():
            res = integrate(lambda x: np.asarray(mu.pdf(x)), mu.eval_spec())
            assert res.value == pytest.approx(1.0, abs=1e-9), type(mu).__name__

    def test_2d_mass(self):
        rho = bivariate_gaussian_grid(0.5)
        res = integrate_values_2d(np.exp(rho.log_values), rho.spec_x, rho.spec_y)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_product_normalised_factorwise(self):
        prod = ProductDensity([GaussianDensity(0.0, 1.0), MixtureDensity([(1.0, 0.5, 2.0)])])
        for f in prod.factors:
            res = integrate(lambda x: np.asarray(f.pdf(x)), f.eval_spec())
            assert res.value == pytest.approx(1.0, abs=1e-9)


class TestCdfQuantile:
    def test_roundtrip(self):
        us = np.linspace(0.001, 0.999, 97)
        for mu in _one_d_family():
            xs = np.asarray(mu.quantile(us))
            back = np.asarray(mu.cdf(xs))
            # grid-backed cdfs are piecewise linear; allow two grid steps
            step = mu.eval_spec().step
            x_again = np.asarray(mu.quantile(np.clip(back, 1e-12, 1 - 1e-12)))
            assert np.max(np.abs(x_again - xs)) <= 2 * step, type(mu).__name__

    def test_monotone(self):
        us = np.linspace(0.01, 0.99, 50)
        for mu in _one_d_family():
            xs = np.asarray(mu.quantile(us))
            assert np.all(np.diff(xs) > 0), type(mu).__name__

    def test_unit_interval_enforced(self):
        mu = GaussianDensity(0.0, 1.0)
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ArgumentError):
                mu.quantile(bad)

    def test_gaussian_median(self):
        assert GaussianDensity(2.0, 9.0).quantile(0.5) == pytest.approx(2.0, abs=1e-12)


class TestScore:
    def test_matches_log_pdf_gradient(self):
        rng = np.random.default_rng(3)
        for mu in _one_d_family():
            spec = mu.eval_spec()
            # stay clear of the support edges and align to nodes for grids
            idx = rng.integers(5, spec.n_points - 5, size=100)
            x = spec.nodes()[idx]
            h = spec.step
            fd = (np.asarray(mu.log_pdf(x + h)) - np.asarray(mu.log_pdf(x - h))) / (2 * h)
            sc = np.asarray(mu.score(x))
            assert np.max(np.abs(sc - fd)) < 5e-3, type(mu).__name__

    def test_gaussian_score_exact(self):
        mu = GaussianDensity(1.0, 4.0)
        x = np.array([-2.0, 0.0, 5.0])
        assert np.allclose(mu.score(x), -(x - 1.0) / 4.0)


class TestMoments:
    def test_gaussian(self):
        mu = GaussianDensity(-0.5, 2.25)
        assert mu.mean() == pytest.approx(-0.5, abs=1e-12)
        assert mu.second_moment() == pytest.approx(2.25 + 0.25, abs=1e-9)

    def test_mixture(self):
        mu = MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)])
        assert mu.mean() == pytest.approx(0.0, abs=1e-12)
        assert mu.second_moment() == pytest.approx(2.0, abs=1e-9)

    def test_product_mean_vector(self):
        prod = ProductDensity([GaussianDensity(1.0, 1.0), GaussianDensity(-2.0, 4.0)])
        assert np.allclose(prod.mean(), [1.0, -2.0])
        assert prod.second_moment() == pytest.approx(1.0 + 1.0 + 4.0 + 4.0, abs=1e-9)

    def test_grid2d_mean(self):
        rho = bivariate_gaussian_grid(0.5)
        assert np.max(np.abs(rho.mean())) < 1e-10
        assert rho.second_moment() == pytest.approx(2.0, abs=1e-8)


class TestShifts:
    def test_shift_moves_mass_rigidly(self):
        for mu in _one_d_family():
            nu = mu.shifted(0.7)
            x = np.linspace(-2.0, 2.0, 41)
            assert np.allclose(
                np.asarray(nu.log_pdf(x + 0.7)), np.asarray(mu.log_pdf(x)), atol=1e-10
            ), type(mu).__name__

    def test_grid2d_translated(self):
        rho = bivariate_gaussian_grid(0.5)
        moved = rho.translated(0.25, -0.5)
        assert np.allclose(moved.mean(), [0.25, -0.5], atol=1e-8)
        # log table is unchanged, only the window moved
        assert np.array_equal(moved.log_values, rho.log_values)
        assert moved.spec_x.x_lo == rho.spec_x.x_lo + 0.25
        assert moved.spec_y.x_lo == rho.spec_y.x_lo - 0.5


class TestTiltedConvexityFloor:
    def test_certified_floor_kept(self):
        mu = TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05], convexity_lower_bound=0.5)
        assert mu.convexity_lower_bound == pytest.approx(0.5)

    def test_wrong_floor_cleared(self):
        # v'' = 0.5 + 0.6 x^2 has minimum 0.5; claiming 0.9 must not stick
        mu = TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05], convexity_lower_bound=0.9)
        assert mu.convexity_lower_bound is None

    def test_odd_degree_rejected(self):
        with pytest.raises(ArgumentError):
            TiltedDensity([0.0, 0.0, 0.0, 1.0])


class TestConvolution:
    def test_gaussian_closed_form_at_nodes(self):
        mu = GaussianDensity(0.5, 1.0)
        out = gaussian_convolve(mu, 1.5)
        ref = GaussianDensity(0.5, 2.5)
        x = out.spec.nodes()[::8]
        keep = np.asarray(ref.log_pdf(x)) > -40.0  # window truncation owns the far tail
        diff = np.abs(np.asarray(out.log_pdf(x)) - np.asarray(ref.log_pdf(x)))
        assert np.max(diff[keep]) < 1e-8

    def test_semigroup(self):
        mu = MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)])
        two_step = gaussian_convolve(gaussian_convolve(mu, 0.5), 0.5)
        one_step = gaussian_convolve(mu, 1.0)
        x = np.linspace(-6.0, 6.0, 201)
        a = np.asarray(two_step.pdf(x))
        b = np.asarray(one_step.pdf(x))
        assert np.max(np.abs(a - b)) < 1e-6

    def test_general_convolve_matches_gaussian_pair(self):
        a = GaussianDensity(0.0, 1.0)
        b = GaussianDensity(1.0, 0.5)
        out = convolve(a, b)
        ref = GaussianDensity(1.0, 1.5)
        x = out.spec.nodes()
        x = x[(x > -5.0) & (x < 7.0)]
        assert np.max(np.abs(np.asarray(out.pdf(x)) - np.asarray(ref.pdf(x)))) < 1e-8

    def test_2d_heat_step(self):
        rho = bivariate_gaussian_grid(0.5)
        out = gaussian_convolve_2d(rho, 1.0)
        # covariance becomes I + Sigma; compare log densities at the nodes
        cov = np.array([[2.0, 0.5], [0.5, 2.0]])
        prec = np.linalg.inv(cov)
        logdet = math.log(np.linalg.det(cov))
        xs = out.spec_x.nodes()[::64]
        ys = out.spec_y.nodes()[::64]
        pts = np.array([(x, y) for x in xs for y in ys])
        want = -0.5 * np.einsum("ni,ij,nj->n", pts, prec, pts) - 0.5 * logdet - math.log(
            2 * math.pi
        )
        got = np.array([out.log_pdf((x, y)) for x, y in pts])
        keep = want > -40.0  # compare where mass is not vanishing
        assert np.max(np.abs(got[keep] - want[keep])) < 1e-6

    def test_time_must_be_positive(self):
        with pytest.raises(ArgumentError):
            gaussian_convolve(GaussianDensity(0.0, 1.0), 0.0)


def _dense_convolve(table, kernel, out_spec):
    """Reference: the full kernel matrix k(y_i - x_j) at arbitrary output
    nodes, 512 rows at a time, times the Simpson-weighted input."""
    weighted = simpson_weights(table.spec.n_points, table.spec.step) * table.p
    ys = out_spec.nodes()
    out = np.empty(out_spec.n_points)
    for start in range(0, out_spec.n_points, 512):
        block = ys[start : start + 512, None] - table.nodes[None, :]
        out[start : start + 512] = np.asarray(kernel(block)) @ weighted
    return GridDensity(out_spec, np.log(np.maximum(out, 1e-320)))


def _heat_kernel(t):
    return lambda z: np.exp(z * z / (-2.0 * t)) / math.sqrt(2.0 * math.pi * t)


def _max_log_gap(got, want):
    keep = want.log_values > -40.0  # window truncation owns the far tail
    return np.max(np.abs(got.log_values[keep] - want.log_values[keep]))


class TestLatticeKernel:
    """The step-aligned direct sum against the dense kernel matrix."""

    @pytest.mark.parametrize("t", [0.25, 1.0])
    @pytest.mark.parametrize("index", range(5))
    def test_heat_flow_matches_dense_oracle(self, index, t):
        mu = _one_d_family()[index]
        out = gaussian_convolve(mu, t)
        assert _max_log_gap(out, _dense_convolve(mu.table, _heat_kernel(t), out.spec)) < 1e-8

    def test_general_convolve_matches_dense_oracle(self):
        a = MixtureDensity([(0.3, -1.0, 1.0), (0.7, 2.0, 0.25)])
        b = TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05])
        out = convolve(a, b)
        assert _max_log_gap(out, _dense_convolve(a.table, b.pdf, out.spec)) < 1e-8

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
    def test_output_continues_input_lattice(self, t):
        mu = MixtureDensity([(0.3, -1.0, 1.0), (0.7, 2.0, 0.25)])
        spec = mu.table.spec
        out = gaussian_convolve(mu, t).spec
        assert out.n_points % 2 == 1
        assert out.step == pytest.approx(spec.step, rel=1e-12)
        offset = (spec.x_lo - out.x_lo) / spec.step
        assert offset == pytest.approx(round(offset), abs=1e-6)
        pad = 10.0 * math.sqrt(t)
        assert out.x_lo <= spec.x_lo - pad and out.x_hi >= spec.x_hi + pad

    def test_heat_flowed_mixture_fisher_information(self):
        # X + Z with X the +-1 mixture is the same mixture with variance 2;
        # an FFT's roundoff floor empties the tails and this diverges
        mu = MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)])
        got = fisher_information(gaussian_convolve(mu, 1.0)).value
        want = fisher_information(MixtureDensity([(0.5, -1.0, 2.0), (0.5, 1.0, 2.0)])).value
        assert got == pytest.approx(want, abs=1e-6)

    def test_coarse_table_gets_refined_output(self):
        # 129 input nodes: the output takes r nodes per input step, so the
        # finite-difference score of the result stays as fine as the default
        mix = MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)])
        spec = GridSpec(-11.0, 11.0, 129)
        mu = GridDensity(spec, mix.log_pdf(spec.nodes()))
        out = gaussian_convolve(mu, 1.0)
        assert out.spec.n_points % 2 == 1 and out.spec.n_points >= 4096
        r = spec.step / out.spec.step
        assert r == pytest.approx(round(r), rel=1e-12) and round(r) > 1
        assert _max_log_gap(out, _dense_convolve(mu.table, _heat_kernel(1.0), out.spec)) < 1e-8
        got = fisher_information(out).value
        want = fisher_information(MixtureDensity([(0.5, -1.0, 2.0), (0.5, 1.0, 2.0)])).value
        assert got == pytest.approx(want, abs=2e-6)

    def test_narrow_input_closed_form_at_nodes(self):
        out = gaussian_convolve(GaussianDensity(0.0, 0.0025), 1.0)
        ref = GaussianDensity(0.0, 1.0025)
        x = out.spec.nodes()[::8]
        keep = np.asarray(ref.log_pdf(x)) > -40.0
        diff = np.abs(np.asarray(out.log_pdf(x)) - np.asarray(ref.log_pdf(x)))
        assert np.max(diff[keep]) < 1e-8


class TestBivariateGrid:
    def test_correlation_range_enforced(self):
        with pytest.raises(ArgumentError):
            bivariate_gaussian_grid(1.0)
        with pytest.raises(ArgumentError):
            bivariate_gaussian_grid(-1.0)

    def test_log_density_values(self):
        # exact at nodes; between nodes the table interpolates
        rho = bivariate_gaussian_grid(0.5)
        x = rho.spec_x.nodes()[300]
        y = rho.spec_y.nodes()[280]
        quad = (x * x - 2 * 0.5 * x * y + y * y) / (1 - 0.25)
        want = -0.5 * quad - 0.5 * math.log(1 - 0.25) - math.log(2 * math.pi)
        assert rho.log_pdf((x, y)) == pytest.approx(want, abs=1e-9)

    def test_marginal_is_standard_gaussian(self):
        rho = bivariate_gaussian_grid(0.5)
        marg = rho.marginal_x()
        x = marg.spec.nodes()
        x = x[np.abs(x) < 4.0]
        ref = standard_gaussian()
        assert np.max(np.abs(np.asarray(marg.log_pdf(x)) - np.asarray(ref.log_pdf(x)))) < 1e-9

    def test_swapped_symmetry(self):
        rho = bivariate_gaussian_grid(0.5)
        sw = rho.swapped()
        assert np.allclose(sw.log_values, rho.log_values.T)


class TestValidation:
    def test_gaussian_variance_positive(self):
        with pytest.raises(ArgumentError):
            GaussianDensity(0.0, 0.0)
        with pytest.raises(ArgumentError):
            GaussianDensity(0.0, -1.0)

    def test_mixture_weights(self):
        with pytest.raises(ArgumentError):
            MixtureDensity([(0.5, 0.0, 1.0), (0.6, 1.0, 1.0)])
        with pytest.raises(ArgumentError):
            MixtureDensity([])

    def test_product_needs_two_one_d_factors(self):
        with pytest.raises(ArgumentError):
            ProductDensity([GaussianDensity(0.0, 1.0)])

    def test_grid_log_shape(self):
        spec = GridSpec(-5.0, 5.0, 101)
        with pytest.raises(ArgumentError):
            GridDensity(spec, np.zeros(100))

    def test_grid2d_log_shape(self):
        spec = GridSpec(-5.0, 5.0, 65)
        with pytest.raises(ArgumentError):
            Grid2DDensity(spec, spec, np.zeros((65, 64)))
