"""Conditional recentering and per-coordinate decompositions."""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from lsdeficit.bounds import Workspace, evaluate_bound
from lsdeficit.densities import (
    GaussianDensity,
    Grid2DDensity,
    MixtureDensity,
    ProductDensity,
    bivariate_gaussian_grid,
    standard_gaussian,
)
from lsdeficit.errors import ArgumentError
from lsdeficit.functionals import fisher_information, relative_entropy, relative_fisher
from lsdeficit import recentering
from lsdeficit.quadrature import GridSpec
from lsdeficit.recentering import (
    _shift_rows,
    recenter,
    tensorise,
)
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


def _shift_rows_per_row(log_rows, spec_y, offsets, drop=745.0):
    """Reference: one spline build per moved row."""
    ys = spec_y.nodes()
    out = np.empty_like(log_rows)
    floor = float(log_rows.max()) - drop
    for i, off in enumerate(offsets):
        if off == 0.0:
            out[i] = log_rows[i]
            continue
        q = ys + off
        inside = (q >= spec_y.x_lo) & (q <= spec_y.x_hi)
        row = np.full(ys.shape, floor)
        if inside.any():
            s = CubicSpline(ys, log_rows[i], bc_type="not-a-knot")
            row[inside] = s(q[inside])
        out[i] = np.maximum(row, floor)
    return out


class TestShiftRows:
    """The batched spline build reproduces the per-row builds bit for bit."""

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize(
        "grid",
        [
            lambda: bivariate_gaussian_grid(0.5),
            lambda: bivariate_gaussian_grid(-0.4, var=(0.8, 1.2), mean=(0.3, -0.4)),
        ],
    )
    def test_matches_per_row_splines(self, grid, swap):
        mu = grid()
        if swap:
            mu = Grid2DDensity(mu.spec_y, mu.spec_x, mu.log_values.T)
        offsets = mu.conditional_means()
        got = _shift_rows(mu.log_values, mu.spec_y, offsets)
        assert np.array_equal(got, _shift_rows_per_row(mu.log_values, mu.spec_y, offsets))

    @pytest.mark.parametrize("block", [1, 4, recentering._SPLINE_BLOCK])
    def test_unmoved_and_off_grid_rows(self, monkeypatch, block):
        # small blocks split the moved rows unevenly, with unmoved rows between
        monkeypatch.setattr(recentering, "_SPLINE_BLOCK", block)
        spec = GridSpec(-4.0, 4.0, 65)
        rng = np.random.default_rng(5)
        log_rows = -0.5 * spec.nodes()[None, :] ** 2 + rng.normal(size=(9, 65))
        offsets = np.array([0.0, 0.3, -1.1, 0.0, 9.0, -8.5, 2.0, 0.0, 1e-3])
        got = _shift_rows(log_rows, spec, offsets)
        assert np.array_equal(got, _shift_rows_per_row(log_rows, spec, offsets))
        assert np.array_equal(_shift_rows(log_rows, spec, np.zeros(9)), log_rows)


class TestTensorise:
    """Per-coordinate D and transport parts."""

    def test_1d_matches_direct_functionals(self):
        mu = GaussianDensity(0.0, 4.0)
        dec = tensorise(mu, costs=(COST_SQ,))
        assert dec.cost_id == "sq"
        np.testing.assert_allclose(dec.D_parts[0], relative_entropy(mu).value, rtol=1e-12)
        np.testing.assert_allclose(dec.T_parts[0], 1.0, atol=1e-7)

    def test_product_parts_sum_to_totals(self):
        p = ProductDensity([GaussianDensity(0.0, 0.25), MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)])])
        dec = tensorise(p, costs=(COST_DELTA, COST_SQ))
        np.testing.assert_allclose(
            math.fsum(dec.D_parts), relative_entropy(p).value, rtol=1e-12
        )
        assert set(dec.cost_parts) == {"delta", "sq"}
        assert dec.T_parts == dec.cost_parts["delta"]

    def test_grid2d_entropy_parts(self):
        # marginal part vanishes (X1 is standard); the conditional part
        # carries the whole correlation: E_x D(N(x/2, 3/4) | gamma) = D(mu)
        dec = tensorise(bivariate_gaussian_grid(0.5), costs=(COST_SQ,))
        np.testing.assert_allclose(dec.D_parts[0], 0.0, atol=1e-7)
        np.testing.assert_allclose(dec.D_parts[1], -0.5 * math.log(0.75), atol=1e-6)

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


# The eight correlated grids of the grid2d-certify benchmark at seed 11
# (rho, (v1, v2), mean), then the two 2D members of the standard battery.
_CENTERED_GRIDS = [
    (0.3072868983263567, (1.15625, 1.734375), (0.5941677419830237, 0.9828222753675749)),
    (-0.5822466269077855, (0.78125, 1.171875), (-0.535262227231049, -0.41794736955440326)),
    (0.15799875834521993, (1.90625, 2.859375), (0.3117711085008225, 0.8219824154006351)),
    (0.2115895213790988, (1.53125, 2.296875), (0.520365886064444, 0.3494304032803339)),
    (-0.6370722063758585, (1.34375, 0.8958333333333333), (-0.9063498774253308, -0.4869538228430519)),
    (-0.4314534645190993, (0.96875, 0.6458333333333333), (-0.28199442500923433, 0.9112879708193593)),
    (0.5086565511089673, (0.59375, 0.3958333333333333), (0.12976721863968582, -0.2806920587450974)),
    (-0.7573334524297765, (1.71875, 1.1458333333333333), (-0.9155209050060046, 0.7276249798626679)),
    (0.0, (1.0, 1.0), (0.0, 0.0)),
    (0.5, (1.0, 1.0), (0.0, 0.0)),
]


class TestCenteredParts2D:
    """Certificates read the recentered parts of a 2D grid against gamma
    moved by the conditional means; the materialised recentered grid is
    the reference.  Both read the table, so the subject is a grid given as
    data: a Gaussian grid reads its parts off its law
    (``TestGaussianGridClosedForms``)."""

    @pytest.mark.parametrize("rho,var,mean", _CENTERED_GRIDS)
    def test_against_recentered_grid(self, rho, var, mean):
        law = bivariate_gaussian_grid(rho, var=var, mean=mean)
        mu = Grid2DDensity(law.spec_x, law.spec_y, law.log_values)
        got = Workspace().stats(mu).centered
        ref = tensorise(recenter(mu).recentered, costs=(COST_DELTA, COST_SQ, COST_ABS))
        for value, parts in ((got["D"], ref.D_parts), (got["sq"], ref.cost_parts["sq"])):
            want = math.fsum(parts)
            assert abs(value - want) <= 1e-13 * (1.0 + abs(want))
        want = math.fsum(ref.cost_parts["delta"])
        assert abs(got["delta"] - want) <= 1e-8 * (1.0 + abs(want))
        # W1 between centered 1D Gaussians is |sigma - 1| sqrt(2/pi): the
        # marginal N(0, v1) plus the rows N(0, v2 (1 - rho^2))
        exact = math.sqrt(2.0 / math.pi) * (
            abs(math.sqrt(var[0]) - 1.0) + abs(math.sqrt(var[1] * (1.0 - rho * rho)) - 1.0)
        )
        assert abs(got["abs"] - exact) <= 1e-5 * (1.0 + exact)


class TestW2sqUpper2D:
    """w2sq_upper adds each part's shift squared to its centered sq part;
    tensorise prices the cost against gamma itself, with zero shifts."""

    @pytest.mark.parametrize("rho,var,mean", _CENTERED_GRIDS)
    def test_translation_identity(self, rho, var, mean):
        mu = bivariate_gaussian_grid(rho, var=var, mean=mean)
        got = Workspace().stats(mu).w2sq_upper
        want = math.fsum(tensorise(mu, costs=(COST_SQ,)).T_parts)
        assert abs(got - want) <= 4.0 * np.finfo(float).eps * abs(want)


class TestGaussianGridClosedForms:
    """A Gaussian grid N(m, Sigma) reads its scores, row maps and means off
    its law, so its per-coordinate transport parts and Fisher informations
    meet their closed forms to roundoff, as do its centered D and second
    moment.  The marginal is N(m1, s1^2) and the rows N(mu_{2|1}(x),
    sigma^2), sigma = s2 sqrt(1 - rho^2), with E mu_{2|1}(X1)^2 = m2^2 +
    rho^2 v2."""

    @pytest.mark.parametrize("rho,var,mean", _CENTERED_GRIDS)
    def test_against_closed_forms(self, rho, var, mean):
        mu = bivariate_gaussian_grid(rho, var=var, mean=mean)
        s = Workspace().stats(mu)
        s1, sigma = math.sqrt(var[0]), math.sqrt(var[1] * (1.0 - rho * rho))
        centered_sq = (s1 - 1.0) ** 2 + (sigma - 1.0) ** 2
        m_sq = mean[0] ** 2 + mean[1] ** 2
        tr_inv = (1.0 / var[0] + 1.0 / var[1]) / (1.0 - rho * rho)
        kl = lambda v: 0.5 * (v - 1.0 - math.log(v))
        pins = [
            (s.w2sq_upper, centered_sq + m_sq + rho * rho * var[1]),
            (s.centered["sq"], centered_sq),
            (s.centered["D"], kl(var[0]) + kl(sigma * sigma)),
            (fisher_information(mu).value, tr_inv),
            (relative_fisher(mu).value, tr_inv - 4.0 + var[0] + var[1] + m_sq),
            (mu.second_moment(), var[0] + var[1] + m_sq),
        ]
        for got, want in pins:
            assert abs(got - want) <= 1e-15 * (1.0 + abs(want))
