"""Density layer: normalisation, cdf/quantile inversion, scores, convolution."""

import math

import numpy as np
import pytest
from quantile_reference import TiltQuantile, mixture_quantile
from scipy import special
from scipy.integrate import quad

from lsdeficit import config, specio
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
from lsdeficit.bounds import evaluate_bound
from lsdeficit.errors import ArgumentError, HypothesisError
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


_HEAT_STEP_CASES = [
    (0.5, (1.0, 1.0), (0.0, 0.0), 1.0),
    (0.5, (0.8, 1.6), (0.3, -0.4), 1.0),
    (0.5, (0.8, 1.6), (0.3, -0.4), 0.25),
    # the narrowest variance pair of the benchmark's grid2d workload
    (-0.4, (0.59375, 0.59375 / 1.5), (-0.7, 0.2), 1.0),
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

    def test_tilt_against_fine_reference(self):
        # the inverse of the normal-score table; linear interpolation in
        # the CDF table was 1.2e-5 off here
        coeffs = (0.0, 0.0, 0.25, 0.0, 0.05)
        us = (np.arange(199) + 0.5) / 199.0
        got = np.asarray(TiltedDensity(coeffs).quantile(us))
        assert np.max(np.abs(got - TiltQuantile(coeffs)(special.ndtri(us)))) <= 1e-8

    def test_mixture_upper_tail(self):
        # read through the survival function: the CDF table gave 1.6e-5 here
        comps = [(0.3, -1.0, 0.49), (0.7, 1.2, 1.0)]
        u = 1.0 - 1e-12
        want = mixture_quantile(comps, np.array([special.ndtri(u)]))[0]
        assert abs(MixtureDensity(comps).quantile(u) - want) <= 1e-9

    @pytest.mark.parametrize("n", [129, 257, 1025])
    def test_tabulated_cdf_inverts_quantile(self, n):
        # cdf reads the normal-score table forward, quantile backward; linear
        # interpolation in the CDF table missed by 1.2e-4 at 257 nodes
        spec = GridSpec(-8.0, 8.0, n)
        x = spec.nodes()
        mu = GridDensity(spec, -0.5 * x * x / 1.3 - 0.05 * x**4)
        us = (np.arange(20) + 0.5) / 20.0
        assert np.max(np.abs(np.asarray(mu.cdf(mu.quantile(us))) - us)) <= 1e-6

    def test_inverse_reads_the_normal_scores(self):
        # x(z) returns each table node at its own score, on the strictly
        # increasing part of the table
        for mu in _one_d_family():
            t, z = mu.table, mu.normal_scores.z
            inside = (np.abs(z) < 8.0) & (t.p > 1e-12)
            np.testing.assert_allclose(
                mu.score_inverse(z[inside]), t.nodes[inside], rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("m, v", [(0.0, 1.0), (1.0, 1.0), (-0.3, 0.64), (2.0, 4.0)])
    def test_gaussian_scores_skip_phi(self, m, v):
        # z = (x - m) / s on the nodes, with no round trip Phi^-1(Phi(z))
        mu = GaussianDensity(m, v)
        scores = mu.normal_scores
        assert np.array_equal(scores.z, (mu.table.nodes - m) / math.sqrt(v))
        assert scores.error == 0.0
        assert np.array_equal(mu.score_inverse.scores(mu.table.nodes), scores.z)


class TestCorrectedTrapezoidTables:
    """The CDF tables sum every interval with one end-corrected trapezoid,
    so their error is smooth from node to node, not a zig-zag."""

    _COEFFS = (0.0, 0.0, 0.25, 0.0, 0.05)

    def test_tilt_scores_against_a_finer_table(self):
        # the Simpson tables' error changed sign 1460 times here and reached 5.1e-8
        mu = TiltedDensity(list(self._COEFFS))
        n = mu.table.spec.n_points
        with config.scoped_policy(config.NumericPolicy(grid_points=16 * (n - 1) + 1)):
            fine = TiltedDensity(list(self._COEFFS))
            assert np.array_equal(fine.table.nodes[::16], mu.table.nodes)
            z_fine = fine.normal_scores.z[::16]
        inside = np.abs(z_fine) < 5.0
        err = (mu.normal_scores.z - z_fine)[inside]
        assert np.max(np.abs(err)) <= 1e-8
        assert np.count_nonzero(np.diff(np.sign(err))) <= 10

    def test_tilt_map_slope_between_nodes(self):
        # x'(z) = phi(z) / p(x(z)) off the nodes too: 5.6e-6 relative with
        # the Simpson tables, a bump at every interval
        mu = TiltedDensity(list(self._COEFFS))
        z = np.linspace(-4.5, 4.5, 20001)
        inv = mu.score_inverse
        want = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) / np.asarray(mu.pdf(inv(z)))
        assert np.max(np.abs(inv.slope(z) / want - 1.0)) <= 1e-7


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


def _point_major_mixture(mu: MixtureDensity, pts: np.ndarray):
    """log p and score from the point-major (n, k) component table: the
    layout before the component-major one, kept as the oracle."""
    w, m, v = (np.array(c) for c in zip(*mu.components))
    s = np.sqrt(v)
    z = (pts[:, None] - m[None, :]) / s[None, :]
    logs = -0.5 * z * z - 0.5 * math.log(2.0 * math.pi) - np.log(s)[None, :] + np.log(w)[None, :]
    peak = logs.max(axis=1, keepdims=True)
    r = np.exp(logs - peak)
    log_p = peak[:, 0] + np.log(r.sum(axis=1))
    score = (r * (-(pts[:, None] - m[None, :]) / v[None, :])).sum(axis=1) / r.sum(axis=1)
    return log_p, score, (r * np.abs(pts[:, None] - m[None, :]) / v[None, :]).sum(axis=1) / r.sum(axis=1)


def _random_mixture(k: int, seed: int) -> MixtureDensity:
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet([1.0] * k)
    return MixtureDensity(
        [(float(w), float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.1, 3.0))) for w in weights]
    )


class TestMixtureComponentRows:
    """Component-major tables give the point-major bits: numpy sums fewer
    than 8 terms of a row in order, and the rows here in order too."""

    @pytest.mark.parametrize("k", range(1, 8))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_bits_below_eight_components(self, k, seed):
        mu = _random_mixture(k, seed)
        far = np.array([-1e3, -60.0, -25.0, 25.0, 60.0, 1e3])
        for pts in (mu.table.nodes, far):
            log_p, score, _ = _point_major_mixture(mu, pts)
            assert np.array_equal(mu.log_pdf(pts), log_p)
            assert np.array_equal(mu.score(pts), score)
        log_p, score, _ = _point_major_mixture(mu, mu.table.nodes)
        assert np.array_equal(mu.table.log_p, log_p)
        assert np.array_equal(mu.table.p, np.exp(log_p))
        assert np.array_equal(mu.table.score, score)
        for x in (0.3, -40.0):
            log_p, score, _ = _point_major_mixture(mu, np.array([x]))
            assert mu.log_pdf(x) == log_p[0] and mu.score(x) == score[0]

    @pytest.mark.parametrize("k", [8, 9, 12])
    def test_pairwise_rows_move_a_few_ulps_from_eight_components(self, k):
        # numpy sums a row of 8 or more terms pairwise, the rows in order:
        # each side is within (k - 1) eps of the exact sum of its terms
        eps = np.finfo(float).eps
        for seed in range(5):
            mu = _random_mixture(k, seed)
            pts = np.concatenate((mu.table.nodes, [-1e3, -60.0, 60.0, 1e3]))
            log_p, score, scale = _point_major_mixture(mu, pts)
            assert np.all(np.abs(mu.log_pdf(pts) - log_p) <= 2 * k * eps + np.spacing(np.abs(log_p)))
            assert np.all(np.abs(mu.score(pts) - score) <= 2 * k * eps * scale)


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

    def test_grid2d_mean_off_center(self):
        # row statistics give the same mean as whole-grid tensor Simpson
        rho = bivariate_gaussian_grid(0.5, var=(0.8, 1.6), mean=(0.4, -0.7))
        p = np.exp(rho.log_values)
        xs, ys = rho.spec_x.nodes()[:, None], rho.spec_y.nodes()[None, :]
        whole = [integrate_values_2d(c * p, rho.spec_x, rho.spec_y).value for c in (xs, ys)]
        assert np.allclose(rho.mean(), whole, rtol=0.0, atol=1e-15)
        assert np.allclose(rho.mean(), [0.4, -0.7], rtol=0.0, atol=1e-10)


class TestShifts:
    def test_shift_moves_mass_rigidly(self):
        for mu in _one_d_family():
            nu = mu.shifted(0.7)
            x = np.linspace(-2.0, 2.0, 41)
            assert np.allclose(
                np.asarray(nu.log_pdf(x + 0.7)), np.asarray(mu.log_pdf(x)), atol=1e-10
            ), type(mu).__name__



class TestTiltedConvexityFloor:
    def test_certified_floor_kept(self):
        mu = TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05], convexity_lower_bound=0.5)
        assert mu.convexity_lower_bound == pytest.approx(0.5)

    def test_wrong_floor_cleared(self):
        # v'' = 0.5 + 0.6 x^2 has minimum 0.5; claiming 0.9 must not stick
        mu = TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05], convexity_lower_bound=0.9)
        assert mu.convexity_lower_bound is None

    def test_floor_proved_on_the_whole_line(self):
        # v'' = 0.2 + 1e-3 (x^2 - 64)^2 is least at x = +-8, past the fitted
        # support (about +-4.84), where it is 4.29 or more
        coeffs = [0.0, 0.0, 2.148, 0.0, -0.128 / 12, 0.0, 1e-3 / 30]
        assert TiltedDensity(coeffs).table.nodes[-1] < 8.0
        for claim, kept in ((1.8, False), (0.2, True), (0.2 + 1.2e-9, False)):
            mu = TiltedDensity(coeffs, convexity_lower_bound=claim)
            assert mu.convexity_lower_bound == (claim if kept else None), claim
        assert TiltedDensity(coeffs, 0.2).shifted(3.0).convexity_lower_bound == 0.2
        with pytest.raises(HypothesisError, match="convexity hypothesis"):
            evaluate_bound("thm4.2", TiltedDensity(coeffs, convexity_lower_bound=1.8))

    def test_constant_second_derivative(self):
        # v = x^2 / 4 has v'' = 0.5 everywhere, and v''' has no root
        assert TiltedDensity([0.0, 0.0, 0.25], 0.5).convexity_lower_bound == 0.5
        assert TiltedDensity([0.0, 0.0, 0.25], 0.5 + 1e-9).convexity_lower_bound is None

    def test_odd_degree_rejected(self):
        with pytest.raises(ArgumentError):
            TiltedDensity([0.0, 0.0, 0.0, 1.0])

    def test_trailing_zero_coefficients_trimmed(self):
        mu, trimmed = TiltedDensity([0, 0, 0.5, 0, 0]), TiltedDensity([0, 0, 0.5])
        assert mu.potential_coeffs == trimmed.potential_coeffs == (0.0, 0.0, 0.5)
        for got, want in zip(mu.table, trimmed.table):
            assert got == want if isinstance(got, GridSpec) else np.array_equal(got, want)
        parsed = specio.parse_density({"type": "tilted", "coeffs": [0, 0, 0.5, 0, 0]})
        assert parsed.potential_coeffs == trimmed.potential_coeffs


class TestTabulatedConvexityFloor:
    """Mixtures and 1D grids check a claimed floor on (-log p)'' against the
    second differences of their tabulated potential."""

    # (-log p)'' of the +-0.5 unit mixture is 1 - 0.25 sech^2(x / 2) >= 0.75
    @pytest.mark.parametrize("eps, kept", [(0.5, True), (0.7, True), (0.8, False), (0.9, False)])
    def test_mixture_and_its_grid_agree(self, eps, kept):
        mix = MixtureDensity([(0.5, -0.5, 1.0), (0.5, 0.5, 1.0)], convexity_lower_bound=eps)
        grid = GridDensity(mix.table.spec, mix.table.log_p, convexity_lower_bound=eps)
        assert mix.convexity_lower_bound == grid.convexity_lower_bound == (eps if kept else None)


_CLAIM_GRID = GridSpec(-8.0, 8.0, 257)
_CLAIM_GRID_2D = bivariate_gaussian_grid(0.5, n_points=33)
# one density per constructor that takes a claimed floor on (-log p)''
_CLAIMANTS = {
    "mixture": lambda eps: MixtureDensity(
        [(0.5, -0.5, 1.0), (0.5, 0.5, 1.0)], convexity_lower_bound=eps
    ),
    "tilted": lambda eps: TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05], convexity_lower_bound=eps),
    "grid": lambda eps: GridDensity(
        _CLAIM_GRID, -0.5 * _CLAIM_GRID.nodes() ** 2, convexity_lower_bound=eps
    ),
    "grid2d": lambda eps: Grid2DDensity(
        _CLAIM_GRID_2D.spec_x, _CLAIM_GRID_2D.spec_y, _CLAIM_GRID_2D.log_values, eps
    ),
}


class TestConvexityClaimIntake:
    """Every constructor reads a claimed convexity floor through one intake:
    no claim keeps none, a claim that is not positive and finite is refused,
    and any other claim is what the shape's own check proves."""

    @pytest.mark.parametrize("claim", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("shape", sorted(_CLAIMANTS))
    def test_claim_not_positive_and_finite_refused(self, shape, claim):
        with pytest.raises(ArgumentError, match="convexity lower bound must be positive and finite"):
            _CLAIMANTS[shape](claim)

    # of the claims 0.5, 0.6, 0.7, 0.8, 1.0 and 1.1, the largest each shape
    # kept before the one intake, and the next, which it cleared
    @pytest.mark.parametrize(
        "shape, kept, cleared",
        [("mixture", 0.7, 0.8), ("tilted", 0.5, 0.6), ("grid", 1.0, 1.1), ("grid2d", 0.6, 0.7)],
    )
    def test_valid_claim_keeps_its_floor(self, shape, kept, cleared):
        assert _CLAIMANTS[shape](None).convexity_lower_bound is None
        assert _CLAIMANTS[shape](kept).convexity_lower_bound == kept
        assert _CLAIMANTS[shape](cleared).convexity_lower_bound is None

    @pytest.mark.parametrize("bound_id", ["thm4.2", "cor4.4", "thm1.4"])
    @pytest.mark.parametrize("shape", sorted(_CLAIMANTS))
    def test_convexity_bounds_raise_no_value_error(self, shape, bound_id):
        # a certificate or a named hypothesis, never a math domain error
        for claim in (-1.0, 0.0, math.nan, math.inf, 1e-3, 0.5, 0.7, 1.8):
            try:
                mu = _CLAIMANTS[shape](claim)
            except ArgumentError:
                assert not (math.isfinite(claim) and claim > 0), claim
                continue
            try:
                evaluate_bound(bound_id, mu)
            except HypothesisError:
                pass


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
        for rho, var, mean, t in _HEAT_STEP_CASES:
            out = gaussian_convolve_2d(bivariate_gaussian_grid(rho, var=var, mean=mean), t)
            # covariance becomes Sigma + t I; compare log densities at the nodes
            c = rho * math.sqrt(var[0] * var[1])
            cov = np.array([[var[0] + t, c], [c, var[1] + t]])
            prec = np.linalg.inv(cov)
            logdet = math.log(np.linalg.det(cov))
            xs = out.spec_x.nodes()[::64]
            ys = out.spec_y.nodes()[::64]
            pts = np.array([(x, y) for x in xs for y in ys])
            d = pts - np.asarray(mean)
            want = -0.5 * np.einsum("ni,ij,nj->n", d, prec, d) - 0.5 * logdet - math.log(
                2 * math.pi
            )
            got = np.array([out.log_pdf((x, y)) for x, y in pts])
            keep = want > -40.0  # compare where mass is not vanishing
            assert np.max(np.abs(got[keep] - want[keep])) < 1e-6, (rho, var, mean, t)

    @pytest.mark.parametrize("var", [(1.0, 1.0), (0.8, 1.6)])
    @pytest.mark.parametrize("t", [0.25, 1.0])
    def test_2d_output_continues_input_lattice(self, var, t):
        pad = 10.0 * math.sqrt(t)
        shapes = set()
        for mean in ((0.0, 0.0), (0.3, -0.4)):
            mu = bivariate_gaussian_grid(0.5, var=var, mean=mean)
            out = gaussian_convolve_2d(mu, t)
            shapes.add(out.log_values.shape)
            for spec, out_spec in ((mu.spec_x, out.spec_x), (mu.spec_y, out.spec_y)):
                assert out_spec.n_points % 2 == 1
                assert out_spec.step == pytest.approx(spec.step, rel=1e-12)
                offset = (spec.x_lo - out_spec.x_lo) / spec.step
                assert offset == pytest.approx(round(offset), abs=1e-9)
                assert out_spec.x_lo <= spec.x_lo - pad and out_spec.x_hi >= spec.x_hi + pad
        # node counts do not depend on where the grid sits
        assert len(shapes) == 1
        if var == (1.0, 1.0) and t == 1.0:
            assert shapes == {(1025, 1025)}

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


def _pm1_mixture_fisher(v: float) -> float:
    """I of 0.5 N(-1, v) + 0.5 N(1, v) by adaptive quadrature of its
    analytic score (tanh(x / v) - x) / v: an oracle outside the package."""
    p = lambda x: (
        0.5 * (math.exp(-((x + 1) ** 2) / (2 * v)) + math.exp(-((x - 1) ** 2) / (2 * v)))
        / math.sqrt(2 * math.pi * v)
    )
    score = lambda x: (math.tanh(x / v) - x) / v
    value, _ = quad(
        lambda x: score(x) ** 2 * p(x), -60.0, 60.0, points=[-1.0, 0.0, 1.0],
        epsabs=1e-15, epsrel=1e-13, limit=500,
    )
    return value


class TestClosedFormHeatFlow:
    """Gaussians and mixtures flow to their exact laws; every other shape
    runs the lattice flow."""

    def test_gaussian_flow_is_exact(self):
        out = GaussianDensity(0.5, 1.0, support_radius=8.0).heat_flow(1.5)
        assert isinstance(out, GaussianDensity)
        assert (out.mean_param, out.var_param) == (0.5, 2.5)
        assert out.eval_spec() == GaussianDensity(0.5, 2.5, support_radius=8.0).eval_spec()

    def test_mixture_flow_is_exact(self):
        mu = MixtureDensity(
            [(0.5, -0.5, 1.0), (0.5, 0.5, 1.0)], convexity_lower_bound=0.5, support_radius=8.0
        )
        out = mu.heat_flow(0.75)
        assert isinstance(out, MixtureDensity)
        assert out.components == ((0.5, -0.5, 1.75), (0.5, 0.5, 1.75))
        assert mu.convexity_lower_bound == 0.5 and out.convexity_lower_bound is None
        want = MixtureDensity([(0.5, -0.5, 1.75), (0.5, 0.5, 1.75)], support_radius=8.0)
        assert out.eval_spec() == want.eval_spec()

    def test_product_flows_each_factor(self):
        tilt = TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05])
        out = ProductDensity([GaussianDensity(0.0, 0.25), tilt]).heat_flow(1.0)
        gauss, lattice = out.factors
        assert (gauss.mean_param, gauss.var_param) == (0.0, 1.25)
        assert isinstance(lattice, GridDensity)
        assert np.array_equal(lattice.log_values, gaussian_convolve(tilt, 1.0).log_values)

    def test_gaussian_grid_flow_is_exact(self):
        rho, (v1, v2), mean, t = 0.5, (0.8, 1.6), (0.3, -0.4), 0.75
        # the radius is the one resolved when the input was built
        with config.scoped_policy(config.NumericPolicy(support_radius=8.0)):
            mu = bivariate_gaussian_grid(rho, var=(v1, v2), mean=mean, n_points=65)
        out = mu.heat_flow(t)
        rho_t = rho * math.sqrt(v1 * v2) / math.sqrt((v1 + t) * (v2 + t))
        want = bivariate_gaussian_grid(
            rho_t, var=(v1 + t, v2 + t), mean=mean, n_points=65, support_radius=8.0
        )
        assert (out.spec_x, out.spec_y) == (want.spec_x, want.spec_y)
        assert np.array_equal(out.log_values, want.log_values)
        assert mu.convexity_lower_bound is not None and out.convexity_lower_bound is None
        # the flowed grid knows its law too
        assert out.heat_flow(t).log_values.shape == (65, 65)
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ArgumentError):
                mu.heat_flow(bad)

    def test_data_grids_flow_on_the_lattice(self):
        mu = bivariate_gaussian_grid(0.5, var=(0.8, 1.6), mean=(0.3, -0.4), n_points=65)
        data = Grid2DDensity(mu.spec_x, mu.spec_y, mu.log_values)
        loaded = specio.loads(specio.dumps(mu))
        swapped = Grid2DDensity(mu.spec_y, mu.spec_x, mu.log_values.T)
        for grid in (data, loaded, swapped):
            assert type(grid) is Grid2DDensity
            want = gaussian_convolve_2d(grid, 1.0)
            got = grid.heat_flow(1.0)
            assert (got.spec_x, got.spec_y) == (want.spec_x, want.spec_y)
            assert np.array_equal(got.log_values, want.log_values)

    @pytest.mark.parametrize("rho,var,mean,t", _HEAT_STEP_CASES)
    def test_2d_closed_form_agrees_with_lattice(self, rho, var, mean, t):
        mu = bivariate_gaussian_grid(rho, var=var, mean=mean)
        exact, lattice = mu.heat_flow(t), gaussian_convolve_2d(mu, t)
        # log p of the closed form is a quadratic in (x, y): read its six
        # coefficients off the closed-form table, evaluate them at the
        # lattice nodes
        def monomials(grid, every):
            x = grid.spec_x.nodes()[::every, None]
            y = grid.spec_y.nodes()[None, ::every]
            return (np.ones_like(x), x, y, x * x, x * y, y * y)

        fit = np.stack(np.broadcast_arrays(*monomials(exact, 16)), axis=-1).reshape(-1, 6)
        coef = np.linalg.lstsq(fit, exact.log_values[::16, ::16].ravel(), rcond=None)[0]
        want = sum(c * m for c, m in zip(coef, monomials(lattice, 1)))
        keep = want > -40.0  # the gate of test_2d_heat_step
        assert np.max(np.abs(lattice.log_values[keep] - want[keep])) < 1e-6

    @pytest.mark.parametrize(
        "mu",
        [
            GaussianDensity(0.0, 1.0),
            MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)]),
            ProductDensity([GaussianDensity(0.0, 1.0), GaussianDensity(1.0, 2.0)]),
            TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05]),
        ],
        ids=["gaussian", "mixture", "product", "tilt"],
    )
    def test_time_must_be_positive(self, mu):
        for t in (0.0, -1.0, math.nan):
            with pytest.raises(ArgumentError):
                mu.heat_flow(t)

    @pytest.mark.parametrize("t", [0.5, 1.0])
    @pytest.mark.parametrize(
        "mu",
        [GaussianDensity(0.5, 1.0), MixtureDensity([(0.3, -1.0, 1.0), (0.7, 2.0, 0.25)])],
        ids=["gaussian", "mixture"],
    )
    def test_closed_form_agrees_with_lattice(self, mu, t):
        lattice = gaussian_convolve(mu, t)
        x = lattice.spec.nodes()
        exact = np.asarray(mu.heat_flow(t).log_pdf(x))
        # the window owns the far tail, and past the input's table the
        # lattice misses the input mass beyond it, which the exact law keeps
        table = mu.table.spec
        keep = (exact > -40.0) & (x >= table.x_lo) & (x <= table.x_hi)
        assert np.max(np.abs(exact[keep] - lattice.log_values[keep])) < 1e-8

    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_flowed_mixture_fisher_information(self, t):
        got = fisher_information(MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)]).heat_flow(t))
        gap = abs(got.value - _pm1_mixture_fisher(1.0 + t))
        assert gap <= 1e-12 and gap <= got.error_estimate


class TestBivariateGrid:
    def test_correlation_range_enforced(self):
        with pytest.raises(ArgumentError):
            bivariate_gaussian_grid(1.0)
        with pytest.raises(ArgumentError):
            bivariate_gaussian_grid(-1.0)

    @pytest.mark.parametrize("var", [(-1.0, 1.0), (1.0, 0.0)], ids=["negative", "zero"])
    def test_variance_must_be_positive(self, var):
        with pytest.raises(ArgumentError, match="variance must be positive"):
            bivariate_gaussian_grid(0.5, var=var)

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

    def test_exact_convexity_bound_is_not_rechecked(self, monkeypatch):
        # a Gaussian grid keeps the smallest eigenvalue of its precision
        # matrix; only a grid given as data has its claim checked
        calls = []
        check = Grid2DDensity._verify_eps

        def counted(self, eps):
            calls.append(eps)
            return check(self, eps)

        monkeypatch.setattr(Grid2DDensity, "_verify_eps", counted)
        rho, var = 0.4, (0.8, 1.6)
        mu = bivariate_gaussian_grid(rho, var=var, mean=(0.3, -0.2), n_points=65)
        c = rho * math.sqrt(var[0] * var[1])
        exact = np.linalg.eigvalsh(np.linalg.inv([[var[0], c], [c, var[1]]])).min()
        assert calls == [] and mu.convexity_lower_bound == pytest.approx(exact, rel=1e-14)
        data = lambda eps: Grid2DDensity(mu.spec_x, mu.spec_y, mu.log_values, eps)
        assert data(0.5 * exact).convexity_lower_bound == 0.5 * exact
        assert data(2.0 * exact).convexity_lower_bound is None
        assert calls == [0.5 * exact, 2.0 * exact]


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


_RADIUS_BUILDERS = {
    "gaussian": lambda r: GaussianDensity(0.5, 2.0, support_radius=r),
    "mixture": lambda r: MixtureDensity([(0.4, -1.0, 0.5), (0.6, 1.0, 1.0)], support_radius=r),
    "tilted": lambda r: TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05], support_radius=r),
    "grid2d": lambda r: bivariate_gaussian_grid(0.3, n_points=65, support_radius=r),
}


def _x_range(mu):
    spec = mu.spec_x if isinstance(mu, Grid2DDensity) else mu.eval_spec()
    return spec.x_lo, spec.x_hi


class TestSupportRadius:
    """One rule for a constructor's support radius: None reads the scope's,
    any other value is taken as given, and a value that is not positive and
    finite is refused at construction, not at the first table build."""

    @pytest.mark.parametrize("build", _RADIUS_BUILDERS.values(), ids=list(_RADIUS_BUILDERS))
    @pytest.mark.parametrize("radius", [0.0, -3.0, math.nan, math.inf])
    def test_refused_at_construction(self, build, radius):
        with pytest.raises(ArgumentError, match="support radius must be positive and finite"):
            build(radius)

    @pytest.mark.parametrize("build", _RADIUS_BUILDERS.values(), ids=list(_RADIUS_BUILDERS))
    def test_none_reads_the_scope(self, build):
        assert _x_range(build(None)) == _x_range(build(config.DEFAULT_SUPPORT_RADIUS))
        with config.scoped_policy(config.NumericPolicy(support_radius=6.0)):
            scoped = _x_range(build(None))
        assert scoped == _x_range(build(6.0))
        assert scoped != _x_range(build(None))

    def test_gaussian_spans_its_radius(self):
        assert _x_range(GaussianDensity(0.0, 4.0, support_radius=3.0)) == (-6.0, 6.0)

    def test_grid2d_node_count_zero_is_refused(self):
        with pytest.raises(ArgumentError, match="need n_points >= 16, got 0"):
            bivariate_gaussian_grid(0.0, n_points=0)
        assert bivariate_gaussian_grid(0.0, n_points=None).log_values.shape == (
            config.DEFAULT_GRID_POINTS_2D,
        ) * 2
