"""Monotone transport maps, optimal costs, and the discrete oracle of
``discrete_reference``."""

import json
import math
import sys
from functools import lru_cache

import numpy as np
import pytest
from discrete_reference import brute_force_cost, monotone_matching_cost
from quantile_reference import TiltQuantile, mixture_quantile, quantile_space_costs

from lsdeficit import cli, config, transport
from lsdeficit.battery import standard_battery
from lsdeficit.bounds import BOUND_IDS, certify_suite
from lsdeficit.densities import (
    GaussianDensity,
    GridDensity,
    MixtureDensity,
    ProductDensity,
    TiltedDensity,
    _table_scores,
    bivariate_gaussian_grid,
    standard_gaussian,
)
from lsdeficit.deltafn import LINEAR_BAND_CONSTANT, delta
from lsdeficit.errors import ArgumentError, DegeneratePlanError, HypothesisError
from lsdeficit.quadrature import GridSpec, simpson_weights
from lsdeficit.specio import dumps
from lsdeficit.transport import (
    COST_ABS,
    COST_DELTA,
    COST_SQ,
    TransportPlan1D,
    cost_delta_scaled,
    costs_to_standard_gaussian_rows,
    monotone_plan,
    transport_cost,
    w1_distance,
    w2_distance,
    w2_squared,
)


def gaussian_w1(mean, var):
    """W1(N(mean, var), gamma) = E|mean + a Z| for the affine map, a = sigma - 1."""
    a = abs(math.sqrt(var) - 1.0)
    if a == 0.0:
        return abs(mean)
    tail = 0.5 * math.erfc(mean / (a * math.sqrt(2.0)))
    return a * math.sqrt(2.0 / math.pi) * math.exp(-mean * mean / (2.0 * a * a)) + mean * (
        1.0 - 2.0 * tail
    )


def random_atoms_with_unit(rng, units):
    """Random discrete law whose masses are multiples of 1/units."""
    n = int(rng.integers(1, units + 1)) if units > 1 else 1
    # composition of `units` into n positive parts
    cuts = np.sort(rng.choice(np.arange(1, units), size=n - 1, replace=False)) if n > 1 else np.array([], dtype=int)
    counts = np.diff(np.concatenate(([0], cuts, [units])))
    points = rng.normal(0.0, 2.0, size=n)
    return points, counts / units


class TestCostFns:
    """Convex displacement costs."""

    def test_identifiers(self):
        assert (COST_SQ.id, COST_ABS.id, COST_DELTA.id) == ("sq", "abs", "delta")

    def test_values(self):
        np.testing.assert_allclose(COST_SQ(np.array([-3.0, 2.0])), [9.0, 4.0])
        np.testing.assert_allclose(COST_ABS(np.array([-3.0, 2.0])), [3.0, 2.0])
        d = np.array([-1.5, 0.5])
        np.testing.assert_allclose(COST_DELTA(d), delta(np.abs(d)))

    def test_kink_is_the_slope_at_zero(self):
        from lsdeficit.transport import CostFn

        assert (COST_SQ.kink, COST_ABS.kink, COST_DELTA.kink) == (0.0, 1.0, 0.0)
        assert CostFn("abs2", lambda d: 2.0 * np.abs(d) + d * d).kink == pytest.approx(2.0)

    def test_scaled_gap_cost(self):
        s = math.sqrt(2.0 * math.pi)
        cost = cost_delta_scaled(s)
        np.testing.assert_allclose(cost(np.array([2.0])), delta(np.array([2.0 / s])))
        with pytest.raises(ArgumentError):
            cost_delta_scaled(0.0)

    def test_rejects_nonvanishing_at_zero(self):
        from lsdeficit.transport import CostFn

        with pytest.raises(ArgumentError):
            CostFn("bad", lambda d: np.abs(d) + 1.0)

    def test_rejects_concave(self):
        from lsdeficit.transport import CostFn

        with pytest.raises(ArgumentError):
            CostFn("conc", lambda d: np.sqrt(np.abs(d)))


class TestMonotonePlan:
    """The quantile coupling as a map."""

    def test_gaussian_map_is_affine(self):
        plan = monotone_plan(GaussianDensity(1.0, 4.0))
        x = np.linspace(-3.0, 3.0, 13)
        np.testing.assert_allclose(plan.map_at(x), 1.0 + 2.0 * x, atol=1e-7)
        np.testing.assert_allclose(plan.derivative(x), 2.0, atol=1e-6)

    def test_pushforward_property(self):
        mix = MixtureDensity([(0.3, -1.0, 0.49), (0.7, 1.2, 1.0)])
        plan = monotone_plan(mix)
        x = np.linspace(-2.5, 2.5, 9)
        np.testing.assert_allclose(
            np.asarray(mix.cdf(plan.map_at(x))),
            np.asarray(standard_gaussian().cdf(x)),
            atol=1e-7,
        )

    def test_derivative_matches_finite_differences(self):
        mix = MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)])
        plan = monotone_plan(mix)
        x = np.array([-1.0, 0.0, 0.8])
        h = 1e-5
        fd = (plan.map_at(x + h) - plan.map_at(x - h)) / (2.0 * h)
        np.testing.assert_allclose(plan.derivative(x), fd, rtol=1e-4)

    def test_non_density_rejected(self):
        with pytest.raises(ArgumentError):
            TransportPlan1D(standard_gaussian(), "gamma")

    @pytest.mark.parametrize("label", ["mixture-gap1", "mixture-gap2", "tilted-quartic"])
    def test_map_from_gamma_is_the_targets_inverse(self, label):
        # no round trip through Phi: the upper tail keeps the inverse's accuracy
        mu = dict(standard_battery())[label]
        x = np.linspace(-10.0, 10.0, 8193)
        assert np.array_equal(monotone_plan(mu).map_at(x), mu.score_inverse(x))

    def test_map_between_densities_reads_both_inverses(self):
        mix = MixtureDensity([(0.3, -1.0, 0.49), (0.7, 1.2, 1.0)])
        tilt = TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05])
        x = np.linspace(-3.0, 3.0, 25)
        want = mix.score_inverse(tilt.score_inverse.scores(x))
        assert np.array_equal(monotone_plan(mix, tilt).map_at(x), want)


def test_battery_gaussian_w2sq_closed_forms():
    # (sigma - 1)^2 + m^2, exactly: the Gaussian's scores are (x - m) / s
    want = {
        "gauss-narrow": 0.25,
        "gauss-sub": 0.04,
        "gauss-super": 0.0625,
        "gauss-wide": 1.0,
        "gauss-shift-pos": 1.0,
        "gauss-shift-neg": 1.0,
    }
    members = dict(standard_battery())
    assert {label: w2_squared(members[label]).value for label in want} == want


class _SkewedGaussian(GaussianDensity):
    def quantile(self, u):
        return super().quantile(u) + 0.01


class _SkewedMixture(MixtureDensity):
    def quantile(self, u):
        return super().quantile(u) + 0.01


class TestPushforwardCheck:
    """The kernel refuses a density whose quantile and CDF disagree."""

    def test_inconsistent_quantile_refused(self):
        class Skewed(GaussianDensity):
            def quantile(self, u):
                return super().quantile(u) + 0.01

        with pytest.raises(DegeneratePlanError, match="pushforward"):
            transport_cost(Skewed(0.0, 2.0), None, COST_SQ)

    @pytest.mark.parametrize("make", [
        lambda: _SkewedGaussian(0.0, 2.0),
        lambda: _SkewedMixture([(0.3, -1.0, 0.49), (0.7, 1.2, 1.0)]),
    ], ids=["gaussian", "mixture"])
    @pytest.mark.parametrize("bad_first", [True, False], ids=["first", "second"])
    def test_refused_in_either_position(self, make, bad_first):
        bad = make()
        other = TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05])
        pair = (bad, other) if bad_first else (other, bad)
        with pytest.raises(DegeneratePlanError, match="pushforward"):
            monotone_plan(*pair)
        with pytest.raises(DegeneratePlanError, match="pushforward"):
            transport_cost(*pair, COST_ABS)

    @pytest.mark.parametrize("n, shape", [
        (25, TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05])),
        (65, MixtureDensity([(0.5, -2.0, 0.3025), (0.5, 2.0, 0.3025)])),
    ], ids=["unimodal-tilt", "bimodal-mixture"])
    def test_coarse_grid_refusal_names_the_densities(self, n, shape):
        spec = GridSpec(-8.0, 8.0, n)
        coarse = GridDensity(spec, np.log(shape.pdf(spec.nodes())))
        with pytest.raises(DegeneratePlanError) as info:
            transport_cost(coarse, None, COST_SQ)
        message = str(info.value)
        assert "pushforward" in message and "1e-5" in message
        assert repr(coarse) in message and f"n={n}" in message
        assert repr(standard_gaussian()) in message

    def test_non_1d_density_refused(self):
        with pytest.raises(HypothesisError, match="exact transport distances need"):
            transport_cost(bivariate_gaussian_grid(0.0, n_points=33), None, COST_SQ)


class TestClosedForms:
    """Quadratic and absolute costs at Gaussians."""

    @pytest.mark.parametrize("sigma", [0.5, 0.9, 1.1, 2.0])
    def test_w2_squared_scaled(self, sigma):
        got = w2_squared(GaussianDensity(0.0, sigma**2)).value
        np.testing.assert_allclose(got, (sigma - 1.0) ** 2, atol=1e-8)

    def test_w2_squared_shifted_and_scaled(self):
        # affine map: cost = shift^2 + (sigma - 1)^2
        got = w2_squared(GaussianDensity(0.75, 2.25)).value
        np.testing.assert_allclose(got, 0.75**2 + 0.25, atol=1e-8)

    def test_w2_vanishes_at_reference(self):
        assert w2_distance(standard_gaussian()) <= 1e-6

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_w1_scaled(self, sigma):
        got = w1_distance(GaussianDensity(0.0, sigma**2))
        np.testing.assert_allclose(got, abs(sigma - 1.0) * math.sqrt(2.0 / math.pi), atol=1e-8)

    def test_w1_pure_shift(self):
        np.testing.assert_allclose(w1_distance(GaussianDensity(1.3, 1.0)), 1.3, atol=1e-8)

    @pytest.mark.parametrize("mean,var", [(0.3, 0.5), (1.4, 0.3), (-1.2, 3.1), (0.0, 0.25)])
    def test_w1_kink_inside_the_error_bar(self, mean, var):
        # the displacement changes sign between nodes; Simpson alone misses
        # N(0.3, 0.5) by 1.7e-7 there, outside its Richardson estimate
        got = transport_cost(GaussianDensity(mean, var), None, COST_ABS)
        err = abs(got.value - gaussian_w1(mean, var))
        assert err <= 1e-10
        assert err <= got.error_estimate

    @pytest.mark.parametrize("var", [1.0 + 1e-4, 1.0 - 1e-4, 1.0 + 1e-6, 1.0 - 1e-6])
    def test_near_equality_keeps_relative_accuracy(self, var):
        # sigma - 1 without cancellation: var - 1 is exact
        gap = (var - 1.0) / (math.sqrt(var) + 1.0)
        mu = GaussianDensity(0.0, var)
        for cost, exact in ((COST_SQ, gap * gap), (COST_ABS, abs(gap) * math.sqrt(2.0 / math.pi))):
            got = transport_cost(mu, None, cost)
            err = abs(got.value - exact)
            assert err <= 1e-9 * exact, cost.id
            assert err <= got.error_estimate, cost.id

    def test_between_two_gaussians(self):
        a = GaussianDensity(1.0, 4.0)
        b = GaussianDensity(-1.0, 0.25)
        np.testing.assert_allclose(w2_squared(a, b).value, 4.0 + 2.25, atol=1e-7)


class TestAgainstRefinedGrid:
    """Costs of densities without a closed form, against 32768 nodes."""

    MEMBERS = {
        "tilt": lambda: TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05]),
        "mixture": lambda: MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)]),
        "mixture-skew": lambda: MixtureDensity([(0.3, -1.0, 0.49), (0.7, 1.2, 1.0)]),
    }

    @pytest.mark.parametrize("name", sorted(MEMBERS))
    @pytest.mark.parametrize("cost", [COST_SQ, COST_ABS, COST_DELTA], ids=lambda c: c.id)
    def test_within_reported_error(self, name, cost):
        make = self.MEMBERS[name]
        with config.scoped_policy(config.NumericPolicy(grid_points=32768)):
            ref = transport_cost(make(), None, cost).value
        got = transport_cost(make(), None, cost)
        assert abs(got.value - ref) <= got.error_estimate


_TILT = (0.0, 0.0, 0.25, 0.0, 0.05)
_MIX = [(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)]
_SKEW = [(0.3, -1.0, 0.49), (0.7, 1.2, 1.0)]
_PAIRS = {
    "tilt-mixture": (lambda: TiltedDensity(_TILT), lambda: MixtureDensity(_MIX)),
    "skew-shifted_tilt": (lambda: MixtureDensity(_SKEW), lambda: TiltedDensity(_TILT).shifted(0.4)),
    "tilt-shifted_tilt": (lambda: TiltedDensity(_TILT), lambda: TiltedDensity(_TILT).shifted(0.4)),
    "mixture-skew": (lambda: MixtureDensity(_MIX), lambda: MixtureDensity(_SKEW)),
}
_COSTS = (COST_SQ, COST_ABS, COST_DELTA)


def _independent_quantile(density):
    if isinstance(density, MixtureDensity):
        return lambda z: mixture_quantile(density.components, z)
    return TiltQuantile(density.potential_coeffs)


@lru_cache(maxsize=None)
def _reference_costs(pair: str) -> dict[str, float]:
    a, b = (make() for make in _PAIRS[pair])
    values = quantile_space_costs(_independent_quantile(a), _independent_quantile(b), _COSTS)
    return {cost.id: v for cost, v in zip(_COSTS, values)}


class TestBetweenTwoDensities:
    """Costs between two non-Gaussian densities, against quantile-space
    quadrature that reads none of the library's tables."""

    @pytest.mark.parametrize("pair", sorted(_PAIRS))
    @pytest.mark.parametrize("cost", _COSTS, ids=lambda c: c.id)
    def test_within_reported_error(self, pair, cost):
        want = _reference_costs(pair)[cost.id]
        a, b = (make() for make in _PAIRS[pair])
        for target, source in ((a, b), (b, a)):
            got = transport_cost(target, source, cost)
            assert abs(got.value - want) <= got.error_estimate, (repr(target), got)

    @pytest.mark.parametrize("cost", _COSTS, ids=lambda c: c.id)
    def test_gaussian_side_is_the_reference(self, cost):
        # the cost is even, so exactly one Gaussian side gives one map, in
        # either argument order
        gauss = GaussianDensity(0.2, 1.5)
        for other in (MixtureDensity(_SKEW), TiltedDensity(_TILT)):
            one, two = transport_cost(gauss, other, cost), transport_cost(other, gauss, cost)
            assert (one.value, one.error_estimate) == (two.value, two.error_estimate)


def _count_plans(monkeypatch) -> list[str]:
    """Patch monotone_plan under every lsdeficit binding; record the module
    whose binding was called."""
    calls = []
    original = transport.monotone_plan
    for name, module in list(sys.modules.items()):
        if name == "lsdeficit" or name.startswith("lsdeficit."):
            for attr, value in list(vars(module).items()):
                if value is original:

                    def counted(target, source=None, _name=name):
                        calls.append(_name)
                        return original(target, source)

                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestPlanFree:
    """Transport costs build no transport plan."""

    def test_battery_plans_only_for_map_bounds(self, monkeypatch):
        calls = _count_plans(monkeypatch)
        map_bounds = ("cheeger", "talagrand-map")
        certify_suite(standard_battery(), [b for b in BOUND_IDS if b not in map_bounds])
        assert calls == []
        certify_suite(standard_battery(), map_bounds)
        one_d = sum(getattr(mu, "dim", 1) == 1 for _, mu in standard_battery())
        assert calls == ["lsdeficit.bounds"] * one_d

    def test_distance_metrics_build_no_plan(self, monkeypatch, tmp_path):
        calls = _count_plans(monkeypatch)
        spec = tmp_path / "mix.json"
        spec.write_text(json.dumps({"type": "mixture", "components": [
            {"w": 0.4, "mean": -1.0, "var": 0.5}, {"w": 0.6, "mean": 0.8, "var": 1.2}]}))
        out = str(tmp_path / "out.json")
        for metric in cli._METRICS:
            assert cli.main(["distance", "--dist", str(spec), "--metric", metric, "--out", out]) == 0
        assert calls == []
        # a non-Gaussian reference goes through the same kernel, with no plan
        assert cli.main(["distance", "--dist", str(spec), "--ref", str(spec),
                         "--metric", "w1", "--out", out]) == 0
        assert calls == []


class TestGapCostOrdering:
    """The convex-gap cost sits between scaled copies of the absolute cost."""

    def one_d_members(self):
        return [d for _, d in standard_battery() if getattr(d, "dim", 1) == 1]

    def test_chain_on_battery(self):
        for mu in self.one_d_members():
            w1 = w1_distance(mu)
            t_gap = transport_cost(mu, None, COST_DELTA).value
            lower = LINEAR_BAND_CONSTANT * min(w1, w1 * w1)
            assert lower - 1e-9 <= t_gap <= w1 + 1e-9

    def test_scaled_variant_consistent(self):
        mu = GaussianDensity(0.0, 4.0)
        s = math.sqrt(2.0 * math.pi)
        direct = transport_cost(mu, None, cost_delta_scaled(s)).value
        plain = transport_cost(mu, None, COST_DELTA).value
        # the default source is gamma, a unit scale is the plain gap cost,
        # and delta is increasing on [0, inf), so a scale above 1 costs less
        np.testing.assert_allclose(transport_cost(mu, cost=cost_delta_scaled(s)).value, direct, rtol=1e-12)
        np.testing.assert_allclose(transport_cost(mu, None, cost_delta_scaled(1.0)).value, plain, rtol=1e-12)
        assert 0.0 < direct < plain


class TestProductBound:
    """Coordinatewise transport cost for product densities."""

    def test_sums_gaussian_parts(self):
        p = ProductDensity([GaussianDensity(0.0, 4.0), GaussianDensity(0.5, 1.0)])
        got = transport_cost(p)
        np.testing.assert_allclose(got.value, 1.0 + 0.25, atol=1e-7)
        parts = [transport_cost(f) for f in p.factors]
        assert got.value == math.fsum(v.value for v in parts)
        assert got.error_estimate == math.fsum(v.error_estimate for v in parts)
        # against a product source, factor by factor
        moved = ProductDensity([GaussianDensity(0.0, 1.0), GaussianDensity(0.5, 1.0)])
        np.testing.assert_allclose(transport_cost(p, moved).value, 1.0, atol=1e-7)

    def test_rejects_non_product(self):
        # a product target needs a product source of its own dimension
        p = ProductDensity([GaussianDensity(0.0, 4.0), GaussianDensity(0.5, 1.0)])
        for source in (
            standard_gaussian(),
            ProductDensity([standard_gaussian()] * 3),
        ):
            with pytest.raises(HypothesisError, match="equal-dimension product reference"):
                transport_cost(p, source, COST_ABS)
        with pytest.raises(HypothesisError):
            transport_cost(standard_gaussian(), p)


_NO_EXACT_COST = (
    "exact transport distances need one dimensional input, or product input "
    "with a standard Gaussian or equal-dimension product reference"
)
_SHAPE_NAMES = ("1d", "product2", "product3", "grid2d")


def _shapes(side: int) -> dict:
    """One fresh density of each shape, a different one for each side."""
    if side == 0:
        return {
            "1d": MixtureDensity([(0.4, -1.2, 0.6), (0.6, 0.9, 1.1)]),
            "product2": ProductDensity(
                [GaussianDensity(0.3, 0.8), MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)])]
            ),
            "product3": ProductDensity(
                [GaussianDensity(0.3, 0.8), GaussianDensity(-0.2, 1.4),
                 TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05])]
            ),
            "grid2d": bivariate_gaussian_grid(0.4, n_points=33),
        }
    return {
        "1d": TiltedDensity([0.0, 0.3, 0.5, 0.0, 0.02]),
        "product2": ProductDensity(
            [MixtureDensity([(0.3, -1.0, 0.5), (0.7, 1.0, 1.0)]), GaussianDensity(-0.4, 1.3)]
        ),
        "product3": ProductDensity(
            [GaussianDensity(0.1, 1.2), TiltedDensity([0.0, 0.0, 0.5]), GaussianDensity(0.5, 0.6)]
        ),
        "grid2d": bivariate_gaussian_grid(-0.3, var=(0.9, 1.3), n_points=33),
    }


# W2^2 of every pair with an exact cost, (target side, shape, source side,
# shape), as the pair rule's first home computed it
_EXACT_W2SQ = {
    (0, "1d", 1, None): 0.17671854994686803,
    (0, "1d", 1, "1d"): 0.33970740211562306,
    (1, "1d", 0, "1d"): 0.3397074021155114,
    (0, "product2", 1, None): 0.278521238973644,
    (0, "product2", 1, "product2"): 0.42461952110094725,
    (1, "product2", 0, "product2"): 0.42461952110094725,
    (0, "product3", 1, None): 0.17944664673804528,
    (0, "product3", 1, "product3"): 0.45985343467382533,
    (1, "product3", 0, "product3"): 0.45985343467382533,
}


def _orders(target: str, source: str | None) -> list[tuple]:
    """(target side, shape, source side, shape) in both argument orders."""
    return [(0, target, 1, source)] + ([(1, source, 0, target)] if source else [])


def _tables_built(density) -> bool:
    factors = getattr(density, "factors", (density,))
    return any("table" in vars(f) for f in factors)


class TestPairRule:
    """``transport_cost`` alone decides which pairs of shapes have an exact
    cost: 1D with None or 1D, a product with None or a product of equal
    dimension.  Every other pair raises one ``HypothesisError`` in either
    argument order, before any table is built, and ``lsd distance --ref``
    exits 3 on it."""

    @pytest.mark.parametrize("source", (None,) + _SHAPE_NAMES)
    @pytest.mark.parametrize("target", _SHAPE_NAMES)
    def test_library(self, target, source):
        for key in _orders(target, source):
            i, a, j, b = key
            mu, ref = _shapes(i)[a], _shapes(j)[b] if b else None
            if key in _EXACT_W2SQ:
                assert transport_cost(mu, ref, COST_SQ).value == _EXACT_W2SQ[key]
                continue
            with pytest.raises(HypothesisError) as info:
                transport_cost(mu, ref, COST_SQ)
            assert str(info.value) == _NO_EXACT_COST
            assert not _tables_built(mu) and not (ref is not None and _tables_built(ref))

    @pytest.mark.parametrize("source", (None,) + _SHAPE_NAMES)
    @pytest.mark.parametrize("target", _SHAPE_NAMES)
    def test_cli_exits_3(self, target, source, tmp_path, capsys):
        for key in _orders(target, source):
            if key in _EXACT_W2SQ:
                continue
            i, a, j, b = key
            argv = ["distance", "--dist", str(tmp_path / f"{a}.json")]
            (tmp_path / f"{a}.json").write_text(dumps(_shapes(i)[a]))
            if b:
                (tmp_path / f"ref-{b}.json").write_text(dumps(_shapes(j)[b]))
                argv += ["--ref", str(tmp_path / f"ref-{b}.json")]
            for metric in ("w2sq", "w2", "w1", "tdelta"):
                assert cli.main(argv + ["--metric", metric]) == 3, (key, metric)
                assert capsys.readouterr().err == f"error: {_NO_EXACT_COST}\n"


def _table_inputs(log_rows, spec):
    """A row kernel's inputs for rows given as arrays: the tables' score
    step, on the rows' central-difference scores, as its score source, and
    each row's log Simpson mass."""
    shift = log_rows.max(axis=1)
    mass = (np.exp(log_rows - shift[:, None]) * simpson_weights(spec.n_points, spec.step)).sum(axis=1)

    def scores(i0, i1, p):
        return _table_scores(p, np.gradient(log_rows[i0:i1], spec.step, axis=1), spec.step)

    return scores, np.log(mass) + shift


class TestRowFastPath:
    """Vectorised per-row costs agree with the scalar transport route."""

    def test_rows_match_transport_cost(self):
        spec = GridSpec(-10.0, 10.0, 2049)
        nodes = spec.nodes()
        members = [
            GaussianDensity(1.0, 1.0),
            MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)]),
            GaussianDensity(0.0, 0.25),
            standard_gaussian(),
        ]
        log_rows = np.stack([np.asarray(m.log_pdf(nodes)) for m in members])
        costs = (COST_SQ, COST_ABS, COST_DELTA)
        _, rows = costs_to_standard_gaussian_rows(log_rows, spec, costs, 0.0, *_table_inputs(log_rows, spec))
        for cost, arr in zip(costs, rows):
            for j, m in enumerate(members):
                want = transport_cost(m, None, cost).value
                np.testing.assert_allclose(arr[j], want, atol=1e-8)

    def test_row_kinks_each_corrected(self):
        # every row puts the sign change of its displacement at its own y
        spec = GridSpec(-10.0, 10.0, 2049)
        params = [(0.3, 0.5), (1.4, 0.3), (-0.7, 0.6), (0.05, 2.0)]
        log_rows = np.stack([GaussianDensity(m, v).log_pdf(spec.nodes()) for m, v in params])
        _, (w1,) = costs_to_standard_gaussian_rows(log_rows, spec, (COST_ABS,), 0.0, *_table_inputs(log_rows, spec))
        np.testing.assert_allclose(w1, [gaussian_w1(m, v) for m, v in params], rtol=0, atol=1e-9)

    def test_wide_row_limited_by_window(self):
        # a sigma=2 row only reaches 5 sigma on this window; the conditional
        # renormalisation biases the cost by ~3e-5 independent of resolution
        spec = GridSpec(-10.0, 10.0, 4097)
        log_row = np.asarray(GaussianDensity(0.0, 4.0).log_pdf(spec.nodes()))[None, :]
        _, (sq,) = costs_to_standard_gaussian_rows(log_row, spec, (COST_SQ,), 0.0, *_table_inputs(log_row, spec))
        np.testing.assert_allclose(sq[0], 1.0, atol=5e-5)


class TestDiscreteOracle:
    """Monotone matching versus exhaustive search (``discrete_reference``)."""

    def test_single_atoms(self):
        got = monotone_matching_cost([2.0], [1.0], [-1.0], [1.0], COST_SQ)
        np.testing.assert_allclose(got, 9.0, rtol=1e-15)

    def test_two_point_hand_value(self):
        # sorted matching pairs -1<->0 and 1<->2
        got = monotone_matching_cost([-1.0, 1.0], [0.5, 0.5], [0.0, 2.0], [0.5, 0.5], COST_SQ)
        np.testing.assert_allclose(got, 1.0, rtol=1e-15)

    def test_order_invariance(self):
        a = monotone_matching_cost([3.0, -1.0, 0.5], [0.25, 0.5, 0.25], [0.0], [1.0], COST_ABS)
        b = monotone_matching_cost([-1.0, 0.5, 3.0], [0.5, 0.25, 0.25], [0.0], [1.0], COST_ABS)
        np.testing.assert_allclose(a, b, rtol=1e-15)

    @pytest.mark.parametrize("cost", [COST_SQ, COST_ABS, COST_DELTA], ids=lambda c: c.id)
    def test_random_instances_cross_checked(self, cost):
        rng = np.random.default_rng(5)
        for _ in range(40):
            units = int(rng.integers(1, 9))
            a_pts, a_m = random_atoms_with_unit(rng, units)
            b_pts, b_m = random_atoms_with_unit(rng, units)
            val = monotone_matching_cost(a_pts, a_m, b_pts, b_m, cost)
            brute = brute_force_cost(a_pts, a_m, b_pts, b_m, cost)
            assert brute is not None
            assert abs(val - brute) <= 1e-12
            assert math.isfinite(val) and val >= 0.0


def midpoint_atoms(density, k):
    """k equal-mass atoms at the midpoint quantiles u = (i - 1/2) / k."""
    return np.asarray(density.quantile((np.arange(k) + 0.5) / k), dtype=float), np.full(k, 1.0 / k)


class TestQuantileDiscretization:
    """Equal-mass midpoint-quantile atoms against continuous costs."""

    def test_gaussian_symmetry_and_masses(self):
        pts, m = midpoint_atoms(standard_gaussian(), 16)
        np.testing.assert_allclose(math.fsum(m), 1.0, rtol=1e-15)
        np.testing.assert_allclose(pts, -pts[::-1], atol=1e-9)

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_discretized_scaling_costs_exact(self, sigma):
        # quantiles of N(0, sigma^2) are sigma * (gamma quantiles), so the
        # matched costs reduce to moments of the atom vector
        k = 32
        q, m = midpoint_atoms(standard_gaussian(), k)
        qs, _ = midpoint_atoms(GaussianDensity(0.0, sigma**2), k)
        np.testing.assert_allclose(qs, sigma * q, atol=1e-9)
        sq = monotone_matching_cost(qs, m, q, m, COST_SQ)
        np.testing.assert_allclose(sq, (sigma - 1.0) ** 2 * np.mean(q**2), rtol=1e-12)
        ab = monotone_matching_cost(qs, m, q, m, COST_ABS)
        np.testing.assert_allclose(ab, abs(sigma - 1.0) * np.mean(np.abs(q)), rtol=1e-12)

    def test_discrete_shift_cost_matches_continuous(self):
        # pure translation: every coupling moves mass by exactly the shift
        q1, m1 = midpoint_atoms(GaussianDensity(0.8, 1.0), 64)
        q0, m0 = midpoint_atoms(standard_gaussian(), 64)
        got = monotone_matching_cost(q1, m1, q0, m0, COST_ABS)
        np.testing.assert_allclose(got, 0.8, atol=1e-9)
