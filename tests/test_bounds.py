"""Certificate engine: registry, equality families, hypothesis gating."""

import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from lsdeficit import bounds, densities, functionals, recentering, transport
from lsdeficit.battery import standard_battery
from lsdeficit.bounds import (
    BOUND_IDS,
    BoundCertificate,
    Workspace,
    certify_suite,
    equality_probe,
    evaluate_bound,
)
from lsdeficit.deltafn import delta
from lsdeficit.densities import (
    Density1D,
    GaussianDensity,
    Grid2DDensity,
    GridDensity,
    MixtureDensity,
    ProductDensity,
    TiltedDensity,
    bivariate_gaussian_grid,
    standard_gaussian,
)
from lsdeficit.errors import ArgumentError, HypothesisError, NumericalError
from lsdeficit.quadrature import GridSpec, integrate_values
from lsdeficit.recentering import tensorise
from lsdeficit.transport import COST_SQ

MIX2 = MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)])
D_G4 = 0.5 * (4.0 - 1.0 - math.log(4.0))


class TestCertificateRecord:
    """The lhs >= rhs record itself."""

    def test_as_dict_shape(self):
        cert = evaluate_bound("lsi", GaussianDensity(0.0, 4.0))
        d = cert.as_dict()
        assert set(d) == {"bound_id", "lhs", "rhs", "slack", "pass", "tol", "constants", "notes"}
        assert d["pass"] is True
        np.testing.assert_allclose(d["slack"], d["lhs"] - d["rhs"], rtol=1e-15)

    def test_rejects_non_finite_sides(self):
        with pytest.raises(NumericalError):
            BoundCertificate("x", math.nan, 0.0, {}, 1e-6)

    def test_pass_rule_boundary(self):
        # slack exactly -tol passes; the next float below it fails
        tol = 1e-6
        at = BoundCertificate("x", 0.0, tol, {}, tol)
        below = BoundCertificate("x", 0.0, math.nextafter(tol, math.inf), {}, tol)
        assert at.slack == -tol and at.passed and at.as_dict()["pass"] is True
        assert below.slack == math.nextafter(-tol, -math.inf)
        assert not below.passed and below.as_dict()["pass"] is False

    def test_registry_size_and_lookup(self):
        assert len(BOUND_IDS) == 25
        with pytest.raises(ArgumentError):
            evaluate_bound("thm9.9", standard_gaussian())

    def test_rejects_unknown_opts(self):
        with pytest.raises(ArgumentError):
            evaluate_bound("lsi", standard_gaussian(), opts={"t": 1.0})
        with pytest.raises(ArgumentError):
            evaluate_bound("thm3-t", standard_gaussian(), opts={"eps": 1.0})

    def test_rejects_bad_tol(self):
        with pytest.raises(ArgumentError):
            evaluate_bound("lsi", standard_gaussian(), tol=-1.0)


class TestEqualityFamilies:
    """Bounds that are exactly tight on Gaussian families."""

    @pytest.mark.parametrize("mean,var", [(0.0, 0.25), (0.0, 4.0), (1.5, 0.64)])
    def test_information_gap_bound_tight_at_gaussians(self, mean, var):
        cert = evaluate_bound("thm1.1-a", GaussianDensity(mean, var))
        assert abs(cert.slack) <= 1e-10

    @pytest.mark.parametrize("mean,var", [(0.0, 0.25), (0.0, 4.0), (-1.0, 2.0)])
    def test_moment_entropy_bound_tight_at_gaussians(self, mean, var):
        cert = evaluate_bound("cor2.2", GaussianDensity(mean, var))
        assert abs(cert.slack) <= 1e-9

    @pytest.mark.parametrize("var", [0.25, 4.0])
    def test_map_form_tight_at_scaled_gaussians(self, var):
        cert = evaluate_bound("talagrand-map", GaussianDensity(0.0, var))
        assert abs(cert.slack) <= 1e-8

    def test_information_product_tight_at_every_gaussian(self):
        for mu in (GaussianDensity(0.7, 2.0), ProductDensity([GaussianDensity(0.0, 3.0)] * 2)):
            cert = evaluate_bound("stam", mu)
            assert abs(cert.slack) <= 1e-9
            np.testing.assert_allclose(cert.rhs, mu.dim if hasattr(mu, "dim") else 1)

    def test_entropy_power_tight_for_gaussian_sum(self):
        cert = evaluate_bound("epi", GaussianDensity(0.0, 4.0))
        assert abs(cert.slack) <= 1e-7

    def test_inverse_information_tight_for_gaussian_sum(self):
        cert = evaluate_bound("lem3.3", GaussianDensity(0.0, 4.0))
        assert abs(cert.slack) <= 1e-9

    @pytest.mark.parametrize("shift", [-2.0, 1.0])
    def test_deficit_vanishes_at_translates(self, shift):
        cert = evaluate_bound("lsi", GaussianDensity(shift, 1.0))
        assert abs(cert.slack) <= 1e-8

    @pytest.mark.parametrize("mean", [(0.0, 0.0), (0.7, -1.3)])
    def test_gaussian_grid_translates_certify_tightly(self, mean):
        # gamma_2 and a translate as Gaussian grids: scores, row maps and
        # means are read off the law, so every applicable bound is tight to
        # roundoff (eq1.4 takes a square root of w2sq_upper, which must be
        # exactly 0 at gamma)
        entries = certify_suite([bivariate_gaussian_grid(0.0, mean=mean)], tol=1e-9)
        certs = {e.bound_id: e.certificate for e in entries if e.certificate is not None}
        assert {"eq1.4", "talagrand", "lsi", "thm1.4"} <= set(certs)
        if mean != (0.0, 0.0):
            # Pinsker is tight only at gamma itself
            assert certs.pop("pinsker").slack > 0.1
        for bound_id, cert in certs.items():
            assert cert.passed and abs(cert.slack) <= 1e-12, bound_id

    def test_heat_flow_time_recovers_interpolated_bound(self):
        ws = Workspace()
        mu = GaussianDensity(0.0, 4.0)
        flowed = evaluate_bound("thm3-t", mu, workspace=ws)
        fixed = evaluate_bound("thm1.1-b", mu, workspace=ws)
        assert flowed.constants["t_source"] == "optimal"
        np.testing.assert_allclose(flowed.rhs, fixed.rhs, atol=1e-9)
        np.testing.assert_allclose(flowed.lhs, fixed.lhs, rtol=1e-12)


class TestFrozenArithmetic:
    """Hand-computed sides on the wide Gaussian."""

    def setup_method(self):
        self.ws = Workspace()
        self.g4 = GaussianDensity(0.0, 4.0)

    def test_quadratic_transport_sides(self):
        cert = evaluate_bound("talagrand", self.g4, workspace=self.ws)
        np.testing.assert_allclose(cert.lhs, 2.0 * D_G4, atol=1e-8)
        np.testing.assert_allclose(cert.rhs, 1.0, atol=1e-7)

    def test_information_transport_sides(self):
        cert = evaluate_bound("eq1.4", self.g4, workspace=self.ws)
        np.testing.assert_allclose(cert.lhs, 1.5, atol=1e-8)
        np.testing.assert_allclose(cert.rhs, 1.0, atol=1e-7)

    def test_interpolated_bound_sides(self):
        # i = 9/4, w = 1: rhs = 1/4 + delta(-1/2)
        cert = evaluate_bound("thm1.1-b", self.g4, workspace=self.ws)
        want_rhs = 0.25 + delta(-0.5)
        np.testing.assert_allclose(cert.rhs, want_rhs, atol=1e-6)
        np.testing.assert_allclose(cert.lhs, 2.25 - 2.0 * D_G4, atol=1e-7)

    def test_total_variation_side(self):
        cert = evaluate_bound("pinsker", self.g4, workspace=self.ws)
        np.testing.assert_allclose(cert.rhs, 0.5 * 0.6453491378366016**2, atol=1e-5)
        assert cert.slack > 0.5

    def test_squared_information_gap(self):
        # moment-gated; w2^2 = 1/4 so rhs = (delta(4)/16) / 16
        cert = evaluate_bound("cor1.2", GaussianDensity(0.0, 0.25), workspace=self.ws)
        np.testing.assert_allclose(cert.rhs, delta(4.0) / 256.0, atol=1e-6)
        np.testing.assert_allclose(cert.constants["c"], 0.14941013047286873, rtol=1e-12)

    def test_free_parameter_variant_at_unit_eps_is_lsi(self):
        a = evaluate_bound("hwi-eps", self.g4, opts={"eps": 1.0}, workspace=self.ws)
        np.testing.assert_allclose(a.lhs, 0.5 * 2.25, atol=1e-8)
        b = evaluate_bound("hwi-eps", self.g4, opts={"eps": 0.5}, workspace=self.ws)
        assert b.passed


class TestHypothesisGating:
    """Preconditions surface as HypothesisError with the hypothesis named."""

    def test_moment_gate(self):
        with pytest.raises(HypothesisError, match="moment hypothesis"):
            evaluate_bound("eq1.8", GaussianDensity(0.0, 4.0))
        assert evaluate_bound("eq1.8", GaussianDensity(0.0, 0.25)).passed

    def test_heat_flow_time_gate(self):
        with pytest.raises(HypothesisError, match="heat-flow time"):
            evaluate_bound("thm3-t", GaussianDensity(1.5, 1.0))
        cert = evaluate_bound("thm3-t", GaussianDensity(1.5, 1.0), opts={"t": 1.0})
        assert cert.constants["t_source"] == "supplied"
        assert cert.passed

    def test_mean_zero_gate(self):
        with pytest.raises(HypothesisError, match="mean-zero"):
            evaluate_bound("thm4.1", GaussianDensity(0.5, 1.0))
        assert evaluate_bound("thm4.1", MIX2).passed

    def test_median_variant_gate(self):
        cert = evaluate_bound("thm4.1", MIX2, opts={"median_variant": True})
        assert cert.constants["variant_constant"] == 1.0
        with pytest.raises(HypothesisError, match="median-zero"):
            evaluate_bound(
                "thm4.1", GaussianDensity(0.5, 1.0), opts={"median_variant": True}
            )

    def test_convexity_gate(self):
        with pytest.raises(HypothesisError, match="convexity hypothesis"):
            evaluate_bound("thm4.2", MIX2)
        assert evaluate_bound("thm4.2", GaussianDensity(0.0, 0.64)).passed

    def test_entropy_smallness_gate(self):
        with pytest.raises(HypothesisError, match="entropy-smallness"):
            evaluate_bound("eq1.12", GaussianDensity(0.0, 9.0))
        assert evaluate_bound("eq1.12", GaussianDensity(0.0, 4.0)).passed

    def test_coupled_grids_refuse_exact_quadratic_cost(self):
        rho = bivariate_gaussian_grid(0.5)
        for bid in ("thm1.1-b", "cor1.2", "hwi", "hwi-eps", "lem3.2", "thm3-t"):
            with pytest.raises(HypothesisError, match="unavailable|undefined"):
                evaluate_bound(bid, rho)

    def test_one_coordinate_only_bounds(self):
        p = ProductDensity([standard_gaussian(), standard_gaussian()])
        for bid in ("cheeger", "thm4.1", "cor4.3", "cor4.4", "thm4.2", "talagrand-map"):
            with pytest.raises(HypothesisError, match="one coordinate only"):
                evaluate_bound(bid, p)

    def test_independent_sum_gate(self):
        p = ProductDensity([standard_gaussian(), standard_gaussian()])
        with pytest.raises(HypothesisError, match="independent-sum"):
            evaluate_bound("epi", p, opts={"other": standard_gaussian()})
        # default second summand works in any dimension
        assert evaluate_bound("epi", p).passed


class TestCenteredForms:
    """Bounds that quotient out translation through recentering."""

    def test_self_improvement_ignores_translation(self):
        ws = Workspace()
        a = evaluate_bound("thm1.3", GaussianDensity(0.0, 4.0), workspace=ws)
        b = evaluate_bound("thm1.3", GaussianDensity(2.0, 4.0), workspace=ws)
        np.testing.assert_allclose(a.slack, b.slack, atol=1e-7)
        assert a.rhs > 0

    def test_first_order_form_ignores_translation(self):
        ws = Workspace()
        a = evaluate_bound("eq1.12", GaussianDensity(0.0, 4.0), workspace=ws)
        b = evaluate_bound("eq1.12", GaussianDensity(-1.0, 4.0), workspace=ws)
        np.testing.assert_allclose(a.slack, b.slack, atol=1e-7)
        assert a.rhs > 0

    def test_gap_bound_on_information_is_translation_invariant(self):
        a = evaluate_bound("thm1.1-a", GaussianDensity(0.0, 2.25))
        b = evaluate_bound("thm1.1-a", GaussianDensity(3.0, 2.25))
        np.testing.assert_allclose(a.slack, b.slack, atol=1e-8)

    def test_convexity_refinement_on_tilted(self):
        # potential x^2/4 + x^4/20 has second derivative >= 1/2
        tilted = TiltedDensity((0.0, 0.0, 0.25, 0.0, 0.05), convexity_lower_bound=0.5)
        centered = tilted.shifted(-tilted.mean())
        cert = evaluate_bound("thm1.4", centered)
        assert cert.constants["eps"] == 0.5
        assert cert.passed

    def test_self_improvement_2d(self):
        cert = evaluate_bound("thm1.3", bivariate_gaussian_grid(0.5))
        assert cert.passed
        assert "per-coordinate" in cert.notes


class TestIsoperimetricComparison:
    """First-order comparison with explicit test functions."""

    def test_identity_function_sides(self):
        cert = evaluate_bound(
            "cheeger",
            standard_gaussian(),
            opts={"f": lambda x: np.asarray(x, dtype=float), "f_prime": lambda x: np.ones_like(np.asarray(x, dtype=float))},
        )
        np.testing.assert_allclose(cert.lhs, 1.0, atol=1e-7)
        np.testing.assert_allclose(cert.rhs, 2.0 / math.pi, atol=1e-7)
        assert cert.constants["delta_form_slack"] >= -1e-9

    def test_steep_sigmoid_approaches_equality(self):
        k = 100.0
        cert = evaluate_bound(
            "cheeger",
            standard_gaussian(),
            opts={
                "f": lambda x: np.tanh(k * np.asarray(x, dtype=float)),
                "f_prime": lambda x: k / np.cosh(np.clip(k * np.asarray(x, dtype=float), -350.0, 350.0)) ** 2,
            },
        )
        assert cert.rhs / cert.lhs > 0.99

    def test_default_function_is_the_map_displacement(self):
        cert = evaluate_bound("cheeger", GaussianDensity(0.0, 4.0))
        # displacement x -> (sigma - 1) x: both sides scale the identity case
        np.testing.assert_allclose(cert.lhs, 1.0, atol=1e-6)
        np.testing.assert_allclose(cert.rhs, 2.0 / math.pi, atol=1e-6)

    @pytest.mark.parametrize("label", ["gauss-narrow", "gauss-sub", "gauss-super", "gauss-wide"])
    def test_map_bounds_exact_at_scaled_gaussians(self, label):
        # T(x) = s x from gamma: T' is the inverse's own slope s, exactly.
        # Each side is then the gamma quadrature of a constant, within an
        # ulp of its closed form: the 4097-node weights carry 1 + 2.2e-16
        mu = dict(standard_battery())[label]
        s = math.sqrt(mu.variance())
        nodes = GridSpec(-10.0, 10.0, 4097).nodes()
        assert np.array_equal(transport.monotone_plan(mu).derivative(nodes), np.full(nodes.size, s))
        phi = np.exp(-0.5 * nodes**2) / math.sqrt(2.0 * math.pi)
        weighted = lambda c: integrate_values(np.full(nodes.size, c) * phi, GridSpec(-10.0, 10.0, 4097)).value
        ws = Workspace()
        cert = evaluate_bound("cheeger", mu, workspace=ws)
        gap = evaluate_bound("talagrand-map", mu, workspace=ws).constants["map_gap_integral"]
        sides = [
            (cert.lhs, abs(s - 1.0)),
            (cert.constants["delta_form_lhs"], delta(2.0 * abs(s - 1.0) / math.sqrt(2.0 / math.pi))),
            (gap, delta(s - 1.0)),
        ]
        for got, closed in sides:
            assert got == weighted(closed)
            assert abs(got - closed) <= math.ulp(closed)

    @pytest.mark.parametrize("label", ["mixture-gap1", "mixture-gap2", "tilted-quartic"])
    def test_map_bounds_read_the_inverse_slope_elsewhere(self, label):
        # from gamma (z = x, slope 1) a non-Gaussian target's T' is its
        # inverse's own slope x'(x), read into the weighted gamma sums bit
        # for bit; weighted by gamma it stays within 1e-8 of the density
        # ratio p_gamma(x) / p(T(x)) (3.4e-9 on the tilt, whose scores come
        # from a CDF table; 1e-13 on the mixtures)
        mu = dict(standard_battery())[label]
        ws = Workspace()
        nodes = GridSpec(-10.0, 10.0, 4097).nodes()
        plan = transport.monotone_plan(mu)
        slope = mu.score_inverse.slope(nodes)
        assert np.array_equal(plan.derivative(nodes), slope)
        ratio = standard_gaussian().pdf(nodes) / mu.pdf(plan.map_at(nodes))
        phi = np.exp(-0.5 * nodes**2) / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(slope - ratio) * phi) < 1e-8
        weighted = lambda v: integrate_values(v * phi, GridSpec(-10.0, 10.0, 4097)).value
        cert = evaluate_bound("cheeger", mu, workspace=ws)
        assert cert.lhs == weighted(np.abs(slope - 1.0))
        gap = evaluate_bound("talagrand-map", mu, workspace=ws).constants["map_gap_integral"]
        assert gap == weighted(delta(slope - 1.0))

    def test_talagrand_map_holds_on_a_smooth_density_given_as_a_grid(self):
        # D = W2^2 / 2 + int delta(T' - 1) dgamma is an identity; read off
        # the grid's own inverse, T' has no interpolation error of p(T)
        spec = GridSpec(-8.0, 8.0, 1025)
        mix = MixtureDensity([(0.3, -1.0, 0.5), (0.7, 1.0, 1.0)])
        mu = GridDensity(spec, mix.log_pdf(spec.nodes()))
        cert = evaluate_bound("talagrand-map", mu, tol=1e-6)
        assert cert.passed
        assert abs(cert.lhs - cert.rhs) < 1e-8

    @pytest.mark.parametrize("label", ["gauss-shift-pos", "gauss-shift-neg"])
    def test_map_bounds_vanish_at_gaussian_translates(self, label):
        # T(x) = m + x with no round trip through Phi: on these translates
        # f = T(x) - x reads m at every node and T' reads 1
        mu = dict(standard_battery())[label]
        ws = Workspace()
        cert = evaluate_bound("cheeger", mu, workspace=ws)
        assert (cert.lhs, cert.rhs, cert.slack) == (0.0, 0.0, 0.0)
        gap = evaluate_bound("talagrand-map", mu, workspace=ws).constants["map_gap_integral"]
        assert gap == 0.0


class TestSuiteAndProbe:
    """Battery-level certification and the equality diagnostic."""

    def test_suite_ordering_and_labels(self):
        battery = [("a", standard_gaussian()), ("b", GaussianDensity(0.0, 0.25))]
        entries = certify_suite(battery, bound_ids=["talagrand", "lsi"])
        keys = [(e.bound_id, e.index) for e in entries]
        assert keys == [("lsi", 0), ("lsi", 1), ("talagrand", 0), ("talagrand", 1)]
        assert [e.label for e in entries] == ["a", "b", "a", "b"]

    def test_bare_densities_get_names(self):
        entries = certify_suite([standard_gaussian()], bound_ids=["lsi"])
        assert entries[0].label == "density0"

    def test_skips_carry_the_hypothesis(self):
        entries = certify_suite([GaussianDensity(0.0, 4.0)], bound_ids=["eq1.8"])
        assert entries[0].certificate is None
        assert entries[0].passed is None
        assert "moment hypothesis" in entries[0].skipped
        assert "skipped" in entries[0].as_dict()

    def test_unknown_id_rejected(self):
        with pytest.raises(ArgumentError):
            certify_suite([standard_gaussian()], bound_ids=["nope"])

    def test_full_battery_no_failures(self):
        entries = certify_suite(standard_battery())
        failed = [e for e in entries if e.passed is False]
        assert failed == []
        assert all(e.certificate.bound_id == e.bound_id for e in entries if e.certificate)
        ran = {e.bound_id for e in entries if e.certificate is not None}
        assert ran == set(BOUND_IDS)

    def test_probe_translate(self):
        out = equality_probe(GaussianDensity(1.0, 1.0))
        assert abs(out["deficit"]) <= 1e-8
        assert out["w2_to_best_translate"] <= 1e-4

    def test_probe_scaled(self):
        out = equality_probe(GaussianDensity(2.0, 4.0))
        np.testing.assert_allclose(out["w2_to_best_translate"], 1.0, atol=1e-6)
        assert out["deficit"] > 0.1

    def test_probe_product(self):
        p = ProductDensity([GaussianDensity(1.0, 4.0), GaussianDensity(0.0, 1.0)])
        out = equality_probe(p)
        np.testing.assert_allclose(out["w2_to_best_translate"], 1.0, atol=1e-6)


def _count_heat_flows(monkeypatch) -> list:
    """(density, t) of every ``heat_flow`` call, on each class defining one."""
    calls = []
    for cls in (
        Density1D,
        GaussianDensity,
        MixtureDensity,
        ProductDensity,
        Grid2DDensity,
        densities._GaussianGrid2D,
    ):
        def counted(density, t, _flow=vars(cls)["heat_flow"]):
            calls.append((density, t))
            return _flow(density, t)

        monkeypatch.setattr(cls, "heat_flow", counted)
    return calls


def _times_flowed(calls: list, mu) -> list:
    """The times at which ``mu`` itself was flowed, after checking that no
    density was flowed twice at one time."""
    assert max(Counter((id(d), t) for d, t in calls).values()) == 1
    return [t for d, t in calls if d is mu]


def _count_lattice_flows(monkeypatch) -> list:
    """Times of every 1D lattice flow (``densities.gaussian_convolve``)."""
    calls = []

    def counted(density, t, _flow=densities.gaussian_convolve):
        calls.append(t)
        return _flow(density, t)

    monkeypatch.setattr(densities, "gaussian_convolve", counted)
    return calls


TILT = TiltedDensity((0.0, 0.0, 0.25, 0.0, 0.05), convexity_lower_bound=0.5)
GRID2D = bivariate_gaussian_grid(0.5)


class TestHeatFlowMemo:
    """One Workspace runs the heat flow of a density once per time."""

    @pytest.mark.parametrize(
        "mu",
        [
            MIX2,
            ProductDensity([GaussianDensity(0.0, 0.25), MIX2]),
            GRID2D,
            Grid2DDensity(GRID2D.spec_x, GRID2D.spec_y, GRID2D.log_values),
        ],
        ids=["1d", "product", "grid2d", "grid2d-data"],
    )
    def test_heat_flow_bounds_share_one_flow(self, monkeypatch, mu):
        calls = _count_heat_flows(monkeypatch)
        ws = Workspace()
        for bid in ("epi", "lem3.2", "lem3.3"):
            try:
                evaluate_bound(bid, mu, workspace=ws)
            except HypothesisError:
                assert isinstance(mu, Grid2DDensity) and bid == "lem3.2"
        assert _times_flowed(calls, mu) == [1.0]
        for factor in getattr(mu, "factors", ()):
            assert _times_flowed(calls, factor) == [1.0]

    def test_new_time_adds_one_flow(self, monkeypatch):
        calls = _count_heat_flows(monkeypatch)
        ws = Workspace()
        for bid in ("epi", "lem3.2", "lem3.3"):
            evaluate_bound(bid, MIX2, workspace=ws)
        evaluate_bound("lem3.2", MIX2, opts={"t": 0.5}, workspace=ws)
        evaluate_bound("lem3.2", MIX2, opts={"t": 0.5}, workspace=ws)
        assert _times_flowed(calls, MIX2) == [1.0, 0.5]

    @pytest.mark.parametrize(
        "mu,lattice_flows",
        [
            (GaussianDensity(0.4, 1.7), 0),
            (MIX2, 0),
            (ProductDensity([GaussianDensity(0.0, 0.25), MIX2]), 0),
            (TILT, 1),
            (ProductDensity([TILT, GaussianDensity(0.5, 1.0)]), 1),
        ],
        ids=["gaussian", "mixture", "product-closed", "tilt", "product-tilt"],
    )
    def test_lattice_flow_only_without_closed_form(self, monkeypatch, mu, lattice_flows):
        calls = _count_lattice_flows(monkeypatch)
        ws = Workspace()
        for bid in ("epi", "lem3.2", "lem3.3"):
            evaluate_bound(bid, mu, workspace=ws)
        assert calls == [1.0] * lattice_flows


def _count_recentering(monkeypatch) -> tuple[list, list]:
    """Count recenter calls, and the rows of every row mapping toward gamma,
    under each name the package binds them to."""
    recenters, rows = [], []
    real = {
        "recenter": recentering.recenter,
        "costs_to_standard_gaussian_rows": transport.costs_to_standard_gaussian_rows,
    }

    def counted_recenter(mu, _real=real["recenter"]):
        recenters.append(mu)
        return _real(mu)

    def counted_rows(log_rows, *args, _real=real["costs_to_standard_gaussian_rows"]):
        rows.append(len(log_rows))
        return _real(log_rows, *args)

    counted = {"recenter": counted_recenter, "costs_to_standard_gaussian_rows": counted_rows}
    for name, module in list(sys.modules.items()):
        if name == "lsdeficit" or name.startswith("lsdeficit."):
            for attr, fn in real.items():
                if getattr(module, attr, None) is fn:
                    monkeypatch.setattr(module, attr, counted[attr])
    return recenters, rows


class TestRecenterFree:
    """The full registry through one Workspace builds no recentered density:
    centered quantities are read against a moved reference.  The rows of a
    2D grid are mapped toward gamma once (and its marginal once)."""

    @pytest.mark.parametrize(
        "mu",
        [
            GaussianDensity(0.3, 2.0),
            ProductDensity([GaussianDensity(0.0, 0.25), MIX2]),
            bivariate_gaussian_grid(0.5, var=(0.8, 1.6), mean=(0.4, -0.7)),
        ],
        ids=["1d", "product", "grid2d"],
    )
    def test_full_registry(self, monkeypatch, mu):
        recenters, rows = _count_recentering(monkeypatch)
        ws = Workspace()
        for bid in BOUND_IDS:
            try:
                evaluate_bound(bid, mu, workspace=ws)
            except HypothesisError:
                pass
        assert recenters == []
        if isinstance(mu, Grid2DDensity):
            assert sorted(rows) == [1, mu.spec_x.n_points]
        else:
            assert rows == []


class TestLem32Shapes:
    """lem3.2 refuses an ``other`` of another shape as a hypothesis (a skip
    in suites); a product of equal dimension is transported factor by factor."""

    PRODUCT = ProductDensity([GaussianDensity(0.0, 0.25), MIX2])

    @pytest.mark.parametrize(
        "mu,other",
        [
            (GaussianDensity(0.2, 1.3), ProductDensity([standard_gaussian()] * 2)),
            (PRODUCT, standard_gaussian()),
            (PRODUCT, ProductDensity([standard_gaussian()] * 3)),
        ],
        ids=["1d-with-product", "product-with-1d", "unequal-dimension"],
    )
    def test_mismatched_other_is_refused(self, mu, other):
        with pytest.raises(HypothesisError, match="pair of shapes"):
            evaluate_bound("lem3.2", mu, opts={"other": other})
        (entry,) = certify_suite([mu], ["lem3.2"], opts={"other": other})
        assert entry.certificate is None and "pair of shapes" in entry.skipped

    def test_product_other(self):
        other = ProductDensity([GaussianDensity(0.1, 1.0), GaussianDensity(-0.2, 1.5)])
        cert = evaluate_bound("lem3.2", self.PRODUCT, opts={"other": other})
        want = math.fsum(
            transport.transport_cost(f, g).value for f, g in zip(self.PRODUCT.factors, other.factors)
        )
        assert cert.lhs == pytest.approx(0.5 * want, rel=1e-15)
        assert cert.passed


def _w2sq_of_moved_grid(mu: Grid2DDensity) -> float:
    """Per-coordinate W2^2 of the grid rigidly moved by -E X: the mean
    translate tensorised directly, against which the translation identity
    is checked."""
    m1, m2 = mu.mean()
    sx, sy = mu.spec_x, mu.spec_y
    moved = Grid2DDensity(
        GridSpec(sx.x_lo - m1, sx.x_hi - m1, sx.n_points),
        GridSpec(sy.x_lo - m2, sy.x_hi - m2, sy.n_points),
        mu.log_values,
    )
    return math.fsum(tensorise(moved, costs=(COST_SQ,)).T_parts)


class TestMeanTranslateCompanion:
    """On 2D grids thm1.4 and equality_probe take W2^2 to the mean translate
    from the translation identity W2^2(mu - m) = W2^2(mu) - |m|^2."""

    @pytest.mark.parametrize(
        "rho,var,mean",
        [
            (0.5, (0.8, 1.6), (0.4, -0.7)),
            (-0.35, (1.7, 0.9), (-0.6, 0.25)),
            (0.2, (1.3, 0.6), (0.9, 0.3)),
        ],
    )
    def test_identity_matches_moved_grid(self, rho, var, mean):
        mu = bivariate_gaussian_grid(rho, var=var, mean=mean)
        want = _w2sq_of_moved_grid(mu)
        bound = 1e-13 * (1.0 + abs(want))
        cert = evaluate_bound("thm1.4", mu)
        assert abs(cert.constants["companion_w2sq_to_mean_translate"] - want) <= bound
        assert abs(equality_probe(mu)["w2_to_best_translate"] ** 2 - want) <= bound
        # marginal N(0, v1) plus rows N(rho s2/s1 x, v2 (1 - rho^2))
        exact = (
            (math.sqrt(var[0]) - 1.0) ** 2
            + rho**2 * var[1]
            + (math.sqrt(var[1] * (1.0 - rho**2)) - 1.0) ** 2
        )
        assert want == pytest.approx(exact, abs=1e-6)


class TestGaussianSummand:
    """epi and lem3.3 with a shifted Gaussian as the second summand."""

    # sides computed by the earlier shifted-flow code, which lem3.3 used;
    # the mixture's lem3.3 lhs is the closed form 1 / I(sum_i w_i N(m_i, 3))
    @pytest.mark.parametrize(
        "mu,other,epi,lem",
        [
            (MIX2, GaussianDensity(0.7, 2.0),
             (68.26472156541094, 67.65871137856493), (3.986598075738806, 3.8168588450178094)),
            (TILT, GaussianDensity(0.7, 2.0),
             (51.33615238037946, 50.97921777872749), (3.004131090766578, 2.906011903723478)),
            (TILT, GaussianDensity(-0.3, 0.5),
             (25.64294150585146, 25.360015110706783), (1.4849330704179196, 1.4060119037234786)),
            (GaussianDensity(0.4, 1.7), GaussianDensity(-0.3, 0.5),
             (37.574830579763706, 37.5748305797637), (2.2, 2.1999999999999997)),
        ],
        ids=["mixture", "tilt", "tilt-narrow", "gaussian"],
    )
    def test_sides_and_one_shared_flow(self, monkeypatch, mu, other, epi, lem):
        calls = _count_heat_flows(monkeypatch)
        ws = Workspace()
        for bid, want in (("epi", epi), ("lem3.3", lem)):
            cert = evaluate_bound(bid, mu, opts={"other": other}, workspace=ws)
            np.testing.assert_allclose((cert.lhs, cert.rhs), want, rtol=1e-12, atol=0)
            assert cert.passed
        assert _times_flowed(calls, mu) == [other.variance()]

    def test_non_gaussian_summand_is_convolved(self):
        other = MixtureDensity([(0.5, -0.5, 0.5), (0.5, 0.5, 0.5)])
        for bid in ("epi", "lem3.3"):
            assert evaluate_bound(bid, GaussianDensity(0.2, 1.3), opts={"other": other}).passed


def test_gaussian_grid_certificates_ignore_blas_threads():
    """A Gaussian grid flows in closed form, with no BLAS product, so its
    heat-flow certificates read the same under any BLAS thread count."""
    probe = (
        "from lsdeficit import bivariate_gaussian_grid, evaluate_bound\n"
        "mu = bivariate_gaussian_grid(0.5)\n"
        "for bid in ('epi', 'lem3.3'):\n"
        "    print(repr(evaluate_bound(bid, mu)))\n"
    )
    src = str(Path(densities.__file__).parents[1])
    outs = [
        subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout
        for threads in ("1", "2")
    ]
    assert outs[0].count("BoundCertificate(") == 2
    assert outs[0] == outs[1]


def test_certificate_digest_unchanged_by_an_earlier_run():
    """The ``certificate_digest`` listing of two members (a mixture and a 2D
    grid given as data), run twice in one process on fresh densities, reads
    the same: one run leaves nothing behind that changes the next."""
    probe = (
        "import certificate_digest as cd\n"
        "pairs = lambda: [cd.standard_battery()[7], cd.data_grids()[0]]\n"
        "print('\\n'.join(cd.listing(pairs()) + ['--'] + cd.listing(pairs())))\n"
    )
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(Path(densities.__file__).parents[1]), str(tests)])
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
    ).stdout
    first, second = out.split("--\n")
    lines = first.splitlines()
    assert len(lines) == 2 * len(BOUND_IDS)
    assert {line.split()[0] for line in lines} == {"mixture-gap2", "grid2d-data"}
    assert all(len(line.split()[2]) == 64 for line in lines)
    assert first == second


def _count_transport(monkeypatch) -> tuple[Counter, Counter]:
    costs, plans = Counter(), Counter()

    def counted_cost(target, source=None, cost=bounds.COST_SQ, _cost=bounds.transport_cost):
        costs[(repr(target), repr(source), cost.id)] += 1
        return _cost(target, source, cost)

    def counted_plan(target, source=None, _plan=bounds.monotone_plan):
        plans[repr(target)] += 1
        return _plan(target, source)

    monkeypatch.setattr(bounds, "transport_cost", counted_cost)
    monkeypatch.setattr(bounds, "monotone_plan", counted_plan)
    return costs, plans


class TestTransportMemo:
    """One Workspace computes each transport cost and plan of a density once."""

    @pytest.mark.parametrize(
        "mu",
        [
            GaussianDensity(0.5, 2.0),
            MIX2,
            ProductDensity([GaussianDensity(0.0, 0.25), MIX2]),
        ],
        ids=["gaussian", "mixture", "product"],
    )
    def test_full_registry_repeats_no_cost(self, monkeypatch, mu):
        costs, plans = _count_transport(monkeypatch)
        ws = Workspace()
        for bid in BOUND_IDS:
            try:
                evaluate_bound(bid, mu, workspace=ws)
            except HypothesisError:
                pass
        assert costs and {k: n for k, n in costs.items() if n > 1} == {}
        assert list(plans.values()) == ([] if isinstance(mu, ProductDensity) else [1])

    def test_refused_scaled_cost_variant_costs_nothing(self, monkeypatch):
        costs, _ = _count_transport(monkeypatch)
        for opts in ({}, {"median_variant": True}):
            with pytest.raises(HypothesisError, match="-zero hypothesis"):
                evaluate_bound("thm4.1", GaussianDensity(1.0, 1.0), opts=opts)
        assert costs == Counter()


_FUNCTIONAL_NAMES = (
    "relative_entropy", "relative_fisher", "fisher_information", "shannon_entropy", "total_variation"
)


class TestFunctionalMemo:
    """One Workspace computes each functional of a density once."""

    @pytest.mark.parametrize(
        "mu",
        [
            GaussianDensity(0.5, 2.0),
            MIX2,
            ProductDensity([GaussianDensity(0.0, 0.25), MIX2]),
        ],
        ids=["gaussian", "mixture", "product"],
    )
    def test_full_registry_computes_each_functional_once(self, monkeypatch, mu):
        # counted under every name a call can go through: the bounds read
        # them from their module, entropy_power reads shannon_entropy from its
        calls = Counter()
        for name in _FUNCTIONAL_NAMES:
            for module in (bounds, functionals):

                def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
                    if args[0] is mu:
                        calls[(_name, repr(args[1:]))] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        ws = Workspace()
        for bid in BOUND_IDS:
            try:
                evaluate_bound(bid, mu, workspace=ws)
            except HypothesisError:
                pass
        assert {name for name, _ in calls} == set(_FUNCTIONAL_NAMES)
        assert {k: n for k, n in calls.items() if n > 1} == {}


class TestPushforwardProbeOnce:
    """One Workspace probes each density object's quantile/CDF round trip
    once: every cost and plan of a density reads one gamma_n, and each
    side's probe is cached on its object."""

    @pytest.mark.parametrize(
        "label", ["gauss-shift-pos", "mixture-gap2", "tilted-quartic", "product-tilted"]
    )
    def test_full_registry_probes_each_density_once(self, monkeypatch, label):
        probed = []
        real = Density1D.quantile
        monkeypatch.setattr(
            Density1D, "quantile", lambda self, u: probed.append(self) or real(self, u)
        )
        mu = dict(standard_battery())[label]
        ws = Workspace()
        for bid in BOUND_IDS:
            try:
                evaluate_bound(bid, mu, workspace=ws)
            except HypothesisError:
                pass
        # the list holds every probed object, so no two share an id
        assert max(Counter(map(id, probed)).values()) == 1
        for side in getattr(mu, "factors", (mu,)):
            assert any(d is side for d in probed)


class TestGammaTables:
    """The map bounds' gamma nodes, phi weights and median quantiles."""

    def test_constants_are_read_only_and_match_their_formulas(self):
        nodes = GridSpec(-10.0, 10.0, 4097).nodes()
        want = {
            "_GAMMA_NODES": nodes,
            "_GAMMA_PHI": np.exp(-0.5 * nodes**2) / math.sqrt(2.0 * math.pi),
            "_GAMMA_QUANTILES": special.ndtri((np.arange(8191) + 0.5) / 8191.0),
        }
        for name, values in want.items():
            got = getattr(bounds, name)
            assert got.tobytes() == values.tobytes(), name
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 0.0
        assert bounds._gamma_points() == (bounds._GAMMA_NODES, bounds._GAMMA_QUANTILES)

    def test_median_is_the_sorted_middle(self):
        rng = np.random.default_rng(5)
        for values in (rng.normal(size=8191), rng.integers(0, 4, size=8191).astype(float)):
            assert bounds._gamma_median(values) == np.sort(values)[values.size // 2]
