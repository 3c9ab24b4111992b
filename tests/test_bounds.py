"""Certificate engine: registry, equality families, hypothesis gating."""

import math

import numpy as np
import pytest

from lsdeficit import functionals
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
    GaussianDensity,
    Grid2DDensity,
    MixtureDensity,
    ProductDensity,
    TiltedDensity,
    bivariate_gaussian_grid,
    standard_gaussian,
)
from lsdeficit.errors import ArgumentError, HypothesisError, NumericalError

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
            BoundCertificate("x", math.nan, 0.0, 0.0, {}, True, 1e-6)

    def test_rejects_inconsistent_flag(self):
        with pytest.raises(NumericalError):
            BoundCertificate("x", 0.0, 1.0, -1.0, {}, True, 1e-6)

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
    calls = []
    for name in ("gaussian_convolve", "gaussian_convolve_2d"):
        def counted(density, t, _flow=getattr(functionals, name)):
            calls.append(t)
            return _flow(density, t)

        monkeypatch.setattr(functionals, name, counted)
    return calls


class TestHeatFlowMemo:
    """One Workspace runs the heat flow of a density once per time."""

    @pytest.mark.parametrize(
        "mu,flows",
        [
            (MIX2, 1),
            (ProductDensity([GaussianDensity(0.0, 0.25), MIX2]), 2),
            (bivariate_gaussian_grid(0.5), 1),
        ],
        ids=["1d", "product", "grid2d"],
    )
    def test_heat_flow_bounds_share_one_flow(self, monkeypatch, mu, flows):
        calls = _count_heat_flows(monkeypatch)
        ws = Workspace()
        for bid in ("epi", "lem3.2", "lem3.3"):
            try:
                evaluate_bound(bid, mu, workspace=ws)
            except HypothesisError:
                assert isinstance(mu, Grid2DDensity) and bid == "lem3.2"
        assert calls == [1.0] * flows

    def test_new_time_adds_one_flow(self, monkeypatch):
        calls = _count_heat_flows(monkeypatch)
        ws = Workspace()
        for bid in ("epi", "lem3.2", "lem3.3"):
            evaluate_bound(bid, MIX2, workspace=ws)
        evaluate_bound("lem3.2", MIX2, opts={"t": 0.5}, workspace=ws)
        evaluate_bound("lem3.2", MIX2, opts={"t": 0.5}, workspace=ws)
        assert calls == [1.0, 0.5]
