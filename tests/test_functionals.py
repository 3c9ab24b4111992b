"""Information functionals against closed forms and frozen quadrature oracles.

Frozen decimals were produced with scipy.integrate.quad / dblquad on the exact
density formulas, independently of the library's grid quadrature.
"""

import math
from functools import cached_property

import numpy as np
import pytest
from scipy import special

from lsdeficit import functionals
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
from lsdeficit.errors import ArgumentError, InfiniteInformationError, SupportError
from lsdeficit.functionals import (
    _entropy_power,
    de_bruijn_residual,
    entropy_power,
    fisher_information,
    integrals,
    lsi_deficit,
    relative_entropy,
    relative_fisher,
    shannon_entropy,
    total_variation,
)
from lsdeficit.quadrature import GridSpec, integrate_values_2d
from lsdeficit.values import FunctionalValue

TWO_PI_E = 2.0 * math.pi * math.e

# symmetric two-component mixture, unit component variances, means -1 and 1
MIX2 = MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)])
# quad oracles for MIX2 against the standard Gaussian
MIX2_D = 0.16316917965316838
MIX2_I_REL = 0.5504004907933272
MIX2_H = 1.7557693535515042


def gaussian_kl(m1, v1, m2=0.0, v2=1.0):
    return 0.5 * (math.log(v2 / v1) + v1 / v2 - 1.0 + (m1 - m2) ** 2 / v2)


class TestRelativeEntropy:
    """D(mu | nu) on every density type."""

    @pytest.mark.parametrize("sigma", [0.5, 0.9, 1.1, 2.0])
    def test_scaled_gaussian_closed_form(self, sigma):
        mu = GaussianDensity(0.0, sigma**2)
        want = 0.5 * (sigma**2 - 1.0 - 2.0 * math.log(sigma))
        np.testing.assert_allclose(relative_entropy(mu).value, want, atol=1e-9)

    def test_shifted_gaussian_pair(self):
        mu = GaussianDensity(0.3, 2.0)
        nu = GaussianDensity(-0.5, 0.7)
        want = gaussian_kl(0.3, 2.0, -0.5, 0.7)
        np.testing.assert_allclose(relative_entropy(mu, nu).value, want, atol=1e-9)

    def test_zero_at_reference(self):
        assert abs(relative_entropy(standard_gaussian()).value) <= 1e-12

    def test_mixture_oracle(self):
        np.testing.assert_allclose(relative_entropy(MIX2).value, MIX2_D, atol=1e-9)

    def test_product_additivity(self):
        factors = [GaussianDensity(0.0, 0.25), MIX2, GaussianDensity(1.0, 1.0)]
        total = relative_entropy(ProductDensity(factors)).value
        parts = sum(relative_entropy(f).value for f in factors)
        np.testing.assert_allclose(total, parts, atol=1e-12)

    def test_product_needs_matching_product_reference(self):
        p = ProductDensity([standard_gaussian(), standard_gaussian()])
        with pytest.raises(ArgumentError):
            relative_entropy(p, standard_gaussian())
        with pytest.raises(ArgumentError):
            relative_entropy(p, ProductDensity([standard_gaussian()] * 3))

    def test_bivariate_grid_closed_form(self):
        # D(N(0, [[1, rho], [rho, 1]]) | gamma) = -log(1 - rho^2) / 2
        rho = bivariate_gaussian_grid(0.5)
        want = -0.5 * math.log(0.75)
        np.testing.assert_allclose(relative_entropy(rho).value, want, atol=1e-5)

    def test_grid2d_against_product_reference(self):
        rho = bivariate_gaussian_grid(0.0)
        ref = ProductDensity([GaussianDensity(0.0, 1.0), GaussianDensity(0.0, 1.0)])
        np.testing.assert_allclose(relative_entropy(rho, ref).value, 0.0, atol=1e-6)

    def test_support_error_when_reference_vanishes(self):
        spec = GridSpec(-2.0, 2.0, 257)
        ref = GridDensity(spec, -0.5 * spec.nodes() ** 2)
        with pytest.raises(SupportError):
            relative_entropy(standard_gaussian(), ref)

    def test_rejects_non_density(self):
        with pytest.raises(ArgumentError):
            relative_entropy(42.0)


class TestFisherInformation:
    """Plain and relative Fisher information."""

    @pytest.mark.parametrize("sigma", [0.5, 0.9, 1.1, 2.0])
    def test_relative_closed_form(self, sigma):
        mu = GaussianDensity(0.0, sigma**2)
        want = (sigma - 1.0 / sigma) ** 2
        np.testing.assert_allclose(relative_fisher(mu).value, want, atol=1e-8)

    def test_plain_is_inverse_variance(self):
        np.testing.assert_allclose(
            fisher_information(GaussianDensity(0.0, 4.0)).value, 0.25, atol=1e-9
        )

    def test_translate_relative_is_squared_shift(self):
        # score difference is constant m, so I_rel = m^2
        np.testing.assert_allclose(
            relative_fisher(GaussianDensity(1.5, 1.0)).value, 2.25, atol=1e-8
        )

    def test_mixture_oracle(self):
        np.testing.assert_allclose(relative_fisher(MIX2).value, MIX2_I_REL, atol=1e-8)

    def test_integration_by_parts_identity(self):
        # I_rel = I_plain + E|X|^2 - 2n for the standard Gaussian reference
        rng = np.random.default_rng(11)
        for _ in range(5):
            k = rng.integers(2, 5)
            w = rng.dirichlet(np.ones(k))
            comps = [
                (float(w[j]), float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.4, 2.5)))
                for j in range(k)
            ]
            mu = MixtureDensity(comps)
            i_rel = relative_fisher(mu).value
            i_plain = fisher_information(mu).value
            second = mu.second_moment()
            np.testing.assert_allclose(i_rel, i_plain + second - 2.0, atol=1e-7)

    def test_product_sums_coordinates(self):
        p = ProductDensity([GaussianDensity(0.0, 4.0), MIX2])
        want = (2.0 - 0.5) ** 2 + MIX2_I_REL
        np.testing.assert_allclose(relative_fisher(p).value, want, atol=1e-7)

    def test_bivariate_grid_closed_form(self):
        # I_rel = 2 rho^2 / (1 - rho^2)
        rho = bivariate_gaussian_grid(0.5)
        np.testing.assert_allclose(relative_fisher(rho).value, 2.0 / 3.0, atol=1e-5)

    def test_grid2d_rejects_reference(self):
        with pytest.raises(ArgumentError):
            relative_fisher(bivariate_gaussian_grid(0.5), standard_gaussian())

    def test_interior_zero_diverges(self):
        spec = GridSpec(-10.0, 10.0, 2049)
        y = spec.nodes()
        logp = np.maximum(-0.5 * ((y - 6.0) / 0.1) ** 2, -0.5 * ((y + 6.0) / 0.1) ** 2)
        valley = GridDensity(spec, logp)
        with pytest.raises(InfiniteInformationError):
            relative_fisher(valley)
        with pytest.raises(InfiniteInformationError):
            fisher_information(valley)


class TestEntropyAndPower:
    """Shannon entropy and the exp(2h/n) entropy power."""

    def test_standard_gaussian_entropy(self):
        want = 0.5 * math.log(TWO_PI_E)
        np.testing.assert_allclose(shannon_entropy(standard_gaussian()).value, want, atol=1e-9)

    def test_scaling_adds_log_sigma(self):
        h1 = shannon_entropy(standard_gaussian()).value
        h4 = shannon_entropy(GaussianDensity(0.0, 4.0)).value
        np.testing.assert_allclose(h4 - h1, math.log(2.0), atol=1e-9)

    def test_mixture_oracle(self):
        np.testing.assert_allclose(shannon_entropy(MIX2).value, MIX2_H, atol=1e-9)

    def test_entropy_power_gaussians(self):
        np.testing.assert_allclose(
            entropy_power(standard_gaussian()).value, TWO_PI_E, rtol=1e-9
        )
        np.testing.assert_allclose(
            entropy_power(GaussianDensity(0.0, 4.0)).value, 4.0 * TWO_PI_E, rtol=1e-9
        )

    def test_product_entropy_additive_and_power_geometric(self):
        p = ProductDensity([GaussianDensity(0.0, 0.25), standard_gaussian()])
        h = shannon_entropy(p).value
        np.testing.assert_allclose(
            h, math.log(TWO_PI_E) - 0.5 * math.log(4.0), atol=1e-9
        )
        # N = 2 pi e (det Sigma)^(1/n) for Gaussians
        np.testing.assert_allclose(
            entropy_power(p).value, TWO_PI_E * 0.5, rtol=1e-8
        )

    def test_entropy_power_shift_invariant(self):
        a = entropy_power(GaussianDensity(0.0, 1.4)).value
        b = entropy_power(GaussianDensity(2.0, 1.4)).value
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_entropy_power_bar_covers_the_convex_map(self):
        # h = 0 +- 1 in one coordinate puts N = e^(2h) anywhere in
        # [e^-2, e^2]: the bar must reach e^2 - 1, not the slope's 2
        n = _entropy_power(FunctionalValue("h", 0.0, 1.0), 1)
        assert n.value == 1.0
        assert n.error_estimate >= math.e**2 - 1.0


class TestTotalVariation:
    """L1 distance between densities."""

    def test_zero_at_equal(self):
        assert total_variation(standard_gaussian(), None).value <= 1e-10

    def test_symmetry(self):
        a = GaussianDensity(0.0, 4.0)
        b = MIX2
        np.testing.assert_allclose(
            total_variation(a, b).value, total_variation(b, a).value, atol=1e-12
        )

    def test_unit_mean_shift(self):
        # crossing point at 1/2: TV = 2 (2 Phi(1/2) - 1)
        want = 2.0 * (2.0 * special.ndtr(0.5) - 1.0)
        got = total_variation(standard_gaussian(), GaussianDensity(1.0, 1.0)).value
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_far_mean_shift(self):
        # TV = 2 (1 - 2 Phi(-2)), strictly below the ceiling of 2
        want = 2.0 * (1.0 - 2.0 * special.ndtr(-2.0))
        got = total_variation(standard_gaussian(), GaussianDensity(4.0, 1.0)).value
        np.testing.assert_allclose(got, want, atol=1e-4)
        assert got <= 2.0

    def test_wide_gaussian_oracle(self):
        got = total_variation(GaussianDensity(0.0, 4.0), None).value
        np.testing.assert_allclose(got, 0.6453491378366016, atol=1e-5)

    def test_mixture_oracle(self):
        got = total_variation(MIX2, None).value
        np.testing.assert_allclose(got, 0.41348738203529944, atol=1e-5)

    def test_product_shared_factor_cancels(self):
        # TV(p x r, q x r) = TV(p, q); here q x r is the 2D standard Gaussian
        p = ProductDensity([GaussianDensity(0.0, 0.25), standard_gaussian()])
        got = total_variation(p, None).value
        np.testing.assert_allclose(got, 0.6453491378366016, atol=2e-4)

    def test_bivariate_grid_oracle(self):
        # dblquad on the correlated and standard bivariate normal densities
        got = total_variation(bivariate_gaussian_grid(0.5), None).value
        np.testing.assert_allclose(got, 0.369216926666402, atol=1e-4)

    def test_product_restrictions(self):
        p = ProductDensity([standard_gaussian(), standard_gaussian()])
        with pytest.raises(ArgumentError):
            total_variation(p, ProductDensity([GaussianDensity(1.0, 1.0), standard_gaussian()]))
        with pytest.raises(ArgumentError):
            total_variation(ProductDensity([standard_gaussian()] * 3), None)
        with pytest.raises(ArgumentError):
            total_variation(bivariate_gaussian_grid(0.5), standard_gaussian())

    def test_product_reference_refused_before_tabulating(self, monkeypatch):
        p = ProductDensity([standard_gaussian(), standard_gaussian()])
        monkeypatch.setattr(GaussianDensity, "pdf", lambda self, x: pytest.fail("tabulated"))
        with pytest.raises(ArgumentError, match="TV of a 2-factor product takes nu=None; got a 2-factor"):
            total_variation(p, p)


class TestDeficit:
    """Half relative Fisher information minus relative entropy."""

    def test_wide_gaussian(self):
        got = lsi_deficit(GaussianDensity(0.0, 4.0)).value
        np.testing.assert_allclose(got, 0.5 * (0.25 - 1.0 + math.log(4.0)), atol=1e-8)

    def test_narrow_gaussian(self):
        got = lsi_deficit(GaussianDensity(0.0, 0.25)).value
        np.testing.assert_allclose(got, 0.5 * (4.0 - 1.0 - math.log(4.0)), atol=1e-8)

    @pytest.mark.parametrize("shift", [-2.0, 0.5, 1.0])
    def test_translates_sit_at_zero(self, shift):
        assert abs(lsi_deficit(GaussianDensity(shift, 1.0)).value) <= 1e-8

    def test_mixture_combination(self):
        got = lsi_deficit(MIX2).value
        np.testing.assert_allclose(got, 0.5 * MIX2_I_REL - MIX2_D, atol=1e-8)

    def test_nonnegative_on_assorted_densities(self):
        rng = np.random.default_rng(23)
        for _ in range(4):
            comps = [
                (0.5, float(rng.uniform(-1.0, 0.0)), float(rng.uniform(0.5, 2.0))),
                (0.5, float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.5, 2.0))),
            ]
            assert lsi_deficit(MixtureDensity(comps)).value >= -1e-9


_EACH_SHAPE = pytest.mark.parametrize(
    "mu",
    [MIX2, ProductDensity([GaussianDensity(0.0, 0.25), MIX2]), bivariate_gaussian_grid(0.3, n_points=65)],
    ids=["1d", "product", "grid2d"],
)


class TestOneEntry:
    """``integrals`` serves every shape: one call for several names gives,
    name by name, what each public functional gives alone, and a name
    outside the five is refused the same way for each shape."""

    @_EACH_SHAPE
    def test_names_match_the_public_functionals(self, mu):
        public = {
            "D": relative_entropy,
            "I_plain": fisher_information,
            "I_rel": relative_fisher,
            "h": shannon_entropy,
            "TV": total_variation,
        }
        got = integrals(mu, tuple(public))
        assert got == {name: fn(mu) for name, fn in public.items()}
        deficit = lsi_deficit(mu)
        assert deficit.value == 0.5 * got["I_rel"].value - got["D"].value

    @_EACH_SHAPE
    def test_refuses_an_unknown_name(self, mu):
        with pytest.raises(ArgumentError, match="unknown integral 'X'; known: D, I_plain, I_rel, h, TV"):
            integrals(mu, ("D", "X"))

    def test_refuses_an_unknown_shape(self):
        with pytest.raises(ArgumentError, match="unsupported density type float"):
            integrals(1.0, ("D",))


def _rule_subjects() -> dict:
    """A density of each shape the reference rule names, built afresh."""
    mix = MixtureDensity([(0.3, -1.0, 0.5), (0.7, 1.0, 1.0)])
    return {
        "1d": mix,
        "prod2": ProductDensity([GaussianDensity(0.1, 1.1), mix]),
        "prod3": ProductDensity([GaussianDensity(0.1, 1.1), mix, GaussianDensity(-0.2, 0.7)]),
        "grid2d": bivariate_gaussian_grid(0.4, var=(0.9, 1.3), n_points=65),
    }


def _rule_references() -> dict:
    """None and a reference of each shape, other laws than the subjects';
    the 2D grid spans the subject grid's nodes."""
    return {
        None: None,
        "1d": GaussianDensity(0.2, 1.3),
        "prod2": ProductDensity([GaussianDensity(0.0, 1.2), GaussianDensity(0.3, 0.9)]),
        "prod3": ProductDensity(
            [GaussianDensity(0.0, 1.2), GaussianDensity(0.3, 0.9), GaussianDensity(0.0, 0.8)]
        ),
        "grid2d": bivariate_gaussian_grid(0.1, var=(1.5, 1.5), n_points=65),
    }


_RULE_SHAPES = {
    None: "nu=None",
    "1d": "a 1D density",
    "prod2": "a 2-factor product",
    "prod3": "a 3-factor product",
    "grid2d": "a 2D grid",
}

# Every admitted (integral, subject, reference) triple, with its value and
# bar as float.hex, pinned bit for bit; every other triple is refused.
_ADMITTED = {
    ("D", "1d", None): ("0x1.7336d87324841p-3", "0x1.06e499662d448p-47"),
    ("D", "1d", "1d"): ("0x1.b0bb54763b9abp-5", "0x1.1d737c2c4c1f1p-48"),
    ("D", "prod2", None): ("0x1.8241b19870d99p-3", "0x1.356edffadfc2bp-47"),
    ("D", "prod2", "prod2"): ("0x1.3b726af434c77p-3", "0x1.1f761c489cd05p-47"),
    ("D", "prod3", None): ("0x1.e5407342adc45p-3", "0x1.a01d74e3cdec9p-47"),
    ("D", "prod3", "prod3"): ("0x1.77621238a71ebp-3", "0x1.7cb355d4116c5p-47"),
    ("D", "grid2d", None): ("0x1.bd21cea392ecap-4", "0x1.0c68143026085p-16"),
    ("D", "grid2d", "prod2"): ("0x1.8e15d2bd7b2fcp-3", "0x1.02ae8fe44c026p-16"),
    ("D", "grid2d", "grid2d"): ("0x1.153adac9914bcp-3", "0x1.00a6c59ab91c3p-11"),
    ("I_plain", "1d", None): ("0x1.714c41b885da5p-1", "0x1.714c41b885da5p-47"),
    ("I_plain", "prod2", None): ("0x1.a1604f67e5d5ep+0", "0x1.a1604f67e5d5ep-46"),
    ("I_plain", "prod3", None): ("0x1.878b956ace58bp+1", "0x1.878b956ace58bp-45"),
    ("I_plain", "grid2d", None): ("0x1.1e873dc931e88p+1", "0x1.96f7c2b593b69p-14"),
    ("I_rel", "1d", None): ("0x1.247f74ebb90d8p-1", "0x1.247f74ebb90d8p-47"),
    ("I_rel", "1d", "1d"): ("0x1.a6e54988b7fa7p-3", "0x1.a6e54988b7fa7p-49"),
    ("I_rel", "prod2", None): ("0x1.2e45bd881d975p-1", "0x1.2e67dfaa3fb97p-47"),
    ("I_rel", "prod2", "prod2"): ("0x1.38e039ad07b85p-1", "0x1.38e039ad07b85p-47"),
    ("I_rel", "prod3", None): ("0x1.8494bc119fc91p-1", "0x1.84b6de33c1eb3p-47"),
    ("I_rel", "prod3", "prod3"): ("0x1.644df088756f3p-1", "0x1.644df088756f3p-47"),
    ("I_rel", "grid2d", None): ("0x1.c106bb165c10bp-2", "0x1.8055ec37b0fc6p-16"),
    ("h", "1d", None): ("0x1.a9a580018e31fp+0", "0x1.a9a580018e31fp-46"),
    ("h", "prod2", None): ("0x1.908c1700a9258p+1", "0x1.908c1700a9258p-45"),
    ("h", "prod3", None): ("0x1.17ac0d7ead708p+2", "0x1.17ac0d7ead708p-44"),
    ("h", "grid2d", None): ("0x1.6a234c9ad62b0p+1", "0x1.772d067ab780cp-15"),
    ("TV", "1d", None): ("0x1.a9c7ed6be8885p-2", "0x1.187c4c317d41fp-21"),
    ("TV", "1d", "1d"): ("0x1.10da86839059fp-2", "0x1.19b53e4f740edp-20"),
    ("TV", "prod2", None): ("0x1.b3ee9000e40e3p-2", "0x1.164b79ed53620p-13"),
    ("TV", "grid2d", None): ("0x1.2cb82600ebe74p-2", "0x1.977b2b9d627b9p-8"),
    ("TV", "grid2d", "prod2"): ("0x1.8fb057286bcdap-2", "0x1.752f125716060p-10"),
    ("TV", "grid2d", "grid2d"): ("0x1.828389407e1c7p-2", "0x1.acc5d7e484507p-12"),
}


@pytest.fixture
def work(monkeypatch):
    """Counts of 1D tables built and of 1D and 2D quadrature passes run."""
    counts = {"tables": 0, "passes": 0}
    table = Density1D.__dict__["table"].func

    def counted_table(self):
        counts["tables"] += 1
        return table(self)

    spy = cached_property(counted_table)
    spy.__set_name__(Density1D, "table")
    monkeypatch.setattr(Density1D, "table", spy)
    for name in ("integrate", "integrate_rows_2d"):
        run = getattr(functionals, name)

        def counted(*args, run=run, **kwargs):
            counts["passes"] += 1
            return run(*args, **kwargs)

        monkeypatch.setattr(functionals, name, counted)
    return counts


class TestReferenceRule:
    """One rule decides which reference each integral takes on each shape:
    an admitted triple keeps its value and bar bit for bit, and every other
    triple raises one ``ArgumentError`` naming the integral, the shape and
    the references it takes, before any table or quadrature pass."""

    @pytest.mark.parametrize("ref", list(_RULE_SHAPES), ids=str)
    @pytest.mark.parametrize("shape", ["1d", "prod2", "prod3", "grid2d"])
    @pytest.mark.parametrize("name", ["D", "I_plain", "I_rel", "h", "TV"])
    def test_each_triple(self, name, shape, ref, work):
        mu, nu = _rule_subjects()[shape], _rule_references()[ref]
        if (name, shape, ref) in _ADMITTED:
            v = integrals(mu, (name,), nu)[name]
            assert (v.value.hex(), v.error_estimate.hex()) == _ADMITTED[name, shape, ref]
            return
        with pytest.raises(ArgumentError) as refused:
            integrals(mu, (name,), nu)
        message = str(refused.value)
        assert message.startswith(f"{name} of {_RULE_SHAPES[shape]} takes ")
        assert message.endswith(f"; got {_RULE_SHAPES[ref]}")
        assert work == {"tables": 0, "passes": 0}

    def test_mixed_names_refused_before_the_admitted_one_runs(self, work):
        mu, nu = _rule_subjects()["prod2"], _rule_references()["prod2"]
        with pytest.raises(ArgumentError, match="^TV of a 2-factor product takes nu=None; got a 2-factor product$"):
            integrals(mu, ("D", "TV"), nu)
        assert work == {"tables": 0, "passes": 0}


class TestHeatFlowResidual:
    """Entropy derivative along the heat semigroup matches half the information."""

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_gaussian(self, t):
        assert de_bruijn_residual(GaussianDensity(0.0, 4.0), t) <= 1e-3

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_mixture(self, t):
        assert de_bruijn_residual(MIX2, t) <= 1e-3

    def test_product(self):
        p = ProductDensity([GaussianDensity(0.0, 0.25), MIX2])
        assert de_bruijn_residual(p, 1.0) <= 1e-3

    def test_lattice_flow(self):
        # Gaussians and mixtures flow in closed form; a tilt takes the lattice
        assert de_bruijn_residual(TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05]), 1.0) <= 1e-3

    def test_step_validation(self):
        with pytest.raises(ArgumentError):
            de_bruijn_residual([0.0, 1.0], 1.0)
        with pytest.raises(ArgumentError):
            de_bruijn_residual(standard_gaussian(), 0.5, h_step=0.5)
        with pytest.raises(ArgumentError):
            de_bruijn_residual(standard_gaussian(), 1.0, h_step=-0.1)


_FUNCTIONALS_2D = [
    fisher_information,
    relative_fisher,
    shannon_entropy,
    relative_entropy,
    total_variation,
]


class TestSmallGrid2D:
    """The Richardson estimate halves an odd axis, and the halved grid needs
    16 nodes: a 2D functional refuses an odd axis of fewer than 31 nodes
    up front, naming it, rather than returning a value without an error bar."""

    @pytest.mark.parametrize("n", [17, 29])
    @pytest.mark.parametrize("fn", _FUNCTIONALS_2D, ids=lambda f: f.__name__)
    def test_odd_axis_below_31_refused(self, fn, n):
        with pytest.raises(ArgumentError, match=f"x axis has {n} nodes; .* needs 31"):
            fn(bivariate_gaussian_grid(0.2, n_points=n))

    @pytest.mark.parametrize("fn", _FUNCTIONALS_2D, ids=lambda f: f.__name__)
    def test_31_nodes_suffice(self, fn):
        r = fn(bivariate_gaussian_grid(0.2, n_points=31))
        assert math.isfinite(r.value) and r.error_estimate > 0.0

    def test_refusal_names_the_y_axis(self):
        spec_x, spec_y = GridSpec(-1.0, 1.0, 32), GridSpec(-1.0, 1.0, 17)
        values = np.ones((32, 17))
        assert integrate_values_2d(values, spec_x, spec_y).value == pytest.approx(4.0)
        with pytest.raises(ArgumentError, match="y axis has 17 nodes; .* needs 31"):
            integrate_values_2d(values, spec_x, spec_y, refine=True)


# N(0, Sigma) on a 2D grid against its closed forms: Sigma has variances
# (0.8, 1.6) and correlation 0.5, P its inverse
_VAR, _RHO = (0.8, 1.6), 0.5
_COV = np.array([[_VAR[0], _RHO * math.sqrt(_VAR[0] * _VAR[1])], [_RHO * math.sqrt(_VAR[0] * _VAR[1]), _VAR[1]]])
_PREC = np.linalg.inv(_COV)
_LOG_DET = math.log(np.linalg.det(_COV))
_CLOSED_2D = {
    relative_entropy: 0.5 * (np.trace(_COV) - 2.0 - _LOG_DET),
    shannon_entropy: math.log(TWO_PI_E) + 0.5 * _LOG_DET,
    fisher_information: np.trace(_PREC),
    relative_fisher: np.trace(_COV) - 4.0 + np.trace(_PREC),
}


def _gaussian_data_grid(nx: int, ny: int) -> Grid2DDensity:
    """N(0, Sigma) given as data on nx x ny nodes spanning +-10 sd per axis."""
    sx, sy = (GridSpec(-10.0 * math.sqrt(v), 10.0 * math.sqrt(v), n) for v, n in zip(_VAR, (nx, ny)))
    x, y = sx.nodes()[:, None], sy.nodes()[None, :]
    quad_form = _PREC[0, 0] * x * x + 2.0 * _PREC[0, 1] * x * y + _PREC[1, 1] * y * y
    return Grid2DDensity(sx, sy, -0.5 * quad_form - math.log(2.0 * math.pi) - 0.5 * _LOG_DET)


class TestGrid2DBars:
    """A 2D bar holds whatever the parity of each axis: the Richardson rule
    halves an even axis as the 1D rule does (every second node of the
    odd-count head, a trapezoid on the last interval), so a grid with both
    axes even gets a truncation bar, not one of roundoff only."""

    @pytest.mark.parametrize(
        "shape", [(20, 20), (32, 32), (40, 40), (33, 32), (32, 33), (31, 31), (33, 33), (41, 41)],
        ids=lambda s: "x".join(map(str, s)),
    )
    @pytest.mark.parametrize("fn", list(_CLOSED_2D), ids=lambda f: f.__name__)
    def test_data_grid_bar_holds(self, fn, shape):
        r = fn(_gaussian_data_grid(*shape))
        assert abs(r.value - _CLOSED_2D[fn]) <= r.error_estimate

    @pytest.mark.parametrize("n", [20, 32, 40, 31, 33, 41])
    @pytest.mark.parametrize("fn", list(_CLOSED_2D), ids=lambda f: f.__name__)
    def test_law_grid_bar_holds(self, fn, n):
        r = fn(bivariate_gaussian_grid(_RHO, var=_VAR, n_points=n))
        assert abs(r.value - _CLOSED_2D[fn]) <= r.error_estimate

    @pytest.mark.parametrize("n", [20, 32, 40])
    def test_even_grid_bar_is_not_roundoff(self, n):
        # the error itself is 1e-8 at n = 40: a bar of roundoff (1e-14)
        # would not cover it
        law = bivariate_gaussian_grid(_RHO, var=_VAR, n_points=n)
        for mu in (law, _gaussian_data_grid(n, n)):
            assert relative_entropy(mu).error_estimate > 1e-6
