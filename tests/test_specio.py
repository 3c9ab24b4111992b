"""JSON density specs: parse, serialise, round trip, error reporting."""

import json
import math

import numpy as np
import pytest

from lsdeficit.cli import main
from lsdeficit.densities import (
    GaussianDensity,
    Grid2DDensity,
    GridDensity,
    MixtureDensity,
    ProductDensity,
    TiltedDensity,
    bivariate_gaussian_grid,
)
from lsdeficit.errors import SpecParseError
from lsdeficit.quadrature import GridSpec
from lsdeficit.specio import density_to_spec, dumps, loads, parse_density


def _roundtrip(mu):
    return parse_density(json.loads(dumps(mu)))


class TestRoundTrips:
    def test_gaussian(self):
        mu = GaussianDensity(0.5, 2.0)
        back = _roundtrip(mu)
        assert isinstance(back, GaussianDensity)
        assert back.mean() == 0.5 and back.variance() == 2.0

    def test_mixture(self):
        mu = MixtureDensity([(0.3, -1.0, 1.0), (0.7, 2.0, 0.25)])
        back = _roundtrip(mu)
        assert isinstance(back, MixtureDensity)
        x = np.linspace(-4, 5, 33)
        assert np.allclose(back.log_pdf(x), mu.log_pdf(x))

    def test_tilted_keeps_certified_floor(self):
        mu = TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05], convexity_lower_bound=0.5)
        back = _roundtrip(mu)
        assert back.convexity_lower_bound == pytest.approx(0.5)

    def test_grid(self):
        spec = GridSpec(-6.0, 6.0, 257)
        x = spec.nodes()
        mu = GridDensity(spec, -0.5 * x * x - 0.5 * math.log(2 * math.pi))
        back = _roundtrip(mu)
        assert isinstance(back, GridDensity)
        assert np.allclose(back.log_values, mu.log_values)

    def test_product(self):
        mu = ProductDensity([GaussianDensity(0.0, 0.25), GaussianDensity(1.0, 1.0)])
        back = _roundtrip(mu)
        assert isinstance(back, ProductDensity)
        assert back.dim == 2

    def test_grid2d(self):
        mu = bivariate_gaussian_grid(0.5)
        back = _roundtrip(mu)
        assert isinstance(back, Grid2DDensity)
        assert np.allclose(back.log_values, mu.log_values)
        assert back.spec_x == mu.spec_x and back.spec_y == mu.spec_y

    def test_serialisation_deterministic(self):
        mu = MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)])
        assert dumps(mu) == dumps(_roundtrip(mu))


class TestParseErrors:
    def test_unknown_type(self):
        with pytest.raises(SpecParseError, match="type"):
            parse_density({"type": "cauchy", "scale": 1.0})

    def test_missing_field(self):
        with pytest.raises(SpecParseError, match="mean"):
            parse_density({"type": "gaussian", "var": 1.0})

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecParseError, match="sigma"):
            parse_density({"type": "gaussian", "mean": 0, "var": 1, "sigma": 1})

    def test_bool_is_not_a_number(self):
        with pytest.raises(SpecParseError):
            parse_density({"type": "gaussian", "mean": True, "var": 1.0})

    def test_bad_variance_carries_context(self):
        with pytest.raises(SpecParseError, match="var"):
            parse_density({"type": "gaussian", "mean": 0.0, "var": -1.0})

    def test_mixture_weights_checked(self):
        with pytest.raises(SpecParseError):
            parse_density(
                {
                    "type": "mixture",
                    "components": [
                        {"w": 0.5, "mean": 0.0, "var": 1.0},
                        {"w": 0.6, "mean": 1.0, "var": 1.0},
                    ],
                }
            )

    def test_product_factors_must_be_one_d(self):
        grid2d = density_to_spec(bivariate_gaussian_grid(0.0))
        with pytest.raises(SpecParseError):
            parse_density({"type": "product", "factors": [grid2d, grid2d]})

    def test_grid2d_shape_mismatch(self):
        with pytest.raises(SpecParseError):
            parse_density(
                {
                    "type": "grid2d",
                    "x_lo": -1.0,
                    "x_hi": 1.0,
                    "y_lo": -1.0,
                    "y_hi": 1.0,
                    "n_x": 17,
                    "n_y": 17,
                    "log_p": [0.0] * (17 * 16),
                }
            )

    def test_grid2d_nested_rows_match_flat(self):
        mu = Grid2DDensity(
            GridSpec(-2.0, 2.0, 17),
            GridSpec(-1.5, 2.5, 19),
            -0.5 * np.add.outer(np.linspace(-2.0, 2.0, 17) ** 2, np.linspace(-1.5, 2.5, 19) ** 2),
        )
        flat = density_to_spec(mu)
        nested = {k: v for k, v in flat.items() if k not in ("n_x", "n_y")}
        nested["log_p"] = mu.log_values.tolist()
        a, b = parse_density(flat), parse_density(nested)
        assert (a.spec_x, a.spec_y) == (b.spec_x, b.spec_y) == (mu.spec_x, mu.spec_y)
        assert np.array_equal(a.log_values, b.log_values)

    def test_grid2d_unequal_rows_refused(self):
        spec = {"type": "grid2d", "x_lo": -1.0, "x_hi": 1.0, "y_lo": -1.0, "y_hi": 1.0,
                "log_p": [[0.0] * 17] * 16 + [[0.0] * 16]}
        with pytest.raises(SpecParseError, match="log_p rows have unequal lengths"):
            parse_density(spec)

    def test_top_level_must_be_object(self):
        with pytest.raises(SpecParseError):
            loads("[1, 2, 3]")

    def test_invalid_json_text(self):
        with pytest.raises(SpecParseError, match="JSON"):
            loads("{not json")

    @pytest.mark.parametrize("log_p", [5, "0 0 0", None, {"0": 1.0}])
    def test_grid_log_p_must_be_an_array(self, log_p):
        with pytest.raises(SpecParseError, match="'log_p' must be a non-empty array"):
            parse_density({"type": "grid", "x_lo": -1.0, "x_hi": 1.0, "log_p": log_p})

    @pytest.mark.parametrize("n_x,n_y", [(16.5, 16), (16, 15.9), (-16, -16), (0, 17)])
    def test_grid2d_counts_must_be_positive_integers(self, n_x, n_y):
        with pytest.raises(SpecParseError, match="must be a positive integer"):
            parse_density(
                {
                    "type": "grid2d",
                    "x_lo": -1.0,
                    "x_hi": 1.0,
                    "y_lo": -1.0,
                    "y_hi": 1.0,
                    "n_x": n_x,
                    "n_y": n_y,
                    "log_p": [0.0] * 256,
                }
            )

    def test_grid2d_integral_float_counts_accepted(self):
        spec = density_to_spec(bivariate_gaussian_grid(0.5, n_points=17))
        spec["n_x"] = float(spec["n_x"])
        assert parse_density(spec).log_values.shape == (17, 17)

    @pytest.mark.parametrize(
        "item,shown", [(True, "True"), ("0.5", "'0.5'"), (None, "None"), ([0.5], "[0.5]")]
    )
    def test_array_item_messages(self, item, shown):
        coeffs = [0.0, 0.0, 0.25, 0.0, 0.05]
        coeffs[3] = item
        with pytest.raises(SpecParseError) as info:
            parse_density({"type": "tilted", "coeffs": coeffs})
        assert str(info.value) == f"density spec: coeffs[3] must be a number, got {shown}"

    def test_numpy_float_items_accepted(self):
        coeffs = [0.0, 0.0, np.float64(0.25), 0, np.float64(0.05)]
        mu = parse_density({"type": "tilted", "coeffs": coeffs})
        assert mu.potential_coeffs == (0.0, 0.0, 0.25, 0.0, 0.05)

    def test_oversized_integers_named(self):
        huge = 2**1024
        cases = [
            ({"type": "gaussian", "mean": -huge, "var": 1.0}, "'mean' must be finite"),
            ({"type": "grid", "x_lo": -1.0, "x_hi": 1.0, "log_p": [0.0] * 16 + [huge]},
             "log_p[16] must be finite"),
            ({"type": "grid2d", "x_lo": -1.0, "x_hi": 1.0, "y_lo": -1.0, "y_hi": 1.0,
              "n_x": 16, "n_y": huge, "log_p": [0.0] * 256}, "'n_y' must be finite"),
            ({"type": "grid2d", "x_lo": -1.0, "x_hi": 1.0, "y_lo": -1.0, "y_hi": 1.0,
              "log_p": [[0.0] * 16] * 2 + [[0.0] * 15 + [huge]] + [[0.0] * 16] * 13},
             "log_p[2]: row[15] must be finite"),
        ]
        for spec, named in cases:
            with pytest.raises(SpecParseError, match="too large for a float") as info:
                parse_density(spec)
            assert named in str(info.value)
        # the largest integer that rounds to a finite float is still a number
        assert parse_density({"type": "gaussian", "mean": 2**1024 - 2**970 - 1, "var": 1.0}).mean() == (
            1.7976931348623157e308
        )


_SPEC_GRID = GridSpec(-8.0, 8.0, 65)
_SQUARE = bivariate_gaussian_grid(0.5, n_points=17)
# one spec per density type that takes an "eps" claim
_CLAIM_SPECS = {
    "mixture": {
        "type": "mixture",
        "components": [{"w": 0.5, "mean": -0.5, "var": 1.0}, {"w": 0.5, "mean": 0.5, "var": 1.0}],
    },
    "tilted": {"type": "tilted", "coeffs": [0.0, 0.0, 0.25, 0.0, 0.05]},
    "grid": {
        "type": "grid", "x_lo": -8.0, "x_hi": 8.0, "log_p": (-0.5 * _SPEC_GRID.nodes() ** 2).tolist()
    },
    "grid2d": density_to_spec(Grid2DDensity(_SQUARE.spec_x, _SQUARE.spec_y, _SQUARE.log_values)),
}


class TestConstructorRules:
    """A spec's density rules are its constructor's: the refusal is the
    constructor's message under the spec's key path."""

    @pytest.mark.parametrize("claim", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("shape", sorted(_CLAIM_SPECS))
    def test_claim_not_positive_and_finite_refused(self, shape, claim, tmp_path, capsys):
        spec = {**_CLAIM_SPECS[shape], "eps": claim}
        # a non-finite JSON number is refused as a number, before any density
        if math.isfinite(claim):
            message = "convexity lower bound must be positive and finite"
        else:
            message = "'eps' must be finite"
        with pytest.raises(SpecParseError, match=f"^density spec: {message}"):
            parse_density(spec)
        path = tmp_path / "claim.json"
        path.write_text(json.dumps(spec))
        assert main(["distance", "--dist", str(path), "--metric", "kl"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("shape", sorted(_CLAIM_SPECS))
    def test_valid_claim_kept(self, shape):
        assert parse_density(_CLAIM_SPECS[shape]).convexity_lower_bound is None
        assert parse_density({**_CLAIM_SPECS[shape], "eps": 0.5}).convexity_lower_bound == 0.5

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"type": "gaussian", "mean": 0.0, "var": 0.0}, "variance must be positive, got 0.0"),
            ({"type": "product", "factors": []}, "product needs at least two factors"),
            ({"type": "product", "factors": [_CLAIM_SPECS["tilted"]]},
             "product needs at least two factors"),
            ({"type": "product", "factors": [_CLAIM_SPECS["grid2d"]] * 2},
             "product factors must be 1D densities"),
            ({"type": "product", "factors": 2}, "'factors' must be an array"),
        ],
    )
    def test_refusal_names_the_spec(self, spec, message):
        with pytest.raises(SpecParseError) as info:
            parse_density(spec)
        assert str(info.value) == f"density spec: {message}"
