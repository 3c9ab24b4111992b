"""Quadrature layer: weights, exactness, error estimates, 2D rule."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsdeficit import densities, quadrature, recentering
from lsdeficit.densities import bivariate_gaussian_grid
from lsdeficit.errors import ArgumentError, IntegrandError
from lsdeficit.quadrature import (
    GridSpec,
    _exact_sum,
    integrate,
    integrate_values,
    integrate_values_2d,
    simpson_weights,
)
from lsdeficit.values import FunctionalValue


class TestGridSpec:
    def test_step_and_nodes(self):
        spec = GridSpec(-1.0, 1.0, 21)
        assert spec.step == pytest.approx(0.1)
        nodes = spec.nodes()
        assert nodes.shape == (21,)
        assert nodes[0] == -1.0 and nodes[-1] == 1.0

    def test_refined_doubles_intervals(self):
        spec = GridSpec(0.0, 1.0, 17)
        fine = spec.refined()
        assert fine.n_points == 33
        # every coarse node survives refinement
        assert np.allclose(fine.nodes()[::2], spec.nodes())

    def test_rejects_bad_bounds(self):
        with pytest.raises(ArgumentError):
            GridSpec(1.0, 1.0, 32)
        with pytest.raises(ArgumentError):
            GridSpec(0.0, math.inf, 32)
        with pytest.raises(ArgumentError):
            GridSpec(0.0, 1.0, 8)


def _simpson_weights_oracle(n_points: int, step: float) -> np.ndarray:
    """The weights built whole on every call, as before the 1-4-2 pattern
    was cached, kept as the oracle."""
    w = np.zeros(n_points)
    if n_points % 2 == 1:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= step / 3.0
    else:
        head = n_points - 3  # odd node count -> even interval count
        w[0] = w[head - 1] = 1.0
        w[1:head - 1:2] = 4.0
        w[2:head - 1:2] = 2.0
        w *= step / 3.0
        w[-4:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * step / 8.0)
    return w


class TestSimpsonWeights:
    @pytest.mark.parametrize("n", [16, 17, 513, 2048, 4096, 4097, 8193])
    def test_cached_pattern_gives_the_direct_construction(self, n):
        for step in (0.25, 1.0 / 3.0, 20.0 / (n - 1), 2.0 * 20.0 / (n - 1)):
            assert simpson_weights(n, step).tobytes() == _simpson_weights_oracle(n, step).tobytes()

    @pytest.mark.parametrize("n", [16, 17])
    def test_returned_weights_are_a_fresh_array(self, n):
        w = simpson_weights(n, 0.5)
        w[:] = -1.0
        assert simpson_weights(n, 0.5).tobytes() == _simpson_weights_oracle(n, 0.5).tobytes()

    def test_total_mass_is_interval_length(self):
        for n in (17, 18, 64, 101):
            w = simpson_weights(n, 0.25)
            assert math.fsum(w.tolist()) == pytest.approx(0.25 * (n - 1), rel=1e-14)

    def test_cubic_exactness_odd_and_even(self):
        # Simpson and the 3/8 tail are both degree-3 exact.
        for n in (33, 34):
            spec = GridSpec(-2.0, 3.0, n)
            x = spec.nodes()
            w = simpson_weights(n, spec.step)
            value = float(w @ (x**3 - 2 * x**2 + x - 5))
            exact = (3.0**4 - (-2.0) ** 4) / 4 - 2 * (3.0**3 - (-2.0) ** 3) / 3 \
                + (3.0**2 - (-2.0) ** 2) / 2 - 5 * 5.0
            assert value == pytest.approx(exact, abs=1e-12)

    def test_fourth_order_convergence(self):
        errs = []
        for n in (33, 65, 129):
            spec = GridSpec(0.0, math.pi, n)
            res = integrate(np.sin, spec)
            errs.append(abs(res.value - 2.0))
        assert errs[0] / errs[1] > 14  # ~16 for an O(h^4) rule
        assert errs[1] / errs[2] > 14


class TestIntegrate:
    def test_gaussian_mass(self):
        spec = GridSpec(-10.0, 10.0, 513)
        res = integrate(lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), spec)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_refine_reports_honest_error(self):
        # the Richardson estimate tracks the real error up to higher order
        spec = GridSpec(0.0, 1.0, 17)
        res = integrate(lambda x: np.exp(x), spec, refine=True)
        true_err = abs(res.value - (math.e - 1.0))
        assert true_err <= 1.05 * res.abs_error_estimate
        assert res.abs_error_estimate < 1e-6

    def test_shape_mismatch_rejected(self):
        spec = GridSpec(0.0, 1.0, 17)
        with pytest.raises(ArgumentError):
            integrate(lambda x: np.zeros(3), spec)

    def test_non_finite_integrand_named(self):
        spec = GridSpec(0.0, 1.0, 17)
        with pytest.raises(IntegrandError, match="node"):
            integrate(lambda x: np.where(x > 0.5, np.nan, 1.0), spec)


class TestIntegrateValues:
    def test_matches_callable_path(self):
        spec = GridSpec(-3.0, 3.0, 129)
        vals = np.cos(spec.nodes())
        a = integrate_values(vals, spec)
        b = integrate(np.cos, spec)
        assert a.value == b.value

    def test_refine_on_stored_values(self):
        spec = GridSpec(0.0, 2.0, 65)
        vals = np.exp(spec.nodes())
        res = integrate_values(vals, spec, refine=True)
        assert abs(res.value - (math.exp(2.0) - 1.0)) <= res.abs_error_estimate

    def test_even_node_count_supported(self):
        spec = GridSpec(0.0, 1.0, 64)
        vals = spec.nodes() ** 2
        res = integrate_values(vals, spec, refine=True)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize("kink", [0.3, -0.51, 0.28125])
    def test_kink_integrated_exactly(self, n, kink):
        # |x - k| is |q| on every panel, q its linear interpolant, so each
        # resolution is exact; 0.28125 is the middle node of a panel at n = 65
        spec = GridSpec(-1.0, 1.0, n)
        f = spec.nodes() - kink
        exact = 0.5 * ((1.0 + kink) ** 2 + (1.0 - kink) ** 2)
        plain = integrate_values(np.abs(f), spec, refine=True)
        res = integrate_values(np.abs(f), spec, refine=True, kinked=f)
        assert res.value == pytest.approx(exact, abs=1e-14)
        assert res.abs_error_estimate < 1e-13
        assert abs(plain.value - exact) > 1e-5  # Simpson's O(h^2) kink error

    def test_kink_error_bar_covers_a_curved_kink(self):
        # |sin(3x)| e^x changes sign at -pi/3, 0 and pi/3
        spec = GridSpec(-1.3, 1.7, 301)
        x = spec.nodes()
        f = np.sin(3.0 * x) * np.exp(x)
        a, b = -1.3, 1.7
        anti = lambda t: np.exp(t) * (np.sin(3.0 * t) - 3.0 * np.cos(3.0 * t)) / 10.0
        cuts = [a, -math.pi / 3.0, 0.0, math.pi / 3.0, b]
        exact = sum(abs(anti(hi) - anti(lo)) for lo, hi in zip(cuts, cuts[1:]))
        plain = integrate_values(np.abs(f), spec, refine=True)
        res = integrate_values(np.abs(f), spec, refine=True, kinked=f)
        assert abs(res.value - exact) <= res.abs_error_estimate
        assert abs(res.value - exact) < 1e-2 * abs(plain.value - exact)


class TestOverflowedTotals:
    """Finite values whose weighted sums overflow integrate to inf with an
    inf error bar: the Richardson difference inf - inf is nan, and no
    result carries a nan bar."""

    SPEC = GridSpec(0.0, 64.0, 33)  # step 2: Simpson weights up to 8/3

    @pytest.mark.parametrize("refine", [False, True])
    def test_stored_values(self, refine):
        values = np.full(self.SPEC.n_points, np.finfo(float).max)
        with np.errstate(over="ignore"):
            res = integrate_values(values, self.SPEC, refine=refine)
        assert (res.value, res.abs_error_estimate) == (math.inf, math.inf)

    @pytest.mark.parametrize("refine", [False, True])
    def test_callable(self, refine):
        biggest = lambda x: np.full(x.shape, np.finfo(float).max)
        with np.errstate(over="ignore"):
            res = integrate(biggest, self.SPEC, refine=refine)
        assert (res.value, res.abs_error_estimate) == (math.inf, math.inf)

    def test_mixed_signs_leave_no_nan_bar(self):
        # sums of +inf and -inf products are nan; the bar still reads inf
        n = self.SPEC.n_points
        signed = lambda x: np.where(x < 40.0, 1.0, -1.0) * np.finfo(float).max
        values = signed(self.SPEC.nodes())
        with np.errstate(over="ignore", invalid="ignore"):
            results = (
                integrate_values(values, self.SPEC, refine=True),
                integrate(signed, self.SPEC, refine=True),
                integrate_values_2d(np.tile(values, (n, 1)), self.SPEC, self.SPEC, refine=True),
            )
        assert [r.abs_error_estimate for r in results] == [math.inf] * 3

    @pytest.mark.parametrize("bad", [math.nan, -5e-324])
    def test_results_refuse_a_bar_that_is_not_nonnegative(self, bad):
        with pytest.raises(ArgumentError, match="must be >= 0"):
            quadrature.QuadResult(0.0, bad, 1)
        with pytest.raises(ArgumentError, match="must be >= 0"):
            FunctionalValue("D", 0.0, bad)


class Test2D:
    def test_separable_product(self):
        sx = GridSpec(-8.0, 8.0, 129)
        sy = GridSpec(-8.0, 8.0, 257)
        x = sx.nodes()[:, None]
        y = sy.nodes()[None, :]
        vals = np.exp(-0.5 * (x * x + y * y)) / (2 * math.pi)
        res = integrate_values_2d(vals, sx, sy)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_polynomial_exactness(self):
        sx = GridSpec(0.0, 1.0, 17)
        sy = GridSpec(0.0, 2.0, 17)
        vals = (sx.nodes()[:, None] ** 3) * (sy.nodes()[None, :] ** 2)
        res = integrate_values_2d(vals, sx, sy)
        assert res.value == pytest.approx(0.25 * (8.0 / 3.0), abs=1e-13)

    def test_shape_checked(self):
        sx = GridSpec(0.0, 1.0, 17)
        sy = GridSpec(0.0, 1.0, 33)
        with pytest.raises(ArgumentError):
            integrate_values_2d(np.zeros((17, 17)), sx, sy)

    def test_nan_location_reported(self):
        sx = GridSpec(0.0, 1.0, 17)
        sy = GridSpec(0.0, 1.0, 17)
        vals = np.ones((17, 17))
        vals[3, 5] = np.inf
        with pytest.raises(IntegrandError):
            integrate_values_2d(vals, sx, sy)


class TestIntegrandErrorText:
    """Node values and coordinates print as plain floats."""

    def test_1d_message(self):
        values = np.ones(17)
        values[4] = np.nan
        with pytest.raises(IntegrandError) as info:
            integrate_values(values, GridSpec(0.0, 1.0, 17))
        assert str(info.value) == "non-finite integrand value nan at node index 4, x=0.25"

    def test_1d_message_with_both_infinities(self):
        # +inf and -inf sum to nan before the scan: no warning, same message
        values = np.ones(17)
        values[[3, 9]] = np.inf, -np.inf
        with pytest.raises(IntegrandError) as info:
            integrate_values(values, GridSpec(0.0, 1.0, 17))
        assert str(info.value) == "non-finite integrand value inf at node index 3, x=0.1875"

    def test_refined_grid_message(self):
        # the only non-finite value sits on a node of the doubled grid
        spec = GridSpec(0.0, 1.0, 17)
        f = lambda x: np.where(x == 0.03125, -np.inf, 1.0)
        with pytest.raises(IntegrandError) as info:
            integrate(f, spec, refine=True)
        assert str(info.value) == "non-finite integrand value -inf at node index 1, x=0.03125"

    def test_2d_message(self):
        vals = np.ones((17, 17))
        vals[6, 10] = -np.inf
        with pytest.raises(IntegrandError) as info:
            integrate_values_2d(vals, GridSpec(-1.0, 1.0, 17), GridSpec(0.0, 1.0, 17))
        assert str(info.value) == "non-finite integrand at node (6, 10), x=-0.25, y=0.625"


def _fsum_weighted_sum(values: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """The summation before the binned kernel, kept as the oracle."""
    prod = values * weights
    total = math.fsum(prod.tolist())
    mass = math.fsum(np.abs(prod).tolist())
    return total, mass


def _fsum(terms) -> float:
    return math.fsum(np.asarray(terms, dtype=float).ravel().tolist())


@pytest.fixture
def fsum_oracle(monkeypatch):
    """Route quadrature, the 2D mean and recentering through ``math.fsum``."""

    def use():
        monkeypatch.setattr(quadrature, "_weighted_sum", _fsum_weighted_sum)
        monkeypatch.setattr(quadrature, "_exact_sum", _fsum)
        monkeypatch.setattr(densities, "_exact_sum", _fsum)
        monkeypatch.setattr(recentering, "_exact_sum", _fsum)

    return use


def _same_bits(a: float, b: float) -> bool:
    return a.hex() == b.hex()


def _gauss_tail(n: int, rng) -> np.ndarray:
    # exp(-x^2 / 2) on [-37, 37] runs from about 1e-298 up to 1
    x = np.linspace(-37.0, 37.0, n)
    return rng.uniform(0.5, 1.0) * np.exp(-0.5 * x * x)


class TestExactSum:
    @pytest.mark.parametrize("n", [1, 2, 4095, 4096, 4097, 8191, 8192, 8193, 16385])
    def test_gaussian_tails(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            x = _gauss_tail(n, rng) * rng.choice([-1.0, 1.0], n)
            assert _same_bits(_exact_sum(x), _fsum(x))

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 8193])
    def test_cancellation_to_exact_zero(self, n):
        rng = np.random.default_rng(100 + n)
        half = rng.standard_normal(n // 2 + 1) * 10.0 ** rng.integers(-300, 300, n // 2 + 1)
        x = np.concatenate((half, -half))
        rng.shuffle(x)
        assert _same_bits(_exact_sum(x), 0.0) and _same_bits(_fsum(x), 0.0)

    def test_subnormals(self):
        rng = np.random.default_rng(5)
        assert _same_bits(_exact_sum(np.array([5e-324])), 5e-324)
        assert _same_bits(_exact_sum(np.array([5e-324] * 3)), 1.5e-323)
        for n in (1, 7, 4097, 9000):
            x = rng.integers(-(2**52), 2**52, n) * 5e-324
            x[::3] = rng.choice([5e-324, -5e-324, 2.2250738585072014e-308], x[::3].size)
            assert _same_bits(_exact_sum(x), _fsum(x))

    def test_huge_pairs_and_mixed_scales(self):
        rng = np.random.default_rng(11)
        for n in (2, 4096, 4097):
            x = rng.choice([1e300, -1e300, 1.0, -1e-300, 5e-324, -0.0], n) * rng.uniform(0.5, 1.0, n)
            assert _same_bits(_exact_sum(x), _fsum(x))
        x = np.array([1e300, 3.0, -1e300, 1e-300, 1e300, -1e300])
        assert _same_bits(_exact_sum(x), _fsum(x))

    def test_signed_zeros_and_empty(self):
        for x in ([], [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0]):
            assert _same_bits(_exact_sum(np.array(x, dtype=float)), math.fsum(x))

    def test_int64_bin_totals_past_2_to_53(self):
        # 2**21 + 1 terms in [4, 8) put their 33-bit integer parts into one
        # bin, whose total passes 2**53, where a float accumulator rounds
        x = np.random.default_rng(3).uniform(4.0, 8.0, 2**21 + 1)
        ulps = (x * 2.0**50).astype(np.int64)  # terms in [4, 8) are multiples of 2**-50
        exact = (int((ulps >> 26).sum()) << 26) + int((ulps & (2**26 - 1)).sum())
        assert _same_bits(_exact_sum(x), exact / 2**50)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    def test_correctly_rounded_exact_sum(self, xs):
        exact = sum(map(Fraction, xs), Fraction(0))
        try:
            want = float(exact)
        except OverflowError:
            with pytest.raises(OverflowError):
                _exact_sum(np.array(xs, dtype=float))
            return
        assert _same_bits(_exact_sum(np.array(xs, dtype=float)), want)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(1e-300, 1e300),
                st.floats(-1e300, -1e-300),
                st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, -2.2250738585072014e-308]),
            ),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from([1, 2, 205, 410]),
        st.integers(0, 2**32 - 1),
    )
    def test_one_pass_gives_fsum_sum_and_mass(self, xs, reps, seed):
        # tiled up to 16400 terms, so sizes cross _SUM_BLOCK
        terms = np.random.default_rng(seed).permutation(np.tile(np.array(xs), reps))
        exact = [reps * sum(map(Fraction, v), Fraction(0)) for v in (xs, map(abs, xs))]
        want = []
        for e in exact:
            try:
                want.append(float(e))
            except OverflowError:
                want.append(None)
        if None in want:
            with pytest.raises(OverflowError):
                quadrature._weighted_sum(terms, np.ones(terms.size))
            return
        total, mass = quadrature._weighted_sum(terms, np.ones(terms.size))
        assert _same_bits(total, want[0]) and _same_bits(mass, want[1])
        assert _same_bits(total, _exact_sum(terms))
        if mass < 1e307:  # no partial sum of math.fsum overflows
            assert _same_bits(total, math.fsum(terms.tolist()))
            assert _same_bits(mass, math.fsum(np.abs(terms).tolist()))

    def test_one_pass_non_finite_terms_follow_ieee(self):
        with np.errstate(invalid="ignore"):
            for x in ([1.0, np.inf], [-np.inf, 1e308], [1.0, np.nan], [np.inf, -np.inf], [-np.inf, 2.0]):
                x = np.array(x)
                total, mass = quadrature._weighted_sum(x, np.ones(x.size))
                np.testing.assert_array_equal([total, mass], [x.sum(), np.abs(x).sum()])

    def test_overflowing_sum_raises(self):
        for x in ([1e308, 1e308], [1.7976931348623157e308, 1e292], [-1e308] * 5):
            with pytest.raises(OverflowError, match="too large"):
                _exact_sum(np.array(x))
            with pytest.raises(OverflowError):
                math.fsum(x)

    def test_intermediate_overflow_is_finite(self):
        x = [1e308, 1e308, -1e308]
        with pytest.raises(OverflowError, match="intermediate overflow"):
            math.fsum(x)
        assert _exact_sum(np.array(x)) == 1e308

    def test_non_finite_terms_follow_ieee(self):
        assert _exact_sum(np.array([1.0, np.inf])) == np.inf
        assert _exact_sum(np.array([-np.inf, 1e308])) == -np.inf
        assert math.isnan(_exact_sum(np.array([1.0, np.nan])))
        with np.errstate(invalid="ignore"):
            assert math.isnan(_exact_sum(np.array([np.inf, -np.inf])))

    @pytest.mark.parametrize("n", [513, 514, 4097, 4096])
    @pytest.mark.parametrize("refine", [False, True])
    def test_integrators_match_fsum_oracle(self, n, refine, fsum_oracle):
        spec = GridSpec(-37.0, 37.0, n)
        sx, sy = GridSpec(-9.0, 9.0, n // 8 + 1), GridSpec(-9.0, 9.0, n // 8)
        f = lambda x: np.exp(-0.5 * x * x) * (1.0 + np.sin(3.0 * x))  # noqa: E731
        values = f(spec.nodes())
        grid = np.exp(-0.5 * (sx.nodes()[:, None] ** 2 + 2.0 * sy.nodes()[None, :] ** 2))

        def run():
            return [
                integrate(f, spec, refine=refine),
                integrate_values(values, spec, refine=refine),
                integrate_values_2d(grid, sx, sy, refine=refine),
                integrate_values_2d(grid.T.copy(), sy, sx, refine=refine),
                integrate_values_2d(grid[:-1, :-1].copy(), GridSpec(-9.0, 9.0 - sx.step, sx.n_points - 1),
                                    GridSpec(-9.0, 9.0 - sy.step, sy.n_points - 1), refine=refine),
            ]

        got = run()
        fsum_oracle()
        want = run()
        for a, b in zip(got, want):
            assert _same_bits(a.value, b.value)
            assert _same_bits(a.abs_error_estimate, b.abs_error_estimate)
            assert a.n_evals == b.n_evals

    def test_recentering_matches_fsum_oracle(self, fsum_oracle):
        mu = bivariate_gaussian_grid(0.5, var=(0.8, 1.2), mean=(0.3, -0.4), n_points=129)
        got_r = recentering.recenter(mu)
        got_t = recentering.tensorise(mu)
        fsum_oracle()
        want_r = recentering.recenter(mu)
        want_t = recentering.tensorise(mu)
        assert _same_bits(got_r.shifts[0], want_r.shifts[0])
        assert np.array_equal(got_r.shifts[1], want_r.shifts[1])
        assert np.array_equal(got_r.recentered.log_values, want_r.recentered.log_values)
        assert got_t == want_t

    def test_richardson_passes_skip_the_mass(self, monkeypatch):
        passes, masses = [], []
        binned, weighted = quadrature._binned_sums, quadrature._weighted_sum
        monkeypatch.setattr(quadrature, "_binned_sums", lambda x: passes.append(x.size) or binned(x))
        monkeypatch.setattr(
            quadrature, "_weighted_sum", lambda v, w: masses.append(v.size) or weighted(v, w)
        )
        spec = GridSpec(0.0, 1.0, 65)
        integrate(np.exp, spec, refine=True)
        assert passes == [65, 129]  # total and mass in one pass, doubled-grid total
        assert masses == [65]
        passes.clear()
        masses.clear()
        integrate_values(np.exp(spec.nodes()), spec, refine=True)
        assert passes == [65, 33]  # total and mass in one pass, half-grid total
        assert masses == [65]

    def test_nodes_built_only_for_the_error_message(self, monkeypatch):
        spec = GridSpec(0.0, 1.0, 17)
        built = []
        nodes = GridSpec.nodes
        monkeypatch.setattr(GridSpec, "nodes", lambda self: built.append(self) or nodes(self))
        integrate_values(np.ones(17), spec, refine=True)
        assert built == []
        values = np.ones(17)
        values[4] = np.nan
        with pytest.raises(IntegrandError, match=r"node index 4, x=\S*0\.25"):
            integrate_values(values, spec)
        assert built == [spec]
