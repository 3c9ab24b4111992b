"""Row-blocked 2D passes against their whole-grid formulas.

Every 2D integrand and row statistic is built ``quadrature.ROW_BLOCK`` rows
at a time.  Each reduction involved is per row, so the blocked results must
equal, bit for bit, the whole-array formulas kept here as oracles.  A
memory guard holds the blocked passes below a quarter of one whole-grid
float array under ``tracemalloc``.
"""

import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import lsdeficit
from lsdeficit import config, transport
from lsdeficit.battery import BATTERY_LABELS, standard_battery
from lsdeficit.bounds import Workspace, _Stats, evaluate_bound
from lsdeficit.densities import (
    GaussianDensity,
    Grid2DDensity,
    MixtureDensity,
    ProductDensity,
    TiltedDensity,
    _normal_scores,
    _table_tails,
    bivariate_gaussian_grid,
    gaussian_convolve_2d,
)
from lsdeficit.deltafn import delta
from lsdeficit.errors import ArgumentError, IntegrandError, SupportError
from lsdeficit.functionals import (
    fisher_information,
    relative_entropy,
    relative_fisher,
    shannon_entropy,
    total_variation,
)
from lsdeficit.quadrature import (
    ROW_BLOCK,
    GridSpec,
    QuadResult,
    _RICHARDSON,
    _ROUNDOFF,
    _exact_sum,
    _weighted_sum,
    integrate,
    integrate_rows_2d,
    integrate_values_2d,
    row_blocks,
    simpson_weights,
)
from lsdeficit.recentering import decompose_grid2d
from lsdeficit.transport import (
    COST_ABS,
    COST_DELTA,
    COST_SQ,
    _kink_defect,
    costs_to_standard_gaussian_rows,
    monotone_plan,
)


# -- whole-grid oracles ------------------------------------------------------

def _whole_integrate(values, spec_x, spec_y, refine=False):
    """Tensor-product Simpson over the whole node array at once."""
    if not np.isfinite(values).all():
        raise IntegrandError("non-finite integrand")
    wy = simpson_weights(spec_y.n_points, spec_y.step)
    rows = values @ wy
    row_total, mass = _weighted_sum(rows, simpson_weights(spec_x.n_points, spec_x.step))
    floor = _ROUNDOFF * (mass + abs(row_total))
    if not refine:
        return QuadResult(row_total, floor, values.size)
    sub_x = values[::2] if spec_x.n_points % 2 == 1 else values
    sub = sub_x[:, ::2] if spec_y.n_points % 2 == 1 else sub_x
    if sub.shape == values.shape:
        return QuadResult(row_total, floor, values.size)
    cx = GridSpec(spec_x.x_lo, spec_x.x_hi, sub.shape[0])
    cy = GridSpec(spec_y.x_lo, spec_y.x_hi, sub.shape[1])
    coarse = _whole_integrate(sub, cx, cy).value
    return QuadResult(row_total, _RICHARDSON * abs(row_total - coarse) + floor, values.size)


def _whole_scores(mu):
    g = mu.log_values
    return np.gradient(g, mu.spec_x.step, axis=0), np.gradient(g, mu.spec_y.step, axis=1)


def _whole_reference(mu, nu):
    xs = mu.spec_x.nodes()[:, None]
    ys = mu.spec_y.nodes()[None, :]
    std = lambda z: -0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
    if nu is None:
        return std(xs) + std(ys)
    if isinstance(nu, ProductDensity):
        fx, fy = nu.factors
        return np.asarray(fx.log_pdf(xs[:, 0]))[:, None] + np.asarray(fy.log_pdf(ys[0, :]))[None, :]
    pts = np.stack(np.broadcast_arrays(xs, ys), axis=-1).reshape(-1, 2)
    return np.asarray(nu.log_pdf(pts)).reshape(xs.shape[0], ys.shape[1])


def _whole_fisher(mu):
    p = np.exp(mu.log_values)
    gx, gy = _whole_scores(mu)
    live = p >= config.FISHER_DENSITY_FLOOR
    return np.where(live, (gx * gx + gy * gy) * p, 0.0)


def _whole_relative_fisher(mu):
    p = np.exp(mu.log_values)
    gx, gy = _whole_scores(mu)
    xs = mu.spec_x.nodes()[:, None]
    ys = mu.spec_y.nodes()[None, :]
    live = p >= config.FISHER_DENSITY_FLOOR
    return np.where(live, ((gx + xs) ** 2 + (gy + ys) ** 2) * p, 0.0)


def _whole_entropy(mu):
    p = np.exp(mu.log_values)
    return np.where(p >= config.LOG_ZERO_FLOOR, -p * mu.log_values, 0.0)


def _whole_relative_entropy(mu, nu=None):
    log_q = _whole_reference(mu, nu)
    p = np.exp(mu.log_values)
    live = p >= config.LOG_ZERO_FLOOR
    if (live & np.isneginf(log_q)).any():
        raise SupportError("mass where the 2D reference vanishes")
    return np.where(live, p * (mu.log_values - np.where(live, log_q, 0.0)), 0.0)


def _whole_total_variation(mu, nu=None):
    return np.abs(np.exp(mu.log_values) - np.exp(_whole_reference(mu, nu)))


_FUNCTIONALS = {
    "fisher": (fisher_information, _whole_fisher),
    "relative_fisher": (relative_fisher, _whole_relative_fisher),
    "entropy": (shannon_entropy, _whole_entropy),
    "relative_entropy": (relative_entropy, _whole_relative_entropy),
    "total_variation": (total_variation, _whole_total_variation),
}


def _whole_row_stats(mu):
    wy = simpson_weights(mu.spec_y.n_points, mu.spec_y.step)
    shift = mu.log_values.max(axis=1)
    p = np.exp(mu.log_values - shift[:, None])
    mass = (p * wy[None, :]).sum(axis=1)
    first = (p * (wy * mu.spec_y.nodes())[None, :]).sum(axis=1)
    return shift, mass, first


def _whole_verify_eps(mu, eps):
    v = -mu.log_values
    hx, hy = mu.spec_x.step, mu.spec_y.step
    vxx = (v[2:, 1:-1] - 2 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / hx**2
    vyy = (v[1:-1, 2:] - 2 * v[1:-1, 1:-1] + v[1:-1, :-2]) / hy**2
    vxy = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (4 * hx * hy)
    half_tr = 0.5 * (vxx + vyy)
    radius = np.sqrt(0.25 * (vxx - vyy) ** 2 + vxy**2)
    min_eig = float((half_tr - radius).min())
    return eps if min_eig >= eps - 1e-6 else None


def _whole_row_costs(log_rows, spec, costs, offsets):
    rows = np.exp(log_rows - log_rows.max(axis=1, keepdims=True))
    disp = _normal_scores(*_table_tails(rows, spec.step)) - spec.nodes()[None, :]
    disp = disp + np.reshape(offsets, (-1, 1))
    weights = simpson_weights(spec.n_points, spec.step)[None, :]
    norm = rows / (rows * weights).sum(axis=1, keepdims=True)

    def row_costs(cost):
        out = (cost(disp) * norm * weights).sum(axis=1)
        if cost.kink:
            out += _kink_defect(cost.kink * disp * norm, spec.step)[0]
        return out

    return [row_costs(c) for c in costs]


def _whole_d_rows(log_rows, log_mass, spec, offsets):
    w = simpson_weights(spec.n_points, spec.step)
    log_cond = log_rows - log_mass[:, None]
    log_ref = GaussianDensity(0.0, 1.0).log_pdf(spec.nodes()[None, :] - offsets[:, None])
    return ((log_cond - log_ref) * np.exp(log_cond) * w[None, :]).sum(axis=1)


# -- grids -------------------------------------------------------------------

def _quadratic_grid(nx, ny):
    """A correlated Gaussian log density on an nx x ny grid of any parity."""
    sx, sy = GridSpec(-7.0, 7.0, nx), GridSpec(-6.0, 6.5, ny)
    x, y = sx.nodes()[:, None], sy.nodes()[None, :]
    return Grid2DDensity(sx, sy, -0.5 * (x * x + 0.6 * x * y + y * y) / 0.91)


_GRIDS = {
    "513": lambda: bivariate_gaussian_grid(0.5, var=(0.8, 1.6), mean=(0.4, -0.7)),
    "heat-1025": lambda: gaussian_convolve_2d(bivariate_gaussian_grid(0.5), 1.0),
    # a one-row tail, which joins the block before it
    "one-row-tail": lambda: bivariate_gaussian_grid(-0.3, var=(1.2, 0.7), n_points=4 * ROW_BLOCK + 1),
    "three-row-tail": lambda: bivariate_gaussian_grid(0.2, n_points=4 * ROW_BLOCK + 3),
    # even node counts: Richardson halves the odd axis only, or neither
    "even-even": lambda: _quadratic_grid(6 * ROW_BLOCK + 2, 6 * ROW_BLOCK + 4),
    "odd-even": lambda: _quadratic_grid(6 * ROW_BLOCK + 1, 6 * ROW_BLOCK),
    "even-odd": lambda: _quadratic_grid(6 * ROW_BLOCK + 2, 6 * ROW_BLOCK + 1),
}
_CACHE: dict[str, Grid2DDensity] = {}


@pytest.fixture(params=sorted(_GRIDS))
def grid(request):
    if request.param not in _CACHE:
        _CACHE[request.param] = _GRIDS[request.param]()
    return _CACHE[request.param]


def _same(got, want: QuadResult):
    return got.value == want.value and got.error_estimate == want.abs_error_estimate


class TestRowBlocks:
    @pytest.mark.parametrize("n_rows", [16, 31, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3, 513, 1025, 1026])
    def test_blocks_cover_rows_without_a_lone_row(self, n_rows):
        blocks = row_blocks(n_rows)
        assert blocks[0][0] == 0 and blocks[-1][1] == n_rows
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all(i0 % ROW_BLOCK == 0 and i1 - i0 >= 2 for i0, i1 in blocks)

    @pytest.mark.parametrize("shape", [(513, 513), (65, 97), (66, 33), (33, 66), (50, 52)])
    @pytest.mark.parametrize("refine", [False, True])
    def test_whole_array_case_matches_whole_formula(self, shape, refine):
        rng = np.random.default_rng(shape[0] * shape[1])
        values = rng.standard_normal(shape) * np.exp(rng.standard_normal(shape))
        sx, sy = GridSpec(-1.0, 2.0, shape[0]), GridSpec(0.5, 1.5, shape[1])
        assert integrate_values_2d(values, sx, sy, refine) == _whole_integrate(values, sx, sy, refine)
        blocked = integrate_rows_2d(lambda i0, i1: values[i0:i1].copy(), sx, sy, refine)
        assert blocked == _whole_integrate(values, sx, sy, refine)

    def test_non_finite_integrand_names_its_global_node(self):
        sx, sy = GridSpec(0.0, 4.0, 65), GridSpec(0.0, 1.0, 17)
        values = np.ones((65, 17))
        values[2 * ROW_BLOCK + 5, 9] = np.nan
        seen = []

        def block(i0, i1):
            seen.append(i0)
            return values[i0:i1]

        with pytest.raises(IntegrandError) as info:
            integrate_rows_2d(block, sx, sy)
        i = 2 * ROW_BLOCK + 5
        assert f"node ({i}, 9), x={float(sx.nodes()[i])}, y=0.5625" in str(info.value)
        assert seen[-1] == 2 * ROW_BLOCK  # blocks after the bad one are never built

    def test_block_of_wrong_shape_is_refused(self):
        spec = GridSpec(0.0, 1.0, 33)
        with pytest.raises(ArgumentError):
            integrate_rows_2d(lambda i0, i1: np.ones((i1 - i0, 32)), spec, spec)


class TestBlockedPassesMatchWholeGrid:
    @pytest.mark.parametrize("name", sorted(_FUNCTIONALS))
    def test_functional(self, grid, name):
        blocked, whole = _FUNCTIONALS[name]
        want = _whole_integrate(whole(grid), grid.spec_x, grid.spec_y, refine=True)
        assert _same(blocked(grid), want)

    @pytest.mark.parametrize("name", ["relative_entropy", "total_variation"])
    def test_functional_against_a_product_reference(self, grid, name):
        blocked, whole = _FUNCTIONALS[name]
        nu = ProductDensity([GaussianDensity(0.1, 1.2), MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)])])
        want = _whole_integrate(whole(grid, nu), grid.spec_x, grid.spec_y, refine=True)
        assert _same(blocked(grid, nu), want)

    def test_functionals_against_a_grid_reference(self):
        mu = bivariate_gaussian_grid(0.2, n_points=4 * ROW_BLOCK + 1)
        nu = bivariate_gaussian_grid(-0.4, var=(1.5, 1.5), n_points=6 * ROW_BLOCK + 1)
        for name in ("relative_entropy", "total_variation"):
            blocked, whole = _FUNCTIONALS[name]
            assert _same(blocked(mu, nu), _whole_integrate(whole(mu, nu), mu.spec_x, mu.spec_y, True))

    def test_vanishing_grid_reference_raises_support_error(self):
        wide = gaussian_convolve_2d(bivariate_gaussian_grid(0.5, n_points=65), 1.0)
        narrow = bivariate_gaussian_grid(0.5, n_points=65)
        with pytest.raises(SupportError):
            _whole_relative_entropy(wide, narrow)
        with pytest.raises(SupportError, match="2D reference vanishes"):
            relative_entropy(wide, narrow)

    def test_normalisation(self, grid):
        raw = grid.log_values + 3.25
        shift = float(raw.max())
        total = _whole_integrate(np.exp(raw - shift), grid.spec_x, grid.spec_y).value
        rebuilt = Grid2DDensity(grid.spec_x, grid.spec_y, raw)
        assert np.array_equal(rebuilt.log_values, raw - (math.log(total) + shift))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_log_values_refused(self, bad):
        spec = GridSpec(-3.0, 3.0, 4 * ROW_BLOCK + 1)
        log_p = np.zeros((spec.n_points, spec.n_points))
        log_p[3 * ROW_BLOCK + 2, 7] = bad
        with pytest.raises(ArgumentError, match="must be finite"):
            Grid2DDensity(spec, spec, log_p)

    def test_row_stats_and_moments(self, grid):
        fresh = Grid2DDensity(grid.spec_x, grid.spec_y, grid.log_values)
        for got, want in zip(fresh.row_stats, _whole_row_stats(fresh)):
            assert np.array_equal(got, want)
        xs, ys = grid.spec_x.nodes()[:, None], grid.spec_y.nodes()[None, :]
        r2 = (xs * xs + ys * ys) * np.exp(grid.log_values)
        assert grid.second_moment() == _whole_integrate(r2, grid.spec_x, grid.spec_y).value

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.6, 5.0])
    def test_verify_eps(self, grid, eps):
        assert grid._verify_eps(eps) == _whole_verify_eps(grid, eps)

    def test_row_costs(self, grid):
        costs = (COST_SQ, COST_ABS, COST_DELTA)
        for offsets in (0.0, grid.conditional_means()):
            got = costs_to_standard_gaussian_rows(grid.log_values, grid.spec_y, costs, offsets)
            want = _whole_row_costs(grid.log_values, grid.spec_y, costs, offsets)
            assert len(got) == len(want) == 3
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        # one row with a scalar offset, as for the marginal
        marginal = grid.marginal_x()
        one = marginal.log_values[None, :]
        got = costs_to_standard_gaussian_rows(one, marginal.spec, costs, 0.3)
        want = _whole_row_costs(one, marginal.spec, costs, 0.3)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_d_rows(self, grid):
        t1, t2 = float(grid.mean()[0]), grid.conditional_means()
        dec = decompose_grid2d(grid, (COST_SQ,), (t1, t2))
        rows = grid.row_stats
        log_mass = np.log(rows.mass) + rows.shift
        d_rows = _whole_d_rows(grid.log_values, log_mass, grid.spec_y, t2)
        weights = simpson_weights(grid.spec_x.n_points, grid.spec_x.step) * grid.row_marginal()
        assert dec.D_parts[1] == _exact_sum(weights * d_rows)
        # the marginal, normalised on its own grid, as a one-row stack
        marginal = grid.marginal_x()
        d_marginal = _whole_d_rows(marginal.log_values[None, :], np.zeros(1), marginal.spec, np.array([t1]))
        assert dec.D_parts[0] == d_marginal[0]


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryGuard:
    """Each pass stays below a quarter of one whole-grid float array, so its
    temporaries are reused rather than paged in afresh on every call."""

    @pytest.mark.parametrize("name", sorted(_FUNCTIONALS))
    def test_functionals_on_heat_flowed_grid(self, name):
        if "heat-1025" not in _CACHE:
            _CACHE["heat-1025"] = _GRIDS["heat-1025"]()
        mu = _CACHE["heat-1025"]
        assert mu.log_values.shape == (1025, 1025)
        blocked = _FUNCTIONALS[name][0]
        assert _peak_bytes(lambda: blocked(mu)) < mu.log_values.nbytes / 4

    def test_grid2d_row_pass(self):
        mu = _GRIDS["513"]()
        assert mu.log_values.shape == (513, 513)
        assert _peak_bytes(lambda: _Stats(mu)._grid2d_pass()) < mu.log_values.nbytes / 4


# -- the map bounds read the map once per node array ---------------------------

_LAMBDA = math.sqrt(2.0 / math.pi)


def _gamma_integral(fn):
    phi = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    spec = GridSpec(-10.0, 10.0, 4097)
    return integrate(lambda x: np.asarray(fn(x), dtype=float) * phi(x), spec, refine=True).value


def _callable_cheeger(f, f_prime):
    """The cheeger sides with f and f' called afresh for every integral."""
    us = (np.arange(8191) + 0.5) / 8191.0
    vals = np.sort(np.asarray(f(special.ndtri(us)), dtype=float))
    med = float(vals[vals.size // 2])
    return {
        "lhs": _gamma_integral(lambda x: np.abs(f_prime(x))),
        "rhs": _LAMBDA * _gamma_integral(lambda x: np.abs(np.asarray(f(x)) - med)),
        "median": med,
        "delta_form_lhs": _gamma_integral(lambda x: delta(2.0 * np.abs(f_prime(x)) / _LAMBDA)),
        "delta_form_rhs": _gamma_integral(lambda x: delta(np.abs(np.asarray(f(x)) - med))),
    }


_MAP_MEMBERS = [
    MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)]),
    TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05], convexity_lower_bound=0.5),
    GaussianDensity(0.3, 2.0),
]


class TestMapBoundsReadTheMapOnce:
    @pytest.mark.parametrize("mu", _MAP_MEMBERS, ids=["mixture", "tilt", "gaussian"])
    def test_sides_match_callable_form(self, mu):
        plan = monotone_plan(mu)
        want = _callable_cheeger(
            lambda x: np.asarray(plan.map_at(x)) - np.asarray(x, dtype=float),
            lambda x: np.asarray(plan.derivative(x)) - 1.0,
        )
        ws = Workspace()
        cert = evaluate_bound("cheeger", mu, workspace=ws)
        assert (cert.lhs, cert.rhs) == (want["lhs"], want["rhs"])
        for key in ("median", "delta_form_lhs", "delta_form_rhs"):
            assert cert.constants[key] == want[key]
        phi = lambda x: np.exp(-0.5 * np.asarray(x) ** 2) / math.sqrt(2.0 * math.pi)
        gap = integrate(
            lambda x: delta(np.asarray(plan.derivative(x), dtype=float) - 1.0) * phi(x),
            GridSpec(-10.0, 10.0, 4097),
            refine=True,
        ).value
        assert evaluate_bound("talagrand-map", mu, workspace=ws).constants["map_gap_integral"] == gap

    @pytest.mark.parametrize("with_prime", [True, False])
    def test_user_function_matches_callable_form(self, with_prime):
        f = lambda x: np.tanh(np.asarray(x))
        f_prime = (lambda x: 1.0 / np.cosh(np.asarray(x)) ** 2) if with_prime else None
        opts = {"f": f, "f_prime": f_prime} if with_prime else {"f": f}
        h = 1e-6
        fd = lambda x: (np.asarray(f(np.asarray(x) + h)) - np.asarray(f(np.asarray(x) - h))) / (2.0 * h)
        want = _callable_cheeger(f, f_prime or fd)
        cert = evaluate_bound("cheeger", GaussianDensity(0.0, 1.0), opts=opts)
        assert (cert.lhs, cert.rhs, cert.constants["median"]) == (want["lhs"], want["rhs"], want["median"])

    def test_three_map_evaluations_per_member(self, monkeypatch):
        calls = []
        original = transport.TransportPlan1D.map_at

        def counted(self, x):
            calls.append(np.asarray(x).size)
            return original(self, x)

        monkeypatch.setattr(transport.TransportPlan1D, "map_at", counted)
        ws = Workspace()
        mu = _MAP_MEMBERS[1]
        evaluate_bound("cheeger", mu, workspace=ws)
        evaluate_bound("talagrand-map", mu, workspace=ws)
        # the 4097 integration nodes and the 8191 median points; the plan's
        # 20-point pushforward check reads quantiles, not map_at
        assert sorted(calls) == [4097, 8191]


# -- the battery's labels ------------------------------------------------------

def test_battery_labels_match_members():
    assert BATTERY_LABELS == tuple(label for label, _ in standard_battery())
    assert lsdeficit.BATTERY_LABELS is BATTERY_LABELS


def test_import_builds_no_2d_grid():
    probe = (
        "import sys\n"
        "built = []\n"
        "def watch(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name == '__init__' and "
        "type(frame.f_locals.get('self')).__name__ == 'Grid2DDensity':\n"
        "        built.append(1)\n"
        "sys.setprofile(watch)\n"
        "import lsdeficit\n"
        "sys.setprofile(None)\n"
        "assert 'lsdeficit.battery' in sys.modules\n"
        "print(len(built))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(Path(lsdeficit.__file__).parents[1])},
    )
    assert out.stdout.strip() == "0"
