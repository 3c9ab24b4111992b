"""Row-blocked 2D passes against their whole-grid formulas.

Every 2D integrand and row statistic is built ``quadrature.ROW_BLOCK`` rows
at a time.  Each reduction involved is per row, so the blocked results must
equal, bit for bit, the whole-array formulas kept here as oracles, whose
weighted row sums are the whole-array matvec as one BLAS thread computes
it (``_row_dots``): so must the stacked information pass (``functionals._grid2d_integrals``) for each of
its integrands, and the row kernel's kink panels, priced once per row stack,
must equal the per-block kink correction (``_kink_defect`` below).  A memory
guard holds the blocked passes below a quarter of one whole-grid float array
under ``tracemalloc``, and a grid's build near its one whole-grid array: a
Gaussian tabulation below 1.25 of it, a lattice flow below 1.75.
"""

import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import lsdeficit
from lsdeficit import bounds, config, densities, functionals, specio, transport
from lsdeficit.battery import BATTERY_LABELS, standard_battery
from lsdeficit.bounds import Workspace, _Stats, certify_suite, evaluate_bound
from lsdeficit.densities import (
    GaussianDensity,
    Grid2DDensity,
    MixtureDensity,
    ProductDensity,
    TiltedDensity,
    _normal_scores,
    _table_scores,
    _table_tails,
    bivariate_gaussian_grid,
    gaussian_convolve_2d,
)
from lsdeficit.deltafn import delta
from lsdeficit.errors import ArgumentError, IntegrandError, SupportError
from lsdeficit.functionals import (
    _GRID2D_NAMES,
    _grid2d_integrals,
    fisher_information,
    lsi_deficit,
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
    _abs_integral,
    _exact_sum,
    _exact_sums,
    _kink_panels,
    _kink_price,
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
    costs_to_standard_gaussian_rows,
    monotone_plan,
)


# -- whole-grid oracles ------------------------------------------------------

def _row_dots(a, w):
    """The whole-array row dots ``a @ w`` as one BLAS thread computes them:
    a matvec of every four rows, the last four taking the one to three rows
    left over.  A threaded matvec splits the rows where it likes, and a row
    that falls outside a group of four there moves in its last bits."""
    starts = list(range(0, max(a.shape[0] - 3, 1), 4))
    return np.concatenate([a[i0:i1] @ w for i0, i1 in zip(starts, starts[1:] + [a.shape[0]])])


def _whole_integrate(values, spec_x, spec_y, refine=False):
    """Tensor-product Simpson over the whole node array at once."""
    if not np.isfinite(values).all():
        raise IntegrandError("non-finite integrand")
    wy = simpson_weights(spec_y.n_points, spec_y.step)
    rows = _row_dots(values, wy)
    row_total, mass = _exact_sums(rows * simpson_weights(spec_x.n_points, spec_x.step))
    floor = _ROUNDOFF * (mass + abs(row_total))
    if not refine:
        return QuadResult(row_total, floor, values.size)
    # the half-resolution rule along y on every row, then along x
    coarse_rows = _whole_halved(values, spec_y.step)
    coarse = float(_whole_halved(coarse_rows[None, :], spec_x.step, _exact_sum)[0])
    return QuadResult(row_total, _RICHARDSON * abs(row_total - coarse) + floor, values.size)


def _whole_halved(a, step, dots=None):
    """The half-resolution rule along the last axis of ``a``, per row:
    Simpson of step 2h on every second node of the odd-count head, plus a
    trapezoid on the last interval when the axis has an even node count.
    ``dots(terms)`` sums the weighted head of one row (default: the row
    dots of the whole array)."""
    n = a.shape[-1]
    head = a[:, ::2] if n % 2 == 1 else a[:, :-1:2]
    w = simpson_weights(head.shape[-1], 2.0 * step)
    out = _row_dots(head, w) if dots is None else np.array([dots(row * w) for row in head])
    if n % 2 == 0:
        out += 0.5 * step * (a[:, -2] + a[:, -1])
    return out


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
    ys = mu.spec_y.nodes()
    shift = mu.log_values.max(axis=1)
    p = np.exp(mu.log_values - shift[:, None])
    mass = _row_dots(p, wy)
    first = _row_dots(p, wy * ys)
    second = _row_dots(p, wy * ys * ys)
    return shift, mass, first, second


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


def _kink_defect(f, step):
    """Simpson's kink error for |f| per row of ``f``, located and priced in
    one call on the whole array: the reference that panels priced per row
    stack must match bit for bit."""
    f = np.atleast_2d(f)
    n = f.shape[-1]
    head = n if n % 2 == 1 else n - 3
    sign = np.signbit(f)
    s0, s1, s2 = sign[:, 0 : head - 2 : 2], sign[:, 1 : head - 1 : 2], sign[:, 2:head:2]
    rows, panels = np.nonzero((s0 != s1) | (s1 != s2))
    if rows.size == 0:
        zero = np.zeros(f.shape[0])
        return zero, zero
    start = 2 * panels
    a0, a1, a2 = f[rows, start], f[rows, start + 1], f[rows, start + 2]
    after = start + 3 < n
    t3 = np.where(after, 3.0, -1.0)
    a3 = f[rows, np.where(after, start + 3, start - 1)]
    b = 0.5 * (4.0 * a1 - 3.0 * a0 - a2)
    c = 0.5 * (a0 - 2.0 * a1 + a2)
    e = (a3 - (a0 + t3 * (b + t3 * c))) / (t3 * (t3 - 1.0) * (t3 - 2.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        qq = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * c * a0, 0.0)), b))
        r1, r2 = (np.where(np.isfinite(r), np.clip(r, 0.0, 2.0), 0.0) for r in (qq / c, a0 / qq))
    t1, t2 = np.minimum(r1, r2), np.maximum(r1, r2)
    quadratic = _abs_integral(t1, t2, (a0, b, c, 0.0))
    exact = _abs_integral(t1, t2, (a0, b + 2.0 * e, c - 3.0 * e, e))
    simpson = (np.abs(a0) + 4.0 * np.abs(a1) + np.abs(a2)) / 3.0
    per_row = lambda v: np.bincount(rows, weights=step * v, minlength=f.shape[0])
    return per_row(exact - simpson), per_row(np.abs(exact - quadratic))


def _row_score(log_rows, spec):
    """d/dy log p of each row: central differences, one-sided at the ends,
    as a data grid's ``row_scores`` reads them."""
    return np.gradient(log_rows, spec.step, axis=1)


def _table_rule(log_rows, spec):
    """The tables' score step, on the rows' difference scores, as a row
    kernel's score source."""
    return lambda i0, i1, p: _table_scores(p, _row_score(log_rows[i0:i1], spec), spec.step)


def _whole_row_costs(log_rows, spec, costs, offsets, log_mass):
    """D and the costs of each row against gamma moved by its offset, from
    the conditional densities exp(log p - log_mass) of the whole stack at
    once; the scores are the tables' score step on the difference scores."""
    weights = simpson_weights(spec.n_points, spec.step)
    offsets = np.reshape(offsets, (-1, 1))
    log_cond = log_rows - np.reshape(log_mass, (-1, 1))
    p = np.exp(log_cond)
    log_ref = GaussianDensity(0.0, 1.0).log_pdf(spec.nodes()[None, :] - offsets)
    d = _row_dots((log_cond - log_ref) * p, weights)
    disp = _normal_scores(*_table_tails(p, _row_score(log_rows, spec), spec.step)) - spec.nodes()[None, :]
    disp = disp + offsets

    def row_costs(cost):
        out = _row_dots(cost(disp) * p, weights)
        if cost.kink:
            out += _kink_defect(cost.kink * disp * p, spec.step)[0]
        return out

    return d, [row_costs(c) for c in costs]


def _whole_gaussian_log_p(rho, var, mean, n, r):
    """Unnormalised log values of ``bivariate_gaussian_grid``, whole grid."""
    s1, s2 = math.sqrt(var[0]), math.sqrt(var[1])
    spec_x = GridSpec(mean[0] - r * s1, mean[0] + r * s1, n)
    spec_y = GridSpec(mean[1] - r * s2, mean[1] + r * s2, n)
    z1 = ((spec_x.nodes() - mean[0]) / s1)[:, None]
    z2 = ((spec_y.nodes() - mean[1]) / s2)[None, :]
    quad = (z1 * z1 - 2.0 * rho * z1 * z2 + z2 * z2) / (2.0 * (1.0 - rho * rho))
    return -quad - math.log(2.0 * math.pi * s1 * s2 * math.sqrt(1.0 - rho * rho))


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

    @pytest.mark.parametrize("shape", [(513, 513), (65, 97), (66, 33), (33, 66), (50, 52), (34, 20), (20, 34)])
    @pytest.mark.parametrize("refine", [False, True])
    def test_whole_array_case_matches_whole_formula(self, shape, refine):
        rng = np.random.default_rng(shape[0] * shape[1])
        values = rng.standard_normal(shape) * np.exp(rng.standard_normal(shape))
        sx, sy = GridSpec(-1.0, 2.0, shape[0]), GridSpec(0.5, 1.5, shape[1])
        assert integrate_values_2d(values, sx, sy, refine) == _whole_integrate(values, sx, sy, refine)
        (blocked,) = integrate_rows_2d(lambda i0, i1: (values[i0:i1].copy(),), sx, sy, refine)
        assert blocked == _whole_integrate(values, sx, sy, refine)

    @pytest.mark.parametrize("shape", [(513, 513), (65, 97), (66, 33), (50, 52)])
    @pytest.mark.parametrize("refine", [False, True])
    def test_stacked_integrands_each_match_the_whole_formula(self, shape, refine):
        rng = np.random.default_rng(shape[0] + shape[1])
        stack = [rng.standard_normal(shape) * np.exp(rng.standard_normal(shape)) for _ in range(3)]
        sx, sy = GridSpec(-1.0, 2.0, shape[0]), GridSpec(0.5, 1.5, shape[1])
        got = integrate_rows_2d(lambda i0, i1: tuple(v[i0:i1] for v in stack), sx, sy, refine)
        assert got == tuple(_whole_integrate(v, sx, sy, refine) for v in stack)

    def test_non_finite_integrand_names_its_global_node(self):
        sx, sy = GridSpec(0.0, 4.0, 65), GridSpec(0.0, 1.0, 17)
        values = np.ones((65, 17))
        values[2 * ROW_BLOCK + 5, 9] = np.nan
        seen = []

        def block(i0, i1):
            seen.append(i0)
            return (values[i0:i1],)

        with pytest.raises(IntegrandError) as info:
            integrate_rows_2d(block, sx, sy)
        i = 2 * ROW_BLOCK + 5
        assert f"node ({i}, 9), x={float(sx.nodes()[i])}, y=0.5625" in str(info.value)
        assert seen[-1] == 2 * ROW_BLOCK  # blocks after the bad one are never built

    def test_non_finite_value_of_a_later_integrand_names_its_node(self):
        sx, sy = GridSpec(0.0, 4.0, 65), GridSpec(0.0, 1.0, 17)
        values = np.ones((65, 17))
        values[3 * ROW_BLOCK + 1, 4] = np.inf
        ones = np.ones((65, 17))
        with pytest.raises(IntegrandError) as info:
            integrate_rows_2d(lambda i0, i1: (ones[i0:i1], ones[i0:i1], values[i0:i1]), sx, sy)
        i = 3 * ROW_BLOCK + 1
        assert f"node ({i}, 4), x={float(sx.nodes()[i])}, y=0.25" in str(info.value)

    def test_nan_in_a_later_integrand_stops_the_pass_at_its_block(self):
        sx, sy = GridSpec(0.0, 4.0, 65), GridSpec(0.0, 1.0, 33)
        values = np.ones((65, 33))
        values[2 * ROW_BLOCK + 5, 18] = np.nan
        ones = np.ones((65, 33))
        seen = []

        def block(i0, i1):
            seen.append(i0)
            return (ones[i0:i1], 2.0 * ones[i0:i1], values[i0:i1])

        with pytest.raises(IntegrandError) as info:
            integrate_rows_2d(block, sx, sy, refine=True)
        i = 2 * ROW_BLOCK + 5
        assert f"node ({i}, 18), x={float(sx.nodes()[i])}, y=0.5625" in str(info.value)
        assert seen[-1] == 2 * ROW_BLOCK  # blocks after the bad one are never built

    def test_row_of_both_infinities_names_its_first_node(self):
        # +inf and -inf in one row sum to nan: still a refusal, naming the
        # row's first non-finite node
        sx, sy = GridSpec(0.0, 4.0, 65), GridSpec(0.0, 1.0, 17)
        values = np.ones((65, 17))
        i = ROW_BLOCK + 3
        values[i, 11], values[i, 6] = np.inf, -np.inf
        with pytest.raises(IntegrandError) as info:
            integrate_rows_2d(lambda i0, i1: (values[i0:i1],), sx, sy)
        assert f"non-finite integrand at node ({i}, 6), x={float(sx.nodes()[i])}, y=0.375" in str(info.value)

    @pytest.mark.parametrize("refine", [False, True])
    def test_finite_rows_whose_sums_overflow_are_integrated(self, refine):
        # every value is finite, so there is no refusal: two rows' sums
        # overflow and the value is what the whole-grid arithmetic gives;
        # the Richardson difference inf - inf is nan, so the bar reads inf
        sx, sy = GridSpec(0.0, 4.0, 65), GridSpec(0.0, 64.0, 33)
        values = np.ones((65, 33))
        values[ROW_BLOCK + 2 : ROW_BLOCK + 4] = np.finfo(float).max
        with np.errstate(over="ignore"):
            (got,) = integrate_rows_2d(lambda i0, i1: (values[i0:i1],), sx, sy, refine)
            want = _whole_integrate(values, sx, sy)
        assert got.value == want.value == math.inf and got.n_evals == want.n_evals
        assert got.abs_error_estimate == want.abs_error_estimate == math.inf

    def test_block_of_wrong_shape_is_refused(self):
        spec = GridSpec(0.0, 1.0, 33)
        with pytest.raises(ArgumentError, match="does not match rows 0:16"):
            integrate_rows_2d(lambda i0, i1: (np.ones((i1 - i0, 32)),), spec, spec)
        # the wrong shape in the second integrand of a stack
        ok = lambda i0, i1: np.ones((i1 - i0, 33))
        with pytest.raises(ArgumentError, match=r"shape \(16, 32\)"):
            integrate_rows_2d(lambda i0, i1: (ok(i0, i1), np.ones((i1 - i0, 32))), spec, spec)
        # a bare array is not a stack: its rows are refused as blocks
        with pytest.raises(ArgumentError):
            integrate_rows_2d(ok, spec, spec)

    def test_stack_of_changing_length_is_refused(self):
        spec = GridSpec(0.0, 1.0, 33)
        stack = lambda i0, i1: (np.ones((i1 - i0, 33)),) * (1 if i0 == 0 else 2)
        with pytest.raises(ArgumentError, match="do not give the 1 integrands"):
            integrate_rows_2d(stack, spec, spec)
        fewer = lambda i0, i1: (np.ones((i1 - i0, 33)),) * (2 if i0 == 0 else 1)
        with pytest.raises(ArgumentError, match="do not give the 2 integrands"):
            integrate_rows_2d(fewer, spec, spec)


class TestBlockedPassesMatchWholeGrid:
    @pytest.mark.parametrize("name", sorted(_FUNCTIONALS))
    def test_functional(self, grid, name):
        blocked, whole = _FUNCTIONALS[name]
        if "fisher" in name:
            # the difference scores are the oracle's: a Gaussian grid reads
            # its scores off its law, so the subject is given as data
            grid = Grid2DDensity(grid.spec_x, grid.spec_y, grid.log_values)
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

    @pytest.mark.parametrize("name", ["one-row-tail", "even-odd"])
    def test_constructor_never_writes_to_its_input(self, name):
        # builders normalise their own arrays in place; the public
        # constructor copies, with the bits of that owned path
        grid = _CACHE[name] if name in _CACHE else _GRIDS[name]()
        raw = grid.log_values + 3.25
        before = raw.tobytes()
        rebuilt = Grid2DDensity(grid.spec_x, grid.spec_y, raw)
        assert raw.flags.writeable and raw.tobytes() == before
        assert not rebuilt.log_values.flags.writeable
        assert not np.shares_memory(rebuilt.log_values, raw)
        spec = {**specio.density_to_spec(grid), "log_p": raw.tolist()}
        parsed = specio.loads(json.dumps(spec))
        assert parsed.log_values.tobytes() == rebuilt.log_values.tobytes()

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
        shift, mass, _, second = _whole_row_stats(grid)
        xs, wx = grid.spec_x.nodes(), simpson_weights(grid.spec_x.n_points, grid.spec_x.step)
        assert grid.second_moment() == _exact_sum(wx * (xs * xs * mass + second) * np.exp(shift))

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.6, 5.0])
    def test_verify_eps(self, grid, eps):
        assert grid._verify_eps(eps) == _whole_verify_eps(grid, eps)

    def test_row_costs(self, grid):
        costs = (COST_SQ, COST_ABS, COST_DELTA)
        rows = grid.row_stats
        log_mass = np.log(rows.mass) + rows.shift
        for offsets in (0.0, grid.conditional_means()):
            d, got = costs_to_standard_gaussian_rows(
                grid.log_values, grid.spec_y, costs, offsets, _table_rule(grid.log_values, grid.spec_y), log_mass
            )
            want_d, want = _whole_row_costs(grid.log_values, grid.spec_y, costs, offsets, log_mass)
            assert len(got) == len(want) == 3
            assert np.array_equal(d, want_d)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        # one normalised row with a scalar offset, as for the marginal
        marginal = grid.marginal_x()
        one = marginal.log_values[None, :]
        d, got = costs_to_standard_gaussian_rows(
            one, marginal.spec, costs, 0.3, _table_rule(one, marginal.spec), np.zeros(1)
        )
        want_d, want = _whole_row_costs(one, marginal.spec, costs, 0.3, np.zeros(1))
        assert np.array_equal(d, want_d)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_d_rows(self, grid):
        # D parts only: a Gaussian grid's rows read its law's scores, which
        # the tables' rule of the reference cannot give
        t1, t2 = float(grid.mean()[0]), grid.conditional_means()
        dec = decompose_grid2d(grid, (COST_SQ,), (t1, t2))
        rows = grid.row_stats
        log_mass = np.log(rows.mass) + rows.shift
        d_rows, _ = _whole_row_costs(grid.log_values, grid.spec_y, (), t2, log_mass)
        weights = simpson_weights(grid.spec_x.n_points, grid.spec_x.step) * grid.row_marginal()
        assert dec.D_parts[1] == _exact_sum(weights * d_rows)
        # the marginal, normalised on its own grid, as a one-row stack
        marginal = grid.marginal_x()
        d_marginal, _ = _whole_row_costs(marginal.log_values[None, :], marginal.spec, (), t1, np.zeros(1))
        assert dec.D_parts[0] == d_marginal[0]


# -- one information pass per grid ------------------------------------------------

def _whole_score_fisher(mu, relative):
    """The Fisher integrand of the scores ``mu`` gives, read for the whole
    grid in one call (the law's for a Gaussian grid, central differences
    for a grid given as data)."""
    p = np.exp(mu.log_values)
    gx, gy = mu.score_fields(0, mu.spec_x.n_points)
    if relative:
        gx, gy = gx + mu.spec_x.nodes()[:, None], gy + mu.spec_y.nodes()[None, :]
    return np.where(p >= config.FISHER_DENSITY_FLOOR, (gx * gx + gy * gy) * p, 0.0)


def _whole_integrands(mu, nu=None):
    """Each integrand of the one pass as one whole-grid array; the Fisher
    integrands only against gamma_2."""
    out = {"D": _whole_relative_entropy(mu, nu), "TV": _whole_total_variation(mu, nu)}
    if nu is None:
        out.update(
            I_plain=_whole_score_fisher(mu, False),
            I_rel=_whole_score_fisher(mu, True),
            h=_whole_entropy(mu),
        )
    return out


def _same_as_whole(got, values, mu):
    want = integrate_values_2d(values, mu.spec_x, mu.spec_y, refine=True)
    value = min(want.value, 2.0) if got.name == "TV" else want.value
    return got.value == value and got.error_estimate == want.abs_error_estimate


class TestOneInformationPass:
    """``_grid2d_integrals`` gives each integrand the bits of
    ``integrate_values_2d`` over its whole-grid array, whichever other
    integrands share the pass."""

    @pytest.mark.parametrize("as_data", [False, True], ids=["law", "data"])
    def test_each_integral_matches_its_whole_grid_array(self, grid, as_data):
        mu = Grid2DDensity(grid.spec_x, grid.spec_y, grid.log_values) if as_data else grid
        got = _grid2d_integrals(mu, _GRID2D_NAMES)
        assert tuple(got) == _GRID2D_NAMES
        for name, values in _whole_integrands(mu).items():
            assert _same_as_whole(got[name], values, mu), name

    @pytest.mark.parametrize("as_data", [False, True], ids=["law", "data"])
    def test_nodes_below_the_floors_are_zeroed(self, as_data):
        # a support radius of 40 sd puts nodes below LOG_ZERO_FLOOR with a
        # nonzero density, and nodes between it and FISHER_DENSITY_FLOOR,
        # so both masks zero terms that are not zero already
        law = bivariate_gaussian_grid(
            0.5, var=(0.8, 1.6), mean=(0.4, -0.7), n_points=8 * ROW_BLOCK + 1, support_radius=40.0
        )
        mu = Grid2DDensity(law.spec_x, law.spec_y, law.log_values) if as_data else law
        p = np.exp(mu.log_values)
        assert ((p > 0.0) & (p < config.LOG_ZERO_FLOOR)).any()
        assert ((p >= config.LOG_ZERO_FLOOR) & (p < config.FISHER_DENSITY_FLOOR)).any()
        got = _grid2d_integrals(mu, _GRID2D_NAMES)
        for name, values in _whole_integrands(mu).items():
            assert _same_as_whole(got[name], values, mu), name

    def test_one_name_passes_and_public_functionals_match(self):
        mu = _GRIDS["one-row-tail"]()
        both = _grid2d_integrals(mu, _GRID2D_NAMES)
        public = {
            "D": relative_entropy(mu),
            "I_plain": fisher_information(mu),
            "I_rel": relative_fisher(mu),
            "h": shannon_entropy(mu),
            "TV": total_variation(mu),
        }
        for name in _GRID2D_NAMES:
            assert _grid2d_integrals(mu, (name,)) == {name: both[name]} == {name: public[name]}
        deficit = lsi_deficit(mu)
        i_rel, d = both["I_rel"], both["D"]
        assert deficit.value == 0.5 * i_rel.value - d.value
        assert deficit.error_estimate == 0.5 * i_rel.error_estimate + d.error_estimate + 1e-10

    @pytest.mark.parametrize("kind", ["product", "grid"])
    def test_d_and_tv_against_a_reference(self, kind):
        mu = _GRIDS["one-row-tail"]()
        if kind == "product":
            nu = ProductDensity([GaussianDensity(0.1, 1.2), MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)])])
        else:
            nu = bivariate_gaussian_grid(-0.4, var=(1.5, 1.5), n_points=6 * ROW_BLOCK + 1)
        got = _grid2d_integrals(mu, ("TV", "D"), nu)
        assert tuple(got) == ("D", "TV")
        for name, values in _whole_integrands(mu, nu).items():
            assert _same_as_whole(got[name], values, mu), name

    def test_stats_ask_once(self, monkeypatch):
        calls = []
        real = bounds.integrals

        def counted(mu, names, nu=None):
            calls.append(tuple(names))
            return real(mu, names, nu)

        monkeypatch.setattr(bounds, "integrals", counted)
        mu = _GRIDS["one-row-tail"]()
        s = _Stats(mu)
        got = (s.tv, s.d, s.i_rel, s.i_plain, s.entropy_power)
        assert calls == [_GRID2D_NAMES]
        want = (
            total_variation(mu).value,
            relative_entropy(mu).value,
            relative_fisher(mu).value,
            fisher_information(mu).value,
            functionals.entropy_power(mu).value,
        )
        assert got == want


# -- kink panels priced once per row stack -------------------------------------

def _priced_per_stack(f, step, blocks):
    """Kink panels located block by block over ``blocks`` row ranges of f,
    then priced in one call."""
    located = [_kink_panels(f[i0:i1]) for i0, i1 in blocks]
    rows = np.concatenate([r + i0 for (r, _), (i0, _) in zip(located, blocks)])
    panels = np.concatenate([a for _, a in located], axis=1)
    return _kink_price(rows, panels, step, f.shape[0])


def _several_sign_changes(n_rows, n_cols):
    x = np.linspace(-3.0, 3.0, n_cols)[None, :]
    k = np.arange(n_rows)[:, None]
    return np.sin((1.0 + 0.37 * k) * x + 0.1 * k) * np.exp(-0.2 * x * x)


class TestKinkPanelsPricedPerStack:
    @pytest.mark.parametrize("n_cols", [513, 130], ids=["odd", "even"])
    def test_stack_pricing_matches_per_block_correction(self, n_cols):
        f = _several_sign_changes(3 * ROW_BLOCK + 5, n_cols)
        blocks = row_blocks(f.shape[0])
        want = [np.concatenate(parts) for parts in zip(*(_kink_defect(f[i0:i1], 0.01) for i0, i1 in blocks))]
        got = _priced_per_stack(f, 0.01, blocks)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        # several panels on most rows, and the whole-array call agrees too
        assert np.count_nonzero(got[0]) == f.shape[0]
        assert all(np.array_equal(g, w) for g, w in zip(got, _kink_defect(f, 0.01)))

    def test_closing_panel_reads_the_node_before(self):
        # odd count: the last Simpson panel has no node after it, so its
        # cubic goes through the node before (t3 = -1); even count: the
        # Simpson head ends before the 3/8 panel and every panel has a next
        for n in (33, 34):
            x = np.linspace(0.0, 1.0, n)
            head = n if n % 2 == 1 else n - 3
            root = 0.5 * (x[head - 3] + x[head - 2])
            f = np.stack([(x - root) * (1.0 + x), (x - 0.31) * (2.0 - x)])
            rows, panels = _kink_panels(f)
            last = np.flatnonzero(rows == 0)[-1]
            assert panels[4, last] == (-1.0 if n % 2 == 1 else 3.0)
            assert panels[3, last] == f[0, head - 4 if n % 2 == 1 else head]
            want = _kink_defect(f, x[1] - x[0])
            got = _kink_price(rows, panels, x[1] - x[0], 2)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_data_grid_stack_crosses_the_flush(self, monkeypatch):
        # rows phi(y) (1 + sin(k y + x) / 2) with k from 10 to 14: each row's
        # map to gamma crosses the identity about every pi / k, some 75
        # times per row, so the located panels reach the flush threshold
        law = bivariate_gaussian_grid(0.0)
        x, y = law.spec_x.nodes()[:, None], law.spec_y.nodes()[None, :]
        k = 10.0 + (np.arange(law.spec_x.n_points) % 5)[:, None]
        log_p = -0.5 * (x * x + y * y) + np.log1p(0.5 * np.sin(k * y + x))
        mu = Grid2DDensity(law.spec_x, law.spec_y, log_p)
        priced = []
        real = transport._kink_price

        def counted(rows, panels, step, n_rows):
            priced.append(rows.size)
            return real(rows, panels, step, n_rows)

        monkeypatch.setattr(transport, "_kink_price", counted)
        costs = (COST_SQ, COST_ABS, COST_DELTA)
        d, got = costs_to_standard_gaussian_rows(
            mu.log_values, mu.spec_y, costs, 0.0, mu.row_scores, mu._row_log_mass
        )
        want_d, want = _whole_row_costs(mu.log_values, mu.spec_y, costs, 0.0, mu._row_log_mass)
        assert np.array_equal(d, want_d)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        # W1 alone is kinked; its panels are priced in several calls, none
        # over a block's worth past the threshold
        limit = ROW_BLOCK * mu.spec_y.n_points
        assert len(priced) > 2 and sum(priced) > 4 * limit
        assert all(n < limit + ROW_BLOCK * mu.spec_y.n_points // 2 for n in priced)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryGuard:
    """Each pass stays below a quarter of one whole-grid float array, so its
    temporaries are reused rather than paged in afresh on every call.  A
    grid is built as one whole-grid array: its builder normalises it in
    place, with no normalised copy beside it."""

    @pytest.mark.parametrize("name", sorted(_FUNCTIONALS))
    def test_functionals_on_heat_flowed_grid(self, name):
        if "heat-1025" not in _CACHE:
            _CACHE["heat-1025"] = _GRIDS["heat-1025"]()
        mu = _CACHE["heat-1025"]
        assert mu.log_values.shape == (1025, 1025)
        blocked = _FUNCTIONALS[name][0]
        assert _peak_bytes(lambda: blocked(mu)) < mu.log_values.nbytes / 4

    def test_one_information_pass_on_heat_flowed_grid(self):
        if "heat-1025" not in _CACHE:
            _CACHE["heat-1025"] = _GRIDS["heat-1025"]()
        mu = _CACHE["heat-1025"]
        assert _peak_bytes(lambda: _grid2d_integrals(mu, _GRID2D_NAMES)) < mu.log_values.nbytes / 4

    def test_grid2d_row_pass(self):
        mu = _GRIDS["513"]()
        assert mu.log_values.shape == (513, 513)
        assert _peak_bytes(lambda: _Stats(mu)._grid2d_pass()) < mu.log_values.nbytes / 4

    def test_gaussian_grid_tabulates_into_its_own_array(self):
        built = []
        peak = _peak_bytes(lambda: built.append(bivariate_gaussian_grid(0.5, n_points=1025)))
        assert peak < 1.25 * built[0].log_values.nbytes

    def test_lattice_flow_of_a_grid_given_as_data(self):
        # the two whole products and the output: the input's weighted copy is
        # dropped before the second product, and the output is not copied
        law = _GRIDS["513"]()
        mu = Grid2DDensity(law.spec_x, law.spec_y, law.log_values)
        flowed = []
        peak = _peak_bytes(lambda: flowed.append(mu.heat_flow(1.0)))
        assert peak < 1.75 * flowed[0].log_values.nbytes


# -- Gaussian grids read their law ---------------------------------------------

class TestGaussianGrids:
    @pytest.mark.parametrize(
        "rho,var,mean,n",
        [
            (0.0, (1.0, 1.0), (0.0, 0.0), 513),
            (0.5, (0.8, 1.6), (0.4, -0.7), 513),
            (-0.3, (1.2, 0.7), (0.0, 0.0), 4 * ROW_BLOCK + 1),
            (0.2, (1.0, 1.0), (1.5, -0.2), 4 * ROW_BLOCK + 3),
        ],
    )
    def test_tabulated_in_row_blocks(self, rho, var, mean, n):
        mu = bivariate_gaussian_grid(rho, var=var, mean=mean, n_points=n)
        raw = _whole_gaussian_log_p(rho, var, mean, n, config.support_radius())
        assert np.array_equal(mu.log_values, Grid2DDensity(mu.spec_x, mu.spec_y, raw).log_values)

    @pytest.mark.parametrize("name", ["513", "one-row-tail", "three-row-tail", "flowed"])
    def test_score_fields_fold_the_sign_into_the_divisor(self, name):
        # (a) / -(b) has the bits of -(a) / (b) on every block
        if name == "flowed":
            mu = bivariate_gaussian_grid(0.5, var=(0.8, 1.6), mean=(0.4, -0.7)).heat_flow(1.0)
        else:
            mu = _CACHE[name] if name in _CACHE else _GRIDS[name]()
        assert isinstance(mu, densities._GaussianGrid2D)
        rho, (s1, s2) = mu._law[0], mu._sd
        c = 1.0 - rho * rho
        for i0, i1 in row_blocks(mu.spec_x.n_points):
            z1, z2 = mu._z[0][i0:i1, None], mu._z[1]
            want = (-(z1 - rho * z2) / (c * s1), -(z2 - rho * z1) / (c * s2))
            got = mu.score_fields(i0, i1)
            assert all(g.shape == w.shape and g.tobytes() == w.tobytes() for g, w in zip(got, want))

    @staticmethod
    def _counted_pass(monkeypatch, build) -> dict[str, int]:
        """Calls of the table score steps, of the difference scores
        (``score_fields``) and the law's (``law_scores``), of the 2D
        integrator and of the row kernel's kink seam (``locate`` per block,
        ``price`` per stack), the panels it locates and the decompositions,
        over building a grid with ``build()`` and a full certificate pass."""
        names = ("_normal_scores", "_table_tails", "score_fields", "law_scores", "passes", "locate", "price")
        counts = dict.fromkeys(names + ("panels", "decompositions"), 0)

        def counted(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in ("_normal_scores", "_table_tails"):
            monkeypatch.setattr(densities, name, counted(name, getattr(densities, name)))
        monkeypatch.setattr(
            Grid2DDensity, "score_fields", counted("score_fields", Grid2DDensity.score_fields)
        )
        law = densities._GaussianGrid2D
        monkeypatch.setattr(law, "score_fields", counted("law_scores", law.score_fields))
        for module in (densities, functionals):
            monkeypatch.setattr(module, "integrate_rows_2d", counted("passes", module.integrate_rows_2d))

        def locate(f, _real=transport._kink_panels):
            rows, panels = _real(f)
            counts["panels"] += rows.size
            return rows, panels

        monkeypatch.setattr(transport, "_kink_panels", counted("locate", locate))
        monkeypatch.setattr(transport, "_kink_price", counted("price", transport._kink_price))
        monkeypatch.setattr(bounds, "decompose_grid2d", counted("decompositions", bounds.decompose_grid2d))
        certify_suite([build()])
        return counts

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_certificates_read_the_law(self, monkeypatch, rho):
        # no normal-score table, no difference scores; at rho = 0 every row
        # displacement is exactly 0, so no panel has a kink
        counts = self._counted_pass(monkeypatch, lambda: bivariate_gaussian_grid(rho))
        assert counts["_normal_scores"] == counts["_table_tails"] == counts["score_fields"] == 0
        assert counts["locate"] > 0
        if rho == 0.0:
            assert counts["panels"] == 0

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_data_grid_reads_its_table(self, monkeypatch, rho):
        law = bivariate_gaussian_grid(rho)
        counts = self._counted_pass(
            monkeypatch, lambda: Grid2DDensity(law.spec_x, law.spec_y, law.log_values)
        )
        table = ("_normal_scores", "_table_tails", "score_fields", "locate", "price", "panels")
        assert all(counts[name] > 0 for name in table)
        assert counts["law_scores"] == 0

    def test_flat_data_grid_prices_few_kink_panels(self, monkeypatch):
        # rows whose law is gamma: their displacement is the tables' error,
        # which changes sign on few panels when every interval takes one
        # rule (119248 panels when the rule alternated from node to node)
        law = bivariate_gaussian_grid(0.0)
        counts = self._counted_pass(
            monkeypatch, lambda: Grid2DDensity(law.spec_x, law.spec_y, law.log_values)
        )
        assert 0 < counts["panels"] < 5000

    def test_one_information_pass_per_grid(self, monkeypatch):
        # 2D passes: the normalisations of the grid and of its flow, the
        # one information pass, and the flow's h (epi) and I (lem3.3); the
        # second moment reads the row statistics; score fields: one call per
        # row block in the grid's pass and in the flow's I; kink panels:
        # priced once per row stack, the marginal's and the rows'
        counts = self._counted_pass(monkeypatch, lambda: bivariate_gaussian_grid(0.5))
        assert counts["passes"] == 5
        assert counts["law_scores"] == 2 * len(row_blocks(513)) == 64
        assert counts["decompositions"] == 1
        assert 0 < counts["price"] <= 2 * counts["decompositions"]


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

    def test_user_function_matches_callable_form(self):
        f = lambda x: np.tanh(np.asarray(x))
        f_prime = lambda x: 1.0 / np.cosh(np.asarray(x)) ** 2
        want = _callable_cheeger(f, f_prime)
        cert = evaluate_bound("cheeger", GaussianDensity(0.0, 1.0), opts={"f": f, "f_prime": f_prime})
        assert (cert.lhs, cert.rhs, cert.constants["median"]) == (want["lhs"], want["rhs"], want["median"])

    def test_user_function_needs_its_derivative(self):
        with pytest.raises(ArgumentError, match="'f_prime'"):
            evaluate_bound("cheeger", GaussianDensity(0.0, 1.0), opts={"f": np.tanh})

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
        "'Grid2DDensity' in [c.__name__ for c in type(frame.f_locals.get('self')).__mro__]:\n"
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
