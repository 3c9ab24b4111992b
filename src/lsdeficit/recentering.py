"""Conditional recentering and per-coordinate decomposition.

The recentering map sends x to (x1 - t1, x2 - t2(x1)) where t1 is the
mean of the first coordinate and t2(x1) the conditional mean of the
second given the first.  Its pushforward has E X1 = 0 and vanishing
conditional means, which is the normal form used by the multi-coordinate
deficit bounds.  For 1D densities this is plain mean-centering; for
products the conditional means are constants, so every factor is
centered on its own.

tensorise() splits relative entropy, relative Fisher information and
transport costs against the standard Gaussian into the contribution of
the first coordinate's marginal plus averaged contributions of the
conditional slices.  For true products the D and I splits are exact;
for coupled 2D grids the transport split is the upper bound obtained by
coupling slice by slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.interpolate import CubicSpline, PPoly

from .densities import (
    Density,
    Density1D,
    Grid2DDensity,
    GridDensity,
    ProductDensity,
    _finite_diff_log,
    standard_gaussian,
)
from .errors import ArgumentError, NumericalError
from .functionals import relative_entropy, relative_fisher
from .quadrature import GridSpec, simpson_weights
from .transport import COST_DELTA, CostFn, costs_to_standard_gaussian_rows, transport_cost

# Shifted row values that land outside the grid window are floored here,
# relative to the grid's maximum: far below every tolerance but still a
# finite log density.
_CORNER_DROP = 745.0

_MEAN_TOL = 1e-6

# Rows per batched spline build in _shift_rows.  One build over all 513 rows
# of a default grid allocates an 8 MB coefficient array and 2 MB temporaries
# that are paged in afresh on every call (about 5000 page faults); 32-row
# blocks keep each array at or under 0.5 MB, so freed memory is reused and
# the call runs in about half the time.
_SPLINE_BLOCK = 32


@dataclass(frozen=True)
class RecenteredDensity:
    """A density together with its conditionally centered version.

    ``shifts`` holds the subtracted conditional means: a scalar for the
    first coordinate, and for the second coordinate of a 2D grid an
    array of values on the nodes of ``original.spec_x`` (constant
    factors stay scalars for products).
    """

    original: Density
    recentered: Density
    shifts: tuple


def _shift_rows(log_rows: np.ndarray, spec_y: GridSpec, offsets: np.ndarray) -> np.ndarray:
    """Row i becomes its own values sampled at y + offsets[i].

    Interpolation is cubic (not-a-knot) in log space, which reproduces
    quadratic log rows exactly; queries pushed off the grid get a floor.
    One spline build covers a block of up to _SPLINE_BLOCK moved rows; each
    row is then evaluated through its own slice of the coefficients.
    """
    ys = spec_y.nodes()
    out = log_rows.copy()
    floor = float(log_rows.max()) - _CORNER_DROP
    moved = np.flatnonzero(offsets != 0.0)
    for start in range(0, moved.size, _SPLINE_BLOCK):
        block = moved[start : start + _SPLINE_BLOCK]
        spline = CubicSpline(ys, log_rows[block], axis=1, bc_type="not-a-knot")
        for k, i in enumerate(block):
            q = ys + offsets[i]
            inside = (q >= spec_y.x_lo) & (q <= spec_y.x_hi)
            row = np.full(ys.shape, floor)
            if inside.any():
                row[inside] = PPoly.construct_fast(spline.c[:, :, k], spline.x)(q[inside])
            out[i] = np.maximum(row, floor)
    return out


def _recenter_grid2d(mu: Grid2DDensity) -> RecenteredDensity:
    sx = mu.spec_x
    wx = simpson_weights(sx.n_points, sx.step)
    t1 = math.fsum(wx * sx.nodes() * mu.row_marginal())
    t2 = mu.conditional_means()
    new_spec_x = GridSpec(sx.x_lo - t1, sx.x_hi - t1, sx.n_points)
    log_rows = _shift_rows(mu.log_values, mu.spec_y, t2)
    recentered = Grid2DDensity(new_spec_x, mu.spec_y, log_rows)

    marg_r = recentered.row_marginal()
    wx_r = simpson_weights(new_spec_x.n_points, new_spec_x.step)
    mean1 = math.fsum(wx_r * new_spec_x.nodes() * marg_r)
    cond = recentered.conditional_means()
    relevant = marg_r > 1e-9 * marg_r.max()
    worst = float(np.abs(cond[relevant]).max())
    if abs(mean1) > _MEAN_TOL or worst > _MEAN_TOL:
        raise NumericalError(
            "recentering verification failed: residual first-coordinate mean "
            f"{mean1:.3e}, worst conditional mean {worst:.3e} (tolerance {_MEAN_TOL})"
        )
    return RecenteredDensity(mu, recentered, (t1, t2))


def recenter(mu: Density) -> RecenteredDensity:
    """Subtract the conditional means coordinate by coordinate."""
    if isinstance(mu, Density1D):
        t1 = mu.mean()
        return RecenteredDensity(mu, mu.shifted(-t1), (t1,))
    if isinstance(mu, ProductDensity):
        ts = tuple(f.mean() for f in mu.factors)
        centered = ProductDensity([f.shifted(-t) for f, t in zip(mu.factors, ts)])
        return RecenteredDensity(mu, centered, ts)
    if isinstance(mu, Grid2DDensity):
        return _recenter_grid2d(mu)
    raise ArgumentError(f"cannot recenter {type(mu).__name__}")


@dataclass(frozen=True)
class TensorDecomposition:
    """Per-coordinate contributions against the standard Gaussian.

    T_parts corresponds to ``cost_id``; cost_parts carries every
    requested cost keyed by id.
    """

    D_parts: tuple[float, ...]
    I_parts: tuple[float, ...]
    T_parts: tuple[float, ...]
    cost_id: str
    cost_parts: Mapping[str, tuple[float, ...]]

    def total(self, parts: Sequence[float]) -> float:
        return math.fsum(parts)


def _tensorise_grid2d(mu: Grid2DDensity, costs: tuple[CostFn, ...]) -> TensorDecomposition:
    gauss = standard_gaussian()
    marginal = mu.marginal_x()
    d1 = relative_entropy(marginal, None).value
    i1 = relative_fisher(marginal, None).value
    # same node-aligned fast path as the rows, so all parts share one
    # accuracy floor (off-node CDF interpolation is much coarser)
    marg_costs = costs_to_standard_gaussian_rows(
        marginal.log_values[None, :], marginal.spec, costs
    )
    t1 = {c.id: float(arr[0]) for c, arr in zip(costs, marg_costs)}

    sx, sy = mu.spec_x, mu.spec_y
    wx = simpson_weights(sx.n_points, sx.step)
    wy = simpson_weights(sy.n_points, sy.step)
    # integrates row functionals against the x1-marginal
    weights = wx * mu.row_marginal()
    ys = sy.nodes()
    log_rows = mu.log_values
    rows = mu.row_stats
    log_cond = log_rows - (np.log(np.maximum(rows.mass, 1e-300)) + rows.shift)[:, None]
    cond = np.exp(log_cond)

    log_ref = gauss.log_pdf(ys)
    d_rows = ((log_cond - log_ref[None, :]) * cond * wy[None, :]).sum(axis=1)
    d2 = math.fsum(weights * d_rows)

    score = _finite_diff_log(log_cond, sy.step, axis=1)
    i_rows = (((score + ys[None, :]) ** 2) * cond * wy[None, :]).sum(axis=1)
    i2 = math.fsum(weights * i_rows)

    t_rows = costs_to_standard_gaussian_rows(log_rows, mu.spec_y, costs)
    t2 = {
        c.id: math.fsum(weights * row_costs)
        for c, row_costs in zip(costs, t_rows)
    }

    cost_parts = {c.id: (t1[c.id], t2[c.id]) for c in costs}
    primary = costs[0].id
    return TensorDecomposition(
        D_parts=(d1, d2),
        I_parts=(i1, i2),
        T_parts=cost_parts[primary],
        cost_id=primary,
        cost_parts=cost_parts,
    )


def tensorise(mu: Density, costs: Sequence[CostFn] = (COST_DELTA,)) -> TensorDecomposition:
    """Split D, I and transport costs against gamma_n per coordinate.

    The density is decomposed as is; recenter first when the centered
    parts are wanted.
    """
    costs = tuple(costs)
    if not costs:
        raise ArgumentError("need at least one transport cost")
    if isinstance(mu, Grid2DDensity):
        return _tensorise_grid2d(mu, costs)
    if isinstance(mu, ProductDensity):
        factors = mu.factors
    elif isinstance(mu, Density1D):
        factors = (mu,)
    else:
        raise ArgumentError(f"cannot tensorise {type(mu).__name__}")
    d = tuple(relative_entropy(f, None).value for f in factors)
    i = tuple(relative_fisher(f, None).value for f in factors)
    cost_parts = {
        c.id: tuple(transport_cost(f, None, c).value for f in factors) for c in costs
    }
    return TensorDecomposition(d, i, cost_parts[costs[0].id], costs[0].id, cost_parts)
