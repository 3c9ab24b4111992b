"""Conditional recentering and per-coordinate decomposition.

The recentering map sends x to (x1 - t1, x2 - t2(x1)) where t1 is the
mean of the first coordinate and t2(x1) the conditional mean of the
second given the first.  Its pushforward has E X1 = 0 and vanishing
conditional means, which is the normal form used by the multi-coordinate
deficit bounds.  For 1D densities this is plain mean-centering; for
products the conditional means are constants, so every factor is
centered on its own.  ``recenter`` builds the moved density; certificates
do not, because D and even costs against gamma only see the difference of
density and reference: moving mu by -t equals moving gamma by +t.

tensorise() splits relative entropy and transport costs against the
standard Gaussian into the contribution of the first coordinate's
marginal plus averaged contributions of the conditional slices.  For
true products the D split is exact; for coupled 2D grids the transport
split is the upper bound obtained by coupling slice by slice.  On 2D grids
one row pass, ``decompose_grid2d``, gives the split against gamma moved by
given shifts (zero: as is; the conditional means: recentered).  It makes
two calls of the one row kernel, ``costs_to_standard_gaussian_rows``, which
gives D and every cost of a stack of rows from one loop: the normalised
marginal as a one-row stack of log mass 0, and the conditional rows with
the grid's log row masses.  Gamma has mean zero, so a part's W2^2 to gamma
itself is its W2^2 to gamma moved by the part's mean plus that mean
squared; the as-is W2^2 of a recentered pass needs no second cost list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .densities import (
    Density,
    Density1D,
    Grid2DDensity,
    ProductDensity,
)
from .errors import ArgumentError, NumericalError
from .functionals import relative_entropy
from .quadrature import GridSpec, _exact_sum, simpson_weights
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
    # imported here, not at module level: no certificate or command reaches
    # this function, and scipy.interpolate is a large share of a cold start
    from scipy.interpolate import CubicSpline, PPoly

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
    t1 = float(mu.mean()[0])
    t2 = mu.conditional_means()
    new_spec_x = GridSpec(sx.x_lo - t1, sx.x_hi - t1, sx.n_points)
    log_rows = _shift_rows(mu.log_values, mu.spec_y, t2)
    recentered = Grid2DDensity._owning(new_spec_x, mu.spec_y, log_rows)

    mean1 = float(recentered.mean()[0])
    marg_r = recentered.row_marginal()
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
    T_parts: tuple[float, ...]
    cost_id: str
    cost_parts: Mapping[str, tuple[float, ...]]


def decompose_grid2d(
    mu: Grid2DDensity, costs: tuple[CostFn, ...], shifts: tuple[float, np.ndarray]
) -> TensorDecomposition:
    """One row pass: the marginal and each row are mapped toward gamma once,
    through the normal scores the grid gives (``marginal_scores``,
    ``row_scores``), in two calls of the row kernel, which also gives D.

    Splits D and ``costs`` against gamma moved by t1 along x1 and by t2[i]
    along row i, for ``shifts`` = (t1, t2).  Zero shifts give the split as
    is; the conditional means give the recentered parts.
    """
    t1, t2 = shifts
    sx, sy = mu.spec_x, mu.spec_y
    wx = simpson_weights(sx.n_points, sx.step)
    # integrates row functionals against the x1-marginal
    weights = wx * mu.row_marginal()
    # the marginal, normalised on its own grid, as a one-row stack
    marginal = mu.marginal_x().log_values[None, :]
    d1, marg_costs = costs_to_standard_gaussian_rows(
        marginal, sx, costs, t1, mu.marginal_scores, np.zeros(1)
    )
    d_rows, row_costs = costs_to_standard_gaussian_rows(
        mu.log_values, sy, costs, t2, mu.row_scores, mu._row_log_mass
    )
    parts = {
        c.id: (float(m[0]), _exact_sum(weights * r))
        for c, m, r in zip(costs, marg_costs, row_costs)
    }
    d_parts = (float(d1[0]), _exact_sum(weights * d_rows))
    return TensorDecomposition(d_parts, parts[costs[0].id], costs[0].id, parts)


def tensorise(mu: Density, costs: Sequence[CostFn] = (COST_DELTA,)) -> TensorDecomposition:
    """Split D and transport costs against gamma_n per coordinate.

    The density is decomposed as is (on 2D grids, ``decompose_grid2d``
    with zero shifts).
    """
    costs = tuple(costs)
    if not costs:
        raise ArgumentError("need at least one transport cost")
    if isinstance(mu, Grid2DDensity):
        return decompose_grid2d(mu, costs, (0.0, np.zeros(mu.spec_x.n_points)))
    if isinstance(mu, ProductDensity):
        factors = mu.factors
    elif isinstance(mu, Density1D):
        factors = (mu,)
    else:
        raise ArgumentError(f"cannot tensorise {type(mu).__name__}")
    d = tuple(relative_entropy(f, None).value for f in factors)
    cost_parts = {
        c.id: tuple(transport_cost(f, None, c).value for f in factors) for c in costs
    }
    return TensorDecomposition(d, cost_parts[costs[0].id], costs[0].id, cost_parts)
