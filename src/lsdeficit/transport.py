"""One-dimensional optimal transport via monotone rearrangement.

For distributions on the line with convex translation-invariant costs
c(x - z), the monotone map T = F_target^{-1} o F_source is optimal
(Villani, Topics in Optimal Transportation, Thm 2.18), so every transport
cost reduces to a single quadrature:

    cost(target, source) = int c(T(x) - x) d source(x).

The costs used here (squared distance, absolute distance, and the convex
gap delta(|x - z|), optionally with an inner scale) are all even in the
displacement, which makes the optimal cost symmetric in its arguments.

Each density has one map to the standard Gaussian, z(x) = Phi^-1(F(x)), and
one inverse of it, x(z) (``Density1D.normal_scores``, ``score_inverse``).
Every 1D cost is one nodewise kernel on mu's table, T(x) = x_ref(z_mu(x));
a lone Gaussian side is the reference, T(x) = m + s z_mu(x), in either
argument order.  The 2D row path (``costs_to_standard_gaussian_rows``)
takes each row's normal scores from its grid (``row_scores``: a Gaussian
grid's exact conditional scores, else the tables' score step) and each row's
maximum and mass from the grid's ``row_stats``, and prices one list of costs
per row, against gamma moved by that row's offset (offset + T,
so 0 gives gamma itself).  W1 has its Simpson kink error removed at every
sign change of the displacement: the row path locates the panels block by
block and prices them once per row stack (``quadrature._kink_panels``,
``_kink_price``).
``TransportPlan1D`` is the map as a callable at any x, T(x) =
x_target(z_source(x)), z_source the source inverse's own scores ((x - m) / s
for a Gaussian, x itself for gamma), for ``cheeger`` and ``talagrand-map``;
its derivative T' = x_target'(z) / x_source'(z) reads the two inverses'
slopes, so it is the derivative of the map it evaluates.

Every 1D cost and plan first checks the pushforward (``_check_pushforward``)
from what each side's ``pushforward_probe`` holds: that density's own
quantile/CDF round trip at 20 midpoint levels and its pdf there, cached on
the density.  A density paired with many references, and the one gamma_n a
certificate memo passes to all of its costs and plans, is probed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .deltafn import delta
from .densities import (
    Density1D,
    GaussianDensity,
    ProductDensity,
    standard_gaussian,
)
from .errors import ArgumentError, DegeneratePlanError
from .quadrature import (
    ROW_BLOCK,
    GridSpec,
    _kink_panels,
    _kink_price,
    integrate_values,
    row_blocks,
    simpson_weights,
)
from .functionals import _per_factor
from .values import FunctionalValue

# Each displacement m + s z - x is charged this many ulps of |x| + |T(x)|
# for its roundoff.
_DISP_ULPS = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class CostFn:
    """Convex even cost c(displacement) with c(0) = 0."""

    id: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        probe = np.array([-3.0, -1.0, -0.25, 0.0, 0.25, 1.0, 3.0])
        vals = np.asarray(self.fn(probe), dtype=float)
        if abs(vals[3]) > 1e-15:
            raise ArgumentError(f"cost {self.id!r} must vanish at 0")
        mid = np.asarray(self.fn((probe[:-1] + probe[1:]) / 2.0), dtype=float)
        if np.any(mid > (vals[:-1] + vals[1:]) / 2.0 + 1e-12):
            raise ArgumentError(f"cost {self.id!r} fails midpoint convexity")

    def __call__(self, displacement):
        return self.fn(np.asarray(displacement, dtype=float))

    @cached_property
    def kink(self) -> float:
        """The slope c'(0+), from two steps t and 2t by Richardson; positive
        for a cost (W1) that puts a kink in the integrand wherever the
        displacement changes sign, and 0 below 1e-6."""
        t = 2.0**-20
        c1, c2 = np.asarray(self.fn(np.array([t, 2.0 * t])), dtype=float)
        slope = (4.0 * c1 - c2) / (2.0 * t)
        return float(slope) if slope > 1e-6 else 0.0


COST_SQ = CostFn("sq", lambda d: d * d)
COST_ABS = CostFn("abs", np.abs)
COST_DELTA = CostFn("delta", lambda d: delta(np.abs(d)))


def cost_delta_scaled(scale: float) -> CostFn:
    """delta(|d| / scale): the inner-scaled convex gap cost."""
    if not scale > 0:
        raise ArgumentError(f"cost scale must be positive, got {scale}")
    return CostFn(f"delta_scaled({scale:g})", lambda d: delta(np.abs(d) / scale))


class TransportPlan1D:
    """Monotone rearrangement pushing ``source`` onto ``target``: T(x) =
    x_target(z_source(x)), through the normal scores of each side."""

    def __init__(self, target: Density1D, source: Density1D):
        _check_pushforward(source, target)
        self._target = target
        self._source = source

    def map_at(self, x):
        z = self._source.score_inverse.scores(np.asarray(x, dtype=float))
        return self._target.score_inverse(z)

    def derivative(self, x):
        """T'(x) = x_target'(z) / x_source'(z) at z = z_source(x), each
        inverse's own slope (``slope``), so T' is the derivative of the map
        ``map_at`` reads.  From gamma (slope 1) onto a Gaussian it is the
        target's s, exactly."""
        source = self._source.score_inverse
        z = source.scores(np.asarray(x, dtype=float))
        return self._target.score_inverse.slope(z) / source.slope(z)


def monotone_plan(target: Density1D, source: Density1D | None = None) -> TransportPlan1D:
    """Plan carrying ``source`` (default: standard Gaussian) onto ``target``."""
    return TransportPlan1D(target, source if source is not None else standard_gaussian())


def transport_cost(
    target: Density1D | ProductDensity,
    source: Density1D | ProductDensity | None = None,
    cost: CostFn = COST_SQ,
) -> FunctionalValue:
    """Optimal cost int c(T(x) - x) d source for the monotone map T; a
    product sums its factor costs against a product source (default gamma_n)."""
    if isinstance(target, ProductDensity):
        return _per_factor(
            lambda f, g: _transport_cost_1d(f, g, cost), target, source, "transport_cost"
        )
    return _transport_cost_1d(target, source, cost)


def _check_pushforward(mu: Density1D, ref: Density1D) -> None:
    """Each side's quantile must invert its CDF at the 20 midpoint levels u,
    |F(Q(u)) - u| summed over the two sides within 1e-5, and its pdf must be
    finite and positive at those Q(u), so that T(x) = Q_ref(F_mu(x)) pushes
    mu onto ref with a finite derivative p_mu(x) / p_ref(T(x)).  Each side's
    round trip is its own ``pushforward_probe``, run once per object."""
    if not isinstance(mu, Density1D) or not isinstance(ref, Density1D):
        raise ArgumentError("transport maps need a 1D density on each side")
    source, target = mu.pushforward_probe, ref.pushforward_probe
    err = source.cdf_error + target.cdf_error
    if not err <= 1e-5:
        raise DegeneratePlanError(
            f"monotone map from {mu!r} to {ref!r} fails the pushforward check: "
            f"max CDF error {err:.3e} exceeds 1e-5"
        )
    if not (source.pdf_positive and target.pdf_positive):
        raise DegeneratePlanError("monotone map has a non-finite derivative")


def _transport_cost_1d(mu: Density1D, ref: Density1D | None, cost: CostFn) -> FunctionalValue:
    """int c(T(x) - x) dmu on mu's own table, for T(x) = x_ref(z_mu(x)) the
    monotone map pushing ``mu`` onto ``ref`` (default gamma).  The cost is
    even, so a lone Gaussian side is made the reference.  The error adds
    what moving each displacement by its roundoff and by the error of
    x_ref(z_mu) (``error`` of ref's inverse) can change: an even convex
    cost grows most when |d| grows."""
    ref = standard_gaussian() if ref is None else ref
    if isinstance(mu, GaussianDensity) and not isinstance(ref, GaussianDensity):
        mu, ref = ref, mu
    _check_pushforward(mu, ref)
    t = mu.table
    scores = mu.normal_scores
    inverse = ref.score_inverse
    mapped = inverse(scores.z)
    disp = mapped - t.nodes
    kinked = cost.kink * disp * t.p if cost.kink else None
    r = integrate_values(cost(disp) * t.p, t.spec, refine=True, kinked=kinked)
    size = np.abs(disp)
    slack = _DISP_ULPS * (np.abs(t.nodes) + np.abs(mapped))
    slack += inverse.error(scores.z, scores.error)
    moved = (cost(size + slack) - cost(size)) * t.p
    charge = float(moved @ simpson_weights(t.spec.n_points, t.spec.step))
    return FunctionalValue(f"T[{cost.id}]", max(r.value, 0.0), r.abs_error_estimate + charge)


def w2_squared(target: Density1D, source: Density1D | None = None) -> FunctionalValue:
    return transport_cost(target, source, COST_SQ)


def w2_distance(target: Density1D, source: Density1D | None = None) -> float:
    return math.sqrt(w2_squared(target, source).value)


def w1_distance(target: Density1D, source: Density1D | None = None) -> float:
    return transport_cost(target, source, COST_ABS).value


def delta_transport_cost(
    target: Density1D, source: Density1D | None = None, scale: float | None = None
) -> FunctionalValue:
    cost = COST_DELTA if scale is None else cost_delta_scaled(scale)
    return transport_cost(target, source, cost)


# ---------------------------------------------------------------------------
# Vectorised row fast path (used by the per-coordinate 2D quantities)
# ---------------------------------------------------------------------------

def costs_to_standard_gaussian_rows(
    log_rows: np.ndarray,
    spec: GridSpec,
    costs: tuple[CostFn, ...],
    offsets: np.ndarray | float,
    scores: Callable[[int, int, np.ndarray], np.ndarray],
    row_max: np.ndarray,
    row_mass: np.ndarray,
) -> list[np.ndarray]:
    """Per-row optimal costs to the standard Gaussian moved by offsets[i] on
    row i (0 gives gamma itself), one array per cost.

    Each row of ``log_rows`` is a log density on ``spec``, with its maximum
    ``row_max[i]`` and the Simpson sum ``row_mass[i]`` of exp(log p -
    row_max[i]) over ``spec`` (a 2D grid's ``row_stats.shift`` and
    ``.mass``).  As in the 1D kernel, every row is mapped toward gamma,
    T(x) = Phi^-1(F_row(x)), and integrated with the row's own weights,
    normalised by its mass; the map toward the moved Gaussian is
    offsets[i] + T.  ``scores(i0, i1, p)`` gives T on rows i0:i1 from p,
    their values scaled to a row maximum of 1 (a 2D grid's ``row_scores``
    or ``marginal_scores``).  A kinked cost gets the kink correction at each
    row's own sign changes: each block locates its panels, and the panels
    gathered are priced when the stack ends, or at the end of a block once
    they reach ``ROW_BLOCK`` panels per column, so a row's panels are
    priced in one call and its temporaries stay block-sized.
    """
    step = spec.step
    nodes = spec.nodes()
    weights = simpson_weights(spec.n_points, step)
    n_rows = log_rows.shape[0]
    offsets = np.broadcast_to(np.reshape(offsets, (-1, 1)), (n_rows, 1))
    out = [np.zeros(n_rows) for _ in costs]
    # per kinked cost, the (rows, panels) located and not yet priced
    pending = {k: [] for k, cost in enumerate(costs) if cost.kink}
    limit = ROW_BLOCK * spec.n_points
    for i0, i1 in row_blocks(n_rows):
        # every step is per row, so the blocks give the bits of the whole array
        norm = np.exp(log_rows[i0:i1] - row_max[i0:i1, None])
        disp = scores(i0, i1, norm) - nodes
        disp += offsets[i0:i1]
        norm /= row_mass[i0:i1, None]
        for k, cost in enumerate(costs):
            terms = cost(disp) * norm
            terms *= weights
            out[k][i0:i1] = terms.sum(axis=1)
            if k in pending:
                rows, panels = _kink_panels(cost.kink * disp * norm)
                pending[k].append((rows + i0, panels))
        for k, located in pending.items():
            if i1 == n_rows or sum(rows.size for rows, _ in located) >= limit:
                rows = np.concatenate([rows for rows, _ in located])
                panels = np.concatenate([panels for _, panels in located], axis=1)
                out[k] += _kink_price(rows, panels, step, n_rows)[0]
                located.clear()
    return out
