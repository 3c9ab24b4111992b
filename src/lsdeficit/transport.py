"""One-dimensional optimal transport via monotone rearrangement.

For distributions on the line with convex translation-invariant costs
c(x - z), the monotone map T = F_target^{-1} o F_source is optimal, so
every transport cost reduces to a single quadrature:

    cost(target, source) = int c(T(x) - x) d source(x).

The costs used here (squared distance, absolute distance, and the convex
gap delta(|x - z|), optionally with an inner scale) are all even in the
displacement, which makes the optimal cost symmetric in its arguments.
``transport_cost`` integrates over the source (the standard Gaussian by
default) and inverts the target's quantile: analytic for Gaussians,
interpolated in a CDF table otherwise, with Newton steps on the analytic CDF
for mixtures; products sum their factor costs (``functionals._per_factor``).
Only the 2D row path, ``costs_to_standard_gaussian_rows``, uses the
symmetry: it maps each row toward the Gaussian, whose quantile is analytic,
and that one mapping serves two moves of the Gaussian (none, and per row).

A discrete oracle provides independent ground truth: north-west-corner
matching on sorted atoms (exact for convex costs), cross-checked for
small instances against exhaustive permutation search after splitting
the masses into equal units.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import special
from scipy.integrate import cumulative_simpson

from .deltafn import delta
from .densities import Density1D, ProductDensity, standard_gaussian
from .errors import ArgumentError, DegeneratePlanError
from .quadrature import GridSpec, integrate, simpson_weights
from .functionals import _per_factor
from .values import FunctionalValue

# Quantile arguments are clipped into this window before inversion; the
# excluded tail mass is ~1e-300 on the low side and one ulp on the high
# side, both far below every quadrature weight they could multiply.
_U_LO = 1e-300
_U_HI = 1.0 - 1.1e-16


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


COST_SQ = CostFn("sq", lambda d: d * d)
COST_ABS = CostFn("abs", np.abs)
COST_DELTA = CostFn("delta", lambda d: delta(np.abs(d)))


def cost_delta_scaled(scale: float) -> CostFn:
    """delta(|d| / scale): the inner-scaled convex gap cost."""
    if not scale > 0:
        raise ArgumentError(f"cost scale must be positive, got {scale}")
    return CostFn(f"delta_scaled({scale:g})", lambda d: delta(np.abs(d) / scale))


def _odd_spec(spec: GridSpec) -> GridSpec:
    """Same window with an odd node count (pure Simpson; symmetric grids
    put displacement kinks exactly on a node)."""
    n = spec.n_points
    return spec if n % 2 == 1 else GridSpec(spec.x_lo, spec.x_hi, n + 1)


class TransportPlan1D:
    """Monotone rearrangement pushing ``source`` onto ``target``."""

    def __init__(self, target: Density1D, source: Density1D):
        if not isinstance(target, Density1D) or not isinstance(source, Density1D):
            raise ArgumentError("transport plans connect two 1D densities")
        self._target = target
        self._source = source
        self._validate()

    @property
    def target(self) -> Density1D:
        return self._target

    @property
    def source(self) -> Density1D:
        return self._source

    def map_at(self, x):
        u = np.clip(np.asarray(self._source.cdf(x), dtype=float), _U_LO, _U_HI)
        out = self._target.quantile(u)
        return out

    def derivative(self, x):
        """T'(x) = p_source(x) / p_target(T(x)) wherever both are positive."""
        t = self.map_at(x)
        num = np.asarray(self._source.pdf(x), dtype=float)
        den = np.asarray(self._target.pdf(t), dtype=float)
        return num / np.maximum(den, 1e-300)

    def _validate(self) -> None:
        us = (np.arange(20) + 0.5) / 20.0
        xs = np.asarray(self._source.quantile(us))
        mapped = self.map_at(xs)
        err = np.abs(np.asarray(self._target.cdf(mapped)) - us)
        if not np.isfinite(mapped).all() or err.max() > 1e-5:
            raise DegeneratePlanError(
                f"monotone map fails the pushforward check: max CDF error {err.max():.3e}"
            )
        if not np.isfinite(self.derivative(xs)).all():
            raise DegeneratePlanError("monotone map has a non-finite derivative")


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


def _transport_cost_1d(target: Density1D, source, cost: CostFn) -> FunctionalValue:
    plan = monotone_plan(target, source)
    nu = plan.source
    spec = _odd_spec(nu.eval_spec())

    def integrand(x: np.ndarray) -> np.ndarray:
        disp = plan.map_at(x) - x
        return cost(disp) * np.asarray(nu.pdf(x), dtype=float)

    r = integrate(integrand, spec, refine=True)
    return FunctionalValue(f"T[{cost.id}]", max(r.value, 0.0), r.abs_error_estimate)


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
    moved_costs: tuple[CostFn, ...] = (),
    offsets: np.ndarray | float = 0.0,
) -> list[np.ndarray]:
    """Per-row optimal costs to the standard Gaussian, one array per cost,
    then one per moved cost: to the Gaussian moved by offsets[i] on row i.

    Each row of ``log_rows`` is a log density on ``spec``.  The even costs
    make the optimal value symmetric, so instead of inverting each row's
    CDF we map every row toward the Gaussian: T(x) = ndtri(F_row(x)),
    integrated with the row's own weights.  The map toward the moved
    Gaussian is offsets[i] + T, so moved costs reuse the mapping.
    """
    rows = np.exp(log_rows - log_rows.max(axis=1, keepdims=True))
    step = spec.step
    cdf = cumulative_simpson(rows, dx=step, axis=1, initial=0.0)
    # quadratic interpolation may dip; restore monotonicity before inverting
    cdf = np.maximum.accumulate(np.maximum(cdf, 0.0), axis=1)
    cdf /= cdf[:, -1:]
    mapped = special.ndtri(np.clip(cdf, _U_LO, _U_HI))
    disp = mapped - spec.nodes()[None, :]
    weights = simpson_weights(spec.n_points, step)[None, :]
    norm = rows / (rows * weights).sum(axis=1, keepdims=True)
    out = [(cost(disp) * norm * weights).sum(axis=1) for cost in costs]
    if moved_costs:
        moved = disp + np.reshape(offsets, (-1, 1))
        out += [(cost(moved) * norm * weights).sum(axis=1) for cost in moved_costs]
    return out


# ---------------------------------------------------------------------------
# Discrete oracle
# ---------------------------------------------------------------------------

def _checked_atoms(points, masses, label: str) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(points, dtype=float)
    m = np.asarray(masses, dtype=float)
    if pts.ndim != 1 or pts.shape != m.shape:
        raise ArgumentError(f"{label}: points and masses must be equal-length vectors")
    if pts.size == 0 or pts.size > 64:
        raise ArgumentError(f"{label}: need between 1 and 64 atoms, got {pts.size}")
    if not (np.isfinite(pts).all() and np.isfinite(m).all()):
        raise ArgumentError(f"{label}: atoms must be finite")
    if np.any(m <= 0):
        raise ArgumentError(f"{label}: masses must be positive")
    if abs(math.fsum(m.tolist()) - 1.0) > 1e-9:
        raise ArgumentError(
            f"{label}: masses must sum to 1 within 1e-9, got {math.fsum(m.tolist())!r}"
        )
    order = np.argsort(pts, kind="stable")
    return pts[order], m[order]


def _monotone_matching_cost(
    a_pts: np.ndarray, a_m: np.ndarray, b_pts: np.ndarray, b_m: np.ndarray, cost: CostFn
) -> float:
    """North-west-corner sweep over sorted atoms: the monotone coupling."""
    terms = []
    ia = ib = 0
    ra, rb = a_m[0], b_m[0]
    while True:
        move = min(ra, rb)
        terms.append(move * float(cost(a_pts[ia] - b_pts[ib])))
        ra -= move
        rb -= move
        if ra <= 1e-15:
            ia += 1
            if ia == a_pts.size:
                break
            ra = a_m[ia]
        if rb <= 1e-15:
            ib += 1
            if ib == b_pts.size:
                break
            rb = b_m[ib]
    return math.fsum(terms)


def _unit_split(masses: np.ndarray, units: int) -> np.ndarray | None:
    """Partition sizes k_i with masses = k_i / units, or None."""
    scaled = masses * units
    rounded = np.rint(scaled)
    if np.all(np.abs(scaled - rounded) < 1e-9) and rounded.sum() == units:
        return rounded.astype(int)
    return None


@lru_cache(maxsize=8)
def _permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def _brute_force_cost(
    a_pts: np.ndarray, a_m: np.ndarray, b_pts: np.ndarray, b_m: np.ndarray, cost: CostFn
) -> float | None:
    """Exhaustive minimum over couplings, via equal-mass unit splitting.

    Returns None when the masses are not multiples of 1/L for some L <= 8
    (the search space is the permutation group of the unit atoms, which
    only covers all extreme couplings in the equal-mass case).
    """
    ka = kb = None
    for units in range(1, 9):  # both sides must share one unit size
        ka = _unit_split(a_m, units)
        kb = _unit_split(b_m, units)
        if ka is not None and kb is not None:
            break
    if ka is None or kb is None:
        return None
    units_a = np.repeat(a_pts, ka)
    units_b = np.repeat(b_pts, kb)
    perms = _permutations(units_a.size)
    costs = np.asarray(cost(units_a[perms] - units_b[None, :]), dtype=float)
    return float(costs.sum(axis=1).min() / units_a.size)


def discrete_ot_cost(
    a_points,
    a_masses,
    b_points,
    b_masses,
    cost: CostFn = COST_SQ,
    cross_check: str = "auto",
) -> float:
    """Exact optimal transport cost between two discrete distributions.

    ``cross_check``: "auto" verifies against exhaustive search whenever
    both sides have <= 8 atoms with commensurable masses, "force" demands
    that verification, "off" skips it.  Any disagreement beyond 1e-12 is a
    hard error: the two routes are independent by construction.
    """
    if cross_check not in ("auto", "force", "off"):
        raise ArgumentError(f"unknown cross_check mode {cross_check!r}")
    a_pts, a_m = _checked_atoms(a_points, a_masses, "first distribution")
    b_pts, b_m = _checked_atoms(b_points, b_masses, "second distribution")
    value = _monotone_matching_cost(a_pts, a_m, b_pts, b_m, cost)
    if cross_check != "off" and a_pts.size <= 8 and b_pts.size <= 8:
        brute = _brute_force_cost(a_pts, a_m, b_pts, b_m, cost)
        if brute is None:
            if cross_check == "force":
                raise ArgumentError(
                    "cross check requires masses that are multiples of 1/L, L <= 8"
                )
        elif abs(brute - value) > 1e-12:
            from .errors import NumericalError

            raise NumericalError(
                f"monotone matching ({value!r}) and exhaustive search ({brute!r}) disagree"
            )
    return value


def quantile_discretization(density: Density1D, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k equal-mass atoms at the midpoint quantiles u = (i - 1/2) / k."""
    if k < 1 or k > 64:
        raise ArgumentError(f"need 1 <= k <= 64 atoms, got {k}")
    us = (np.arange(k) + 0.5) / k
    return np.asarray(density.quantile(us), dtype=float), np.full(k, 1.0 / k)
