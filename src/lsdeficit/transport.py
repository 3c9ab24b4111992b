"""One-dimensional optimal transport via monotone rearrangement.

For distributions on the line with convex translation-invariant costs
c(x - z), the monotone map T = F_target^{-1} o F_source is optimal
(Villani, Topics in Optimal Transportation, Thm 2.18), so every transport
cost reduces to a single quadrature:

    cost(target, source) = int c(T(x) - x) d source(x).

The costs used here (squared distance, absolute distance, and the convex
gap delta(|x - z|), optionally with an inner scale) are all even in the
displacement, which makes the optimal cost symmetric in its arguments.

Every cost against a Gaussian N(m, s^2) (gamma itself, gamma moved by a
mean, each factor of a product through ``functionals._per_factor``) uses
that symmetry: one nodewise kernel maps the density toward the Gaussian,
T(x) = m + s Phi^-1(F(x)), on the density's own table, with F analytic for
Gaussians and mixtures and Simpson-tabulated otherwise, read off the
survival function above the median (``Density1D.normal_scores``).  The
kernel needs no quantile of the density on any node.  The 2D row path,
``costs_to_standard_gaussian_rows``, shares the displacement step, and
one mapping there serves two moves of the Gaussian (none, and per row).
A kinked cost (W1) has its Simpson kink error removed at every sign
change of the displacement (``quadrature._kink_defect``).

``TransportPlan1D`` carries the standard Gaussian (or any source) onto a
target by inverting the target's quantile: analytic for Gaussians,
interpolated in a CDF table otherwise, with Newton steps on the analytic
CDF for mixtures.  It serves the costs between two non-Gaussian densities
and the bounds that read the map itself.

A discrete oracle provides independent ground truth: north-west-corner
matching on sorted atoms (exact for convex costs), cross-checked for
small instances against exhaustive permutation search after splitting
the masses into equal units.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from scipy import special

from .deltafn import delta
from .densities import (
    _U_LO,
    Density1D,
    GaussianDensity,
    ProductDensity,
    _normal_scores,
    _table_tails,
    standard_gaussian,
)
from .errors import ArgumentError, DegeneratePlanError
from .quadrature import GridSpec, _kink_defect, integrate, integrate_values, simpson_weights
from .functionals import _per_factor
from .values import FunctionalValue

# Quantile arguments are clipped into [_U_LO, _U_HI] before inversion; the
# excluded tail mass is ~1e-300 on the low side and one ulp on the high
# side, both far below every quadrature weight they could multiply.
_U_HI = 1.0 - 1.1e-16

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
    if source is None or isinstance(source, GaussianDensity):
        return _cost_to_gaussian(target, source or standard_gaussian(), cost)
    plan = monotone_plan(target, source)
    nu = plan.source
    spec = _odd_spec(nu.eval_spec())

    def integrand(x: np.ndarray) -> np.ndarray:
        disp = plan.map_at(x) - x
        return cost(disp) * np.asarray(nu.pdf(x), dtype=float)

    r = integrate(integrand, spec, refine=True)
    return FunctionalValue(f"T[{cost.id}]", max(r.value, 0.0), r.abs_error_estimate)


def _check_pushforward(mu: Density1D, sigma: float) -> None:
    """The map's pushforward check: at 20 midpoint quantiles of ``mu``, F
    must return the quantile's level within 1e-5, and the map's derivative
    p(x) / phi_ref(T(x)) toward a Gaussian of scale ``sigma`` must be
    finite."""
    us = (np.arange(20) + 0.5) / 20.0
    xs = np.asarray(mu.quantile(us), dtype=float)
    levels = np.asarray(mu.cdf(xs), dtype=float)
    err = np.abs(levels - us)
    if not (np.isfinite(xs).all() and err.max() <= 1e-5):
        raise DegeneratePlanError(
            f"monotone map fails the pushforward check: max CDF error {err.max():.3e}"
        )
    z = special.ndtri(np.clip(levels, _U_LO, _U_HI))
    phi_ref = np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
    if not np.isfinite(np.asarray(mu.pdf(xs), dtype=float) / phi_ref).all():
        raise DegeneratePlanError("monotone map has a non-finite derivative")


def _cost_to_gaussian(mu: Density1D, ref: GaussianDensity, cost: CostFn) -> FunctionalValue:
    """int c(T(x) - x) dmu for T(x) = m + s Phi^-1(F(x)), the monotone map
    pushing ``mu`` onto ref = N(m, s^2), on mu's own table.

    The error adds to the Richardson estimate what moving each displacement
    by its roundoff and by the table error of F (``normal_scores``) can
    change: a convex even cost grows most when |d| grows.
    """
    if not isinstance(mu, Density1D):
        raise ArgumentError("transport costs to a Gaussian need a 1D density")
    m, s = ref.mean_param, math.sqrt(ref.var_param)
    _check_pushforward(mu, s)
    t = mu.table
    scores = mu.normal_scores
    mapped = m + s * scores.z
    disp = mapped - t.nodes
    kinked = cost.kink * disp * t.p if cost.kink else None
    r = integrate_values(cost(disp) * t.p, t.spec, refine=True, kinked=kinked)
    size = np.abs(disp)
    slack = _DISP_ULPS * (np.abs(t.nodes) + np.abs(mapped)) + s * scores.error
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
    moved_costs: tuple[CostFn, ...] = (),
    offsets: np.ndarray | float = 0.0,
) -> list[np.ndarray]:
    """Per-row optimal costs to the standard Gaussian, one array per cost,
    then one per moved cost: to the Gaussian moved by offsets[i] on row i.

    Each row of ``log_rows`` is a log density on ``spec``.  As in the 1D
    kernel, every row is mapped toward the Gaussian, T(x) = Phi^-1(F_row(x))
    with the survival table above the median, and integrated with the
    row's own weights; a kinked cost gets the kink correction at each row's
    own sign changes.  The map toward the moved Gaussian is offsets[i] + T,
    so moved costs reuse the mapping.
    """
    rows = np.exp(log_rows - log_rows.max(axis=1, keepdims=True))
    step = spec.step
    scores = _normal_scores(*_table_tails(rows, step))
    disp = scores - spec.nodes()[None, :]
    weights = simpson_weights(spec.n_points, step)[None, :]
    norm = rows / (rows * weights).sum(axis=1, keepdims=True)

    def row_costs(cost: CostFn, d: np.ndarray) -> np.ndarray:
        out = (cost(d) * norm * weights).sum(axis=1)
        if cost.kink:
            out += _kink_defect(cost.kink * d * norm, step)[0]
        return out

    out = [row_costs(cost, disp) for cost in costs]
    if moved_costs:
        moved = disp + np.reshape(offsets, (-1, 1))
        out += [row_costs(cost, moved) for cost in moved_costs]
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
