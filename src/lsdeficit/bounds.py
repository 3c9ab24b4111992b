"""Certificates for deficit lower bounds and companion inequalities.

Every bound is registered under a fixed string id.  Its evaluator returns
the two sides of the inequality in lhs >= rhs orientation and the constants
that entered them (and a note, where one applies); ``evaluate_bound`` alone
builds the BoundCertificate, adding the id and the tolerance, from which the
certificate reads its slack and its pass flag (slack >= -tol).  Hypotheses
are checked strictly and a violation raises HypothesisError naming the
unmet hypothesis, so that suite runs can record the entry as skipped rather
than failed.

Multi-coordinate transport quantities on coupled 2D grids are evaluated
through the per-coordinate decomposition (marginal plus conditional
slices).  For costs appearing on the right-hand side this replaces the
joint optimal cost with the slice-by-slice upper bound, which is the
quantity the chain of one dimensional inequalities actually controls;
certificates note when this substitution is in effect.  Bounds whose
weaker side would need the joint cost (where the substitution would cut
the wrong way) refuse 2D input instead.

Centered quantities (cor4.3, thm1.3, eq1.12, thm1.4) are read off the
given density against gamma_n moved by the conditional means; no moved
density is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import special

from .deltafn import LINEAR_BAND_CONSTANT, delta, delta_quadratic_floor
from .densities import (
    Density,
    Density1D,
    GaussianDensity,
    Grid2DDensity,
    ProductDensity,
    convolve,
    standard_gaussian,
    standard_gaussian_product,
)
from .errors import ArgumentError, HypothesisError, NumericalError
from .functionals import (
    _GRID2D_NAMES,
    _entropy_power,
    _grid2d_integrals,
    dim_of,
    entropy_power,
    fisher_information,
    lsi_deficit,
    relative_entropy,
    relative_fisher,
    shannon_entropy,
    total_variation,
)
from .quadrature import GridSpec, _exact_sum, integrate_values, simpson_weights
from .recentering import decompose_grid2d
from .transport import (
    COST_ABS,
    COST_DELTA,
    COST_SQ,
    CostFn,
    TransportPlan1D,
    cost_delta_scaled,
    monotone_plan,
    transport_cost,
)
from .values import FunctionalValue

DEFAULT_TOL = 1e-6

_MOMENT_SLACK = 1e-8
_MEAN_TOL = 1e-8

_TWO_PI_E = 2.0 * math.pi * math.e


@dataclass(frozen=True)
class BoundCertificate:
    """One evaluated inequality in lhs >= rhs orientation; the slack and the
    pass flag are read off the sides and the tolerance."""

    bound_id: str
    lhs: float
    rhs: float
    constants: Mapping[str, float | str]
    tol: float
    notes: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lhs) and math.isfinite(self.rhs)):
            raise NumericalError(
                f"certificate {self.bound_id!r} has non-finite sides "
                f"(lhs={self.lhs!r}, rhs={self.rhs!r})"
            )

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def passed(self) -> bool:
        return self.slack >= -self.tol

    def as_dict(self) -> dict:
        return {
            "bound_id": self.bound_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "pass": self.passed,
            "tol": self.tol,
            "constants": dict(self.constants),
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# Cached per-density statistics
# ---------------------------------------------------------------------------

_TENSOR_COSTS = (COST_DELTA, COST_SQ, COST_ABS)
_COST_DELTA_SCALED = cost_delta_scaled(math.sqrt(2.0 * math.pi))


# Each functional of a 1D or product density against gamma_n, by the name
# it has in ``_GRID2D_NAMES``.  The lambdas look the functions up when
# called, so a rebinding of this module's names (a tracer, a counting
# test) sees every call.
_FUNCTIONALS: dict[str, Callable[[Density], FunctionalValue]] = {
    "D": lambda mu: relative_entropy(mu, None),
    "I_plain": lambda mu: fisher_information(mu),
    "I_rel": lambda mu: relative_fisher(mu, None),
    "h": lambda mu: shannon_entropy(mu),
    "TV": lambda mu: total_variation(mu, None),
}


class _Stats:
    """Lazy, memoised functionals of one density against gamma_n.

    Evaluators read every functional, transport cost, transport plan, heat
    flow and centered quantity of their density through this memo, so one
    Workspace computes each of them once.  Functionals and transport costs
    are kept whole, as the ``FunctionalValue`` with its error estimate:
    D, I_plain, I_rel, h and TV under those names, and the entropy power,
    read off h, under N.  On a 2D grid the first read of any of the five
    stores all five from one row pass.  Mean-zero input reads its centered
    quantities from the as-is entries.  Entries are keyed by this density
    and the reference object; nothing is shared with another density by
    value.  Every cost, plan and default summand against gamma_n reads one
    gamma_n object (``gamma``), so its pushforward probe runs once.
    """

    def __init__(self, mu: Density):
        self.mu = mu
        self.n = dim_of(mu)
        self._memo: dict[object, object] = {}

    def _get(self, key, fn: Callable[[], object]):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    @property
    def gamma(self) -> Density:
        """gamma_n, one object for every use against this density."""

        def build():
            return standard_gaussian() if self.n == 1 else standard_gaussian_product(self.n)

        return self._get("gamma", build)

    # -- functionals -------------------------------------------------------
    def functional(self, name: str) -> FunctionalValue:
        """The functional ``name`` (of ``_GRID2D_NAMES``) against gamma_n."""
        memo = self._memo
        if name not in memo:
            if isinstance(self.mu, Grid2DDensity):
                memo.update(_grid2d_integrals(self.mu, _GRID2D_NAMES))
            else:
                memo[name] = _FUNCTIONALS[name](self.mu)
        return memo[name]

    @property
    def d(self) -> float:
        return self.functional("D").value

    @property
    def i_rel(self) -> float:
        return self.functional("I_rel").value

    @property
    def i_plain(self) -> float:
        return self.functional("I_plain").value

    @property
    def deficit(self) -> float:
        return 0.5 * self.i_rel - self.d

    @property
    def second_moment(self) -> float:
        return self._get("m2", lambda: float(self.mu.second_moment()))

    @property
    def mean_vec(self) -> np.ndarray:
        return self._get("mean", lambda: np.atleast_1d(np.asarray(self.mu.mean(), dtype=float)))

    @property
    def entropy_power(self) -> float:
        return self._get("N", lambda: _entropy_power(self.functional("h"), self.n)).value

    @property
    def tv(self) -> float:
        return self.functional("TV").value

    def evolved(self, t: float) -> Density:
        """Law of X + sqrt(t) Z (the heat flow at time t), memoised per t."""
        return self._get(("evolved", t), lambda: self.mu.heat_flow(t))

    def gamma_evolved(self, t: float) -> Density:
        """``gamma`` under the heat flow at time t, memoised per t."""
        return self._get(("gamma_evolved", t), lambda: self.gamma.heat_flow(t))

    # -- transport against gamma -------------------------------------------
    def cost(self, cost: CostFn, ref: Density | None = None) -> float:
        """Exact optimal ``cost`` from 1D or product input to ``ref``
        (default: gamma_n), memoised whole per ``ref`` object."""
        ref = self.gamma if ref is None else ref
        return self._get(("cost", cost.id, ref), lambda: transport_cost(self.mu, ref, cost)).value

    @property
    def w2sq(self) -> float:
        return self.cost(COST_SQ)

    @property
    def w2(self) -> float:
        return math.sqrt(max(self.w2sq, 0.0))

    @property
    def w1(self) -> float:
        return self.cost(COST_ABS)

    @property
    def tdelta(self) -> float:
        return self.cost(COST_DELTA)

    @property
    def plan(self) -> TransportPlan1D:
        """Monotone map carrying the standard Gaussian onto a 1D density."""
        return self._get("plan", lambda: monotone_plan(self.mu, self.gamma))

    @property
    def gamma_map(self) -> tuple[list[np.ndarray], np.ndarray]:
        """The plan's map T at each point array of ``_gamma_points`` and its
        derivative T' on the integration nodes, each evaluated once."""

        def build():
            plan = self.plan
            points = _gamma_points()
            mapped = [np.asarray(plan.map_at(x)) for x in points]
            return mapped, np.asarray(plan.derivative(points[0]), dtype=float)

        return self._get("gamma_map", build)

    # -- recentering by moving the reference -------------------------------
    @property
    def mean_gamma(self) -> Density | None:
        """gamma_n moved by E X (1D and product input); None when E X = 0."""

        def build():
            moved = [GaussianDensity(float(m), 1.0) for m in self.mean_vec]
            return moved[0] if self.n == 1 else ProductDensity(moved)

        return self._get("mean_gamma", build) if self.mean_vec.any() else None

    def _grid2d_pass(self) -> tuple[float, dict[str, float]]:
        """w2sq_upper and the centered parts of a 2D grid, from one row pass.

        Each part is measured against gamma moved by its own mean, so its
        W2^2 to gamma itself is the centered sq part plus that mean squared
        (the translation identity of ``w2sq_to_mean_translate``): t1^2 for
        the marginal, the marginal-weighted mean of t2(x1)^2 for the rows.
        """
        mu = self.mu
        t1, t2 = float(self.mean_vec[0]), mu.conditional_means()
        dec = decompose_grid2d(mu, _TENSOR_COSTS, (t1, t2))
        sq1, sq2 = dec.cost_parts["sq"]
        wx = simpson_weights(mu.spec_x.n_points, mu.spec_x.step)
        w2sq = math.fsum((sq1 + t1 * t1, sq2 + _exact_sum(wx * mu.row_marginal() * t2 * t2)))
        centered = {cid: math.fsum(parts) for cid, parts in dec.cost_parts.items()}
        return w2sq, {"D": math.fsum(dec.D_parts), **centered}

    @property
    def centered(self) -> dict[str, float]:
        """D and the delta, sq and abs costs after conditional recentering
        (per-coordinate upper bounds on 2D grids), all computed on first read."""
        if isinstance(self.mu, Grid2DDensity):
            return self._get("grid2d", self._grid2d_pass)[1]

        def build():
            ref = self.mean_gamma
            d = self.d if ref is None else relative_entropy(self.mu, ref).value
            return {"D": d, **{c.id: self.cost(c, ref) for c in _TENSOR_COSTS}}

        return self._get("centered", build)

    @property
    def w2sq_upper(self) -> float:
        """The W2^2 to gamma_n a bound may use: exact for 1D and product
        input, the per-coordinate upper bound for coupled 2D grids."""
        if not isinstance(self.mu, Grid2DDensity):
            return self.w2sq
        return self._get("grid2d", self._grid2d_pass)[0]

    @property
    def w2sq_to_mean_translate(self) -> float:
        """w2sq_upper of mu moved by -E X.

        For 1D and product input that is W2^2 to gamma_n moved by E X.  On
        2D grids the translation identity
        W2^2(mu(. + m), gamma) = W2^2(mu, gamma) - |m|^2 holds for the
        marginal and for every row (gamma has mean zero, and a rigid move
        leaves each row's CDF table unchanged), so it holds for the sum.
        """
        if not isinstance(self.mu, Grid2DDensity):
            return self.cost(COST_SQ, self.mean_gamma)
        m = self.mean_vec
        return self.w2sq_upper - float(m @ m)


class Workspace:
    """Shares _Stats across certificates, one per density object.  Each
    _Stats holds its density, so an id held here names one live object."""

    def __init__(self):
        self._by_id: dict[int, _Stats] = {}

    def stats(self, mu: Density) -> _Stats:
        hit = self._by_id.get(id(mu))
        if hit is None:
            hit = self._by_id[id(mu)] = _Stats(mu)
        return hit


# ---------------------------------------------------------------------------
# Hypothesis helpers
# ---------------------------------------------------------------------------

def _require_mean_zero(s: _Stats) -> None:
    worst = float(np.abs(s.mean_vec).max())
    if worst > _MEAN_TOL:
        raise HypothesisError(
            f"mean-zero hypothesis violated: |E X| = {worst:.3e} > {_MEAN_TOL}"
        )


def _require_moment(s: _Stats) -> None:
    if s.second_moment > s.n + _MOMENT_SLACK:
        raise HypothesisError(
            f"moment hypothesis violated: E|X|^2 = {s.second_moment:.6f} "
            f"exceeds n = {s.n}"
        )


def _require_eps(s: _Stats) -> float:
    eps = s.mu.convexity_lower_bound
    if eps is None:
        raise HypothesisError(
            "convexity hypothesis unavailable: no certified lower bound on the "
            "potential's second derivative"
        )
    return float(eps)


def _require_1d(s: _Stats, what: str) -> Density1D:
    if not isinstance(s.mu, Density1D):
        raise HypothesisError(f"{what} is defined for one coordinate only")
    return s.mu


def _require_exact_w2(s: _Stats) -> None:
    if isinstance(s.mu, Grid2DDensity):
        raise HypothesisError(
            "exact quadratic transport distance unavailable for coupled 2D grids"
        )


# ---------------------------------------------------------------------------
# Evaluators: each returns (lhs, rhs, constants) or (lhs, rhs, constants,
# notes) of its inequality lhs >= rhs
# ---------------------------------------------------------------------------

def _eval_lsi(s, opts):
    return 0.5 * s.i_rel, s.d, {}


def _eval_thm11a(s, opts):
    arg = s.i_plain / s.n - 1.0
    rhs = s.n * delta(arg)
    return s.i_rel - 2.0 * s.d, rhs, {"delta_arg": arg}


def _eval_thm11b(s, opts):
    _require_exact_w2(s)
    i = s.i_rel
    if i <= 1e-14:
        return i - 2.0 * s.d, 0.0, {}, "reference measure: both sides vanish"
    w = s.w2
    ratio = w / math.sqrt(i)
    arg = ratio * (s.i_plain / s.n - 1.0)
    rhs = (math.sqrt(i) - w) ** 2 + s.n * delta(arg)
    return i - 2.0 * s.d, rhs, {"w2_over_sqrt_i": ratio, "delta_arg": arg}


def _eval_eq18(s, opts):
    _require_moment(s)
    rhs = s.n * delta(s.i_rel / s.n)
    return s.i_rel - 2.0 * s.d, rhs, {}


def _eval_cor12(s, opts):
    _require_moment(s)
    _require_exact_w2(s)
    c = delta_quadratic_floor(4.0)
    rhs = c * s.w2sq**2 / s.n
    constants = {"c": c, "c_provenance": "derived-from-proof (quadratic floor on [0,4])"}
    return s.i_rel - 2.0 * s.d, rhs, constants


def _eval_hwi(s, opts):
    _require_exact_w2(s)
    w = s.w2
    lhs = w * math.sqrt(max(s.i_rel, 0.0)) - 0.5 * w * w
    return lhs, s.d, {"kappa": 1.0}


def _eval_hwi_eps(s, opts):
    _require_exact_w2(s)
    eps = float(opts.get("eps", 1.0))
    if not eps > 0:
        raise ArgumentError(f"hwi-eps needs eps > 0, got {eps}")
    lhs = s.i_rel / (2.0 * eps) + 0.5 * (eps - 1.0) * s.w2sq
    return lhs, s.d, {"eps": eps, "kappa": 1.0}


def _per_coordinate_note(s: _Stats) -> str:
    """Note of the bounds that read ``s.w2sq_upper``."""
    if isinstance(s.mu, Grid2DDensity):
        return "quadratic cost via per-coordinate upper bound"
    return ""


def _eval_talagrand(s, opts):
    return 2.0 * s.d, s.w2sq_upper, {}, _per_coordinate_note(s)


def _eval_eq14(s, opts):
    lhs = math.sqrt(max(s.i_rel, 0.0))
    rhs = math.sqrt(max(s.w2sq_upper, 0.0))
    return lhs, rhs, {}, _per_coordinate_note(s)


def _eval_pinsker(s, opts):
    return s.d, 0.5 * s.tv**2, {}


def _eval_stam(s, opts):
    lhs = s.i_plain * s.entropy_power / _TWO_PI_E
    return lhs, float(s.n), {"two_pi_e": _TWO_PI_E}


def _sum_law(s: _Stats, other: Density | None) -> Density:
    """Law of X + Y for independent X ~ mu and Y ~ other (default: the
    standard Gaussian), up to a translation.  Entropy and Fisher information
    ignore translations, so a Gaussian Y reads the memoised heat flow at its
    variance."""
    if other is None:
        return s.evolved(1.0)
    if isinstance(s.mu, Density1D) and isinstance(other, Density1D):
        if isinstance(other, GaussianDensity):
            return s.evolved(other.variance())
        return convolve(s.mu, other)
    raise HypothesisError(
        "independent-sum hypothesis unsupported: multi-coordinate input "
        "admits only the standard Gaussian as the second summand"
    )


def _eval_epi(s, opts):
    other = opts.get("other")
    lhs = entropy_power(_sum_law(s, other)).value
    rhs = s.entropy_power + entropy_power(other or s.gamma).value
    return lhs, rhs, {}


def _eval_cor22(s, opts):
    b = s.second_moment / s.n
    arg = s.i_rel / s.n + 2.0 - b
    if arg <= 0:
        raise NumericalError(f"log argument {arg!r} must be positive")
    lhs = 0.5 * s.n * math.log(arg) + 0.5 * s.n * (b - 1.0)
    constants: dict = {"b": b, "log_arg": arg}
    notes = ""
    if b <= 1.0 + _MOMENT_SLACK:
        constants["lhs_low_moment_variant"] = 0.5 * s.n * math.log(s.i_rel / s.n + 1.0)
        notes = "low-moment variant recorded in constants"
    return lhs, s.d, constants, notes


def _eval_lem32(s, opts):
    _require_exact_w2(s)
    t = float(opts.get("t", 1.0))
    if not t > 0:
        raise ArgumentError(f"lem3.2 needs t > 0, got {t}")
    other = opts.get("other")
    if other is not None and (isinstance(other, Grid2DDensity) or dim_of(other) != s.n):
        raise HypothesisError(
            "exact quadratic transport distance unavailable for this pair of shapes"
        )
    lhs = s.cost(COST_SQ, other) / (2.0 * t)
    ref = s.gamma_evolved(t) if other is None else other.heat_flow(t)
    rhs = relative_entropy(s.evolved(t), ref).value
    return lhs, rhs, {"t": t}


def _eval_lem33(s, opts):
    other = opts.get("other")
    lhs = 1.0 / fisher_information(_sum_law(s, other)).value
    other_fisher = float(s.n) if other is None else fisher_information(other).value
    rhs = 1.0 / s.i_plain + 1.0 / other_fisher
    return lhs, rhs, {}


def _eval_thm3t(s, opts):
    _require_exact_w2(s)
    i, i0, w, n = s.i_rel, s.i_plain, s.w2, s.n
    if "t" in opts:
        t = float(opts["t"])
        if not t > 0:
            raise ArgumentError(f"thm3-t needs t > 0, got {t}")
        source = "supplied"
    else:
        gap = math.sqrt(i) - w if i > 0 else 0.0
        if gap <= 1e-9 or w <= 0:
            raise HypothesisError(
                "optimal heat-flow time undefined: sqrt(I_rel) - W2 is not positive "
                "(the density is a translate of the reference)"
            )
        t = w / gap
        source = "optimal"
    rhs = (
        i
        - w * w / t
        - n * math.log((n + t * i0) / (n * (1.0 + t)))
        - (t / (1.0 + t)) * (i - i0 + n)
    )
    return i - 2.0 * s.d, rhs, {"t": t, "t_source": source}


def _eval_thm41(s, opts):
    mu = _require_1d(s, "the reinforced quadratic transport bound")
    if opts.get("median_variant", False):
        med = float(mu.quantile(0.5))
        if abs(med) > _MEAN_TOL:
            raise HypothesisError(
                f"median-zero hypothesis violated: median = {med:.3e}"
            )
        t_scaled = s.cost(_COST_DELTA_SCALED)
        rhs = 0.5 * s.w2sq + t_scaled
        constants = {
            "variant_constant": 1.0,
            "scaled_cost": _COST_DELTA_SCALED.id,
            "t_scaled": t_scaled,
        }
        return s.d, rhs, constants, "median-centered variant of the inner-scaled cost form"
    _require_mean_zero(s)
    t_scaled = s.cost(_COST_DELTA_SCALED)
    rhs = 0.5 * s.w2sq + s.tdelta / (8.0 * math.pi)
    constants = {
        "coef_tdelta": 1.0 / (8.0 * math.pi),
        "variant_constant": 0.25,
        "rhs_scaled_cost_variant": 0.5 * s.w2sq + 0.25 * t_scaled,
        "scaled_cost": _COST_DELTA_SCALED.id,
    }
    return s.d, rhs, constants


def _eval_thm42(s, opts):
    _require_1d(s, "the strengthened quadratic transport bound")
    _require_mean_zero(s)
    eps = _require_eps(s)
    c = LINEAR_BAND_CONSTANT
    rhs = (0.5 + c * min(1.0, math.sqrt(eps))) * s.w2sq
    constants = {"c": c, "eps": eps}
    return s.d, rhs, constants


def _ratio_or_zero(num: float, den: float) -> float:
    """num / den, or 0 where den <= 0 (at the reference measure); a NaN
    denominator stays NaN."""
    if den <= 0.0:
        return 0.0
    return num / den


def _eval_cor43(s, opts):
    _require_1d(s, "the one dimensional self-improvement")
    t_bar, w2sq_bar, d_bar = (s.centered[k] for k in ("delta", "sq", "D"))
    c_ratio = 4.0 * math.pi * (math.sqrt(1.0 + 1.0 / (4.0 * math.pi)) - 1.0)
    c_entropy = 1.0 / (128.0 * math.pi**2)
    rhs = _ratio_or_zero(0.5 * c_entropy * t_bar**2, d_bar)
    rhs_w2_form = _ratio_or_zero(c_ratio * t_bar**2, w2sq_bar)
    constants = {
        "c_entropy_form": c_entropy,
        "c_w2_form": c_ratio,
        "rhs_w2_form": rhs_w2_form,
        "t_delta_centered": t_bar,
        "d_centered": d_bar,
    }
    notes = "entropy-denominator form certified; distance-ratio form in constants"
    return s.deficit, rhs, constants, notes


def _eval_cor44(s, opts):
    _require_1d(s, "the log-concavity refinement")
    _require_mean_zero(s)
    eps = _require_eps(s)
    c = 0.5 * (math.sqrt(2.0 - math.log(2.0)) - 1.0) ** 2
    rhs = c * min(1.0, eps) * s.w2sq
    constants = {
        "c": c,
        "c_provenance": "derived-from-proof (square-root gain at unit argument)",
        "eps": eps,
    }
    return s.deficit, rhs, constants


def _eval_thm13(s, opts):
    c = 1.0 / (256.0 * math.pi**2)
    t_bar, d_bar = s.centered["delta"], s.centered["D"]
    rhs = c * _ratio_or_zero(t_bar**2, d_bar)
    constants: dict = {"c": c, "t_delta_centered": t_bar, "d_centered": d_bar}
    notes = ""
    if isinstance(s.mu, Grid2DDensity):
        notes = "transport numerator is the per-coordinate upper bound"
    return s.deficit, rhs, constants, notes


def _eval_eq112(s, opts):
    d_bar = s.centered["D"]
    if d_bar > 1.0 + _MOMENT_SLACK:
        raise HypothesisError(
            f"entropy-smallness hypothesis violated: centered D = {d_bar:.6f} > 1"
        )
    w1_bar = s.centered["abs"]
    notes = ""
    if not isinstance(s.mu, Density1D):
        notes = "first-order cost via per-coordinate upper bound"
    c = LINEAR_BAND_CONSTANT**2 / (256.0 * math.pi**2)
    rhs = c * _ratio_or_zero(w1_bar**4, d_bar)
    constants = {"c": c, "w1_centered": w1_bar, "d_centered": d_bar}
    return s.deficit, rhs, constants, notes


def _eval_thm14(s, opts):
    eps = _require_eps(s)
    c = LINEAR_BAND_CONSTANT
    w2sq_bar = s.centered["sq"]
    rhs = c * min(1.0, eps) * w2sq_bar
    notes = "companion mean-translate distance reported, not certified"
    if isinstance(s.mu, Grid2DDensity):
        notes = "quadratic cost via per-coordinate upper bound; " + notes
    constants = {
        "c": c,
        "c_provenance": "registry-fixed",
        "eps": eps,
        "w2sq_recentered": w2sq_bar,
        "companion_w2sq_to_mean_translate": s.w2sq_to_mean_translate,
    }
    return s.deficit, rhs, constants, notes


_CHEEGER_LAMBDA = math.sqrt(2.0 / math.pi)
# Gamma integrals of the map bounds: Simpson on these nodes, against phi
# there; the median reads the 8191 midpoint quantiles of gamma.  All three
# arrays are read-only.
_GAMMA_SPEC = GridSpec(-10.0, 10.0, 4097)
_GAMMA_NODES = _GAMMA_SPEC.nodes()
_GAMMA_PHI = np.exp(-0.5 * _GAMMA_NODES**2) / math.sqrt(2.0 * math.pi)
_GAMMA_QUANTILES = special.ndtri((np.arange(8191) + 0.5) / 8191.0)
_GAMMA_NODES.flags.writeable = False
_GAMMA_PHI.flags.writeable = False
_GAMMA_QUANTILES.flags.writeable = False


def _gamma_points() -> tuple[np.ndarray, np.ndarray]:
    """Where the map bounds read their functions: the nodes of the gamma
    integrals and the 8191 midpoint quantiles of gamma for the median."""
    return _GAMMA_NODES, _GAMMA_QUANTILES


def _gamma_integral(values: np.ndarray) -> float:
    """int g dgamma from g's values at the nodes of ``_GAMMA_SPEC``."""
    return integrate_values(values * _GAMMA_PHI, _GAMMA_SPEC).value


def _gamma_median(values: np.ndarray) -> float:
    """Median of g(X), X ~ gamma, from g at the quantiles of ``_gamma_points``."""
    k = values.size // 2
    return float(np.partition(values, k)[k])


def _eval_cheeger(s, opts):
    _require_1d(s, "the first-order isoperimetric comparison")
    f = opts.get("f")
    f_prime = opts.get("f_prime")
    nodes, quantiles = _gamma_points()
    if f is None:
        (t_nodes, t_quantiles), slope = s.gamma_map
        f_nodes, f_quantiles, f_prime = t_nodes - nodes, t_quantiles - quantiles, slope - 1.0
    else:
        if f_prime is None:
            h = 1e-6
            f_prime = lambda x, _f=f: (
                np.asarray(_f(np.asarray(x) + h)) - np.asarray(_f(np.asarray(x) - h))
            ) / (2.0 * h)
        f_nodes, f_quantiles = (np.asarray(f(x), dtype=float) for x in (nodes, quantiles))
        f_prime = np.asarray(f_prime(nodes), dtype=float)
    med = _gamma_median(f_quantiles)
    lhs = _gamma_integral(np.abs(f_prime))
    rhs = _CHEEGER_LAMBDA * _gamma_integral(np.abs(f_nodes - med))
    gen_lhs = _gamma_integral(delta(2.0 * np.abs(f_prime) / _CHEEGER_LAMBDA))
    gen_rhs = _gamma_integral(delta(np.abs(f_nodes - med)))
    constants = {
        "lambda": _CHEEGER_LAMBDA,
        "median": med,
        "c_L": 2.0,
        "delta_form_lhs": gen_lhs,
        "delta_form_rhs": gen_rhs,
        "delta_form_slack": gen_lhs - gen_rhs,
    }
    return lhs, rhs, constants, "convex-gap generalisation recorded in constants"


def _eval_talagrand_map(s, opts):
    _require_1d(s, "the transport-map refinement")
    slope = s.gamma_map[1]
    if np.any(slope <= 0):
        raise NumericalError("transport map derivative must stay positive")
    gap = _gamma_integral(delta(slope - 1.0))
    rhs = 0.5 * s.w2sq + gap
    return s.d, rhs, {"map_gap_integral": gap}


# ---------------------------------------------------------------------------
# Registry and entry points
# ---------------------------------------------------------------------------

_OPTLESS = frozenset()

_REGISTRY: dict[str, tuple[Callable, frozenset[str]]] = {
    "lsi": (_eval_lsi, _OPTLESS),
    "thm1.1-a": (_eval_thm11a, _OPTLESS),
    "thm1.1-b": (_eval_thm11b, _OPTLESS),
    "eq1.8": (_eval_eq18, _OPTLESS),
    "cor1.2": (_eval_cor12, _OPTLESS),
    "hwi": (_eval_hwi, _OPTLESS),
    "hwi-eps": (_eval_hwi_eps, frozenset({"eps"})),
    "talagrand": (_eval_talagrand, _OPTLESS),
    "eq1.4": (_eval_eq14, _OPTLESS),
    "pinsker": (_eval_pinsker, _OPTLESS),
    "stam": (_eval_stam, _OPTLESS),
    "epi": (_eval_epi, frozenset({"other"})),
    "cor2.2": (_eval_cor22, _OPTLESS),
    "lem3.2": (_eval_lem32, frozenset({"t", "other"})),
    "lem3.3": (_eval_lem33, frozenset({"other"})),
    "thm3-t": (_eval_thm3t, frozenset({"t"})),
    "thm4.1": (_eval_thm41, frozenset({"median_variant"})),
    "thm4.2": (_eval_thm42, _OPTLESS),
    "cor4.3": (_eval_cor43, _OPTLESS),
    "cor4.4": (_eval_cor44, _OPTLESS),
    "thm1.3": (_eval_thm13, _OPTLESS),
    "eq1.12": (_eval_eq112, _OPTLESS),
    "thm1.4": (_eval_thm14, _OPTLESS),
    "cheeger": (_eval_cheeger, frozenset({"f", "f_prime"})),
    "talagrand-map": (_eval_talagrand_map, _OPTLESS),
}

BOUND_IDS: tuple[str, ...] = tuple(_REGISTRY)


def evaluate_bound(
    bound_id: str,
    mu: Density,
    opts: Mapping | None = None,
    tol: float = DEFAULT_TOL,
    workspace: Workspace | None = None,
) -> BoundCertificate:
    """Evaluate one registered inequality on a density.

    Raises HypothesisError when a precondition fails (named in the
    message) and ArgumentError for an unknown id or malformed options.
    """
    if bound_id not in _REGISTRY:
        raise ArgumentError(f"unknown bound id {bound_id!r}")
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol >= 0):
        raise ArgumentError(f"tol must be a nonnegative number, got {tol!r}")
    evaluator, allowed = _REGISTRY[bound_id]
    opts = dict(opts or {})
    if not opts.keys() <= allowed:
        extra = sorted(set(opts) - allowed)
        raise ArgumentError(f"bound {bound_id!r} does not accept options {extra}")
    ws = workspace or Workspace()
    lhs, rhs, constants, *notes = evaluator(ws.stats(mu), opts)
    return BoundCertificate(bound_id, float(lhs), float(rhs), constants, float(tol), *notes)


@dataclass(frozen=True)
class SuiteEntry:
    """One (density, bound) cell of a certification run."""

    label: str
    index: int
    bound_id: str
    certificate: BoundCertificate | None
    skipped: str | None

    @property
    def passed(self) -> bool | None:
        return None if self.certificate is None else self.certificate.passed

    def as_dict(self) -> dict:
        out = {"label": self.label, "index": self.index, "bound_id": self.bound_id}
        if self.certificate is None:
            out["skipped"] = self.skipped
        else:
            out["certificate"] = self.certificate.as_dict()
        return out


def certify_suite(
    battery: Sequence,
    bound_ids: Sequence[str] | None = None,
    tol: float = DEFAULT_TOL,
    opts: Mapping | None = None,
) -> list[SuiteEntry]:
    """Evaluate bounds over a battery; hypothesis failures become skips.

    Battery entries are densities or (label, density) pairs.  Output is
    ordered by (bound_id, battery index).
    """
    ids = list(bound_ids) if bound_ids is not None else list(BOUND_IDS)
    for bid in ids:
        if bid not in _REGISTRY:
            raise ArgumentError(f"unknown bound id {bid!r}")
    members: list[tuple[str, Density]] = []
    for i, entry in enumerate(battery):
        if isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[0], str):
            members.append(entry)
        else:
            members.append((f"density{i}", entry))
    ws = Workspace()
    out: list[SuiteEntry] = []
    for bid in sorted(ids):
        for idx, (label, mu) in enumerate(members):
            try:
                cert = evaluate_bound(bid, mu, opts=opts, tol=tol, workspace=ws)
                out.append(SuiteEntry(label, idx, bid, cert, None))
            except HypothesisError as exc:
                out.append(SuiteEntry(label, idx, bid, None, str(exc)))
    return out


def equality_probe(mu: Density) -> dict:
    """Deficit together with the distance to the best Gaussian translate."""
    deficit = lsi_deficit(mu).value  # refuses unsupported density types
    w2sq = _Stats(mu).w2sq_to_mean_translate
    return {"deficit": deficit, "w2_to_best_translate": math.sqrt(max(w2sq, 0.0))}
