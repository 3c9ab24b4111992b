"""Certificates for deficit lower bounds and companion inequalities.

Every bound is registered under a fixed string id and evaluated into a
BoundCertificate holding both sides of the inequality in lhs >= rhs
orientation, the slack, the constants that entered the right-hand side,
and a pass flag (slack >= -tol).  Hypotheses are checked strictly and a
violation raises HypothesisError naming the unmet hypothesis, so that
suite runs can record the entry as skipped rather than failed.

Multi-coordinate transport quantities on coupled 2D grids are evaluated
through the per-coordinate decomposition (marginal plus conditional
slices).  For costs appearing on the right-hand side this replaces the
joint optimal cost with the slice-by-slice upper bound, which is the
quantity the chain of one dimensional inequalities actually controls;
certificates note when this substitution is in effect.  Bounds whose
weaker side would need the joint cost (where the substitution would cut
the wrong way) refuse 2D input instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import special

from .deltafn import LINEAR_BAND_CONSTANT, delta
from .densities import (
    Density,
    Density1D,
    GaussianDensity,
    Grid2DDensity,
    ProductDensity,
    convolve,
    standard_gaussian,
)
from .errors import ArgumentError, HypothesisError, NumericalError
from .functionals import (
    _evolved,
    dim_of,
    entropy_power,
    fisher_information,
    lsi_deficit,
    relative_entropy,
    relative_fisher,
    total_variation,
)
from .quadrature import GridSpec, integrate
from .recentering import RecenteredDensity, TensorDecomposition, recenter, tensorise
from .transport import (
    COST_ABS,
    COST_DELTA,
    COST_SQ,
    cost_delta_scaled,
    monotone_plan,
    product_transport_bound,
    transport_cost,
)
from .values import additive

DEFAULT_TOL = 1e-6

_MOMENT_SLACK = 1e-8
_MEAN_TOL = 1e-8

_TWO_PI_E = 2.0 * math.pi * math.e


@dataclass(frozen=True)
class BoundCertificate:
    """One evaluated inequality in lhs >= rhs orientation."""

    bound_id: str
    lhs: float
    rhs: float
    slack: float
    constants: Mapping[str, float | str]
    passed: bool
    tol: float
    notes: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lhs) and math.isfinite(self.rhs)):
            raise NumericalError(
                f"certificate {self.bound_id!r} has non-finite sides "
                f"(lhs={self.lhs!r}, rhs={self.rhs!r})"
            )
        if self.passed != (self.slack >= -self.tol):
            raise NumericalError(f"certificate {self.bound_id!r} pass flag inconsistent")

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


def _cert(bound_id, lhs, rhs, constants, tol, notes=""):
    lhs, rhs = float(lhs), float(rhs)
    slack = lhs - rhs
    return BoundCertificate(
        bound_id=bound_id,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        constants=constants,
        passed=slack >= -tol,
        tol=tol,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Cached per-density statistics
# ---------------------------------------------------------------------------

def _exact_w2sq(mu: Density) -> float:
    """W2^2 to the standard Gaussian, coordinate by coordinate."""
    if isinstance(mu, Density1D):
        return transport_cost(mu, None, COST_SQ).value
    if isinstance(mu, ProductDensity):
        return product_transport_bound(mu, COST_SQ).value
    raise HypothesisError(
        "exact quadratic transport distance unavailable: coupled 2D grids "
        "only admit the per-coordinate upper bound"
    )


_TENSOR_COSTS = (COST_DELTA, COST_SQ, COST_ABS)


class _Stats:
    """Lazy, memoised functionals of one density against gamma_n."""

    def __init__(self, mu: Density):
        self.mu = mu
        self.n = dim_of(mu)
        self._memo: dict[object, object] = {}

    def _get(self, key, fn: Callable[[], object]):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    # -- scalar functionals ------------------------------------------------
    @property
    def d(self) -> float:
        return self._get("d", lambda: relative_entropy(self.mu, None).value)

    @property
    def i_rel(self) -> float:
        return self._get("i_rel", lambda: relative_fisher(self.mu, None).value)

    @property
    def i_plain(self) -> float:
        return self._get("i_plain", lambda: fisher_information(self.mu).value)

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
        return self._get("epow", lambda: entropy_power(self.mu).value)

    @property
    def tv(self) -> float:
        return self._get("tv", lambda: total_variation(self.mu, None).value)

    def evolved(self, t: float) -> Density:
        """Law of X + sqrt(t) Z (the heat flow at time t), memoised per t."""
        return self._get(("evolved", t), lambda: _evolved(self.mu, t))

    # -- transport against gamma -------------------------------------------
    @property
    def w2sq(self) -> float:
        return self._get("w2sq", lambda: _exact_w2sq(self.mu))

    @property
    def w2(self) -> float:
        return math.sqrt(max(self.w2sq, 0.0))

    @property
    def w1(self) -> float:
        mu = self.mu
        if not isinstance(mu, Density1D):
            raise HypothesisError("exact first-order transport distance is 1D-only")
        return self._get("w1", lambda: transport_cost(mu, None, COST_ABS).value)

    @property
    def tdelta(self) -> float:
        mu = self.mu
        if not isinstance(mu, Density1D):
            raise HypothesisError("exact convex-gap transport cost is 1D-only")
        return self._get("tdelta", lambda: transport_cost(mu, None, COST_DELTA).value)

    # -- recentering and per-coordinate decomposition -----------------------
    @property
    def recentered(self) -> RecenteredDensity:
        return self._get("recentered", lambda: recenter(self.mu))

    @property
    def tensor_recentered(self) -> TensorDecomposition:
        return self._get(
            "tensor_rec",
            lambda: tensorise(self.recentered.recentered, costs=_TENSOR_COSTS),
        )

    @property
    def tensor_direct(self) -> TensorDecomposition:
        return self._get("tensor_dir", lambda: tensorise(self.mu, costs=_TENSOR_COSTS))

    def recentered_part_sum(self, cost_id: str) -> float:
        return math.fsum(self.tensor_recentered.cost_parts[cost_id])

    @property
    def d_recentered(self) -> float:
        return math.fsum(self.tensor_recentered.D_parts)


class Workspace:
    """Shares _Stats across certificates; keeps densities alive for id keys."""

    def __init__(self):
        self._by_id: dict[int, tuple[Density, _Stats]] = {}

    def stats(self, mu: Density) -> _Stats:
        key = id(mu)
        hit = self._by_id.get(key)
        if hit is None or hit[0] is not mu:
            hit = (mu, _Stats(mu))
            self._by_id[key] = hit
        return hit[1]


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


def _default_other(s: _Stats) -> Density:
    if isinstance(s.mu, Density1D):
        return standard_gaussian()
    if isinstance(s.mu, ProductDensity):
        return ProductDensity([standard_gaussian() for _ in range(s.n)])
    return ProductDensity([standard_gaussian(), standard_gaussian()])


def _check_opts(bound_id: str, opts: Mapping, allowed: frozenset[str]) -> None:
    extra = set(opts) - allowed
    if extra:
        raise ArgumentError(f"bound {bound_id!r} does not accept options {sorted(extra)}")


# ---------------------------------------------------------------------------
# Evaluators (lhs >= rhs)
# ---------------------------------------------------------------------------

def _eval_lsi(s, opts, tol):
    return _cert("lsi", 0.5 * s.i_rel, s.d, {}, tol)


def _eval_thm11a(s, opts, tol):
    arg = s.i_plain / s.n - 1.0
    rhs = s.n * delta(arg)
    return _cert("thm1.1-a", s.i_rel - 2.0 * s.d, rhs, {"delta_arg": arg}, tol)


def _eval_thm11b(s, opts, tol):
    _require_exact_w2(s)
    i = s.i_rel
    if i <= 1e-14:
        return _cert(
            "thm1.1-b", i - 2.0 * s.d, 0.0, {}, tol, notes="reference measure: both sides vanish"
        )
    w = s.w2
    ratio = w / math.sqrt(i)
    arg = ratio * (s.i_plain / s.n - 1.0)
    rhs = (math.sqrt(i) - w) ** 2 + s.n * delta(arg)
    return _cert(
        "thm1.1-b",
        i - 2.0 * s.d,
        rhs,
        {"w2_over_sqrt_i": ratio, "delta_arg": arg},
        tol,
    )


def _eval_eq18(s, opts, tol):
    _require_moment(s)
    rhs = s.n * delta(s.i_rel / s.n)
    return _cert("eq1.8", s.i_rel - 2.0 * s.d, rhs, {}, tol)


def _eval_cor12(s, opts, tol):
    _require_moment(s)
    _require_exact_w2(s)
    c = delta(4.0) / 16.0
    rhs = c * s.w2sq**2 / s.n
    constants = {"c": c, "c_provenance": "derived-from-proof (quadratic floor on [0,4])"}
    return _cert("cor1.2", s.i_rel - 2.0 * s.d, rhs, constants, tol)


def _eval_hwi(s, opts, tol):
    _require_exact_w2(s)
    w = s.w2
    lhs = w * math.sqrt(max(s.i_rel, 0.0)) - 0.5 * w * w
    return _cert("hwi", lhs, s.d, {"kappa": 1.0}, tol)


def _eval_hwi_eps(s, opts, tol):
    _require_exact_w2(s)
    eps = float(opts.get("eps", 1.0))
    if not eps > 0:
        raise ArgumentError(f"hwi-eps needs eps > 0, got {eps}")
    lhs = s.i_rel / (2.0 * eps) + 0.5 * (eps - 1.0) * s.w2sq
    return _cert("hwi-eps", lhs, s.d, {"eps": eps, "kappa": 1.0}, tol)


def _eval_talagrand(s, opts, tol):
    notes = ""
    if isinstance(s.mu, Grid2DDensity):
        rhs = math.fsum(s.tensor_direct.cost_parts["sq"])
        notes = "quadratic cost via per-coordinate upper bound"
    else:
        rhs = s.w2sq
    return _cert("talagrand", 2.0 * s.d, rhs, {}, tol, notes=notes)


def _eval_eq14(s, opts, tol):
    notes = ""
    if isinstance(s.mu, Grid2DDensity):
        rhs = math.sqrt(max(math.fsum(s.tensor_direct.cost_parts["sq"]), 0.0))
        notes = "quadratic cost via per-coordinate upper bound"
    else:
        rhs = s.w2
    return _cert("eq1.4", math.sqrt(max(s.i_rel, 0.0)), rhs, {}, tol, notes=notes)


def _eval_pinsker(s, opts, tol):
    return _cert("pinsker", s.d, 0.5 * s.tv**2, {}, tol)


def _eval_stam(s, opts, tol):
    lhs = s.i_plain * s.entropy_power / _TWO_PI_E
    return _cert("stam", lhs, float(s.n), {"two_pi_e": _TWO_PI_E}, tol)


def _eval_epi(s, opts, tol):
    other = opts.get("other")
    if other is None:
        summed = s.evolved(1.0)
        other_pow = entropy_power(_default_other(s)).value
    elif isinstance(other, GaussianDensity) and isinstance(s.mu, Density1D):
        summed = s.evolved(other.variance())
        other_pow = entropy_power(other).value
    elif isinstance(other, Density1D) and isinstance(s.mu, Density1D):
        summed = convolve(s.mu, other)
        other_pow = entropy_power(other).value
    else:
        raise HypothesisError(
            "independent-sum hypothesis unsupported: multi-coordinate input "
            "admits only the standard Gaussian as the second summand"
        )
    lhs = entropy_power(summed).value
    rhs = s.entropy_power + other_pow
    return _cert("epi", lhs, rhs, {}, tol)


def _eval_cor22(s, opts, tol):
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
    return _cert("cor2.2", lhs, s.d, constants, tol, notes=notes)


def _heat(other: Density, t: float) -> Density:
    """Law of Y + sqrt(t) Z; analytic for Gaussian shapes."""
    if isinstance(other, GaussianDensity):
        return GaussianDensity(other.mean(), other.variance() + t)
    if isinstance(other, ProductDensity) and all(
        isinstance(f, GaussianDensity) for f in other.factors
    ):
        return ProductDensity(
            [GaussianDensity(f.mean(), f.variance() + t) for f in other.factors]
        )
    return _evolved(other, t)


def _w2sq_between(mu: Density, nu: Density) -> float:
    if isinstance(mu, Density1D) and isinstance(nu, Density1D):
        return transport_cost(mu, nu, COST_SQ).value
    if (
        isinstance(mu, ProductDensity)
        and isinstance(nu, ProductDensity)
        and mu.dim == nu.dim
    ):
        return additive(
            transport_cost(a, b, COST_SQ) for a, b in zip(mu.factors, nu.factors)
        ).value
    raise HypothesisError(
        "exact quadratic transport distance unavailable for this pair of shapes"
    )


def _eval_lem32(s, opts, tol):
    _require_exact_w2(s)
    t = float(opts.get("t", 1.0))
    if not t > 0:
        raise ArgumentError(f"lem3.2 needs t > 0, got {t}")
    other = opts.get("other") or _default_other(s)
    lhs = _w2sq_between(s.mu, other) / (2.0 * t)
    rhs = relative_entropy(s.evolved(t), _heat(other, t)).value
    return _cert("lem3.2", lhs, rhs, {"t": t}, tol)


def _eval_lem33(s, opts, tol):
    other = opts.get("other")
    if other is None:
        summed = s.evolved(1.0)
        other_fisher = float(s.n)
    elif isinstance(other, Density1D) and isinstance(s.mu, Density1D):
        if isinstance(other, GaussianDensity):
            summed = _evolved(s.mu.shifted(other.mean()), other.variance())
        else:
            summed = convolve(s.mu, other)
        other_fisher = fisher_information(other).value
    else:
        raise HypothesisError(
            "independent-sum hypothesis unsupported: multi-coordinate input "
            "admits only the standard Gaussian as the second summand"
        )
    lhs = 1.0 / fisher_information(summed).value
    rhs = 1.0 / s.i_plain + 1.0 / other_fisher
    return _cert("lem3.3", lhs, rhs, {}, tol)


def _eval_thm3t(s, opts, tol):
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
    return _cert(
        "thm3-t", i - 2.0 * s.d, rhs, {"t": t, "t_source": source}, tol
    )


def _eval_thm41(s, opts, tol):
    mu = _require_1d(s, "the reinforced quadratic transport bound")
    median_variant = bool(opts.get("median_variant", False))
    scaled_cost = cost_delta_scaled(math.sqrt(2.0 * math.pi))
    t_scaled = transport_cost(mu, None, scaled_cost).value
    if median_variant:
        med = float(mu.quantile(0.5))
        if abs(med) > _MEAN_TOL:
            raise HypothesisError(
                f"median-zero hypothesis violated: median = {med:.3e}"
            )
        rhs = 0.5 * s.w2sq + 1.0 * t_scaled
        constants = {
            "variant_constant": 1.0,
            "scaled_cost": scaled_cost.id,
            "t_scaled": t_scaled,
        }
        return _cert(
            "thm4.1", s.d, rhs, constants, tol,
            notes="median-centered variant of the inner-scaled cost form",
        )
    _require_mean_zero(s)
    rhs = 0.5 * s.w2sq + s.tdelta / (8.0 * math.pi)
    constants = {
        "coef_tdelta": 1.0 / (8.0 * math.pi),
        "variant_constant": 0.25,
        "rhs_scaled_cost_variant": 0.5 * s.w2sq + 0.25 * t_scaled,
        "scaled_cost": scaled_cost.id,
    }
    return _cert("thm4.1", s.d, rhs, constants, tol)


def _eval_thm42(s, opts, tol):
    _require_1d(s, "the strengthened quadratic transport bound")
    _require_mean_zero(s)
    eps = _require_eps(s)
    c = LINEAR_BAND_CONSTANT
    rhs = (0.5 + c * min(1.0, math.sqrt(eps))) * s.w2sq
    constants = {"c": c, "eps": eps}
    return _cert("thm4.2", s.d, rhs, constants, tol)


def _eval_cor43(s, opts, tol):
    _require_1d(s, "the one dimensional self-improvement")
    centered = s.recentered.recentered
    t_bar = transport_cost(centered, None, COST_DELTA).value
    w2sq_bar = transport_cost(centered, None, COST_SQ).value
    d_bar = relative_entropy(centered, None).value
    c_ratio = 4.0 * math.pi * (math.sqrt(1.0 + 1.0 / (4.0 * math.pi)) - 1.0)
    c_entropy = 1.0 / (128.0 * math.pi**2)
    rhs = 0.5 * c_entropy * t_bar**2 / d_bar if d_bar > 0 else 0.0
    rhs_w2_form = c_ratio * t_bar**2 / w2sq_bar if w2sq_bar > 0 else 0.0
    constants = {
        "c_entropy_form": c_entropy,
        "c_w2_form": c_ratio,
        "rhs_w2_form": rhs_w2_form,
        "t_delta_centered": t_bar,
        "d_centered": d_bar,
    }
    return _cert(
        "cor4.3", s.deficit, rhs, constants, tol,
        notes="entropy-denominator form certified; distance-ratio form in constants",
    )


def _eval_cor44(s, opts, tol):
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
    return _cert("cor4.4", s.deficit, rhs, constants, tol)


def _ratio_or_zero(num_sq: float, den: float) -> float:
    if den <= 0.0:
        return 0.0
    return num_sq / den


def _eval_thm13(s, opts, tol):
    c = 1.0 / (256.0 * math.pi**2)
    t_bar = s.recentered_part_sum("delta")
    d_bar = s.d_recentered
    rhs = c * _ratio_or_zero(t_bar**2, d_bar)
    constants: dict = {"c": c, "t_delta_centered": t_bar, "d_centered": d_bar}
    notes = ""
    if isinstance(s.mu, Grid2DDensity):
        notes = "transport numerator is the per-coordinate upper bound"
    return _cert("thm1.3", s.deficit, rhs, constants, tol, notes=notes)


def _eval_eq112(s, opts, tol):
    d_bar = s.d_recentered
    if d_bar > 1.0 + _MOMENT_SLACK:
        raise HypothesisError(
            f"entropy-smallness hypothesis violated: centered D = {d_bar:.6f} > 1"
        )
    if isinstance(s.mu, Density1D):
        w1_bar = transport_cost(s.recentered.recentered, None, COST_ABS).value
        notes = ""
    else:
        w1_bar = s.recentered_part_sum("abs")
        notes = "first-order cost via per-coordinate upper bound"
    c = LINEAR_BAND_CONSTANT**2 / (256.0 * math.pi**2)
    rhs = c * _ratio_or_zero(w1_bar**4, d_bar)
    constants = {"c": c, "w1_centered": w1_bar, "d_centered": d_bar}
    return _cert("eq1.12", s.deficit, rhs, constants, tol, notes=notes)


def _eval_thm14(s, opts, tol):
    eps = _require_eps(s)
    c = LINEAR_BAND_CONSTANT
    notes = ""
    if isinstance(s.mu, Grid2DDensity):
        w2sq_bar = s.recentered_part_sum("sq")
        notes = "quadratic cost via per-coordinate upper bound"
    else:
        w2sq_bar = _exact_w2sq(s.recentered.recentered)
    rhs = c * min(1.0, eps) * w2sq_bar
    companion = _w2sq_to_mean_translate(s.mu, s.mean_vec)
    constants = {
        "c": c,
        "c_provenance": "registry-fixed",
        "eps": eps,
        "w2sq_recentered": w2sq_bar,
        "companion_w2sq_to_mean_translate": companion,
    }
    return _cert(
        "thm1.4", s.deficit, rhs, constants, tol,
        notes=(notes + ("; " if notes else "")
               + "companion mean-translate distance reported, not certified"),
    )


def _w2sq_to_mean_translate(mu: Density, mean: np.ndarray) -> float:
    """W2^2 from mu translated by -mean to the standard Gaussian (the
    per-coordinate upper bound for coupled 2D grids)."""
    if isinstance(mu, Grid2DDensity):
        translated = mu.translated(-float(mean[0]), -float(mean[1]))
        return math.fsum(tensorise(translated, costs=(COST_SQ,)).T_parts)
    offset = -mean if isinstance(mu, ProductDensity) else -float(mean[0])
    return _exact_w2sq(mu.shifted(offset))


_CHEEGER_LAMBDA = math.sqrt(2.0 / math.pi)


def _gamma_integral(fn: Callable[[np.ndarray], np.ndarray]) -> float:
    spec = GridSpec(-10.0, 10.0, 4097)
    phi = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return integrate(lambda x: np.asarray(fn(x), dtype=float) * phi(x), spec, refine=True).value


def _gamma_median(fn: Callable[[np.ndarray], np.ndarray]) -> float:
    us = (np.arange(8191) + 0.5) / 8191.0
    vals = np.sort(np.asarray(fn(special.ndtri(us)), dtype=float))
    return float(vals[vals.size // 2])


def _eval_cheeger(s, opts, tol):
    mu = _require_1d(s, "the first-order isoperimetric comparison")
    f = opts.get("f")
    f_prime = opts.get("f_prime")
    if f is None:
        plan = monotone_plan(mu, None)
        f = lambda x: np.asarray(plan.map_at(x)) - np.asarray(x, dtype=float)
        f_prime = lambda x: np.asarray(plan.derivative(x)) - 1.0
    elif f_prime is None:
        h = 1e-6
        f_prime = lambda x, _f=f: (
            np.asarray(_f(np.asarray(x) + h)) - np.asarray(_f(np.asarray(x) - h))
        ) / (2.0 * h)
    med = _gamma_median(f)
    lhs = _gamma_integral(lambda x: np.abs(f_prime(x)))
    rhs = _CHEEGER_LAMBDA * _gamma_integral(lambda x: np.abs(np.asarray(f(x)) - med))
    gen_lhs = _gamma_integral(
        lambda x: delta(2.0 * np.abs(f_prime(x)) / _CHEEGER_LAMBDA)
    )
    gen_rhs = _gamma_integral(lambda x: delta(np.abs(np.asarray(f(x)) - med)))
    constants = {
        "lambda": _CHEEGER_LAMBDA,
        "median": med,
        "c_L": 2.0,
        "delta_form_lhs": gen_lhs,
        "delta_form_rhs": gen_rhs,
        "delta_form_slack": gen_lhs - gen_rhs,
    }
    return _cert(
        "cheeger", lhs, rhs, constants, tol,
        notes="convex-gap generalisation recorded in constants",
    )


def _eval_talagrand_map(s, opts, tol):
    mu = _require_1d(s, "the transport-map refinement")
    plan = monotone_plan(mu, None)
    spec = GridSpec(-10.0, 10.0, 4097)

    def integrand(x):
        tp = np.asarray(plan.derivative(x), dtype=float)
        if np.any(tp <= 0):
            raise NumericalError("transport map derivative must stay positive")
        phi = np.exp(-0.5 * np.asarray(x) ** 2) / math.sqrt(2.0 * math.pi)
        return delta(tp - 1.0) * phi

    gap = integrate(integrand, spec, refine=True).value
    rhs = 0.5 * s.w2sq + gap
    return _cert(
        "talagrand-map", s.d, rhs, {"map_gap_integral": gap}, tol,
    )


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
    _check_opts(bound_id, opts, allowed)
    ws = workspace or Workspace()
    return evaluator(ws.stats(mu), opts, float(tol))


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
    mean = np.atleast_1d(np.asarray(mu.mean(), dtype=float))
    w2sq = _w2sq_to_mean_translate(mu, mean)
    return {"deficit": deficit, "w2_to_best_translate": math.sqrt(max(w2sq, 0.0))}
