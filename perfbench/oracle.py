"""Closed forms against the standard Gaussian, pinned values and invariants.

Everything here is computed independently of ``lsdeficit``: the benchmark
compares the library's outputs with these numbers, so they must not come
from the code under test.
"""

from __future__ import annotations

import math

# A closed-form or invariant check fails when the computed value is off by
# more than CHECK_TOL * (1 + |exact|): wrong, not merely imprecise.  Transport
# costs with a kinked cost (W1) converge only at O(h^2) on the default
# 4096-node grid and miss Gaussian closed forms by up to ~2.5e-6; that
# imprecision is measured by the error-bar check, not failed here.
CHECK_TOL = 1e-5

# Error-bar honesty: |computed - exact| may exceed the reported error
# estimate by at most this much times (1 + |exact|).  It covers rounding in
# the double-precision closed forms below (a few ulps of terms of size
# ~10) and nothing else; it is not fitted to the library's current errors.
ROUNDOFF_ALLOWANCE = 1e-13

# Values the project pins (ROADMAP): KL and W2^2 of N(0, sigma^2) against
# gamma at sigma in {0.5, 2}, and the correlated battery member's KL.
PINS = {
    "gauss-narrow": {"kl": 0.3181471805599453, "w2sq": 0.25},
    "gauss-wide": {"kl": 0.8068528194400547, "w2sq": 1.0},
    "grid2d-correlated": {"kl": 0.1438410},
}


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def gaussian_1d(mean: float, var: float) -> dict[str, float]:
    """Every ``lsd distance`` metric with a closed form, for N(mean, var)."""
    sigma = math.sqrt(var)
    m2 = mean * mean
    kl = 0.5 * (var + m2 - 1.0 - math.log(var))
    fisher = var - 2.0 + 1.0 / var + m2
    entropy = 0.5 * math.log(2.0 * math.pi * math.e * var)
    w2sq = m2 + (sigma - 1.0) ** 2
    # W1 = E|mean + a Z| with a = sigma - 1 (the monotone map is affine).
    a = abs(sigma - 1.0)
    if a == 0.0:
        w1 = abs(mean)
    else:
        w1 = a * math.sqrt(2.0 / math.pi) * math.exp(-m2 / (2.0 * a * a)) + mean * (
            1.0 - 2.0 * _norm_cdf(-mean / a)
        )
    return {
        "kl": kl,
        "fisher": fisher,
        "deficit": 0.5 * fisher - kl,
        "entropy": entropy,
        "entropy-power": 2.0 * math.pi * math.e * var,
        "w2sq": w2sq,
        "w2": math.sqrt(w2sq),
        "w1": w1,
    }


def gaussian_2d(mean: tuple[float, float], cov: tuple[tuple[float, float], ...]) -> dict[str, float]:
    """KL, relative Fisher information and W2^2 of N(mean, cov) against gamma_2."""
    (a, b), (_, d) = cov
    tr = a + d
    det = a * d - b * b
    m2 = mean[0] ** 2 + mean[1] ** 2
    # tr sqrt(S) for a 2x2 positive definite S is sqrt(tr S + 2 sqrt(det S)).
    tr_sqrt = math.sqrt(tr + 2.0 * math.sqrt(det))
    return {
        "kl": 0.5 * (tr + m2 - 2.0 - math.log(det)),
        "fisher": tr + tr / det - 4.0 + m2,
        "w2sq": m2 + tr + 2.0 - 2.0 * tr_sqrt,
    }


def covariance(rho: float, var: tuple[float, float]) -> tuple[tuple[float, float], ...]:
    c = rho * math.sqrt(var[0] * var[1])
    return ((var[0], c), (c, var[1]))


def within(computed: float, exact: float, tol: float = CHECK_TOL) -> bool:
    return abs(computed - exact) <= tol * (1.0 + abs(exact))


def errbar_holds(computed: float, error: float, exact: float) -> bool:
    """The reported error estimate covers the actual error (plus roundoff)."""
    return abs(computed - exact) <= error + ROUNDOFF_ALLOWANCE * (1.0 + abs(exact))


def certificate_quantities(bound_id: str, lhs: float, rhs: float, dim: int) -> dict[str, float]:
    """Functionals a certificate exposes as one of its sides.

    ``lsi`` is I_rel/2 >= D, ``talagrand`` is 2D >= W2^2 and ``pinsker`` is
    D >= TV^2/2.  On coupled 2D grids the talagrand side is the
    per-coordinate upper bound on W2^2, reported as ``w2sq_upper``.
    """
    if bound_id == "lsi":
        return {"fisher": 2.0 * lhs, "kl": rhs}
    if bound_id == "talagrand":
        return {"kl": 0.5 * lhs, ("w2sq_upper" if dim == 2 else "w2sq"): rhs}
    if bound_id == "pinsker":
        return {"kl": lhs, "tv": math.sqrt(max(2.0 * rhs, 0.0))}
    return {}


def invariant_violations(values: dict[str, tuple[float, float]]) -> list[tuple[str, tuple[str, ...]]]:
    """Relations every density satisfies, checked on one spec's metrics.

    ``values`` maps metric name to (value, reported error).  Returns the
    violated relations, each with the metrics it involves.
    """

    def slack(*names: str) -> float:
        return CHECK_TOL * (1.0 + sum(abs(values[n][0]) for n in names)) + sum(
            values[n][1] for n in names
        )

    v = {k: val for k, (val, _) in values.items()}
    rules = [
        ("kl>=0", ("kl",), v["kl"] >= -slack("kl")),
        ("tv in [0,2]", ("tv",), -slack("tv") <= v["tv"] <= 2.0 + slack("tv")),
        ("pinsker", ("kl", "tv"), v["kl"] >= 0.5 * v["tv"] ** 2 - slack("kl", "tv")),
        ("talagrand", ("kl", "w2sq"), 2.0 * v["kl"] >= v["w2sq"] - slack("kl", "w2sq")),
        ("w1<=w2", ("w1", "w2"), v["w1"] <= v["w2"] + slack("w1", "w2")),
        ("0<=tdelta<=w1", ("tdelta", "w1"), -slack("tdelta") <= v["tdelta"] <= v["w1"] + slack("tdelta", "w1")),
        ("deficit>=0", ("deficit",), v["deficit"] >= -slack("deficit")),
        ("w2=sqrt(w2sq)", ("w2", "w2sq"), within(v["w2"] ** 2, v["w2sq"])),
        ("deficit=fisher/2-kl", ("deficit", "fisher", "kl"), within(v["deficit"], 0.5 * v["fisher"] - v["kl"])),
        ("N=exp(2h)", ("entropy-power", "entropy"), within(v["entropy-power"], math.exp(2.0 * v["entropy"]))),
    ]
    return [(name, names) for name, names, ok in rules if not ok]
