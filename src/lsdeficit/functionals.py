"""Information functionals against a reference density.

All quantities are computed by deterministic quadrature on the density's
canonical grid and carry a Richardson error estimate:

  relative_entropy    D(mu|nu)  = int p log(p/q)
  fisher_information  I(X)      = int (p')^2 / p = int score^2 dmu
  relative_fisher     I(mu|nu)  = int (score_mu - score_nu)^2 dmu
  shannon_entropy     h(X)      = -int p log p
  entropy_power       N(X)      = exp(2 h(X) / n)
  total_variation     TV        = int |p - q|   (in [0, 2])
  lsi_deficit                   = I(mu|gamma)/2 - D(mu|gamma)

The reference defaults to the standard Gaussian of matching dimension.
Products decompose coordinate-wise (entropy and divergence are additive
for independent coordinates); bivariate grids integrate in 2D.

Convention: contributions where p < 1e-300 are treated as exact zeros
(the x log x limit); Fisher integrands additionally exclude nodes with
p < 1e-290, and a density vanishing strictly inside its support raises
``InfiniteInformationError`` rather than returning a large number.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import config
from .values import FunctionalValue, additive
from .densities import (
    Density1D,
    Grid2DDensity,
    ProductDensity,
    gaussian_convolve,
    gaussian_convolve_2d,
    standard_gaussian,
)
from .errors import ArgumentError, InfiniteInformationError, SupportError
from .quadrature import GridSpec, integrate, integrate_rows_2d, integrate_values

_LOG_2PI = math.log(2.0 * math.pi)


def dim_of(density) -> int:
    return getattr(density, "dim", 1)


def _std_log_pdf_1d(x: np.ndarray) -> np.ndarray:
    return -0.5 * x * x - 0.5 * _LOG_2PI


def _require_1d(nu, caller: str) -> Density1D:
    if nu is None:
        return standard_gaussian()
    if not isinstance(nu, Density1D):
        raise ArgumentError(f"{caller}: reference must be a 1D density here")
    return nu


def _per_factor(fn, mu: ProductDensity, nu, caller: str) -> FunctionalValue:
    """fn(factor, reference factor) summed over the coordinates of a product."""
    if nu is None:
        refs = [standard_gaussian() for _ in mu.factors]
    elif isinstance(nu, ProductDensity) and nu.dim == mu.dim:
        refs = nu.factors
    else:
        raise ArgumentError(
            f"{caller}: product density needs a product reference of equal dimension"
        )
    return additive(fn(f, g) for f, g in zip(mu.factors, refs))


# ---------------------------------------------------------------------------
# Relative entropy
# ---------------------------------------------------------------------------

def _relative_entropy_1d(mu: Density1D, nu: Density1D) -> FunctionalValue:
    t = mu.table
    log_q = np.asarray(nu.log_pdf(t.nodes), dtype=float)
    live = t.p >= config.LOG_ZERO_FLOOR
    violating = live & np.isneginf(log_q)
    if violating.any():
        x = t.nodes[int(np.argmax(violating))]
        raise SupportError(
            f"relative entropy undefined: mass at x={x:.6g} where the reference vanishes"
        )
    integrand = np.where(live, t.p * (t.log_p - np.where(live, log_q, 0.0)), 0.0)
    r = integrate_values(integrand, t.spec, refine=True)
    return FunctionalValue("D", r.value, r.abs_error_estimate)


def relative_entropy(mu, nu=None) -> FunctionalValue:
    """D(mu | nu); nu defaults to the standard Gaussian of mu's dimension."""
    if isinstance(mu, Density1D):
        return _relative_entropy_1d(mu, _require_1d(nu, "relative_entropy"))
    if isinstance(mu, ProductDensity):
        return _per_factor(_relative_entropy_1d, mu, nu, "relative_entropy")
    if isinstance(mu, Grid2DDensity):
        log_q = _reference_log_pdf_2d(mu, nu)

        def block(i0: int, i1: int) -> np.ndarray:
            log_p = mu.log_values[i0:i1]
            p = np.exp(log_p)
            live = p >= config.LOG_ZERO_FLOOR
            q = log_q(i0, i1)
            if (live & np.isneginf(q)).any():
                raise SupportError(
                    "relative entropy undefined: mass where the 2D reference vanishes"
                )
            return np.where(live, p * (log_p - np.where(live, q, 0.0)), 0.0)

        r = integrate_rows_2d(block, mu.spec_x, mu.spec_y, refine=True)
        return FunctionalValue("D", r.value, r.abs_error_estimate)
    raise ArgumentError(f"unsupported density type {type(mu).__name__}")


def _reference_log_pdf_2d(mu: Grid2DDensity, nu) -> Callable[[int, int], np.ndarray]:
    """Rows i0:i1 of the reference's log density on mu's nodes, as a function
    of (i0, i1)."""
    xs = mu.spec_x.nodes()[:, None]
    ys = mu.spec_y.nodes()[None, :]
    if nu is None:
        qx, qy = _std_log_pdf_1d(xs), _std_log_pdf_1d(ys)
        return lambda i0, i1: qx[i0:i1] + qy
    if isinstance(nu, ProductDensity) and nu.dim == 2:
        fx, fy = nu.factors
        qx = np.asarray(fx.log_pdf(xs[:, 0]))[:, None]
        qy = np.asarray(fy.log_pdf(ys[0, :]))[None, :]
        return lambda i0, i1: qx[i0:i1] + qy
    if isinstance(nu, Grid2DDensity):

        def rows(i0: int, i1: int) -> np.ndarray:
            pts = np.stack(np.broadcast_arrays(xs[i0:i1], ys), axis=-1).reshape(-1, 2)
            return np.asarray(nu.log_pdf(pts)).reshape(i1 - i0, ys.shape[1])

        return rows
    raise ArgumentError("2D reference must be None, a 2-factor product, or a 2D grid")


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------

def _fisher_mask_1d(p: np.ndarray) -> np.ndarray:
    live = p >= config.FISHER_DENSITY_FLOOR
    if not live.any():
        raise InfiniteInformationError("density below the Fisher floor everywhere")
    first, last = int(np.argmax(live)), len(live) - 1 - int(np.argmax(live[::-1]))
    if not live[first : last + 1].all():
        i = first + int(np.argmax(~live[first : last + 1]))
        raise InfiniteInformationError(
            f"density vanishes in the interior of its support (node {i}): "
            "Fisher information diverges"
        )
    return live


def _fisher_information_1d(mu: Density1D) -> FunctionalValue:
    t = mu.table
    live = _fisher_mask_1d(t.p)
    integrand = np.where(live, t.score * t.score * t.p, 0.0)
    r = integrate_values(integrand, t.spec, refine=True)
    var = mu.variance()
    if var > 0 and r.value < 1.0 / var - r.abs_error_estimate - 1e-6:
        from .errors import NumericalError

        raise NumericalError(
            f"Fisher information {r.value} below the Cramer-Rao floor 1/Var = {1.0 / var}"
        )
    return FunctionalValue("I_plain", r.value, r.abs_error_estimate)


def _grid2d_score_fields(mu: Grid2DDensity, i0: int, i1: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows i0:i1 of the finite-difference scores along x1 and x2; the x1
    difference reads one halo row on each side."""
    g = mu.log_values
    lo, hi = max(i0 - 1, 0), min(i1 + 1, g.shape[0])
    gx = np.gradient(g[lo:hi], mu.spec_x.step, axis=0)[i0 - lo : i1 - lo]
    return gx, np.gradient(g[i0:i1], mu.spec_y.step, axis=1)


def fisher_information(mu) -> FunctionalValue:
    """Plain Fisher information I(X) = int |grad log p|^2 dmu."""
    if isinstance(mu, Density1D):
        return _fisher_information_1d(mu)
    if isinstance(mu, ProductDensity):
        return additive(_fisher_information_1d(f) for f in mu.factors)
    if isinstance(mu, Grid2DDensity):

        def block(i0: int, i1: int) -> np.ndarray:
            p = np.exp(mu.log_values[i0:i1])
            gx, gy = _grid2d_score_fields(mu, i0, i1)
            live = p >= config.FISHER_DENSITY_FLOOR
            return np.where(live, (gx * gx + gy * gy) * p, 0.0)

        r = integrate_rows_2d(block, mu.spec_x, mu.spec_y, refine=True)
        return FunctionalValue("I_plain", r.value, r.abs_error_estimate)
    raise ArgumentError(f"unsupported density type {type(mu).__name__}")


def _relative_fisher_1d(mu: Density1D, nu: Density1D) -> FunctionalValue:
    t = mu.table
    live = _fisher_mask_1d(t.p)
    score_q = np.asarray(nu.score(t.nodes), dtype=float)
    diff = t.score - score_q
    integrand = np.where(live, diff * diff * t.p, 0.0)
    r = integrate_values(integrand, t.spec, refine=True)
    return FunctionalValue("I_rel", r.value, r.abs_error_estimate)


def relative_fisher(mu, nu=None) -> FunctionalValue:
    """I(mu | nu) = int |score_mu - score_nu|^2 dmu."""
    if isinstance(mu, Density1D):
        return _relative_fisher_1d(mu, _require_1d(nu, "relative_fisher"))
    if isinstance(mu, ProductDensity):
        return _per_factor(_relative_fisher_1d, mu, nu, "relative_fisher")
    if isinstance(mu, Grid2DDensity):
        if nu is not None:
            raise ArgumentError(
                "relative_fisher: 2D grids support only the standard Gaussian reference"
            )
        xs = mu.spec_x.nodes()[:, None]
        ys = mu.spec_y.nodes()[None, :]

        def block(i0: int, i1: int) -> np.ndarray:
            p = np.exp(mu.log_values[i0:i1])
            gx, gy = _grid2d_score_fields(mu, i0, i1)
            live = p >= config.FISHER_DENSITY_FLOOR
            return np.where(live, ((gx + xs[i0:i1]) ** 2 + (gy + ys) ** 2) * p, 0.0)

        r = integrate_rows_2d(block, mu.spec_x, mu.spec_y, refine=True)
        return FunctionalValue("I_rel", r.value, r.abs_error_estimate)
    raise ArgumentError(f"unsupported density type {type(mu).__name__}")


# ---------------------------------------------------------------------------
# Entropy, entropy power, total variation
# ---------------------------------------------------------------------------

def _shannon_entropy_1d(mu: Density1D) -> FunctionalValue:
    t = mu.table
    live = t.p >= config.LOG_ZERO_FLOOR
    integrand = np.where(live, -t.p * t.log_p, 0.0)
    r = integrate_values(integrand, t.spec, refine=True)
    return FunctionalValue("h", r.value, r.abs_error_estimate)


def shannon_entropy(mu) -> FunctionalValue:
    """Differential entropy h(X) = -int p log p."""
    if isinstance(mu, Density1D):
        return _shannon_entropy_1d(mu)
    if isinstance(mu, ProductDensity):
        return additive(_shannon_entropy_1d(f) for f in mu.factors)
    if isinstance(mu, Grid2DDensity):

        def block(i0: int, i1: int) -> np.ndarray:
            log_p = mu.log_values[i0:i1]
            p = np.exp(log_p)
            return np.where(p >= config.LOG_ZERO_FLOOR, -p * log_p, 0.0)

        r = integrate_rows_2d(block, mu.spec_x, mu.spec_y, refine=True)
        return FunctionalValue("h", r.value, r.abs_error_estimate)
    raise ArgumentError(f"unsupported density type {type(mu).__name__}")


def entropy_power(mu) -> FunctionalValue:
    """N(X) = exp(2 h(X) / n) for an n-coordinate density."""
    h = shannon_entropy(mu)
    n = dim_of(mu)
    value = math.exp(2.0 * h.value / n)
    return FunctionalValue("N", value, value * 2.0 * h.error_estimate / n)


def _merged_spec(a: Density1D, b: Density1D) -> GridSpec:
    sa, sb = a.eval_spec(), b.eval_spec()
    n = max(sa.n_points, sb.n_points)
    return GridSpec(min(sa.x_lo, sb.x_lo), max(sa.x_hi, sb.x_hi), n + (n + 1) % 2)


def total_variation(mu, nu=None) -> FunctionalValue:
    """int |p - q| over a grid covering both supports; lands in [0, 2]."""
    if isinstance(mu, Density1D):
        nu = _require_1d(nu, "total_variation")
        spec = _merged_spec(mu, nu)
        r = integrate(
            lambda x: np.abs(np.asarray(mu.pdf(x)) - np.asarray(nu.pdf(x))),
            spec,
            refine=True,
        )
        return FunctionalValue("TV", min(r.value, 2.0), r.abs_error_estimate)
    if isinstance(mu, ProductDensity):
        if mu.dim != 2:
            raise ArgumentError(
                "total_variation joint integral is implemented for 2 coordinates"
            )
        fx, fy = mu.factors
        n = config.DEFAULT_GRID_POINTS_2D
        sx, sy = fx.eval_spec(), fy.eval_spec()
        spec_x = GridSpec(sx.x_lo, sx.x_hi, n)
        spec_y = GridSpec(sy.x_lo, sy.x_hi, n)
        px = np.asarray(fx.pdf(spec_x.nodes()))[:, None]
        py = np.asarray(fy.pdf(spec_y.nodes()))[None, :]
        qx = np.exp(_std_log_pdf_1d(spec_x.nodes()))[:, None]
        qy = np.exp(_std_log_pdf_1d(spec_y.nodes()))[None, :]
        if nu is not None:
            raise ArgumentError(
                "total_variation: product densities support only the standard Gaussian reference"
            )
        r = integrate_rows_2d(
            lambda i0, i1: np.abs(px[i0:i1] * py - qx[i0:i1] * qy), spec_x, spec_y, refine=True
        )
        return FunctionalValue("TV", min(r.value, 2.0), r.abs_error_estimate)
    if isinstance(mu, Grid2DDensity):
        log_q = _reference_log_pdf_2d(mu, nu)
        r = integrate_rows_2d(
            lambda i0, i1: np.abs(np.exp(mu.log_values[i0:i1]) - np.exp(log_q(i0, i1))),
            mu.spec_x,
            mu.spec_y,
            refine=True,
        )
        return FunctionalValue("TV", min(r.value, 2.0), r.abs_error_estimate)
    raise ArgumentError(f"unsupported density type {type(mu).__name__}")


# ---------------------------------------------------------------------------
# Deficit and the heat-flow derivative check
# ---------------------------------------------------------------------------

def lsi_deficit(mu) -> FunctionalValue:
    """I(mu|gamma)/2 - D(mu|gamma): nonnegative, zero only at translates."""
    i_rel = relative_fisher(mu)
    d = relative_entropy(mu)
    return FunctionalValue(
        "deficit",
        0.5 * i_rel.value - d.value,
        0.5 * i_rel.error_estimate + d.error_estimate + 1e-10,
    )


def _evolved(mu, t: float):
    if isinstance(mu, Density1D):
        return gaussian_convolve(mu, t)
    if isinstance(mu, Grid2DDensity):
        return gaussian_convolve_2d(mu, t)
    if isinstance(mu, ProductDensity):
        return ProductDensity([gaussian_convolve(f, t) for f in mu.factors])
    raise ArgumentError(f"unsupported density type {type(mu).__name__}")


def de_bruijn_residual(mu, t: float, h_step: float | None = None) -> float:
    """|d/dt h(X + sqrt(t) Z) - I(X + sqrt(t) Z)/2| by central differencing.

    The residual is O(h_step^2) plus quadrature error; the default step is
    1e-2 * sqrt(t).
    """
    if h_step is None:
        h_step = 1e-2 * math.sqrt(t)
    if not (t > h_step > 0):
        raise ArgumentError(f"need t > h_step > 0, got t={t}, h_step={h_step}")
    h_plus = shannon_entropy(_evolved(mu, t + h_step)).value
    h_minus = shannon_entropy(_evolved(mu, t - h_step)).value
    derivative = (h_plus - h_minus) / (2.0 * h_step)
    half_info = 0.5 * fisher_information(_evolved(mu, t)).value
    return abs(derivative - half_info)
