"""Probability densities on R, coordinate products, and R^2 grids.

Every variant exposes the same evaluation surface: ``log_pdf``, ``pdf``,
``score`` (derivative of log density), ``cdf``, ``quantile``, ``moment``,
plus a canonical uniform evaluation grid used by all quadrature-backed
functionals.  Analytic forms are used where they exist (Gaussian and
mixture CDFs, polynomial-potential scores); grid variants interpolate
``log_p`` linearly, which keeps densities positive and CDFs monotone.

Support policy: parametric densities are evaluated on
[mean - R*sigma_eff, mean + R*sigma_eff] with R = 10 by default, wide
enough that truncated tail mass (~1e-22) sits far below every tolerance
used in the test suite.  Values requested outside a grid variant's support
return ``-inf`` log density (sentinel, never an exception).

Objects are immutable after construction; all operations are pure.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy import special
from scipy.integrate import cumulative_simpson

from . import config
from .errors import ArgumentError
from .quadrature import GridSpec, integrate_values, integrate_values_2d, simpson_weights

_LOG_2PI = math.log(2.0 * math.pi)


def _table_cdf(p: np.ndarray, step: float) -> np.ndarray:
    """Normalised CDF on table nodes; Simpson accumulation, forced monotone."""
    cdf = cumulative_simpson(p, dx=step, initial=0.0)
    cdf = np.maximum.accumulate(np.maximum(cdf, 0.0))
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    cdf.flags.writeable = False
    return cdf


def _as_points(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _maybe_scalar(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


class NodeTable(NamedTuple):
    """Density evaluated on its canonical grid: the quadrature workhorse."""

    spec: GridSpec
    nodes: np.ndarray
    log_p: np.ndarray
    p: np.ndarray
    score: np.ndarray


def _finite_diff_log(log_p: np.ndarray, step: float, axis: int = 0) -> np.ndarray:
    """(log p)' along ``axis``: central differences, one-sided at the ends."""
    g = np.moveaxis(log_p, axis, 0)
    score = np.empty_like(g)
    score[1:-1] = (g[2:] - g[:-2]) / (2.0 * step)
    score[0] = (g[1] - g[0]) / step
    score[-1] = (g[-1] - g[-2]) / step
    return np.moveaxis(score, 0, axis)


def _strictly_increasing_table(xs: np.ndarray, ys: np.ndarray):
    """Subsequence where xs strictly increases, for safe inverse interpolation."""
    keep = np.empty(xs.shape, dtype=bool)
    keep[0] = True
    np.greater(xs[1:], np.maximum.accumulate(xs)[:-1], out=keep[1:])
    return xs[keep], ys[keep]


class Density1D:
    """Base class for one-dimensional densities."""

    dim = 1

    # -- subclass surface -------------------------------------------------
    def log_pdf(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def score(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def cdf(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def quantile(self, u):  # pragma: no cover - abstract
        raise NotImplementedError

    def _support_hint(self) -> tuple[float, float]:  # pragma: no cover
        raise NotImplementedError

    # -- shared operations -------------------------------------------------
    @property
    def convexity_lower_bound(self) -> float | None:
        """Certified lower bound on (-log p)'', or None when uncertified."""
        return self._eps

    def pdf(self, x):
        lp, scalar = _as_points(self.log_pdf(x))
        return _maybe_scalar(np.exp(lp), scalar)

    def eval_spec(self) -> GridSpec:
        lo, hi = self._support_hint()
        return GridSpec(lo, hi, config.default_grid_points())

    @cached_property
    def table(self) -> NodeTable:
        spec = self.eval_spec()
        nodes = spec.nodes()
        log_p = np.asarray(self.log_pdf(nodes), dtype=float)
        p = np.exp(log_p)
        score = np.asarray(self.score(nodes), dtype=float)
        for arr in (nodes, log_p, p, score):
            arr.flags.writeable = False
        return NodeTable(spec, nodes, log_p, p, score)

    def moment(self, k: int, refine: bool = False):
        """k-th raw moment, k in 1..4, by quadrature on the canonical grid."""
        if k not in (1, 2, 3, 4):
            raise ArgumentError(f"moment order must be in 1..4, got {k}")
        t = self.table
        return integrate_values(t.nodes**k * t.p, t.spec, refine=refine)

    def mean(self) -> float:
        return self.moment(1).value

    def variance(self) -> float:
        m = self.mean()
        return self.moment(2).value - m * m

    def second_moment(self) -> float:
        """E X^2, the moment hypothesis checked by several bounds."""
        return self.moment(2).value


class GaussianDensity(Density1D):
    """N(mean, var).  CDF and quantile are analytic; (-log p)'' = 1/var."""

    def __init__(self, mean: float, var: float, support_radius: float | None = None):
        mean = float(mean)
        var = float(var)
        if not (math.isfinite(mean) and math.isfinite(var)):
            raise ArgumentError("gaussian parameters must be finite")
        if var <= 0:
            raise ArgumentError(f"variance must be positive, got {var}")
        self._mean = mean
        self._var = var
        self._sigma = math.sqrt(var)
        self._radius = float(support_radius or config.support_radius())
        self._eps = 1.0 / var  # exact: the potential is quadratic

    @property
    def mean_param(self) -> float:
        return self._mean

    @property
    def var_param(self) -> float:
        return self._var

    def log_pdf(self, x):
        pts, scalar = _as_points(x)
        z = (pts - self._mean) / self._sigma
        out = -0.5 * z * z - 0.5 * _LOG_2PI - math.log(self._sigma)
        return _maybe_scalar(out, scalar)

    def score(self, x):
        pts, scalar = _as_points(x)
        return _maybe_scalar(-(pts - self._mean) / self._var, scalar)

    def cdf(self, x):
        pts, scalar = _as_points(x)
        return _maybe_scalar(special.ndtr((pts - self._mean) / self._sigma), scalar)

    def quantile(self, u):
        pts, scalar = _as_points(u)
        if np.any(pts <= 0.0) or np.any(pts >= 1.0):
            raise ArgumentError("quantile argument must lie strictly inside (0, 1)")
        return _maybe_scalar(self._mean + self._sigma * special.ndtri(pts), scalar)

    def mean(self) -> float:
        return self._mean

    def variance(self) -> float:
        return self._var

    def second_moment(self) -> float:
        return self._var + self._mean * self._mean

    def _support_hint(self) -> tuple[float, float]:
        r = self._radius * self._sigma
        return self._mean - r, self._mean + r

    def shifted(self, offset: float) -> "GaussianDensity":
        return GaussianDensity(self._mean + offset, self._var, self._radius)

    def __repr__(self) -> str:
        return f"GaussianDensity(mean={self._mean}, var={self._var})"


class MixtureDensity(Density1D):
    """Finite Gaussian mixture sum_i w_i N(m_i, v_i), weights summing to 1."""

    def __init__(
        self,
        components: Iterable[tuple[float, float, float]],
        convexity_lower_bound: float | None = None,
        support_radius: float | None = None,
    ):
        comps = [(float(w), float(m), float(v)) for (w, m, v) in components]
        if not comps:
            raise ArgumentError("mixture needs at least one component")
        for w, m, v in comps:
            if not all(map(math.isfinite, (w, m, v))):
                raise ArgumentError("mixture parameters must be finite")
            if w <= 0:
                raise ArgumentError(f"mixture weights must be positive, got {w}")
            if v <= 0:
                raise ArgumentError(f"component variance must be positive, got {v}")
        wsum = math.fsum(w for w, _, _ in comps)
        if abs(wsum - 1.0) > 1e-9:
            raise ArgumentError(f"mixture weights must sum to 1, got {wsum!r}")
        self._w = np.array([c[0] for c in comps]) / wsum
        self._m = np.array([c[1] for c in comps])
        self._v = np.array([c[2] for c in comps])
        self._s = np.sqrt(self._v)
        self._radius = float(support_radius or config.support_radius())
        self._eps = None
        if convexity_lower_bound is not None:
            self._eps = self._verify_eps(float(convexity_lower_bound))

    @property
    def components(self) -> tuple[tuple[float, float, float], ...]:
        return tuple(zip(self._w.tolist(), self._m.tolist(), self._v.tolist()))

    def _component_logs(self, pts: np.ndarray) -> np.ndarray:
        z = (pts[:, None] - self._m[None, :]) / self._s[None, :]
        return (
            -0.5 * z * z
            - 0.5 * _LOG_2PI
            - np.log(self._s)[None, :]
            + np.log(self._w)[None, :]
        )

    def log_pdf(self, x):
        pts, scalar = _as_points(x)
        out = special.logsumexp(self._component_logs(pts), axis=1)
        return _maybe_scalar(out, scalar)

    def score(self, x):
        pts, scalar = _as_points(x)
        logs = self._component_logs(pts)
        peak = logs.max(axis=1, keepdims=True)
        r = np.exp(logs - peak)
        comp_score = -(pts[:, None] - self._m[None, :]) / self._v[None, :]
        out = (r * comp_score).sum(axis=1) / r.sum(axis=1)
        return _maybe_scalar(out, scalar)

    def cdf(self, x):
        pts, scalar = _as_points(x)
        z = (pts[:, None] - self._m[None, :]) / self._s[None, :]
        out = special.ndtr(z) @ self._w
        return _maybe_scalar(out, scalar)

    def quantile(self, u):
        pts, scalar = _as_points(u)
        if np.any(pts <= 0.0) or np.any(pts >= 1.0):
            raise ArgumentError("quantile argument must lie strictly inside (0, 1)")
        t = self.table
        cdf_nodes = np.asarray(self.cdf(t.nodes))
        xs, ys = _strictly_increasing_table(cdf_nodes, t.nodes)
        x = np.interp(pts, xs, ys)
        # Newton polish against the analytic CDF; the seed is already within
        # O(step^2), so two clipped steps reach full precision.
        for _ in range(3):
            step = (np.asarray(self.cdf(x)) - pts) / np.maximum(
                np.asarray(self.pdf(x)), 1e-300
            )
            x = np.clip(x - step, t.spec.x_lo, t.spec.x_hi)
        return _maybe_scalar(np.asarray(x, dtype=float), scalar)

    def mean(self) -> float:
        return float(self._w @ self._m)

    def second_moment(self) -> float:
        return float(self._w @ (self._v + self._m * self._m))

    def variance(self) -> float:
        m = self.mean()
        return self.second_moment() - m * m

    def _support_hint(self) -> tuple[float, float]:
        r = self._radius
        sigma = math.sqrt(self.variance())
        lo = min(np.min(self._m - r * self._s), self.mean() - r * sigma)
        hi = max(np.max(self._m + r * self._s), self.mean() + r * sigma)
        return float(lo), float(hi)

    def _verify_eps(self, eps: float) -> float | None:
        # Mixtures are generally not log-concave; certify the claimed bound
        # on the potential's second differences and clear it when it fails.
        t = self.table
        second = np.diff(-t.log_p, 2) / t.spec.step**2
        return eps if second.min() >= eps - 1e-8 else None

    def shifted(self, offset: float) -> "MixtureDensity":
        return MixtureDensity(
            [(w, m + offset, v) for (w, m, v) in self.components],
            convexity_lower_bound=self._eps,
            support_radius=self._radius,
        )

    def __repr__(self) -> str:
        return f"MixtureDensity({list(self.components)!r})"


class TiltedDensity(Density1D):
    """exp(-v(x)) / Z for a polynomial potential v with even positive leading term.

    ``convexity_lower_bound`` is verified analytically: the exact minimum of
    v'' over the support must reach the claimed bound or it is cleared.
    """

    def __init__(
        self,
        coeffs: Sequence[float],
        convexity_lower_bound: float | None = None,
        support_radius: float | None = None,
    ):
        coeffs = [float(c) for c in coeffs]
        if len(coeffs) < 3:
            raise ArgumentError("potential needs degree >= 2")
        if not all(map(math.isfinite, coeffs)):
            raise ArgumentError("potential coefficients must be finite")
        while len(coeffs) > 3 and coeffs[-1] == 0.0:
            coeffs.pop()
        degree = len(coeffs) - 1
        if degree % 2 != 0 or coeffs[-1] <= 0:
            raise ArgumentError(
                "potential must have even degree with positive leading coefficient"
            )
        self._poly = np.polynomial.Polynomial(coeffs)
        self._dpoly = self._poly.deriv()
        self._radius = float(support_radius or config.support_radius())
        self._lo, self._hi = self._fit_support()
        self._log_z = self._normalise()
        self._eps = None
        if convexity_lower_bound is not None:
            self._eps = self._verify_eps(float(convexity_lower_bound))

    @property
    def potential_coeffs(self) -> tuple[float, ...]:
        return tuple(self._poly.coef.tolist())

    def _mode(self) -> float:
        roots = self._dpoly.roots()
        real = roots[np.abs(roots.imag) < 1e-9].real
        if real.size == 0:
            return 0.0
        vals = self._poly(real)
        return float(real[np.argmin(vals)])

    def _fit_support(self) -> tuple[float, float]:
        # Provisional window: widen from the mode until the potential has
        # climbed by 60 (density factor e^-60), then place the final window
        # at mean +- R * sigma computed on the provisional grid.
        mode = self._mode()
        v0 = float(self._poly(mode))
        width = 1.0
        while (
            self._poly(mode + width) - v0 < 60.0 or self._poly(mode - width) - v0 < 60.0
        ):
            width *= 2.0
            if width > 1e6:
                raise ArgumentError("potential grows too slowly to normalise")
        spec = GridSpec(mode - width, mode + width, 2049)
        nodes = spec.nodes()
        shifted = self._poly(nodes) - v0
        weights = np.exp(-np.minimum(shifted, 700.0))
        total = integrate_values(weights, spec).value
        mean = integrate_values(nodes * weights, spec).value / total
        second = integrate_values(nodes * nodes * weights, spec).value / total
        sigma = math.sqrt(max(second - mean * mean, 1e-12))
        r = self._radius * sigma
        return mean - r, mean + r

    def _normalise(self) -> float:
        spec = GridSpec(self._lo, self._hi, config.default_grid_points())
        nodes = spec.nodes()
        v = self._poly(nodes)
        shift = v.min()
        total = integrate_values(np.exp(-(v - shift)), spec).value
        return math.log(total) - shift

    def log_pdf(self, x):
        pts, scalar = _as_points(x)
        return _maybe_scalar(-self._poly(pts) - self._log_z, scalar)

    def score(self, x):
        pts, scalar = _as_points(x)
        return _maybe_scalar(-self._dpoly(pts), scalar)

    def cdf(self, x):
        pts, scalar = _as_points(x)
        t = self.table
        cdf_nodes = self._cdf_table
        out = np.interp(pts, t.nodes, cdf_nodes, left=0.0, right=1.0)
        return _maybe_scalar(out, scalar)

    @cached_property
    def _cdf_table(self) -> np.ndarray:
        t = self.table
        return _table_cdf(t.p, t.spec.step)

    def quantile(self, u):
        pts, scalar = _as_points(u)
        if np.any(pts <= 0.0) or np.any(pts >= 1.0):
            raise ArgumentError("quantile argument must lie strictly inside (0, 1)")
        t = self.table
        xs, ys = _strictly_increasing_table(self._cdf_table, t.nodes)
        x = np.interp(pts, xs, ys)
        return _maybe_scalar(np.asarray(x, dtype=float), scalar)

    def _support_hint(self) -> tuple[float, float]:
        return self._lo, self._hi

    def _verify_eps(self, eps: float) -> float | None:
        vpp = self._dpoly.deriv()
        crit = vpp.deriv().roots()
        candidates = [self._lo, self._hi] + [
            float(r.real) for r in crit if abs(r.imag) < 1e-9 and self._lo <= r.real <= self._hi
        ]
        vmin = min(float(vpp(c)) for c in candidates)
        return eps if vmin >= eps - 1e-12 else None

    def shifted(self, offset: float) -> "TiltedDensity":
        # v(x - offset) re-expanded in the monomial basis.
        shifted = self._poly(np.polynomial.Polynomial([-offset, 1.0]))
        return TiltedDensity(
            shifted.coef.tolist(),
            convexity_lower_bound=self._eps,
            support_radius=self._radius,
        )

    def __repr__(self) -> str:
        return f"TiltedDensity(coeffs={self.potential_coeffs!r}, eps={self._eps!r})"


class GridDensity(Density1D):
    """Density stored as log values on a uniform grid, renormalised on build.

    Queries interpolate log_p linearly; outside the support the log density
    is the -inf sentinel.  The score uses central differences at interior
    nodes and one-sided differences at the two boundary nodes.
    """

    def __init__(
        self,
        spec: GridSpec,
        log_p: Sequence[float],
        convexity_lower_bound: float | None = None,
    ):
        log_p = np.asarray(log_p, dtype=float)
        if log_p.shape != (spec.n_points,):
            raise ArgumentError(
                f"log_p of shape {log_p.shape} does not match grid of {spec.n_points} nodes"
            )
        if not np.isfinite(log_p).all():
            raise ArgumentError("grid log-density values must be finite")
        shift = float(log_p.max())
        total = integrate_values(np.exp(log_p - shift), spec).value
        self._spec = spec
        self._log_p = log_p - (math.log(total) + shift)
        self._log_p.flags.writeable = False
        self._eps = None
        if convexity_lower_bound is not None:
            self._eps = self._verify_eps(float(convexity_lower_bound))

    @property
    def spec(self) -> GridSpec:
        return self._spec

    @property
    def log_values(self) -> np.ndarray:
        return self._log_p

    def eval_spec(self) -> GridSpec:
        return self._spec

    @cached_property
    def table(self) -> NodeTable:
        nodes = self._spec.nodes()
        p = np.exp(self._log_p)
        score = _finite_diff_log(self._log_p, self._spec.step)
        for arr in (nodes, p, score):
            arr.flags.writeable = False
        return NodeTable(self._spec, nodes, self._log_p, p, score)

    def log_pdf(self, x):
        pts, scalar = _as_points(x)
        t = self.table
        out = np.interp(pts, t.nodes, t.log_p)
        outside = (pts < self._spec.x_lo) | (pts > self._spec.x_hi)
        out = np.where(outside, config.NEG_INF, out)
        return _maybe_scalar(out, scalar)

    def score(self, x):
        pts, scalar = _as_points(x)
        t = self.table
        return _maybe_scalar(np.interp(pts, t.nodes, t.score), scalar)

    @cached_property
    def _cdf_table(self) -> np.ndarray:
        return _table_cdf(self.table.p, self._spec.step)

    def cdf(self, x):
        pts, scalar = _as_points(x)
        out = np.interp(pts, self.table.nodes, self._cdf_table, left=0.0, right=1.0)
        return _maybe_scalar(out, scalar)

    def quantile(self, u):
        pts, scalar = _as_points(u)
        if np.any(pts <= 0.0) or np.any(pts >= 1.0):
            raise ArgumentError("quantile argument must lie strictly inside (0, 1)")
        xs, ys = _strictly_increasing_table(self._cdf_table, self.table.nodes)
        return _maybe_scalar(np.interp(pts, xs, ys), scalar)

    def _support_hint(self) -> tuple[float, float]:
        return self._spec.x_lo, self._spec.x_hi

    def _verify_eps(self, eps: float) -> float | None:
        second = np.diff(-self._log_p, 2) / self._spec.step**2
        return eps if second.min() >= eps - 1e-8 else None

    def shifted(self, offset: float) -> "GridDensity":
        spec = GridSpec(
            self._spec.x_lo + offset, self._spec.x_hi + offset, self._spec.n_points
        )
        return GridDensity(spec, self._log_p, convexity_lower_bound=self._eps)

    def __repr__(self) -> str:
        return (
            f"GridDensity([{self._spec.x_lo}, {self._spec.x_hi}], "
            f"n={self._spec.n_points})"
        )


class ProductDensity:
    """Independent product of 1D factors; one coordinate per factor."""

    def __init__(self, factors: Sequence[Density1D]):
        factors = tuple(factors)
        if len(factors) < 2:
            raise ArgumentError("product needs at least two factors")
        if not all(isinstance(f, Density1D) for f in factors):
            raise ArgumentError("product factors must be 1D densities")
        self._factors = factors

    @property
    def factors(self) -> tuple[Density1D, ...]:
        return self._factors

    @property
    def dim(self) -> int:
        return len(self._factors)

    @property
    def convexity_lower_bound(self) -> float | None:
        eps = [f.convexity_lower_bound for f in self._factors]
        return None if any(e is None for e in eps) else float(min(eps))

    def log_pdf(self, point):
        pts = np.asarray(point, dtype=float)
        if pts.shape[-1] != self.dim:
            raise ArgumentError(f"point must have {self.dim} coordinates")
        parts = [
            np.asarray(f.log_pdf(pts[..., i])) for i, f in enumerate(self._factors)
        ]
        out = np.sum(parts, axis=0)
        return float(out) if out.ndim == 0 else out

    def mean(self) -> np.ndarray:
        return np.array([f.mean() for f in self._factors])

    def second_moment(self) -> float:
        """E |X|^2 summed over coordinates."""
        return math.fsum(f.second_moment() for f in self._factors)

    def shifted(self, offsets) -> "ProductDensity":
        offsets = np.asarray(offsets, dtype=float)
        if offsets.shape != (self.dim,):
            raise ArgumentError(f"need {self.dim} offsets, got shape {offsets.shape}")
        return ProductDensity(
            [f.shifted(float(o)) for f, o in zip(self._factors, offsets)]
        )

    def __repr__(self) -> str:
        return f"ProductDensity({list(self._factors)!r})"


class RowStats(NamedTuple):
    """Per-row Simpson sums over x2 of exp(log p - shift) for a 2D grid."""

    shift: np.ndarray  # row maximum of log p
    mass: np.ndarray  # sum of w_y exp(log p - shift)
    first: np.ndarray  # sum of w_y y exp(log p - shift)


class Grid2DDensity:
    """Bivariate density as log values on a rectangular grid (rows = x1).

    ``convexity_lower_bound`` is verified against the finite-difference
    Hessian of the potential -log p: its smallest eigenvalue over the grid
    interior must reach the claimed bound, else the bound is cleared.
    """

    dim = 2

    def __init__(
        self,
        spec_x: GridSpec,
        spec_y: GridSpec,
        log_p: np.ndarray,
        convexity_lower_bound: float | None = None,
    ):
        log_p = np.asarray(log_p, dtype=float)
        if log_p.shape != (spec_x.n_points, spec_y.n_points):
            raise ArgumentError(
                f"log_p of shape {log_p.shape} does not match "
                f"{spec_x.n_points} x {spec_y.n_points} grid"
            )
        if not np.isfinite(log_p).all():
            raise ArgumentError("grid log-density values must be finite")
        shift = float(log_p.max())
        total = integrate_values_2d(np.exp(log_p - shift), spec_x, spec_y).value
        self._spec_x = spec_x
        self._spec_y = spec_y
        self._log_p = log_p - (math.log(total) + shift)
        self._log_p.flags.writeable = False
        self._eps = None
        if convexity_lower_bound is not None:
            self._eps = self._verify_eps(float(convexity_lower_bound))

    @property
    def spec_x(self) -> GridSpec:
        return self._spec_x

    @property
    def spec_y(self) -> GridSpec:
        return self._spec_y

    @property
    def log_values(self) -> np.ndarray:
        return self._log_p

    @property
    def convexity_lower_bound(self) -> float | None:
        return self._eps

    def log_pdf(self, point):
        pts = np.asarray(point, dtype=float)
        squeeze = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[-1] != 2:
            raise ArgumentError("point must have 2 coordinates")
        x1, x2 = pts[:, 0], pts[:, 1]
        out = self._bilinear(x1, x2)
        return float(out[0]) if squeeze else out

    def _bilinear(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        sx, sy = self._spec_x, self._spec_y
        fx = np.clip((x1 - sx.x_lo) / sx.step, 0.0, sx.n_points - 1.0)
        fy = np.clip((x2 - sy.x_lo) / sy.step, 0.0, sy.n_points - 1.0)
        ix = np.minimum(fx.astype(int), sx.n_points - 2)
        iy = np.minimum(fy.astype(int), sy.n_points - 2)
        tx, ty = fx - ix, fy - iy
        g = self._log_p
        val = (
            g[ix, iy] * (1 - tx) * (1 - ty)
            + g[ix + 1, iy] * tx * (1 - ty)
            + g[ix, iy + 1] * (1 - tx) * ty
            + g[ix + 1, iy + 1] * tx * ty
        )
        outside = (
            (x1 < sx.x_lo) | (x1 > sx.x_hi) | (x2 < sy.x_lo) | (x2 > sy.x_hi)
        )
        return np.where(outside, config.NEG_INF, val)

    @cached_property
    def row_stats(self) -> RowStats:
        """One Simpson pass over x2 per row: shift, mass and first moment."""
        wy = simpson_weights(self._spec_y.n_points, self._spec_y.step)
        shift = self._log_p.max(axis=1)
        p = np.exp(self._log_p - shift[:, None])
        mass = (p * wy[None, :]).sum(axis=1)
        first = (p * (wy * self._spec_y.nodes())[None, :]).sum(axis=1)
        for arr in (shift, mass, first):
            arr.flags.writeable = False
        return RowStats(shift, mass, first)

    @cached_property
    def _row_log_mass(self) -> np.ndarray:
        """log of the x1-marginal density at each row."""
        rows = self.row_stats
        out = np.log(np.maximum(rows.mass, 1e-320)) + rows.shift
        out.flags.writeable = False
        return out

    def marginal_x(self) -> GridDensity:
        return GridDensity(self._spec_x, self._row_log_mass)

    def row_marginal(self) -> np.ndarray:
        """x1-marginal density at the row nodes."""
        rows = self.row_stats
        return rows.mass * np.exp(rows.shift)

    def conditional_means(self) -> np.ndarray:
        """E[X2 | X1 = x1] at the row nodes."""
        rows = self.row_stats
        return rows.first / np.maximum(rows.mass, 1e-300)

    def swapped(self) -> "Grid2DDensity":
        """Coordinates exchanged: rows become columns."""
        return Grid2DDensity(
            self._spec_y, self._spec_x, self._log_p.T, convexity_lower_bound=self._eps
        )

    def translated(self, dx: float, dy: float) -> "Grid2DDensity":
        """Rigidly moved grid; curvature metadata carries over unverified."""
        sx, sy = self._spec_x, self._spec_y
        out = Grid2DDensity(
            GridSpec(sx.x_lo + dx, sx.x_hi + dx, sx.n_points),
            GridSpec(sy.x_lo + dy, sy.x_hi + dy, sy.n_points),
            self._log_p,
        )
        out._eps = self._eps
        return out

    def mean(self) -> np.ndarray:
        wx = simpson_weights(self._spec_x.n_points, self._spec_x.step)
        marg = np.exp(self._row_log_mass)
        m1 = float((wx * self._spec_x.nodes() * marg).sum())
        wy = simpson_weights(self._spec_y.n_points, self._spec_y.step)
        col = (np.exp(self._log_p).T @ wx)
        m2 = float((wy * self._spec_y.nodes() * col).sum())
        return np.array([m1, m2])

    def second_moment(self) -> float:
        xs = self._spec_x.nodes()[:, None]
        ys = self._spec_y.nodes()[None, :]
        r2 = xs * xs + ys * ys
        return integrate_values_2d(
            r2 * np.exp(self._log_p), self._spec_x, self._spec_y
        ).value

    def _verify_eps(self, eps: float) -> float | None:
        v = -self._log_p
        hx, hy = self._spec_x.step, self._spec_y.step
        vxx = (v[2:, 1:-1] - 2 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / hx**2
        vyy = (v[1:-1, 2:] - 2 * v[1:-1, 1:-1] + v[1:-1, :-2]) / hy**2
        vxy = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (4 * hx * hy)
        half_tr = 0.5 * (vxx + vyy)
        radius = np.sqrt(0.25 * (vxx - vyy) ** 2 + vxy**2)
        min_eig = float((half_tr - radius).min())
        return eps if min_eig >= eps - 1e-6 else None

    def __repr__(self) -> str:
        return (
            f"Grid2DDensity(x=[{self._spec_x.x_lo}, {self._spec_x.x_hi}], "
            f"y=[{self._spec_y.x_lo}, {self._spec_y.x_hi}], "
            f"shape={self._log_p.shape})"
        )


Density = Density1D | ProductDensity | Grid2DDensity


def standard_gaussian() -> GaussianDensity:
    return GaussianDensity(0.0, 1.0)


def standard_gaussian_product(k: int) -> ProductDensity:
    return ProductDensity([standard_gaussian() for _ in range(k)])


def bivariate_gaussian_grid(
    rho: float,
    var: tuple[float, float] = (1.0, 1.0),
    mean: tuple[float, float] = (0.0, 0.0),
    n_points: int | None = None,
    support_radius: float | None = None,
) -> Grid2DDensity:
    """Centered-correlation Gaussian as an explicit 2D grid density."""
    if not -1.0 < rho < 1.0:
        raise ArgumentError(f"correlation must lie in (-1, 1), got {rho}")
    n = n_points or config.DEFAULT_GRID_POINTS_2D
    r = support_radius or config.support_radius()
    s1, s2 = math.sqrt(var[0]), math.sqrt(var[1])
    spec_x = GridSpec(mean[0] - r * s1, mean[0] + r * s1, n)
    spec_y = GridSpec(mean[1] - r * s2, mean[1] + r * s2, n)
    z1 = ((spec_x.nodes() - mean[0]) / s1)[:, None]
    z2 = ((spec_y.nodes() - mean[1]) / s2)[None, :]
    quad = (z1 * z1 - 2.0 * rho * z1 * z2 + z2 * z2) / (2.0 * (1.0 - rho * rho))
    log_p = -quad - math.log(2.0 * math.pi * s1 * s2 * math.sqrt(1.0 - rho * rho))
    # Exact smallest Hessian eigenvalue of the potential: the precision
    # matrix of unit-variance correlated Gaussians has eigenvalue
    # 1 / (1 + |rho|) in the worst direction (after scaling by variances).
    sig = np.array([[var[0], rho * s1 * s2], [rho * s1 * s2, var[1]]])
    eps = float(np.linalg.eigvalsh(np.linalg.inv(sig)).min())
    return Grid2DDensity(spec_x, spec_y, log_p, convexity_lower_bound=eps)


# ---------------------------------------------------------------------------
# Convolution engines
# ---------------------------------------------------------------------------
# 1D convolutions share one kernel: output nodes on the input's own lattice
# (same step, or a whole fraction of it for coarse tables; odd node count for
# pure Simpson; no cap on the count) and one direct Toeplitz sum.  The 2D heat step stays separable: two dense kernel
# matrices and two BLAS products, whose exp calls are a small share of it.

def _odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def _lattice_convolve(table: NodeTable, kernel, lo: float, hi: float) -> GridDensity:
    """Density of X + Y, X tabulated in ``table`` and Y with density ``kernel``.

    The output nodes continue the table's own lattice: [lo, hi] is widened
    outward to whole steps h, plus one more node at the top when needed for
    an odd node count (pure Simpson).  A table too coarse to give the default
    node count that way gets r output nodes per step h instead.  Every
    difference y_i - x_j is then a multiple of h/r, so one sampled kernel
    vector serves the whole Toeplitz sum sum_j w_j p_j k(y_i - x_j), which
    runs as a direct sum: all terms are positive, so the far tails keep full
    relative accuracy (an FFT's roundoff floor, ~1e-16 of the peak, does not).
    """
    spec, h = table.spec, table.spec.step
    n_in = spec.n_points
    before = max(0, math.ceil((spec.x_lo - lo) / h))
    steps = before + n_in - 1 + max(0, math.ceil((hi - spec.x_hi) / h))
    r = max(1, math.ceil((config.default_grid_points() - 1) / steps))
    n_out = _odd(r * steps + 1)
    step = h / r
    out_spec = GridSpec(
        spec.x_lo - before * h,
        spec.x_hi + (n_out - 1 - r * (before + n_in - 1)) * step,
        n_out,
    )
    # every y_i - x_j = (i - r (before + j)) h/r, over all output i and input j
    k = kernel(np.arange(-r * (before + n_in - 1), n_out - r * before) * step)
    weighted = simpson_weights(n_in, h) * table.p
    out = np.empty(n_out)
    for phase in range(r):
        out[phase::r] = np.convolve(k[phase::r], weighted, mode="valid")
    log_out = np.log(np.maximum(out, 1e-320))
    return GridDensity(out_spec, log_out)


def gaussian_convolve(density: Density1D, t: float) -> GridDensity:
    """Distribution of X + sqrt(t) Z as a grid density, by direct quadrature.

    The output lies on the input table's lattice (same step unless the table
    is coarser than the default grid, odd node count) and covers the input's
    support widened by R*sqrt(t) on both sides, R the support radius (10 by
    default), rounded outward to whole steps; the node count is not capped.
    Each output node is the Simpson-weighted sum over the input nodes,
    summed directly.
    """
    if not t > 0:
        raise ArgumentError(f"convolution time must be positive, got {t}")
    table = density.table
    pad = config.support_radius() * math.sqrt(t)
    norm = 1.0 / math.sqrt(2.0 * math.pi * t)
    return _lattice_convolve(
        table,
        lambda z: np.exp(z * z / (-2.0 * t)) * norm,
        table.spec.x_lo - pad,
        table.spec.x_hi + pad,
    )


def convolve(a: Density1D, b: Density1D) -> GridDensity:
    """Distribution of the independent sum X + Y on the summed support.

    Quadrature runs over a's table; b's density is sampled on a's lattice,
    which the output nodes continue (odd node count).
    """
    ta, sb = a.table, b.eval_spec()
    return _lattice_convolve(ta, b.pdf, ta.spec.x_lo + sb.x_lo, ta.spec.x_hi + sb.x_hi)


def gaussian_convolve_2d(density: Grid2DDensity, t: float) -> Grid2DDensity:
    """X + sqrt(t) Z in R^2; the Gaussian kernel factorises, so the
    convolution runs separably along each axis."""
    if not t > 0:
        raise ArgumentError(f"convolution time must be positive, got {t}")
    pad = config.support_radius() * math.sqrt(t)
    sx, sy = density.spec_x, density.spec_y
    nx = _odd(min(2 * sx.n_points - 1, sx.n_points + int(math.ceil(2 * pad / sx.step))))
    ny = _odd(min(2 * sy.n_points - 1, sy.n_points + int(math.ceil(2 * pad / sy.step))))
    out_x = GridSpec(sx.x_lo - pad, sx.x_hi + pad, nx)
    out_y = GridSpec(sy.x_lo - pad, sy.x_hi + pad, ny)
    norm = 1.0 / math.sqrt(2.0 * math.pi * t)

    def kernel(out_nodes, in_spec):
        block = out_nodes[:, None] - in_spec.nodes()[None, :]
        k = np.exp(block * block / (-2.0 * t)) * norm
        return k * simpson_weights(in_spec.n_points, in_spec.step)[None, :]

    p = np.exp(density.log_values)
    mixed = kernel(out_x.nodes(), sx) @ p  # convolve rows
    out = mixed @ kernel(out_y.nodes(), sy).T  # then columns
    log_out = np.log(np.maximum(out, 1e-320))
    return Grid2DDensity(out_x, out_y, log_out)
