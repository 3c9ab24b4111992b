"""Probability densities on R, coordinate products, and R^2 grids.

The common evaluation surface is that of the 1D variants: ``log_pdf``,
``pdf``, ``score`` (derivative of log density), ``cdf``, ``quantile``,
``mean``, ``variance``, plus a canonical uniform evaluation grid used by all
quadrature-backed functionals; products and 2D grids keep what their
functionals read.  Analytic forms are used where they exist (Gaussian and
mixture CDFs, polynomial-potential scores); grid variants interpolate
``log_p`` linearly, which keeps densities positive and CDFs monotone.

Each 1D density has one map to the standard Gaussian, its normal scores
z = Phi^-1(F(x)) on the table nodes (``normal_scores``), and one inverse,
x(z) (``score_inverse``), which also reads z(x) back (``scores``).  For a
Gaussian both are exact, z = (x - m) / s and x = m + s z; otherwise z comes
from the CDF (a mixture's analytic one, or the ``Density1D`` default, the
Simpson-accumulated tables) and x(z) is a quintic Hermite interpolant in z.
``quantile(u)`` is x(Phi^-1(u)); ``cdf(x)`` is Phi(z(x)), except for a
mixture's analytic CDF.

A 2D grid gives its scores (``score_fields``) and the normal scores of its
rows and x1-marginal (``row_scores``, ``marginal_scores``) row block by row
block.  A grid given as data takes central differences of its log values and
the Simpson-accumulated tables of each row; a ``bivariate_gaussian_grid``
reads its scores, row maps and means off its law: -Sigma^-1 (x - m),
z = (y - mu_{2|1}(x)) / sigma_{2|1} along each row, (x - m1) / s1 along
x1, m and mu_{2|1}(x) = m2 + rho (s2 / s1) (x - m1).

``heat_flow(t)`` is the law of X + sqrt(t) Z.  A Gaussian's is N(m, v + t)
and a mixture's sum_i w_i N(m_i, v_i + t), both exact, and a
``bivariate_gaussian_grid`` N(m, Sigma) flows to N(m, Sigma + t I), tabulated
again on its own node count and support radius; a product flows each factor,
and every other shape, 2D grids given as data included, is flowed on its own
lattice (``gaussian_convolve``, ``gaussian_convolve_2d``).

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
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from . import config
from .errors import ArgumentError
from .quadrature import (
    GridSpec,
    _exact_sum,
    integrate_rows_2d,
    integrate_values,
    row_blocks,
    simpson_weights,
)

_LOG_2PI = math.log(2.0 * math.pi)


# Probabilities are clipped up to this before Phi^-1: the excluded tail mass
# (~1e-300) sits far below every quadrature weight it could multiply.
_U_LO = 1e-300

# The 20 midpoint levels (k + 1/2) / 20 of the pushforward probe.
_PROBE_LEVELS = (np.arange(20) + 0.5) / 20.0
_PROBE_LEVELS.flags.writeable = False


def _table_tails(p: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """(F, 1 - F) on table nodes along the last axis, each forced monotone
    and normalised.

    Each interval's integral is Simpson's on the quadratic through its two
    nodes and one neighbour: the right one on even intervals, the left one
    on odd intervals and on the last (what ``cumulative_simpson`` sums, bit
    for bit).  F adds them from the left end and 1 - F from the right end,
    so each tail keeps full relative accuracy.
    """
    d = step / 3.0
    a, b, c = p[..., :-2:2], p[..., 1:-1:2], p[..., 2::2]
    pieces = np.empty(p.shape[:-1] + (p.shape[-1] - 1,))
    pieces[..., :-1:2] = d * (5 * a / 4 + 2 * b - c / 4)
    pieces[..., 1::2] = d * (5 * c / 4 + 2 * b - a / 4)
    pieces[..., -1] = d * (5 * p[..., -1] / 4 + 2 * p[..., -2] - p[..., -3] / 4)
    cdf, sf = np.empty(p.shape), np.empty(p.shape)
    cdf[..., 0] = sf[..., 0] = 0.0
    np.cumsum(pieces, axis=-1, out=cdf[..., 1:])
    np.cumsum(pieces[..., ::-1], axis=-1, out=sf[..., 1:])
    if (pieces < 0.0).any():  # a quadratic dipped: force monotone sums
        cdf = np.maximum.accumulate(np.maximum(cdf, 0.0), axis=-1)
        sf = np.maximum.accumulate(np.maximum(sf, 0.0), axis=-1)
    sf = sf[..., ::-1]
    # copied divisors: dividing by a view of the array itself makes numpy
    # copy the whole array first
    cdf /= cdf[..., -1:].copy()
    cdf[..., -1] = 1.0
    sf /= sf[..., :1].copy()
    sf[..., 0] = 1.0
    for arr in (cdf, sf):
        arr.flags.writeable = False
    return cdf, sf


def _normal_scores(cdf: np.ndarray, sf: np.ndarray) -> np.ndarray:
    """Phi^-1 of a CDF, read off the survival function above the median:
    each tail keeps the relative accuracy of its own probabilities."""
    upper = cdf > 0.5
    z = np.where(upper, sf, cdf)
    z = special.ndtri(np.clip(z, _U_LO, 1.0, out=z), out=z)
    return np.negative(z, out=z, where=upper)


def _table_scores(p: np.ndarray, step: float) -> np.ndarray:
    """Normal scores along the last axis of density values ``p`` (any
    positive factor per row), read off each row's own CDF and survival
    tables: the score step of every density without a closed-form CDF."""
    return _normal_scores(*_table_tails(p, step))


class NormalScores(NamedTuple):
    """Phi^-1(F) at the table nodes: the monotone map carrying a density
    onto the standard Gaussian, and a bound on its error per node (zero
    where F is analytic; the roundoff of the arithmetic is not included)."""

    z: np.ndarray
    error: np.ndarray | float


def _as_points(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _maybe_scalar(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


class PushforwardProbe(NamedTuple):
    """A density's own quantile/CDF round trip at the 20 midpoint levels u:
    the largest |F(Q(u)) - u| (inf where a quantile is not finite), and
    whether the pdf is finite and positive at every Q(u)."""

    cdf_error: float
    pdf_positive: bool


class NodeTable(NamedTuple):
    """Density evaluated on its canonical grid: the quadrature workhorse."""

    spec: GridSpec
    nodes: np.ndarray
    log_p: np.ndarray
    p: np.ndarray
    score: np.ndarray


def _hermite(q, t: np.ndarray, v: np.ndarray, d: np.ndarray, c: np.ndarray, derivative=False):
    """The quintic Hermite interpolant through values v, first derivatives d
    and second derivatives c at increasing nodes t, or its derivative, at q
    (clipped into [t[0], t[-1]]).  A piece whose end slopes stray from its
    secant by more than a factor of 3 (at a table end, where z jumps over
    clipped tail probabilities) is the straight secant instead."""
    q = np.clip(q, t[0], t[-1])
    i = np.clip(np.searchsorted(t, q, side="right") - 1, 0, t.size - 2)
    h = t[i + 1] - t[i]
    s, dv = (q - t[i]) / h, v[i + 1] - v[i]
    with np.errstate(over="ignore", invalid="ignore"):
        m0, m1, c0, c1 = h * d[i], h * d[i + 1], h * h * c[i], h * h * c[i + 1]
        curved = (m0 > dv / 3) & (m0 < 3 * dv) & (m1 > dv / 3) & (m1 < 3 * dv)
    m0, m1 = np.where(curved, m0, dv), np.where(curved, m1, dv)
    c0, c1 = np.where(curved, c0, 0.0), np.where(curved, c1, 0.0)
    r0, r1, r2 = dv - m0 - c0 / 2, m1 - m0 - c0, c1 - c0
    a3, a4, a5 = 10 * r0 - 4 * r1 + r2 / 2, -15 * r0 + 7 * r1 - r2, 6 * r0 - 3 * r1 + r2 / 2
    if derivative:
        return (m0 + s * (c0 + s * (3 * a3 + s * (4 * a4 + s * 5 * a5)))) / h
    return v[i] + s * (m0 + s * (c0 / 2 + s * (a3 + s * (a4 + s * a5))))


class ScoreInverse:
    """x(z), the inverse of a normal-score table (the map carrying gamma onto
    the density) through the nodes where z strictly increases, so each tail
    keeps the accuracy of its own scores; z beyond them reads the end nodes.
    x' = phi(z) / p(x) and x'' = x' (-z - x' (log p)'(x)) at the nodes."""

    def __init__(self, scores: NormalScores, table: NodeTable):
        keep = np.append(True, scores.z[1:] > np.maximum.accumulate(scores.z)[:-1])
        z = scores.z[keep]
        with np.errstate(over="ignore", invalid="ignore"):
            slope = np.exp(-0.5 * z * z - 0.5 * _LOG_2PI - table.log_p[keep])
            curve = slope * (-z - slope * table.score[keep])
        self._nodes = (z, table.nodes[keep], slope, curve)
        self._table_error = np.broadcast_to(scores.error, keep.shape)[keep]

    @cached_property
    def _forward(self) -> tuple[np.ndarray, ...]:
        z, x, slope, curve = self._nodes
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return x, z, 1.0 / slope, -curve / slope**3

    def __call__(self, z) -> np.ndarray:
        return _hermite(z, *self._nodes)

    def scores(self, x) -> np.ndarray:
        """z(x) through the same nodes, slopes 1 / x'(z) and second
        derivatives -x'' / x'^3: it reads x(z) back to O(h^6)."""
        return _hermite(x, *self._forward)

    def slope(self, z) -> np.ndarray:
        """x'(z), the interpolant's own derivative: phi(z) / p(x) at the
        nodes, so a map read through this inverse has its derivative here."""
        return _hermite(z, *self._nodes, derivative=True)

    def error(self, z, z_error) -> np.ndarray:
        """Error bound of x(z) for z off by ``z_error``: x'(z) times z_error
        and the scores' table error, plus the change of x(z) when built on
        every second node (about 64 times its own O(h^6) error)."""
        n = self._nodes[0].size
        coarse = [a[np.r_[0 : n - 1 : 2, n - 1]] for a in self._nodes]
        z_error = z_error + np.interp(z, self._nodes[0], self._table_error)
        moved = np.abs(self(z) - _hermite(z, *coarse))
        return self.slope(z) * z_error + moved


class _AffineInverse(NamedTuple):
    """x(z) = m + s z and z(x) = (x - m) / s, exact: a Gaussian's inverse."""

    m: float
    s: float

    def __call__(self, z):
        return self.m + self.s * z

    def scores(self, x):
        return (x - self.m) / self.s

    def slope(self, z):
        return np.full(np.shape(z), self.s)

    def error(self, z, z_error):
        return self.s * z_error


class Density1D:
    """Base class for one-dimensional densities."""

    dim = 1

    # -- subclass surface -------------------------------------------------
    def log_pdf(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def score(self, x):  # pragma: no cover - abstract
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

    def cdf(self, x):
        """Phi(z(x)), z the inverse's own scores (``score_inverse.scores``),
        so ``cdf`` and ``quantile`` invert each other."""
        pts, scalar = _as_points(x)
        return _maybe_scalar(special.ndtr(self.score_inverse.scores(pts)), scalar)

    def eval_spec(self) -> GridSpec:
        lo, hi = self._support_hint()
        return GridSpec(lo, hi, config.default_grid_points())

    def _log_pdf_and_score(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log p and the score at the table nodes; a shape whose two share
        work overrides it."""
        log_p = np.asarray(self.log_pdf(nodes), dtype=float)
        return log_p, np.asarray(self.score(nodes), dtype=float)

    @cached_property
    def table(self) -> NodeTable:
        spec = self.eval_spec()
        nodes = spec.nodes()
        log_p, score = self._log_pdf_and_score(nodes)
        p = np.exp(log_p)
        for arr in (nodes, log_p, p, score):
            arr.flags.writeable = False
        return NodeTable(spec, nodes, log_p, p, score)

    @cached_property
    def normal_scores(self) -> NormalScores:
        """Phi^-1(F(x)) on the table nodes, the map to gamma that
        ``score_inverse`` inverts, read off the Simpson-accumulated CDF and
        survival tables.  The error bound per node is the change of the
        scores when the tables are built on every second node: the
        accumulation is O(h^4), so that is about 15 times the error of the
        full tables at those nodes.  Shapes with an analytic CDF override it."""
        t = self.table
        n, step = t.spec.n_points, t.spec.step
        z = _table_scores(t.p, step)
        half = t.p[::2] if n % 2 == 1 else t.p[:-1:2]
        coarse = _table_scores(half, 2.0 * step)
        diff = np.abs(z[: 2 * half.size : 2] - coarse)
        # a node between two coarse nodes takes the larger of their errors
        error = np.repeat(diff, 2)[:n]
        error[1 : 2 * half.size - 1 : 2] = np.maximum(diff[:-1], diff[1:])
        for arr in (z, error):
            arr.flags.writeable = False
        return NormalScores(z, error)

    @cached_property
    def score_inverse(self) -> ScoreInverse | _AffineInverse:
        """x(z), the inverse of ``normal_scores``."""
        return ScoreInverse(self.normal_scores, self.table)

    def quantile(self, u):
        """x(Phi^-1(u)) for u strictly inside (0, 1)."""
        pts, scalar = _as_points(u)
        if np.any(pts <= 0.0) or np.any(pts >= 1.0):
            raise ArgumentError("quantile argument must lie strictly inside (0, 1)")
        return _maybe_scalar(self.score_inverse(special.ndtri(pts)), scalar)

    @cached_property
    def pushforward_probe(self) -> PushforwardProbe:
        """What a transport map to or from this density checks of it, read
        through its public ``quantile``, ``cdf`` and ``pdf``: once per
        object, whatever it is paired with."""
        xs = np.asarray(self.quantile(_PROBE_LEVELS), dtype=float)
        if not np.isfinite(xs).all():
            return PushforwardProbe(math.inf, False)
        error = float(np.abs(np.asarray(self.cdf(xs), dtype=float) - _PROBE_LEVELS).max())
        p = np.asarray(self.pdf(xs), dtype=float)
        return PushforwardProbe(error, bool((np.isfinite(p) & (p > 0.0)).all()))

    def heat_flow(self, t: float) -> "Density1D":
        """Law of X + sqrt(t) Z.  Shapes whose flow has a closed form return
        it; every other shape is flowed on its own lattice
        (``gaussian_convolve``)."""
        return gaussian_convolve(self, t)

    def _verify_eps(self, eps: float) -> float | None:
        """Certify a claimed lower bound on (-log p)'' on the second
        differences of the tabulated potential; clear it when it fails."""
        t = self.table
        second = np.diff(-t.log_p, 2) / t.spec.step**2
        return eps if second.min() >= eps - 1e-8 else None

    def mean(self) -> float:
        t = self.table
        return integrate_values(t.nodes * t.p, t.spec).value

    def variance(self) -> float:
        m = self.mean()
        return self.second_moment() - m * m

    def second_moment(self) -> float:
        """E X^2, the moment hypothesis checked by several bounds."""
        t = self.table
        return integrate_values(t.nodes**2 * t.p, t.spec).value


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

    @cached_property
    def score_inverse(self) -> _AffineInverse:
        return _AffineInverse(self._mean, self._sigma)

    @cached_property
    def normal_scores(self) -> NormalScores:
        """z = (x - m) / s on the table nodes, exact."""
        z = self.score_inverse.scores(self.table.nodes)
        z.flags.writeable = False
        return NormalScores(z, 0.0)

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

    def heat_flow(self, t: float) -> "GaussianDensity":
        """N(m, v + t), exact."""
        return GaussianDensity(self._mean, self._var + _flow_time(t), self._radius)

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
        """log(w_i p_i) at the points, one row per component: the max and
        the sums over components are k - 1 elementwise passes over rows."""
        z = (pts[None, :] - self._m[:, None]) / self._s[:, None]
        return (
            -0.5 * z * z
            - 0.5 * _LOG_2PI
            - np.log(self._s)[:, None]
            + np.log(self._w)[:, None]
        )

    def _shifted_components(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Maximum of the component log densities at each point, and the
        components scaled by its exponential (the largest is 1)."""
        logs = self._component_logs(pts)
        peak = logs.max(axis=0)
        return peak, np.exp(logs - peak)

    def _score_of(self, pts: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The score at the points from their ``_shifted_components``."""
        comp_score = -(pts[None, :] - self._m[:, None]) / self._v[:, None]
        return (r * comp_score).sum(axis=0) / r.sum(axis=0)

    def log_pdf(self, x):
        pts, scalar = _as_points(x)
        peak, r = self._shifted_components(pts)
        return _maybe_scalar(peak + np.log(r.sum(axis=0)), scalar)

    def score(self, x):
        pts, scalar = _as_points(x)
        return _maybe_scalar(self._score_of(pts, self._shifted_components(pts)[1]), scalar)

    def _log_pdf_and_score(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One set of shifted components for both."""
        peak, r = self._shifted_components(nodes)
        return peak + np.log(r.sum(axis=0)), self._score_of(nodes, r)

    def cdf(self, x):
        pts, scalar = _as_points(x)
        z = (pts[:, None] - self._m[None, :]) / self._s[None, :]
        out = special.ndtr(z) @ self._w
        return _maybe_scalar(out, scalar)

    @cached_property
    def normal_scores(self) -> NormalScores:
        """Phi^-1 of the analytic CDF on the table nodes, each tail read off
        its own probabilities."""
        z = (self.table.nodes[:, None] - self._m[None, :]) / self._s[None, :]
        out = _normal_scores(special.ndtr(z) @ self._w, special.ndtr(-z) @ self._w)
        out.flags.writeable = False
        return NormalScores(out, 0.0)

    def mean(self) -> float:
        return float(self._w @ self._m)

    def second_moment(self) -> float:
        return float(self._w @ (self._v + self._m * self._m))

    def _support_hint(self) -> tuple[float, float]:
        r = self._radius
        sigma = math.sqrt(self.variance())
        lo = min(np.min(self._m - r * self._s), self.mean() - r * sigma)
        hi = max(np.max(self._m + r * self._s), self.mean() + r * sigma)
        return float(lo), float(hi)

    def shifted(self, offset: float) -> "MixtureDensity":
        return MixtureDensity(
            [(w, m + offset, v) for (w, m, v) in self.components],
            convexity_lower_bound=self._eps,
            support_radius=self._radius,
        )

    def heat_flow(self, t: float) -> "MixtureDensity":
        """sum_i w_i N(m_i, v_i + t), exact.  Like a lattice flow, it carries
        no verified convexity bound."""
        t = _flow_time(t)
        return MixtureDensity(
            [(w, m, v + t) for (w, m, v) in self.components], support_radius=self._radius
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
        score = np.gradient(self._log_p, self._spec.step)
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

    def mean(self) -> np.ndarray:
        return np.array([f.mean() for f in self._factors])

    def second_moment(self) -> float:
        """E |X|^2 summed over coordinates."""
        return math.fsum(f.second_moment() for f in self._factors)

    def heat_flow(self, t: float) -> "ProductDensity":
        """X + sqrt(t) Z flows each coordinate on its own."""
        return ProductDensity([f.heat_flow(t) for f in self._factors])

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
        # the extremes are finite exactly when every value is (nan
        # propagates), so no whole-grid mask is built
        shift = float(log_p.max())
        if not (math.isfinite(shift) and math.isfinite(float(log_p.min()))):
            raise ArgumentError("grid log-density values must be finite")
        (total,) = integrate_rows_2d(
            lambda i0, i1: (np.exp(log_p[i0:i1] - shift),), spec_x, spec_y
        )
        self._spec_x = spec_x
        self._spec_y = spec_y
        self._log_p = log_p - (math.log(total.value) + shift)
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
        wy_y = wy * self._spec_y.nodes()
        shift = self._log_p.max(axis=1)
        mass, first = np.empty_like(shift), np.empty_like(shift)
        for i0, i1 in row_blocks(shift.size):
            p = np.exp(self._log_p[i0:i1] - shift[i0:i1, None])
            mass[i0:i1] = (p * wy).sum(axis=1)
            first[i0:i1] = (p * wy_y).sum(axis=1)
        for arr in (shift, mass, first):
            arr.flags.writeable = False
        return RowStats(shift, mass, first)

    @cached_property
    def _row_log_mass(self) -> np.ndarray:
        """log of the x1-marginal density at each row; a row's mass is at
        least its largest node's Simpson weight, so the log is finite."""
        rows = self.row_stats
        out = np.log(rows.mass) + rows.shift
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

    def score_fields(self, i0: int, i1: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows i0:i1 of the scores (d/dx1 log p, d/dx2 log p): central
        differences of the log values, one-sided at the grid's edges; the
        x1 difference reads one halo row on each side."""
        g = self._log_p
        lo, hi = max(i0 - 1, 0), min(i1 + 1, g.shape[0])
        gx = np.gradient(g[lo:hi], self._spec_x.step, axis=0)[i0 - lo : i1 - lo]
        return gx, np.gradient(g[i0:i1], self._spec_y.step, axis=1)

    def row_scores(self, i0: int, i1: int, p: np.ndarray) -> np.ndarray:
        """Normal scores Phi^-1(F) along x2 of rows i0:i1, whose density
        values (any positive factor per row) are ``p``: each conditional
        law's map toward gamma, read off its CDF and survival tables."""
        return _table_scores(p, self._spec_y.step)

    def marginal_scores(self, i0: int, i1: int, p: np.ndarray) -> np.ndarray:
        """Normal scores of the x1-marginal, as a one-row stack (i0:i1 is
        0:1), from its density values ``p`` (one row, any positive factor)."""
        return _table_scores(p, self._spec_x.step)

    def mean(self) -> np.ndarray:
        """(E X1, E X2) from the row statistics."""
        rows = self.row_stats
        wx = simpson_weights(self._spec_x.n_points, self._spec_x.step)
        m1 = _exact_sum(wx * self._spec_x.nodes() * self.row_marginal())
        m2 = _exact_sum(wx * rows.first * np.exp(rows.shift))
        return np.array([m1, m2])

    def second_moment(self) -> float:
        xs = self._spec_x.nodes()[:, None]
        ys = self._spec_y.nodes()[None, :]
        (m2,) = integrate_rows_2d(
            lambda i0, i1: ((xs[i0:i1] * xs[i0:i1] + ys * ys) * np.exp(self._log_p[i0:i1]),),
            self._spec_x,
            self._spec_y,
        )
        return m2.value

    def heat_flow(self, t: float) -> "Grid2DDensity":
        """X + sqrt(t) Z on the grid's own lattice (``gaussian_convolve_2d``),
        for a grid given as data; a ``bivariate_gaussian_grid`` flows in
        closed form."""
        return gaussian_convolve_2d(self, t)

    def _verify_eps(self, eps: float) -> float | None:
        hx, hy = self._spec_x.step, self._spec_y.step

        def block_min(i0: int, i1: int) -> float:
            """Smallest Hessian eigenvalue of -log p on interior rows
            i0 + 1 .. i1, read with one halo row on each side."""
            v = -self._log_p[i0 : i1 + 2]
            vxx = (v[2:, 1:-1] - 2 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / hx**2
            vyy = (v[1:-1, 2:] - 2 * v[1:-1, 1:-1] + v[1:-1, :-2]) / hy**2
            vxy = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (4 * hx * hy)
            half_tr = 0.5 * (vxx + vyy)
            radius = np.sqrt(0.25 * (vxx - vyy) ** 2 + vxy**2)
            return (half_tr - radius).min()

        # np.min keeps a nan wherever it sits
        min_eig = float(np.min([block_min(*b) for b in row_blocks(self._spec_x.n_points - 2)]))
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


class _GaussianGrid2D(Grid2DDensity):
    """A grid of ``bivariate_gaussian_grid``: N(mean, Sigma), Sigma with
    variances ``var`` and correlation ``rho``, on n x n nodes spanning
    mean +- r sigma on each axis.  It keeps that law, node count and radius,
    so its heat flow is exact, and keeps ``convexity_lower_bound`` as given:
    it is exact for the law, so the table is not checked against it.  Its
    scores, row and marginal normal scores, mean and conditional means are
    read off the law; integrals still run on the table."""

    def __init__(
        self,
        rho: float,
        var: tuple[float, float],
        mean: tuple[float, float],
        n: int,
        r: float,
        convexity_lower_bound: float | None = None,
    ):
        s1, s2 = math.sqrt(var[0]), math.sqrt(var[1])
        spec_x = GridSpec(mean[0] - r * s1, mean[0] + r * s1, n)
        spec_y = GridSpec(mean[1] - r * s2, mean[1] + r * s2, n)
        xs, ys = spec_x.nodes(), spec_y.nodes()
        z1, z2 = (xs - mean[0]) / s1, (ys - mean[1]) / s2
        # -(z1^2 - 2 rho z1 z2 + z2^2) / (2 (1 - rho^2)) - log norm, written
        # into one array block by block, in that order of operations
        z1_sq, cross, z2_sq = z1 * z1, 2.0 * rho * z1, z2 * z2
        denom = 2.0 * (1.0 - rho * rho)
        log_norm = math.log(2.0 * math.pi * s1 * s2 * math.sqrt(1.0 - rho * rho))
        log_p = np.empty((n, n))
        for i0, i1 in row_blocks(n):
            block = log_p[i0:i1]
            np.multiply(cross[i0:i1, None], z2, out=block)
            np.subtract(z1_sq[i0:i1, None], block, out=block)
            block += z2_sq
            block /= -denom  # a / -b is -(a / b), bit for bit
            block -= log_norm
        super().__init__(spec_x, spec_y, log_p)
        self._eps = convexity_lower_bound
        self._law = (rho, var, mean, n, r)
        # mu_{2|1}(x) = m2 + rho (s2 / s1) (x - m1) and sigma_{2|1}
        cond = mean[1] + rho * (s2 / s1) * (xs - mean[0])
        for arr in (ys, z1, z2, cond):
            arr.flags.writeable = False
        self._ys, self._z, self._sd, self._cond = ys, (z1, z2), (s1, s2), cond
        self._cond_sd = s2 * math.sqrt(1.0 - rho * rho)

    def mean(self) -> np.ndarray:
        """(m1, m2), exact."""
        return np.array(self._law[2])

    def conditional_means(self) -> np.ndarray:
        """mu_{2|1}(x) = m2 + rho (s2 / s1) (x - m1) at the row nodes, exact."""
        return self._cond

    def score_fields(self, i0: int, i1: int) -> tuple[np.ndarray, np.ndarray]:
        """-Sigma^-1 (x - m) on rows i0:i1, exact, in the standardised
        z_i = (x_i - m_i) / s_i: -(z1 - rho z2) / ((1 - rho^2) s1) and
        -(z2 - rho z1) / ((1 - rho^2) s2), the sign folded into the divisor
        (a / -b is -(a / b), bit for bit)."""
        rho, (s1, s2) = self._law[0], self._sd
        z1, z2 = self._z[0][i0:i1, None], self._z[1]
        c = 1.0 - rho * rho
        return (z1 - rho * z2) / -(c * s1), (z2 - rho * z1) / -(c * s2)

    def row_scores(self, i0: int, i1: int, p: np.ndarray) -> np.ndarray:
        """(y - mu_{2|1}(x_i)) / sigma_{2|1} on rows i0:i1, exact: X2 given
        X1 = x is N(mu_{2|1}(x), s2^2 (1 - rho^2))."""
        return (self._ys - self._cond[i0:i1, None]) / self._cond_sd

    def marginal_scores(self, i0: int, i1: int, p: np.ndarray) -> np.ndarray:
        """(x - m1) / s1, exact: X1 is N(m1, s1^2)."""
        return self._z[0][None, :]

    def heat_flow(self, t: float) -> "Grid2DDensity":
        """N(m, Sigma + t I), exact: each variance grows by t and the
        covariance stays, so rho_t = rho sqrt(v1 v2) / sqrt((v1 + t)(v2 + t)).
        Tabulated on the input's node count and support radius."""
        t = _flow_time(t)
        rho, (v1, v2), mean, n, r = self._law
        rho_t = rho * math.sqrt(v1 * v2) / math.sqrt((v1 + t) * (v2 + t))
        return _GaussianGrid2D(rho_t, (v1 + t, v2 + t), mean, n, r)


def bivariate_gaussian_grid(
    rho: float,
    var: tuple[float, float] = (1.0, 1.0),
    mean: tuple[float, float] = (0.0, 0.0),
    n_points: int | None = None,
    support_radius: float | None = None,
) -> Grid2DDensity:
    """Centered-correlation Gaussian as an explicit 2D grid density, which
    flows in closed form (``heat_flow``)."""
    if not -1.0 < rho < 1.0:
        raise ArgumentError(f"correlation must lie in (-1, 1), got {rho}")
    var = (float(var[0]), float(var[1]))
    mean = (float(mean[0]), float(mean[1]))
    if not all(math.isfinite(a) for a in var + mean):
        raise ArgumentError("gaussian parameters must be finite")
    if min(var) <= 0:
        raise ArgumentError(f"variance must be positive, got {var}")
    n = n_points or config.DEFAULT_GRID_POINTS_2D
    r = support_radius or config.support_radius()
    # Exact smallest Hessian eigenvalue of the potential: the precision
    # matrix of unit-variance correlated Gaussians has eigenvalue
    # 1 / (1 + |rho|) in the worst direction (after scaling by variances).
    c = rho * math.sqrt(var[0]) * math.sqrt(var[1])
    eps = float(np.linalg.eigvalsh(np.linalg.inv(np.array([[var[0], c], [c, var[1]]]))).min())
    return _GaussianGrid2D(rho, var, mean, n, r, eps)


# ---------------------------------------------------------------------------
# Convolution engines
# ---------------------------------------------------------------------------
# Every convolution puts its output on its input's own lattice (``_lattice``)
# and samples its kernel once per axis, on the lattice differences.  1D
# convolutions run one direct Toeplitz sum.  The 2D heat step runs separably
# as two whole-array BLAS products with each axis's Toeplitz matrix, a view
# of its kernel vector.  The products are not split into row blocks, since a
# blocked matrix product rounds differently (heat-flowed log values moved by
# about 3e-14); the floor and the log run in place on the product.

# A pad is rounded up to whole steps only past this relative tolerance: the
# window ends carry roundoff that depends on where the grid sits, and the
# node count must not.
_STEP_TOL = 1e-9


def _lattice(spec: GridSpec, lo: float, hi: float, n_min: int) -> tuple[GridSpec, int, np.ndarray]:
    """Output grid of a convolution over ``spec``'s nodes, covering [lo, hi].

    The output nodes continue the input lattice: [lo, hi] is widened outward
    to whole steps h, plus one more node at the top when needed for an odd
    node count (pure Simpson); the count is not capped.  A lattice too
    coarse to give ``n_min`` nodes that way gets r output nodes per step h.
    Returns the output spec, r, and the differences y_i - x_j of all output
    and input nodes, ascending multiples of h/r: y_i - x_j is entry
    i + r (n - 1 - j), n the input node count.
    """
    h, n_in = spec.step, spec.n_points
    whole_steps = lambda d: max(0, math.ceil(d / h * (1.0 - _STEP_TOL)))
    before = whole_steps(spec.x_lo - lo)
    steps = before + n_in - 1 + whole_steps(hi - spec.x_hi)
    r = max(1, math.ceil((n_min - 1) / steps))
    n_out = r * steps + 1 + (r * steps) % 2
    step = h / r
    out_spec = GridSpec(
        spec.x_lo - before * h,
        spec.x_hi + (n_out - 1 - r * (before + n_in - 1)) * step,
        n_out,
    )
    return out_spec, r, np.arange(-r * (before + n_in - 1), n_out - r * before) * step


def _lattice_convolve(table: NodeTable, kernel, lo: float, hi: float) -> GridDensity:
    """Density of X + Y on [lo, hi], X tabulated in ``table`` and Y with
    density ``kernel``, on the table's lattice (at least the default node
    count).  One sampled kernel vector serves the whole Toeplitz sum
    sum_j w_j p_j k(y_i - x_j), which runs as a direct sum: all terms are
    positive, so the far tails keep full relative accuracy (an FFT's
    roundoff floor, ~1e-16 of the peak, does not).
    """
    out_spec, r, offsets = _lattice(table.spec, lo, hi, config.default_grid_points())
    k = kernel(offsets)
    weighted = simpson_weights(table.spec.n_points, table.spec.step) * table.p
    out = np.empty(out_spec.n_points)
    for phase in range(r):
        out[phase::r] = np.convolve(k[phase::r], weighted, mode="valid")
    return GridDensity(out_spec, np.log(np.maximum(out, 1e-320)))


def _flow_time(t: float) -> float:
    """A heat-flow time, refused unless positive."""
    if not t > 0:
        raise ArgumentError(f"convolution time must be positive, got {t}")
    return float(t)


def _heat_kernel(t: float):
    """The heat kernel of X + sqrt(t) Z, z -> exp(-z^2 / 2t) / sqrt(2 pi t),
    and the pad R sqrt(t) a heat step adds on each side, R the support
    radius (10 by default)."""
    t = _flow_time(t)
    norm = 1.0 / math.sqrt(2.0 * math.pi * t)
    return (lambda z: np.exp(z * z / (-2.0 * t)) * norm), config.support_radius() * math.sqrt(t)


def gaussian_convolve(density: Density1D, t: float) -> GridDensity:
    """Distribution of X + sqrt(t) Z as a grid density, by direct quadrature
    over the input table, on its lattice widened by the heat kernel's pad."""
    kernel, pad = _heat_kernel(t)
    table = density.table
    return _lattice_convolve(table, kernel, table.spec.x_lo - pad, table.spec.x_hi + pad)


def convolve(a: Density1D, b: Density1D) -> GridDensity:
    """Distribution of the independent sum X + Y on the summed support.

    Quadrature runs over a's table; b's density is sampled on a's lattice,
    which the output nodes continue (odd node count).
    """
    ta, sb = a.table, b.eval_spec()
    return _lattice_convolve(ta, b.pdf, ta.spec.x_lo + sb.x_lo, ta.spec.x_hi + sb.x_hi)


def gaussian_convolve_2d(density: Grid2DDensity, t: float) -> Grid2DDensity:
    """X + sqrt(t) Z in R^2.  The Gaussian kernel factorises, so the
    convolution runs separably, each axis on its own lattice widened by the
    heat kernel's pad, over the Simpson-weighted input."""
    kernel, pad = _heat_kernel(t)
    sx, sy = density.spec_x, density.spec_y
    weighted = np.exp(density.log_values)
    weighted *= simpson_weights(sx.n_points, sx.step)[:, None]
    weighted *= simpson_weights(sy.n_points, sy.step)
    out_specs, toeplitz = [], []
    for spec in (sx, sy):
        out_spec, _, offsets = _lattice(spec, spec.x_lo - pad, spec.x_hi + pad, spec.n_points)
        out_specs.append(out_spec)
        # k(y_i - x_j) as a strided view of the sampled kernel
        toeplitz.append(sliding_window_view(kernel(offsets), spec.n_points)[:, ::-1])
    out = toeplitz[0] @ weighted @ toeplitz[1].T  # rows, then columns
    np.maximum(out, 1e-320, out=out)
    return Grid2DDensity(*out_specs, np.log(out, out=out))
