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
One entry, ``integrals(mu, names, nu)``, alone decides how a density's
shape reaches the five integrals D, I_plain, I_rel, h and TV and which
reference each takes, refusing before any table is built; the functionals
above are views of it.  A 1D density runs each name's table body, and a
product sums it over its coordinates, except TV, a joint 2D integral.  A
bivariate grid runs every requested integral in one row-block pass
(``_grid2d_integrals``) that exponentiates each block of log values once
and builds its score fields once, only for a Fisher integral.

Convention: contributions where p < 1e-300 are treated as exact zeros
(the x log x limit); Fisher integrands additionally exclude nodes with
p < 1e-290, and a density vanishing strictly inside its support raises
``InfiniteInformationError`` rather than returning a large number.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from . import config, densities
from .values import FunctionalValue, additive
from .densities import Density, Density1D, Grid2DDensity, ProductDensity, standard_gaussian
from .errors import ArgumentError, InfiniteInformationError, NumericalError, SupportError
from .quadrature import GridSpec, integrate, integrate_rows_2d, integrate_values, row_blocks

# The 1D lattice flow stays bound under this module too: the benchmark's
# tracer test (perfbench/tests) checks that it is wrapped here.
gaussian_convolve = densities.gaussian_convolve


def dim_of(density) -> int:
    return getattr(density, "dim", 1)


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


def _reference_log_pdf_2d(mu: Grid2DDensity, nu) -> Callable[[int, int], np.ndarray]:
    """Rows i0:i1 of the reference's log density on mu's nodes, as a function
    of (i0, i1); ``nu`` is None, a 2-factor product or a 2D grid."""
    xs = mu.spec_x.nodes()[:, None]
    ys = mu.spec_y.nodes()[None, :]
    if nu is None:
        log_phi = standard_gaussian().log_pdf
        qx, qy = log_phi(xs), log_phi(ys)
        return lambda i0, i1: qx[i0:i1] + qy
    if isinstance(nu, ProductDensity):
        fx, fy = nu.factors
        qx = np.asarray(fx.log_pdf(xs[:, 0]))[:, None]
        qy = np.asarray(fy.log_pdf(ys[0, :]))[None, :]
        return lambda i0, i1: qx[i0:i1] + qy

    def rows(i0: int, i1: int) -> np.ndarray:
        pts = np.stack(np.broadcast_arrays(xs[i0:i1], ys), axis=-1).reshape(-1, 2)
        return np.asarray(nu.log_pdf(pts)).reshape(i1 - i0, ys.shape[1])

    return rows


_GRID2D_NAMES = ("D", "I_plain", "I_rel", "h", "TV")


def _grid2d_integrals(mu: Grid2DDensity, names, nu=None) -> dict[str, FunctionalValue]:
    """The 2D integrals named in ``names`` (of ``_GRID2D_NAMES``), from one
    row-block pass; D and TV are against ``nu`` (default gamma_2), the
    Fisher integrals against gamma_2 (score -x) for I_rel and score 0 for
    I_plain.

    Each block exponentiates its log values once and, when a Fisher
    integral is asked, builds one block of score fields.  Each integrand is
    built with the arithmetic it has alone, written into one of two reused
    block buffers, and the nodes below ``LOG_ZERO_FLOOR`` (below
    ``FISHER_DENSITY_FLOOR`` for a Fisher integrand) are zeroed in place;
    ``integrate_rows_2d`` sums each on its own, so every value has the bits
    of a one-name pass.  A floor's mask is built only in a block whose
    smallest density is below it: an empty mask zeroes nothing.  The y
    nodes are tiled to a block once, so no integrand op broadcasts a row.
    D looks for mass where the reference vanishes only in a block whose
    reference reaches -inf.  The integrands of a block are yielded one by
    one, so each is summed before the next is built in its buffer.
    """
    wanted = tuple(name for name in _GRID2D_NAMES if name in names)
    log_q = _reference_log_pdf_2d(mu, nu) if {"D", "TV"} & set(wanted) else None
    fisher = {"I_plain", "I_rel"} & set(wanted)
    xs = mu.spec_x.nodes()[:, None]
    blocks = row_blocks(mu.spec_x.n_points)
    size = (max(i1 - i0 for i0, i1 in blocks), mu.spec_y.n_points)
    buffers = np.empty(size), np.empty(size)
    ys = np.tile(mu.spec_y.nodes(), (size[0], 1)) if "I_rel" in wanted else None

    def block(i0: int, i1: int) -> Iterator[np.ndarray]:
        # the score fields first, so that their temporaries meet no other
        # block array than the buffers
        if fisher:
            gx, gy = mu.score_fields(i0, i1)
        log_p = mu.log_values[i0:i1]
        p = np.exp(log_p)
        v, t = (buf[: i1 - i0] for buf in buffers)
        # the masks of the nodes below each floor, None when there are
        # none: p, the exp of finite values, is never nan
        p_min = p.min()
        dead = p < config.LOG_ZERO_FLOOR if p_min < config.LOG_ZERO_FLOOR else None
        fisher_dead = p < config.FISHER_DENSITY_FLOOR if p_min < config.FISHER_DENSITY_FLOOR else None
        q = log_q(i0, i1) if log_q is not None else None
        for name in wanted:
            if name == "D":
                # only a block whose reference reaches -inf (or nan) can
                # put mass where the reference vanishes
                if not q.min() > -np.inf and (
                    (p >= config.LOG_ZERO_FLOOR) & np.isneginf(q)
                ).any():
                    raise SupportError(
                        "relative entropy undefined: mass where the 2D reference vanishes"
                    )
                np.subtract(log_p, q if dead is None else np.where(dead, 0.0, q), out=v)
                v *= p
                mask = dead
            elif name == "I_plain":
                np.multiply(gx, gx, out=v)
                v += np.multiply(gy, gy, out=t)
                v *= p
                mask = fisher_dead
            elif name == "I_rel":
                np.add(gx, xs[i0:i1], out=v)
                v *= v
                np.add(gy, ys[: i1 - i0], out=t)
                v += np.multiply(t, t, out=t)
                v *= p
                mask = fisher_dead
            elif name == "h":
                np.negative(p, out=v)
                v *= log_p
                mask = dead
            else:
                np.subtract(p, np.exp(q, out=v), out=v)
                np.abs(v, out=v)
                mask = None
            if mask is not None:
                np.copyto(v, 0.0, where=mask)
            yield v

    results = integrate_rows_2d(block, mu.spec_x, mu.spec_y, refine=True)
    values = {}
    for name, r in zip(wanted, results):
        value = min(r.value, 2.0) if name == "TV" else r.value
        values[name] = FunctionalValue(name, value, r.abs_error_estimate)
    return values


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


def _fisher_1d(name: str, mu: Density1D, score_q) -> FunctionalValue:
    """int (score_mu - score_q)^2 dmu on mu's table; ``score_q`` 0 gives the
    plain Fisher information."""
    t = mu.table
    live = _fisher_mask_1d(t.p)
    diff = t.score - score_q
    integrand = np.where(live, diff * diff * t.p, 0.0)
    r = integrate_values(integrand, t.spec, refine=True)
    return FunctionalValue(name, r.value, r.abs_error_estimate)


def _fisher_information_1d(mu: Density1D, nu: Density1D) -> FunctionalValue:
    """Plain I: ``nu``, which every 1D body takes, is not read."""
    r = _fisher_1d("I_plain", mu, 0.0)
    var = mu.variance()
    if var > 0 and r.value < 1.0 / var - r.error_estimate - 1e-6:
        raise NumericalError(
            f"Fisher information {r.value} below the Cramer-Rao floor 1/Var = {1.0 / var}"
        )
    return r


def _relative_fisher_1d(mu: Density1D, nu: Density1D) -> FunctionalValue:
    return _fisher_1d("I_rel", mu, np.asarray(nu.score(mu.table.nodes), dtype=float))


# ---------------------------------------------------------------------------
# Entropy, entropy power, total variation
# ---------------------------------------------------------------------------

def _shannon_entropy_1d(mu: Density1D, nu: Density1D) -> FunctionalValue:
    """h: ``nu`` is not read, as for plain I."""
    t = mu.table
    live = t.p >= config.LOG_ZERO_FLOOR
    integrand = np.where(live, -t.p * t.log_p, 0.0)
    r = integrate_values(integrand, t.spec, refine=True)
    return FunctionalValue("h", r.value, r.abs_error_estimate)


def entropy_power(mu) -> FunctionalValue:
    """N(X) = exp(2 h(X) / n) for an n-coordinate density."""
    return _entropy_power(shannon_entropy(mu), dim_of(mu))


def _entropy_power(h: FunctionalValue, n: int) -> FunctionalValue:
    """N = exp(2 h / n) from an entropy h of n coordinates; its bar
    N (exp(2 e / n) - 1) covers the convex map's larger side, upward."""
    value = math.exp(2.0 * h.value / n)
    return FunctionalValue("N", value, value * math.expm1(2.0 * h.error_estimate / n))


def _merged_spec(a: Density1D, b: Density1D) -> GridSpec:
    sa, sb = a.eval_spec(), b.eval_spec()
    n = max(sa.n_points, sb.n_points)
    return GridSpec(min(sa.x_lo, sb.x_lo), max(sa.x_hi, sb.x_hi), n + (n + 1) % 2)


def _total_variation_1d(mu: Density1D, nu: Density1D) -> FunctionalValue:
    """int |p - q| over a grid covering both supports."""
    r = integrate(
        lambda x: np.abs(np.asarray(mu.pdf(x)) - np.asarray(nu.pdf(x))),
        _merged_spec(mu, nu),
        refine=True,
    )
    return FunctionalValue("TV", min(r.value, 2.0), r.abs_error_estimate)


def _total_variation_product(mu: ProductDensity) -> FunctionalValue:
    """TV of a 2-factor product against gamma_2, a joint 2D integral: TV
    does not add over coordinates."""
    fx, fy = mu.factors
    n = config.DEFAULT_GRID_POINTS_2D
    sx, sy = fx.eval_spec(), fy.eval_spec()
    spec_x = GridSpec(sx.x_lo, sx.x_hi, n)
    spec_y = GridSpec(sy.x_lo, sy.x_hi, n)
    px = np.asarray(fx.pdf(spec_x.nodes()))[:, None]
    py = np.asarray(fy.pdf(spec_y.nodes()))[None, :]
    log_phi = standard_gaussian().log_pdf
    qx = np.exp(log_phi(spec_x.nodes()))[:, None]
    qy = np.exp(log_phi(spec_y.nodes()))[None, :]
    (r,) = integrate_rows_2d(
        lambda i0, i1: (np.abs(px[i0:i1] * py - qx[i0:i1] * qy),), spec_x, spec_y, refine=True
    )
    return FunctionalValue("TV", min(r.value, 2.0), r.abs_error_estimate)


# ---------------------------------------------------------------------------
# The one entry: each integral of each shape
# ---------------------------------------------------------------------------

_BODIES_1D = {
    "D": _relative_entropy_1d,
    "I_plain": _fisher_information_1d,
    "I_rel": _relative_fisher_1d,
    "h": _shannon_entropy_1d,
    "TV": _total_variation_1d,
}


def _named(density) -> str:
    """How the reference rule names a density's shape, and None."""
    if density is None:
        return "nu=None"
    if isinstance(density, Density1D):
        return "a 1D density"
    if isinstance(density, ProductDensity):
        return f"a {density.dim}-factor product"
    if isinstance(density, Grid2DDensity):
        return "a 2D grid"
    return f"a {type(density).__name__}"


def _references(shape: str, name: str) -> tuple[str, ...]:
    """The one reference rule: the references (named by ``_named``; nu=None
    is gamma of the density's dimension) that integral ``name`` of a density
    named ``shape`` takes.  I_plain and h read none, and a product's TV is
    one joint integral against gamma_2, implemented for 2 coordinates."""
    if name in ("I_plain", "h") or (shape, name) == ("a 2D grid", "I_rel"):
        return ("nu=None",)
    if shape == "a 2D grid":
        return ("nu=None", "a 2-factor product", "a 2D grid")
    if name == "TV" and shape.endswith("product"):
        return ("nu=None",) if shape == "a 2-factor product" else ()
    return ("nu=None", shape)


def integrals(mu, names, nu=None) -> dict[str, FunctionalValue]:
    """The integrals of ``mu`` named in ``names`` (of D, I_plain, I_rel, h
    and TV), by name, against ``nu`` (default: the standard Gaussian of
    mu's dimension) where the integral reads one.

    This is the only code that decides how a density's shape reaches them
    and which reference each takes (``_references``): a name outside the
    five, or a reference its integral does not take, is refused before any
    table or row pass.  A 2D grid runs one row pass for every name
    (``_grid2d_integrals``), a 1D density each name's table body, and a
    product the sum of that body over its coordinates, except TV, one joint
    2D integral.
    """
    if unknown := [name for name in names if name not in _BODIES_1D]:
        raise ArgumentError(f"unknown integral {unknown[0]!r}; known: {', '.join(_BODIES_1D)}")
    if not isinstance(mu, (Density1D, ProductDensity, Grid2DDensity)):
        raise ArgumentError(f"unsupported density type {type(mu).__name__}")
    shape, given = _named(mu), _named(nu)
    for name in names:
        if given not in (takes := _references(shape, name)):
            listed = " or ".join(takes) or "none (it is implemented for 2 coordinates)"
            raise ArgumentError(f"{name} of {shape} takes {listed}; got {given}")
    if isinstance(mu, Grid2DDensity):
        return _grid2d_integrals(mu, names, nu)
    if isinstance(mu, Density1D):
        ref = standard_gaussian() if nu is None else nu
        return {name: _BODIES_1D[name](mu, ref) for name in names}
    refs = [standard_gaussian() for _ in mu.factors] if nu is None else nu.factors
    return {
        name: _total_variation_product(mu)
        if name == "TV"
        else additive(_BODIES_1D[name](f, g) for f, g in zip(mu.factors, refs))
        for name in names
    }


def relative_entropy(mu, nu=None) -> FunctionalValue:
    """D(mu | nu); nu defaults to the standard Gaussian of mu's dimension."""
    return integrals(mu, ("D",), nu)["D"]


def fisher_information(mu) -> FunctionalValue:
    """Plain Fisher information I(X) = int |grad log p|^2 dmu."""
    return integrals(mu, ("I_plain",))["I_plain"]


def relative_fisher(mu, nu=None) -> FunctionalValue:
    """I(mu | nu) = int |score_mu - score_nu|^2 dmu."""
    return integrals(mu, ("I_rel",), nu)["I_rel"]


def shannon_entropy(mu) -> FunctionalValue:
    """Differential entropy h(X) = -int p log p."""
    return integrals(mu, ("h",))["h"]


def total_variation(mu, nu=None) -> FunctionalValue:
    """int |p - q| over a grid covering both supports; lands in [0, 2]."""
    return integrals(mu, ("TV",), nu)["TV"]


# ---------------------------------------------------------------------------
# Deficit and the heat-flow derivative check
# ---------------------------------------------------------------------------

def lsi_deficit(mu) -> FunctionalValue:
    """I(mu|gamma)/2 - D(mu|gamma): nonnegative, zero only at translates."""
    both = integrals(mu, ("I_rel", "D"))
    i_rel, d = both["I_rel"], both["D"]
    return FunctionalValue(
        "deficit",
        0.5 * i_rel.value - d.value,
        0.5 * i_rel.error_estimate + d.error_estimate + 1e-10,
    )


def de_bruijn_residual(mu, t: float, h_step: float | None = None) -> float:
    """|d/dt h(X + sqrt(t) Z) - I(X + sqrt(t) Z)/2| by central differencing.

    The residual is O(h_step^2) plus quadrature error; the default step is
    1e-2 * sqrt(t).
    """
    if not isinstance(mu, Density):
        raise ArgumentError(f"unsupported density type {type(mu).__name__}")
    if h_step is None:
        h_step = 1e-2 * math.sqrt(t)
    if not (t > h_step > 0):
        raise ArgumentError(f"need t > h_step > 0, got t={t}, h_step={h_step}")
    h_plus = shannon_entropy(mu.heat_flow(t + h_step)).value
    h_minus = shannon_entropy(mu.heat_flow(t - h_step)).value
    derivative = (h_plus - h_minus) / (2.0 * h_step)
    half_info = 0.5 * fisher_information(mu.heat_flow(t)).value
    return abs(derivative - half_info)
