"""Deterministic composite quadrature on uniform grids.

Integrals are computed with composite Simpson weights.  An even interval
count uses the classic 1-4-2-...-4-1 stencil; an odd interval count keeps
Simpson on the leading intervals and closes with the 3/8 rule, so the
global O(h^4) order holds for every grid size >= 16 points.

Every sum of weighted node values is correctly rounded: ``_exact_sums``
returns the float nearest the exact sum (ties to even), the value
``math.fsum`` gives, so results are bit-stable across runs.  One kernel,
``_binned_sums``, writes each term's magnitude as an integer mantissa times
a power of two and adds the pieces into integer bins keyed by exponent, the
negative terms into bins of their own.  Every bin sum stays an integer below
2**53, so the float accumulation is exact; the bins join into Python
integers pos and neg, and one correctly rounded division by a power of two
turns pos - neg into the sum.  The roundoff mass sum |w f| of an integral is
pos + neg from the same pass, rounded the same way.

Error estimates come from Richardson comparison: integrating again with
doubled resolution (callable integrands) or halved resolution (stored node
values) and scaling the difference by the order-4 factor 16/15.  A roundoff
floor proportional to the total weighted mass is always added, so the
estimate stays meaningful when truncation error is below machine precision.

An integrand holding |f| for a smooth f has a kink wherever f changes sign,
which costs Simpson O(h^2) that Richardson does not see.  Given f's node
values, ``integrate_values`` integrates |f| exactly on f's cubic interpolant
over each Simpson panel where f changes sign, at both resolutions, and adds
the change from the quadratic interpolant to the estimate.  Locating those
panels (``_kink_panels``) and pricing them (``_kink_price``) are separate
steps, so a row kernel can gather the panels of many row blocks and price
them in one call.

A 2D integral is a tensor-product Simpson sum built ``ROW_BLOCK`` rows at a
time (``integrate_rows_2d``).  One pass can carry a stack of integrands:
each block function returns one row block per integrand, and every
integrand keeps its own row sums, coarse rows, finite check and exact sums,
so it has the same bits in a stack as alone.

Every finite check reads a sum the integral makes anyway, which a non-finite
value always makes non-finite (the weights are positive): the mass sum
|w f| of a 1D integral, the row sums of a 2D one.  Only then are the values
(in 2D, that row block) scanned for the node to name.  No sum raises: past
the float range a sum or mass reads as inf of its sign, so values whose
exact sum or one-signed products overflow integrate to that inf with an inf
error bar.  Products that overflow with both signs leave a nan total, which
the integral refuses with an ``IntegrandError`` naming the overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ArgumentError, IntegrandError

# Richardson factor for an order-4 rule: e_n ~ 16 e_2n, so
# |I_2n - I_n| ~ 15 e_2n = (15/16) e_n.
_RICHARDSON = 16.0 / 15.0
_ROUNDOFF = 64.0 * math.ulp(1.0)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: n_points equally spaced nodes on [x_lo, x_hi]."""

    x_lo: float
    x_hi: float
    n_points: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_lo) and math.isfinite(self.x_hi)):
            raise ArgumentError("grid bounds must be finite")
        if not self.x_lo < self.x_hi:
            raise ArgumentError(f"need x_lo < x_hi, got [{self.x_lo}, {self.x_hi}]")
        if self.n_points < 16:
            raise ArgumentError(f"need n_points >= 16, got {self.n_points}")

    @property
    def step(self) -> float:
        return (self.x_hi - self.x_lo) / (self.n_points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.n_points)

    def refined(self) -> "GridSpec":
        """Same interval with doubled interval count (2n-1 nodes)."""
        return GridSpec(self.x_lo, self.x_hi, 2 * self.n_points - 1)


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    n_evals: int

    def __post_init__(self) -> None:
        if not self.abs_error_estimate >= 0:
            raise ArgumentError(f"abs_error_estimate must be >= 0, got {self.abs_error_estimate!r}")


_CLOSING_38 = np.array([1.0, 3.0, 3.0, 1.0])
_CLOSING_38.flags.writeable = False


@functools.lru_cache(maxsize=64)
def _simpson_pattern(n_points: int) -> np.ndarray:
    """The 1-4-2-...-4-1 Simpson pattern over the odd-count head of an
    n_points grid (all of it when n_points is odd, zeros on the last three
    nodes otherwise), read-only."""
    head = n_points if n_points % 2 == 1 else n_points - 3
    w = np.zeros(n_points)
    w[0] = w[head - 1] = 1.0
    w[1:head - 1:2] = 4.0
    w[2:head - 1:2] = 2.0
    w.flags.writeable = False
    return w


def simpson_weights(n_points: int, step: float) -> np.ndarray:
    """Composite Simpson weights for a uniform grid, as a fresh array.

    Odd n_points: pure Simpson.  Even n_points: Simpson over the first
    n_points-3 intervals plus the 3/8 rule on the final three.
    """
    if n_points < 4:
        raise ArgumentError("need at least 4 nodes for Simpson weights")
    w = _simpson_pattern(n_points) * (step / 3.0)
    if n_points % 2 == 0:
        w[-4:] += _CLOSING_38 * (3.0 * step / 8.0)
    return w


def _halved(n_points: int, step: float) -> tuple[slice, np.ndarray, float]:
    """The half-resolution rule of an n_points axis for the Richardson
    estimate: Simpson of step 2h on every second node of the odd-count head
    (a slice and its weights), and with an even count a trapezoid of weight
    h / 2 on the last two nodes (0 with an odd count): its own error is
    O(h^3) on one cell, folded into the Richardson difference."""
    if n_points % 2 == 1:
        return slice(None, None, 2), simpson_weights((n_points + 1) // 2, 2.0 * step), 0.0
    return slice(None, -1, 2), simpson_weights(n_points // 2, 2.0 * step), 0.5 * step


# Binned exact sums.  frexp writes a nonzero float as mant * 2**exp with
# 0.5 <= |mant| < 1 and -1073 <= exp <= 1024.  With e = exp + _SUM_BIAS and
# r = e % 8, |mant| * 2**(26 + r) splits into an integer part below 2**33
# and a fraction whose 2**32 multiple is an integer (mant has 53 bits).  The
# integer part weighs 2**(8 * (e // 8) - _SUM_LSB), so it goes to bin e // 8
# and the scaled fraction to bin e // 8 - 4; a negative term's magnitude goes
# to the same bins _SUM_BINS further on.  Over one block of _SUM_BLOCK terms
# every bin sum is an integer below 2**46: bincount adds the floats exactly,
# and int64 carries the totals across blocks.  Blocks keep the temporaries
# below 128 KiB, the allocator's mmap threshold.
_SUM_BLOCK = 8192
_SUM_BIAS = 1108
_SUM_LSB = _SUM_BIAS + 26  # 1134: bin b weighs 2**(8 * b - _SUM_LSB)
# The top bin is (1024 + _SUM_BIAS) // 8 = 266, so one half's total is below
# 2**(8 * 266 + 64); 280 bins (a multiple of 8) keep the halves apart.
_SUM_BINS = 280


def _binned_sums(x: np.ndarray) -> tuple[int, int]:
    """Exact sums of the positive terms and of the negative terms'
    magnitudes of a finite float array, in units of 2**-_SUM_LSB."""
    bins = np.zeros(2 * _SUM_BINS, dtype=np.int64)
    # equal blocks, so a 2**k + 1 grid does not leave a one-term block
    n_blocks = -(-x.size // _SUM_BLOCK)
    size = -(-x.size // n_blocks) if n_blocks else 1
    for start in range(0, x.size, size):
        mant, exp = np.frexp(x[start : start + size])
        exp += _SUM_BIAS
        shift = exp & 7
        shift += 26
        exp >>= 3
        top = np.multiply(np.signbit(mant), _SUM_BINS, dtype=np.intp)
        top += exp
        scaled = np.ldexp(np.abs(mant, out=mant), shift, out=mant)
        whole = np.floor(scaled)
        scaled -= whole
        scaled *= 2.0**32
        block_bins = np.bincount(top, weights=whole, minlength=2 * _SUM_BINS)
        block_bins[:-4] += np.bincount(top, weights=scaled, minlength=2 * _SUM_BINS)[4:]
        bins += block_bins.astype(np.int64)
    # sum_b bins[b] * 2**(8b) = pos + neg * 2**(8 * _SUM_BINS): bins 8 apart
    # are 64 bits apart, so the bins of one residue mod 8 read as one
    # unsigned int.from_bytes
    phases = np.ascontiguousarray(bins.reshape(-1, 8).T, dtype="<i8").tobytes()
    width = len(phases) // 8
    both = 0
    for j in range(8):
        both += int.from_bytes(phases[j * width : (j + 1) * width], "little") << (8 * j)
    half = 8 * _SUM_BINS
    return both & ((1 << half) - 1), both >> half


def _exact_sums(terms: np.ndarray) -> tuple[float, float]:
    """Sum and roundoff mass sum |t| of a float array from one binned pass,
    as pos - neg and pos + neg, each correctly rounded: the sum is what
    ``math.fsum`` returns.  Never raises: each reads inf of its sign past the
    float range, and partial sums never overflow (``math.fsum`` refuses with
    "intermediate overflow").  With a non-finite term both are IEEE sums,
    inf or nan, without a warning for +inf plus -inf."""
    x = np.asarray(terms, dtype=float).ravel()
    if not np.isfinite(x).all():
        with np.errstate(invalid="ignore"):
            return float(x.sum()), float(np.abs(x).sum())
    pos, neg = _binned_sums(x)
    sums = []
    for units in (pos - neg, pos + neg):
        try:
            sums.append(units / (1 << _SUM_LSB))
        except OverflowError:
            sums.append(math.inf if units > 0 else -math.inf)
    return sums[0], sums[1]


def _exact_sum(terms: np.ndarray) -> float:
    """The correctly rounded sum of ``_exact_sums``."""
    return _exact_sums(terms)[0]


def _simpson(values: np.ndarray, spec: GridSpec) -> tuple[float, float]:
    """Simpson total of node values over spec's grid and its roundoff floor,
    from one exact pass.  A non-finite value makes the mass |w f|
    non-finite; only then are the values scanned for the node to name."""
    total, mass = _exact_sums(values * simpson_weights(spec.n_points, spec.step))
    if not math.isfinite(mass):
        bad = ~np.isfinite(values)
        if bad.any():
            i = int(np.argmax(bad))
            raise IntegrandError(
                f"non-finite integrand value {float(values[i])} at node index {i}, "
                f"x={float(spec.nodes()[i])}"
            )
    return total, _ROUNDOFF * mass


def _result(total: float, est: float, n_evals: int) -> QuadResult:
    """An integral's result, in plain floats.  A nan total (products past
    the float range with both signs) is refused; a nan estimate (inf - inf
    in a Richardson difference) reads as inf."""
    if math.isnan(total):
        raise IntegrandError("Simpson products overflow the float range with both signs")
    return QuadResult(float(total), math.inf if math.isnan(est) else float(est), n_evals)


def _abs_integral(t1: np.ndarray, t2: np.ndarray, coef: tuple) -> np.ndarray:
    """Integral of |q| over a panel t in [0, 2], q the cubic with monomial
    coefficients ``coef``, split at 0 <= t1 <= t2 <= 2, which hold q's roots."""
    c0, c1, c2, c3 = coef
    antider = lambda t: t * (c0 + t * (c1 / 2.0 + t * (c2 / 3.0 + t * (c3 / 4.0))))
    q1, q2 = antider(t1), antider(t2)
    return np.abs(q1) + np.abs(q2 - q1) + np.abs(antider(2.0) - q2)


# a panel's nodes t = 0, 1, 2, 3 as column offsets from its first node
_PANEL_NODES = np.arange(4)[:, None]
_PANEL_NODES.flags.writeable = False


def _kink_panels(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Locate the Simpson panels of |f| that hold a kink, per row of ``f``.

    ``f`` holds node values of a smooth function along its last axis.  The
    panels are the [x_2k, x_2k+2] of ``simpson_weights`` where f changes
    sign (a 3/8 closing panel keeps its kinks).  Returns their rows and a
    (5, panels) array: f at the panel's nodes t = 0, 1, 2 (x = x_2k + t h),
    f at the next node t3 = 3 (at the previous, t3 = -1, at the grid's
    end), and t3.  ``_kink_price`` prices them; panels gathered from row
    blocks price as one stack when their rows are offset to the stack's.
    """
    f = np.atleast_2d(f)
    n = f.shape[-1]
    head = n if n % 2 == 1 else n - 3
    # change[:, j]: f changes sign between nodes j and j + 1; panel k holds
    # the pairs 2k and 2k + 1
    sign = np.signbit(f[:, :head])
    change = sign[:, 1:] != sign[:, :-1]
    found = np.flatnonzero(change[:, 0::2] | change[:, 1::2])
    rows, panels = np.divmod(found, (head - 1) // 2)
    start = 2 * panels
    t3 = np.where(start + 3 < n, 3.0, -1.0)
    cols = start + _PANEL_NODES
    cols[3] = start + t3.astype(np.intp)
    return rows, np.vstack((f[rows, cols], t3))


def _kink_price(
    rows: np.ndarray, panels: np.ndarray, step: float, n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Simpson's kink error for |f| on located panels (``_kink_panels``),
    per row of n_rows.

    Returns per row: the integral of |q| minus Simpson's value for |f|, q
    the cubic through the panel's nodes and t3; and the change of that
    integral from the quadratic through the panel's nodes, which bounds how
    far it can be from the integral of |f| (the cubic's own error is an
    order of h smaller).  Both split the panel at the quadratic's roots; the
    cubic's lie within O(h^3) of them, which moves its integral by O(h^6)
    only.  Each panel is priced on its own and each row sums its panels in
    order, so a row's bits do not depend on which other rows share the call.
    """
    if rows.size == 0:
        zero = np.zeros(n_rows)
        return zero, zero
    a0, a1, a2, a3, t3 = panels
    # quadratic a0 + b t + c t^2 through t = 0, 1, 2; the cubic through t3
    # as well adds e t (t - 1) (t - 2)
    b = 0.5 * (4.0 * a1 - 3.0 * a0 - a2)
    c = 0.5 * (a0 - 2.0 * a1 + a2)
    e = (a3 - (a0 + t3 * (b + t3 * c))) / (t3 * (t3 - 1.0) * (t3 - 2.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        qq = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * c * a0, 0.0)), b))
        # roots outside the panel, or undefined, collapse onto its ends
        r1, r2 = (np.where(np.isfinite(r), np.clip(r, 0.0, 2.0), 0.0) for r in (qq / c, a0 / qq))
    t1, t2 = np.minimum(r1, r2), np.maximum(r1, r2)
    quadratic = _abs_integral(t1, t2, (a0, b, c, 0.0))
    exact = _abs_integral(t1, t2, (a0, b + 2.0 * e, c - 3.0 * e, e))
    simpson = (np.abs(a0) + 4.0 * np.abs(a1) + np.abs(a2)) / 3.0
    per_row = lambda v: np.bincount(rows, weights=step * v, minlength=n_rows)
    return per_row(exact - simpson), per_row(np.abs(exact - quadratic))


def integrate_values(
    values: np.ndarray,
    spec: GridSpec,
    refine: bool = False,
    kinked: np.ndarray | None = None,
) -> QuadResult:
    """Integrate stored node values over spec's grid.

    With ``refine`` the estimate compares against the half-resolution rule
    (every second node), scaled by the Richardson order factor.
    ``kinked`` holds the node values of a smooth f whose absolute value is
    a term of the integrand: the panels where f changes sign integrate |f|
    on its cubic interpolant, at both resolutions (``_kink_panels``, then
    ``_kink_price``).
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (spec.n_points,):
        raise ArgumentError(
            f"value array of shape {values.shape} does not match grid of {spec.n_points} nodes"
        )
    total, floor = _simpson(values, spec)
    if kinked is not None:
        defect, interp = _kink_price(*_kink_panels(kinked), spec.step, 1)
        total += float(defect[0])
        floor += float(interp[0])
    if not refine:
        return _result(total, floor, spec.n_points)
    half, w_half, trap = _halved(spec.n_points, spec.step)
    coarse = _exact_sum(values[half] * w_half)
    if trap:
        coarse += trap * (values[-2] + values[-1])
    if kinked is not None:
        coarse += float(_kink_price(*_kink_panels(kinked[half]), 2.0 * spec.step, 1)[0][0])
    return _result(total, _RICHARDSON * abs(total - coarse) + floor, spec.n_points)


def integrate(
    f: Callable[[np.ndarray], np.ndarray], spec: GridSpec, refine: bool = False
) -> QuadResult:
    """Integrate a callable over spec's grid.

    ``f`` must accept a node vector and return values of the same shape.
    With ``refine`` the integral is recomputed on the doubled grid and the
    requested-resolution value is returned with a Richardson error estimate.
    """
    nodes = spec.nodes()
    values = np.asarray(f(nodes), dtype=float)
    if values.shape != nodes.shape:
        raise ArgumentError("integrand must return one value per node")
    total, floor = _simpson(values, spec)
    if not refine:
        return _result(total, floor, spec.n_points)
    fine_spec = spec.refined()
    fine_total = _simpson(np.asarray(f(fine_spec.nodes()), dtype=float), fine_spec)[0]
    est = _RICHARDSON * abs(fine_total - total) + floor
    return _result(total, est, spec.n_points + fine_spec.n_points)


# Rows per block of a 2D pass.  Every 2D integrand and row statistic is
# built and reduced block by block, so its temporaries stay a few rows wide
# (130 KB at 1025 columns) and freed memory is reused instead of paged in
# afresh.  16 rows keep the 513-column row pass, with about six block arrays
# live at once, below a quarter of one whole-grid array.  Each reduction is
# per row: every weighted row sum is one BLAS row dot, ``block @ w``, and
# the tables' row cumsums run along rows, so the blocks give the whole-array
# bits: a multiple of 8 keeps the matvec's 4-row groups aligned on the full
# and on the halved grid.
ROW_BLOCK = 16


def row_blocks(n_rows: int) -> list[tuple[int, int]]:
    """[i0, i1) ranges of ROW_BLOCK rows covering n_rows rows.

    A one-row tail joins the block before it: numpy reduces a lone row with
    a dot product, whose rounding differs from the matvec's.
    """
    starts = list(range(0, n_rows, ROW_BLOCK))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n_rows]))


def integrate_rows_2d(
    block: Callable[[int, int], Iterable[np.ndarray]],
    spec_x: GridSpec,
    spec_y: GridSpec,
    refine: bool = False,
) -> tuple[QuadResult, ...]:
    """Tensor-product Simpson over a stack of 2D integrands built in row
    blocks.

    ``block(i0, i1)`` returns the rows i0:i1 (rows = x, cols = y) of each
    of k integrands, in order, for the ranges of ``row_blocks``: a tuple,
    or a generator, which builds each integrand's rows only after the one
    before has been summed.  Each is summed over y as it comes, so no
    whole-grid array is held, and the k results come back in order.  Every
    integrand keeps its own row sums, coarse rows, finite check and exact
    sums, so stacking it with others leaves its bits as they are alone.
    The finite check reads the row sums: Simpson weights are positive, so
    a non-finite value makes its row's sum non-finite, and only then is the
    block scanned for the node to name; finite values whose row sums
    overflow integrate as 1D sums past the float range do.  With
    ``refine`` the estimate compares against the half-resolution rule of
    both axes, the tensor product of the 1D rule (``_halved``): every second
    node of each axis's odd-count head, and on an even axis a trapezoid
    closing its last interval.  An odd axis needs 31 nodes for that.
    """
    nx, ny = spec_x.n_points, spec_y.n_points
    for axis, n in (("x", nx), ("y", ny)):
        if refine and n % 2 == 1 and n < 31:
            raise ArgumentError(f"{axis} axis has {n} nodes; the halved Richardson grid needs 31")
    wy = simpson_weights(ny, spec_y.step)
    _, wx_half, trap_x = _halved(nx, spec_x.step)
    half_y, wy_half, trap_y = _halved(ny, spec_y.step)
    rows: list[np.ndarray] = []  # per integrand, its row sums over y
    coarse_rows: list[list[np.ndarray]] = []
    for i0, i1 in row_blocks(nx):
        k = -1
        for k, values in enumerate(block(i0, i1)):
            if i0 == 0:
                rows.append(np.empty(nx))
                coarse_rows.append([])
            elif k == len(rows):
                break
            values = np.asarray(values, dtype=float)
            if values.shape != (i1 - i0, ny):
                raise ArgumentError(
                    f"2D value block of shape {values.shape} does not match "
                    f"rows {i0}:{i1} of a {nx} x {ny} grid"
                )
            # BLAS matvec: one fixed-order dot per row.  A row holding +inf
            # and -inf sums to nan without a warning, on the fine grid and on
            # the halved one: the refusal names it
            with np.errstate(invalid="ignore"):
                row = values @ wy
            if not np.isfinite(row).all():
                bad = ~np.isfinite(values)
                if bad.any():
                    i, j = np.unravel_index(int(np.argmax(bad)), values.shape)
                    i += i0
                    raise IntegrandError(
                        f"non-finite integrand at node ({i}, {j}), "
                        f"x={float(spec_x.nodes()[i])}, y={float(spec_y.nodes()[j])}"
                    )
            rows[k][i0:i1] = row
            if refine:
                # the half-resolution rule along y of the x head: blocks
                # start on even rows, so every second row of a block is
                # every second row of the grid (ending at nx - 2 when nx is
                # even).  The last row, which a trapezoid closing the x axis
                # reads too, joins the last block's head, so that no product
                # has a lone row (see ``row_blocks``)
                sub = values[np.r_[0 : i1 - i0 : 2, -1]] if trap_x and i1 == nx else values[::2]
                with np.errstate(invalid="ignore", over="ignore"):
                    coarse = sub[:, half_y] @ wy_half
                    if trap_y:
                        coarse += trap_y * (sub[:, -2] + sub[:, -1])
                coarse_rows[k].append(coarse)
        if k + 1 != len(rows):
            raise ArgumentError(
                f"rows {i0}:{i1} do not give the {len(rows)} integrands of the first block"
            )
    wx = simpson_weights(nx, spec_x.step)
    results = []
    for row_sums, coarse_sums in zip(rows, coarse_rows):
        row_total, mass = _exact_sums(row_sums * wx)
        est = _ROUNDOFF * (mass + abs(row_total))
        if refine:
            coarse_sums = np.concatenate(coarse_sums)
            head = coarse_sums[: wx_half.size]
            coarse = _exact_sum(head * wx_half)
            if trap_x:
                # Python floats: a sum past the float range reads inf or nan
                coarse += trap_x * (float(head[-1]) + float(coarse_sums[-1]))
            est += _RICHARDSON * abs(row_total - coarse)
        results.append(_result(row_total, est, nx * ny))
    return tuple(results)


def integrate_values_2d(
    values: np.ndarray, spec_x: GridSpec, spec_y: GridSpec, refine: bool = False
) -> QuadResult:
    """Tensor-product Simpson over a 2D node array (rows = x, cols = y)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (spec_x.n_points, spec_y.n_points):
        raise ArgumentError(
            f"2D value array of shape {values.shape} does not match "
            f"{spec_x.n_points} x {spec_y.n_points} grid"
        )
    return integrate_rows_2d(lambda i0, i1: (values[i0:i1],), spec_x, spec_y, refine)[0]
