"""Independent quantiles and 1D transport costs, for accuracy tests.

Nothing here reads the library's tables, scores or inverses.  Mixture
quantiles bisect the analytic CDF (the survival function above the median)
and polish with Newton steps.  Tilt quantiles come from a fine table of
cell integrals (5-point Gauss-Legendre on 65536 cells, summed from each
end) and Newton steps on the exact density inside the cell.  Costs are
quantile-space integrals, int c(Q_a(Phi(z)) - Q_b(Phi(z))) phi(z) dz over
|z| <= 9 (truncated mass 2e-19), by 8-point Gauss-Legendre on 720 pieces
split at every sign change of the displacement.
"""

import math

import numpy as np
from scipy import special

_GL8 = np.polynomial.legendre.leggauss(8)
_GL5 = np.polynomial.legendre.leggauss(5)


def _levels(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which points lie above the median, and Phi(z) below it or 1 - Phi(z)
    above it: each tail keeps its relative accuracy."""
    upper = z > 0
    return upper, special.ndtr(np.where(upper, -z, z))


def mixture_quantile(components, z) -> np.ndarray:
    """Q(Phi(z)) of sum_i w_i N(m_i, v_i)."""
    w, m, v = (np.array(c, dtype=float) for c in zip(*components))
    s = np.sqrt(v)
    z = np.asarray(z, dtype=float)
    upper, target = _levels(z)
    sign = np.where(upper, -1.0, 1.0)[:, None]

    def tail(x):  # F(x) below the median, 1 - F(x) above it
        return special.ndtr(sign * (x[:, None] - m) / s) @ w

    lo = np.full(z.shape, m.min() - 60.0 * s.max())
    hi = np.full(z.shape, m.max() + 60.0 * s.max())
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        left = (tail(mid) < target) != upper
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    x = 0.5 * (lo + hi)
    for _ in range(3):
        pdf = (np.exp(-0.5 * ((x[:, None] - m) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))) @ w
        x = x - sign[:, 0] * (tail(x) - target) / pdf
    return x


class TiltQuantile:
    """Q(Phi(z)) of exp(-v) / Z for a polynomial potential v."""

    def __init__(self, coeffs, n_cells: int = 2**16):
        self.v = np.polynomial.Polynomial(coeffs)
        crit = self.v.deriv().roots()
        real = crit[np.abs(crit.imag) < 1e-9].real
        mode = float(real[np.argmin(self.v(real))])
        self.v0 = float(self.v(mode))
        width = 1.0
        while min(self.v(mode - width), self.v(mode + width)) - self.v0 < 745.0:
            width *= 1.25
        self.edges = np.linspace(mode - width, mode + width, n_cells + 1)
        cells = self._integral(self.edges[:-1], self.edges[1:])
        self.left = np.concatenate(([0.0], np.cumsum(cells)))
        self.right = np.concatenate((np.cumsum(cells[::-1])[::-1], [0.0]))

    def _p(self, x):
        return np.exp(-(self.v(x) - self.v0))

    def _integral(self, a, b):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        return half * (self._p(mid[:, None] + half[:, None] * _GL5[0]) @ _GL5[1])

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        upper, level = _levels(z)
        target = level * self.left[-1]
        i = np.where(
            upper,
            np.searchsorted(-self.right, -target, side="left") - 1,
            np.searchsorted(self.left, target, side="right") - 1,
        ).clip(0, self.edges.size - 2)
        a, b = self.edges[i], self.edges[i + 1]
        x = 0.5 * (a + b)
        for _ in range(6):
            below = self.left[i] + self._integral(a, x) - target
            above = target - self.right[i + 1] - self._integral(x, b)
            x = np.clip(x - np.where(upper, above, below) / self._p(x), a, b)
        return x


def quantile_space_costs(qa, qb, costs, n_pieces: int = 720, z_max: float = 9.0) -> list[float]:
    """int c(qa(z) - qb(z)) phi(z) dz over |z| <= z_max, one value per cost."""
    edges = np.linspace(-z_max, z_max, n_pieces + 1)
    d = qa(edges) - qb(edges)
    flips = np.nonzero(np.signbit(d[:-1]) != np.signbit(d[1:]))[0]
    z0, z1, d0, d1 = edges[flips], edges[flips + 1], d[flips], d[flips + 1]
    for _ in range(8):  # secant steps inside each bracket
        moved = d1 != d0
        z2 = np.where(moved, z1 - d1 * (z1 - z0) / np.where(moved, d1 - d0, 1.0), z1)
        z0, d0, z1, d1 = z1, d1, z2, qa(z2) - qb(z2)
    edges = np.sort(np.concatenate((edges, z1)))
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    pts = (0.5 * (a + b))[:, None] + half[:, None] * _GL8[0]
    disp = (qa(pts.ravel()) - qb(pts.ravel())).reshape(pts.shape)
    phi = np.exp(-0.5 * pts * pts) / math.sqrt(2.0 * math.pi)
    return [math.fsum((half * ((cost(disp) * phi) @ _GL8[1])).tolist()) for cost in costs]
