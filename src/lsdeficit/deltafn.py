"""The convex gap function delta(t) = t - log(1 + t) and its sharp bounds.

delta is nonnegative on (-1, inf), vanishes only at 0, and controls every
quantitative estimate in the bounds registry.  The helpers below are the
paper's elementary comparison inequalities:

  scaling        delta(c*t) >= min(c, c^2) * delta(t)        (c, t >= 0)
  left quadratic delta(t)  >= t^2 / 2                        (-1 < t <= 0)
  cap quadratic  delta(t)  >= (delta(a) / a^2) * t^2         (0 <= t <= a)
  linear band    (1 - log 2) * min(t, t^2) <= delta(t) <= t  (t >= 0)

All accept scalars or arrays and are exact up to log1p rounding.
Certificates use only ``delta``, ``delta_quadratic_floor`` (the cap
quadratic) and ``LINEAR_BAND_CONSTANT``; ``delta_scale`` states the scaling
lemma as a function.  The linear band is the constant alone: its minorant
is ``LINEAR_BAND_CONSTANT * min(t, t^2)``, written out where it is read.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError

# Sharp constant of the linear band: delta(1) = 1 - log 2.
LINEAR_BAND_CONSTANT = 1.0 - math.log(2.0)


def delta(t):
    """delta(t) = t - log(1 + t), elementwise, for t > -1."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= -1.0):
        raise ArgumentError("delta(t) requires t > -1")
    out = t - np.log1p(t)
    return float(out) if out.ndim == 0 else out


def delta_scale(c, t):
    """Lower bound min(c, c^2) * delta(t) for delta(c * t), c, t >= 0."""
    c = np.asarray(c, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(c < 0) or np.any(t < 0):
        raise ArgumentError("scaling bound needs c >= 0 and t >= 0")
    out = np.minimum(c, c * c) * delta(t)
    return float(out) if out.ndim == 0 else out


def delta_quadratic_floor(a: float) -> float:
    """Coefficient delta(a) / a^2 of the quadratic minorant valid on [0, a]."""
    if not a > 0:
        raise ArgumentError("cap must be positive")
    return delta(a) / (a * a)
