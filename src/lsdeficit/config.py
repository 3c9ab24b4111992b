"""Numeric policy: grid sizes, support radius, floor constants.

The module-level values are read-only constants; every closed-form check in
the test suite runs against them.  Two settings may differ from them, and
only inside a ``scoped_policy`` block: the 1D grid size and the support
radius, which a ``NumericPolicy`` checks when it is built.  The CLI opens
one such block per invocation for its ``--grid-points`` and
``--support-radius`` flags, so no call changes the numbers of the next.
``LSD_GRID_POINTS`` overrides the default 1D grid size (at least 16 nodes,
as a policy's); it is read at call time and never written.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from .errors import ArgumentError

# 1D evaluation / storage grids.
DEFAULT_GRID_POINTS = 4096
# Per-axis resolution for bivariate grids (odd, so pure Simpson applies).
DEFAULT_GRID_POINTS_2D = 513
# Support truncation at mean +- RADIUS * sigma_eff.
DEFAULT_SUPPORT_RADIUS = 10.0

# Densities below this are treated as exact zero in x*log(x) expressions.
LOG_ZERO_FLOOR = 1e-300
# Points with density below this are excluded from Fisher integrands.
FISHER_DENSITY_FLOOR = 1e-290
# Sentinel for log densities outside the declared support.
NEG_INF = float("-inf")

ENV_GRID_POINTS = "LSD_GRID_POINTS"


def _check_grid_points(n: int, name: str) -> int:
    if not n >= 16:
        raise ArgumentError(f"{name} must be >= 16, got {n}")
    return n


def check_support_radius(r: float) -> float:
    """The rule of every support radius, a scope's or a constructor's."""
    if not (r > 0 and math.isfinite(r)):
        raise ArgumentError(f"support radius must be positive and finite, got {r}")
    return r


@dataclass(frozen=True)
class NumericPolicy:
    """The settings one scope may override, checked when the policy is built.

    ``grid_points`` None defers to ``LSD_GRID_POINTS``, then to
    ``DEFAULT_GRID_POINTS``.
    """

    grid_points: int | None = None
    support_radius: float = DEFAULT_SUPPORT_RADIUS

    def __post_init__(self) -> None:
        if self.grid_points is not None:
            _check_grid_points(self.grid_points, "grid points")
        check_support_radius(self.support_radius)


_POLICY: ContextVar[NumericPolicy] = ContextVar("numeric_policy", default=NumericPolicy())


@contextmanager
def scoped_policy(policy: NumericPolicy):
    """Apply ``policy`` to every computation inside the block."""
    token = _POLICY.set(policy)
    try:
        yield policy
    finally:
        _POLICY.reset(token)


def support_radius() -> float:
    """Support truncation radius of the current scope."""
    return _POLICY.get().support_radius


def default_grid_points() -> int:
    """Resolve the 1D grid size: scope, then environment, then default."""
    scoped = _POLICY.get().grid_points
    if scoped is not None:
        return scoped
    raw = os.environ.get(ENV_GRID_POINTS)
    if raw is None:
        return DEFAULT_GRID_POINTS
    try:
        n = int(raw)
    except ValueError as exc:
        raise ArgumentError(f"{ENV_GRID_POINTS} must be an integer, got {raw!r}") from exc
    return _check_grid_points(n, ENV_GRID_POINTS)
