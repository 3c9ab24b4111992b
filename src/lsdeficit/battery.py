"""Standard labeled battery of test densities.

A fixed, deterministic collection spanning the supported shapes: scaled
and shifted Gaussians, symmetric two-component mixtures, a quartic tilt
with a certified convexity floor, product combinations, and coupled 2D
Gaussian grids.  Labels are stable identifiers used in reports.
"""

from __future__ import annotations

from .densities import (
    Density,
    GaussianDensity,
    MixtureDensity,
    ProductDensity,
    TiltedDensity,
    bivariate_gaussian_grid,
)

_TILT_COEFFS = (0.0, 0.0, 0.25, 0.0, 0.05)


def _symmetric_mixture(gap: float) -> MixtureDensity:
    h = 0.5 * gap
    return MixtureDensity([(0.5, -h, 1.0), (0.5, h, 1.0)])


BATTERY_LABELS: tuple[str, ...] = (
    "gauss-narrow",
    "gauss-sub",
    "gauss-super",
    "gauss-wide",
    "gauss-shift-pos",
    "gauss-shift-neg",
    "mixture-gap1",
    "mixture-gap2",
    "tilted-quartic",
    "product-mixed",
    "product-tilted",
    "grid2d-uncorrelated",
    "grid2d-correlated",
)


def standard_battery() -> list[tuple[str, Density]]:
    """Fresh instances each call, labelled by ``BATTERY_LABELS`` in order."""
    members: list[Density] = [
        GaussianDensity(0.0, 0.25),
        GaussianDensity(0.0, 0.64),
        GaussianDensity(0.0, 1.5625),
        GaussianDensity(0.0, 4.0),
        GaussianDensity(1.0, 1.0),
        GaussianDensity(-1.0, 1.0),
        _symmetric_mixture(1.0),
        _symmetric_mixture(2.0),
        TiltedDensity(list(_TILT_COEFFS), convexity_lower_bound=0.5),
        ProductDensity([GaussianDensity(0.0, 0.25), _symmetric_mixture(2.0)]),
        ProductDensity(
            [
                TiltedDensity(list(_TILT_COEFFS), convexity_lower_bound=0.5),
                GaussianDensity(0.5, 1.0),
            ]
        ),
        bivariate_gaussian_grid(0.0),
        bivariate_gaussian_grid(0.5),
    ]
    return list(zip(BATTERY_LABELS, members, strict=True))
