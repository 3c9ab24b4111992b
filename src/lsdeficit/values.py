"""Value containers shared across functionals, transport, and bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ArgumentError, NumericalError

# Functionals that are nonnegative by definition; a value below minus its
# error bar means the computation, not the math, is broken.
_NONNEGATIVE = {"D", "I_rel", "I_plain", "TV", "deficit"}


@dataclass(frozen=True)
class FunctionalValue:
    """A computed functional with its quadrature error estimate."""

    name: str
    value: float
    error_estimate: float

    def __post_init__(self) -> None:
        if not self.error_estimate >= 0:
            raise ArgumentError(f"error_estimate must be >= 0, got {self.error_estimate!r}")
        nonneg = self.name in _NONNEGATIVE or self.name.startswith("T[")
        if nonneg and self.value < -(self.error_estimate + 1e-9):
            raise NumericalError(
                f"{self.name} = {self.value} is negative beyond its error "
                f"estimate {self.error_estimate}"
            )
        if self.name == "N" and not self.value > 0:
            raise NumericalError(f"entropy power must be positive, got {self.value}")


def additive(parts: Iterable[FunctionalValue]) -> FunctionalValue:
    """Sum of per-coordinate parts of one functional.

    Values and error estimates both add (exactly rounded), as they do for
    independent coordinates; the parts share the name of the sum.
    """
    parts = list(parts)
    return FunctionalValue(
        parts[0].name,
        math.fsum(p.value for p in parts),
        math.fsum(p.error_estimate for p in parts),
    )
