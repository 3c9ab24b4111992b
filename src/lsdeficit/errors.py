"""Exception hierarchy for lsdeficit.

Every failure mode the library reports deliberately gets its own class so
callers (and the CLI exit-code mapping) can tell configuration mistakes
apart from violated math hypotheses and from numerical breakdown.
"""


class LsdError(Exception):
    """Base class for all lsdeficit errors."""


class ArgumentError(LsdError, ValueError):
    """Invalid argument: bad range, malformed spec, mass mismatch, ..."""


class SpecParseError(ArgumentError):
    """A density spec (JSON or dict) could not be parsed."""


class SupportError(LsdError):
    """Absolute-continuity violation: mass outside the reference support."""


class HypothesisError(LsdError):
    """A bound was evaluated on a density that fails its hypotheses.

    The message names the unmet hypothesis (moment condition, centering,
    convexity certificate, dimension restriction).
    """


class DegeneratePlanError(LsdError):
    """Monotone transport map is ill-defined (flat CDF / failed pushforward)."""


class IntegrandError(LsdError):
    """Integrand produced a non-finite value at a quadrature node."""


class InfiniteInformationError(LsdError):
    """Fisher information diverges (density vanishes in the interior)."""


class NumericalError(LsdError):
    """A computed quantity violates a sanity invariant beyond its error bar."""
