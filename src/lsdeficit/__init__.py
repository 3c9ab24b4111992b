"""Distances to the standard Gaussian and certified deficit inequalities.

The package computes relative entropy, Fisher information, optimal
transport costs for even convex costs, and the logarithmic Sobolev
deficit for one dimensional densities, products, and coupled bivariate
grids, then evaluates a registry of deficit lower bounds into pass/fail
certificates with explicit constants and hypotheses.
"""

from .battery import BATTERY_LABELS, standard_battery
from .bounds import (
    BOUND_IDS,
    DEFAULT_TOL,
    BoundCertificate,
    SuiteEntry,
    Workspace,
    certify_suite,
    equality_probe,
    evaluate_bound,
)
from .deltafn import LINEAR_BAND_CONSTANT, delta, delta_scale
from .densities import (
    Density,
    Density1D,
    GaussianDensity,
    Grid2DDensity,
    GridDensity,
    MixtureDensity,
    ProductDensity,
    TiltedDensity,
    bivariate_gaussian_grid,
    convolve,
    gaussian_convolve,
    gaussian_convolve_2d,
    standard_gaussian,
)
from .errors import (
    ArgumentError,
    DegeneratePlanError,
    HypothesisError,
    InfiniteInformationError,
    IntegrandError,
    LsdError,
    NumericalError,
    SpecParseError,
    SupportError,
)
from .functionals import (
    de_bruijn_residual,
    entropy_power,
    fisher_information,
    lsi_deficit,
    relative_entropy,
    relative_fisher,
    shannon_entropy,
    total_variation,
)
from .quadrature import GridSpec, QuadResult, integrate, integrate_values
from .recentering import RecenteredDensity, TensorDecomposition, recenter, tensorise
from .specio import density_to_spec, dumps, load, loads, parse_density
from .transport import (
    COST_ABS,
    COST_DELTA,
    COST_SQ,
    CostFn,
    TransportPlan1D,
    cost_delta_scaled,
    monotone_plan,
    transport_cost,
    w1_distance,
    w2_distance,
    w2_squared,
)
from .values import FunctionalValue

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "BATTERY_LABELS",
    "BOUND_IDS",
    "BoundCertificate",
    "COST_ABS",
    "COST_DELTA",
    "COST_SQ",
    "CostFn",
    "DEFAULT_TOL",
    "DegeneratePlanError",
    "Density",
    "Density1D",
    "FunctionalValue",
    "GaussianDensity",
    "Grid2DDensity",
    "GridDensity",
    "GridSpec",
    "HypothesisError",
    "InfiniteInformationError",
    "IntegrandError",
    "LINEAR_BAND_CONSTANT",
    "LsdError",
    "MixtureDensity",
    "NumericalError",
    "ProductDensity",
    "QuadResult",
    "RecenteredDensity",
    "SpecParseError",
    "SuiteEntry",
    "SupportError",
    "TensorDecomposition",
    "TiltedDensity",
    "TransportPlan1D",
    "Workspace",
    "bivariate_gaussian_grid",
    "certify_suite",
    "convolve",
    "cost_delta_scaled",
    "de_bruijn_residual",
    "delta",
    "delta_scale",
    "density_to_spec",
    "dumps",
    "entropy_power",
    "equality_probe",
    "evaluate_bound",
    "fisher_information",
    "gaussian_convolve",
    "gaussian_convolve_2d",
    "integrate",
    "integrate_values",
    "load",
    "loads",
    "lsi_deficit",
    "monotone_plan",
    "parse_density",
    "recenter",
    "relative_entropy",
    "relative_fisher",
    "shannon_entropy",
    "standard_gaussian",
    "tensorise",
    "total_variation",
    "transport_cost",
    "w1_distance",
    "w2_distance",
    "w2_squared",
]
