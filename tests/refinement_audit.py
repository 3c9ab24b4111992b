"""Refinement listing: does each error bar cover the gap to a refined value?

For every density below it computes D, I, I_rel, h, W2^2 and W1 against
gamma at the default grid and at a refined one, and prints one line per
(label, quantity):

    label quantity value bar value_fine bar_fine gap held

``held`` is true when |value - value_fine| <= bar + bar_fine.  The
densities are the standard battery, the t = 1 heat flow of each member,
one grid2d-certify law (``grid2d-certify``, the first of
``certificate_digest``'s grids for ``SEED``) and the same log values given
as data (``grid2d-certify-data``).  A 1D density or product is refined by
building it again inside a ``scoped_policy`` of ``grid_points=16385`` (its
flow is taken inside the same scope); a 2D grid is refined by building it
on ``n_points=1025``.  A 2D grid's W2^2 and W1 are per-coordinate bounds
with no error bar, so they are not listed.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/refinement_audit.py

One BLAS thread keeps it fast: the refined lattice flows run
``np.convolve``, which numpy computes through BLAS dot products.

Two trees give equally honest bars when every line holds in both; compare
the values and bars of the two listings to see what a change moved.
"""

from __future__ import annotations

from typing import NamedTuple

from certificate_digest import grid2d_certify_grids

from lsdeficit import (
    COST_ABS,
    COST_SQ,
    Grid2DDensity,
    bivariate_gaussian_grid,
    config,
    fisher_information,
    relative_entropy,
    relative_fisher,
    shannon_entropy,
    standard_battery,
    transport_cost,
)

SEED = 11
FLOW_T = 1.0
FINE_GRID_POINTS = 16385
FINE_N_POINTS_2D = 1025

QUANTITIES = {
    "D": relative_entropy,
    "I": fisher_information,
    "I_rel": relative_fisher,
    "h": shannon_entropy,
    "W2sq": lambda mu: transport_cost(mu, None, COST_SQ),
    "W1": lambda mu: transport_cost(mu, None, COST_ABS),
}
QUANTITIES_2D = ("D", "I", "I_rel", "h")


class Entry(NamedTuple):
    label: str
    quantity: str
    value: float
    bar: float
    value_fine: float
    bar_fine: float

    @property
    def gap(self) -> float:
        return abs(self.value - self.value_fine)

    @property
    def held(self) -> bool:
        return self.gap <= self.bar + self.bar_fine

    def line(self) -> str:
        numbers = (self.value, self.bar, self.value_fine, self.bar_fine, self.gap)
        return " ".join([self.label, self.quantity, *map(repr, numbers), str(self.held)])


def _law_grid(mu: Grid2DDensity, n_points: int) -> Grid2DDensity:
    """The law of a ``bivariate_gaussian_grid`` tabulated on ``n_points``."""
    rho, var, mean, _, radius = mu._law
    return bivariate_gaussian_grid(rho, var=var, mean=mean, n_points=n_points, support_radius=radius)


def _flow_label(label: str) -> str:
    return f"{label}@t={FLOW_T:g}"


def _members(fine: bool) -> list[tuple[str, object]]:
    """(label, density) pairs, built on the default or the refined grids."""
    battery = [
        (label, _law_grid(mu, FINE_N_POINTS_2D) if fine and isinstance(mu, Grid2DDensity) else mu)
        for label, mu in standard_battery()
    ]
    law = grid2d_certify_grids(SEED)[0][1]
    if fine:
        law = _law_grid(law, FINE_N_POINTS_2D)
    data = Grid2DDensity(law.spec_x, law.spec_y, law.log_values)
    flows = [(_flow_label(label), mu.heat_flow(FLOW_T)) for label, mu in battery]
    return battery + flows + [("grid2d-certify", law), ("grid2d-certify-data", data)]


def _names(mu) -> tuple[str, ...]:
    return QUANTITIES_2D if isinstance(mu, Grid2DDensity) else tuple(QUANTITIES)


def keys() -> list[tuple[str, str]]:
    """The (label, quantity) pairs of the listing, in order, computing none
    of them: the battery's, its flows' (a flow keeps its member's
    dimension) and the grid2d-certify law's, as a law and as data."""
    battery = [(label, _names(mu)) for label, mu in standard_battery()]
    members = (
        battery
        + [(_flow_label(label), names) for label, names in battery]
        + [("grid2d-certify", QUANTITIES_2D), ("grid2d-certify-data", QUANTITIES_2D)]
    )
    return [(label, name) for label, names in members for name in names]


def _values(fine: bool) -> dict[tuple[str, str], object]:
    policy = config.NumericPolicy(grid_points=FINE_GRID_POINTS if fine else None)
    with config.scoped_policy(policy):
        return {
            (label, name): QUANTITIES[name](mu)
            for label, mu in _members(fine)
            for name in _names(mu)
        }


def entries() -> list[Entry]:
    """Every line of the listing."""
    coarse, fine = _values(False), _values(True)
    return [
        Entry(*key, v.value, v.error_estimate, fine[key].value, fine[key].error_estimate)
        for key, v in coarse.items()
    ]


if __name__ == "__main__":
    listing = entries()
    print("\n".join(e.line() for e in listing))
    print(f"# {sum(e.held for e in listing)} of {len(listing)} held")
