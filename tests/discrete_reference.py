"""Exact transport costs between discrete laws on the line, for tests.

Two independent routes to the same number.  ``monotone_matching_cost`` is
the north-west-corner sweep over sorted atoms, the monotone coupling, which
is optimal for every convex cost of the displacement.  ``brute_force_cost``
splits the masses into equal units and takes the minimum over every
permutation of the units, which covers every extreme coupling of the
equal-mass problem.  Neither reads the library's tables or maps; only the
cost functions come from ``lsdeficit.transport``.
"""

import itertools
import math
from functools import lru_cache

import numpy as np


def _sorted(points, masses) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(points, dtype=float)
    order = np.argsort(pts, kind="stable")
    return pts[order], np.asarray(masses, dtype=float)[order]


def monotone_matching_cost(a_points, a_masses, b_points, b_masses, cost) -> float:
    """North-west-corner sweep over the atoms of each side, in sorted order."""
    a_pts, a_m = _sorted(a_points, a_masses)
    b_pts, b_m = _sorted(b_points, b_masses)
    terms = []
    ia = ib = 0
    ra, rb = a_m[0], b_m[0]
    while True:
        move = min(ra, rb)
        terms.append(move * float(cost(a_pts[ia] - b_pts[ib])))
        ra -= move
        rb -= move
        if ra <= 1e-15:
            ia += 1
            if ia == a_pts.size:
                break
            ra = a_m[ia]
        if rb <= 1e-15:
            ib += 1
            if ib == b_pts.size:
                break
            rb = b_m[ib]
    return math.fsum(terms)


def _unit_split(masses: np.ndarray, units: int) -> np.ndarray | None:
    """Partition sizes k_i with masses = k_i / units, or None."""
    scaled = np.asarray(masses, dtype=float) * units
    rounded = np.rint(scaled)
    if np.all(np.abs(scaled - rounded) < 1e-9) and rounded.sum() == units:
        return rounded.astype(int)
    return None


@lru_cache(maxsize=8)
def _permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def brute_force_cost(a_points, a_masses, b_points, b_masses, cost) -> float | None:
    """Exhaustive minimum over couplings, via equal-mass unit splitting.

    Returns None when the masses of both sides are not multiples of one 1/L
    with L <= 8 (the search runs over the L! permutations of the units).
    """
    for units in range(1, 9):
        ka = _unit_split(a_masses, units)
        kb = _unit_split(b_masses, units)
        if ka is not None and kb is not None:
            break
    else:
        return None
    units_a = np.repeat(np.asarray(a_points, dtype=float), ka)
    units_b = np.repeat(np.asarray(b_points, dtype=float), kb)
    perms = _permutations(units_a.size)
    costs = np.asarray(cost(units_a[perms] - units_b[None, :]), dtype=float)
    return float(costs.sum(axis=1).min() / units_a.size)
