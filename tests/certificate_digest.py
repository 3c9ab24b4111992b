"""Byte digest of every certificate over a fixed set of densities.

The set is ``standard_battery()``, the eight correlated Gaussian grids that
perfbench's grid2d-certify workload builds for a seed (unequal variances,
nonzero means), and one grid given as data: the log values of a 129-node
correlated Gaussian grid as a plain ``Grid2DDensity``, with its lattice heat
flow at t = 1.  Each density runs all 25 bounds through ``certify_suite``
(one ``Workspace`` per run, so the memo is shared as in ``lsd certify``).
It prints one ``label bound_id sha256`` line per suite entry; the hash
covers the entry's ``as_dict()`` as sorted-key JSON, the certificate's
derived slack and pass flag included (``repr`` drops them), or the skip
message.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/certificate_digest.py SEED

Two trees give the same certificates when their listings are equal.
Certificate digits can depend on the BLAS thread count, so compare listings
made under one setting.
"""

import hashlib
import json
import sys

import numpy as np

from lsdeficit import Grid2DDensity, bivariate_gaussian_grid, certify_suite, standard_battery


def grid2d_certify_grids(seed: int, k: int = 8) -> list:
    """The (label, grid) pairs of grid2d-certify for ``seed``: the same rng
    draws as ``perfbench/workloads.py``'s ``Grid2DCertify``."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(k)
    strata = (rng.permutation(k) + rng.random(k)) / k
    out = []
    for j, u_rho in zip(order, strata):
        v1 = 0.5 + 1.5 * (j + 0.5) / k
        v2 = v1 * (1.5 if j % 2 else 1.0 / 1.5)
        rho = float(rng.choice((-1.0, 1.0))) * (0.1 + 0.7 * float(u_rho))
        mean = tuple(float(m) for m in rng.choice((-1.0, 1.0), 2) * rng.uniform(0.1, 1.0, 2))
        out.append((f"grid2d(rho={rho:.4f})", bivariate_gaussian_grid(rho, var=(v1, v2), mean=mean)))
    return out


def data_grids() -> list:
    """A correlated Gaussian grid given as data, and its lattice heat flow."""
    law = bivariate_gaussian_grid(0.5, var=(0.8, 1.6), mean=(0.3, -0.4), n_points=129)
    data = Grid2DDensity(law.spec_x, law.spec_y, law.log_values)
    return [("grid2d-data", data), ("grid2d-data-flowed", data.heat_flow(1.0))]


def members(seed: int) -> list:
    """Every (label, density) pair of the digest."""
    return standard_battery() + grid2d_certify_grids(seed) + data_grids()


def listing(pairs) -> list[str]:
    """One ``label bound_id sha256`` line per suite entry, each density in
    its own ``certify_suite`` run."""
    out = []
    for label, mu in pairs:
        for entry in certify_suite([(label, mu)]):
            body = json.dumps(entry.as_dict(), sort_keys=True).encode()
            out.append(f"{label} {entry.bound_id} {hashlib.sha256(body).hexdigest()}")
    return out


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: certificate_digest.py SEED")
    print("\n".join(listing(members(int(sys.argv[1])))))
