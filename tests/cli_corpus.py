"""Byte corpus of the ``lsd`` command line.

Writes seven density specs into a directory (gaussian, mixture, tilted with
a convexity floor, a 1025-node grid, a product, a 129-node correlated
Gaussian grid dumped as ``grid2d``, and a 129-node uncorrelated one, whose
rows read their tables' error as their map to gamma and so change sign on
a few hundred kink panels) and runs, through ``cli.main`` with ``--out``,
``lsd certify`` and all ten ``lsd distance`` metrics on each spec, ``lsd
certify --bounds`` of one bound that reads a 2D grid's information
integrals (``pinsker``, ``lsi``), ``lsd distance --ref`` of the four
integral metrics (kl, fisher, tv, entropy) on the mixture, product and
``grid2d`` specs against the gaussian and product specs, admitted pairs
and refused ones, ``lsd sweep`` for each family in csv and json over short
ranges, and ``lsd report``.  It prints one ``command exit-code sha256``
line per output; the hash covers the ``--out`` file and stderr, with the
directory's name removed from stderr.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/cli_corpus.py DIR

Two trees give the same numbers when their listings are equal.  Certificate
digits can depend on the BLAS thread count, so compare listings made under
one setting.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from lsdeficit import cli
from lsdeficit.densities import (
    GaussianDensity,
    GridDensity,
    MixtureDensity,
    ProductDensity,
    TiltedDensity,
    bivariate_gaussian_grid,
)
from lsdeficit.quadrature import GridSpec
from lsdeficit.specio import dumps

METRICS = ("kl", "w2", "w2sq", "w1", "tdelta", "fisher", "deficit", "entropy", "entropy-power", "tv")
REF_METRICS = ("kl", "fisher", "tv", "entropy")
SWEEPS = {
    "gaussian-sigma": "0.8:1.2:0.2",
    "gaussian-shift": "-0.5:0.5:0.5",
    "mixture-gap": "0:2:1",
}


def _specs() -> dict:
    grid = GridSpec(-8.0, 8.0, 1025)
    skewed = MixtureDensity([(0.3, -1.0, 0.5), (0.7, 1.0, 1.0)])
    return {
        "gaussian": GaussianDensity(0.4, 1.7),
        "mixture": MixtureDensity([(0.4, -1.2, 0.6), (0.6, 0.9, 1.1)]),
        "tilted": TiltedDensity([0.0, 0.0, 0.25, 0.0, 0.05], convexity_lower_bound=0.5),
        "grid": GridDensity(grid, skewed.log_pdf(grid.nodes())),
        "product": ProductDensity(
            [GaussianDensity(0.3, 0.8), MixtureDensity([(0.5, -1.0, 1.0), (0.5, 1.0, 1.0)])]
        ),
        "grid2d": bivariate_gaussian_grid(0.4, var=(0.9, 1.3), n_points=129),
        "grid2d-flat": bivariate_gaussian_grid(0.0, n_points=129),
    }


def write_specs(directory) -> list[str]:
    """Writes ``<name>.json`` for each spec; returns the names."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    specs = _specs()
    for name, density in specs.items():
        (directory / f"{name}.json").write_text(dumps(density))
    return list(specs)


def commands(names) -> list[list[str]]:
    """Every command of the corpus, spec files named relative to the directory."""
    out = []
    for name in names:
        out.append(["certify", "--dist", f"{name}.json"])
        out += [["distance", "--dist", f"{name}.json", "--metric", m] for m in METRICS]
    out += [["certify", "--dist", "grid2d.json", "--bounds", bound] for bound in ("pinsker", "lsi")]
    out += [
        ["distance", "--dist", f"{dist}.json", "--metric", m, "--ref", f"{ref}.json"]
        for dist in ("mixture", "product", "grid2d")
        for ref in ("gaussian", "product")
        for m in REF_METRICS
    ]
    for family, values in SWEEPS.items():
        out += [["sweep", "--family", family, "--range", values, "--format", f] for f in ("csv", "json")]
    out.append(["report"])
    return out


def run(directory, argv: list[str]) -> str:
    """One ``command exit-code sha256`` line for ``argv`` run in ``directory``."""
    directory = Path(directory)
    target = directory / "out.txt"
    target.unlink(missing_ok=True)
    located = [str(directory / a) if a.endswith(".json") else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(located + ["--out", str(target)])
    body = target.read_bytes() if target.exists() else b""
    stderr = err.getvalue().replace(str(directory), "").encode()
    digest = hashlib.sha256(body + b"\0" + stderr).hexdigest()
    return f"{' '.join(argv)} {code} {digest}"


def listing(directory) -> list[str]:
    """The whole corpus run in ``directory``, one line per output."""
    return [run(directory, argv) for argv in commands(write_specs(directory))]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: cli_corpus.py DIR")
    print("\n".join(listing(sys.argv[1])))
