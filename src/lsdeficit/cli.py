"""Command line front end.

Four subcommands: ``distance`` computes one functional of a density
file, ``certify`` evaluates registered inequality certificates,
``sweep`` tabulates functionals and certificate slacks along a
one-parameter family, and ``report`` summarises a battery run.

Output is JSON (CSV available for sweeps) with sorted keys, so repeated
runs over the same inputs are byte-identical.  Exit codes: 0 success,
1 certificate failure, 2 parse or argument error, 3 hypothesis
violation, 4 numerical failure.  ``lsd`` keeps no input rule of its own:
``transport_cost`` decides which pairs of shapes have an exact cost, and
``config.NumericPolicy`` and ``check_tol`` check the numeric flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import config
from .battery import standard_battery
from .bounds import (BOUND_IDS, DEFAULT_TOL, Workspace, _ratio_or_zero, certify_suite, check_tol,
                     evaluate_bound)
from .densities import Density
from .errors import (
    ArgumentError,
    HypothesisError,
    LsdError,
    SpecParseError,
    SupportError,
)
from .functionals import entropy_power, integrals, lsi_deficit
from .specio import load as load_density_file
from .transport import COST_ABS, COST_DELTA, COST_SQ, transport_cost


@functools.lru_cache(maxsize=1)
def _version() -> str:
    """The installed package's version, or "unknown": it only decorates the
    ``report`` and ``sweep --format json`` metadata, so only they read it."""
    try:
        from importlib.metadata import version

        return version("lsdeficit")
    except Exception:  # pragma: no cover - not installed
        return "unknown"


_METRICS = (
    "kl",
    "w2",
    "w2sq",
    "w1",
    "tdelta",
    "fisher",
    "deficit",
    "entropy",
    "entropy-power",
    "tv",
)

_EXIT_OK = 0
_EXIT_CERT_FAIL = 1
_EXIT_PARSE = 2
_EXIT_HYPOTHESIS = 3
_EXIT_NUMERICAL = 4


def _emit(obj, out_path: str | None) -> None:
    _write(json.dumps(obj, sort_keys=True, indent=2) + "\n", out_path)


def _write(text: str, out_path: str | None) -> None:
    """``text`` to stdout, or to the ``--out`` file when one is given."""
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def _sqrt_error(a: float, e: float) -> float:
    """A bar for sqrt(a) when a >= 0 is known to within e: the root is
    concave, so its larger change is the downside sqrt(a) - sqrt(a - e),
    written without cancellation; no change exceeds sqrt(e)."""
    root = math.sqrt(a) + math.sqrt(max(a - e, 0.0))
    return min(e / root, math.sqrt(e)) if root > 0.0 else math.sqrt(e)


# The metrics that are one integral of ``functionals.integrals`` or one ``transport_cost``.
_INTEGRALS = {"kl": "D", "fisher": "I_rel", "tv": "TV", "entropy": "h"}
_COSTS = {"w2sq": COST_SQ, "w2": COST_SQ, "w1": COST_ABS, "tdelta": COST_DELTA}


def _metric_value(metric: str, mu: Density, ref: Density | None) -> tuple[float, float]:
    no_ref = {"deficit", "entropy", "entropy-power"}
    if metric in no_ref and ref is not None:
        raise ArgumentError(f"metric {metric!r} is defined against the standard Gaussian only")
    if metric in _INTEGRALS:
        name = _INTEGRALS[metric]
        v = integrals(mu, (name,), ref)[name]
    elif metric == "deficit":
        v = lsi_deficit(mu)
    elif metric == "entropy-power":
        v = entropy_power(mu)
    elif metric in _COSTS:  # argparse admits no other metric
        v = transport_cost(mu, ref, _COSTS[metric])
        if metric == "w2":
            a = max(v.value, 0.0)
            return math.sqrt(a), _sqrt_error(a, v.error_estimate)
    return v.value, v.error_estimate


def _cmd_distance(args) -> int:
    mu = load_density_file(args.dist)
    ref = None if args.ref in (None, "gaussian") else load_density_file(args.ref)
    value, error = _metric_value(args.metric, mu, ref)
    _emit({"metric": args.metric, "value": value, "error": error}, args.out)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _parse_bounds(raw: str) -> list[str]:
    if raw == "all":
        return list(BOUND_IDS)
    ids = [s.strip() for s in raw.split(",") if s.strip()]
    if not ids:
        raise ArgumentError("empty bounds list")
    return ids


def _certify_one(mu: Density, ids: list[str], tol: float) -> dict:
    ws = Workspace()
    certificates = []
    skipped = []
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for bid in ids:
        try:
            cert = evaluate_bound(bid, mu, tol=tol, workspace=ws)
        except HypothesisError as exc:
            skipped.append({"bound_id": bid, "reason": str(exc)})
            counts["skip"] += 1
            continue
        certificates.append(cert.as_dict())
        counts["pass" if cert.passed else "fail"] += 1
    return {"certificates": certificates, "skipped": skipped, "summary": counts, "tol": tol}


def _cmd_certify(args) -> int:
    mu = load_density_file(args.dist)
    ids = _parse_bounds(args.bounds)
    report = _certify_one(mu, ids, args.tol)
    _emit(report, args.out)
    return _EXIT_OK if report["summary"]["fail"] == 0 else _EXIT_CERT_FAIL


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_COLUMNS = ("deficit", "w2sq", "tdelta_sq_over_d", "w1_4_over_d") + tuple(
    f"slack_{bid}" for bid in BOUND_IDS
)
_MAX_SWEEP_VALUES = 10_000


def _parse_range(raw: str) -> list[float]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ArgumentError(f"range must be lo:hi:step, got {raw!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ArgumentError(f"range must be numeric lo:hi:step, got {raw!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise ArgumentError("range endpoints and step must be finite")
    if step <= 0 or hi < lo:
        raise ArgumentError("range needs step > 0 and hi >= lo")
    steps = (hi - lo) / step + 1e-9
    if not steps < _MAX_SWEEP_VALUES:
        raise ArgumentError(f"range {raw!r} has more than {_MAX_SWEEP_VALUES} values")
    values = [round(lo + k * step, 10) for k in range(int(steps) + 1)]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ArgumentError(f"range {raw!r} merges values when rounded to 10 decimals")
    return values


def _family_density(family: str, value: float) -> Density:
    from .densities import GaussianDensity, MixtureDensity

    if family == "gaussian-sigma":
        if value <= 0:
            raise ArgumentError(f"sigma must be positive, got {value}")
        return GaussianDensity(0.0, value * value)
    if family == "gaussian-shift":
        return GaussianDensity(value, 1.0)
    if family == "mixture-gap":
        if value < 0:
            raise ArgumentError(f"gap must be nonnegative, got {value}")
        h = 0.5 * value
        return MixtureDensity([(0.5, -h, 1.0), (0.5, h, 1.0)])
    raise ArgumentError(f"unknown family {family!r}")


_FAMILY_PARAM = {
    "gaussian-sigma": "sigma",
    "gaussian-shift": "shift",
    "mixture-gap": "gap",
}


def _cmd_sweep(args) -> int:
    values = _parse_range(args.range)
    family = args.family
    columns: dict[str, list] = {name: [] for name in _SWEEP_COLUMNS}
    for v in values:
        mu = _family_density(family, v)
        ws = Workspace()
        s = ws.stats(mu)
        d = s.d
        columns["deficit"].append(s.deficit)
        columns["w2sq"].append(s.w2sq)
        columns["tdelta_sq_over_d"].append(_ratio_or_zero(s.tdelta**2, d))
        columns["w1_4_over_d"].append(_ratio_or_zero(s.w1**4, d))
        for bid in BOUND_IDS:
            try:
                cert = evaluate_bound(bid, mu, tol=args.tol, workspace=ws)
                columns[f"slack_{bid}"].append(cert.slack)
            except HypothesisError:
                columns[f"slack_{bid}"].append(None)
    parameter = _FAMILY_PARAM[family]
    if args.format == "json":
        metadata = {
            "grid_points": config.default_grid_points(),
            "grid_points_2d": config.DEFAULT_GRID_POINTS_2D,
            "support_radius": config.support_radius(),
            "tol": args.tol,
            "tool": f"lsdeficit {_version()}",
        }
        _emit({"family": family, "parameter": parameter, "values": values,
               "columns": columns, "metadata": metadata}, args.out)
        return _EXIT_OK
    lines = [",".join((parameter,) + _SWEEP_COLUMNS)]
    for i, v in enumerate(values):
        cells = [repr(v)] + ["" if columns[name][i] is None else repr(columns[name][i])
                             for name in _SWEEP_COLUMNS]
        lines.append(",".join(cells))
    _write("\n".join(lines) + "\n", args.out)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _cmd_report(args) -> int:
    if args.density is not None:
        members = []
        for path in args.density:
            try:
                members.append((os.path.basename(path), load_density_file(path)))
            except SpecParseError as exc:
                raise SpecParseError(f"battery member {path!r}: {exc}") from exc
    else:
        members = standard_battery()

    per_bound = {bid: {"pass": 0, "fail": 0, "skip": 0, "worst_slack": None} for bid in BOUND_IDS}
    for entry in certify_suite(members, tol=args.tol):
        row, cert = per_bound[entry.bound_id], entry.certificate
        if cert is None:
            row["skip"] += 1
            continue
        row["pass" if cert.passed else "fail"] += 1
        if row["worst_slack"] is None or cert.slack < row["worst_slack"]:
            row["worst_slack"] = cert.slack
    totals = {key: sum(row[key] for row in per_bound.values()) for key in ("pass", "fail", "skip")}
    report = {
        "suite": args.suite,
        "members": [label for label, _ in members],
        "counts": totals,
        "per_bound": per_bound,
        "tol": args.tol,
        "metadata": {
            "grid_points": config.default_grid_points(),
            "support_radius": config.support_radius(),
            "tool": f"lsdeficit {_version()}",
        },
    }
    _emit(report, args.out)
    return _EXIT_OK if totals["fail"] == 0 else _EXIT_CERT_FAIL


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="certificate tolerance (default %(default)s)")
    common.add_argument("--grid-points", type=int, default=None,
                        help="override the 1D evaluation grid size")
    common.add_argument("--support-radius", type=float, default=config.DEFAULT_SUPPORT_RADIUS,
                        help="override the support truncation radius")
    common.add_argument("--out", default=None, help="write output here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="lsd",
        description="Distances to the standard Gaussian and deficit certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", parents=[common], help="compute one functional")
    p.add_argument("--dist", required=True, help="density spec JSON file")
    p.add_argument("--metric", required=True, choices=_METRICS)
    p.add_argument("--ref", default=None,
                   help="reference density file (default: standard Gaussian)")
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("certify", parents=[common], help="evaluate bound certificates")
    p.add_argument("--dist", required=True, help="density spec JSON file")
    p.add_argument("--bounds", default="all", help="'all' or comma separated bound ids")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("sweep", parents=[common], help="tabulate a one-parameter family")
    p.add_argument("--family", required=True, choices=sorted(_FAMILY_PARAM))
    p.add_argument("--range", required=True, help="lo:hi:step, inclusive of hi")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("report", parents=[common], help="summarise a battery run")
    p.add_argument("--suite", default="default", choices=("default",))
    p.add_argument("--density", nargs="*", default=None,
                   help="override battery members with density files")
    p.set_defaults(fn=_cmd_report)
    return parser


def _fuse_range_flag(argv: list[str]) -> list[str]:
    """Let '--range -2:2:0.5' through argparse by fusing flag and value."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--range" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--range={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_fuse_range_flag(argv))
    try:
        # the policy checks its two flags, and they never outlive the call
        with config.scoped_policy(config.NumericPolicy(args.grid_points, args.support_radius)):
            check_tol(args.tol)
            return args.fn(args)
    except (SpecParseError, ArgumentError, SupportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_PARSE
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_HYPOTHESIS
    except (LsdError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
